"""opbar benchmark: end-to-end metrics per workload, or per-layer metrics.

    python3 perfbench/run.py --workload bar-com6 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25

Run it from the root of a source checkout; it imports opbar from ``src``.
Each sample is one fresh worker process (``worker.py``); samples run one
at a time until ``--seconds`` have passed. The seed sets the workers'
PYTHONHASHSEED, the only thing a seed can change in these fixed
workloads.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
``SETUP_PROBES`` set-up-only workers and the samples), ``wall_s`` (median
sample) and ``peak_rss_mb`` (largest sample process). Both times are in
calibrated seconds: each phase's seconds times ``REFERENCE_TICK_S`` over
the mean time of the reference ticks the worker ran during that phase,
which cancels the host's drift between slow and fast periods.
``--trace 1`` runs pairs of an untraced and a traced sample and reports
the layer metrics of ``tracer.py``: medians over the traced samples, plus
``trace.overhead_s`` (traced minus untraced median wall, in raw seconds
without the ticks). Every sample's answer is checked against the oracle
in ``workloads.py``; a sample that raises, fails the oracle or whose
worker dies counts as failed. The last line of standard output is one
JSON object; the lines before it are for people.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
# The workloads of BENCHMARK.json, in its order.
WORKLOAD_NAMES = ("bar-com6", "koszul-ass5", "koszul-com5",
                  "structure-checks")
# Runnable by name but not timed by BENCHMARK.json: one sample takes
# 26-39 s on a 2-CPU host, too long to take a median within one run.
MANUAL_WORKLOADS = ("derivatives-5",)
SETUP_PROBES = 5
# Calibrated seconds are seconds on a host that runs worker.reference_tick
# in this time.
REFERENCE_TICK_S = 0.0005
# No sample starts unless the last one would still end before this.
DEADLINE_S = 150.0


def host_info():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu, "loadavg": [round(x, 2) for x in os.getloadavg()]}


class Session:
    """Starts worker processes for one workload and one hash seed."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32),
                        PYTHONPATH=os.path.join(ROOT, "src"))
        self.started = time.perf_counter()
        self.attempted = 0
        self.errors = []

    def elapsed(self):
        return time.perf_counter() - self.started

    def sample(self, *flags):
        """One worker's JSON result, or None if it failed."""
        self.attempted += 1
        budget = max(1.0, DEADLINE_S + 25.0 - self.elapsed())
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, "--workload", self.workload, *flags],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=budget)
        except subprocess.TimeoutExpired:
            return self._fail(f"worker {flags} exceeded {budget:.0f} s")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return self._fail(f"worker {flags} exited {proc.returncode}: "
                              f"{proc.stderr.strip()[-500:]}")
        result = json.loads(lines[-1])
        if not result["ok"]:
            return self._fail(result.get("error", "failed"))
        return result

    def _fail(self, message):
        self.errors.append(message)
        return None

    def more(self, seconds, last_s):
        """Whether to start another sample; the first always starts."""
        if last_s is None:
            return True
        done = self.elapsed()
        return done < seconds and done + last_s < DEADLINE_S


def measure(workload, seed, seconds):
    """End-to-end metrics of one workload, tracing off."""
    s = Session(workload, seed)
    results = []
    for _ in range(SETUP_PROBES):
        results.append(s.sample("--setup-only"))
    samples, last = [], None
    while s.more(seconds, last):
        t0 = time.perf_counter()
        samples.append(s.sample())
        last = time.perf_counter() - t0
    results = [r for r in results + samples if r is not None]
    samples = [r for r in samples if r is not None]
    metrics = {}
    if samples:
        # A phase shorter than one tick borrows the run's median tick.
        ticks = statistics.median(
            r[k] for r in results for k in ("setup_tick_s", "wall_tick_s")
            if r.get(k))
        setups = [calibrated(r["setup_s"], r["setup_tick_s"] or ticks)
                  for r in results]
        walls = [calibrated(r["wall_s"], r["wall_tick_s"] or ticks)
                 for r in samples]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in samples),
                            "unit": "MB"},
        }
        for label, values in (
                ("raw wall_s", [r["wall_s"] for r in samples]),
                ("calibrated wall_s", walls),
                ("raw setup_s", [r["setup_s"] for r in results]),
                ("calibrated setup_s", setups),
                ("tick ms", [1000 * r["wall_tick_s"] for r in samples
                             if r["wall_tick_s"]])):
            print(f"{workload}: {len(values)} {label}: "
                  f"{' '.join(f'{v:.3f}' for v in sorted(values))}")
        for name, m in metrics.items():
            print(f"{workload}: {name} {m['value']:.4f} {m['unit']}")
    return s, metrics


def measure_layers(workload, seed, seconds):
    """Per-layer metrics: pairs of an untraced and a traced sample."""
    s = Session(workload, seed)
    plain, traced, last = [], [], None
    while s.more(seconds, last):
        t0 = time.perf_counter()
        a = s.sample()
        b = s.sample("--trace")
        last = time.perf_counter() - t0
        if a is not None:
            plain.append(a["wall_s"])
        if b is not None:
            traced.append(b)
    metrics = {}
    if plain and traced:
        layers = {name: statistics.median(t["layers"][name] for t in traced)
                  for name in traced[0]["layers"]}
        wall = statistics.median(t["wall_s"] for t in traced)
        layers["trace.wall_s"] = wall
        layers["trace.unattributed_s"] = statistics.median(
            t["unattributed_s"] for t in traced)
        layers["trace.overhead_s"] = wall - statistics.median(plain)
        metrics = {name: {"value": v, "unit": unit_of(name)}
                   for name, v in layers.items()}
        for name, v in sorted(layers.items()):
            if name.endswith("_s") and v:
                print(f"{workload}: {name:28s} {v:10.4f} s "
                      f"{100 * v / wall:6.1f}% of traced wall")
    return s, metrics


def calibrated(seconds, tick_s):
    return seconds * REFERENCE_TICK_S / tick_s


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_one(workload, seed, seconds, trace):
    info = host_info()
    print(f"host: {json.dumps(info)}")
    if trace:
        s, metrics = measure_layers(workload, seed, seconds)
    else:
        s, metrics = measure(workload, seed, seconds)
    failed = len(s.errors)
    for message in s.errors:
        print(f"{workload}: FAILED: {message}")
    print(f"{workload}: attempted {s.attempted}, failed {failed}, "
          f"error_rate {failed / s.attempted:.4f} fraction")
    return {"correct": failed == 0 and bool(metrics),
            "attempted": s.attempted, "failed": failed,
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + MANUAL_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "opbar", "__init__.py")):
        sys.exit(f"no opbar sources under {ROOT}/src: run from a checkout")
    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
    else:
        runs = {w: run_one(w, args.seed, args.seconds, args.trace)
                for w in WORKLOAD_NAMES + MANUAL_WORKLOADS}
        result = {
            "correct": all(r["correct"] for r in runs.values()),
            "attempted": sum(r["attempted"] for r in runs.values()),
            "failed": sum(r["failed"] for r in runs.values()),
            "metrics": {f"{w}.{name}": m for w, r in runs.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
