"""One benchmark sample in a fresh process; prints one JSON line.

    PYTHONPATH=src python3 perfbench/worker.py --workload bar-com6 [--trace]
    PYTHONPATH=src python3 perfbench/worker.py --workload bar-com6 --setup-only

The sample imports opbar, builds the workload's inputs (``setup_s``), runs
the workload and checks its answer against the oracle (``wall_s``). A
fresh process per sample means no sample sees the lru caches or complexes
of an earlier one.

Untraced, a ``Ticker`` runs ``reference_tick`` every ``TICK_S`` seconds in
between the sample's own bytecodes. Each phase reports its seconds without
the ticks, and the ticks' mean duration, which tells how fast the host ran
Python during that very phase. With ``--trace`` the ticker is off and the
layer tracer is installed after the import, so the traced set-up and run
are both attributed to layers.
"""

import argparse
import json
import os
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction

TICK_S = 0.01


def reference_tick():
    """Fixed exact-arithmetic work like opbar's inner loops, without opbar."""
    table, x = {}, Fraction(1, 3)
    for i in range(60):
        key = (i % 13, "k")
        table[key] = table.get(key, 0) + x * Fraction(i % 7 + 1, 5)
    return table


class Ticker:
    """Times ``reference_tick`` on SIGALRM, between the running bytecodes."""

    def __init__(self):
        self.ticks = []                 # (start, seconds)

    def _tick(self, _signum, _frame):
        start = time.perf_counter()
        reference_tick()
        self.ticks.append((start, time.perf_counter() - start))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def phase(self, begin, end):
        """Seconds from begin to end less ticks, and the mean tick or None."""
        inside = [s for t, s in self.ticks if begin <= t < end]
        mean = sum(inside) / len(inside) if inside else None
        return end - begin - sum(inside), mean


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    ticker = Ticker()
    if not args.trace:
        ticker.start()
    start = time.perf_counter()
    import opbar
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.realpath(__file__))), "src")
    if os.path.dirname(os.path.dirname(os.path.realpath(opbar.__file__))) \
            != src:
        sys.exit(f"opbar imported from {opbar.__file__}, not from {src}")
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()
    out = {"workload": workload.name, "ok": False}
    try:
        inputs = workload.setup()
        ready = time.perf_counter()
        out["setup_s"], out["setup_tick_s"] = ticker.phase(start, ready)
        covered = tracer.covered_s() if tracer else 0.0
        if not args.setup_only:
            workload.check(workload.run(inputs))
            done = time.perf_counter()
            out["wall_s"], out["wall_tick_s"] = ticker.phase(ready, done)
            if tracer is not None:
                out["unattributed_s"] = out["wall_s"] - (
                    tracer.covered_s() - covered)
        out["ok"] = True
    except Exception as exc:   # a raised or wrong sample is a failed sample
        out["error"] = f"{type(exc).__name__}: {exc}"
        traceback.print_exc()
    finally:
        ticker.stop()
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["calls"] = tracer.call_counts()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
