"""Tests of the benchmark itself (not part of the package's test suite).

    PYTHONPATH=src python3 -m pytest -q perfbench

The traced samples take about three minutes on a 2-CPU host, most of it
in derivatives-5.
"""

import cProfile
import json
import math
import os
import pstats
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import worker  # noqa: E402
from opbar.exactla import ExactMatrix  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Self time of each workload's predicted layers, as a share of traced wall.
PREDICTED = {
    "bar-com6": ("trees.enumerate_s", "trees.collapse_s",
                 "barcobar.assemble_s", "exactla.snf_s"),
    "koszul-ass5": ("exactla.rank_s",),
    "koszul-com5": ("exactla.solve_s", "barcobar.structure_s"),
    "derivatives-5": ("exactla.solve_s", "exactla.reps_s"),
    "structure-checks": ("barcobar.structure_s", "checks.check_s",
                         "exactla.tensor_s"),
}
HASH_SEEDS = (1, 1, 2)


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _traced_sample(job):
    name, seed = job
    env = dict(os.environ, PYTHONHASHSEED=str(seed),
               PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, run.WORKER, "--workload", name, "--trace"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    """Traced samples of every workload, for each of HASH_SEEDS."""
    jobs = [(name, seed) for name in workloads.WORKLOADS
            for seed in HASH_SEEDS]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(_traced_sample, jobs))
    out = {}
    for (name, _seed), result in zip(jobs, results):
        assert result["ok"], result.get("error")
        out.setdefault(name, []).append(result)
    return out


def test_names_match_benchmark_json():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(
        run.WORKLOAD_NAMES + run.MANUAL_WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "wall_s", "peak_rss_mb"]
    layer_names = set(tracer.Tracer().metrics()) | {
        "trace.wall_s", "trace.unattributed_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    assert spec["command"][1] == "perfbench/run.py"


def test_exact_counts(traced):
    bar = traced["bar-com6"][0]["layers"]
    assert bar["trees.enumerated"] == 16747
    assert bar["barcobar.trees_kept"] == 2752
    # One solve_in_span per express_in_homology call; no other caller.
    deriv = traced["derivatives-5"][0]["layers"]
    assert deriv["exactla.solve_calls"] == 365
    assert deriv["exactla.solve_rows"] == 31157
    assert traced["structure-checks"][0]["layers"]["checks.instances"] == \
        workloads.STRUCTURE_INSTANCES


def test_counts_repeat_across_runs_and_hash_seeds(traced):
    for name, samples in traced.items():
        counts = [({k: v for k, v in s["layers"].items()
                    if not k.endswith("_s")}, s["calls"]) for s in samples]
        assert all(c == counts[0] for c in counts), name


def test_self_times_cover_the_traced_wall(traced):
    for name, samples in traced.items():
        for s in samples:
            wall = s["wall_s"]
            assert 0 <= s["unattributed_s"] < 0.02 * wall, name
            predicted = sum(s["layers"][m] for m in PREDICTED[name])
            assert predicted > 0.5 * wall, (name, predicted, wall)


def _profiled_job():
    """A short run through every layer: each workload's code paths."""
    from opbar.barcobar import derivatives_homology, jacobi_relation, koszul
    from opbar.barcobar import reduced_bar
    from opbar.opalg import builtin

    structure = workloads.WORKLOADS["structure-checks"]
    structure.check(structure.run(structure.setup()))
    reduced_bar(builtin("com", 5), 5).homology()
    koszul(builtin("ass", 4), 4, with_structure=False)
    jacobi_relation(derivatives_homology(4))


def test_tracer_misses_no_calls():
    t = tracer.Tracer().install()
    profile = cProfile.Profile()
    try:
        profile.runcall(_profiled_job)
    finally:
        t.uninstall()
    stats = pstats.Stats(profile).stats
    ncalls = {(code[0], code[1], code[2]): row[1]
              for code, row in stats.items()}
    traced_calls = t.call_counts()
    for _time_metric, _calls_metric, specs in tracer.GROUPS:
        for spec in specs:
            owner, name = tracer._resolve(spec)
            code = getattr(owner, name).__code__
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            assert traced_calls[spec] == ncalls.get(key, 0), spec
    assert all(traced_calls[spec] for spec in (
        "opbar.exactla:solve_in_span", "opbar.exactla:ChainMap.verify",
        "opbar.exactla:tensor_list", "opbar.checks:check_coassociativity",
        "opbar.barcobar:module_structure_maps"))
    # Uninstalling restores every original function.
    from opbar import barcobar, checks
    assert not hasattr(barcobar.solve_in_span, "__wrapped__")
    assert not hasattr(checks.reduced_bar, "__wrapped__")


def test_ticks_are_taken_out_of_a_phase_and_calibrate_it():
    ticker = worker.Ticker()
    ticker.ticks = [(1.0, 0.001), (1.5, 0.003), (3.0, 0.002)]
    assert ticker.phase(1.0, 2.0) == pytest.approx((0.996, 0.002))
    assert ticker.phase(2.0, 2.5) == (0.5, None)
    assert run.calibrated(2.0, 2 * run.REFERENCE_TICK_S) == 1.0


def _wrong_answers():
    """One wrong answer per workload, each close to the right one."""
    lie = SimpleNamespace(
        modules={n: SimpleNamespace(degrees=lambda n=n: [1 - n])
                 for n in range(2, 6)},
        dimension=lambda n: math.factorial(n - 1))
    return {
        "bar-com6": SimpleNamespace(groups={5: (120, (2,))}),
        "koszul-ass5": SimpleNamespace(is_koszul=lambda: False),
        # Right dimensions, but the trivial action instead of sgn (x) Lie.
        "koszul-com5": SimpleNamespace(
            is_koszul=lambda: True, dimension=lambda n: math.factorial(n - 1),
            actions={n: [ExactMatrix.identity(math.factorial(n - 1))] * (n - 1)
                     for n in range(2, 6)}),
        "derivatives-5": (lie, (1, {0: 1, 1: 1, 2: 2})),
        "structure-checks": (workloads.STRUCTURE_INSTANCES - 1, [True] * 13),
    }


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_oracle_rejects_a_wrong_answer(name):
    with pytest.raises(workloads.VerdictError):
        workloads.WORKLOADS[name].check(_wrong_answers()[name])


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bar-com6",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
