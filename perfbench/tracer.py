"""Layer tracer that wraps opbar's public functions from outside the package.

``Tracer.install`` replaces each function in ``GROUPS`` by a wrapper in
every loaded module namespace that holds it (``from x import f`` copies
the name, so patching the defining module alone would miss those calls)
and, for methods, on the class. A wrapper measures its span with
``time.perf_counter`` and keeps a stack of open spans, so each function's
self time is its span minus the spans of the wrapped calls it made.
Spans are folded into per-function totals as they close; nothing is
kept per call.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# Each group: self-time metric, call-count metric (or None), functions.
# A function is "module:attribute" or "module:Class.method".
GROUPS = (
    ("trees.enumerate_s", "trees.enumerate_calls",
     ("opbar.trees:enumerate_trees",)),
    ("trees.collapse_s", "trees.collapse_calls",
     ("opbar.trees:collapse",)),
    ("barcobar.assemble_s", "barcobar.complexes_built",
     ("opbar.barcobar:bar_complex", "opbar.barcobar:cobar_complex")),
    ("barcobar.structure_s", "barcobar.structure_calls",
     ("opbar.barcobar:bar_cocomposition", "opbar.barcobar:cobar_composition",
      "opbar.barcobar:module_structure_maps",
      "opbar.barcobar:symmetric_action")),
    ("barcobar.koszul_s", None,
     ("opbar.barcobar:koszul", "opbar.barcobar:derivatives_homology",
      "opbar.barcobar:jacobi_relation")),
    ("exactla.snf_s", "exactla.snf_calls",
     ("opbar.exactla:smith_normal_form",)),
    ("exactla.rank_s", "exactla.rank_calls",
     ("opbar.exactla:matrix_rank",)),
    ("exactla.kernel_s", "exactla.kernel_calls",
     ("opbar.exactla:kernel_basis", "opbar.exactla:column_space_basis")),
    ("exactla.reps_s", "exactla.reps_calls",
     ("opbar.exactla:homology_representatives",)),
    ("exactla.solve_s", "exactla.solve_calls",
     ("opbar.exactla:solve_in_span",)),
    ("exactla.tensor_s", "exactla.tensor_calls",
     ("opbar.exactla:tensor_list",)),
    ("exactla.chainmap_verify_s", "exactla.chainmap_verify_calls",
     ("opbar.exactla:ChainMap.verify",)),
    ("checks.check_s", "checks.check_calls",
     ("opbar.checks:check_coassociativity",
      "opbar.checks:check_disjoint_cocompositions",
      "opbar.checks:check_cobar_associativity",
      "opbar.checks:check_unary_action_is_identity",
      "opbar.checks:check_module_pentagon_chain")),
    ("opalg.build_s", "opalg.build_calls",
     ("opbar.opalg:builtin", "opbar.opalg:dual", "opbar.opalg:unit_module",
      "opbar.opalg:builtin_sphere_comodule",
      "opbar.opalg:builtin_sphere_module",
      "opbar.opalg:constant_comodule", "opbar.opalg:loads")),
)


def _complex_counts(counts, _args, bc):
    counts["barcobar.trees_kept"] += len(bc.trees())
    counts["barcobar.basis_rank"] += bc.complex.module.total_rank()
    counts["barcobar.diff_nnz"] += sum(
        m.nnz() for m in bc.complex.diffs.values())


def _nnz_in(metric):
    def count(counts, args, _result):
        counts[metric] += args[0].nnz()
    return count


def _enumerated(counts, _args, trees):
    counts["trees.enumerated"] += len(trees)


def _solve_rows(counts, args, _result):
    counts["exactla.solve_rows"] += len(args[0])


def _instances(counts, _args, result):
    # Identity checks return an instance count; module checks return True.
    if type(result) is int:
        counts["checks.instances"] += result


# Work counts read from a wrapped call's arguments and result.
COUNTERS = {
    "opbar.trees:enumerate_trees": _enumerated,
    "opbar.barcobar:bar_complex": _complex_counts,
    "opbar.barcobar:cobar_complex": _complex_counts,
    "opbar.exactla:smith_normal_form": _nnz_in("exactla.snf_nnz_in"),
    "opbar.exactla:matrix_rank": _nnz_in("exactla.rank_nnz_in"),
    "opbar.exactla:solve_in_span": _solve_rows,
    "opbar.checks:check_coassociativity": _instances,
    "opbar.checks:check_disjoint_cocompositions": _instances,
    "opbar.checks:check_cobar_associativity": _instances,
}

COUNT_METRICS = (
    "trees.enumerated", "barcobar.trees_kept", "barcobar.basis_rank",
    "barcobar.diff_nnz", "exactla.snf_nnz_in", "exactla.rank_nnz_in",
    "exactla.solve_rows", "checks.instances",
)


def _resolve(spec):
    module_name, _, path = spec.partition(":")
    owner = importlib.import_module(module_name)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Self time and call count per wrapped function, plus work counts."""

    def __init__(self):
        self.stats = {}                 # spec -> [calls, self seconds]
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self._open = []                 # child seconds of each open span
        self._top = [0.0]               # seconds inside outermost spans
        self._patches = []              # (namespace, name, original)

    def _wrap(self, spec, fn):
        stats = self.stats.setdefault(spec, [0, 0.0])
        counter = COUNTERS.get(spec)
        open_spans = self._open
        top = self._top
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                children = open_spans.pop()
                stats[0] += 1
                stats[1] += span - children
                if open_spans:
                    open_spans[-1] += span
                else:
                    top[0] += span
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def install(self):
        """Wrap every function of ``GROUPS`` wherever opbar code finds it."""
        wrapped = {}
        for _time_metric, _calls_metric, specs in GROUPS:
            for spec in specs:
                owner, name = _resolve(spec)
                original = getattr(owner, name)
                wrapped[id(original)] = (original, self._wrap(spec, original))
                if isinstance(owner, type):
                    self._patch(owner, name, wrapped[id(original)][1])
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, value in list(namespace.items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, name, hit[1])
        return self

    def _patch(self, owner, name, replacement):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def covered_s(self):
        """Seconds spent inside wrapped calls so far."""
        return self._top[0]

    def call_counts(self):
        return {spec: calls for spec, (calls, _s) in self.stats.items()}

    def metrics(self):
        """Per-layer metrics: self seconds, call counts and work counts."""
        out = {}
        for time_metric, calls_metric, specs in GROUPS:
            rows = [self.stats.get(spec, (0, 0.0)) for spec in specs]
            out[time_metric] = sum(s for _c, s in rows)
            if calls_metric is not None:
                out[calls_metric] = sum(c for c, _s in rows)
        out.update(self.counts)
        enumerated = self.counts["trees.enumerated"]
        out["barcobar.kept_ratio"] = (
            self.counts["barcobar.trees_kept"] / enumerated
            if enumerated else 0.0)
        return out
