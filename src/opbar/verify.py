"""The acceptance suite: every headline claim as an executable criterion.

Each criterion returns a CriterionResult with an exact pass/fail verdict
and a short detail string.  All expected values are either discrete
counts frozen from independent oracles (recurrences, Stirling numbers,
Lefschetz traces) or exact matrix identities; there are no tolerances.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from . import trees as tr
from .barcobar import (
    BAR,
    COBAR,
    _cached_complex,
    _koszul_symseq,
    cooperad_from_koszul,
    derivatives_homology,
    jacobi_relation,
    koszul,
    module_MX_homology,
    reduced_bar,
    reduced_cobar,
    simplicial_bar_complex,
)
from .checks import (
    check_coassociativity,
    check_cobar_associativity,
    check_disjoint_cocompositions,
    check_module_pentagon_chain,
    check_unary_action_is_identity,
)
from .combinat import set_partitions
from .errors import BoundsError, require_int
from .exactla import GradedFreeModule, ExactMatrix, homology
from .opalg import (
    LEFT_MODULE,
    RIGHT_COMODULE,
    RIGHT_MODULE,
    builtin,
    builtin_sphere_comodule,
    builtin_sphere_module,
    compose_product,
    dual,
    unit_module,
)
from .partition import (
    character_is_class_function,
    partition_character,
    partition_complex,
)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:2d} [{status}] {self.name}: {self.detail}"


def _result(number, name, passed, detail):
    return CriterionResult(number, name, bool(passed), detail)


def stirling2(n, k):
    """Partition-count oracle S(n, k) by the standard recurrence."""
    if n == 0 and k == 0:
        return 1
    if n == 0 or k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


class VerifyContext:
    """Shared builds across criteria (operads, complexes, reports)."""

    def __init__(self, max_arity=5):
        require_int(max_arity, "max_arity")
        if not 2 <= max_arity <= 5:
            raise BoundsError(f"max_arity {max_arity} outside 2..5")
        self.max_arity = max_arity
        self.cache = {}
        self._com = None
        self._ass = None
        self._deriv = None

    @property
    def com(self):
        if self._com is None:
            self._com = builtin("com", self.max_arity)
        return self._com

    @property
    def ass(self):
        if self._ass is None:
            self._ass = builtin("ass", self.max_arity)
        return self._ass

    def deriv(self, max_arity):
        if self._deriv is None or self._deriv.max_arity < max_arity:
            self._deriv = derivatives_homology(max_arity, cache=self.cache)
        return self._deriv


def criterion_1_enumeration(ctx):
    expected_standard = {1: 1, 2: 1, 3: 4, 4: 26, 5: 236}
    problems = []
    for n, want in expected_standard.items():
        got = len(tr.enumerate_trees(n, tr.STANDARD))
        oracle = tr.standard_tree_count(n)
        if got != want or got != oracle:
            problems.append(f"|T({n})| = {got}, expected {want}/{oracle}")
    got = len(tr.enumerate_trees(2, tr.GENERALIZED))
    if got != 3:
        problems.append(f"|Tree(2)| = {got}, expected 3")
    got = len(tr.enumerate_trees(3, tr.ROOT))
    if got != 8:
        problems.append(f"|T_root(3)| = {got}, expected 8")
    detail = "; ".join(problems) if problems else \
        "T(1..5) = 1,1,4,26,236; Tree(2) = 3; T_root(3) = 8"
    return _result(1, "tree enumeration counts", not problems, detail)


def criterion_2_signs(ctx):
    count = 0
    for n in range(1, ctx.max_arity + 1):
        for tree, cell in tr.weighting_complexes(n).items():
            h = cell.homology()
            if h.groups != {0: (1, ())}:
                return _result(
                    2, "orientation signs", False,
                    f"weighting complex of {tr.serialize(tree)} has "
                    f"homology {h.groups}")
            count += 1
    return _result(2, "orientation signs", True,
                   f"d^2 = 0 and disc homology for {count} trees at "
                   f"arity <= {ctx.max_arity}")


def criterion_3_ass_bar(ctx):
    cap = min(4, ctx.max_arity)
    for n in range(1, cap + 1):
        want = {n - 1: (math.factorial(n), ())} if n > 1 else {0: (1, ())}
        got = reduced_bar(ctx.ass, n, ctx.cache).homology().groups
        if got != want:
            return _result(3, "associative bar homology", False,
                           f"arity {n}: {got} != {want}")
    return _result(3, "associative bar homology", True,
                   f"free of rank n! in degree n-1, no torsion, n <= {cap}")


def criterion_4_triple_oracle(ctx):
    for n in range(1, ctx.max_arity + 1):
        part = homology(partition_complex(n))
        bar = reduced_bar(ctx.com, n, ctx.cache).homology()
        simp = homology(simplicial_bar_complex(
            unit_module(ctx.com, RIGHT_MODULE), ctx.com,
            unit_module(ctx.com, LEFT_MODULE), n))
        want = ({n - 1: (math.factorial(n - 1), ())} if n > 1
                else {0: (1, ())})
        if not (part.groups == bar.groups == simp.groups == want):
            return _result(
                4, "triple-oracle agreement", False,
                f"arity {n}: partition {part.groups}, bar {bar.groups}, "
                f"simplicial {simp.groups}, expected {want}")
    return _result(4, "triple-oracle agreement", True,
                   f"rank (n-1)! in degree n-1 on three code paths, "
                   f"n <= {ctx.max_arity}")


def criterion_5_koszul(ctx):
    rep_com = koszul(ctx.com, ctx.max_arity, with_structure=True,
                     cache=ctx.cache)
    if not rep_com.is_koszul():
        return _result(5, "Koszulness and duals", False,
                       "bar homology of the one-dimensional operad spreads")
    for n in range(1, ctx.max_arity + 1):
        if rep_com.dimension(n) != math.factorial(n - 1):
            return _result(5, "Koszulness and duals", False,
                           f"dim K(com)({n}) = {rep_com.dimension(n)}")
    rep_ass = koszul(ctx.ass, ctx.max_arity, with_structure=False,
                     cache=ctx.cache)
    if not rep_ass.is_koszul():
        return _result(5, "Koszulness and duals", False,
                       "bar homology of the associative operad spreads")
    for n in range(1, ctx.max_arity + 1):
        if rep_ass.dimension(n) != math.factorial(n):
            return _result(5, "Koszulness and duals", False,
                           f"dim K(ass)({n}) = {rep_ass.dimension(n)}")
    k_com = cooperad_from_koszul(rep_com)
    double = koszul(dual(k_com), ctx.max_arity, with_structure=False)
    if not double.is_koszul() or any(
            double.dimension(n) != 1 for n in range(1, ctx.max_arity + 1)):
        return _result(5, "Koszulness and duals", False,
                       "double dual does not return rank one per arity")
    return _result(
        5, "Koszulness and duals", True,
        f"K(com) = (n-1)!, K(ass) = n!, K(K(com)) = 1 per arity, "
        f"n <= {ctx.max_arity}")


def criterion_6_derivatives(ctx):
    # The Jacobi relation lives in arity 3, whatever the context's bound.
    rep = ctx.deriv(max(3, ctx.max_arity))
    for n in range(2, ctx.max_arity + 1):
        got = rep.modules[n]
        if got.degrees() != [1 - n] or rep.dimension(n) != \
                math.factorial(n - 1):
            return _result(6, "derivatives of the identity", False,
                           f"arity {n}: dims {got}")
    dim, relation = jacobi_relation(rep)
    if dim != 1 or relation is None or len(relation) != 3:
        return _result(6, "derivatives of the identity", False,
                       f"Jacobi nullspace has dimension {dim}")
    lead = min(abs(v) for v in relation.values())
    if any(abs(v / lead) != 1 for v in relation.values()):
        return _result(6, "derivatives of the identity", False,
                       f"Jacobi relation not +-1: {relation}")
    return _result(6, "derivatives of the identity", True,
                   f"rank (n-1)! in degree 1-n, n <= {ctx.max_arity}; "
                   "Jacobi relation with unit coefficients")


def criterion_7_duality_shadow(ctx):
    for op in (ctx.com, ctx.ass):
        q = dual(op)
        for n in range(1, ctx.max_arity + 1):
            b = reduced_bar(op, n, ctx.cache).homology()
            o = reduced_cobar(q, n, ctx.cache).homology()
            if o != b.degree_negated():
                return _result(
                    7, "duality shadow", False,
                    f"{op.name} arity {n}: {o.groups} vs negated "
                    f"{b.groups}")
    return _result(7, "duality shadow", True,
                   f"cobar of the dual equals degree-negated bar for "
                   f"com and ass, n <= {ctx.max_arity}")


def criterion_8_module_mx(ctx):
    cap = min(4, ctx.max_arity)
    deriv = ctx.deriv(max(cap, 3))
    hdi = _koszul_symseq(deriv)
    for r in (1, 2, 3):
        x = GradedFreeModule({r: ("x",)})
        report = module_MX_homology(x, ExactMatrix.zero(1, 1), cap,
                                    deriv_report=deriv, with_action=True,
                                    cache=ctx.cache)
        sphere_seq = builtin_sphere_comodule(r, cap).symseq
        for n in range(2, cap + 1):
            got = report.summaries[n].groups
            ranks = {}
            for k in range(1, n + 1):
                d = k * (r - 1) + 1
                ranks[d] = ranks.get(d, 0) + stirling2(n, k) * math.factorial(
                    k - 1)
            want = {d: (rank, ()) for d, rank in ranks.items()}
            if got != want:
                return _result(8, "module of the spheres", False,
                               f"S^{r} arity {n}: {got} != Stirling oracle "
                               f"{want}")
            prod = compose_product(hdi, sphere_seq, n)
            prod_ranks = {d: prod.rank(d) for d in prod.degrees()}
            if prod_ranks != {d: rank for d, (rank, _t) in want.items()}:
                return _result(8, "module of the spheres", False,
                               f"S^{r} arity {n}: compose_product "
                               f"{prod_ranks}")
        if report.homology_module is None:
            return _result(8, "module of the spheres", False,
                           f"S^{r}: no induced action computed")
    return _result(
        8, "module of the spheres", True,
        f"cobar homology of S^1, S^2, S^3 equals the composition-product "
        f"expansion (rank S(n,k)(k-1)! in degree k(r-1)+1), arities "
        f"2..{cap}; induced actions pass unit, pentagon and equivariance")


def criterion_9_characters(ctx):
    chi2 = partition_character(2)
    chi3 = partition_character(3)
    if chi2 != {(1, 1): 1, (2,): 1}:
        return _result(9, "partition characters", False, f"n=2: {chi2}")
    if chi3 != {(1, 1, 1): 2, (2, 1): 0, (3,): -1}:
        return _result(9, "partition characters", False, f"n=3: {chi3}")
    for n in range(2, ctx.max_arity + 1):
        if not character_is_class_function(n):
            return _result(9, "partition characters", False,
                           f"character at n={n} is not a class function")
        chi = partition_character(n)
        if chi[tuple([1] * n)] != math.factorial(n - 1):
            return _result(9, "partition characters", False,
                           f"chi(e) at n={n} is {chi[tuple([1] * n)]}")
    return _result(9, "partition characters", True,
                   f"(1,1) and (2,0,-1) at n = 2,3; class function with "
                   f"chi(e) = (n-1)! for n <= {ctx.max_arity}")


def criterion_10_structure_maps(ctx):
    cap = min(4, ctx.max_arity)
    counts = []
    for op in (ctx.com, ctx.ass):
        counts.append(check_coassociativity(op, min(3, cap), ctx.cache))
        if cap >= 4:
            counts.append(check_coassociativity(op, 4, ctx.cache))
        counts.append(check_disjoint_cocompositions(op, cap, ctx.cache))
    qcom = dual(ctx.com)
    counts.append(check_cobar_associativity(qcom, min(3, cap), ctx.cache))
    if cap >= 4:
        counts.append(check_cobar_associativity(qcom, 4, ctx.cache))
    # Module action coherence for the sphere comodule, chain level.
    sphere = builtin_sphere_comodule(2, cap)
    runit = unit_module(qcom, RIGHT_COMODULE)
    cc = _cached_complex(COBAR, runit, qcom, sphere, min(3, cap), ctx.cache)
    check_unary_action_is_identity(cc, ctx.cache)
    for lam in set_partitions(range(1, min(3, cap) + 1)):
        for grouping in set_partitions(range(len(lam))):
            check_module_pentagon_chain(cc, lam, grouping, ctx.cache)
    return _result(
        10, "structure-map identities", True,
        f"chain maps verified on construction; "
        f"{sum(counts)} (co)associativity instances at arity <= {cap}")


def criterion_11_odd_degree_stress(ctx):
    cap = min(4, ctx.max_arity)
    qcom = dual(ctx.com)
    sphere_c = builtin_sphere_comodule(1, cap)
    runit_c = unit_module(qcom, RIGHT_COMODULE)
    sphere_m = builtin_sphere_module(1, cap)
    runit_m = unit_module(ctx.com, RIGHT_MODULE)
    for n in range(2, cap + 1):   # d^2 = 0 is checked on each build
        _cached_complex(COBAR, runit_c, qcom, sphere_c, n, ctx.cache)
        _cached_complex(BAR, runit_m, ctx.com, sphere_m, n, ctx.cache)
    # The module action on the odd sphere, chain level.
    cc = _cached_complex(COBAR, runit_c, qcom, sphere_c, min(3, cap),
                         ctx.cache)
    check_unary_action_is_identity(cc, ctx.cache)
    pentagons = 0
    for lam in set_partitions(range(1, min(3, cap) + 1)):
        for grouping in set_partitions(range(len(lam))):
            check_module_pentagon_chain(cc, lam, grouping, ctx.cache)
            pentagons += 1
    return _result(
        11, "odd-degree sign stress", True,
        f"{2 * (cap - 1)} sphere complexes at r = 1 built with d^2 = 0, "
        f"arity <= {cap}; unary action and {pentagons} pentagons of the "
        f"r = 1 cobar module at arity {min(3, cap)}")


CRITERIA = (
    criterion_1_enumeration,
    criterion_2_signs,
    criterion_3_ass_bar,
    criterion_4_triple_oracle,
    criterion_5_koszul,
    criterion_6_derivatives,
    criterion_7_duality_shadow,
    criterion_8_module_mx,
    criterion_9_characters,
    criterion_10_structure_maps,
    criterion_11_odd_degree_stress,
)


def run_criterion(number, ctx=None, max_arity=5):
    if ctx is None:
        ctx = VerifyContext(max_arity)
    fn = CRITERIA[number - 1]
    start = time.perf_counter()
    try:
        result = fn(ctx)
    except Exception as exc:   # a raised check is a failed criterion
        result = _result(number, fn.__name__.split("_", 2)[-1],
                         False, f"{type(exc).__name__}: {exc}")
    result.seconds = time.perf_counter() - start
    return result


def run_all(max_arity=5, progress=None):
    ctx = VerifyContext(max_arity)
    results = []
    for number in range(1, len(CRITERIA) + 1):
        result = run_criterion(number, ctx)
        results.append(result)
        if progress is not None:
            progress(result)
    return results
