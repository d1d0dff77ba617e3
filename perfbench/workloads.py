"""The benchmark's workloads: inputs, the call into opbar, and an oracle.

Each workload is fixed mathematics, so it has no random inputs. ``setup``
builds the input structures (including their axiom validation), ``run``
makes the public call that answers the question, and ``check`` compares
the answer with values that come from closed formulas, not from opbar.
``check`` raises ``VerdictError`` on a wrong answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from opbar.barcobar import (
    cobar_complex,
    derivatives_homology,
    jacobi_relation,
    koszul,
    reduced_bar,
)
from opbar.checks import (
    check_cobar_associativity,
    check_coassociativity,
    check_disjoint_cocompositions,
    check_module_pentagon_chain,
    check_unary_action_is_identity,
)
from opbar.combinat import set_partitions
from opbar.opalg import (
    RIGHT_COMODULE,
    builtin,
    builtin_sphere_comodule,
    dual,
    unit_module,
)

# (co)associativity instances checked by the structure-checks set:
# coassociativity at arities 3 and 4 (12 + 50) and disjoint cocompositions
# at arity 4 (18), for com and for ass, then cobar associativity of
# dual(com) at arities 3 and 4 (12 + 50).
STRUCTURE_INSTANCES = 2 * (12 + 50 + 18) + 12 + 50


class VerdictError(Exception):
    """The program's answer disagrees with the oracle."""


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[], dict]
    run: Callable[[dict], Any]
    check: Callable[[Any], None]


def _expect(ok, message):
    if not ok:
        raise VerdictError(message)


# bar-com6: reduced bar complex of com at arity 6 over Z.


def _bar_com6_setup():
    return {"com": builtin("com", 6)}


def _bar_com6_run(inputs):
    return reduced_bar(inputs["com"], 6).homology()


def _bar_com6_check(summary):
    # H(B(com)(n)) is the top homology of the partition lattice: free of
    # rank (n-1)! in degree n-1.
    want = {5: (math.factorial(5), ())}
    _expect(summary.groups == want,
            f"bar homology of com at arity 6 is {summary.groups}, "
            f"expected {want}")


# koszul-ass5: Koszulness of ass up to arity 5 over Q, ranks only.


def _koszul_ass5_setup():
    return {"ass": builtin("ass", 5)}


def _koszul_ass5_run(inputs):
    return koszul(inputs["ass"], 5, with_structure=False)


def _koszul_ass5_check(report):
    _expect(report.is_koszul(), "ass is reported not Koszul")
    for n in range(1, 6):
        rank = math.factorial(n)
        _expect(report.dimension(n) == rank,
                f"dim K(ass)({n}) = {report.dimension(n)}, expected {rank}")
        want = {n - 1: (rank, ())}
        got = report.summaries[n].groups
        _expect(got == want,
                f"bar homology of ass at arity {n} is {got}, expected {want}")


# koszul-com5: the Koszul dual of com to arity 5 with its induced
# structure maps and symmetric action, computed on homology over Q.


def _koszul_com5_setup():
    return {"com": builtin("com", 5)}


def _koszul_com5_run(inputs):
    return koszul(inputs["com"], 5, with_structure=True)


def _mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def _sgn_lie_character(cycle_type):
    """Character of sgn (x) Lie_n on a cycle type (Stanley; Hanlon).

    Lie_n is mu(d) (n/d)! d^(n/d) / n on cycle type d^(n/d) and 0 on every
    other class; sgn (x) Lie_n is the top homology of the partition lattice.
    """
    n, d = sum(cycle_type), cycle_type[0]
    if any(c != d for c in cycle_type):
        return 0
    lie = _mobius(d) * math.factorial(n // d) * d ** (n // d) // n
    sign = (-1) ** (n - len(cycle_type))
    return sign * lie


def _integer_partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
    for part in range(min(n, largest), 0, -1):
        for rest in _integer_partitions(n - part, part):
            yield (part,) + rest


def _koszul_com5_check(report):
    _expect(report.is_koszul(), "com is reported not Koszul")
    for n in range(1, 6):
        rank = math.factorial(n - 1)
        _expect(report.dimension(n) == rank,
                f"dim K(com)({n}) = {report.dimension(n)}, expected {rank}")
    for n in range(2, 6):
        # gens[i] acts by the transposition (i+1, i+2); the product of
        # gens[a-1] .. gens[b-2] is a cycle on a..b.
        gens = report.actions[n]
        for cycle_type in _integer_partitions(n):
            act, start = None, 1
            for length in cycle_type:
                for i in range(start, start + length - 1):
                    act = gens[i - 1] if act is None else act * gens[i - 1]
                start += length
            trace = act.trace() if act is not None else \
                report.dimension(n)
            want = _sgn_lie_character(cycle_type)
            _expect(trace == want,
                    f"character of K(com)({n}) on cycle type {cycle_type} "
                    f"is {trace}, expected {want}")


# derivatives-5: homology of the derivatives of the identity to arity 5.


def _derivatives5_setup():
    # derivatives_homology builds dual(com) itself, so set-up is the import.
    return {}


def _derivatives5_run(_inputs):
    report = derivatives_homology(5)
    return report, jacobi_relation(report)


def _derivatives5_check(result):
    report, (dim, relation) = result
    for n in range(2, 6):
        # Rank (n-1)! in degree 1-n: the Lie operad, suspended.
        degrees = report.modules[n].degrees()
        rank = report.dimension(n)
        _expect(degrees == [1 - n] and rank == math.factorial(n - 1),
                f"derivatives at arity {n}: rank {rank} in degrees "
                f"{degrees}, expected {math.factorial(n - 1)} in [{1 - n}]")
    _expect(dim == 1, f"Jacobi relation space has dimension {dim}")
    _expect(relation is not None and len(relation) == 3
            and {abs(v) for v in relation.values()} == {1},
            f"Jacobi relation {relation} is not three +-1 coefficients")


# structure-checks: the chain-level structure-map identities at arity <= 4.


def _structure_setup():
    com = builtin("com", 4)
    qcom = dual(com)
    return {
        "com": com,
        "ass": builtin("ass", 4),
        "qcom": qcom,
        "sphere": builtin_sphere_comodule(2, 4),
        "runit": unit_module(qcom, RIGHT_COMODULE),
    }


def _structure_run(inputs):
    cache = {}
    instances = 0
    for op in (inputs["com"], inputs["ass"]):
        instances += check_coassociativity(op, 3, cache)
        instances += check_coassociativity(op, 4, cache)
        instances += check_disjoint_cocompositions(op, 4, cache)
    instances += check_cobar_associativity(inputs["qcom"], 3, cache)
    instances += check_cobar_associativity(inputs["qcom"], 4, cache)
    cc = cobar_complex(inputs["runit"], inputs["qcom"], inputs["sphere"], 3)
    module_checks = [check_unary_action_is_identity(cc, cache)]
    for lam in set_partitions(range(1, 4)):
        for grouping in set_partitions(range(len(lam))):
            module_checks.append(
                check_module_pentagon_chain(cc, lam, grouping, cache))
    return instances, module_checks


def _structure_check(result):
    instances, module_checks = result
    _expect(instances == STRUCTURE_INSTANCES,
            f"{instances} (co)associativity instances checked, expected "
            f"{STRUCTURE_INSTANCES}")
    # One unary check plus one pentagon per (partition of {1,2,3},
    # partition of its blocks): 1 + (1 + 3 * 2 + 5) = 13.
    _expect(len(module_checks) == 13 and all(module_checks),
            f"module checks returned {module_checks}")


WORKLOADS = {w.name: w for w in (
    Workload("bar-com6", _bar_com6_setup, _bar_com6_run, _bar_com6_check),
    Workload("koszul-ass5", _koszul_ass5_setup, _koszul_ass5_run,
             _koszul_ass5_check),
    Workload("koszul-com5", _koszul_com5_setup, _koszul_com5_run,
             _koszul_com5_check),
    Workload("structure-checks", _structure_setup, _structure_run,
             _structure_check),
    Workload("derivatives-5", _derivatives5_setup, _derivatives5_run,
             _derivatives5_check),
)}
