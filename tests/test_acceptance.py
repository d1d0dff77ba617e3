"""The acceptance gate: one test per headline criterion, exact verdicts.

Every criterion prints its own pass/fail line; the shared context reuses
the expensive builds (operads, complexes, the derivatives report).
"""

import gc
import weakref

import pytest

from opbar import barcobar
from opbar.errors import BoundsError, ValidationError
from opbar.verify import CRITERIA, VerifyContext, run_all, run_criterion

MAX_ARITY = 5


@pytest.fixture(scope="module")
def ctx():
    return VerifyContext(MAX_ARITY)


@pytest.mark.parametrize("number", range(1, len(CRITERIA) + 1))
def test_criterion(ctx, number):
    result = run_criterion(number, ctx)
    print(result.line())
    assert result.passed, result.line()


@pytest.mark.parametrize("max_arity", [1, 6, 7])
def test_context_rejects_arity_outside_bounds(max_arity):
    with pytest.raises(BoundsError):
        VerifyContext(max_arity)


@pytest.mark.parametrize("max_arity", [4.9, True, "4"])
def test_context_rejects_a_non_int_arity(max_arity):
    # int() used to turn 4.9 into 4.
    with pytest.raises(ValidationError, match=f"max_arity {max_arity!r} is"):
        VerifyContext(max_arity)


@pytest.mark.parametrize("max_arity", [2, 3])
def test_every_criterion_passes_at_small_arity(max_arity):
    failed = [r.line() for r in run_all(max_arity) if not r.passed]
    assert not failed


def test_verify_builds_each_complex_once_and_keeps_none(monkeypatch):
    built, alive = [], []
    build = barcobar._tree_complex

    def counted(kind, r_mod, p, l_mod, arity):
        bc = build(kind, r_mod, p, l_mod, arity)
        c = bc.complex
        built.append((kind, c.ring, arity, c.module.basis(), tuple(
            (k, tuple(sorted(m.entries()))) for k, m in sorted(c.diffs.items()))))
        alive.append(weakref.ref(bc))
        return bc

    monkeypatch.setattr(barcobar, "_tree_complex", counted)
    assert all(r.passed for r in run_all(MAX_ARITY))
    # 55 builds of 38 distinct complexes when the cache keyed on whole
    # structures and criteria 10 and 11 built their sphere complexes
    # outside it.
    assert len(built) == len(set(built)) == 38
    # Every complex lived in the run's cache, none in module state.
    gc.collect()
    assert [ref for ref in alive if ref() is not None] == []
