"""The acceptance gate: one test per headline criterion, exact verdicts.

Every criterion prints its own pass/fail line; the shared context reuses
the expensive builds (operads, complexes, the derivatives report).
"""

import pytest

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
