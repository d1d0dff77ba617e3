"""The acceptance gate: one test per headline criterion, exact verdicts.

Every criterion prints its own pass/fail line; the shared context reuses
the expensive builds (operads, complexes, the derivatives report).
"""

import pytest

from opbar.errors import BoundsError
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


@pytest.mark.parametrize("max_arity", [2, 3])
def test_every_criterion_passes_at_small_arity(max_arity):
    failed = [r.line() for r in run_all(max_arity) if not r.passed]
    assert not failed
