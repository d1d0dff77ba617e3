import itertools
import math

import pytest

from opbar.errors import BoundsError, ValidationError
from opbar.exactla import homology
from opbar.partition import (
    _flag_index,
    character_is_class_function,
    character_on_homology,
    flag_action,
    flag_count_oracle,
    partition_character,
    partition_complex,
)


def mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def cycle_types(n, largest=None):
    """Integer partitions of n, parts in decreasing order."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
    for part in range(min(n, largest), 0, -1):
        for rest in cycle_types(n - part, part):
            yield (part,) + rest


def sgn_lie_character(cycle_type):
    """Character of sgn (x) Lie_n (Stanley 1982; Hanlon 1981).

    On cycle type d^(n/d) it is (-1)^(n - #cycles) mu(d) (n/d)! d^(n/d) / n,
    and 0 on every other class.
    """
    n, d = sum(cycle_type), cycle_type[0]
    if any(c != d for c in cycle_type):
        return 0
    lie = mobius(d) * math.factorial(n // d) * d ** (n // d) // n
    return (-1) ** (n - len(cycle_type)) * lie


class TestComplex:
    def test_n_one_special_case(self):
        c = partition_complex(1)
        assert homology(c).groups == {0: (1, ())}

    def test_n_two_single_flag(self):
        c = partition_complex(2)
        assert c.rank(1) == 1
        assert not c.diffs
        assert homology(c).groups == {1: (1, ())}

    def test_n_three_ranks(self):
        c = partition_complex(3)
        assert c.rank(0) == 0
        assert c.rank(1) == 1
        assert c.rank(2) == 3
        assert homology(c).groups == {2: (2, ())}

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_concentration_and_rank(self, n):
        c = partition_complex(n)
        assert homology(c).groups == {n - 1: (math.factorial(n - 1), ())}

    @pytest.mark.slow
    def test_homology_at_seven(self):
        assert homology(partition_complex(7)).groups == {6: (720, ())}

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_top_flag_count_matches_chain_counter(self, n):
        c = partition_complex(n)
        assert c.rank(n - 1) == flag_count_oracle(n)

    def test_bounds(self):
        with pytest.raises(BoundsError):
            partition_complex(0)
        with pytest.raises(BoundsError):
            partition_complex(9)

    @pytest.mark.parametrize("n", [2.5, True])
    def test_size_is_an_int(self, n):
        partition_complex(1)
        with pytest.raises(ValidationError,
                           match=f"partition size {n!r} is not an int"):
            partition_complex(n)


class TestCharacter:
    def test_n_two_trivial_representation(self):
        chi = partition_character(2)
        assert chi == {(1, 1): 1, (2,): 1}

    def test_n_three(self):
        chi = partition_character(3)
        assert chi == {(1, 1, 1): 2, (2, 1): 0, (3,): -1}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_class_function_and_dimension(self, n):
        assert character_is_class_function(n)
        chi = partition_character(n)
        assert chi[tuple([1] * n)] == math.factorial(n - 1)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_two_computation_paths_agree(self, n):
        want = {ct: sgn_lie_character(ct) for ct in cycle_types(n)}
        assert partition_character(n) == want
        assert character_on_homology(n) == want



class TestFlagAction:
    @pytest.mark.parametrize("sigma", [(1, 1, 3), (1, 2), (1, 2, 3, 4)])
    def test_rejects_what_is_not_a_permutation_of_the_labels(self, sigma):
        with pytest.raises(ValidationError,
                           match=r"is not a permutation of 1\.\.3"):
            flag_action(3, sigma)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_each_flag_mapped_on_its_own(self, n):
        # Every block of every partition of every flag mapped and sorted
        # again, as the action did before it kept each partition's image.
        index = _flag_index(n)
        for sigma in itertools.permutations(range(1, n + 1)):
            want = {}
            for flag, (k, j) in index.items():
                moved = tuple(
                    tuple(sorted((tuple(sorted(sigma[x - 1] for x in b))
                                  for b in mu), key=lambda b: b[0]))
                    for mu in flag)
                want.setdefault(k, {})[(index[moved][1], j)] = 1
            got = flag_action(n, sigma)
            assert {k: dict(m.entries()) for k, m in got.items()} == want
