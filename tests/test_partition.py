import hashlib
import itertools
import math
from fractions import Fraction

import pytest

from opbar.combinat import cycle_type, set_partitions, strict_chains
from opbar.errors import BoundsError, ValidationError
from opbar.exactla import (
    homology,
    homology_coordinates,
    homology_representatives,
)
from opbar.partition import (
    character_is_class_function,
    flag_action,
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


def strictly_refines(lam, mu):
    """lam < mu in refinement order (lam strictly finer), on label
    tuples."""
    if lam == mu:
        return False
    for block in lam:
        bset = set(block)
        if not any(bset <= set(c) for c in mu):
            return False
    return True


def reference_strict_chains(n, start=None, end=None):
    """The all-pairs enumeration of strict chains on label-tuple
    partitions, in the order strict_chains promises: depth first, each
    chain before its extensions, partitions in set_partitions order."""
    partitions = list(set_partitions(range(1, n + 1)))
    coarser = {lam: [mu for mu in partitions if strictly_refines(lam, mu)]
               for lam in partitions}
    chains = []

    def extend(chain):
        if end is None or chain[-1] == end:
            chains.append(tuple(chain))
        for mu in coarser[chain[-1]]:
            chain.append(mu)
            extend(chain)
            chain.pop()

    for lam in partitions if start is None else (start,):
        extend([lam])
    return chains


def discrete_partition(n):
    return tuple((i,) for i in range(1, n + 1))


def indiscrete_partition(n):
    return (tuple(range(1, n + 1)),)


def flag_count_oracle(n):
    """Maximal-flag count by dynamic programming on the lattice.

    Counts chains from the discrete to the indiscrete partition through
    covers only, independently of the flag enumeration.
    """
    partitions = list(set_partitions(range(1, n + 1)))

    def is_cover(lam, mu):
        return strictly_refines(lam, mu) and len(lam) == len(mu) + 1

    counts = {discrete_partition(n): 1}
    for lam in sorted(partitions, key=len, reverse=True):
        if lam not in counts:
            counts[lam] = sum(counts[fine] for fine in partitions
                              if len(fine) == len(lam) + 1
                              and is_cover(fine, lam))
    return counts[indiscrete_partition(n)]


def maximal_flag_count(n):
    """n!(n-1)!/2^(n-1): each step of a maximal flag merges one of the
    k(k-1)/2 pairs of blocks of a k-block partition."""
    return math.factorial(n) * math.factorial(n - 1) // 2 ** (n - 1)


def masked(partition):
    """A label-tuple partition as the sorted tuple of its block masks."""
    return tuple(sorted(sum(1 << x for x in b) for b in partition))


class TestStrictChains:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_all_starts_match_the_all_pairs_reference(self, n):
        want = [tuple(map(masked, chain))
                for chain in reference_strict_chains(n)]
        assert strict_chains(n) == want

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_flags_match_the_all_pairs_reference(self, n):
        bottom, top = discrete_partition(n), indiscrete_partition(n)
        want = [tuple(map(masked, chain))
                for chain in reference_strict_chains(n, bottom, top)]
        assert strict_chains(n, masked(bottom), masked(top)) == want


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

    @pytest.mark.parametrize("n,count", [(2, 1), (3, 3), (4, 18), (5, 180),
                                         (6, 2700)])
    def test_top_flag_count_has_its_closed_form(self, n, count):
        # With the test above, it also agrees with the DP oracle.
        assert maximal_flag_count(n) == count
        assert partition_complex(n).rank(n - 1) == count

    def test_labels_are_flags_of_block_masks(self):
        assert partition_complex(1).labels(0) == (((0b10,),),)
        assert partition_complex(3).labels(2) == (
            ((2, 4, 8), (2, 12), (14,)), ((2, 4, 8), (6, 8), (14,)),
            ((2, 4, 8), (4, 10), (14,)))

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


def character_on_homology(n):
    """The character recomputed from the rational homology action
    matrices: the homology-side oracle of the Lefschetz traces."""
    complex_ = partition_complex(n)
    top = n - 1
    reps = homology_representatives(complex_, top)
    basis = [(top, z) for z in reps]
    values = {}
    for sigma in itertools.permutations(range(1, n + 1)):
        ct = cycle_type(sigma)
        if ct not in values:
            auto = flag_action(complex_, sigma)[top]
            values[ct] = homology_coordinates(
                complex_, basis, [(top, auto.apply(z)) for z in reps]).trace()
    return values


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
            flag_action(partition_complex(3), sigma)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_each_flag_mapped_on_its_own(self, n):
        # Every block of every partition of every flag mapped and sorted
        # again, as the action did before it kept each partition's image.
        c = partition_complex(n)
        for sigma in itertools.permutations(range(1, n + 1)):
            want = {}
            for k in c.degrees():
                for j, flag in enumerate(c.labels(k)):
                    moved = tuple(
                        tuple(sorted(sum(1 << sigma[x - 1]
                                         for x in range(1, n + 1)
                                         if b >> x & 1) for b in mu))
                        for mu in flag)
                    want.setdefault(k, {})[(c.module.position(k, moved),
                                            j)] = 1
            got = flag_action(c, sigma)
            assert {k: dict(m.entries()) for k, m in got.items()} == want


# -- pinned digests ---------------------------------------------------------
# Written before the flags became mask partitions; each label is rendered
# as text through _label_text, so the same pins hold for either label type.


def _label_text(label):
    """A flag of mask partitions as text, each partition's blocks by least
    label, e.g. "1|2|3 < 12|3 < 123"."""
    return " < ".join(
        "|".join("".join(str(x) for x in range(1, b.bit_length())
                         if b >> x & 1)
                 for b in sorted(mu, key=lambda b: b & -b))
        for mu in label)


def _complex_digest(complex_):
    """sha256 of the label texts per degree and the sorted differential
    entries, each value written as str(Fraction(v))."""
    h = hashlib.sha256()
    for d in complex_.degrees():
        h.update(f"degree {d}\n".encode())
        for lab in complex_.labels(d):
            h.update(f"{_label_text(lab)}\n".encode())
    for k in sorted(complex_.diffs):
        h.update(f"d {k}\n".encode())
        for (i, j), v in sorted(complex_.diffs[k].entries()):
            h.update(f"{i} {j} {Fraction(v)}\n".encode())
    return h.hexdigest()


def _action_digest(mats):
    """sha256 of {degree: matrix}: each degree, shape and sorted entries."""
    h = hashlib.sha256()
    for d in sorted(mats):
        m = mats[d]
        h.update(f"m {d} {m.nrows} {m.ncols}\n".encode())
        for (i, j), v in sorted(m.entries()):
            h.update(f"{i} {j} {Fraction(v)}\n".encode())
    return h.hexdigest()


PINNED_COMPLEXES = {
    2: "cba9ca37334cbfb4d6f106464dd601f9ed5c7d632cd3eb9b0bded3ce29e28407",
    3: "b1be2fc9e334568b6394b3b47fc817fa7f20cc6d3cff357f66697f2fe1a1383e",
    4: "015052c8732335d0a39d3f95646b818697460ecae2e6b52f4e7350e2ae174f35",
    5: "d6c8616fa34bf2de24593d28b9dca704dd9031b0f6e2984d1f2b9e23cde16915",
}

# (n, "transposition") acts by (1 2), (n, "cycle") by 1 -> 2 -> ... -> n -> 1.
PINNED_ACTIONS = {
    (2, "transposition"):
        "003904ab84071c74f546b71ed45d5e08443bfac9668a3f4ebcd284ab28224d1e",
    (2, "cycle"):
        "003904ab84071c74f546b71ed45d5e08443bfac9668a3f4ebcd284ab28224d1e",
    (3, "transposition"):
        "b2cae22550a8736f4c6606de582f23d50386d09c6aeb3f25985ffa0072ddb3ca",
    (3, "cycle"):
        "2cd353197fca3cebe8726d59c56a607001520a001cb58fbcb12464d1c7309168",
    (4, "transposition"):
        "a3b6f07ecbbf8463744c39413c9020a014c810828ce5ad33b9c6a061128c56c5",
    (4, "cycle"):
        "9c4f90f5ca35f4023d37b5c2bad55027a8aae78b9ee522dab70d6838eb40d1f9",
    (5, "transposition"):
        "162983363a39fe4550bece2b0d940be78334db9714e79980c10a42904aa312a3",
    (5, "cycle"):
        "897a35d06f3b3f8042e648b2554f0f0fa2b60afb15f7f87205922f464c4eed51",
}


@pytest.mark.parametrize("n", sorted(PINNED_COMPLEXES))
def test_complex_matches_pinned_digest(n):
    assert _complex_digest(partition_complex(n)) == PINNED_COMPLEXES[n]


@pytest.mark.parametrize("n,kind", sorted(PINNED_ACTIONS))
def test_flag_action_matches_pinned_digest(n, kind):
    if kind == "transposition":
        sigma = (2, 1, *range(3, n + 1))
    else:
        sigma = (*range(2, n + 1), 1)
    assert _action_digest(flag_action(partition_complex(n), sigma)) == \
        PINNED_ACTIONS[(n, kind)]
