"""Partition poset complexes and their symmetric-group characters.

The complex of a set {1..n} has one generator per strict flag of
partitions from the discrete to the indiscrete one; chains missing an
endpoint are identified with the basepoint.  The differential is the
standard alternating sum of inner deletions, independent of the
orientation convention used by the tree complexes: agreement of the
homologies is the cross-certification.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .combinat import (
    all_permutations,
    canonical_partition,
    chain_label,
    cycle_type,
    permutation,
    set_partitions,
    strict_chains,
    strictly_refines,
)
from .errors import BoundsError, ValidationError, require_int
from .exactla import (
    ChainComplex,
    ExactMatrix,
    GradedFreeModule,
    alternating_trace,
    homology,
    homology_coordinates,
    homology_representatives,
)

MAX_PARTITION_SIZE = 8


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


# typed, so that True is not served from the entry of 1.
@lru_cache(maxsize=None, typed=True)
def partition_complex(n):
    """Normalized chains of the partition flag complex over Z."""
    require_int(n, "partition size")
    if not 1 <= n <= MAX_PARTITION_SIZE:
        raise BoundsError(f"partition complex needs 1 <= n <= "
                          f"{MAX_PARTITION_SIZE}")
    if n == 1:
        module = GradedFreeModule({0: ("(1)",)})
        return ChainComplex(module, {})
    index = _flag_index(n)
    by_degree = {}
    for flag, (k, _j) in index.items():
        by_degree.setdefault(k, []).append(chain_label(flag))
    module = GradedFreeModule(
        {k: tuple(labels) for k, labels in by_degree.items()})
    rows = {}
    for flag, (k, j) in index.items():
        out = rows.setdefault(k, {})
        for i_del in range(1, k):
            row = out.setdefault(index[flag[:i_del] + flag[i_del + 1:]][1], {})
            row[j] = row.get(j, 0) + (-1) ** i_del
    return ChainComplex.from_rows(module, rows)


@lru_cache(maxsize=None)
def _flag_index(n):
    """flag -> (degree, position in that degree) for every strict flag of
    {1..n}, n >= 2, the degree being its length less one; the one index
    of the complex's basis, shared by partition_complex and flag_action."""
    index, sizes = {}, Counter()
    for flag in strict_chains(n, discrete_partition(n),
                              indiscrete_partition(n)):
        k = len(flag) - 1
        index[flag] = (k, sizes[k])
        sizes[k] += 1
    return index


def flag_action(n, sigma):
    """Permutation matrices of a label permutation on the flag basis.

    sigma is a 1-based image tuple on {1..n}; each partition's image is
    computed once per call."""
    complex_ = partition_complex(n)
    sigma = permutation(sigma, n, "flag_action")
    if n == 1:
        return {0: ExactMatrix.identity(1)}
    index = _flag_index(n)
    images = {}
    rows = {}
    for flag, (k, j) in index.items():
        moved = []
        for mu in flag:
            image = images.get(mu)
            if image is None:
                image = images[mu] = canonical_partition(
                    [sigma[x - 1] for x in b] for b in mu)
            moved.append(image)
        _k2, i = index[tuple(moved)]
        rows.setdefault(k, {})[i] = {j: 1}
    return {k: ExactMatrix.from_rows(complex_.rank(k), complex_.rank(k),
                                     rows.get(k, {}))
            for k in complex_.degrees()}


def partition_character(n):
    """Character of the top homology as a map cycle type -> integer.

    Computed by Lefschetz traces on the chain level; requires the
    homology to be concentrated in degree n-1 and refuses otherwise.
    """
    complex_ = partition_complex(n)
    summary = homology(complex_)
    top = n - 1 if n > 1 else 0
    if not summary.is_concentrated_in(top):
        raise ValidationError(
            f"homology of the partition complex at n={n} is not "
            f"concentrated in degree {top}; character undefined")
    values = {}
    for sigma in all_permutations(n):
        ct = cycle_type(sigma)
        if ct in values:
            continue
        auto = flag_action(n, sigma)
        values[ct] = (-1) ** top * alternating_trace(complex_, auto)
    return values


def character_is_class_function(n):
    """Every permutation of a cycle type gives the same trace."""
    complex_ = partition_complex(n)
    top = n - 1 if n > 1 else 0
    seen = {}
    for sigma in all_permutations(n):
        ct = cycle_type(sigma)
        val = (-1) ** top * alternating_trace(complex_, flag_action(n, sigma))
        if ct in seen and seen[ct] != val:
            return False
        seen[ct] = val
    return True


def character_on_homology(n):
    """Character recomputed from the rational homology action matrices."""
    complex_ = partition_complex(n)
    top = n - 1 if n > 1 else 0
    reps = homology_representatives(complex_, top)
    basis = [(top, z) for z in reps]
    values = {}
    for sigma in all_permutations(n):
        ct = cycle_type(sigma)
        if ct not in values:
            auto = flag_action(n, sigma)[top]
            values[ct] = homology_coordinates(
                complex_, basis, [(top, auto.apply(z)) for z in reps]).trace()
    return values

