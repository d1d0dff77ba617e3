"""Partition poset complexes and their symmetric-group characters.

The complex of a set {1..n} has one generator per strict flag of
partitions from the discrete to the indiscrete one; chains missing an
endpoint are identified with the basepoint.  A partition is the sorted
tuple of its block masks (bit x for label x), as a tree key is the sorted
tuple of its node masks, and a flag is the tuple of its partitions,
finest first: the flags are the complex's basis labels, and its module
is their one index.  The differential is the standard alternating sum of
inner deletions, independent of the orientation convention used by the
tree complexes: agreement of the homologies is the cross-certification.
A permutation maps each block through a bit table (trees._mask_image).
"""

from __future__ import annotations

from functools import lru_cache

from .combinat import all_permutations, cycle_type, permutation, \
    strict_chains
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
from .trees import _mask_image

MAX_PARTITION_SIZE = 8


# typed, so that True is not served from the entry of 1.
@lru_cache(maxsize=None, typed=True)
def partition_complex(n):
    """Normalized chains of the partition flag complex over Z."""
    require_int(n, "partition size")
    if not 1 <= n <= MAX_PARTITION_SIZE:
        raise BoundsError(f"partition complex needs 1 <= n <= "
                          f"{MAX_PARTITION_SIZE}")
    discrete = tuple(1 << x for x in range(1, n + 1))
    by_degree = {}
    for flag in strict_chains(n, discrete, (sum(discrete),)):
        by_degree.setdefault(len(flag) - 1, []).append(flag)
    module = GradedFreeModule(by_degree)
    position = module.position
    rows = {}
    for k, flags in by_degree.items():
        out = rows[k] = {}
        for j, flag in enumerate(flags):
            for i_del in range(1, k):
                row = out.setdefault(
                    position(k - 1, flag[:i_del] + flag[i_del + 1:]), {})
                row[j] = row.get(j, 0) + (-1) ** i_del
    return ChainComplex.from_rows(module, rows)


def flag_action(n, sigma):
    """Permutation matrices of a label permutation on the flag basis.

    sigma is a 1-based image tuple on {1..n}; each partition's image, its
    blocks' images sorted, is computed once per call."""
    complex_ = partition_complex(n)
    sigma = permutation(sigma, n, "flag_action")
    image = _mask_image(sigma)
    module = complex_.module
    images = {}
    mats = {}
    for k in complex_.degrees():
        rows = {}
        for j, flag in enumerate(module.labels(k)):
            moved = []
            for mu in flag:
                mapped = images.get(mu)
                if mapped is None:
                    mapped = images[mu] = tuple(sorted(map(image, mu)))
                moved.append(mapped)
            rows[module.position(k, tuple(moved))] = {j: 1}
        rank = complex_.rank(k)
        mats[k] = ExactMatrix.from_rows(rank, rank, rows)
    return mats


def partition_character(n):
    """Character of the top homology as a map cycle type -> integer.

    Computed by Lefschetz traces on the chain level; requires the
    homology to be concentrated in degree n-1 and refuses otherwise.
    """
    complex_ = partition_complex(n)
    summary = homology(complex_)
    top = n - 1
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
    top = n - 1
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
    top = n - 1
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

