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
Each character builds its complex once, for all its permutations.
"""

from __future__ import annotations

import itertools

from .combinat import cycle_type, permutation, strict_chains
from .errors import BoundsError, ValidationError, require_int
from .exactla import (
    ChainComplex,
    ExactMatrix,
    GradedFreeModule,
    alternating_trace,
    homology,
)
from .trees import _mask_image

MAX_PARTITION_SIZE = 8


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


def flag_action(complex_, sigma):
    """Permutation matrices of a label permutation sigma, a 1-based image
    tuple on {1..n}, on the flag basis of complex_ = partition_complex(n);
    each partition's image, its blocks' images sorted, is computed once
    per call."""
    module = complex_.module
    n = len(module.labels(complex_.degrees()[0])[0][0])
    sigma = permutation(sigma, n, "flag_action")
    image = _mask_image(sigma)
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
    if not homology(complex_).is_concentrated_in(n - 1):
        raise ValidationError(
            f"homology of the partition complex at n={n} is not "
            f"concentrated in degree {n - 1}; character undefined")
    values = {}
    for sigma in itertools.permutations(range(1, n + 1)):
        if cycle_type(sigma) not in values:
            values[cycle_type(sigma)] = _trace(complex_, sigma)
    return values


def character_is_class_function(n):
    """Every permutation of a cycle type gives the same trace."""
    complex_ = partition_complex(n)
    seen = {}
    for sigma in itertools.permutations(range(1, n + 1)):
        trace = _trace(complex_, sigma)
        if seen.setdefault(cycle_type(sigma), trace) != trace:
            return False
    return True


def _trace(complex_, sigma):
    """(-1)^(n-1) times the Lefschetz number of sigma on the complex."""
    return (-1) ** (len(sigma) - 1) * alternating_trace(
        complex_, flag_action(complex_, sigma))
