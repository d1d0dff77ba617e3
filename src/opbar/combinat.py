"""Small combinatorial helpers: set partitions, partition chains and
permutation words.

Labels are ints >= 1.  A set of labels is also a mask, bit x for label x,
and the partitions in chains are masks: a partition is the sorted tuple of
its block masks, as a tree key (trees) is the sorted tuple of its node
masks.  set_partitions and canonical_partition keep the text-side form,
blocks as sorted label tuples listed by least label.
"""

from __future__ import annotations

import itertools

from .errors import ValidationError


def _low(mask):
    """The bit of a mask's least label."""
    return mask & -mask


def _labels(mask):
    """The labels of a mask, in increasing order."""
    return [x for x in range(mask.bit_length()) if mask >> x & 1]


def set_partitions(items):
    """All partitions of a sequence into nonempty blocks, canonicalized.

    Blocks are sorted tuples; the partition lists blocks by least element.
    """
    items = sorted(items)
    if not items:
        return
    first, rest = items[0], items[1:]
    if not rest:
        yield ((first,),)
        return
    for part in set_partitions(rest):
        for i, block in enumerate(part):
            merged = tuple(sorted(block + (first,)))
            yield canonical_partition(part[:i] + (merged,) + part[i + 1:])
        yield canonical_partition(((first,),) + part)


def canonical_partition(blocks):
    """The blocks as sorted tuples, listed by least element."""
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))


def strict_chains(n, start=None, end=None):
    """Strict chains lam_0 < ... < lam_k of mask partitions of {1..n} in
    refinement order, depth first: each chain before its extensions, and
    the partitions coarser than one in set_partitions order.  start fixes
    lam_0 (each partition in turn when None) and end fixes lam_k (any
    partition when None); both are mask partitions.

    The partitions strictly coarser than lam are those made by merging two
    of its blocks and the partitions coarser than these.  Each partition's
    list is built once per call and holds one shared tuple per partition,
    so the chains share their partitions."""
    partitions = [tuple(sorted(sum(1 << x for x in b) for b in lam))
                  for lam in set_partitions(range(1, n + 1))]
    rank = {lam: r for r, lam in enumerate(partitions)}
    coarser = {}

    def above(lam):
        out = coarser.get(lam)
        if out is None:
            found = set()
            for i, j in itertools.combinations(range(len(lam)), 2):
                mu = tuple(sorted((*lam[:i], *lam[i + 1:j], *lam[j + 1:],
                                   lam[i] | lam[j])))
                if mu not in found:
                    found.add(mu)
                    found.update(above(mu))
            out = coarser[lam] = [partitions[r] for r in
                                  sorted(map(rank.__getitem__, found))]
        return out

    chains = []

    def extend(chain):
        if end is None or chain[-1] == end:
            chains.append(tuple(chain))
        for mu in above(chain[-1]):
            chain.append(mu)
            extend(chain)
            chain.pop()

    for lam in partitions if start is None else (start,):
        extend([lam])
    return chains


def chain_label(chain):
    """A chain of mask partitions as text, each partition's blocks by least
    label, e.g. "1|2|3 < 12|3"."""
    return " < ".join("|".join("".join(map(str, _labels(b)))
                               for b in sorted(mu, key=_low))
                      for mu in chain)


def partitions_into_at_least_two(items):
    for part in set_partitions(items):
        if len(part) >= 2:
            yield part


def block_sort_perm(keys):
    """tau with tau[i] = sorted position of keys[i] (0-based); keys distinct.
    The keys are a node's children or a partition's blocks, a handful, so
    a scan of the sorted keys beats building a rank table."""
    ranks = sorted(keys)
    return tuple([ranks.index(k) for k in keys])


def permutation(sigma, n, caller):
    """sigma as a tuple of images, or ValidationError naming the caller
    unless it is a permutation of 1..n."""
    try:
        sigma = tuple(sigma)
        valid = sorted(sigma) == list(range(1, n + 1))
    except TypeError:
        valid = False
    if not valid:
        raise ValidationError(
            f"{caller}: {sigma!r} is not a permutation of 1..{n}")
    return sigma


def perm_inverse(sigma):
    inv = [0] * len(sigma)
    for i, v in enumerate(sigma):
        inv[v - 1] = i + 1
    return tuple(inv)


def perm_identity(n):
    return tuple(range(1, n + 1))


def adjacent_word(sigma):
    """Write sigma as a product of adjacent transpositions s_i = (i, i+1).

    Returns indices (i_1, ..., i_k), 1-based, with
    sigma = s_{i_1} o s_{i_2} o ... o s_{i_k}.
    """
    n = len(sigma)
    word = []
    current = list(sigma)
    # Bubble the current permutation back to the identity; each swap on the
    # left of `current` is an adjacent factor of sigma read in order.
    while True:
        for i in range(n - 1):
            if current[i] > current[i + 1]:
                current[i], current[i + 1] = current[i + 1], current[i]
                word.append(i + 1)
                break
        else:
            break
    word.reverse()
    return tuple(word)


def cycle_type(sigma):
    """Sorted (descending) cycle lengths of a permutation."""
    n = len(sigma)
    seen = [False] * n
    out = []
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = sigma[j] - 1
            length += 1
        out.append(length)
    return tuple(sorted(out, reverse=True))
