"""Small combinatorial helpers: set partitions and permutation words."""

from __future__ import annotations

from functools import lru_cache

from .errors import ValidationError


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


def strictly_refines(lam, mu):
    """lam < mu in refinement order (lam strictly finer)."""
    if lam == mu:
        return False
    for block in lam:
        bset = set(block)
        if not any(bset <= set(c) for c in mu):
            return False
    return True


def strict_chains(n, start=None, end=None):
    """Strict chains lam_0 < ... < lam_k of partitions of {1..n} in
    refinement order, depth first: each chain before its extensions, and
    partitions in set_partitions order.  start fixes lam_0 (each partition
    in turn when None) and end fixes lam_k (any partition when None)."""
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


def chain_label(chain):
    """A chain of partitions as text, e.g. "1|2|3 < 12|3"."""
    return " < ".join("|".join("".join(str(x) for x in b) for b in mu)
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


@lru_cache(maxsize=None)
def all_permutations(n):
    import itertools
    return tuple(itertools.permutations(range(1, n + 1)))


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
