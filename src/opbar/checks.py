"""Chain-level verification of the induced structure-map identities.

Each check raises ValidationError on failure and returns the number of
instances verified.  Every instance is one equation between two composed
chain maps, compared degree by degree; a failure names the arity, the
split, the degree and the first column that differs.  Splittings are
ordered disjoint triples (X, Y, Z) covering {1..n}, with x = |X| and so
on, and B(k) is B(P) at arity k.  phi_S : B(n) -> B(n-|S|+1) (x) B(|S|)
ungrafts the leaves S, the slot left behind labelled min(S); psi_S is
the cobar composition running the other way, and act_lambda the module
structure map of a partition lambda.  All three come from one ungrafting
engine (barcobar._split_terms), whose sign moves each factor's vertex
orientation past the decorations of the factors before it, so the checks
hold for odd-degree decorations too.  R is a signed reindexing of tensor
factors (exactla.reindexing_map).

- coassociativity, into (B(x+1) (x) B(y+1)) (x) B(z), R re-bracketing:
  (phi_{Y+min Z} (x) id) o phi_Z = R o (id (x) phi_Z) o phi_{Y u Z};
- disjoint cocompositions (X non-empty, min Y < min Z), into
  (B(x+2) (x) B(y)) (x) B(z), R the Koszul swap of the last two factors:
  (phi_Y (x) id) o phi_Z = R o (phi_Z (x) id) o phi_Y;
- cobar associativity, the dual, from (Omega(x+1) (x) Omega(y+1)) (x)
  Omega(z): psi_Z o (psi_{Y+min Z} (x) id) = psi_{Y u Z} o (id (x) psi_Z) o R;
- unary action, with i : M(n) -> Omega(Q)(1) (x) M(n) inserting the unit:
  act_{(1..n)} o i = id (on the bar side the coaction equals i);
- module pentagon, for lambda with blocks B_1..B_r grouped into mu:
  act_lambda o (gamma (x) id) = act_mu o (id (x) act_1 ... act_s) o R,
  from (Omega(s) (x) Omega(r_1) ... Omega(r_s)) (x) M(B_1) ... M(B_r),
  where R shuffles each Omega(r_i) in front of its group of blocks.

Complexes, split maps and module structure maps live in the cache the
checks are given, keyed by their inputs' fingerprints up to their arity
(barcobar.one_sided_key; a split map's also by its positions, a module
map's by its partition), so structures with equal data up to that arity
share them.  Within one check call each identity of B(k) or of a
pentagon's part, each tensor product of maps and each reindexing is
built once and reused by every instance that needs it; none of them goes
into the shared cache.  A tensor product of maps reads each factor's
columns from that map, which builds them once
(exactla.ChainMap._global_columns), so a split map shared by many
tensors and check calls has its columns built once.  Every instance is
still compared in every degree; the two sides are compared as matrices,
and their difference is formed only to name a failing column.
"""

from __future__ import annotations

import itertools

from .barcobar import (
    BAR,
    _one_sided,
    bar_cocomposition,
    cobar_composition,
    module_structure_maps,
    one_sided_key,
    reduced_bar,
    reduced_cobar,
)
from .combinat import canonical_partition
from .errors import BoundsError, ValidationError, require_int
from .exactla import ChainMap, reindexing_map, tensor_chain_maps
from .opalg import fingerprint


def _require_arity(arity):
    require_int(arity, "arity")
    if arity < 1:
        raise BoundsError(f"arity {arity} is below 1")


def _triples(n, allow_empty_x=True):
    labels = tuple(range(1, n + 1))
    for z_size in range(1, n):
        for z_side in itertools.combinations(labels, z_size):
            rest = tuple(x for x in labels if x not in z_side)
            for y_size in range(1, len(rest) + 1):
                for y_side in itertools.combinations(rest, y_size):
                    x_side = tuple(x for x in rest if x not in y_side)
                    if not allow_empty_x and not x_side:
                        continue
                    yield x_side, y_side, z_side


def _positions(universe, subset):
    ordered = sorted(universe)
    return tuple(sorted(ordered.index(x) + 1 for x in subset))


class _Maps:
    """The maps of one check call on one structure.  Complexes and split
    maps are kept in the shared cache (split maps under their kind, the
    structure's fingerprint up to the arity, the arity and the split
    positions) and outlive the call.  Identities, tensor products of maps
    and reindexings are built once per check call in `built`, which the
    call drops when it returns."""

    def __init__(self, structure, kind, cache):
        self.structure, self.kind = structure, kind
        self.cache = {} if cache is None else cache
        self.built = {}

    def once(self, key, build):
        if key not in self.built:
            self.built[key] = build()
        return self.built[key]

    def complex(self, n):
        build = reduced_bar if self.kind == BAR else reduced_cobar
        return build(self.structure, n, self.cache).complex

    def split(self, universe, b_side):
        """The split of b_side off universe, relabelled to 1..len(universe)."""
        n, b = len(universe), _positions(universe, b_side)
        a_rest = tuple(x for x in range(1, n + 1) if x not in b)
        key = ("split", self.kind, fingerprint(self.structure, n), n, b)
        if key not in self.cache:
            build = (bar_cocomposition if self.kind == BAR
                     else cobar_composition)
            self.cache[key] = build(self.structure, n, b[0],
                                    a_rest + (b[0],), b, self.cache)
        return self.cache[key]

    def identity(self, n):
        return self.once(("id", n),
                         lambda: ChainMap.identity(self.complex(n)))

    def tensor(self, *maps):
        """Tensor product of maps and identities (given as arities).  The
        key holds the maps, which hash by identity, so no id is reused."""
        return self.once(("tensor",) + maps, lambda: tensor_chain_maps([
            self.identity(f) if isinstance(f, int) else f for f in maps]))

    def reindex(self, arities, source_shape, target_shape):
        return self.once(
            ("reindex", arities, source_shape, target_shape),
            lambda: reindexing_map([self.complex(n) for n in arities],
                                   source_shape, target_shape))


def _act(bc, blocks, cache):
    """The module structure map of blocks on the one-sided complex bc, kept
    in the shared cache under the content key of bc's inputs and the
    canonical blocks, so complexes with equal inputs share it."""
    blocks = canonical_partition(blocks)
    key = ("act", one_sided_key(bc.kind, bc.r_coeff, bc.op, bc.l_coeff,
                                bc.arity), blocks)
    if key not in cache:
        cache[key] = module_structure_maps(bc, blocks, cache)
    return cache[key]


def _chain(kind, *maps):
    """Compose maps listed from B(P)(n) outwards: in this order on the bar
    side, the reverse order on the cobar side."""
    out = None
    for f in (maps if kind == BAR else maps[::-1]):
        out = f if out is None else f.compose(out)
    return out


def _agree(lhs, rhs, failure):
    for d in sorted(set(lhs.mats) | set(rhs.mats)):
        left, right = lhs.component(d), rhs.component(d)
        if left != right:
            column = min(j for (_i, j), _v in (left - right).entries())
            raise ValidationError(f"{failure}, degree {d}, column {column}")


def _check_nested(structure, kind, arity, cache, name):
    _require_arity(arity)
    maps = _Maps(structure, kind, cache)
    whole = range(1, arity + 1)
    shapes = ((0, (1, 2)), ((0, 1), 2))
    count = 0
    for x_side, y_side, z_side in _triples(arity):
        count += 1
        a_side = sorted(set(whole) - set(z_side) | {min(z_side)})
        yz = y_side + z_side
        lhs = _chain(kind, maps.split(whole, z_side), maps.tensor(
            maps.split(a_side, y_side + (min(z_side),)), len(z_side)))
        rhs = _chain(kind, maps.split(whole, yz), maps.tensor(
            len(x_side) + 1, maps.split(sorted(yz), z_side)), maps.reindex(
            (len(x_side) + 1, len(y_side) + 1, len(z_side)),
            *(shapes if kind == BAR else shapes[::-1])))
        _agree(lhs, rhs, f"{name} fails at arity {arity}, split "
                         f"X={x_side} Y={y_side} Z={z_side}")
    return count


def check_coassociativity(p, arity, cache=None):
    """Nested double cocompositions agree on B(P)(arity), all splittings."""
    return _check_nested(p, BAR, arity, cache, "coassociativity")


def check_cobar_associativity(q, arity, cache=None):
    """Nested double compositions agree on the cobar side, all splittings."""
    return _check_nested(q, "cobar", arity, cache, "cobar associativity")


def check_disjoint_cocompositions(p, arity, cache=None):
    """Disjoint double cocompositions agree up to the Koszul swap."""
    _require_arity(arity)
    maps = _Maps(p, BAR, cache)
    whole = range(1, arity + 1)
    count = 0
    for x_side, y_side, z_side in _triples(arity, allow_empty_x=False):
        if min(y_side) > min(z_side):
            continue
        count += 1
        a_side = sorted(set(whole) - set(z_side) | {min(z_side)})
        b_side = sorted(set(whole) - set(y_side) | {min(y_side)})
        lhs = maps.tensor(maps.split(a_side, y_side), len(z_side)).compose(
            maps.split(whole, z_side))
        rhs = maps.tensor(maps.split(b_side, z_side), len(y_side)).compose(
            maps.split(whole, y_side))
        swap = maps.reindex((len(x_side) + 2, len(y_side), len(z_side)),
                            ((0, 2), 1), ((0, 1), 2))
        _agree(lhs, swap.compose(rhs),
               f"disjoint cocompositions disagree at arity {arity}, "
               f"split X={x_side} Y={y_side} Z={z_side}")
    return count


def check_unary_action_is_identity(one_sided, cache=None):
    """The trivial-partition structure map acts as the identity."""
    cache = {} if cache is None else cache
    trivial = canonical_partition([tuple(range(1, one_sided.arity + 1))])
    cm = _act(one_sided, trivial, cache)
    bar = one_sided.kind == BAR
    units = (reduced_bar if bar else reduced_cobar)(
        one_sided.op, 1, cache).complex
    if units.degrees() != [0] or units.rank(0) != 1:
        raise ValidationError("unary pair missing")
    (unit,) = units.labels(0)
    m, pairs = one_sided.complex, (cm.target if bar else cm.source)
    insert = ChainMap.from_rows(m, pairs, {
        d: {pairs.module.position(d, (unit, lab)): {j: 1}
            for j, lab in enumerate(m.labels(d))} for d in m.degrees()})
    failure = f"unary {'co' if bar else ''}action is not the identity"
    if bar:
        _agree(cm, insert, failure)
    else:
        _agree(cm.compose(insert), ChainMap.identity(m), failure)
    return True


def check_module_pentagon_chain(one_sided, lam, grouping, cache=None):
    """Acting after composing equals acting group by group, on a cobar
    complex: lam partitions {1..n} and grouping partitions its block
    indices {0..r-1} into the groups of the coarsening mu."""
    cache = {} if cache is None else cache
    if one_sided.kind != "cobar":
        raise ValidationError("chain pentagon is implemented on the cobar side")
    lam = canonical_partition(lam)
    r = len(lam)
    groups = [tuple(sorted(g)) for g in grouping]
    if not all(groups) or \
            sorted(x for g in groups for x in g) != list(range(r)):
        raise ValidationError("grouping must partition the blocks")
    groups.sort(key=lambda g: lam[g[0]][0])
    unions = [sorted(x for bi in g for x in lam[bi]) for g in groups]
    s = len(groups)
    maps = _Maps(one_sided.op, "cobar", cache)
    gamma = _act(reduced_cobar(one_sided.op, r, cache),
                 [tuple(x + 1 for x in g) for g in groups], cache)
    sub_acts = [_act(_one_sided(one_sided, len(u), cache), [
        tuple(u.index(x) + 1 for x in lam[bi]) for bi in g], cache)
        for g, u in zip(groups, unions)]
    parts = [_one_sided(one_sided, len(b), cache).complex for b in lam]
    # The parts' identities, by complex; the key holds the complex.
    lhs = _act(one_sided, lam, cache).compose(tensor_chain_maps([gamma] + [
        maps.once(("part id", c), lambda c=c: ChainMap.identity(c))
        for c in parts]))
    shuffle = reindexing_map(
        [maps.complex(n) for n in [s] + [len(g) for g in groups]] + parts,
        (tuple(range(s + 1)),) + tuple(range(s + 1, s + 1 + r)),
        (0,) + tuple((1 + i,) + tuple(s + 1 + bi for bi in g)
                     for i, g in enumerate(groups)))
    rhs = _act(one_sided, unions, cache).compose(
        maps.tensor(s, *sub_acts)).compose(shuffle)
    _agree(lhs, rhs, f"module pentagon fails for lam={lam} groups={groups}")
    return True
