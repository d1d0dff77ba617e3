"""Algebraic bar and cobar complexes over decorated trees.

A basis element is a labelled tree together with one basis index per
decoration slot: the root slot (right-module factor), one slot per
internal vertex in the canonical VertexOrder (operad factors), and one
slot per leaf in least-label order (left-module factors).  The basis
trees are those within the supports of the coefficients and the operad:
root arity, vertex arities and leaf sizes of nonzero rank, so for a
reduced operad with unit coefficients they are the standard trees.

The differential, the symmetric action and the ungrafting maps below all
carry a tree's slot decorations along a map of trees (a collapse, a
relabelling or a cut) given as a plan: one item per target slot, the
source slot it copies (an int), a unit (None), or the source slots it
sends through a structure matrix ((positions, matrix)).  A slot's module
is fixed by its arity, so the trees with equal slot arities share one
_Slots, built once per complex (_slot_table): the ranks, their
row-major strides, the _decorations list and whether some slot has odd
degree.  _decorations lists the decorations in row-major order, so a
decoration's flat index is its position in the list.

One compiler, _plan_table, expands a plan over every decoration into a
term table: (source flat index, target flat index, internal degree,
coefficient).  Copies of slots of rank > 1 fill the target index through
its strides, and only the apply items are expanded.  The coefficient is
the Koszul sign of reordering the graded decorations into the target's
slot order (once per degree tuple, and only when some slot has odd
degree) times the matrix entries; it leaves out the tree map's
orientation sign.  A table depends only on the source and target _Slots,
the plan and its matrices, so each map keeps its tables in a dict local
to one complex or one map, keyed on that data, and compiles each table
once, with its check that the plan covers every source slot.  Every move
then replays its table, times its orientation sign.  The matrix in a key
is named by what fixes it: an edge collapse's (outer slot kind, m_out,
insert_pos, k_inner, tau), a bud collapse's canonical blocks (plans of
equal slots can cut different blocks), a relabelling's source slot and
tau per target slot, which with the source's vertex count fix each
slot's kind.

Every map works on tree keys (trees): the sorted label masks of a tree's
nodes below the root.  Assembly (_tree_complex) reads each basis tree's
masks in slot order, vertex count, vertices' children and slot arities
off the enumeration (trees.supported_trees, through _placed_trees, which
also places each decoration in its degree), and sums the collapse moves
whose merged slot stays in its support: each target slot copies the
source slot with its mask, and the merged slot applies the structure
matrix.  A move's plan, sign and table depend only on its template, so
each is made once per build, and an edge's matrix, the structure's
partial in operad form (opalg.operad_form) times the child-reorder
action, once per complex.  Bar and cobar complexes share one plan: cobar
complexes run the covers backwards, with tree degrees recorded
negatively.  The complex keeps its basis keys, their supports and its
_slot_table.

Each complex builds its records (_TreeRecord), one per basis tree, from
the enumeration the first time a map asks for one, and keeps them
(BarComplex.records).  A cache shares a complex, records and all, only
between inputs that read alike up to its arity (one_sided_key).

A permutation acts on masks through a bit table (trees._mask_image); the
target's record is the one keyed by the sorted images, and
trees._relabel_slots gives the orientation sign and each slot's child
reordering.  One ungrafting engine builds the cooperad structure of
B(P), the operad structure of the cobar construction and the module
structure maps of a one-sided complex: it cuts each tree into factors
F_0 (x) F_1 (x) ... on masks (trees._cutter), and finds the factors'
records by their keys.  Each term is the source's (degree, position),
the tuple of the factors' global basis indices, which the tensor
product's tensor_index turns into a position, and the coefficient.  Its
table (_split_table) holds each factor's flat index, split off the
target flat index by divmod, and the signs below but the orientation's.
A basis element is its vertex orientation tensored with its slot
decorations, so each term carries the sign splitting the orientation,
the Koszul sign of reordering the decorations, and (-1)^(s_j t_i) for
every i < j, as factor j's orientation (degree s_j, its vertex count)
moves past factor i's decorations (internal degree t_i).

A basis label (BarBasisLabel, SimplicialBarLabel) is a named tuple, so
the module index, position lookups and tensor labels hash and compare it
as a tuple.  Text appears only in a label's repr, which serializes its
key.  Every differential and map is assembled as rows {i: {j: v}} and
built through from_rows (exactla), which checks each row's index range
once.

The normalized simplicial construction runs over strict chains of mask
partitions (combinat.strict_chains): a partition is the sorted tuple of
its block masks, as a tree key is of its node masks.  Its slots and face
plans take each partition's blocks by least label, the faces find
sub-blocks by mask tests, and a label's repr writes its chain as text.
It shares the plan compiler with the tree complexes, and with the bud
collapse the renumbering of a mask's sub-blocks onto 1..k (_renumbered);
it serves as a sign-free homology oracle.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from . import trees as tr
from .combinat import (
    _labels,
    _low,
    block_sort_perm,
    canonical_partition,
    chain_label,
    permutation,
    set_partitions,
    strict_chains,
)
from .errors import (
    BoundsError,
    InternalConsistencyError,
    ValidationError,
    require_int,
)
from .exactla import (
    INT,
    RAT,
    ChainComplex,
    ChainMap,
    ExactMatrix,
    GradedFreeModule,
    homology_coordinates,
    homology_representatives,
    kernel_basis,
    perm_sign,
    tensor_list,
    tensor_vector,
)
from .opalg import (
    LEFT_COMODULE,
    LEFT_MODULE,
    RIGHT_COMODULE,
    RIGHT_MODULE,
    Cooperad,
    Operad,
    SidedModule,
    SymSeq,
    constant_comodule,
    dual,
    builtin,
    fingerprint,
    operad_form,
    unit_module,
)

BAR = "bar"
COBAR = "cobar"


class BarBasisLabel(NamedTuple):
    """Decorated tree: the tree's key, one basis index per slot, and the
    bigrading.  A tuple, so it hashes and compares as one."""

    tree: tuple
    decoration: tuple
    tree_degree: int
    internal_degree: int

    def __repr__(self):
        dec = ",".join(str(i) for i in self.decoration)
        return (f"<{tr.serialize(self.tree)}|{dec}|s={self.tree_degree},"
                f"t={self.internal_degree}>")


class _TreeRecord(tr._TreeShape):
    """One basis tree of a complex as its structure maps read it: its
    shape, slots the _Slots of its signature, shared with assembly and
    every other tree of the complex with the same slot arities, and at[k]
    the (total degree, position in that degree) of the tree with its k-th
    decoration, k the flat (row-major) index."""

    __slots__ = ("slots", "at")

    def __init__(self, key, masks, nv, children, slots, at):
        super().__init__(key, masks, nv, children)
        self.slots, self.at = slots, at


class BarComplex:
    """A bar or cobar chain complex with bigrading metadata.

    trees are the basis trees' keys in serialization order, supports the
    (root, vertex, leaf) supports they were enumerated within, and
    slots_of the _slot_table assembly read them through.  The records of
    every tree (_TreeRecord) are built together on first use and kept
    (records).
    """

    def __init__(self, kind, arity, complex_, trees, supports, slots_of,
                 r_coeff, op, l_coeff):
        self.kind = kind
        self.arity = arity
        self.complex = complex_
        self._trees = tuple(trees)
        self.supports = supports
        self.slots_of = slots_of
        self._records = None
        self._all_records = None
        self.r_coeff = r_coeff
        self.op = op
        self.l_coeff = l_coeff

    @property
    def ring(self):
        return self.complex.ring

    def homology(self, ring=None):
        return self.complex.homology(ring=ring)

    def trees(self):
        """The basis trees' keys in serialization order."""
        return self._trees

    def record(self, key):
        """The _TreeRecord of the basis tree with this key, or None."""
        if self._records is None:
            self.records()
        return self._records.get(key)

    def records(self):
        """The records of every basis tree, in serialization order; built
        once, on the first call, from the enumeration assembly read (the
        trees' masks, vertex counts, vertices' children and _Slots, and
        each decoration's place in its degree), so no key is walked and
        no label is looked up."""
        if self._all_records is None:
            self._all_records = tuple(
                _TreeRecord(key, masks, nv, children, slots,
                            list(zip(degs, positions)))
                for key, masks, nv, children, slots, degs, positions in
                _placed_trees(self.kind, self.arity, self.supports,
                              self.slots_of))
            self._records = {rec.key: rec for rec in self._all_records}
        return self._all_records


def _placed_trees(kind, arity, supports, slots_of):
    """(key, masks, nv, children, slots, degrees, positions) for every
    basis tree of a bar or cobar complex in basis order: its key, masks
    in slot order, vertex count and vertices' children as
    trees.supported_trees gives them within the (root, vertex, leaf)
    supports, slots the _Slots of its signature, and degrees[k] and
    positions[k] the total degree of the tree with its k-th decoration
    and its position in that degree.  A degree's basis lists each tree's
    decorations in this order, so a position is a count.  degrees is
    shared by the trees with equal slots, which fix the vertex count."""
    filled = {}
    degrees = {}
    for key, masks, nv, children, arities in tr.supported_trees(
            arity, *supports):
        slots = slots_of(nv, arities)
        degs = degrees.get(slots)
        if degs is None:
            degs = degrees[slots] = [_total_degree(kind, nv, t) for
                                     _decor, _degs, t in slots.decorations]
        positions = []
        for d in degs:
            pos = filled.get(d, 0)
            filled[d] = pos + 1
            positions.append(pos)
        yield key, masks, nv, children, slots, degs, positions


def _total_degree(kind, tree_degree, internal_degree):
    """Total degree s + t of a bar label, -s + t of a cobar label."""
    return (tree_degree if kind == BAR else -tree_degree) + internal_degree


def _decorations(modules):
    """(decoration, slot degrees, internal degree) for every decoration of
    slots with these modules, in row-major order, so a decoration's flat
    index is its position in the list; equal degree tuples are one
    object."""
    out = []
    shared = {}
    for decor in itertools.product(*(range(m.total_rank()) for m in modules)):
        degs = tuple(m.degree_of(i) for m, i in zip(modules, decor))
        degs = shared.setdefault(degs, degs)
        out.append((decor, degs, sum(degs)))
    return out


def _strides(sizes):
    """Row-major strides of a sequence of ranks: a multi-index's flat
    index is its dot product with them."""
    out = [1] * len(sizes)
    for j in range(len(sizes) - 1, 0, -1):
        out[j - 1] = out[j] * sizes[j]
    return out


class _Slots:
    """The slots of one slot-module signature, shared by every tree or
    chain with it: sizes their ranks, strides the row-major strides of
    sizes, decorations the _decorations list, odd whether some slot has a
    basis element of odd degree, and span the slot indices in order."""

    __slots__ = ("sizes", "strides", "decorations", "odd", "span")

    def __init__(self, modules):
        self.sizes = tuple(m.total_rank() for m in modules)
        self.strides = _strides(self.sizes)
        self.decorations = _decorations(modules)
        self.odd = any(d % 2 for m in modules for d in m.degrees())
        self.span = list(range(len(modules)))


def _slot_table(r_mod, p, l_mod, arity):
    """slots_of(nv, arities): the _Slots of the trees whose slots, the
    root, nv vertices in depth-first order and the leaves by least label,
    have these arities; the components are read once, and each signature's
    _Slots is built once."""
    root, vertex, leaf = ([seq.component(n) for n in range(arity + 1)]
                          for seq in (r_mod, p, l_mod))
    table = {}

    def slots_of(nv, arities):
        slots = table.get((nv, arities))
        if slots is None:
            slots = table[nv, arities] = _Slots(
                [root[arities[0]]] + [vertex[a] for a in arities[1:nv + 1]]
                + [leaf[a] for a in arities[nv + 1:]])
        return slots
    return slots_of


def _plan_table(src, plan, strides):
    """Compile a plan into its term table; the one expansion loop.

    src is the source's _Slots.  plan has one item per target slot, whose
    row-major strides are strides: an int q takes source slot q's basis
    index, None the index 0 of a unit slot, and (positions, matrix) the
    column of matrix at the source slots' indices flattened row-major over
    their ranks.  Read in target order, the plan must list every source
    slot once; this is checked once per table.  Its Koszul sign on a
    decoration is (-1) to the number of pairs of odd-degree decorations
    that trade places, computed once per degree tuple, and only when some
    source slot has odd degree.  Returns the terms (k, target flat index,
    internal degree, coefficient) for the k-th decoration of src (k is its
    flat index), the coefficient being the Koszul sign times the matrix
    entries; a caller replays the table for every move with this plan,
    multiplying each coefficient by the move's orientation sign.  The
    copies fill a template through the target strides, and only the apply
    items are expanded; slots of rank one add nothing to an index.
    """
    sizes = src.sizes
    order, copies, applies = [], [], []
    for item, stride in zip(plan, strides):
        if item.__class__ is int:
            order.append(item)
            if sizes[item] > 1:
                copies.append((item, stride))
            continue
        if item is None:
            continue
        positions, matrix = item
        order.extend(positions)
        inputs, step = [], 1
        for q in reversed(positions):
            if sizes[q] > 1:
                inputs.append((q, step))
                step *= sizes[q]
        applies.append((inputs, matrix.column, stride))
    if sorted(order) != src.span:
        raise InternalConsistencyError("plan does not cover all slots")
    koszul = 1
    if src.odd:
        perm = [0] * len(order)
        for target, q in enumerate(order):
            perm[q] = target
        signs = {}
    table = []
    for k, (decor, degs, t) in enumerate(src.decorations):
        if src.odd:
            koszul = signs.get(degs)
            if koszul is None:
                # The odd slots' target positions, in source order.
                koszul = signs[degs] = perm_sign(
                    [perm[q] for q, d in enumerate(degs) if d % 2])
        base = 0
        for q, stride in copies:
            base += decor[q] * stride
        factors = []
        for inputs, column, stride in applies:
            at = 0
            for q, s in inputs:
                at += decor[q] * s
            factors.append([(idx * stride, c) for idx, c in
                            column(at).items()])
        for combo in itertools.product(*factors):
            coeff, flat = koszul, base
            for idx, c in combo:
                coeff *= c
                flat += idx
            table.append((k, flat, t, coeff))
    return table


def bar_complex(r_mod, p, l_mod, arity):
    """Two-sided algebraic bar construction at one arity, over p's ring."""
    return _tree_complex(BAR, r_mod, p, l_mod, arity)


def cobar_complex(r_comod, q, l_comod, arity):
    """Two-sided algebraic cobar construction at one arity, over q's ring."""
    return _tree_complex(COBAR, r_comod, q, l_comod, arity)


def _check_inputs(kind, r_mod, p, l_mod):
    if kind == BAR:
        if not isinstance(p, Operad):
            raise ValidationError("bar complexes are built over an operad")
        if r_mod.side != RIGHT_MODULE or l_mod.side != LEFT_MODULE:
            raise ValidationError("bar coefficients are a right and a left module")
    else:
        if not isinstance(p, Cooperad):
            raise ValidationError("cobar complexes are built over a cooperad")
        if r_mod.side != RIGHT_COMODULE:
            raise ValidationError("cobar right coefficient must be a right comodule")
        if l_mod.side != LEFT_COMODULE:
            raise ValidationError("cobar left coefficient must be a left comodule")
    if r_mod.ring != p.ring or l_mod.ring != p.ring:
        raise ValidationError("bar/cobar inputs must share a ring")


def _check_arity(arity, p):
    """ValidationError unless arity is an int, BoundsError if it is below
    1 or above p's max_arity."""
    require_int(arity, "arity")
    if arity < 1:
        raise BoundsError(f"arity {arity} is below 1")
    if arity > p.max_arity:
        raise BoundsError(f"arity {arity} exceeds max_arity {p.max_arity}")


def _tree_complex(kind, r_mod, p, l_mod, arity):
    """The bar or cobar complex: signed collapse moves on decorated trees.

    The trees and the moves are those within the supports of r_mod, p and
    l_mod.  For cobar complexes the differential runs from the collapsed
    tree to the uncollapsed one, so the roles of the labels swap while
    the coefficient (orientation sign, Koszul reorder, matrix entry) is
    the bar direction's.

    Each tree's shape is built from the enumeration's masks and vertices'
    children.  A move's plan and sign (trees.collapse) depend only on the
    tree's vertex parents and slot count, q, bud, and for an edge which
    spliced children are vertices and tau; with the source's _Slots and
    the matrix key they fix its table.  So the (sign, table) of each such
    template is kept for this build, trees.collapse runs once per
    template, and the target key, insert_pos and tau of every move come
    from trees._move.
    """
    _check_inputs(kind, r_mod, p, l_mod)
    _check_arity(arity, p)
    supports = tuple({n for n in range(1, arity + 1) if seq.rank(n)}
                     for seq in (r_mod, p, l_mod))
    root_support, v_support, leaf_support = supports
    slots_of = _slot_table(r_mod, p, l_mod, arity)
    # Per tree, by its key: (masks in slot order, vertex count, children,
    # each decoration's position within its degree, the signature's
    # _Slots).
    index = {}
    spaces = {}
    for key, masks, nv, children, slots, degs, positions in _placed_trees(
            kind, arity, supports, slots_of):
        for (decor, _degs, t), d in zip(slots.decorations, degs):
            labels = spaces.get(d)
            if labels is None:
                labels = spaces[d] = []
            labels.append(BarBasisLabel(key, decor, nv, t))
        index[key] = (masks, nv, children, positions, slots)
    module = GradedFreeModule(spaces)

    # The merged slots' matrices, by matrix key: (outer slot kind, m_out,
    # insert_pos, k_inner, tau) for an edge, the canonical blocks of the
    # left action for a bud.  The term tables of the moves, by (source
    # _Slots, target _Slots, plan, matrix key), which fix the table.  The
    # (sign, table) of the moves, by the source's _Slots, vertex parents
    # and slot count, then (q, bud, vertex flags of the spliced children,
    # tau, insert_pos) for an edge and (q, bud, leaves, blocks) for a bud.
    # All are local to this complex.
    matrices = {}
    tables = {}
    templates = {}
    rows = {}
    bar = kind == BAR
    for key, (masks, nv, children, pos_big, src) in index.items():
        shape = tr._TreeShape(key, masks, nv, children)
        kids, parent = shape.kids, shape.parent
        shape_key = (src, *parent[:nv + 1], len(parent))
        made = templates.get(shape_key)
        if made is None:
            made = templates[shape_key] = {}
        # Total degree, less t, of a differential's source: the tree for a
        # bar complex, the collapsed tree for a cobar complex.
        d_src = _total_degree(kind, nv if bar else nv - 1, 0)
        for q in range(1, nv + 1):
            up, below = parent[q], kids[q]
            m_out, k_inner = len(kids[up]), len(below)
            # (bud, target key, template) of each move whose merged slot
            # stays in its support.  With shape_key, a template fixes the
            # move's plan and sign, its target's _Slots and its matrix key
            # (the last item of a bud's; an edge's is read off it), hence
            # its table.
            moves = []
            if m_out + k_inner - 1 in (v_support if up else root_support):
                tkey, spliced, ins, tau = tr._move(shape, q, False)
                moves.append((False, tkey, (
                    q, False, tuple([r <= nv for r in spliced]), tau, ins)))
            # The leaves are the slots after the vertices.
            if min(below) > nv and masks[q - 1].bit_count() in leaf_support:
                moves.append((True, tr._move(shape, q, True)[0], (
                    q, True, tuple(below), _renumbered(
                        masks[q - 1], [masks[r - 1] for r in below]))))
            for bud, tkey, template in moves:
                _m, _nv, _kids, pos_small, tgt = index[tkey]
                move = made.get(template)
                if move is None:
                    # Through the module attribute, so that a wrapper of
                    # trees.collapse sees every template.
                    _tkey, plan, sign, _ins, _tau = tr.collapse(shape, q, bud)
                    merge = template[3] if bud else (
                        "v" if up else "root", m_out, template[4], k_inner,
                        template[3])
                    table_key = (src, tgt, tuple(plan), merge)
                    table = tables.get(table_key)
                    if table is None:
                        apply = matrices.get(merge)
                        if apply is None:
                            apply = matrices[merge] = (
                                operad_form(l_mod).left_action(merge) if bud
                                else _merged_matrix(r_mod if up == 0 else p,
                                                    *merge[1:]))
                        # The merged slot applies its matrix; the others
                        # copy.
                        at, consumed = (q, (q, *below)) if bud else \
                            (up, (up, q))
                        plan[plan.index(at)] = (consumed, apply)
                        table = tables[table_key] = _plan_table(
                            src, plan, tgt.strides)
                    move = made[template] = (sign, table)
                sign, table = move
                for k, flat, t, coeff in table:
                    i, j = ((pos_small[flat], pos_big[k]) if bar
                            else (pos_big[k], pos_small[flat]))
                    _add(rows, d_src + t, i, j, sign * coeff)
    keys = tuple(index)
    del index, templates  # The matrices below are built without them.
    return BarComplex(kind, arity, ChainComplex.from_rows(
        module, rows, p.ring), keys, supports, slots_of, r_mod, p, l_mod)


def _add(rows, d, i, j, v):
    """Add v at (i, j) of the rows {d: {i: {j: value}}} of degree d."""
    out = rows.get(d)
    if out is None:
        rows[d] = {i: {j: v}}
        return
    row = out.get(i)
    if row is None:
        out[i] = {j: v}
    else:
        row[j] = row.get(j, 0) + v


def _renumbered(mask, parts):
    """The masks parts, which partition mask, renumbered onto 1..|mask| in
    order, as a canonical_partition: the blocks of the left action of a
    bud collapse (mask a vertex's, parts its leaves') or of a simplicial
    L face (mask a block, parts its sub-blocks)."""
    labels = _labels(mask)
    return canonical_partition(_labels(tr._compress(part, labels))
                               for part in parts)


def _merged_matrix(outer, m_out, insert_pos, k_inner, tau):
    """The matrix of an edge collapse's merged slot: the partial
    composition in operad form followed by the child-reorder action tau;
    for cobar complexes the operad form is the transposed cocomposition,
    which supplies the cocomposition coefficients."""
    form = operad_form(outer)
    matrix = form.partial(m_out, insert_pos, k_inner)
    if any(tau[i] != i for i in range(len(tau))):
        matrix = form.action(m_out + k_inner - 1,
                             tuple(t + 1 for t in tau)) * matrix
    return matrix


# ---------------------------------------------------------------------------
# normalized simplicial bar construction (the sign-free oracle)


class SimplicialBarLabel(NamedTuple):
    """Strict chain of mask partitions (finest first) with block-wise
    decorations; a tuple, as BarBasisLabel is."""

    chain: tuple
    decoration: tuple

    def __repr__(self):
        return (f"<{chain_label(self.chain)}|"
                f"{','.join(str(i) for i in self.decoration)}>")


def _chain_slots(chain, r_mod, p, l_mod):
    """Slots: right factor, P layers coarse to fine, left factors, each
    layer's blocks by least label."""
    k = len(chain) - 1
    slots = [("R", None, r_mod.component(len(chain[k])))]
    for j in range(k, 0, -1):
        fine = chain[j - 1]
        for block in sorted(chain[j], key=_low):
            inner = sum(1 for c in fine if c & block == c)
            slots.append(("P", (j, block), p.component(inner)))
    for block in sorted(chain[0], key=_low):
        slots.append(("L", block, l_mod.component(block.bit_count())))
    return slots


def simplicial_bar_complex(r_mod, p, l_mod, arity):
    """Normalized chains of the simplicial two-sided bar construction, over
    p's ring.

    Degree-k basis: strict chains of k+1 partitions with decorations; the
    differential is the alternating sum of the partition deletions, via
    the augmentation (endpoint) and structure-map (inner) faces.
    """
    _check_inputs(BAR, r_mod, p, l_mod)
    _check_arity(arity, p)
    # Per chain: (slots, their _Slots, each decoration's position within
    # its degree).
    table = {}
    spaces = {}
    for chain in strict_chains(arity):
        slots = _chain_slots(chain, r_mod, p, l_mod)
        if any(s[2].total_rank() == 0 for s in slots):
            continue
        shared = _Slots([s[2] for s in slots])
        positions = []
        for decor, _degs, t in shared.decorations:
            labels = spaces.setdefault(len(chain) - 1 + t, [])
            positions.append(len(labels))
            labels.append(SimplicialBarLabel(chain, decor))
        table[chain] = (slots, shared, positions)
    module = GradedFreeModule(spaces)

    rows = {}
    for chain, (slots, shared, pos_src) in table.items():
        k = len(chain) - 1
        for i_face in range(k + 1):
            j_del = k - i_face
            tgt_chain = chain[:j_del] + chain[j_del + 1:]
            if tgt_chain not in table:
                continue
            slots_tgt, shared_tgt, pos_tgt = table[tgt_chain]
            plan = _face_plan(chain, j_del, slots, slots_tgt, r_mod, p, l_mod)
            sign = -1 if i_face % 2 else 1
            for k_src, flat, t, coeff in _plan_table(shared, plan,
                                                     shared_tgt.strides):
                _add(rows, k + t, pos_tgt[flat], pos_src[k_src], sign * coeff)
    return ChainComplex.from_rows(module, rows, p.ring)


def _face_plan(chain, j_del, slots_src, slots_tgt, r_mod, p, l_mod):
    """Merge plan for deleting one partition from a strict chain; blocks
    and sub-blocks go by least label, as the slots do."""
    k = len(chain) - 1
    ordered = [sorted(mu, key=_low) for mu in chain]
    src_pos = {(kind, key): i for i, (kind, key, _m) in enumerate(slots_src)}

    def p_slot(j, block):
        return src_pos[("P", (j, block))]

    def grouping(fine, blocks):
        """(sub-block counts of blocks in fine, the action rho sorting
        the sub-blocks, grouped by block, into fine's order)."""
        subs = [[c for c in fine if c & b == c] for b in blocks]
        rho = block_sort_perm([_low(c) for group in subs for c in group])
        return tuple(map(len, subs)), tuple(t + 1 for t in rho)

    plan = []
    for tkind, tkey, _m in slots_tgt:
        if tkind == "R":
            if j_del == k:
                # Right action absorbs the coarsest layer.
                inner, rho = grouping(ordered[k - 1], ordered[k])
                matrix = operad_form(r_mod).full(inner)
                if any(rho[x] != x + 1 for x in range(len(rho))):
                    matrix = r_mod.action(len(rho), rho) * matrix
                consumed = [src_pos[("R", None)]] + [
                    p_slot(k, b) for b in ordered[k]]
                plan.append((tuple(consumed), matrix))
            else:
                plan.append(src_pos[("R", None)])
        elif tkind == "L":
            if j_del == 0:
                block = tkey
                subs = [c for c in ordered[0] if c & block == c]
                matrix = operad_form(l_mod).left_action(
                    _renumbered(block, subs))
                consumed = [p_slot(1, block)] + [
                    src_pos[("L", c)] for c in subs]
                plan.append((tuple(consumed), matrix))
            else:
                plan.append(src_pos[("L", tkey)])
        else:
            jt, block = tkey
            j_old = jt if jt < j_del else jt + 1
            if j_old == j_del + 1 and j_del >= 1:
                # Merged layer: compose the block's operad factors.
                subs = [c for c in ordered[j_del] if c & block == c]
                inner, rho = grouping(ordered[j_del - 1], subs)
                matrix = p.full_composition(inner)
                if any(rho[x] != x + 1 for x in range(len(rho))):
                    matrix = p.action(len(rho), rho) * matrix
                consumed = [p_slot(j_del + 1, block)] + [
                    p_slot(j_del, c) for c in subs]
                plan.append((tuple(consumed), matrix))
            else:
                plan.append(p_slot(j_old, block))
    return plan


# ---------------------------------------------------------------------------
# the signed symmetric action on bar/cobar complexes


def symmetric_action(bc, sigma):
    """Matrices (per total degree) of a label permutation on the complex.

    sigma is a 1-based image tuple on {1..arity}.  The action relabels
    the underlying trees (orientation sign), re-identifies every slot
    through its child reordering, and reorders the graded slots (Koszul
    signs).  It works on the trees' keys (_relabel_slots): sigma maps
    each node's label mask to the mask of the target's node, the target's
    record is the one with the sorted images as its key, and no Tree is
    built.
    """
    sigma = permutation(sigma, bc.arity,
                        f"symmetric_action on a complex of arity {bc.arity}")
    return _action_matrices(bc, sigma, bc.complex.degrees())


def _action_matrices(bc, sigma, degrees):
    """The matrices of a valid sigma in the total degrees degrees: the one
    path behind symmetric_action (every degree) and _homology_actions
    (the degrees of the homology representatives).  A tree with no
    decoration in those degrees is not relabelled."""
    wanted = set(degrees)
    degrees = [d for d in bc.complex.degrees() if d in wanted]
    image = tr._mask_image(sigma)
    seqs = (bc.r_coeff, bc.op, bc.l_coeff)
    # sigma's matrices on the slots' modules, by (slot kind, tau), and the
    # term tables, by (source _Slots, target _Slots, moves); the moves'
    # slot kinds follow from the source slots and its vertex count.
    matrices = {}
    tables = {}
    rows = {}
    for src in bc.records():
        if wanted.isdisjoint(d for d, _j in src.at):
            continue
        images = [image(m) for m in src.masks]
        tgt = bc.record(tuple(sorted(images)))
        sign, moves = tr._relabel_slots(src, tgt, images, image)
        table_key = (src.slots, tgt.slots, tuple(moves))
        table = tables.get(table_key)
        if table is None:
            plan = []
            for q, tau in moves:
                # The root, a vertex or a leaf: sigma's action on its
                # module.
                seq = 0 if q == 0 else 1 if q <= src.nv else 2
                matrix = matrices.get((seq, tau))
                if matrix is None:
                    matrix = matrices[seq, tau] = seqs[seq].action(
                        len(tau), tuple(t + 1 for t in tau))
                plan.append(((q,), matrix))
            table = tables[table_key] = _plan_table(src.slots, plan,
                                                    tgt.slots.strides)
        for k, flat, _t, coeff in table:
            d, j = src.at[k]
            if d in wanted:
                _add(rows, d, tgt.at[flat][1], j, sign * coeff)
    return {d: ExactMatrix.from_rows(bc.complex.rank(d), bc.complex.rank(d),
                                     rows.get(d, {}), ring=bc.ring)
            for d in degrees}


# ---------------------------------------------------------------------------
# cooperad / operad / module structure maps via (un)grafting


def one_sided_key(kind, r_mod, p, l_mod, arity):
    """Cache key of a complex: its kind, its arity n and its inputs'
    fingerprints up to n, as its trees have n leaves.  So dual(com) at
    max arity 4 and 5 share their complexes up to arity 4, and a shared
    complex's maps read the inputs it keeps only up to n."""
    return (kind, fingerprint(r_mod, arity), fingerprint(p, arity),
            fingerprint(l_mod, arity), arity)


def _cached_complex(kind, r_mod, p, l_mod, arity, cache):
    """The bar or cobar complex at one arity, kept in the caller's cache
    dict if one is given; the arity is checked before the cache is read."""
    build = bar_complex if kind == BAR else cobar_complex
    if cache is None:
        return build(r_mod, p, l_mod, arity)
    _check_arity(arity, p)
    key = one_sided_key(kind, r_mod, p, l_mod, arity)
    if key not in cache:
        cache[key] = build(r_mod, p, l_mod, arity)
    return cache[key]


def _unit(p, side):
    """The unit (co)module over p, built once per structure."""
    units = vars(p).setdefault("_unit_modules", {})
    if side not in units:
        units[side] = unit_module(p, side)
    return units[side]


def reduced_bar(p, arity, cache=None):
    """B(I,P,I) at one arity, with optional cross-call caching."""
    return _cached_complex(BAR, _unit(p, RIGHT_MODULE), p,
                           _unit(p, LEFT_MODULE), arity, cache)


def reduced_cobar(q, arity, cache=None):
    """Omega(I,Q,I) at one arity, with optional cross-call caching."""
    return _cached_complex(COBAR, _unit(q, RIGHT_COMODULE), q,
                           _unit(q, LEFT_COMODULE), arity, cache)


def _split_terms(bc, skeleton, parts, blocks):
    """((degree, position) in bc, factor global indices, coefficient)
    triples of the ungrafting map, read from the tree records.

    Ungrafts every basis tree V of bc along the disjoint label sets blocks
    on its masks (_cutter; a tree with no node on some block is skipped):
    each block is cut off as one part, renumbered onto 1..|block|
    preserving order; the skeleton keeps the leaves no block covers, gains
    one leaf per cut counted as its block's least label, and is
    renumbered onto 1..m preserving order.  The factors' records are
    looked up by their keys, so no Tree is built.  skeleton and parts are
    the factors' complexes, in the order of the blocks; trees whose
    factors are not among their basis trees contribute nothing.  The
    skeleton's cut leaves and the parts' roots carry the unit.  A
    factor's global index is its position in the tensor_list factor's
    global basis.

    Signs: V's vertex orientation splits into the factors' orientations
    (the sign of V's vertex order against skeleton vertices, then each
    part's), the slot decorations are reordered into the factors' slots
    (Koszul sign), and each factor's orientation, of degree its vertex
    count s_j, moves past the decorations of the factors before it, of
    internal degrees t_i: the sign (-1)^(sum over i < j of s_j t_i).
    """
    blocks = [tuple(sorted(b)) for b in blocks]
    factors = [skeleton] + list(parts)
    offsets = [f.complex.module.offset for f in factors]
    cut = tr._cutter(bc.arity, blocks)
    # The term tables, by (source _Slots, the factors' _Slots, plan);
    # local to this map.
    tables = {}
    out = []
    for rec in bc.records():
        split = cut(rec)
        if split is None:
            continue
        keys, placed = split
        f_recs = [f.record(key) for f, key in zip(factors, keys)]
        if None in f_recs:
            continue
        # Each factor's slots, in its order: the skeleton's root and every
        # slot that is one of V's are copied; the rest carry the unit.
        plans = [[None] * len(f_rec.slots.sizes) for f_rec in f_recs]
        plans[0][0] = 0
        # V's vertices in the split order: the skeleton's, then each part's.
        v_first = [0]
        for f_rec in f_recs:
            v_first.append(v_first[-1] + f_rec.nv)
        split_order = []
        for q, (j, mask) in enumerate(placed, start=1):
            at = f_recs[j].slot[mask]
            plans[j][at] = q
            if q <= rec.nv:
                split_order.append(v_first[j] + at - 1)
        base_sign = perm_sign(split_order)
        plan = tuple(item for items in plans for item in items)
        table_key = (rec.slots, tuple(f_rec.slots for f_rec in f_recs), plan)
        table = tables.get(table_key)
        if table is None:
            table = tables[table_key] = _split_table(rec.slots, f_recs, plan)
        for k, f_ks, coeff in table:
            combo = []
            for f_rec, off, f_k in zip(f_recs, offsets, f_ks):
                d_f, p_f = f_rec.at[f_k]
                combo.append(off(d_f) + p_f)
            out.append((rec.at[k], tuple(combo), base_sign * coeff))
    return out


def _split_table(src, f_recs, plan):
    """The term table of an ungrafting plan from the source slots src into
    the slots of the factors' records f_recs: (k, the factors' flat
    indices, coefficient) for the k-th decoration of src, the coefficient
    being the plan's Koszul sign and matrix entries times (-1)^(s_j t_i)
    for every i < j, s_j factor j's vertex count and t_i the internal
    degree of factor i's decoration.  The factors' slots and the plan fix
    the table, and the vertex counts follow from the slots."""
    totals = [len(f_rec.slots.decorations) for f_rec in f_recs]
    strides = _strides([size for f_rec in f_recs
                        for size in f_rec.slots.sizes])
    table = []
    for k, flat, _t, coeff in _plan_table(src, plan, strides):
        f_ks = [0] * len(f_recs)
        for j in range(len(f_recs) - 1, -1, -1):
            flat, f_ks[j] = divmod(flat, totals[j])
        t_before = 0
        for f_rec, f_k in zip(f_recs, f_ks):
            if f_rec.nv * t_before % 2:
                coeff = -coeff
            t_before += f_rec.slots.decorations[f_k][2]
        table.append((k, tuple(f_ks), coeff))
    return table


def bar_cocomposition(p, arity, a, a_side, b_side, cache=None):
    """Chain map B(P)(A u_a B) -> B(P)(A) (x) B(P)(B) by ungrafting.

    a_side and b_side partition {1..arity} with the slot marker a bound
    inside a_side; matrices are over the canonical complexes, with the
    marker realized as min(b_side).
    """
    return _split_map(BAR, p, arity, a, a_side, b_side, cache)


def cobar_composition(q, arity, a, a_side, b_side, cache=None):
    """Chain map Omega(Q)(A) (x) Omega(Q)(B) -> Omega(Q)(A u_a B)."""
    return _split_map(COBAR, q, arity, a, a_side, b_side, cache)


def _split_map(kind, p, arity, a, a_side, b_side, cache):
    _check_split(arity, a, a_side, b_side)
    k = len(tuple(b_side))
    build = reduced_bar if kind == BAR else reduced_cobar
    cplx_n, cplx_m, cplx_k = (build(p, n, cache)
                              for n in (arity, arity - k + 1, k))
    tensor = tensor_list([cplx_m.complex, cplx_k.complex])
    return _ungrafting_map(
        cplx_n, tensor, _split_terms(cplx_n, cplx_m, [cplx_k], [b_side]))


def _ungrafting_map(bc, tensor, terms):
    """Chain map bc -> tensor on the bar side, tensor -> bc on the cobar side.

    terms: ((degree, position) in bc, the factors' global basis indices,
    coefficient), as _split_terms returns them.
    """
    rows = {}
    bar = bc.kind == BAR
    for (dv, iv), combo, coeff in terms:
        dt, it = tensor.tensor_index[combo]
        if dt != dv:
            raise InternalConsistencyError("structure map changes degree")
        i, j = (it, iv) if bar else (iv, it)
        rows.setdefault(dv, {}).setdefault(i, {})[j] = coeff
    if bar:
        return ChainMap.from_rows(bc.complex, tensor, rows)
    return ChainMap.from_rows(tensor, bc.complex, rows)


def _check_split(arity, a, a_side, b_side):
    a_rest = frozenset(a_side) - {a}
    b_set = frozenset(b_side)
    if a not in set(a_side):
        raise ValidationError("the slot label must belong to the A side")
    if not b_set or (a_rest & b_set) or \
            (a_rest | b_set) != frozenset(range(1, arity + 1)):
        raise ValidationError("A u_a B must equal {1..arity}")


def module_structure_maps(bc, blocks, cache=None):
    """Ungrafting structure map of a one-sided bar or cobar complex.

    For a bar complex of a left module L this is the comodule map
    B(L)(A) -> B(P)(J) (x) B(L)(A_1) (x) ... (x) B(L)(A_r); for a cobar
    complex of a left comodule it is the module action running the other
    way.  The right coefficient must be the unit.
    """
    blocks = [tuple(b) for b in blocks]
    covered = [x for b in blocks for x in b]
    if not all(blocks) or len(covered) != len(set(covered)) or \
            set(covered) != set(range(1, bc.arity + 1)):
        raise ValidationError(
            "blocks must partition {1..arity} into disjoint nonempty sets")
    blocks = canonical_partition(blocks)
    if bc.r_coeff.rank(1) != 1 or any(
            bc.r_coeff.rank(n) for n in range(2, bc.arity + 1)):
        raise ValidationError("structure maps need a one-sided complex")
    build = reduced_bar if bc.kind == BAR else reduced_cobar
    skel = build(bc.op, len(blocks), cache)
    parts = [_one_sided(bc, len(b), cache) for b in blocks]
    tensor = tensor_list([skel.complex] + [pt.complex for pt in parts])
    return _ungrafting_map(
        bc, tensor, _split_terms(bc, skel, parts, blocks))


def _one_sided(bc, arity, cache=None):
    """The same one-sided construction at another arity."""
    return _cached_complex(bc.kind, bc.r_coeff, bc.op, bc.l_coeff, arity,
                           cache)


# ---------------------------------------------------------------------------
# Koszulness, Koszul duals, derivatives of the identity


class KoszulReport:
    """Concentration flags, homology, and induced structure on homology.

    For operads: per-arity rational homology of the reduced bar complex,
    concentration in top tree degree, homology representatives, induced
    cocomposition matrices K(N) -> K(m) (x) K(k) for canonical splits,
    and the signed symmetric action on K.  For cooperads: the cobar-side
    analogues, with composition matrices running the other way.
    """

    def __init__(self, kind, name, max_arity):
        self.kind = kind
        self.name = name
        self.max_arity = max_arity
        self.ring = RAT
        self.concentrated = {}
        self.summaries = {}
        self.complexes = {}
        self.reps = {}
        self.modules = {}
        self.structure = {}
        self.actions = {}

    def dimension(self, arity):
        return len(self.reps.get(arity, []))

    def is_koszul(self):
        return all(self.concentrated.values())


def _top_signed_degree(kind, arity):
    top = max(arity - 1, 0)
    return top if kind == BAR else -top


def koszul(structure, max_arity=None, with_structure=True, cache=None):
    """Koszulness report for a reduced operad or cooperad, over Q.

    max_arity is None for the structure's own max_arity, or an int in
    1..structure.max_arity.  The ranks are the complex's rational
    homology().  d keeps the internal degree t (checked), so it is block
    diagonal in t and each kernel vector, hence each representative, lies
    in one t; the representatives of degree t and total degree d number
    dim H_{d,t}, and the arity is concentrated when every one of them has
    the top signed tree degree d - t.  Representatives and homology
    coordinates both extend a copy of the complex's one boundaries
    echelon per degree, which reduces the boundary vectors once.
    """
    if isinstance(structure, Operad):
        kind = BAR
    elif isinstance(structure, Cooperad):
        kind = COBAR
    else:
        raise ValidationError("koszul expects an operad or a cooperad")
    if max_arity is None:
        max_arity = structure.max_arity
    else:
        require_int(max_arity, "koszul: max_arity")
    if not 1 <= max_arity <= structure.max_arity:
        raise BoundsError(
            f"koszul: max_arity {max_arity} outside "
            f"1..{structure.max_arity}")
    if cache is None:
        cache = {}
    report = KoszulReport(kind, getattr(structure, "name", "?"), max_arity)
    build = reduced_bar if kind == BAR else reduced_cobar
    for n in range(1, max_arity + 1):
        bc = build(structure, n, cache)
        report.complexes[n] = bc
        _check_internal_degree(bc.complex)
        report.summaries[n] = bc.homology(ring=RAT)
        report.reps[n], report.modules[n] = _homology_basis(
            bc.complex, f"h{n}", report.summaries[n])
        top = _top_signed_degree(kind, n)
        report.concentrated[n] = all(
            d - bc.complex.labels(d)[min(z)].internal_degree == top
            for d, z in report.reps[n])
    if with_structure and report.is_koszul():
        _koszul_structure(structure, report, cache)
        for n in range(2, max_arity + 1):
            report.actions[n] = _homology_actions(report.complexes[n],
                                                  report.reps[n])
    return report


def _check_internal_degree(cplx):
    """InternalConsistencyError unless every d_k keeps the internal degree
    of the labels, which makes each kernel vector homogeneous in it."""
    for k, mat in cplx.diffs.items():
        rows, cols = cplx.labels(k - 1), cplx.labels(k)
        if any(rows[i].internal_degree != cols[j].internal_degree
               for (i, j), _v in mat.entries()):
            raise InternalConsistencyError(
                f"d_{k} does not preserve internal degree")


def _homology_basis(complex_, prefix, summary):
    """Homology representatives of every degree and their labelled module.

    summary is the homology of complex_; only its degrees of nonzero free
    rank (equal over Z and Q) have representatives.  Returns the (degree,
    cycle) pairs in degree order and the graded module whose basis labels
    are prefix.degree.index.
    """
    reps = []
    spaces = {}
    for d in summary.degrees():
        if not summary.free_rank(d):
            continue
        for z in homology_representatives(complex_, d):
            spaces.setdefault(d, []).append(f"{prefix}.{d}.{len(reps)}")
            reps.append((d, z))
    return reps, GradedFreeModule({d: tuple(v) for d, v in spaces.items()})


def _homology_actions(bc, reps):
    """Matrices of the adjacent transpositions on the homology basis reps;
    the action is built only in the reps' degrees."""
    degrees = {d for d, _z in reps}
    mats = []
    for i in range(1, bc.arity):
        sigma = list(range(1, bc.arity + 1))
        sigma[i - 1], sigma[i] = sigma[i], sigma[i - 1]
        act = _action_matrices(bc, sigma, degrees)
        mats.append(_induced(act.__getitem__, reps, bc.complex, reps))
    return tuple(mats)


def _tensor_reps(product, rep_lists):
    """v_1 (x) ... (x) v_k for every choice of one (degree, cycle) pair
    per list in rep_lists, row-major, as (degree, vector) pairs of the
    tensor_list product."""
    return [tensor_vector(product, combo)
            for combo in itertools.product(*rep_lists)]


def _induced(component, cycles, target, basis):
    """The map on homology of a chain map with these components (degree
    -> matrix): column j holds the coordinates of the image of the
    (degree, cycle) pair cycles[j] in basis, a homology basis of the
    complex target, and row i belongs to basis[i]."""
    return homology_coordinates(
        target, basis, [(d, component(d).apply(z)) for d, z in cycles])


def _koszul_structure(structure, report, cache):
    """Induced (co)composition matrices on homology for canonical splits:
    K(total) -> K(m) (x) K(k), rows row-major over the pairs, on the bar
    side, and the transposed layout, as for an operad composition, on the
    cobar side."""
    split = bar_cocomposition if report.kind == BAR else cobar_composition
    for total in range(1, report.max_arity + 1):
        for k in range(1, total + 1):
            m = total - k + 1
            for a in range(1, m + 1):
                b_side = tuple(range(a, a + k))
                a_side = tuple(x for x in range(1, total + 1)
                               if x < a or x >= a + k) + (a,)
                cm = split(structure, total, a, a_side, b_side, cache)
                tensor = cm.target if report.kind == BAR else cm.source
                pairs = _tensor_reps(tensor, [report.reps[m], report.reps[k]])
                if report.kind == BAR:
                    cycles, target, basis = report.reps[total], tensor, pairs
                else:
                    cycles, target, basis = (
                        pairs, report.complexes[total].complex,
                        report.reps[total])
                report.structure[(m, a, k)] = _induced(
                    cm.component, cycles, target, basis)


def cooperad_from_koszul(report):
    """The Koszul dual cooperad assembled from a bar-side report."""
    if report.kind != BAR or not report.is_koszul():
        raise ValidationError("need a concentrated bar-side report")
    return Cooperad(_koszul_symseq(report), dict(report.structure),
                    name=f"K({report.name})")


def operad_from_koszul(report):
    """The Koszul dual operad assembled from a cobar-side report."""
    if report.kind != COBAR or not report.is_koszul():
        raise ValidationError("need a concentrated cobar-side report")
    return Operad(_koszul_symseq(report), dict(report.structure),
                  name=f"K({report.name})")


def _koszul_symseq(report):
    comps = {n: report.modules[n] for n in range(1, report.max_arity + 1)}
    actions = {n: report.actions[n] for n in report.actions}
    return SymSeq(RAT, comps, actions)


def derivatives_homology(max_arity=5, cache=None):
    """Homology operad of the derivatives of the identity.

    Runs the cobar construction over the dual of the one-dimensional
    operad and asserts concentration in degree 1 - n.
    """
    q = dual(builtin("com", max_arity, ring=INT))
    report = koszul(q, max_arity, with_structure=True, cache=cache)
    for n in range(2, max_arity + 1):
        if not report.concentrated[n]:
            raise InternalConsistencyError(
                f"derivatives homology not concentrated at arity {n}")
        degs = report.modules[n].degrees()
        if degs != [1 - n]:
            raise InternalConsistencyError(
                f"derivatives homology at arity {n} in degrees {degs}")
    return report


def jacobi_relation(report):
    """Null-space relation among the cyclic translates of [[x,y],z].

    Returns (dimension, relation vector) where the relation spans the
    kernel of the 2x3 matrix whose columns are the translates of the
    self-composite of the binary generator under the 3-cycles.
    """
    if (2, 1, 2) not in report.structure or 3 not in report.actions:
        raise ValidationError(
            f"the Jacobi relation needs the structure at arity 3; the report "
            f"has max arity {report.max_arity}")
    comp = report.structure[(2, 1, 2)]
    if comp.ncols != 1 or comp.nrows != 2:
        raise InternalConsistencyError("unexpected K-structure shapes")
    x = {i: v for (i, _j), v in comp.entries()}
    s1, s2 = report.actions[3]
    cyc = s1 * s2   # (1 2)(2 3) = the 3-cycle sending 2->1, 3->2, 1->3
    translates = [x, cyc.apply(x), (cyc * cyc).apply(x)]
    cols = {}
    for j, v in enumerate(translates):
        for i, c in v.items():
            cols[(i, j)] = c
    kernel = kernel_basis(ExactMatrix(2, 3, cols, ring=RAT))
    return len(kernel), kernel[0] if kernel else None


# ---------------------------------------------------------------------------
# the module of a coalgebra over the derivatives


class ModuleMXReport:
    """Per-arity homology of the one-sided cobar over the sphere cooperad,
    plus the induced homology-level module over the derivatives operad."""

    def __init__(self, max_arity):
        self.max_arity = max_arity
        self.summaries = {}
        self.complexes = {}
        self.reps = {}
        self.modules = {}
        self.homology_module = None


def module_MX_homology(x_module, coproduct, max_arity=4, deriv_report=None,
                       with_action=True, cache=None):
    """Integral homology of the cobar construction on a coalgebra comodule.

    The comodule is the constant symmetric sequence of the coalgebra, over
    Z (constant_comodule); coassociativity and graded cocommutativity are
    checked on entry.
    When with_action is set, the induced left action of the derivatives
    homology operad is computed and validated (unit, pentagon,
    equivariance) by constructing the homology-level module.
    """
    comodule = constant_comodule(x_module, coproduct, max_arity, name="mx")
    q = comodule.over
    report = ModuleMXReport(max_arity)
    if cache is None:
        cache = {}
    complexes = report.complexes
    for n in range(1, max_arity + 1):
        complexes[n] = _cached_complex(COBAR, _unit(q, RIGHT_COMODULE), q,
                                       comodule, n, cache)
        report.summaries[n] = complexes[n].homology()
    if not with_action:
        return report
    if deriv_report is None:
        deriv_report = derivatives_homology(max_arity, cache=cache)
    k_op = operad_from_koszul(deriv_report)
    h_actions = {}
    for n in range(1, max_arity + 1):
        report.reps[n], report.modules[n] = _homology_basis(
            complexes[n].complex, f"m{n}", report.summaries[n])
        h_actions[n] = _homology_actions(complexes[n], report.reps[n])
    h_symseq = SymSeq(RAT, report.modules, h_actions)
    # Induced action per partition, expressed in the homology bases.
    maps = {}
    for n in range(1, max_arity + 1):
        for blocks in set_partitions(range(1, n + 1)):
            cm = module_structure_maps(complexes[n], blocks, cache=cache)
            products = _tensor_reps(cm.source, [deriv_report.reps[len(blocks)]]
                                    + [report.reps[len(b)] for b in blocks])
            maps[blocks] = _induced(cm.component, products,
                                    complexes[n].complex, report.reps[n])
    report.homology_module = SidedModule(
        LEFT_MODULE, h_symseq, k_op, maps, name="H(mx)")
    return report
