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
sends through a structure matrix ((positions, matrix)).  One evaluator,
_plan_terms, expands a plan over every decoration.  A slot's module is
fixed by its arity, so the trees with equal slot arities share one
_Slots, built once per complex (_slot_table): the ranks, their
row-major strides, the _decorations list and whether some slot has odd
degree.  _decorations lists the decorations in row-major order, so a
decoration's flat index is its position in the list, and the evaluator
yields (source flat index, t, target flat index, coefficient): copies of
slots of rank > 1 fill the target index through its strides, and only
the apply items are expanded.  A term's coefficient is the tree map's
orientation sign, times the Koszul sign of reordering the graded
decorations into the target's slot order (once per degree tuple, and
only when some slot has odd degree), times the matrix entries.

Every map works on integer tree keys.  A canonical tree is determined by
the label sets of its nodes below the root, a laminar family; with bit x
for label x, its key is the sorted tuple of these masks (_tree_key), and
its masks in slot order are the vertices depth-first, then the leaves by
least label.

Assembly walks each basis tree once (_mask_walk) for its masks and slot
arities, and keeps per tree, by key, only the masks in slot order, the
vertex count, the position of the tree with each decoration in its
degree and its _Slots.  The differential sums the collapse moves whose
merged slot stays in its support, each made on keys (_key_collapse): an
edge collapse deletes the vertex's mask, a bud collapse the masks of the
vertex's leaves, and the target is the tree with the remaining key.
Each target slot copies the source slot with its mask, and the merged
slot applies the structure matrix.  The sign is that of the surviving
vertices' order in the target, times (-1)^(i-1) for the i-th vertex,
negated for an edge; tau, the reordering of the merged node's children,
is the rank order of their least labels.  The children and parents the
moves need are read off the masks (_shape) while that tree's moves are
made, so no Tree is walked again and no per-tree table outlives its
moves; the entries are dropped before the matrices are built.  The
merged slot's matrix of an edge, the structure's partial in operad form
(opalg.operad_form) times the child-reorder action, is built once per
(outer slot, m_out, insert_pos, k_inner, tau) in a dict local to one
complex.  Bar and cobar complexes share one plan: cobar complexes run the
covers backwards, with tree degrees recorded negatively.  The complex
keeps its basis trees and its _slot_table.

Each complex builds one key -> tree index on first use, and one record
per basis tree (_TreeRecord) the first time a map asks for it; assembly
and reduction build neither.  A record holds the node masks in slot
order, the masks of every slot's children, mask -> slot, the _Slots of
its slot arities (the object assembly used), and the (degree, position)
of the tree with each decoration by flat decoration index, looked up in
the complex's module once, when the record is built.  The records belong
to the complex, so no cache can hand one structure's records to another.

A permutation acts on masks through a bit table (_mask_image); the
target's record is the one keyed by the sorted images, the orientation
sign is that of the vertices' target slots, and each slot's child
reordering is the rank order of its children's least labels after the
action (_relabel_slots).  One ungrafting engine builds the cooperad
structure of B(P), the operad structure of the cobar construction and
the module structure maps of a one-sided complex: it cuts each tree into
factors F_0 (x) F_1 (x) ... on masks (_cutter), and finds the factors'
records by their keys, so neither map builds a Tree.  Each term is the
source's (degree, position), the tuple of the factors' global basis
indices, which the tensor product's tensor_index turns into a position
(each factor's flat index comes from the target flat index by divmod),
and the coefficient.  A basis element is its vertex orientation tensored
with its slot decorations, so each term carries the sign splitting the
orientation, the Koszul sign of reordering the decorations, and
(-1)^(s_j t_i) for every i < j, as factor j's orientation (degree s_j,
its vertex count) moves past factor i's decorations (internal degree
t_i).

The normalized simplicial construction over strict partition chains has
its own chains and face plans, sharing only the plan evaluator, and
serves as a sign-free homology oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import trees as tr
from .combinat import set_partitions
from .errors import BoundsError, InternalConsistencyError, ValidationError
from .exactla import (
    INT,
    RAT,
    ChainComplex,
    ChainMap,
    ExactMatrix,
    GradedFreeModule,
    HomologySummary,
    homology,
    homology_coordinates,
    homology_representatives,
    kernel_basis,
    perm_sign,
    solve_in_span,  # noqa: F401  (perfbench's tracer test reads this name)
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
    block_sort_perm,
    canonical_partition,
    constant_comodule,
    dual,
    builtin,
    fingerprint,
    operad_form,
    unit_module,
)

BAR = "bar"
COBAR = "cobar"


@dataclass(frozen=True)
class BarBasisLabel:
    """Decorated tree: one basis index per slot, with its bigrading."""

    tree: tr.Tree
    decoration: tuple
    tree_degree: int
    internal_degree: int

    def __repr__(self):
        dec = ",".join(str(i) for i in self.decoration)
        return f"<{self.tree.serialize()}|{dec}|s={self.tree_degree},t={self.internal_degree}>"


def _compress(mask, labels):
    """mask renumbered onto 1..len(labels) by the increasing bijection
    from the sorted labels, which must contain its bits."""
    out = 0
    for new, x in enumerate(labels, start=1):
        if mask >> x & 1:
            out |= 1 << new
    return out


def _mask_walk(tree):
    """(masks, vertex count, kids) of a tree.  masks are the label masks of
    the slots after the root's, the vertices in depth-first order, then the
    leaves by least label; kids[q] are the masks of slot q's children in
    canonical order (slot 0 is the root, and a leaf's children are its
    labels' bits)."""
    vertices, kids, leaves = [], [], []

    def walk(children):
        out = []
        for child in children:
            if child[0] == "L":
                bits = tuple(1 << x for x in child[1])
                mask = sum(bits)
                leaves.append((mask & -mask, mask, bits))
            else:
                at = len(vertices)
                vertices.append(None)
                kids.append(None)
                kids[at] = walk(child[1])
                mask = vertices[at] = sum(kids[at])
            out.append(mask)
        return tuple(out)

    root = walk(tree.root_children)
    leaves.sort()
    return (tuple(vertices) + tuple(m for _low, m, _bits in leaves),
            len(vertices), (root, *kids, *(bits for *_m, bits in leaves)))


def _tree_key(tree):
    """The key of a canonical tree: the sorted masks of its nodes below the
    root.  They form a laminar family whose Hasse diagram is the tree, so
    the key determines it."""
    return tuple(sorted(_mask_walk(tree)[0]))


class _TreeShape:
    """A tree's nodes as label masks: masks, nv and kids as _mask_walk
    gives them, and slot[mask] the slot of the node with that mask (the
    vertices are slots 1..nv, then the leaves)."""

    __slots__ = ("masks", "nv", "kids", "slot")

    def __init__(self, tree):
        self.masks, self.nv, self.kids = _mask_walk(tree)
        self.slot = {m: q for q, m in enumerate(self.masks, start=1)}


class _TreeRecord(_TreeShape):
    """One basis tree of a complex as its structure maps read it: its
    shape, slots the _Slots of its signature, shared with assembly and
    every other tree of the complex with the same slot arities, and at[k]
    the (total degree, position in that degree) of the tree with its k-th
    decoration, k the flat (row-major) index."""

    __slots__ = ("slots", "at")

    def __init__(self, bc, tree):
        super().__init__(tree)
        # A slot's arity is its number of children.
        self.slots = bc.slots_of(self.nv, tuple(map(len, self.kids)))
        s_deg, module = self.nv, bc.complex.module
        self.at = []
        for decor, _degs, t in self.slots.decorations:
            d = _total_degree(bc.kind, s_deg, t)
            self.at.append((d, module.position(
                d, BarBasisLabel(tree, decor, s_deg, t))))


class BarComplex:
    """A bar or cobar chain complex with bigrading metadata.

    trees are the basis trees in serialization order, and slots_of is
    the _slot_table assembly read them through.  The index from tree keys
    (_tree_key) to trees is built on first use, and a tree's _TreeRecord
    on first use of the tree; both are kept.
    """

    def __init__(self, kind, arity, complex_, trees, slots_of,
                 r_coeff=None, op=None, l_coeff=None):
        self.kind = kind
        self.arity = arity
        self.complex = complex_
        self._trees = tuple(trees)
        self.slots_of = slots_of
        self._index = None
        self._records = {}
        self.r_coeff = r_coeff
        self.op = op
        self.l_coeff = l_coeff

    @property
    def ring(self):
        return self.complex.ring

    def homology(self, ring=None):
        return self.complex.homology(ring=ring)

    def trees(self):
        """The basis trees in serialization order."""
        return self._trees

    def record(self, tree):
        """The _TreeRecord of a basis tree, or None for any other tree."""
        if tree.labels != frozenset(range(1, self.arity + 1)):
            return None
        return self.keyed(_tree_key(tree))

    def keyed(self, key):
        """The _TreeRecord of the basis tree with this key, or None."""
        rec = self._records.get(key)
        if rec is None:
            tree = self._keys().get(key)
            if tree is not None:
                rec = self._records[key] = _TreeRecord(self, tree)
        return rec

    def records(self):
        """The records of every basis tree, in serialization order."""
        return [self.keyed(key) for key in self._keys()]

    def _keys(self):
        if self._index is None:
            self._index = {_tree_key(t): t for t in self._trees}
        return self._index

    def split_by_internal_degree(self):
        """Sub-complexes per internal degree, graded by signed tree degree."""
        spaces = {}
        pos = {}
        for d in self.complex.degrees():
            for i, lab in enumerate(self.complex.labels(d)):
                t = lab.internal_degree
                bucket = spaces.setdefault(t, {}).setdefault(d - t, [])
                pos[(d, i)] = (t, len(bucket))
                bucket.append(lab)
        entries = {t: {} for t in spaces}
        for d in sorted(self.complex.diffs):
            for (i, j), val in self.complex.diffs[d].entries():
                t, jj = pos[(d, j)]
                t_tgt, ii = pos[(d - 1, i)]
                if t_tgt != t:
                    raise InternalConsistencyError(
                        "differential does not preserve internal degree")
                entries[t].setdefault(d - t, {})[(ii, jj)] = val
        return {t: ChainComplex.from_entries(GradedFreeModule(by_s),
                                             entries[t], self.ring)
                for t, by_s in spaces.items()}

    def export_text(self):
        lines = [f"barcomplex kind {self.kind} arity {self.arity} "
                 f"ring {self.ring}"]
        for d in self.complex.degrees():
            for lab in self.complex.labels(d):
                dec = ",".join(str(i) for i in lab.decoration)
                lines.append(
                    f"basis {d} {lab.tree.serialize()} [{dec}] "
                    f"s={lab.tree_degree} t={lab.internal_degree}")
        for k in sorted(self.complex.diffs):
            lines.append(f"differential {k}")
            for (i, j), v in sorted(self.complex.diffs[k].entries()):
                lines.append(f"{i} {j} {v}")
        return "\n".join(lines)


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


def _plan_terms(src, plan, sign, strides):
    """Carry every decoration of a source along a plan; the one expansion loop.

    src is the source's _Slots.  plan has one item per target slot, whose
    row-major strides are strides: an int q takes source slot q's basis
    index, None the index 0 of a unit slot, and (positions, matrix) the
    column of matrix at the source slots' indices flattened row-major over
    their ranks.  Read in target order, the plan must list every source
    slot once.  Its Koszul sign on a decoration is (-1) to the number of
    pairs of odd-degree decorations that trade places, computed once per
    degree tuple, and only when some source slot has odd degree.  Yields
    (k, internal degree, target flat index, coefficient) for the k-th
    decoration of src (k is its flat index), the coefficient being sign
    times the Koszul sign times the matrix entries.  The copies fill a
    template through the target strides, and only the apply items are
    expanded; slots of rank one add nothing to an index.
    """
    decorations = src.decorations
    if not decorations:
        return
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
    koszul = sign
    if src.odd:
        perm = [0] * len(order)
        for target, q in enumerate(order):
            perm[q] = target
        signs = {}
    for k, (decor, degs, t) in enumerate(decorations):
        if src.odd:
            koszul = signs.get(degs)
            if koszul is None:
                # The odd slots' target positions, in source order.
                koszul = signs[degs] = sign * perm_sign(
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
            yield k, t, flat, coeff


def bar_complex(r_mod, p, l_mod, arity, ring=None):
    """Two-sided algebraic bar construction at one arity."""
    return _tree_complex(BAR, r_mod, p, l_mod, arity, ring=ring)


def cobar_complex(r_comod, q, l_comod, arity, ring=None):
    """Two-sided algebraic cobar construction at one arity."""
    return _tree_complex(COBAR, r_comod, q, l_comod, arity, ring=ring)


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


def _tree_complex(kind, r_mod, p, l_mod, arity, ring=None):
    """The bar or cobar complex: signed collapse moves on decorated trees.

    The trees and the moves are those within the supports of r_mod, p and
    l_mod.  For cobar complexes the differential runs from the collapsed
    tree to the uncollapsed one, so the roles of the labels swap while
    the coefficient (orientation sign, Koszul reorder, matrix entry) is
    the bar direction's.
    """
    _check_inputs(kind, r_mod, p, l_mod)
    ring = ring or p.ring
    if arity > p.max_arity:
        raise ValidationError(f"arity {arity} exceeds max_arity {p.max_arity}")
    supports = {slot: {n for n in range(1, arity + 1) if seq.rank(n)}
                for slot, seq in (("root", r_mod), ("v", p), ("leaf", l_mod))}
    slots_of = _slot_table(r_mod, p, l_mod, arity)
    trees = tr.supported_trees(arity, supports["root"], supports["v"],
                               supports["leaf"])
    # Per tree, by its key: (masks in slot order, vertex count, each
    # decoration's position within its degree, the signature's _Slots).
    index = {}
    spaces = {}
    for tree in trees:
        masks, nv, kids = _mask_walk(tree)
        slots = slots_of(nv, tuple(map(len, kids)))
        positions = []
        for decor, _degs, t_deg in slots.decorations:
            labels = spaces.setdefault(_total_degree(kind, nv, t_deg), [])
            positions.append(len(labels))
            labels.append(BarBasisLabel(tree, decor, nv, t_deg))
        index[tuple(sorted(masks))] = (masks, nv, positions, slots)
    module = GradedFreeModule(spaces)

    # Merged-slot matrices of edge collapses, by (outer slot kind, m_out,
    # insert_pos, k_inner, tau); local to this complex.
    merged = {}
    entries = {}
    for key, (masks, nv, pos_big, src) in index.items():
        shape = _shape(key, masks, nv)
        kids, parent = shape[2], shape[3]
        # Total degree, less t, of a differential's source: the tree for a
        # bar complex, the collapsed tree for a cobar complex.
        d_src = _total_degree(kind, nv if kind == BAR else nv - 1, 0)
        for q in range(1, nv + 1):
            up = parent[q]
            outer = "v" if up else "root"
            m_out, k_inner = len(kids[up]), len(kids[q])
            moves = []
            if m_out + k_inner - 1 in supports[outer]:
                moves.append(False)
            if min(kids[q]) > nv and masks[q - 1].bit_count() in \
                    supports["leaf"]:
                # The leaves are the slots after the vertices.
                moves.append(True)
            for bud in moves:
                tkey, plan, sign, ins, tau = _key_collapse(shape, q, bud,
                                                           index)
                _m, _nv, pos_small, tgt = index[tkey]
                # The merged slot applies its matrix; the others copy.
                if bud:
                    plan[plan.index(q)] = ((q, *kids[q]), operad_form(
                        l_mod).left_action(_bud_blocks(masks, kids[q], q)))
                else:
                    merge = (outer, m_out, ins, k_inner, tau)
                    apply = merged.get(merge)
                    if apply is None:
                        apply = merged[merge] = _merged_matrix(
                            r_mod if up == 0 else p, m_out, ins, k_inner,
                            tau)
                    plan[plan.index(up)] = ((up, q), apply)
                for k, t, flat, coeff in _plan_terms(src, plan, sign,
                                                     tgt.strides):
                    key_ij = ((pos_small[flat], pos_big[k]) if kind == BAR
                              else (pos_big[k], pos_small[flat]))
                    row = entries.setdefault(d_src + t, {})
                    row[key_ij] = row.get(key_ij, 0) + coeff
    del index  # The matrices below are built without it.
    return BarComplex(kind, arity, ChainComplex.from_entries(
        module, entries, ring), trees, slots_of, r_coeff=r_mod, op=p,
        l_coeff=l_mod)


def _shape(key, masks, nv):
    """(key, masks, kids, parent, lows, slot) of the tree with this key
    and these masks in slot order, read off the masks alone: kids[s] are
    the slots of slot s's children in canonical order, s the root (0) or
    a vertex (1..nv), parent[q] the slot of q's parent, lows[q] the least
    label's bit of slot q, and slot[mask] the slot with that mask.

    A vertex's parent is the last vertex on the depth-first path above it
    that contains its mask, and a leaf's the deepest vertex containing it,
    the last in depth-first order."""
    lows = [0] + [m & -m for m in masks]
    kids = [[] for _v in range(nv + 1)]
    parent = [0] * len(lows)
    above = []
    for q, mask in enumerate(masks, start=1):
        if q <= nv:
            while above and masks[above[-1] - 1] & mask != mask:
                above.pop()
            up = above[-1] if above else 0
            above.append(q)
        else:
            up = 0
            for v in range(nv, 0, -1):
                if masks[v - 1] & mask == mask:
                    up = v
                    break
        parent[q] = up
        kids[up].append(q)
    for children in kids:
        children.sort(key=lows.__getitem__)
    return key, masks, kids, parent, lows, {
        m: q for q, m in enumerate(masks, start=1)}


def _key_collapse(shape, q, bud, index):
    """The collapse of vertex slot q of a tree on its key: its bud when
    bud is true, else the edge above it.  shape is _shape's, and
    index[target key][0] the target's masks in slot order.

    An edge collapse deletes q's mask (q's children join its parent's); a
    bud collapse deletes the masks of q's leaves, and q becomes a leaf.
    Returns (target key, sources, sign, insert_pos, tau).  sources[t] is
    the source slot of target slot t: the slot with t's mask, so the
    merged slot's source is q's parent for an edge and q for a bud.  sign
    is (-1)^(q-1), negated for an edge, times the sign of the surviving
    vertices' order in the target, as in trees.collapse.  For an edge,
    insert_pos is q's 1-based position among its parent's children and
    tau[i] the new position of the i-th spliced child (the parent's
    children with q's in q's place): the rank order of their least
    labels.  Both are None for a bud.
    """
    key, masks, kids, parent, lows, slot = shape
    if bud:
        gone = {masks[r - 1] for r in kids[q]}
        tkey = tuple([m for m in key if m not in gone])
    else:
        at = key.index(masks[q - 1])
        tkey = key[:at] + key[at + 1:]
    sources = [0, *map(slot.__getitem__, index[tkey][0])]
    # The target's vertices, as source slots, are sources[1:nv].
    sign = perm_sign(sources[1:len(kids) - 1])
    if q % 2 == 0:
        sign = -sign
    if bud:
        return tkey, sources, sign, None, None
    siblings = kids[parent[q]]
    i = siblings.index(q)
    spliced = siblings[:i] + kids[q] + siblings[i + 1:]
    return tkey, sources, -sign, i + 1, block_sort_perm(
        [lows[r] for r in spliced])


def _bud_blocks(masks, leaves, q):
    """The blocks of a bud collapse's left action: the labels of the
    leaves (slots) of vertex q, renumbered onto 1..|q's labels| in
    order."""
    mask = masks[q - 1]
    labels = [x for x in range(mask.bit_length()) if mask >> x & 1]
    return [tuple(i for i, x in enumerate(labels, start=1)
                  if masks[r - 1] >> x & 1) for r in leaves]


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


@dataclass(frozen=True)
class SimplicialBarLabel:
    """Strict partition chain (finest first) with block-wise decorations."""

    chain: tuple
    decoration: tuple

    def __repr__(self):
        chain = " < ".join("|".join("".join(str(x) for x in b) for b in mu)
                           for mu in self.chain)
        return f"<{chain}|{','.join(str(i) for i in self.decoration)}>"


def _refines(lam, mu):
    for block in lam:
        bset = set(block)
        if not any(bset <= set(c) for c in mu):
            return False
    return True


def _strict_chains(n):
    partitions = list(set_partitions(range(1, n + 1)))
    coarser = {lam: [mu for mu in partitions
                     if mu != lam and _refines(lam, mu)]
               for lam in partitions}
    chains = []

    def extend(chain):
        chains.append(tuple(chain))
        for mu in coarser[chain[-1]]:
            chain.append(mu)
            extend(chain)
            chain.pop()

    for lam in partitions:
        extend([lam])
    return chains


def _chain_slots(chain, r_mod, p, l_mod):
    """Slots: right factor, P layers coarse to fine, left factors."""
    k = len(chain) - 1
    slots = [("R", None, r_mod.component(len(chain[k])))]
    for j in range(k, 0, -1):
        fine = chain[j - 1]
        for block in chain[j]:
            inner = sum(1 for c in fine if set(c) <= set(block))
            slots.append(("P", (j, block), p.component(inner)))
    for block in chain[0]:
        slots.append(("L", block, l_mod.component(len(block))))
    return slots


def _sub_blocks(fine, block):
    bset = set(block)
    return [c for c in fine if set(c) <= bset]


def simplicial_bar_complex(r_mod, p, l_mod, arity, ring=None):
    """Normalized chains of the simplicial two-sided bar construction.

    Degree-k basis: strict chains of k+1 partitions with decorations; the
    differential is the alternating sum of the partition deletions, via
    the augmentation (endpoint) and structure-map (inner) faces.
    """
    _check_inputs(BAR, r_mod, p, l_mod)
    ring = ring or p.ring
    # Per chain: (slots, their _Slots, each decoration's position within
    # its degree).
    table = {}
    spaces = {}
    for chain in _strict_chains(arity):
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

    entries = {}
    for chain, (slots, shared, pos_src) in table.items():
        k = len(chain) - 1
        for i_face in range(k + 1):
            j_del = k - i_face
            tgt_chain = chain[:j_del] + chain[j_del + 1:]
            if tgt_chain not in table:
                continue
            slots_tgt, shared_tgt, pos_tgt = table[tgt_chain]
            plan = _face_plan(chain, j_del, slots, slots_tgt, r_mod, p, l_mod)
            for k_src, t, flat, coeff in _plan_terms(
                    shared, plan, -1 if i_face % 2 else 1,
                    shared_tgt.strides):
                key = (pos_tgt[flat], pos_src[k_src])
                row = entries.setdefault(k + t, {})
                row[key] = row.get(key, 0) + coeff
    return ChainComplex.from_entries(module, entries, ring)


def _face_plan(chain, j_del, slots_src, slots_tgt, r_mod, p, l_mod):
    """Merge plan for deleting one partition from a strict chain."""
    k = len(chain) - 1
    src_pos = {(kind, key): i for i, (kind, key, _m) in enumerate(slots_src)}

    def p_slot(j, block):
        return src_pos[("P", (j, block))]

    plan = []
    for tkind, tkey, _m in slots_tgt:
        if tkind == "R":
            if j_del == k:
                # Right action absorbs the coarsest layer.
                fine = chain[k - 1]
                inner = tuple(len(_sub_blocks(fine, b)) for b in chain[k])
                grouped = [c for b in chain[k] for c in _sub_blocks(fine, b)]
                rho = block_sort_perm([c[0] for c in grouped])
                matrix = operad_form(r_mod).full(inner)
                if any(rho[x] != x for x in range(len(rho))):
                    matrix = r_mod.action(
                        len(fine), tuple(t + 1 for t in rho)) * matrix
                consumed = [src_pos[("R", None)]] + [
                    p_slot(k, b) for b in chain[k]]
                plan.append((tuple(consumed), matrix))
            else:
                plan.append(src_pos[("R", None)])
        elif tkind == "L":
            if j_del == 0:
                block = tkey
                fine = chain[0]
                subs = _sub_blocks(fine, block)
                ordered = tuple(sorted(block))
                rel = canonical_partition(
                    [tuple(sorted(ordered.index(x) + 1 for x in c))
                     for c in subs])
                matrix = operad_form(l_mod).left_action(rel)
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
                mid = chain[j_del]
                fine = chain[j_del - 1]
                subs = _sub_blocks(mid, block)
                inner = tuple(len(_sub_blocks(fine, c)) for c in subs)
                grouped = [cc for c in subs for cc in _sub_blocks(fine, c)]
                rho = block_sort_perm([cc[0] for cc in grouped])
                matrix = p.full_composition(inner)
                if any(rho[x] != x for x in range(len(rho))):
                    matrix = p.action(
                        sum(inner), tuple(t + 1 for t in rho)) * matrix
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
    n = bc.arity
    try:
        sigma = tuple(sigma)
        valid = sorted(sigma) == list(range(1, n + 1))
    except TypeError:
        valid = False
    if not valid:
        raise ValidationError(
            f"symmetric_action: {sigma!r} is not a permutation of 1..{n} "
            f"(the complex has arity {n})")
    return _action_matrices(bc, sigma, bc.complex.degrees())


def _mask_image(sigma):
    """The image of a label mask under sigma (1-based images), through a
    bit table; memoized for the life of the returned function."""
    bits = [(x, 1 << s) for x, s in enumerate(sigma, start=1)]
    images = {}

    def image(mask):
        out = images.get(mask)
        if out is None:
            out = 0
            for x, bit in bits:
                if mask >> x & 1:
                    out |= bit
            images[mask] = out
        return out
    return image


def _relabel_slots(src, tgt, images, image):
    """The relabelling of shape src onto shape tgt, where images are the
    images of src's masks under image.  Returns (orientation sign, moves):
    the sign is that of the permutation sending src's i-th vertex to the
    slot of its image in tgt, and moves[q'] = (q, tau) for the target
    slot q' of each source slot q, tau[i] the new position of q's i-th
    child (the rank of the least label of its image)."""
    slot = tgt.slot
    sign = perm_sign(tuple(slot[m] - 1 for m in images[:src.nv]))
    moves = [None] * len(src.kids)
    for q, kids in enumerate(src.kids):
        lows = [m & -m for m in map(image, kids)]
        moves[slot[images[q - 1]] if q else 0] = (q, block_sort_perm(lows))
    return sign, moves


def _action_matrices(bc, sigma, degrees):
    """The matrices of a valid sigma in the total degrees degrees: the one
    path behind symmetric_action (every degree) and _homology_actions
    (the degrees of the homology representatives).  A tree with no
    decoration in those degrees is not relabelled."""
    wanted = set(degrees)
    degrees = [d for d in bc.complex.degrees() if d in wanted]
    image = _mask_image(sigma)
    seqs = (bc.r_coeff, bc.op, bc.l_coeff)
    matrices = {}
    entries = {}
    for src in bc.records():
        if wanted.isdisjoint(d for d, _j in src.at):
            continue
        images = [image(m) for m in src.masks]
        tgt = bc.keyed(tuple(sorted(images)))
        sign, moves = _relabel_slots(src, tgt, images, image)
        plan = []
        for q, tau in moves:
            # The root, a vertex or a leaf: sigma's action on its module.
            seq = 0 if q == 0 else 1 if q <= src.nv else 2
            matrix = matrices.get((seq, tau))
            if matrix is None:
                matrix = matrices[seq, tau] = seqs[seq].action(
                    len(tau), tuple(t + 1 for t in tau))
            plan.append(((q,), matrix))
        for k, _t, flat, coeff in _plan_terms(src.slots, plan, sign,
                                              tgt.slots.strides):
            d, j = src.at[k]
            if d in wanted:
                _d, i = tgt.at[flat]
                row = entries.setdefault(d, {})
                row[(i, j)] = row.get((i, j), 0) + coeff
    return {d: ExactMatrix(bc.complex.rank(d), bc.complex.rank(d),
                           entries.get(d), ring=bc.ring)
            for d in degrees}


# ---------------------------------------------------------------------------
# cooperad / operad / module structure maps via (un)grafting


def one_sided_key(kind, r_mod, p, l_mod, arity):
    """Cache key of a complex: its kind, its arity and its inputs' content.

    Structures with equal data share the key whatever their names, and
    structures that differ in ring or data never do.
    """
    return (kind, fingerprint(r_mod), fingerprint(p), fingerprint(l_mod),
            arity)


def _cached_complex(kind, r_mod, p, l_mod, arity, cache):
    """The bar or cobar complex at one arity, through an optional cache."""
    build = bar_complex if kind == BAR else cobar_complex
    if cache is None:
        return build(r_mod, p, l_mod, arity)
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


def _cutter(arity, blocks):
    """The ungrafting of trees on {1..arity} along disjoint sorted label
    blocks, on masks.  Returns cut(shape): None when some block is not
    the label set of a node of the shape, else (factor keys, placed), the
    keys of the skeleton and of each block's part, and placed[q - 1] =
    (factor, mask in that factor) for each slot q > 0 of the shape.

    A mask inside a block B goes to B's part, compressed onto 1..|B|
    (_compress); B itself becomes the part's root child, and the skeleton
    leaf lowbit(B).  Every other mask goes to the skeleton, with each
    block it contains replaced by that block's least bit, compressed onto
    the kept labels: those no block covers and the blocks' least labels.
    Compression keeps the order of least labels, hence canonical form,
    every child order and the depth-first order of the vertices.
    """
    block_masks = [sum(1 << x for x in b) for b in blocks]
    kept = sorted(set(range(1, arity + 1)).difference(*blocks)
                  | {b[0] for b in blocks})
    heads = [_compress(b & -b, kept) for b in block_masks]
    placed = {}

    def place(mask):
        for j, (block, labels) in enumerate(zip(block_masks, blocks), 1):
            if mask & block == mask:
                return j, _compress(mask, labels)
        for block in block_masks:
            if mask & block == block:
                mask = mask & ~block | block & -block
        return 0, _compress(mask, kept)

    def cut(shape):
        if not all(b in shape.slot for b in block_masks):
            return None
        out = []
        for mask in shape.masks:
            at = placed.get(mask)
            if at is None:
                at = placed[mask] = place(mask)
            out.append(at)
        keys = [list(heads)] + [[] for _b in blocks]
        for j, mask in out:
            keys[j].append(mask)
        return [tuple(sorted(k)) for k in keys], out
    return cut


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
    cut = _cutter(bc.arity, blocks)
    out = []
    for rec in bc.records():
        split = cut(rec)
        if split is None:
            continue
        keys, placed = split
        f_recs = [f.keyed(key) for f, key in zip(factors, keys)]
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
        plan = [item for items in plans for item in items]
        totals = [len(f_rec.slots.decorations) for f_rec in f_recs]
        strides = _strides([size for f_rec in f_recs
                            for size in f_rec.slots.sizes])
        index = [0] * len(f_recs)
        for k, _t, flat, coeff in _plan_terms(rec.slots, plan, base_sign,
                                              strides):
            for j in range(len(f_recs) - 1, -1, -1):
                flat, index[j] = divmod(flat, totals[j])
            combo = []
            t_before = 0
            for f_rec, off, f_k in zip(f_recs, offsets, index):
                d_f, p_f = f_rec.at[f_k]
                combo.append(off(d_f) + p_f)
                if f_rec.nv * t_before % 2:
                    coeff = -coeff
                t_before += f_rec.slots.decorations[f_k][2]
            out.append((rec.at[k], tuple(combo), coeff))
    return out


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
    entries = {}
    for (dv, iv), combo, coeff in terms:
        dt, it = tensor.tensor_index[combo]
        if dt != dv:
            raise InternalConsistencyError("structure map changes degree")
        entries.setdefault(dv, {})[(it, iv) if bc.kind == BAR else (iv, it)] \
            = coeff
    if bc.kind == BAR:
        return ChainMap.from_entries(bc.complex, tensor, entries)
    return ChainMap.from_entries(tensor, bc.complex, entries)


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

    def export_text(self):
        lines = [f"koszul kind {self.kind} name {self.name} "
                 f"max_arity {self.max_arity}"]
        for n in sorted(self.summaries):
            flag = "concentrated" if self.concentrated[n] else "spread"
            dims = {d: self.modules[n].rank(d)
                    for d in self.modules[n].degrees()}
            lines.append(f"arity {n}: {flag} dims {dims}")
        return "\n".join(lines)


def _top_signed_degree(kind, arity):
    top = max(arity - 1, 0)
    return top if kind == BAR else -top


def koszul(structure, max_arity=None, with_structure=True, cache=None):
    """Koszulness report for a reduced operad or cooperad, over Q.

    max_arity is None for the structure's own max_arity, or an int in
    1..structure.max_arity.
    """
    if isinstance(structure, Operad):
        kind = BAR
    elif isinstance(structure, Cooperad):
        kind = COBAR
    else:
        raise ValidationError("koszul expects an operad or a cooperad")
    if max_arity is None:
        max_arity = structure.max_arity
    elif not isinstance(max_arity, int) or isinstance(max_arity, bool):
        raise ValidationError(
            f"koszul: max_arity {max_arity!r} is not an int")
    elif not 1 <= max_arity <= structure.max_arity:
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
        # The pieces are a direct sum of bc, so their homology is bc's.
        top = _top_signed_degree(kind, n)
        ranks = {}
        concentrated = True
        for t, sub in bc.split_by_internal_degree().items():
            h = homology(sub, ring=RAT)
            for s in h.degrees():
                ranks[s + t] = ranks.get(s + t, 0) + h.free_rank(s)
                if s != top:
                    concentrated = False
        report.summaries[n] = HomologySummary(
            RAT, {d: (r, ()) for d, r in ranks.items()})
        report.concentrated[n] = concentrated
        report.reps[n], report.modules[n] = _homology_basis(
            bc.complex, f"h{n}", report.summaries[n])
    if with_structure and report.is_koszul():
        _koszul_structure(structure, report, cache)
        for n in range(2, max_arity + 1):
            report.actions[n] = _homology_actions(report.complexes[n],
                                                  report.reps[n])
    return report


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
        mats.append(homology_coordinates(
            bc.complex, reps, [(d, act[d].apply(z)) for d, z in reps]))
    return tuple(mats)


def _koszul_structure(structure, report, cache):
    """Induced (co)composition matrices on homology for canonical splits."""
    kind = report.kind
    for total in range(1, report.max_arity + 1):
        for k in range(1, total + 1):
            m = total - k + 1
            if m < 1:
                continue
            for a in range(1, m + 1):
                b_side = tuple(range(a, a + k))
                a_side = tuple(x for x in range(1, total + 1)
                               if x < a or x >= a + k) + (a,)
                key = (m, a, k)
                if kind == BAR:
                    cm = bar_cocomposition(structure, total, a,
                                           a_side, b_side, cache)
                    report.structure[key] = _induced_on_homology_pairs(
                        report, total, m, k, cm, direction="split")
                else:
                    cm = cobar_composition(structure, total, a,
                                           a_side, b_side, cache)
                    report.structure[key] = _induced_on_homology_pairs(
                        report, total, m, k, cm, direction="merge")


def _induced_on_homology_pairs(report, total, m, k, chain_map, direction):
    """Express a chain map through homology in the Kunneth pair basis.

    direction "split": map from the total complex to the tensor; the
    result has rows indexed by pairs (row-major over K(m), K(k)) and
    columns by K(total).  direction "merge": the transposed layout, as
    for an operad composition.
    """
    tensor_cplx = (chain_map.target if direction == "split"
                   else chain_map.source)
    pairs = [tensor_vector(tensor_cplx, (rep_m, rep_k))
             for rep_m in report.reps[m] for rep_k in report.reps[k]]
    if direction == "split":
        return homology_coordinates(
            tensor_cplx, pairs,
            [(d, chain_map.component(d).apply(z))
             for d, z in report.reps[total]])
    return homology_coordinates(
        report.complexes[total].complex, report.reps[total],
        [(d, chain_map.component(d).apply(v)) for d, v in pairs])


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

    def __init__(self, name, max_arity):
        self.name = name
        self.max_arity = max_arity
        self.summaries = {}
        self.complexes = {}
        self.reps = {}
        self.modules = {}
        self.homology_module = None

    def export_text(self):
        lines = [f"module-mx name {self.name} max_arity {self.max_arity}"]
        for n in sorted(self.summaries):
            lines.append(f"arity {n}:")
            for row in self.summaries[n].export_text().splitlines()[1:]:
                lines.append("  " + row)
        return "\n".join(lines)


def module_MX_homology(x_module, coproduct, max_arity=4, ring=INT,
                       deriv_report=None, with_action=True, cache=None):
    """Homology of the cobar construction on a coalgebra comodule.

    The comodule is the constant symmetric sequence of the coalgebra;
    coassociativity and graded cocommutativity are checked on entry.
    When with_action is set, the induced left action of the derivatives
    homology operad is computed and validated (unit, pentagon,
    equivariance) by constructing the homology-level module.
    """
    comodule = constant_comodule(x_module, coproduct, max_arity, ring=ring,
                                 name="mx")
    q = comodule.over
    report = ModuleMXReport("mx", max_arity)
    if cache is None:
        cache = {}
    complexes = report.complexes
    for n in range(1, max_arity + 1):
        complexes[n] = _cached_complex(COBAR, _unit(q, RIGHT_COMODULE), q,
                                       comodule, n, cache)
        report.summaries[n] = complexes[n].homology(ring=ring)
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
            r = len(blocks)
            cm = module_structure_maps(complexes[n], blocks, cache=cache)
            images = []
            for rep_list in itertools.product(
                    deriv_report.reps[r], *(report.reps[len(b)]
                                            for b in blocks)):
                d, vec = tensor_vector(cm.source, rep_list)
                images.append((d, cm.component(d).apply(vec)))
            maps[blocks] = homology_coordinates(
                complexes[n].complex, report.reps[n], images)
    report.homology_module = SidedModule(
        LEFT_MODULE, h_symseq, k_op, maps, name="H(mx)")
    return report
