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
relabelling or a cut) given as a plan: one item per target slot, naming
the source slots it copies or sends through a structure matrix.  One
evaluator, _plan_terms, expands a plan over every decoration.
_decorations lists a tree's decorations in row-major order, so a
decoration's flat index is its position in the list, and the evaluator
yields (source flat index, t, target flat index, coefficient): copies fill
the target index through its strides, and only the apply items are
expanded.  A term's coefficient is the tree map's orientation sign, times
the Koszul sign of reordering the graded decorations into the target's
slot order (once per degree tuple), times the matrix entries.

Assembly walks each basis tree once (trees.slot_walk) and records its
vertex paths and nodes, its leaves, its slot sizes, its decorations and
the position of the tree with each decoration in its degree.  The
differential sums the collapse moves whose merged slot stays in its
support, and each move is integer work on these records: the engine
trees._collapse gives the target's root children (the key of its record),
the sign and the target's vertices as source vertex indices, from which
the plan's copies are read, with no Tree, label or path lookup.  The
merged slot's matrix, the structure's partial in operad form
(opalg.operad_form) times the child-reorder action, is built once per
(outer slot, m_out, insert_pos, k_inner, tau) in a dict local to one
complex.  Bar and cobar complexes share one plan: cobar complexes run the
covers backwards, with tree degrees recorded negatively.  The complex
keeps only its basis trees; the records live while its differential is
assembled.

The structure maps and the symmetric action work on integer tree keys.
A canonical tree is determined by the label sets of its nodes below the
root, a laminar family; with bit x for label x, its key is the sorted
tuple of these masks (_tree_key).  Each complex builds one key -> tree
index on first use, and one record per basis tree (_TreeRecord) the
first time a map asks for it; assembly and reduction build neither.  A
record holds the node masks in slot order (vertices depth-first, then
leaves by least label), the masks of every slot's children, mask -> slot,
the slot sizes, the _decorations list, and the (degree, position) of the
tree with each decoration by flat decoration index, looked up in the
complex's module once, when the record is built.  The records belong to
the complex, so no cache can hand one structure's records to another.

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


def _components(r_mod, p, l_mod, arity):
    """The components of r_mod, p and l_mod by arity 0..arity, read once."""
    return tuple([seq.component(n) for n in range(arity + 1)]
                 for seq in (r_mod, p, l_mod))


def _slot_modules(tree, nodes, leaves, components):
    """The modules of a tree's slots, root, vertices (depth-first), leaves
    (least label), from trees.slot_walk's nodes and leaves."""
    root, vertex, leaf = components
    return ([root[len(tree.root_children)]]
            + [vertex[len(node[1])] for node in nodes]
            + [leaf[len(labels)] for labels in leaves])


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
    shape, sizes the slots' ranks, decorations the _decorations list, and
    at[k] the (total degree, position in that degree) of the tree with its
    k-th decoration, k the flat (row-major) index."""

    __slots__ = ("sizes", "decorations", "at")

    def __init__(self, bc, tree):
        super().__init__(tree)
        root, vertex, leaf = _components(bc.r_coeff, bc.op, bc.l_coeff,
                                         bc.arity)
        # A slot's arity is its number of children.
        modules = ([root[len(self.kids[0])]]
                   + [vertex[len(k)] for k in self.kids[1:self.nv + 1]]
                   + [leaf[len(k)] for k in self.kids[self.nv + 1:]])
        self.sizes = tuple(m.total_rank() for m in modules)
        self.decorations = _decorations(modules)
        s_deg, module = self.nv, bc.complex.module
        self.at = []
        for decor, _degs, t in self.decorations:
            d = _total_degree(bc.kind, s_deg, t)
            self.at.append((d, module.position(
                d, BarBasisLabel(tree, decor, s_deg, t))))


class BarComplex:
    """A bar or cobar chain complex with bigrading metadata.

    trees are the basis trees in serialization order.  The index from
    tree keys (_tree_key) to trees is built on first use, and a tree's
    _TreeRecord on first use of the tree; both are kept.
    """

    def __init__(self, kind, arity, complex_, trees,
                 r_coeff=None, op=None, l_coeff=None):
        self.kind = kind
        self.arity = arity
        self.complex = complex_
        self._trees = tuple(trees)
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


def _plan_terms(decorations, plan, sign, sizes):
    """Carry every decoration of a tree along a plan; the one expansion loop.

    plan has one item per target slot, whose ranks are sizes: ("copy", p)
    takes source slot p's basis index, ("unit",) the index 0 of a unit
    slot, and ("apply", positions, matrix, in_sizes) the column of matrix
    at the source slots' indices flattened row-major over in_sizes.  Read
    in target order, the plan must list every source slot once.  Its
    Koszul sign on a decoration is (-1) to the number of pairs of
    odd-degree decorations that trade places, computed once per degree
    tuple.  Yields (k, internal degree, target flat index, coefficient)
    for the k-th entry of decorations (_decorations of the source slots,
    so k is its flat index), the target flat index row-major over sizes
    and the coefficient sign times the Koszul sign times the matrix
    entries.  The copies fill a template through the target strides, and
    only the apply items are expanded; slots of rank one add nothing.
    """
    if not decorations:
        return
    order, copies, applies = [], [], []
    for item, size, stride in zip(plan, sizes, _strides(sizes)):
        if item[0] == "copy":
            order.append(item[1])
            if size > 1:
                copies.append((item[1], stride))
        elif item[0] == "apply":
            _tag, positions, matrix, in_sizes = item
            order.extend(positions)
            applies.append((tuple(
                (q, s) for q, s, n in zip(positions, _strides(in_sizes),
                                          in_sizes) if n > 1),
                matrix.column, stride))
    if sorted(order) != list(range(len(decorations[0][0]))):
        raise InternalConsistencyError("plan does not cover all slots")
    perm = [0] * len(order)
    for target, q in enumerate(order):
        perm[q] = target
    signs = {}
    for k, (decor, degs, t) in enumerate(decorations):
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
    components = _components(r_mod, p, l_mod, arity)
    # Per tree, keyed by its root children: (tree, vertex paths, vertex
    # nodes, leaf labels, slot sizes, decorations, each decoration's
    # position within its degree).
    table = {}
    spaces = {}
    for tree in tr.supported_trees(arity, supports["root"], supports["v"],
                                   supports["leaf"]):
        paths, nodes, leaves = tr.slot_walk(tree)
        modules = _slot_modules(tree, nodes, leaves, components)
        decs = _decorations(modules)
        s_deg = len(paths)
        positions = []
        for decor, _degs, t_deg in decs:
            labels = spaces.setdefault(_total_degree(kind, s_deg, t_deg), [])
            positions.append(len(labels))
            labels.append(BarBasisLabel(tree, decor, s_deg, t_deg))
        table[tree.root_children] = (tree, paths, nodes, leaves, tuple(
            m.total_rank() for m in modules), decs, positions)
    module = GradedFreeModule(spaces)

    collapse = tr._collapse
    # Merged-slot matrices of edge collapses, by (outer slot kind, m_out,
    # insert_pos, k_inner, tau); local to this complex.
    merged = {}
    entries = {}
    for tree, paths, nodes, leaves, sizes, decs, pos_big in table.values():
        s_big = len(paths)
        leaf_copies = [("copy", q) for q in range(s_big + 1, len(sizes))]
        # Total degree, less t, of a differential's source: the tree for a
        # bar complex, the collapsed tree for a cobar complex.
        d_src = _total_degree(kind, s_big if kind == BAR else s_big - 1, 0)
        for at, (path, node) in enumerate(zip(paths, nodes)):
            moves = []
            k_inner = len(node[1])
            if len(path) == 1:
                outer, m_out, host = "root", len(tree.root_children), -1
            else:
                outer, host = "v", paths.index(path[:-1])
                m_out = len(nodes[host][1])
            if m_out + k_inner - 1 in supports[outer]:
                moves.append(tr.ROOT_EDGE if outer == "root"
                             else tr.INTERNAL_EDGE)
            if all(c[0] == "L" for c in node[1]) and sum(
                    len(c[1]) for c in node[1]) in supports["leaf"]:
                moves.append(tr.BUD)
            for move_kind in moves:
                children, sign, order, ins, tau = collapse(
                    tree, move_kind, path, paths)
                *_entry, sizes_small, _d, pos_small = table[children]
                if move_kind == tr.BUD:
                    plan = _bud_plan(node, leaves, at, order, l_mod, p)
                else:
                    merge = (outer, m_out, ins, k_inner, tau)
                    apply = merged.get(merge)
                    if apply is None:
                        apply = merged[merge] = _merged_matrix(
                            r_mod if outer == "root" else p, p, m_out, ins,
                            k_inner, tau)
                    item = ("apply", (host + 1, at + 1)) + apply
                    plan = [item if host == -1 else ("copy", 0)]
                    plan.extend(item if j == host else ("copy", j + 1)
                                for j in order)
                    plan.extend(leaf_copies)
                for k, t, flat, coeff in _plan_terms(decs, plan, sign,
                                                     sizes_small):
                    key = ((pos_small[flat], pos_big[k]) if kind == BAR
                           else (pos_big[k], pos_small[flat]))
                    row = entries.setdefault(d_src + t, {})
                    row[key] = row.get(key, 0) + coeff
    trees = [entry[0] for entry in table.values()]
    del table  # The matrices below are built without it.
    return BarComplex(kind, arity, ChainComplex.from_entries(
        module, entries, ring), trees, r_coeff=r_mod, op=p, l_coeff=l_mod)


def _merged_matrix(outer, p, m_out, insert_pos, k_inner, tau):
    """(matrix, input sizes) of an edge collapse's merged slot: the partial
    composition in operad form followed by the child-reorder action tau;
    for cobar complexes the operad form is the transposed cocomposition,
    which supplies the cocomposition coefficients."""
    form = operad_form(outer)
    matrix = form.partial(m_out, insert_pos, k_inner)
    if any(tau[i] != i for i in range(len(tau))):
        matrix = form.action(m_out + k_inner - 1,
                             tuple(t + 1 for t in tau)) * matrix
    return matrix, (outer.rank(m_out), p.rank(k_inner))


def _bud_plan(node, leaves, at, order, l_mod, p):
    """The plan of a bud collapse at the at-th vertex, node: the left
    action merges the vertex and its leaves, in the place of its least
    leaf; every other slot is copied (order is _collapse's vertex order)."""
    blocks = [c[1] for c in node[1]]
    union = tuple(sorted(x for b in blocks for x in b))
    rel = canonical_partition(
        [tuple(sorted(union.index(x) + 1 for x in b)) for b in blocks])
    first = len(order) + 2
    inputs = [at + 1] + [first + leaves.index(b) for b in blocks]
    item = ("apply", tuple(inputs), operad_form(l_mod).left_action(rel),
            (p.rank(len(blocks)),) + tuple(l_mod.rank(len(b)) for b in blocks))
    plan = [("copy", 0)] + [("copy", j + 1) for j in order]
    for q, labels in enumerate(leaves, start=first):
        if labels == blocks[0]:
            plan.append(item)
        elif q not in inputs:
            plan.append(("copy", q))
    return plan


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
    # Per chain: (slots, slot sizes, decorations, each decoration's
    # position within its degree).
    table = {}
    spaces = {}
    for chain in _strict_chains(arity):
        slots = _chain_slots(chain, r_mod, p, l_mod)
        sizes = tuple(s[2].total_rank() for s in slots)
        if 0 in sizes:
            continue
        decs = _decorations([s[2] for s in slots])
        positions = []
        for decor, _degs, t in decs:
            labels = spaces.setdefault(len(chain) - 1 + t, [])
            positions.append(len(labels))
            labels.append(SimplicialBarLabel(chain, decor))
        table[chain] = (slots, sizes, decs, positions)
    module = GradedFreeModule(spaces)

    entries = {}
    for chain, (slots, _sizes, decs, pos_src) in table.items():
        k = len(chain) - 1
        for i_face in range(k + 1):
            j_del = k - i_face
            tgt_chain = chain[:j_del] + chain[j_del + 1:]
            if tgt_chain not in table:
                continue
            slots_tgt, sizes_tgt, _d, pos_tgt = table[tgt_chain]
            plan = _face_plan(chain, j_del, slots, slots_tgt, r_mod, p, l_mod)
            for k_src, t, flat, coeff in _plan_terms(
                    decs, plan, -1 if i_face % 2 else 1, sizes_tgt):
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
                r = len(chain[k])
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
                sizes = [r_mod.component(r).total_rank()] + [
                    slots_src[p_slot(k, b)][2].total_rank() for b in chain[k]]
                plan.append(("apply", tuple(consumed), matrix, tuple(sizes)))
            else:
                plan.append(("copy", src_pos[("R", None)]))
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
                sizes = [slots_src[p_slot(1, block)][2].total_rank()] + [
                    l_mod.component(len(c)).total_rank() for c in subs]
                plan.append(("apply", tuple(consumed), matrix, tuple(sizes)))
            else:
                plan.append(("copy", src_pos[("L", tkey)]))
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
                sizes = [slots_src[p_slot(j_del + 1, block)][2].total_rank()] \
                    + [slots_src[p_slot(j_del, c)][2].total_rank()
                       for c in subs]
                plan.append(("apply", tuple(consumed), matrix, tuple(sizes)))
            else:
                plan.append(("copy", p_slot(j_old, block)))
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
            plan.append(("apply", (q,), matrix, (matrix.ncols,)))
        for k, _t, flat, coeff in _plan_terms(src.decorations, plan, sign,
                                              tgt.sizes):
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
        plans = [[("unit",)] * len(f_rec.sizes) for f_rec in f_recs]
        plans[0][0] = ("copy", 0)
        # V's vertices in the split order: the skeleton's, then each part's.
        v_first = [0]
        for f_rec in f_recs:
            v_first.append(v_first[-1] + f_rec.nv)
        split_order = []
        for q, (j, mask) in enumerate(placed, start=1):
            at = f_recs[j].slot[mask]
            plans[j][at] = ("copy", q)
            if q <= rec.nv:
                split_order.append(v_first[j] + at - 1)
        base_sign = perm_sign(split_order)
        plan = [item for items in plans for item in items]
        totals = [len(f_rec.decorations) for f_rec in f_recs]
        sizes = [size for f_rec in f_recs for size in f_rec.sizes]
        index = [0] * len(f_recs)
        for k, _t, flat, coeff in _plan_terms(rec.decorations, plan,
                                              base_sign, sizes):
            for j in range(len(f_recs) - 1, -1, -1):
                flat, index[j] = divmod(flat, totals[j])
            combo = []
            t_before = 0
            for f_rec, off, f_k in zip(f_recs, offsets, index):
                d_f, p_f = f_rec.at[f_k]
                combo.append(off(d_f) + p_f)
                if f_rec.nv * t_before % 2:
                    coeff = -coeff
                t_before += f_rec.decorations[f_k][2]
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
