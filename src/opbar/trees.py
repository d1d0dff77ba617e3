"""Rooted labelled trees, their collapse poset, grafting and orientations.

A tree is stored as the tuple of subtrees hanging off the root.  Subtrees
are nested tuples: a leaf is ``('L', labels)`` with a sorted tuple of
labels, a vertex is ``('V', children)`` with at least two children.
Canonical form sorts the children of every node by the least label in
their subtree (label sets are disjoint, so least labels are distinct and
the sort is unambiguous); equality of canonical forms is isomorphism of
labelled trees.

Trees are validated once, where they enter: ``Tree(...)`` rejects
malformed or non-canonical input, and ``make_tree`` (behind
``parse_tree``) checks its input, then canonicalizes it.  Trees derived
from valid trees are not validated again.  Relabellings and grafts go
through one canonicalizing walk, ``_canonical``: given a forest whose
vertices may carry their source path, it returns the canonical root
children and, for the root (source ``()``) and each tagged vertex,
``source -> (new path, tau)`` in the new depth-first order, with
``tau[i]`` the new position of the node's i-th child.  A tree's slots
come from one walk, ``slot_walk``: the vertex paths and nodes in
depth-first order and the leaves by least label.  A collapse needs no
further walk: the merged node keeps its label set, hence its place among
its siblings and every ancestor's child order.  A bud becomes the leaf of
its labels and moves no vertex; an edge collapse splices the vertex's
children into its parent's and re-sorts only those (tau), so only the
vertices below the parent move, and they stay one block of the
depth-first order.  One engine, ``_collapse``, does this on the tree's
vertex paths and returns plain values: the target's root children, the
sign, the target's vertices in order as indices into the source's paths,
the insert position and tau.  ``collapse`` checks the move and wraps
these in a CollapseResult.  Nor does an order-preserving renumbering onto
1..k (``renumber``, the ungrafting skeleton): it keeps every leaf sorted
and every child order, so each path stays and the orientation sign is +1.
Ungrafting is an index and a cut: ``subtree_index`` maps the label set
of every node to its path, and ``ungraft_at`` cuts at such paths;
``ungraft_partition`` validates its blocks and runs the two.

``collapse`` (through ``_collapse``), ``relabel`` (through ``_relabel``)
and ``ungraft_partition`` build new trees; they serve callers that hold
Trees, such as ``covers`` and the weighting complexes, and they are the
reference for the bar and cobar complexes, whose differential, symmetric
action and ungrafting maps never build or walk a Tree.  Those work on
each tree's key, the sorted bitmasks of the label sets of its nodes
below the root, which determine the tree: a collapse deletes masks
(``barcobar._key_collapse``), a permutation maps them
(``barcobar._relabel_slots``), and a cut sorts them into the factors and
renumbers each factor's masks as ``renumber`` does
(``barcobar._cutter``).

Trees are enumerated by supports: the allowed root arities, vertex
arities and leaf sizes (``supported_trees``).  A bar or cobar complex
passes its coefficients' and operad's supports, the arities of nonzero
rank.  The trees come in serialization order: each memoized subtree
keeps its string, so a tree's sort key is one join.  The species are
supports too: standard trees have root arity 1 and leaf size 1, root
trees root arity 1, leaf trees leaf size 1, and generalized trees any;
so standard = root intersect leaf inside the generalized trees.
Orientation data is the depth-first order of internal vertices, which is
the order of their paths; every collapse move carries the sign of the
induced map of orientations.

Canonical serialization (stable; used in basis labels and cache keys):

    tree    = "(" subtree {"," subtree} ")"
    subtree = leaf | vertex
    leaf    = "[" label {"," label} "]"
    vertex  = "(" subtree {"," subtree} ")"

with labels in increasing order inside a leaf and children of every node
in canonical order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from operator import itemgetter

from .combinat import partitions_into_at_least_two, set_partitions
from .errors import BoundsError, ParseError, ValidationError
from .exactla import ChainComplex, GradedFreeModule, perm_sign

STANDARD = "standard"
GENERALIZED = "generalized"
ROOT = "root"
LEAF = "leaf"
SPECIES = (STANDARD, GENERALIZED, ROOT, LEAF)

INTERNAL_EDGE = "internal_edge"
ROOT_EDGE = "root_edge"
BUD = "bud"

MAX_LABELS = 8


# -- node helpers -----------------------------------------------------------

def _leaf(labels):
    return ("L", tuple(sorted(labels)))


def _min_label(node):
    while node[0] == "V":
        node = node[1][0]
    return node[1][0]


def _label_list(children):
    """Every leaf label below the nodes children, in no particular order."""
    out = []
    stack = list(children)
    while stack:
        node = stack.pop()
        if node[0] == "L":
            out.extend(node[1])
        else:
            stack.extend(node[1])
    return out


def _check_forest(children):
    """Raise ValidationError unless children are well-formed root children:
    leaves and vertices with at least two children, with nonempty and
    disjoint leaf label sets.  Order is not checked."""
    if not isinstance(children, tuple) or not children:
        raise ValidationError("a tree has a nonempty tuple of root children")
    seen = set()

    def walk(node, path):
        if not (isinstance(node, tuple) and len(node) == 2
                and node[0] in ("L", "V") and isinstance(node[1], tuple)):
            raise ValidationError(f"malformed node {node!r} at path {path}")
        kind, body = node
        if kind == "V":
            if len(body) < 2:
                raise ValidationError(
                    f"internal vertex with fewer than two children at path {path}")
            for i, child in enumerate(body):
                walk(child, path + (i,))
        elif not body or len(set(body)) != len(body) or not seen.isdisjoint(body):
            raise ValidationError(
                f"leaf label sets must be nonempty and disjoint (path {path})")
        else:
            seen.update(body)

    for i, child in enumerate(children):
        walk(child, (i,))


def _canonical(forest):
    """The one canonicalizing walk (see the module docstring); a vertex of
    forest is ``('V', children)`` or ``('V', children, source)``."""
    (_v, children), records = _canon(("V", forest, ()))
    return children, {source: (path, tau) for source, path, tau in records}


def _canon(node):
    """(canonical node, [(source, path below node, tau), ...])."""
    if node[0] == "L":
        return ("L", tuple(sorted(node[1]))), ()
    walked = [_canon(child) for child in node[1]]
    keys = [_min_label(canon) for canon, _records in walked]
    order = sorted(range(len(walked)), key=keys.__getitem__)
    tau = [0] * len(order)
    for r, i in enumerate(order):
        tau[i] = r
    records = [(node[2], (), tuple(tau))] if len(node) == 3 else []
    for r, i in enumerate(order):
        records.extend((source, (r,) + path, t)
                       for source, path, t in walked[i][1])
    return ("V", tuple(walked[i][0] for i in order)), records


def _tracked(node, path):
    """node with every vertex tagged by its path (its source for _canonical)."""
    if node[0] == "L":
        return node
    return ("V", tuple(_tracked(c, path + (i,)) for i, c in enumerate(node[1])),
            path)


def _replace_at(children, path, nodes):
    """children with the node at path replaced by the tuple nodes; the
    vertices on the way keep their source tags, if any."""
    i = path[0]
    if len(path) > 1:
        node = children[i]
        nodes = (("V", _replace_at(node[1], path[1:], nodes)) + node[2:],)
    return children[:i] + nodes + children[i + 1:]


def _order_sign(sources):
    """Sign of the vertex order sources (old paths in their new order)
    against the old depth-first order, which is the order of the paths."""
    rank = {s: r for r, s in enumerate(sorted(sources))}
    return perm_sign(tuple(rank[s] for s in sources))


def _mapped(node, sigma):
    """node with every label x replaced by sigma[x], in the same order."""
    if node[0] == "L":
        return ("L", tuple(sigma[x] for x in node[1]))
    return ("V", tuple(_mapped(c, sigma) for c in node[1]))


def _tree(children):
    """A Tree on root children already in canonical form, not validated."""
    tree = object.__new__(Tree)
    object.__setattr__(tree, "root_children", children)
    return tree


@dataclass(frozen=True)
class Tree:
    """Canonical-form rooted labelled tree (see module docstring); the
    root children must already be canonical (make_tree canonicalizes)."""

    root_children: tuple

    def __post_init__(self):
        _check_forest(self.root_children)
        canonical = _canonical(self.root_children)[0]
        if canonical != self.root_children:
            raise ValidationError(
                "tree is not in canonical form; its canonical form is "
                + _serialize_forest(canonical))

    @property
    def labels(self):
        return frozenset(_label_list(self.root_children))

    @property
    def n_vertices(self):
        return len(slot_walk(self)[0])

    @property
    def species(self):
        single_root = len(self.root_children) == 1
        singleton = all(len(labs) == 1 for _p, labs in self.leaves())
        if single_root and singleton:
            return STANDARD
        if single_root:
            return ROOT
        if singleton:
            return LEAF
        return GENERALIZED

    def node_at(self, path):
        node = ("V", self.root_children)
        for i in path:
            node = node[1][i]
        return node

    def vertex_paths(self):
        """Internal vertices in depth-first order (the canonical VertexOrder)."""
        return slot_walk(self)[0]

    def leaves(self):
        """(path, labels) pairs ordered by least label."""
        out = []

        def walk(node, path):
            if node[0] == "L":
                out.append((path, node[1]))
                return
            for i, child in enumerate(node[1]):
                walk(child, path + (i,))

        for i, child in enumerate(self.root_children):
            walk(child, (i,))
        return sorted(out, key=lambda pl: pl[1][0])

    def serialize(self):
        return _serialize_forest(self.root_children)

    def __repr__(self):
        return f"Tree({self.serialize()})"


def slot_walk(tree):
    """The one walk of a tree's slots: (vertex paths, vertex nodes, leaf
    label tuples), the vertices in depth-first order (the canonical
    VertexOrder) and the leaves by least label.  The vertex count is the
    number of paths."""
    paths, nodes, leaves = [], [], []

    def walk(children, path):
        for i, child in enumerate(children):
            if child[0] == "V":
                at = path + (i,)
                paths.append(at)
                nodes.append(child)
                walk(child[1], at)
            else:
                leaves.append(child[1])

    walk(tree.root_children, ())
    # Label sets are disjoint, so the tuples sort by their least labels.
    leaves.sort()
    return paths, nodes, leaves


def _serialize_forest(children):
    return "(" + ",".join(_serialize_node(c) for c in children) + ")"


def _serialize_node(node):
    if node[0] == "L":
        return "[" + ",".join(str(x) for x in node[1]) + "]"
    return "(" + ",".join(_serialize_node(c) for c in node[1]) + ")"


def make_tree(root_children):
    """Check, canonicalize and wrap a tuple of subtree nodes."""
    children = tuple(root_children)
    _check_forest(children)
    return _tree(_canonical(children)[0])


def renumber(tree):
    """The tree relabelled onto 1..k by the increasing bijection.

    Canonical form and every vertex path are kept, and the orientation
    sign is +1 (see the module docstring).
    """
    rank = {x: i + 1 for i, x in enumerate(sorted(_label_list(
        tree.root_children)))}
    return _tree(tuple(_mapped(c, rank) for c in tree.root_children))


def single_edge_tree(labels):
    """The tree with no vertices and one leaf carrying the given labels."""
    return Tree((_leaf(labels),))


def parse_tree(text):
    """Inverse of Tree.serialize."""
    pos = 0
    seen = set()

    def error(msg):
        raise ParseError(f"{msg} at position {pos}")

    def parse_node(depth):
        nonlocal pos
        if pos >= len(text):
            error("unexpected end of input")
        if text[pos] == "[":
            pos += 1
            start = pos
            while pos < len(text) and text[pos] != "]":
                pos += 1
            if pos >= len(text):
                error("unterminated leaf")
            try:
                labels = tuple(int(x) for x in text[start:pos].split(","))
            except ValueError:
                error("bad leaf labels")
            if len(set(labels)) != len(labels) or seen.intersection(labels):
                error("repeated leaf label")
            seen.update(labels)
            pos += 1
            return _leaf(labels)
        if text[pos] == "(":
            pos += 1
            children = [parse_node(depth + 1)]
            while pos < len(text) and text[pos] == ",":
                pos += 1
                children.append(parse_node(depth + 1))
            if pos >= len(text) or text[pos] != ")":
                error("expected ')'")
            # The outermost parentheses hold the root's children.
            if depth and len(children) < 2:
                error("internal vertices need at least two children")
            pos += 1
            return ("V", tuple(children))
        error(f"unexpected character {text[pos]!r}")

    node = parse_node(0)
    if pos != len(text):
        error("trailing input")
    if node[0] == "L":
        raise ParseError("a serialized tree is parenthesized")
    return make_tree(node[1])


# -- enumeration ------------------------------------------------------------

def _clip(support, low, high):
    """The support's arities in low..high, as a hashable key."""
    return frozenset(range(low, high + 1)).intersection(support)


def _forests(blocks, vertices, leaves):
    """Every choice of one (subtree, serialization) pair of _subtrees
    within the supports per block."""
    return itertools.product(*(
        _subtrees(b, _clip(vertices, 2, len(b)), _clip(leaves, 1, len(b)))
        for b in blocks))


@lru_cache(maxsize=None)
def _subtrees(labels, vertices, leaves):
    """(node, serialization) of every canonical subtree on the sorted
    labels within the supports, which are clipped to the label count so
    that arities share their subtrees.  Blocks come sorted by least label,
    which is the least label of every subtree on the block, so each
    combination is already in canonical child order."""
    out = []
    if len(labels) in leaves:
        out.append((("L", labels), _serialize_node(("L", labels))))
    for blocks in partitions_into_at_least_two(labels):
        if len(blocks) in vertices:
            out.extend(map(_joined, _forests(blocks, vertices, leaves)))
    return tuple(out)


def _joined(combo):
    """(vertex, serialization) of the vertex whose children are the (node,
    serialization) pairs combo; the root's children serialize alike."""
    return ("V", tuple(node for node, _s in combo)), \
        "(" + ",".join(s for _node, s in combo) + ")"


def supported_trees(n, roots, vertices, leaves):
    """All canonical trees on {1..n} within the supports, sorted.

    roots, vertices and leaves are the allowed root arities, vertex
    arities and leaf sizes; the trees come in serialization order.  n
    must lie in 1..MAX_LABELS (BoundsError otherwise).
    """
    if not 1 <= n <= MAX_LABELS:
        raise BoundsError(f"label count {n} outside 1..{MAX_LABELS}")
    labels = tuple(range(1, n + 1))
    # Each tree with its serialization, joined from its subtrees'.
    keyed = []
    for blocks in set_partitions(labels):
        if len(blocks) in roots:
            keyed.extend(map(_joined, _forests(blocks, vertices, leaves)))
    keyed.sort(key=itemgetter(1))
    return [_tree(children) for (_v, children), _s in keyed]


def enumerate_trees(n, species=STANDARD):
    """All canonical trees of the species on labels {1..n}, sorted.

    A species is a pair of supports (see the module docstring), so the
    species are nested: every standard tree appears in all four listings.
    n is bounded as in supported_trees.
    """
    if species not in SPECIES:
        raise ValidationError(f"unknown species {species!r}")
    every = range(1, n + 1)
    roots = (1,) if species in (STANDARD, ROOT) else every
    leaves = (1,) if species in (STANDARD, LEAF) else every
    return supported_trees(n, roots, every, leaves)


def standard_tree_count(n):
    """Independent recurrence oracle for |T(n)|."""
    @lru_cache(maxsize=None)
    def f(labels):
        if len(labels) == 1:
            return 1
        return sum(
            prod(f(b) for b in blocks)
            for blocks in partitions_into_at_least_two(labels))
    return f(tuple(range(1, n + 1)))


# -- collapse moves ---------------------------------------------------------

@dataclass(frozen=True)
class CollapseMove:
    """A codimension-one collapse: kind, removed-vertex path, and sign."""

    kind: str
    target: tuple
    sign: int


@dataclass(frozen=True)
class CollapseResult:
    """A collapse move applied to a tree, with slot bookkeeping.

    vertex_map sends each surviving vertex path of the source to its path
    in the collapsed tree (the merged vertex maps from the survivor slot).
    For edge collapses, insert_pos is the 1-based position of the removed
    vertex among its parent's children and child_perm sends the spliced
    child order (the parent's children with the removed vertex's children
    in its place) to the canonical child order at the merged node.
    """

    tree: Tree
    move: CollapseMove
    vertex_map: dict
    insert_pos: int | None
    child_perm: tuple | None


def collapse_moves(tree):
    """All raw moves (kind, path) available on a canonical tree."""
    moves = []
    for path in tree.vertex_paths():
        node = tree.node_at(path)
        if len(path) == 1:
            moves.append((ROOT_EDGE, path))
        else:
            moves.append((INTERNAL_EDGE, path))
        if all(c[0] == "L" for c in node[1]):
            moves.append((BUD, path))
    return moves


def collapse(tree, kind, path):
    """Apply one collapse move, locally (see the module docstring);
    returns a CollapseResult with the sign."""
    node = tree.node_at(path)
    if node[0] != "V":
        raise ValidationError("collapse target is not a vertex")
    if kind == BUD and not all(c[0] == "L" for c in node[1]):
        raise ValidationError("bud collapse needs a maximal vertex")
    if kind == ROOT_EDGE and len(path) != 1:
        raise ValidationError("root-edge collapse targets a root child")
    if kind == INTERNAL_EDGE and len(path) < 2:
        raise ValidationError("internal-edge collapse needs an internal edge")
    paths = tree.vertex_paths()
    children, sign, order, insert_pos, child_perm = _collapse(
        tree, kind, path, paths)
    target = _tree(children)
    vertex_map = dict(zip((paths[j] for j in order), target.vertex_paths()))
    return CollapseResult(target, CollapseMove(kind, path, sign), vertex_map,
                          insert_pos, child_perm)


def _collapse(tree, kind, path, paths):
    """The collapse engine behind collapse, on a valid move of tree with
    vertex paths paths; nothing is checked.

    Returns (the target's root children, the move's sign, the target's
    vertices in their depth-first order as indices into paths, insert_pos,
    child_perm), the last two as in CollapseResult.  The merged vertex of
    an inner edge collapse is the parent's index.
    """
    # Boundary-orientation sign in height coordinates (one per vertex,
    # ordered by the canonical VertexOrder).  A bud face {h_v = 1} has
    # outward normal +dh_v, giving (-1)^(i-1) for the i-th vertex; root
    # faces {h_v = 0} and merge faces {h_u = h_v} both contract to (-1)^i.
    # A uniform (-1)^(i-1) already breaks d^2 = 0 on two-vertex trees.
    at = paths.index(path)
    sign = -1 if at % 2 else 1
    node = tree.node_at(path)
    if kind == BUD:
        children = _replace_at(tree.root_children, path,
                               (_leaf(x for c in node[1] for x in c[1]),))
        return (children, sign, tuple(j for j in range(len(paths)) if j != at),
                None, None)
    parent, i = path[:-1], path[-1]
    depth = len(parent)
    kids = tree.node_at(parent)[1] if depth else tree.root_children
    k = len(node[1])
    spliced = kids[:i] + node[1] + kids[i + 1:]
    keys = [_min_label(c) for c in spliced]
    order = sorted(range(len(spliced)), key=keys.__getitem__)
    tau = [0] * len(order)
    for r, s in enumerate(order):
        tau[s] = r
    merged = tuple(spliced[s] for s in order)
    children = (_replace_at(tree.root_children, parent, (("V", merged),))
                if depth else merged)
    # The vertices below the parent follow it in depth-first order, and
    # only their paths change; the block keeps its place in the order.
    low = paths.index(parent) + 1 if depth else 0
    high = low
    while high < len(paths) and paths[high][:depth] == parent:
        high += 1
    moved = {}
    for j in range(low, high):
        if j == at:
            continue
        q = paths[j]
        c, rest = q[depth], q[depth + 1:]
        if c == i:
            c, rest = i + rest[0], rest[1:]
        elif c > i:
            c += k - 1
        moved[j] = (tau[c],) + rest
    block = sorted(moved, key=moved.__getitem__)
    # The new order's sign is that of the moved vertices' new order.
    sign *= perm_sign(tuple(j - low - (j > at) for j in block))
    return (children, -sign, (*range(low), *block, *range(high, len(paths))),
            i + 1, tuple(tau))


@lru_cache(maxsize=None)
def covers(tree):
    """All codimension-one predecessors with their signed moves, as a
    tuple; computed once per tree, so down_set and w_cell_complex share
    every cover.  The tree is walked once: each vertex has one edge move,
    in vertex order, and the engine _collapse builds only the targets."""
    moves = collapse_moves(tree)
    paths = [path for kind, path in moves if kind != BUD]
    out = []
    for kind, path in moves:
        children, sign = _collapse(tree, kind, path, paths)[:2]
        out.append((_tree(children), CollapseMove(kind, path, sign)))
    return tuple(out)


@lru_cache(maxsize=None)
def down_set(tree):
    """All trees reachable from this one by collapse moves, inclusive."""
    out = {tree}
    for sub, _move in covers(tree):
        out |= down_set(sub)
    return frozenset(out)


def leq(u, t):
    """u <= t in the collapse order (same label universe required)."""
    if u.labels != t.labels:
        raise ValidationError("leq compares trees on the same label set")
    return u in down_set(t)


# -- grafting ---------------------------------------------------------------

def graft(t, a, u):
    """Identify the root edge of u with the a-labelled leaf edge of t."""
    if len(u.root_children) != 1:
        raise ValidationError("graft: the grafted tree must have a single root edge")
    leaf_path = None
    for path, labs in t.leaves():
        if a in labs:
            if labs != (a,):
                raise ValidationError(
                    "graft: the grafting leaf must carry only the grafting label")
            leaf_path = path
    if leaf_path is None:
        raise ValidationError(f"graft: no leaf labelled {a!r}")
    overlap = (t.labels - {a}) & u.labels
    if overlap:
        raise ValidationError(f"graft: label sets overlap on {sorted(overlap)}")
    return _tree(_canonical(
        _replace_at(t.root_children, leaf_path, u.root_children))[0])


def ungraft_partition(v, blocks):
    """Cut v along disjoint label blocks into a skeleton and one part each.

    Each block is cut off at the node whose subtree carries exactly its
    labels; that subtree, with v's labels, is the block's part.  The
    skeleton keeps the leaves no block covers and gains one leaf per cut,
    counted as its block's least label, and is relabelled onto 1..m
    preserving order, so blocks that cover v become leaves 1..r in
    least-label order.  Returns (skeleton, parts, cut paths), parts and
    cuts in the order of the blocks, or None when some block is not the
    label set of a subtree of v.
    """
    blocks = [tuple(sorted(b)) for b in blocks]
    covered = [x for b in blocks for x in b]
    if not blocks or not all(blocks) or len(set(covered)) != len(covered) \
            or not v.labels >= set(covered):
        raise ValidationError(
            "ungraft_partition: blocks must be disjoint label sets of the tree")
    at = subtree_index(v)
    cuts = [at.get(block) for block in blocks]
    if None in cuts:
        return None
    return (*ungraft_at(v, cuts), cuts)


def subtree_index(tree):
    """{sorted label tuple: path} of every node of tree below the root,
    leaves and vertices.  A vertex's label set strictly contains each
    child's, so distinct nodes have distinct label sets."""
    at = {}

    def index(node, path):
        labs = node[1] if node[0] == "L" else tuple(sorted(
            x for i, c in enumerate(node[1]) for x in index(c, path + (i,))))
        at[labs] = path
        return labs

    for i, child in enumerate(tree.root_children):
        index(child, (i,))
    return at


def ungraft_at(v, cuts):
    """ungraft_partition's cut of v at the node paths cuts, which
    subtree_index gives for disjoint blocks: (skeleton, parts)."""
    children = v.root_children
    parts = []
    for cut in cuts:
        node = v.node_at(cut)
        # The cut leaf has the cut subtree's least label: order is kept.
        children = _replace_at(children, cut, (("L", (_min_label(node),)),))
        parts.append(_tree((node,)))
    return renumber(_tree(children)), parts


# -- relabelling ------------------------------------------------------------

def relabel(tree, sigma):
    """Apply a label bijection (possibly onto a new label set).

    Returns (tree, orientation sign): the sign of the permutation
    carrying the transported VertexOrder to the canonical one.
    """
    labs = tree.labels
    if set(sigma) != set(labs) or len(set(sigma.values())) != len(labs):
        raise ValidationError("relabel: not a bijection on the label universe")
    new_tree, sign, _moves = _relabel(tree, sigma)
    return new_tree, sign


def _relabel(tree, sigma):
    """relabel's (tree, sign) and the canonicalizing walk's map old path ->
    (new path, tau) for the root, under (), and every vertex; sigma is not
    checked."""
    children, moves = _canonical(tuple(
        _tracked(_mapped(c, sigma), (i,)) for i, c in enumerate(tree.root_children)))
    return _tree(children), _order_sign([s for s in moves if s]), moves


# -- the weighting-space chain complex --------------------------------------

MAX_CELL_VERTICES = 8


def w_cell_complex(tree):
    """Cellular chains of the weighting disc of a tree.

    Basis in degree k: trees u <= tree with k vertices; differential sums
    signed collapse moves.  Used to certify the sign convention: d^2 = 0
    and the homology is that of a point.  Trees with more than
    MAX_CELL_VERTICES vertices raise BoundsError.
    """
    if tree.n_vertices > MAX_CELL_VERTICES:
        raise BoundsError(f"tree has {tree.n_vertices} vertices, bound is "
                          f"{MAX_CELL_VERTICES}")
    names = {u: u.serialize() for u in down_set(tree)}
    cells = sorted(names, key=names.__getitem__)
    by_degree = {}
    for u in cells:
        by_degree.setdefault(u.n_vertices, []).append(u)
    module = GradedFreeModule(
        {k: tuple(names[u] for u in v) for k, v in by_degree.items()})
    entries = {}
    for k, degree_cells in by_degree.items():
        row = entries.setdefault(k, {})
        for j, u in enumerate(degree_cells):
            for sub, move in covers(u):
                key = (module.position(k - 1, names[sub]), j)
                row[key] = row.get(key, 0) + move.sign
    return ChainComplex.from_entries(module, entries)
