"""Rooted labelled trees, their collapse poset, grafting and orientations.

A tree is stored as the tuple of subtrees hanging off the root.  Subtrees
are nested tuples: a leaf is ``('L', labels)`` with a sorted tuple of
labels, a vertex is ``('V', children)`` with at least two children.
Canonical form sorts the children of every node by the least label in
their subtree (label sets are disjoint, so least labels are distinct and
the sort is unambiguous); equality of canonical forms is isomorphism of
labelled trees.

Species are membership predicates on one underlying object, nested as
standard = root-species intersect leaf-species inside the generalized
trees.  Orientation data is the depth-first order of internal vertices;
every collapse move carries the sign of the induced map of orientations.

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

DEFAULT_MAX_LABELS = 8


# -- node helpers -----------------------------------------------------------

def _leaf(labels):
    return ("L", tuple(sorted(labels)))


def _min_label(node):
    while node[0] == "V":
        node = node[1][0]
    return node[1][0]


def _vertex(children):
    kids = tuple(sorted(children, key=_min_label))
    if len(kids) < 2:
        raise ValidationError("internal vertices need at least two children")
    return ("V", kids)


def _node_labels(node):
    if node[0] == "L":
        return set(node[1])
    out = set()
    for child in node[1]:
        out |= _node_labels(child)
    return out


def _canon_node(node):
    if node[0] == "L":
        return _leaf(node[1])
    return _vertex(_canon_node(c) for c in node[1])


def _validate_node(node):
    if node[0] == "L":
        if not node[1]:
            raise ValidationError("leaf with empty label set")
        return
    if len(node[1]) < 2:
        raise ValidationError("internal vertex with fewer than two children")
    for child in node[1]:
        _validate_node(child)


@dataclass(frozen=True)
class Tree:
    """Canonical-form rooted labelled tree (see module docstring)."""

    root_children: tuple

    def __post_init__(self):
        if not self.root_children:
            raise ValidationError("a tree has at least one root child")
        seen = set()
        for child in self.root_children:
            _validate_node(child)
            labs = _node_labels(child)
            if seen & labs:
                raise ValidationError("leaf label sets must be disjoint")
            seen |= labs

    @property
    def labels(self):
        out = set()
        for child in self.root_children:
            out |= _node_labels(child)
        return frozenset(out)

    @property
    def n_vertices(self):
        def count(node):
            if node[0] == "L":
                return 0
            return 1 + sum(count(c) for c in node[1])
        return sum(count(c) for c in self.root_children)

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

    def in_species(self, species):
        if species == GENERALIZED:
            return True
        if species == ROOT:
            return len(self.root_children) == 1
        if species == LEAF:
            return all(len(labs) == 1 for _p, labs in self.leaves())
        if species == STANDARD:
            return self.in_species(ROOT) and self.in_species(LEAF)
        raise ValidationError(f"unknown species {species!r}")

    def node_at(self, path):
        node = ("V", self.root_children)
        for i in path:
            node = node[1][i]
        return node

    def vertex_paths(self):
        """Internal vertices in depth-first order (the canonical VertexOrder)."""
        out = []

        def walk(node, path):
            if node[0] == "L":
                return
            out.append(path)
            for i, child in enumerate(node[1]):
                walk(child, path + (i,))

        for i, child in enumerate(self.root_children):
            walk(child, (i,))
        return out

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
        return "(" + ",".join(_serialize_node(c) for c in self.root_children) + ")"

    def __repr__(self):
        return f"Tree({self.serialize()})"


def _serialize_node(node):
    if node[0] == "L":
        return "[" + ",".join(str(x) for x in node[1]) + "]"
    return "(" + ",".join(_serialize_node(c) for c in node[1]) + ")"


def make_tree(root_children):
    """Canonicalize and wrap a tuple of subtree nodes."""
    kids = tuple(sorted((_canon_node(c) for c in root_children), key=_min_label))
    return Tree(kids)


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

@lru_cache(maxsize=None)
def _subtrees(labels, singleton_leaves):
    out = []
    if not singleton_leaves or len(labels) == 1:
        out.append(_leaf(labels))
    for blocks in partitions_into_at_least_two(labels):
        pools = [_subtrees(b, singleton_leaves) for b in blocks]
        for combo in itertools.product(*pools):
            out.append(_vertex(combo))
    return tuple(out)


def enumerate_trees(n, species=STANDARD, max_labels=DEFAULT_MAX_LABELS):
    """All canonical trees of the species on labels {1..n}, sorted.

    Species are nested: every standard tree appears in all four listings.
    """
    if species not in SPECIES:
        raise ValidationError(f"unknown species {species!r}")
    if not 1 <= n <= max_labels:
        raise BoundsError(f"label count {n} outside 1..{max_labels}")
    labels = tuple(range(1, n + 1))
    singleton = species in (STANDARD, LEAF)
    trees = []
    if species in (STANDARD, ROOT):
        for node in _subtrees(labels, singleton):
            trees.append(Tree((node,)))
    else:
        for blocks in set_partitions(labels):
            pools = [_subtrees(b, singleton) for b in blocks]
            for combo in itertools.product(*pools):
                trees.append(make_tree(combo))
    trees.sort(key=Tree.serialize)
    return trees


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
    child order to the canonical child order at the merged node.
    """

    tree: Tree
    move: CollapseMove
    vertex_map: dict
    insert_pos: int | None
    child_perm: tuple | None


def _tracked(node, path):
    if node[0] == "L":
        return node
    kids = tuple(_tracked(c, path + (i,)) for i, c in enumerate(node[1]))
    return ("V", kids, path)


def _canon_tracked(node):
    if node[0] == "L":
        return node
    kids = tuple(sorted((_canon_tracked(c) for c in node[1]), key=_min_label))
    return ("V", kids, node[2])


def _strip(node):
    if node[0] == "L":
        return node
    return ("V", tuple(_strip(c) for c in node[1]))


def _collect_origins(children):
    """(origin, new_path) pairs for vertices, in depth-first order."""
    out = []

    def walk(node, path):
        if node[0] == "L":
            return
        out.append((node[2], path))
        for i, child in enumerate(node[1]):
            walk(child, path + (i,))

    for i, child in enumerate(children):
        walk(child, (i,))
    return out


def _replace_at(children, path, replacer):
    i = path[0]
    if len(path) == 1:
        return children[:i] + tuple(replacer(children[i])) + children[i + 1:]
    node = children[i]
    new = ("V", _replace_at(node[1], path[1:], replacer), node[2])
    return children[:i] + (new,) + children[i + 1:]


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
    """Apply one collapse move; returns a CollapseResult with the sign."""
    node = tree.node_at(path)
    if node[0] != "V":
        raise ValidationError("collapse target is not a vertex")
    if kind == BUD and not all(c[0] == "L" for c in node[1]):
        raise ValidationError("bud collapse needs a maximal vertex")
    if kind == ROOT_EDGE and len(path) != 1:
        raise ValidationError("root-edge collapse targets a root child")
    if kind == INTERNAL_EDGE and len(path) < 2:
        raise ValidationError("internal-edge collapse needs an internal edge")

    tracked = tuple(_tracked(c, (i,)) for i, c in enumerate(tree.root_children))
    if kind == BUD:
        merged = _leaf(tuple(sorted(x for c in node[1] for x in c[1])))
        new_children = _replace_at(tracked, path, lambda _n: [merged])
    else:
        new_children = _replace_at(tracked, path, lambda n: n[1])
    new_children = tuple(sorted((_canon_tracked(c) for c in new_children),
                                key=_min_label))
    collapsed = Tree(tuple(_strip(c) for c in new_children))

    old_order = tree.vertex_paths()
    i = old_order.index(path) + 1
    survivors = [p for p in old_order if p != path]
    origin_pairs = _collect_origins(new_children)
    vertex_map = {origin: newp for origin, newp in origin_pairs}
    perm = tuple(survivors.index(origin) for origin, _ in origin_pairs)
    # Boundary-orientation sign in height coordinates (one per vertex,
    # ordered by the canonical VertexOrder).  A bud face {h_v = 1} has
    # outward normal +dh_v, giving (-1)^(i-1); root faces {h_v = 0} and
    # merge faces {h_u = h_v} both contract to (-1)^i.  A uniform
    # (-1)^(i-1) already breaks d^2 = 0 on two-vertex trees.
    sign = ((-1) ** (i - 1)) * perm_sign(perm)
    if kind != BUD:
        sign = -sign

    insert_pos = None
    child_perm = None
    if kind in (INTERNAL_EDGE, ROOT_EDGE):
        insert_pos = path[-1] + 1
        parent_children = (tree.root_children if len(path) == 1
                           else tree.node_at(path[:-1])[1])
        c0 = path[-1]
        spliced = parent_children[:c0] + node[1] + parent_children[c0 + 1:]
        keys = [_min_label(ch) for ch in spliced]
        ranks = {k: r for r, k in enumerate(sorted(keys))}
        child_perm = tuple(ranks[k] for k in keys)
    return CollapseResult(collapsed, CollapseMove(kind, path, sign),
                          vertex_map, insert_pos, child_perm)


def covers(tree):
    """All codimension-one predecessors with their signed moves."""
    out = []
    for kind, path in collapse_moves(tree):
        res = collapse(tree, kind, path)
        out.append((res.tree, res.move))
    return out


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
    children = _replace_at_plain(t.root_children, leaf_path, u.root_children[0])
    return make_tree(children)


def _replace_at_plain(children, path, new_node):
    i = path[0]
    if len(path) == 1:
        return children[:i] + (new_node,) + children[i + 1:]
    node = children[i]
    return children[:i] + (("V", _replace_at_plain(node[1], path[1:], new_node)),) \
        + children[i + 1:]


def _cut_candidates(tree, block):
    """Paths of nodes whose subtree labels equal the given set."""
    target = frozenset(block)
    out = []

    def walk(node, path):
        labs = _node_labels(node)
        if frozenset(labs) == target:
            out.append(path)
        if node[0] == "V" and target < labs:
            for i, child in enumerate(node[1]):
                walk(child, path + (i,))

    for i, child in enumerate(tree.root_children):
        walk(child, (i,))
    return out


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
    cuts = []
    for block in blocks:
        found = _cut_candidates(v, block)
        if not found:
            return None
        cuts.append(found[0])
    heads = {cut: block[0] for cut, block in zip(cuts, blocks)}
    kept = sorted((v.labels - set(covered)) | set(heads.values()))
    rank = {x: i + 1 for i, x in enumerate(kept)}

    def skeleton(node, path):
        if path in heads:
            return ("L", (rank[heads[path]],))
        if node[0] == "L":
            return ("L", tuple(rank[x] for x in node[1]))
        return ("V", tuple(skeleton(c, path + (i,))
                           for i, c in enumerate(node[1])))

    return (make_tree(skeleton(c, (i,)) for i, c in enumerate(v.root_children)),
            [Tree((v.node_at(c),)) for c in cuts], cuts)


# -- relabelling ------------------------------------------------------------

def relabel(tree, sigma):
    """Apply a label bijection (possibly onto a new label set).

    Returns (tree, orientation sign): the sign of the permutation
    carrying the transported VertexOrder to the canonical one.
    """
    new_tree, sign, _vertex_map = _relabel(tree, sigma)
    return new_tree, sign


def _relabel(tree, sigma):
    """relabel's (tree, sign) and the map old vertex path -> new path."""
    labs = tree.labels
    if set(sigma) != set(labs) or len(set(sigma.values())) != len(labs):
        raise ValidationError("relabel: not a bijection on the label universe")

    def rl(node, path):
        if node[0] == "L":
            return ("L", tuple(sorted(sigma[x] for x in node[1])))
        kids = tuple(rl(c, path + (i,)) for i, c in enumerate(node[1]))
        return ("V", kids, path)

    tracked = tuple(rl(c, (i,)) for i, c in enumerate(tree.root_children))
    new_children = tuple(sorted((_canon_tracked(c) for c in tracked),
                                key=_min_label))
    new_tree = Tree(tuple(_strip(c) for c in new_children))
    old_order = tree.vertex_paths()
    origin_pairs = _collect_origins(new_children)
    perm = tuple(old_order.index(origin) for origin, _ in origin_pairs)
    return new_tree, perm_sign(perm), dict(origin_pairs)


# -- the weighting-space chain complex --------------------------------------

DEFAULT_MAX_CELL_VERTICES = 8


def w_cell_complex(tree, max_vertices=DEFAULT_MAX_CELL_VERTICES):
    """Cellular chains of the weighting disc of a tree.

    Basis in degree k: trees u <= tree with k vertices; differential sums
    signed collapse moves.  Used to certify the sign convention: d^2 = 0
    and the homology is that of a point.
    """
    if tree.n_vertices > max_vertices:
        raise BoundsError(
            f"tree has {tree.n_vertices} vertices, bound is {max_vertices}")
    cells = sorted(down_set(tree), key=Tree.serialize)
    by_degree = {}
    for u in cells:
        by_degree.setdefault(u.n_vertices, []).append(u)
    module = GradedFreeModule(
        {k: tuple(u.serialize() for u in v) for k, v in by_degree.items()})
    entries = {}
    for u in cells:
        k = u.n_vertices
        row = entries.setdefault(k, {})
        j = module.position(k, u.serialize())
        for sub, move in covers(u):
            key = (module.position(k - 1, sub.serialize()), j)
            row[key] = row.get(key, 0) + move.sign
    return ChainComplex.from_entries(module, entries)
