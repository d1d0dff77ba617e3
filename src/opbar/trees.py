"""Rooted labelled trees as label-mask keys: enumeration, collapses,
relabellings, cuts and the weighting complexes.

A tree on a set of labels (ints >= 1) is determined by the label
sets of its nodes below the root.  With bit x for label x, its key is the
sorted tuple of these masks.  They form a laminar family whose Hasse
diagram is the tree: a node's children are the largest masks strictly
inside it, the root's children are the maximal masks, and the leaves are
the masks that contain no other.  Equal keys are isomorphic labelled
trees, so the key is the tree: it is hashed, compared and stored as a
tuple of ints.

Slot order.  A tree's slots are the root (slot 0), the internal vertices
in depth-first order with every node's children by least label (the
canonical VertexOrder, slots 1..nv), then the leaves by least label.
Enumeration yields each tree's masks in slot order and its vertices'
children, one tuple of masks by least label per vertex in slot order,
joined from the subtrees' (in place of their arities, which are these
tuples' lengths); _mask_walk reads both off any key.
_TreeShape reads the children, the parents, the least label bits and
the slot of every mask off them, with no walk and no search for a
parent.

Moves.  Each move of a tree is made on its key:
- a collapse (``collapse``) deletes masks: an edge collapse the vertex's
  mask, so its children join its parent's, and a bud collapse the masks
  of the vertex's leaves, so the vertex becomes a leaf.  The target's
  slot order and the sign are read off the source's shape and depend
  only on the move's template, so a complex makes one collapse per
  template (_move gives the rest of every move);
- a permutation of the labels maps the masks through a bit table
  (_mask_image), and _relabel_slots carries the slots along;
- a cut along disjoint label blocks (_cutter) sorts the masks into the
  skeleton and one part per block, each renumbered onto 1..k preserving
  order (_compress).

Trees are enumerated by supports: the allowed root arities, vertex
arities and leaf sizes (``supported_trees``).  A bar or cobar complex
passes its coefficients' and operad's supports, the arities of nonzero
rank.  The subtrees of each label block and clipped supports are built
once per enumeration, in a memo the call drops.  The trees come in
serialization order: each subtree keeps its string, so a tree's sort key
is one join.  The species are supports too: standard trees have root
arity 1 and leaf size 1, root trees root arity 1, leaf trees leaf size
1, and generalized trees any; so standard = root intersect leaf inside
the generalized trees.

Text.  Nested tuples occur only where text comes in (``parse_tree``) and
goes out (``serialize``), in this stable serialization, used in basis
labels and cell names:

    tree    = "(" subtree {"," subtree} ")"
    subtree = leaf | vertex
    leaf    = "[" label {"," label} "]"
    vertex  = "(" subtree {"," subtree} ")"

with labels in increasing order inside a leaf and the children of every
node by least label.  A key from a caller is checked (_check_key), and
every memo lives for the call that makes it.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import prod
from operator import itemgetter

from .combinat import _labels, _low, block_sort_perm, \
    partitions_into_at_least_two, set_partitions
from .errors import BoundsError, ParseError, ValidationError, require_int
from .exactla import ChainComplex, GradedFreeModule, perm_sign

STANDARD = "standard"
GENERALIZED = "generalized"
ROOT = "root"
LEAF = "leaf"
SPECIES = (STANDARD, GENERALIZED, ROOT, LEAF)

MAX_LABELS = 8


def _children(key):
    """{node mask: its children's masks by least label} for the root (mask
    0) and every vertex of the tree with this key.  A node's parent is its
    least superset in the key, the first one after it in sorted order."""
    kids = {0: []}
    for i, mask in enumerate(key):
        up = 0
        for other in key[i + 1:]:
            if other & mask == mask:
                up = other
                break
        kids.setdefault(up, []).append(mask)
    for below in kids.values():
        below.sort(key=_low)
    return kids


# -- text -------------------------------------------------------------------

def _check_key(key):
    """The _children of a tree key, or ValidationError naming the first
    bad mask: a key is a sorted tuple of distinct nonzero int masks of
    labels >= 1, each node's children disjoint (so the masks nest or are
    disjoint) and a vertex the union of its two or more children."""
    def bad(what):
        return ValidationError(f"tree key {key!r}: {what}")
    if not isinstance(key, tuple):
        raise bad("a key is a tuple")
    for i, mask in enumerate(key):
        if mask.__class__ is not int or mask & 1 or mask <= 0:
            raise bad(f"mask {mask!r} is not a nonzero mask of labels >= 1")
        if i and mask <= key[i - 1]:
            raise bad(f"mask {mask} is out of sorted order or repeated")
    kids = _children(key)
    for mask, below in kids.items():
        union = 0
        for child in below:
            if union & child:
                raise bad(f"mask {child} overlaps a mask without nesting")
            union |= child
        if mask and (len(below) < 2 or union != mask):
            raise bad(f"mask {mask} is not the union of two or more "
                      f"children")
    return kids


def serialize(key):
    """The text of the tree with this key (see the module docstring);
    ValidationError naming the bad mask unless key is a tree key."""
    kids = _check_key(key)

    def text(mask):
        below = kids.get(mask)
        if below is None:
            return "[" + ",".join(map(str, _labels(mask))) + "]"
        return "(" + ",".join(map(text, below)) + ")"
    return text(0)


def parse_tree(text):
    """The key of a serialized tree; children may come in any order."""
    pos = 0
    masks = []
    seen = 0

    def error(msg):
        raise ParseError(f"{msg} at position {pos}")

    def parse_node(depth):
        """The mask of the node at pos; each node below the root joins
        masks."""
        nonlocal pos, seen
        if pos >= len(text):
            error("unexpected end of input")
        if text[pos] == "[":
            pos += 1
            start = pos
            while pos < len(text) and text[pos] != "]":
                pos += 1
            if pos >= len(text):
                error("unterminated leaf")
            labels = text[start:pos].split(",")
            try:
                # A negative label is a negative shift, a ValueError too.
                mask = sum(1 << int(x) for x in labels)
            except ValueError:
                error("bad leaf labels")
            if mask & 1:
                error("leaf label 0; labels are >= 1")
            if mask.bit_count() != len(labels) or seen & mask:
                error("repeated leaf label")
            seen |= mask
            pos += 1
        elif text[pos] == "(":
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
            mask = sum(children)
        else:
            error(f"unexpected character {text[pos]!r}")
        if depth:
            masks.append(mask)
        return mask

    if text[:1] == "[":
        raise ParseError("a serialized tree is parenthesized")
    parse_node(0)
    if pos != len(text):
        error("trailing input")
    return tuple(sorted(masks))


# -- enumeration ------------------------------------------------------------

def _clip(support, low, high):
    """The support's arities in low..high, as a hashable key."""
    return frozenset(range(low, high + 1)).intersection(support)


def _clips(vertices, leaves, n):
    """The vertex and leaf supports clipped to each block size k in
    1..n, at index k."""
    return [None] + [(_clip(vertices, 2, k), _clip(leaves, 1, k))
                     for k in range(1, n + 1)]


def _forests(blocks, clips, memo):
    """Every choice of one _subtrees entry within the supports per block,
    clips[k] the supports clipped to size k (_clips)."""
    return itertools.product(*(_subtrees(b, *clips[len(b)], memo)
                               for b in blocks))


def _joined(forest):
    """(serialization, vertex masks in depth-first order, their children,
    leaf masks) of a forest of _subtrees entries; a vertex and the root
    join their children alike."""
    texts, vertices, kids, leaves = zip(*forest)
    return ("(" + ",".join(texts) + ")", sum(vertices, ()),
            sum(kids, ()), sum(leaves, ()))


def _subtrees(labels, vertices, leaves, memo):
    """(serialization, vertex masks in depth-first order, their children,
    leaf masks) of every subtree on the sorted labels within the
    supports, kept in memo, which lives for one enumeration.  The
    supports are clipped to the label count so that block sizes share
    their subtrees.  A vertex's children are the tuple of its children's
    masks; one tuple serves every forest on the same blocks.  Blocks come
    sorted by least label, which is the least label of every subtree on
    the block, so each forest and each children tuple is already in
    canonical child order."""
    if (labels, vertices, leaves) in memo:
        return memo[labels, vertices, leaves]
    mask = sum(1 << x for x in labels)
    out = []
    if len(labels) in leaves:
        out.append(("[" + ",".join(map(str, labels)) + "]", (), (), (mask,)))
    clips = _clips(vertices, leaves, len(labels) - 1)
    for blocks in partitions_into_at_least_two(labels):
        if len(blocks) in vertices:
            heads = tuple([sum(1 << x for x in b) for b in blocks])
            for forest in _forests(blocks, clips, memo):
                text, below, kids, ends = _joined(forest)
                out.append((text, (mask, *below), (heads, *kids), ends))
    out = memo[labels, vertices, leaves] = tuple(out)
    return out


def supported_trees(n, roots, vertices, leaves):
    """Every tree on {1..n} within the supports, in serialization order.

    roots, vertices and leaves are the allowed root arities, vertex
    arities and leaf sizes.  Each tree comes as (key, masks in slot order,
    vertex count, children, slot arities).  children[v - 1] is the tuple
    of the masks of vertex v's children by least label, joined from the
    subtrees (a standard tree's are its one subtree's), so no tree is
    walked and _TreeShape reads the slot parents off them.  The subtrees
    of each block and clipped supports are built once per call and
    dropped when it returns.  An arity is a slot's number of children (a
    leaf's labels count as its children).  n must be an int in
    1..MAX_LABELS (ValidationError, BoundsError otherwise).
    """
    require_int(n, "label count")
    if not 1 <= n <= MAX_LABELS:
        raise BoundsError(f"label count {n} outside 1..{MAX_LABELS}")
    forests = []
    clips = _clips(vertices, leaves, n)
    memo = {}
    for blocks in set_partitions(range(1, n + 1)):
        if len(blocks) in roots:
            forests.extend((*_joined(forest), len(blocks))
                           for forest in _forests(blocks, clips, memo))
    forests.sort(key=itemgetter(0))
    out = []
    for _text, below, kids, ends, root in forests:
        ends = sorted(ends, key=_low)
        masks = (*below, *ends)
        out.append((tuple(sorted(masks)), masks, len(below), kids,
                    (root, *map(len, kids), *map(int.bit_count, ends))))
    return out


def enumerate_trees(n, species=STANDARD):
    """The keys of all trees of the species on labels {1..n}, in
    serialization order.

    A species is a pair of supports (see the module docstring), so the
    species are nested: every standard tree appears in all four listings.
    n is checked as in supported_trees.
    """
    if species not in SPECIES:
        raise ValidationError(f"unknown species {species!r}")
    every = range(1, MAX_LABELS + 1)
    roots = (1,) if species in (STANDARD, ROOT) else every
    leaves = (1,) if species in (STANDARD, LEAF) else every
    return [key for key, *_slots in supported_trees(n, roots, every, leaves)]


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


# -- slots ------------------------------------------------------------------

def _mask_walk(key):
    """(masks in slot order, vertex count, children) of the tree with this
    key, as supported_trees gives them."""
    kids = _children(key)
    vertices = []

    def walk(mask):
        for child in kids[mask]:
            if child in kids:
                vertices.append(child)
                walk(child)
    walk(0)
    leaves = sorted((m for m in key if m not in kids), key=_low)
    return ((*vertices, *leaves), len(vertices),
            tuple([tuple(kids[v]) for v in vertices]))


class _TreeShape:
    """The slots of the tree with key key, read off its masks in slot
    order, vertex count and vertices' children, as supported_trees gives
    them (walked from the key unless given): nv the vertex count,
    parent[q] the slot of q's parent (0 for the root's children and the
    root itself), kids[s] the slots of slot s's children by least label
    for the root (s = 0) and each vertex, lows[q] the least label's bit
    of slot q, and slot[mask] the slot of the node with that mask.  The
    root's children are the nodes that are no vertex's child, so no
    parent is searched for."""

    __slots__ = ("key", "masks", "nv", "kids", "parent", "lows", "slot")

    def __init__(self, key, masks=None, nv=None, children=None):
        if masks is None:
            masks, nv, children = _mask_walk(key)
        self.key, self.masks, self.nv = key, masks, nv
        self.lows = [0, *[m & -m for m in masks]]
        slot = self.slot = dict(zip(masks, range(1, len(masks) + 1)))
        parent = self.parent = [0] * (len(masks) + 1)
        kids = self.kids = [None] * (nv + 1)
        for v, below in enumerate(children, start=1):
            qs = kids[v] = []
            for mask in below:
                q = slot[mask]
                parent[q] = v
                qs.append(q)
        # The root's vertices, then its leaves, each by least label.
        below = kids[0] = [q for q in range(1, len(parent)) if not parent[q]]
        if len(below) > 1:
            below.sort(key=self.lows.__getitem__)


# -- collapse moves ---------------------------------------------------------

def _move(shape, q, bud):
    """(target key, spliced, insert_pos, tau) of the collapse of vertex
    slot q of shape, its bud when bud is true, else the edge above it.
    For an edge, spliced are the slots of q's parent's children with q's
    children in q's place, insert_pos is q's 1-based position among its
    parent's children and tau[i] the new position of spliced[i]: the rank
    order of their least labels.  All three are None for a bud."""
    key, masks, kids = shape.key, shape.masks, shape.kids
    if bud:
        gone = {masks[r - 1] for r in kids[q]}
        return tuple([m for m in key if m not in gone]), None, None, None
    at = key.index(masks[q - 1])
    below, siblings = kids[q], kids[shape.parent[q]]
    i = siblings.index(q)
    later = siblings[i + 1:]
    spliced = siblings[:i] + below + later
    lows = shape.lows
    # The siblings before q have smaller least labels than q's children,
    # so the order changes only if a later sibling comes before one of
    # them.
    if later and lows[later[0]] < lows[below[-1]]:
        tau = block_sort_perm(list(map(lows.__getitem__, spliced)))
    else:
        tau = tuple(range(len(spliced)))
    return key[:at] + key[at + 1:], spliced, i + 1, tau


def collapse(shape, q, bud):
    """The collapse of vertex slot q of the tree of shape (a _TreeShape):
    its bud when bud is true, else the edge above it.

    Returns (target key, sources, sign, insert_pos, tau), insert_pos and
    tau as _move gives them.  sources[t] is the source slot of target
    slot t: the slot with t's mask, so the merged slot's source is q's
    parent for an edge and q for a bud.

    The target's slot order is read off the shape, with no walk of the
    target.  An edge collapse deletes q, and its parent's spliced
    children are merged again by least label (tau): in the parent's
    subtree the vertices' depth-first blocks (a vertex and the vertices
    below it) are permuted by that order, and every other slot keeps its
    place.  A bud collapse deletes q's leaves, and q becomes a leaf at
    the least-label rank of its first leaf; the vertices keep their
    order.  So sources and sign depend only on the vertices' parents, the
    slot count, q, bud, and for an edge which spliced children are
    vertices and tau, or for a bud q's leaves.

    The sign is that of the boundary orientation in height coordinates,
    one per vertex in VertexOrder.  A bud face {h_v = 1} has outward
    normal +dh_v, giving (-1)^(i-1) for the i-th vertex; root faces
    {h_v = 0} and merge faces {h_u = h_v} both contract to (-1)^i (a
    uniform (-1)^(i-1) already breaks d^2 = 0 on two-vertex trees).  It
    is multiplied by the sign of the surviving vertices' order in the
    target: for an edge the sign of the block permutation, (-1)^(|A||B|)
    for every two blocks A and B that trade places, and 1 for a bud.
    """
    tkey, spliced, ins, tau = _move(shape, q, bud)
    kids, nv, end = shape.kids, shape.nv, len(shape.masks) + 1
    sign = -1 if q % 2 == 0 else 1
    if bud:
        first, *drop = kids[q]
        return (tkey, [0, *range(1, q), *range(q + 1, nv + 1),
                       *[q if r == first else r for r in range(nv + 1, end)
                         if r not in drop]], sign, None, None)
    parent = shape.parent
    up = parent[q]
    # size[v]: the vertices in v's block, slots v.. in depth-first order;
    # a vertex's parent comes before it.
    size = [1] * (nv + 1)
    for v in range(nv, 0, -1):
        size[parent[v]] += size[v]
    merged = [0] * len(spliced)
    for r, t in zip(spliced, tau):
        merged[t] = r
    blocks = [r for r in merged if r <= nv]
    order = [0, *range(1, up + 1)]
    for a, r in enumerate(blocks):
        order += range(r, r + size[r])
        for s in blocks[a + 1:]:
            if s < r and size[r] * size[s] % 2:
                sign = -sign
    order += range(up + size[up], end)
    return tkey, order, -sign, ins, tau


def _covers(shape):
    """The codimension-one predecessors of the tree of shape, as (target
    key, sign) pairs: each vertex's edge collapse in VertexOrder, then its
    bud collapse if all its children are leaves."""
    out = []
    for q in range(1, shape.nv + 1):
        for bud in (False, True) if min(shape.kids[q]) > shape.nv else \
                (False,):
            tkey, _sources, sign, _ins, _tau = collapse(shape, q, bud)
            out.append((tkey, sign))
    return tuple(out)


def covers(key):
    """_covers of the tree with this key; ValidationError naming the bad
    mask unless key is a tree key."""
    _check_key(key)
    return _covers(_TreeShape(key))


def down_set(key):
    """The trees this one collapses to, itself included (see covers)."""
    _check_key(key)
    out, todo = {key}, [key]
    while todo:
        found = {sub for sub, _sign in _covers(_TreeShape(todo.pop()))}
        todo += found - out
        out |= found
    return frozenset(out)


# -- relabelling ------------------------------------------------------------

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
    child (the rank of the least label of its image; a leaf's children
    are its labels)."""
    slot, masks, nv = tgt.slot, src.masks, src.nv
    sign = perm_sign(tuple(slot[m] - 1 for m in images[:nv]))
    moves = [None] * (len(masks) + 1)
    for q in range(len(moves)):
        if q <= nv:
            lows = [_low(image(masks[r - 1])) for r in src.kids[q]]
        else:
            lows = [image(1 << x) for x in _labels(masks[q - 1])]
        moves[slot[images[q - 1]] if q else 0] = (q, block_sort_perm(lows))
    return sign, moves


# -- cuts -------------------------------------------------------------------

def _compress(mask, labels):
    """mask renumbered onto 1..len(labels) by the increasing bijection
    from the sorted labels, which must contain its bits."""
    out = 0
    for new, x in enumerate(labels, start=1):
        if mask >> x & 1:
            out |= 1 << new
    return out


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
    Compression keeps the order of least labels, hence every child order
    and the depth-first order of the vertices.
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


# -- the weighting-space chain complexes ------------------------------------

def weighting_complexes(n):
    """Cellular chains of the weighting disc of every generalized tree on
    {1..n}, as {key: complex} in serialization order.  A tree's basis in
    degree k is the trees u <= tree with k vertices, by serialization,
    and its differential sums the signed collapse moves; d^2 = 0 and the
    homology of a point certify the signs.  Every cell is an enumerated
    tree, so each tree's shape, covers, text and down set are made once
    per call.  n is checked as in supported_trees."""
    every = range(1, MAX_LABELS + 1)
    found = supported_trees(n, every, every, every)
    rank = {key: i for i, (key, *_slots) in enumerate(found)}
    degree = [nv for _key, _masks, nv, *_rest in found]
    text = [serialize(key) for key, *_slots in found]
    below = [[(rank[sub], sign) for sub, sign in
              _covers(_TreeShape(key, masks, nv, kids))]
             for key, masks, nv, kids, _arities in found]
    # A cover has one vertex less, so each down set joins finished ones.
    down = [None] * len(found)
    for i in sorted(range(len(found)), key=degree.__getitem__):
        down[i] = frozenset([i]).union(*(down[j] for j, _s in below[i]))
    out = {}
    for (key, *_slots), cells in zip(found, down):
        by_degree, position = {}, {}
        for u in sorted(cells):
            at = by_degree.setdefault(degree[u], [])
            position[u] = len(at)
            at.append(u)
        rows = {k: {} for k in by_degree}
        for k, at in by_degree.items():
            for j, u in enumerate(at):
                for sub, sign in below[u]:
                    row = rows[k].setdefault(position[sub], {})
                    row[j] = row.get(j, 0) + sign
        out[key] = ChainComplex.from_rows(GradedFreeModule(
            {k: [text[u] for u in at] for k, at in by_degree.items()}), rows)
    return out
