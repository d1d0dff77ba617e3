import itertools
import re
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opbar import trees
from opbar.combinat import set_partitions
from opbar.errors import BoundsError, ParseError, ValidationError
from opbar.exactla import perm_sign
from opbar.trees import (
    GENERALIZED,
    LEAF,
    ROOT,
    STANDARD,
    _TreeShape,
    _cutter,
    _mask_image,
    _mask_walk,
    _relabel_slots,
    collapse,
    covers,
    down_set,
    enumerate_trees,
    parse_tree,
    serialize,
    standard_tree_count,
    supported_trees,
    weighting_complexes,
)

# Counts frozen from the recurrence oracle f({x}) = 1,
# f(S) = sum over partitions of S into >= 2 blocks of prod f(block).
STANDARD_COUNTS = {1: 1, 2: 1, 3: 4, 4: 26, 5: 236, 6: 2752, 7: 39208}


def t(serial):
    return parse_tree(serial)


def _generalized(max_arity):
    return [key for n in range(1, max_arity + 1)
            for key in enumerate_trees(n, GENERALIZED)]


# -- the nested reference ---------------------------------------------------
# A tree as nested tuples: a leaf is ("L", sorted labels), a vertex
# ("V", children) with at least two children, the root the tuple of its
# children, every node's children by least label.  Its moves below run
# one canonicalizing walk and read paths off it; they are the oracles of
# the key moves in trees.


def _labels(mask):
    return tuple(x for x in range(mask.bit_length()) if mask >> x & 1)


def _nested(key):
    """The root children of the tree with this key: each node's children
    are the largest masks strictly inside it."""
    def tops(masks):
        top = [m for m in masks
               if not any(m & o == m and m != o for o in masks)]
        return tuple(node(m) for m in sorted(top, key=lambda m: m & -m))

    def node(mask):
        kids = tops([m for m in key if m & mask == m and m != mask])
        return ("V", kids) if kids else ("L", _labels(mask))
    return tops(list(key))


def _mask(node):
    if node[0] == "L":
        return sum(1 << x for x in node[1])
    return sum(map(_mask, node[1]))


def _key_of(children):
    out = []

    def walk(node):
        out.append(_mask(node))
        if node[0] == "V":
            for child in node[1]:
                walk(child)
    for child in children:
        walk(child)
    return tuple(sorted(out))


def _text(children):
    def node(n):
        if n[0] == "L":
            return "[" + ",".join(map(str, n[1])) + "]"
        return "(" + ",".join(map(node, n[1])) + ")"
    return "(" + ",".join(map(node, children)) + ")"


def _node_at(children, path):
    node = ("V", children)
    for i in path:
        node = node[1][i]
    return node


def _vertex_paths(children, path=()):
    """The vertices' paths in depth-first order."""
    out = []
    for i, child in enumerate(children):
        if child[0] == "V":
            out.append(path + (i,))
            out.extend(_vertex_paths(child[1], path + (i,)))
    return out


def _leaves(children, path=()):
    """(path, labels) of every leaf, by least label."""
    out = []
    for i, child in enumerate(children):
        if child[0] == "L":
            out.append((path + (i,), child[1]))
        else:
            out.extend(_leaves(child[1], path + (i,)))
    return sorted(out, key=lambda pl: pl[1][0])


def _slots(children):
    """(masks in slot order, vertex count, slot arities)."""
    paths = _vertex_paths(children)
    vertices = [_node_at(children, p) for p in paths]
    leaves = [labels for _p, labels in _leaves(children)]
    masks = tuple(map(_mask, vertices)) + tuple(
        sum(1 << x for x in labels) for labels in leaves)
    arities = (len(children), *(len(v[1]) for v in vertices),
               *map(len, leaves))
    return masks, len(paths), arities


def _min_label(node):
    while node[0] == "V":
        node = node[1][0]
    return node[1][0]


def _canon(node):
    """(canonical node, [(source, path below node, tau), ...]) of a node
    whose vertices may carry a source tag as a third entry."""
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
        records.extend((source, (r,) + path, x)
                       for source, path, x in walked[i][1])
    return ("V", tuple(walked[i][0] for i in order)), records


def _canonical(forest):
    (_v, children), records = _canon(("V", forest, ()))
    return children, {source: (path, tau) for source, path, tau in records}


def _tracked(node, path):
    """node with every vertex tagged by its path."""
    if node[0] == "L":
        return node
    return ("V", tuple(_tracked(c, path + (i,))
                       for i, c in enumerate(node[1])), path)


def _replace_at(children, path, nodes):
    i = path[0]
    if len(path) > 1:
        node = children[i]
        nodes = (("V", _replace_at(node[1], path[1:], nodes)) + node[2:],)
    return children[:i] + nodes + children[i + 1:]


def _order_sign(sources):
    rank = {s: r for r, s in enumerate(sorted(sources))}
    return perm_sign(tuple(rank[s] for s in sources))


def _mapped(node, sigma):
    if node[0] == "L":
        return ("L", tuple(sigma[x] for x in node[1]))
    return ("V", tuple(_mapped(c, sigma) for c in node[1]))


def _walk_collapse(children, path, bud):
    """Reference collapse: tag every vertex with its path, splice, run the
    full canonicalizing walk and read the vertex order's sign off it.
    Returns (target children, sign, source paths of the target's vertices
    in order, insert_pos, tau)."""
    node = _node_at(children, path)
    forest = tuple(_tracked(c, (i,)) for i, c in enumerate(children))
    if bud:
        spliced = (("L", tuple(sorted(x for c in node[1] for x in c[1]))),)
    else:
        spliced = _tracked(node, path)[1]
    target, moves = _canonical(_replace_at(forest, path, spliced))
    order = [source for source in moves if source]
    before = sum(1 for source in order if source < path)
    sign = (-1) ** before * _order_sign(order)
    if bud:
        return target, sign, order, None, None
    return target, -sign, order, path[-1] + 1, moves[path[:-1]][1]


def _walk_relabel(children, sigma):
    """Reference relabelling: (target children, orientation sign, old path
    -> (new path, tau) for the root, under (), and every vertex)."""
    target, moves = _canonical(tuple(
        _tracked(_mapped(c, sigma), (i,)) for i, c in enumerate(children)))
    return target, _order_sign([s for s in moves if s]), moves


def _renumbered(children):
    """The tree relabelled onto 1..k by the increasing bijection."""
    labels = sorted(x for _p, labs in _leaves(children) for x in labs)
    rank = {x: i + 1 for i, x in enumerate(labels)}
    return tuple(_mapped(c, rank) for c in children)


def _walk_ungraft(children, index, blocks):
    """Reference cut along disjoint blocks, given the tree's {label set:
    path} index: None when a block is no node's label set, else the
    renumbered skeleton and parts.  Each block is cut off at its node;
    the skeleton gets a leaf with the block's least label in its place."""
    cuts = [index.get(frozenset(block)) for block in blocks]
    if None in cuts:
        return None
    skeleton = children
    for cut, block in zip(cuts, blocks):
        skeleton = _replace_at(skeleton, cut, (("L", (min(block),)),))
    return [_renumbered(skeleton)] + [
        _renumbered((_node_at(children, c),)) for c in cuts]


def _subtree_index(children):
    at = {}

    def index(node, path):
        labs = frozenset(node[1]) if node[0] == "L" else frozenset().union(
            *(index(c, path + (i,)) for i, c in enumerate(node[1])))
        at[labs] = path
        return labs
    for i, child in enumerate(children):
        index(child, (i,))
    return at


# -- enumeration ------------------------------------------------------------

class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 4), (4, 26), (5, 236)])
    def test_standard_counts(self, n, count):
        found = enumerate_trees(n, STANDARD)
        assert len(found) == count
        assert len(found) == standard_tree_count(n)

    def test_standard_counts_against_oracle_up_to_seven(self):
        for n, count in STANDARD_COUNTS.items():
            assert standard_tree_count(n) == count
        assert len(enumerate_trees(6, STANDARD)) == 2752
        assert len(enumerate_trees(7, STANDARD)) == 39208

    def test_generalized_two(self):
        assert len(enumerate_trees(2, GENERALIZED)) == 3

    def test_root_three(self):
        assert len(enumerate_trees(3, ROOT)) == 8

    def test_sorted_and_unique(self):
        for species in (STANDARD, GENERALIZED, ROOT, LEAF):
            found = enumerate_trees(3, species)
            serials = [serialize(x) for x in found]
            assert serials == sorted(serials)
            assert len(set(serials)) == len(serials)

    def test_species_are_nested(self):
        gen = set(enumerate_trees(3, GENERALIZED))
        root = set(enumerate_trees(3, ROOT))
        leaf = set(enumerate_trees(3, LEAF))
        std = set(enumerate_trees(3, STANDARD))
        assert std == root & leaf
        assert root | leaf <= gen

    def test_bounds(self):
        with pytest.raises(BoundsError):
            enumerate_trees(0, STANDARD)
        with pytest.raises(BoundsError):
            enumerate_trees(9, STANDARD)
        with pytest.raises(BoundsError):
            supported_trees(9, {1}, {2}, {1})

    @pytest.mark.parametrize("n", [2.5, True])
    def test_label_count_is_an_int(self, n):
        with pytest.raises(ValidationError, match=f"label count {n!r} is "
                                                  f"not an int"):
            enumerate_trees(n)

    def test_generalized_counts_against_a_recurrence(self):
        # g(S) counts subtrees on S (a leaf, or a vertex over >= 2 blocks);
        # a generalized tree is a set partition into such subtrees.
        def g(k):
            return 1 + sum(prod(g(len(b)) for b in blocks)
                           for blocks in set_partitions(range(k))
                           if len(blocks) >= 2)

        for n in range(1, 6):
            want = sum(prod(g(len(b)) for b in blocks)
                       for blocks in set_partitions(range(n)))
            assert len(enumerate_trees(n, GENERALIZED)) == want

    @pytest.mark.parametrize("species", [STANDARD, GENERALIZED, ROOT, LEAF])
    def test_supported_trees_come_in_serialization_order(self, species):
        # The sort key is joined from the subtrees' strings as they are
        # enumerated; the order must be serialize's, byte for byte.
        for n in range(1, 7):
            got = enumerate_trees(n, species)
            assert got == sorted(got, key=serialize)
            assert len({serialize(x) for x in got}) == len(got)

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 15), (4, 115),
                                         (5, 1223)])
    def test_slot_data_against_the_nested_walk(self, n, count):
        # Each enumerated tree's masks in slot order, vertex count and slot
        # arities against the nested reference.
        every = range(1, n + 1)
        found = supported_trees(n, every, every, every)
        assert len(found) == count
        for key, masks, nv, _children, arities in found:
            assert (masks, nv, arities) == _slots(_nested(key)), key
            assert key == tuple(sorted(masks))

    @pytest.mark.parametrize("n,species", [
        (1, GENERALIZED), (2, GENERALIZED), (3, GENERALIZED),
        (4, GENERALIZED), (5, GENERALIZED), (6, STANDARD)])
    def test_slot_parents_against_the_walk(self, n, species):
        # The vertices' children joined from the subtrees against those
        # walked from the key (test_slot_walk checks the walk against the
        # nested reference), in order, and a shape built from them has the
        # walked shape's parents, children in order, least bits and slots.
        every = range(1, n + 1)
        supports = {STANDARD: ({1}, every, {1}),
                    GENERALIZED: (every, every, every)}[species]
        found = supported_trees(n, *supports)
        assert [key for key, *_rest in found] == enumerate_trees(n, species)
        for key, masks, nv, children, _arities in found:
            walked = _TreeShape(key)
            assert (masks, nv, children) == _mask_walk(key), key
            shape = _TreeShape(key, masks, nv, children)
            assert (shape.parent, shape.kids, shape.lows, shape.slot) == (
                walked.parent, walked.kids, walked.lows, walked.slot), key

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(st.just(n),
                            st.sets(st.integers(1, n)),
                            st.sets(st.integers(2, max(n, 2))),
                            st.sets(st.integers(1, n)))))
    def test_supports_filter_the_generalized_trees(self, drawn):
        n, roots, vertices, leaves = drawn

        def within(key):
            _masks, nv, arities = _slots(_nested(key))
            return (arities[0] in roots
                    and all(a in vertices for a in arities[1:nv + 1])
                    and all(a in leaves for a in arities[nv + 1:]))

        want = [x for x in enumerate_trees(n, GENERALIZED) if within(x)]
        got = supported_trees(n, roots, vertices, leaves)
        assert [key for key, *_slots_of in got] == want


# -- text -------------------------------------------------------------------

class TestCanonicalForm:
    def test_children_sorted_by_min_label(self):
        assert serialize(t("(([3],([1],[2])))")) == "((([1],[2]),[3]))"
        assert t("([2,1],[3])") == t("([3],[1,2])")

    def test_serialization_round_trip(self):
        found = _generalized(5) + enumerate_trees(6, STANDARD)
        assert len(found) == 1357 + 2752
        for key in found:
            text = serialize(key)
            assert text == _text(_nested(key))
            assert parse_tree(text) == key

    def test_keys_are_the_label_sets_of_the_nodes(self):
        assert t("((([1],[2]),[3]),[4,5])") == tuple(sorted(
            (0b1110, 0b110, 0b10, 0b100, 0b1000, 0b110000)))

    @pytest.mark.parametrize("text", ["([1],[1])", "(([1],[2]),[2])",
                                      "([1,1])", "(([1]))", "([1],([2]))"])
    def test_repeated_label_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="position"):
            parse_tree(text)

    @pytest.mark.parametrize("text", ["([])", "([1],[-2])", "([1],[2]",
                                      "([1]),", "(x)", "", "()", "([1],)",
                                      "(([1],[2])", "([1a])"])
    def test_malformed_text_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="position"):
            parse_tree(text)

    def test_label_zero_is_a_parse_error(self):
        with pytest.raises(ParseError, match="label 0; labels are >= 1"):
            parse_tree("([0],[1])")

    def test_a_bare_leaf_is_not_a_tree(self):
        with pytest.raises(ParseError, match="parenthesized"):
            parse_tree("[1,2]")


# -- collapse moves ---------------------------------------------------------

def _moves(shape):
    """(vertex slot, bud) of every move: each vertex's edge, and its bud
    when all its children are leaves."""
    return [(q, bud) for q in range(1, shape.nv + 1)
            for bud in ((False, True) if min(shape.kids[q]) > shape.nv
                        else (False,))]


class TestLocalCollapseAgainstTheWalk:
    # 1, 3, 15, 115 and 1223 generalized trees, 1357 in all, and 4336
    # moves; then every standard tree at arity 6.
    @pytest.mark.parametrize("n,species,n_moves", [
        (1, GENERALIZED, 0), (2, GENERALIZED, 2), (3, GENERALIZED, 23),
        (4, GENERALIZED, 279), (5, GENERALIZED, 4032),
        (6, STANDARD, 15475)])
    def test_every_move(self, n, species, n_moves):
        # The target's key, the sign, the target's vertices in order as
        # source slots, insert_pos and tau, against the full walk; the
        # targets' slot order comes from the reference too.
        moves = 0
        for key in enumerate_trees(n, species):
            children = _nested(key)
            shape = _TreeShape(key)
            paths = _vertex_paths(children)
            for q, bud in _moves(shape):
                target, sign, order, ins, tau = _walk_collapse(
                    children, paths[q - 1], bud)
                tkey, sources, got_sign, got_ins, got_tau = collapse(
                    shape, q, bud)
                assert (tkey, got_sign, sources[1:shape.nv], got_ins,
                        got_tau) == (
                    _key_of(target), sign,
                    [paths.index(p) + 1 for p in order], ins, tau), \
                    (key, q, bud)
                # Each source slot but the deleted ones is one target slot.
                gone = shape.kids[q] if bud else [q]
                assert sorted(sources) == [
                    r for r in range(len(shape.masks) + 1) if r not in gone]
                moves += 1
        assert moves == n_moves

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_slot_walk(self, n):
        # The walk of a key's masks in slot order, and the children and
        # parents read off them, against the nested reference.
        for key in enumerate_trees(n, GENERALIZED):
            children = _nested(key)
            shape = _TreeShape(key)
            masks = shape.masks
            assert _mask_walk(key)[:2] == _slots(children)[:2]
            assert _mask_walk(key)[2] == tuple(
                tuple(_mask(c) for c in _node_at(children, path)[1])
                for path in _vertex_paths(children))
            for s, path in enumerate([()] + _vertex_paths(children)):
                kids = _node_at(children, path)[1]
                assert [masks[r - 1] for r in shape.kids[s]] == \
                    [_mask(c) for c in kids]
                assert all(shape.parent[r] == s for r in shape.kids[s])
            assert shape.slot == {m: q for q, m in enumerate(masks, 1)}

    def test_covers_walk_each_tree_once(self, monkeypatch):
        # One weighting_complexes call shapes each tree once, from the
        # enumeration's children (no walk), for its covers and cells.
        shapes = []
        shape = trees._TreeShape

        def counted(key, masks=None, nv=None, children=None):
            shapes.append((key, masks is None))
            return shape(key, masks, nv, children)

        monkeypatch.setattr(trees, "_TreeShape", counted)
        weighting_complexes(5)
        monkeypatch.undo()
        assert sorted(shapes) == sorted(
            (key, False) for key in enumerate_trees(5, GENERALIZED))
        generalized = _generalized(5)
        for key in generalized:
            got = covers(key)
            children = _nested(key)
            paths = _vertex_paths(children)
            want = []
            for q, bud in _moves(_TreeShape(key)):
                target, sign, *_rest = _walk_collapse(children,
                                                      paths[q - 1], bud)
                want.append((_key_of(target), sign))
            assert got == tuple(want), key


def _nv(key):
    """The vertex count: the masks that contain another mask."""
    return sum(1 for m in key if any(o != m and o & m == o for o in key))


class TestCovers:
    def test_one_vertex_tree_has_root_and_bud_cover(self):
        result = covers(t("(([1],[2]))"))
        assert {serialize(u) for u, _sign in result} == \
            {"([1],[2])", "([1,2])"}

    def test_binary_standard_tree_has_three_covers(self):
        result = covers(t("((([1],[2]),[3]))"))
        # Vertex 1's root edge, then vertex 2's edge and bud.
        assert [serialize(u) for u, _sign in result] == [
            "(([1],[2]),[3])", "(([1],[2],[3]))", "(([1,2],[3]))"]

    def test_zero_vertex_tree_has_no_covers(self):
        assert covers(t("([1],[2],[3])")) == ()
        assert covers(t("([1,2,3])")) == ()

    def test_covers_drop_exactly_one_vertex(self):
        for key in enumerate_trees(4, GENERALIZED):
            for u, _sign in covers(key):
                assert _nv(u) == _nv(key) - 1
                assert sum(u) and max(u).bit_length() == \
                    max(key).bit_length()


class TestPosetOrder:
    def test_reflexive(self):
        tree = t("(([1],[2]))")
        assert tree in down_set(tree)

    def test_star_below_binary(self):
        star = t("(([1],[2],[3]))")
        for binary in enumerate_trees(3, STANDARD):
            if _nv(binary) == 2:
                assert star in down_set(binary)

    def test_distinct_binary_trees_incomparable(self):
        binaries = [x for x in enumerate_trees(3, STANDARD) if _nv(x) == 2]
        assert len(binaries) == 3
        for a, b in itertools.permutations(binaries, 2):
            assert a not in down_set(b)

    def test_covers_subset_of_down_set(self):
        for tree in enumerate_trees(3, GENERALIZED):
            for u, _sign in covers(tree):
                assert u in down_set(tree) and u != tree

    def test_antisymmetry_on_arity_three(self):
        found = enumerate_trees(3, GENERALIZED)
        for a in found:
            for b in found:
                if a in down_set(b) and b in down_set(a):
                    assert a == b


# -- relabelling ------------------------------------------------------------

def relabel(key, sigma):
    """(target key, orientation sign) of sigma (1-based images) on a tree."""
    image = _mask_image(sigma)
    src = _TreeShape(key)
    images = [image(m) for m in src.masks]
    target = tuple(sorted(images))
    sign, _moves = _relabel_slots(src, _TreeShape(target), images, image)
    return target, sign


class TestRelabel:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_permutation_against_the_walk(self, n):
        # The target, the sign and each slot's move: the root, the
        # vertices (the walk's paths) and the leaves.
        for key, sigma in itertools.product(
                enumerate_trees(n, GENERALIZED),
                itertools.permutations(range(1, n + 1))):
            children = _nested(key)
            smap = dict(enumerate(sigma, start=1))
            new, sign, moves = _walk_relabel(children, smap)
            src, tgt = _TreeShape(key), _TreeShape(_key_of(new))
            image = _mask_image(sigma)
            images = [image(m) for m in src.masks]
            assert tuple(sorted(images)) == tgt.key
            old_paths, new_paths = _vertex_paths(children), _vertex_paths(new)
            want = [(0, moves[()][1])] + [None] * len(src.masks)
            for old, (path, tau) in moves.items():
                if old:
                    want[new_paths.index(path) + 1] = (
                        old_paths.index(old) + 1, tau)
            new_leaves = [labels for _p, labels in _leaves(new)]
            for q, (_p, labels) in enumerate(_leaves(children),
                                             start=src.nv + 1):
                images_of = [smap[x] for x in labels]
                want[src.nv + 1 + new_leaves.index(tuple(sorted(images_of)))] \
                    = (q, tuple(sorted(images_of).index(y) for y in images_of))
            assert _relabel_slots(src, tgt, images, image) == (sign, want)

    def test_identity(self):
        tree = t("((([1],[2]),[3]))")
        assert relabel(tree, (1, 2, 3)) == (tree, 1)

    def test_inverse_composes_to_identity(self):
        sigma, inverse = (2, 3, 1), (3, 1, 2)
        for tree in enumerate_trees(3, GENERALIZED):
            mid, s1 = relabel(tree, sigma)
            back, s2 = relabel(mid, inverse)
            assert back == tree
            assert s1 * s2 == 1

    def test_sibling_vertex_swap_flips_sign(self):
        # Two vertex siblings under the root swap under (1 3)(2 4).
        tree = t("(([1],[2]),([3],[4]))")
        assert relabel(tree, (3, 4, 1, 2)) == (tree, -1)

    def test_two_vertex_chains_never_flip(self):
        # At three labels every vertex order is a chain, so signs are +1.
        for tree in enumerate_trees(3, GENERALIZED):
            for sigma in itertools.permutations((1, 2, 3)):
                assert relabel(tree, sigma)[1] == 1

    @settings(max_examples=40, deadline=None)
    @given(st.permutations([1, 2, 3, 4]), st.permutations([1, 2, 3, 4]),
           st.integers(min_value=0, max_value=114))
    def test_sign_is_multiplicative(self, p1, p2, index):
        found = enumerate_trees(4, GENERALIZED)
        tree = found[index % len(found)]
        mid, sign1 = relabel(tree, p1)
        out, sign2 = relabel(mid, p2)
        combined = tuple(p2[p1[k] - 1] for k in range(4))
        assert relabel(tree, combined) == (out, sign1 * sign2)


# -- cuts -------------------------------------------------------------------

def _disjoint_families(labels):
    """Every family of disjoint nonempty blocks of labels, blocks in
    least-label order."""
    for r in range(1, len(labels) + 1):
        for subset in itertools.combinations(labels, r):
            yield from set_partitions(subset)


def _cut(key, blocks):
    """_cutter's factor keys of a tree, or None."""
    got = _cutter(max(key).bit_length() - 1, blocks)(_TreeShape(key))
    return got and got[0]


class TestSubtreeIndexAndCut:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_the_full_walk(self, n):
        # Each family in least-label order, and reversed: the blocks'
        # order only orders the parts.
        cuts = [(blocks, _cutter(n, blocks), _cutter(n, blocks[::-1]))
                for blocks in _disjoint_families(tuple(range(1, n + 1)))]
        shapes = {}
        for key in enumerate_trees(n, GENERALIZED):
            children = _nested(key)
            index = _subtree_index(children)
            src = _TreeShape(key)
            for blocks, cut, cut_reversed in cuts:
                want = _walk_ungraft(children, index, blocks)
                got, back = cut(src), cut_reversed(src)
                if want is None:
                    assert got is None and back is None, (key, blocks)
                    continue
                keys, placed = got
                assert keys == [_key_of(f) for f in want], (key, blocks)
                assert back[0] == keys[:1] + keys[:0:-1]
                # Every slot of the tree is one node of one factor, with as
                # many children; only the skeleton's cut leaves are left.
                for k in keys:
                    if k not in shapes:
                        shapes[k] = _TreeShape(k)
                factors = [shapes[k] for k in keys]
                assert len(set(placed)) == len(placed) == sum(
                    len(f.masks) for f in factors) - len(blocks)
                for q, (j, mask) in enumerate(placed, start=1):
                    at = factors[j].slot[mask]
                    arity = (len(factors[j].kids[at]) if at <= factors[j].nv
                             else mask.bit_count())
                    assert arity == (len(src.kids[q]) if q <= src.nv
                                     else src.masks[q - 1].bit_count())


class TestUngraftPartition:
    def test_trivial_partition(self):
        tree = t("((([1],[2]),[3]))")
        assert _cut(tree, [(1, 2, 3)]) == [t("([1])"), tree]

    def test_singleton_partition(self):
        tree = t("(([1],[2]))")
        assert _cut(tree, [(1,), (2,)]) == [tree, t("([1])"), t("([1])")]

    def test_two_block_decomposition(self):
        tree = t("((([1],[2]),[3]))")
        assert _cut(tree, [(1, 2), (3,)]) == [
            t("(([1],[2]))"), t("(([1],[2]))"), t("([1])")]
        # The cut leaf counts as its block's least label.
        assert _cut(t("(([1],[3]),[2,4])"), [(2, 4)]) == [
            t("(([1],[3]),[2])"), t("([1,2])")]

    def test_not_of_type(self):
        star = t("(([1],[2],[3]))")
        assert _cut(star, [(1, 2), (3,)]) is None


# -- the weighting complex --------------------------------------------------

def _weighting_oracle(key):
    """The weighting complex of one tree, built alone: its down set
    ordered by serialize, and every cell's covers."""
    by_degree, position = {}, {}
    for u in sorted(down_set(key), key=serialize):
        cells = by_degree.setdefault(_nv(u), [])
        position[u] = len(cells)
        cells.append(u)
    rows = {}
    for k, cells in by_degree.items():
        out = rows[k] = {}
        for j, u in enumerate(cells):
            for sub, sign in covers(u):
                row = out.setdefault(position[sub], {})
                row[j] = row.get(j, 0) + sign
    return ({k: tuple(map(serialize, v)) for k, v in by_degree.items()},
            {k: {(i, j): v for i, row in r.items() for j, v in row.items()
                 if v} for k, r in rows.items()})


class TestWeightingComplex:
    def test_zero_vertex_tree(self):
        c = weighting_complexes(2)[t("([1,2])")]
        assert c.rank(0) == 1
        assert c.homology().groups == {0: (1, ())}

    def test_disc_contractibility_arity_four(self):
        complexes = weighting_complexes(4)
        assert list(complexes) == enumerate_trees(4, GENERALIZED)
        for tree, c in complexes.items():
            assert c.homology().groups == {0: (1, ())}, serialize(tree)

    def test_top_cell_is_single(self):
        tree = t("((([1],[2]),[3]))")
        c = weighting_complexes(3)[tree]
        assert c.rank(2) == 1
        assert c.labels(2) == ("((([1],[2]),[3]))",)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_each_complex_equals_its_tree_built_alone(self, n):
        for tree, c in weighting_complexes(n).items():
            labels, diffs = _weighting_oracle(tree)
            assert {k: c.labels(k) for k in c.degrees()} == labels
            assert {k: dict(m.entries()) for k, m in c.diffs.items()} == \
                {k: entries for k, entries in diffs.items() if entries}

    def test_bound(self):
        # A tree on n <= MAX_LABELS labels has at most n - 1 <= 7
        # vertices, so the label bound bounds the cells.
        with pytest.raises(BoundsError, match="label count 9 outside"):
            weighting_complexes(9)
        with pytest.raises(ValidationError, match="label count 2.0"):
            weighting_complexes(2.0)

    def test_down_set_and_cells_share_one_collapse_per_move(
            self, monkeypatch):
        calls = []
        move = trees.collapse

        def counted(shape, q, bud):
            calls.append((shape.key, q, bud))
            return move(shape, q, bud)

        monkeypatch.setattr(trees, "collapse", counted)
        weighting_complexes(5)
        monkeypatch.undo()
        # One call makes each move of each tree once, for its down set
        # and for every complex that holds it as a cell.
        moves = [(u, q, bud) for u in enumerate_trees(5, GENERALIZED)
                 for q, bud in _moves(_TreeShape(u))]
        assert sorted(calls) == sorted(moves)
        assert isinstance(covers(moves[-1][0]), tuple)


class TestMalformedKeys:
    @pytest.mark.parametrize("key,mask", [
        ((0,), "mask 0 "),
        ((3, 6), "mask 3 "),
        ((6, 10), "mask 10 overlaps a mask without nesting"),
        ((6, 4), "mask 4 is out of sorted order or repeated"),
        ((4, 4), "mask 4 is out of sorted order or repeated"),
        ((-2,), "mask -2 "),
        ((2.0,), "mask 2.0 "),
        ((True,), "mask True "),
        ((2, 6), "mask 6 is not the union"),
        ((2, 4, 14), "mask 14 is not the union"),
    ])
    @pytest.mark.parametrize("function", [covers, down_set, serialize])
    def test_bad_mask_is_named(self, function, key, mask):
        with pytest.raises(ValidationError, match=re.escape(mask)):
            function(key)

    @pytest.mark.parametrize("function", [covers, down_set, serialize])
    def test_key_is_a_tuple(self, function):
        with pytest.raises(ValidationError, match="a key is a tuple"):
            function([2, 4])

    def test_every_enumerated_key_is_valid(self):
        for key in _generalized(5):
            trees._check_key(key)