import itertools
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opbar.combinat import set_partitions
from opbar.errors import BoundsError, ParseError, ValidationError
from opbar.trees import (
    BUD,
    GENERALIZED,
    INTERNAL_EDGE,
    LEAF,
    ROOT,
    ROOT_EDGE,
    STANDARD,
    CollapseMove,
    CollapseResult,
    Tree,
    _canonical,
    _collapse,
    _leaf,
    _order_sign,
    _relabel,
    _replace_at,
    _tracked,
    _tree,
    collapse,
    collapse_moves,
    covers,
    down_set,
    enumerate_trees,
    graft,
    leq,
    make_tree,
    parse_tree,
    relabel,
    single_edge_tree,
    renumber,
    slot_walk,
    standard_tree_count,
    subtree_index,
    supported_trees,
    ungraft_at,
    ungraft_partition,
    w_cell_complex,
)

# Counts frozen from the recurrence oracle f({x}) = 1,
# f(S) = sum over partitions of S into >= 2 blocks of prod f(block).
STANDARD_COUNTS = {1: 1, 2: 1, 3: 4, 4: 26, 5: 236, 6: 2752, 7: 39208}


def t(serial):
    return parse_tree(serial)


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 4), (4, 26), (5, 236)])
    def test_standard_counts(self, n, count):
        trees = enumerate_trees(n, STANDARD)
        assert len(trees) == count
        assert len(trees) == standard_tree_count(n)

    def test_standard_counts_against_oracle_up_to_seven(self):
        for n, count in STANDARD_COUNTS.items():
            assert standard_tree_count(n) == count
        assert len(enumerate_trees(6, STANDARD, max_labels=8)) == 2752
        assert len(enumerate_trees(7, STANDARD, max_labels=8)) == 39208

    def test_generalized_two(self):
        assert len(enumerate_trees(2, GENERALIZED)) == 3

    def test_root_three(self):
        assert len(enumerate_trees(3, ROOT)) == 8

    def test_sorted_and_unique(self):
        for species in (STANDARD, GENERALIZED, ROOT, LEAF):
            trees = enumerate_trees(3, species)
            serials = [x.serialize() for x in trees]
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
        # enumerated; the order must be Tree.serialize's, byte for byte.
        for n in range(1, 7):
            every = range(1, n + 1)
            roots = (1,) if species in (STANDARD, ROOT) else every
            leaves = (1,) if species in (STANDARD, LEAF) else every
            got = supported_trees(n, roots, every, leaves)
            assert got == sorted(got, key=Tree.serialize)
            assert len({x.serialize() for x in got}) == len(got)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(st.just(n),
                            st.sets(st.integers(1, n)),
                            st.sets(st.integers(2, max(n, 2))),
                            st.sets(st.integers(1, n)))))
    def test_supports_filter_the_generalized_trees(self, drawn):
        n, roots, vertices, leaves = drawn

        def within(tree):
            return (len(tree.root_children) in roots
                    and all(len(tree.node_at(p)[1]) in vertices
                            for p in tree.vertex_paths())
                    and all(len(labs) in leaves for _p, labs in tree.leaves()))

        want = [x for x in enumerate_trees(n, GENERALIZED) if within(x)]
        assert supported_trees(n, roots, vertices, leaves) == want


class TestCanonicalForm:
    def test_canonicalization_idempotent(self):
        for tree in enumerate_trees(4, GENERALIZED, max_labels=4):
            assert make_tree(tree.root_children) == tree

    def test_children_sorted_by_min_label(self):
        tree = make_tree(parse_tree("(([3],([1],[2])))").root_children)
        assert tree.serialize() == "((([1],[2]),[3]))"

    def test_serialization_round_trip(self):
        for tree in enumerate_trees(4, GENERALIZED, max_labels=4):
            assert parse_tree(tree.serialize()) == tree

    @pytest.mark.parametrize("text", ["([1],[1])", "(([1],[2]),[2])",
                                      "([1,1])", "(([1]))", "([1],([2]))"])
    def test_repeated_label_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="position"):
            parse_tree(text)

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: Tree((("V", (("L", (1,)),)),)),
                     id="one-child-vertex"),
        pytest.param(lambda: make_tree(
            (("V", (("L", (1,)), ("L", (1, 2)))),)), id="repeated-label"),
        pytest.param(lambda: make_tree((("L", ()),)), id="empty-leaf"),
        pytest.param(lambda: Tree((("V", (("L", (2,)), ("L", (1,)))),)),
                     id="unsorted-children"),
        pytest.param(lambda: Tree((("L", (2, 1)),)), id="unsorted-leaf"),
    ])
    def test_vertex_needs_two_children(self, build):
        # Malformed or non-canonical input is refused where it enters;
        # make_tree canonicalizes first, Tree(...) does not.
        with pytest.raises(ValidationError):
            build()

    def test_species_property(self):
        assert t("(([1],[2]))").species == STANDARD
        assert t("([1,2])").species == ROOT
        assert t("([1],[2])").species == LEAF
        assert t("([1,2],[3])").species == GENERALIZED


class TestCovers:
    def test_one_vertex_tree_has_root_and_bud_cover(self):
        tree = t("(([1],[2]))")
        result = covers(tree)
        kinds = sorted(move.kind for _u, move in result)
        assert kinds == sorted([ROOT_EDGE, BUD])
        collapsed = {u.serialize() for u, _ in result}
        assert collapsed == {"([1],[2])", "([1,2])"}

    def test_binary_standard_tree_has_three_covers(self):
        tree = t("((([1],[2]),[3]))")
        result = covers(tree)
        assert len(result) == 3
        kinds = sorted(move.kind for _u, move in result)
        assert kinds == sorted([INTERNAL_EDGE, ROOT_EDGE, BUD])

    def test_zero_vertex_tree_has_no_covers(self):
        assert covers(t("([1],[2],[3])")) == ()
        assert covers(t("([1,2,3])")) == ()

    def test_covers_drop_exactly_one_vertex(self):
        for tree in enumerate_trees(4, GENERALIZED, max_labels=4):
            for u, _move in covers(tree):
                assert u.n_vertices == tree.n_vertices - 1
                assert u.labels == tree.labels


def _label_set(node):
    if node[0] == "L":
        return set(node[1])
    return set().union(*(_label_set(c) for c in node[1]))


def _ranks(keys):
    return tuple(sorted(keys).index(k) for k in keys)


class TestWalkAgainstLabelSets:
    """The canonicalizing walk's bookkeeping, checked on label sets alone."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_collapse_vertex_map_and_child_perm(self, n):
        for tree in enumerate_trees(n, GENERALIZED, max_labels=4):
            for kind, path in collapse_moves(tree):
                res = collapse(tree, kind, path)
                new_paths = res.tree.vertex_paths()
                assert sorted(res.vertex_map.values()) == sorted(new_paths)
                assert sorted(res.vertex_map) == sorted(
                    p for p in tree.vertex_paths() if p != path)
                for old, new in res.vertex_map.items():
                    assert _label_set(tree.node_at(old)) == \
                        _label_set(res.tree.node_at(new))
                if kind == BUD:
                    assert res.child_perm is None
                    continue
                parent = path[:-1]
                kids = tree.node_at(parent)[1]
                c = res.insert_pos - 1
                spliced = kids[:c] + tree.node_at(path)[1] + kids[c + 1:]
                merged = res.tree.node_at(res.vertex_map.get(parent, ()))
                for i, child in enumerate(spliced):
                    assert min(_label_set(child)) == min(
                        _label_set(merged[1][res.child_perm[i]]))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_relabel_paths_and_child_ranks(self, n):
        for tree in enumerate_trees(n, GENERALIZED, max_labels=4):
            for perm in itertools.permutations(range(1, n + 1)):
                sigma = dict(zip(range(1, n + 1), perm))
                new_tree, _sign, moves = _relabel(tree, sigma)
                assert sorted(moves) == [()] + tree.vertex_paths()
                assert sorted(new for new, _tau in moves.values()) == \
                    [()] + new_tree.vertex_paths()
                for old, (new, tau) in moves.items():
                    assert _label_set(new_tree.node_at(new)) == {
                        sigma[x] for x in _label_set(tree.node_at(old))}
                    assert tau == _ranks([
                        min(sigma[x] for x in _label_set(child))
                        for child in tree.node_at(old)[1]])


def _walk_collapse(tree, kind, path):
    """Reference collapse: tag every vertex with its path, splice, run the
    full canonicalizing walk and read the vertex order's sign off it."""
    node = tree.node_at(path)
    forest = tuple(_tracked(c, (i,)) for i, c in enumerate(tree.root_children))
    if kind == BUD:
        spliced = (_leaf(x for c in node[1] for x in c[1]),)
    else:
        spliced = _tracked(node, path)[1]
    children, moves = _canonical(_replace_at(forest, path, spliced))
    vertex_map = {source: new for source, (new, _tau) in moves.items()
                  if source}
    before = sum(1 for source in vertex_map if source < path)
    sign = (-1) ** before * _order_sign(vertex_map)
    if kind == BUD:
        return CollapseResult(_tree(children), CollapseMove(kind, path, sign),
                              vertex_map, None, None)
    return CollapseResult(_tree(children), CollapseMove(kind, path, -sign),
                          vertex_map, path[-1] + 1, moves[path[:-1]][1])


def _engine_result(tree, kind, path):
    """trees._collapse's plain values for one move, in the form of the
    reference: (root children, sign, target vertex order as source
    indices, insert_pos, child_perm)."""
    paths, _nodes, _leaves = slot_walk(tree)
    return _collapse(tree, kind, path, paths)


def _as_engine_values(tree, res):
    """A CollapseResult in the engine's form."""
    paths = tree.vertex_paths()
    order = sorted(res.vertex_map, key=res.vertex_map.__getitem__)
    return (res.tree.root_children, res.move.sign,
            tuple(paths.index(q) for q in order), res.insert_pos,
            res.child_perm)


class TestLocalCollapseAgainstTheWalk:
    # The engine assembly calls, the public collapse and the full-walk
    # reference agree on every move.
    @pytest.mark.parametrize("arities,species,n_trees,n_moves", [
        ((1, 2, 3, 4, 5), GENERALIZED, 1357, 4336),
        ((6,), STANDARD, 2752, 15475),
    ])
    def test_every_move(self, arities, species, n_trees, n_moves):
        trees = [x for n in arities for x in enumerate_trees(n, species)]
        moves = [(x, kind, path) for x in trees
                 for kind, path in collapse_moves(x)]
        assert (len(trees), len(moves)) == (n_trees, n_moves)
        for tree, kind, path in moves:
            reference = _walk_collapse(tree, kind, path)
            assert collapse(tree, kind, path) == reference, (tree, kind, path)
            assert _engine_result(tree, kind, path) == \
                _as_engine_values(tree, reference), (tree, kind, path)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_slot_walk(self, n):
        # Vertex paths in depth-first order, their nodes, and the leaves'
        # labels by least label, against the public readers.
        for tree in enumerate_trees(n, GENERALIZED):
            paths, nodes, leaves = slot_walk(tree)
            assert paths == sorted(paths) == tree.vertex_paths()
            assert nodes == [tree.node_at(q) for q in paths]
            assert leaves == [labels for _path, labels in tree.leaves()]


class TestPosetOrder:
    def test_reflexive(self):
        tree = t("(([1],[2]))")
        assert leq(tree, tree)

    def test_star_below_binary(self):
        star = t("(([1],[2],[3]))")
        for binary in enumerate_trees(3, STANDARD):
            if binary.n_vertices == 2:
                assert leq(star, binary)

    def test_distinct_binary_trees_incomparable(self):
        binaries = [x for x in enumerate_trees(3, STANDARD) if x.n_vertices == 2]
        assert len(binaries) == 3
        for a, b in itertools.permutations(binaries, 2):
            assert not leq(a, b)

    def test_covers_subset_of_down_set(self):
        for tree in enumerate_trees(3, GENERALIZED):
            for u, _move in covers(tree):
                assert leq(u, tree)

    def test_antisymmetry_on_arity_three(self):
        trees = enumerate_trees(3, GENERALIZED)
        for a in trees:
            for b in trees:
                if leq(a, b) and leq(b, a):
                    assert a == b


class TestGrafting:
    def test_figure_shape_graft(self):
        # Grafting a one-vertex tree on {1,2} onto the a-leaf of a
        # one-vertex tree on {a,3} yields the binary tree ((1,2),3).
        outer = make_tree((("V", (("L", (0,)), ("L", (3,)))),))
        inner = t("(([1],[2]))")
        grafted = graft(outer, 0, inner)
        assert grafted == t("((([1],[2]),[3]))")

    def test_unit_laws(self):
        tree = t("((([1],[2]),[3]))")
        assert graft(tree, 3, single_edge_tree((7,))) == \
            t("((([1],[2]),[7]))")
        assert graft(single_edge_tree((9,)), 9, tree) == tree

    def test_round_trip(self):
        outer = make_tree((("V", (("L", (0,)), ("L", (3,)))),))
        inner = t("(([1],[2]))")
        grafted = graft(outer, 0, inner)
        res = ungraft_partition(grafted, [(1, 2)])
        # The cut leaf counts as 1 and the skeleton {1, 3} becomes {1, 2}.
        assert res == (t("(([1],[2]))"), [inner], [(0, 0)])
        assert _regraft(grafted, [(1, 2)], res) == grafted

    def test_ungraft_absent(self):
        star = t("(([1],[2],[3]))")
        assert ungraft_partition(star, [(1, 2)]) is None

    def test_ungraft_single_edge(self):
        v = single_edge_tree((5,))
        res = ungraft_partition(v, [(5,)])
        assert res == (single_edge_tree((1,)), [v], [(0,)])

    def test_graft_requires_single_root_edge(self):
        with pytest.raises(ValidationError, match="single root edge"):
            graft(single_edge_tree((1,)), 1, t("([2],[3])"))

    def test_graft_requires_lone_label(self):
        with pytest.raises(ValidationError, match="only the grafting label"):
            graft(t("([1,2])"), 1, single_edge_tree((3,)))

    def test_all_ungrafts_invert_graft(self):
        for tree in enumerate_trees(4, GENERALIZED, max_labels=4):
            for b_size in (1, 2, 3):
                for b_side in itertools.combinations((1, 2, 3, 4), b_size):
                    res = ungraft_partition(tree, [b_side])
                    if res is not None:
                        assert _regraft(tree, [b_side], res) == tree
            for blocks in set_partitions((1, 2, 3, 4)):
                res = ungraft_partition(tree, blocks)
                if res is not None:
                    assert _regraft(tree, blocks, res) == tree

    def test_blocks_must_be_disjoint_labels_of_the_tree(self):
        tree = t("((([1],[2]),[3]))")
        for blocks in ([(1, 2), (2, 3)], [(4,)], [()], []):
            with pytest.raises(ValidationError, match="disjoint label sets"):
                ungraft_partition(tree, blocks)


def _full_walk_ungraft(v, blocks):
    """Reference for ungraft_partition on valid blocks: the single walk it
    made before it was split into subtree_index and ungraft_at."""
    blocks = [tuple(sorted(b)) for b in blocks]
    at = {}

    def index(node, path):
        labs = frozenset(node[1]) if node[0] == "L" else frozenset().union(
            *(index(c, path + (i,)) for i, c in enumerate(node[1])))
        at[labs] = path
        return labs

    for i, child in enumerate(v.root_children):
        index(child, (i,))
    cuts = [at.get(frozenset(block)) for block in blocks]
    if None in cuts:
        return None
    children = v.root_children
    for cut, block in zip(cuts, blocks):
        children = _replace_at(children, cut, (("L", (block[0],)),))
    return (renumber(_tree(children)),
            [_tree((v.node_at(c),)) for c in cuts], cuts)


def _disjoint_families(labels):
    """Every family of disjoint nonempty blocks of labels, blocks in
    least-label order."""
    for r in range(1, len(labels) + 1):
        for subset in itertools.combinations(labels, r):
            yield from set_partitions(subset)


def _index_and_cut(v, blocks):
    at = subtree_index(v)
    keys = [tuple(sorted(b)) for b in blocks]
    if not all(key in at for key in keys):
        return None
    cuts = [at[key] for key in keys]
    return (*ungraft_at(v, cuts), cuts)


class TestSubtreeIndexAndCut:
    @pytest.mark.parametrize("species,n", [
        (STANDARD, 1), (STANDARD, 2), (STANDARD, 3), (STANDARD, 4),
        (STANDARD, 5), (GENERALIZED, 3), (GENERALIZED, 4)])
    def test_matches_the_full_walk(self, species, n):
        # Each family in least-label order, and reversed for
        # ungraft_partition: the blocks' order only orders the parts.
        families = list(_disjoint_families(tuple(range(1, n + 1))))
        for tree in enumerate_trees(n, species):
            for blocks in families:
                want = _full_walk_ungraft(tree, blocks)
                assert _index_and_cut(tree, blocks) == want, (tree, blocks)
                back = ungraft_partition(tree, blocks[::-1])
                assert back == (want and (want[0], want[1][::-1],
                                          want[2][::-1])), (tree, blocks)

    def test_index_covers_every_node_below_the_root(self):
        tree = t("((([1],[2]),[3]),[4,5])")
        assert subtree_index(tree) == {
            (1, 2, 3): (0,), (1, 2): (0, 0), (1,): (0, 0, 0),
            (2,): (0, 0, 1), (3,): (0, 1), (4, 5): (1,)}


def _regraft(tree, blocks, res):
    """Graft the parts of res back into its skeleton, relabelled back onto
    tree's labels with each cut leaf labelled by its block's least label."""
    skeleton, parts, _cuts = res
    heads = [min(b) for b in blocks]
    kept = sorted(tree.labels.difference(*blocks) | set(heads))
    back, _sign = relabel(skeleton, {i + 1: x for i, x in enumerate(kept)})
    for head, part in zip(heads, parts):
        back = graft(back, head, part)
    return back


class TestUngraftPartition:
    def test_trivial_partition(self):
        tree = t("((([1],[2]),[3]))")
        res = ungraft_partition(tree, [(1, 2, 3)])
        assert res[:2] == (single_edge_tree((1,)), [tree])

    def test_singleton_partition(self):
        tree = t("(([1],[2]))")
        res = ungraft_partition(tree, [(1,), (2,)])
        assert res is not None
        skeleton, parts, _cuts = res
        assert skeleton == tree
        assert parts == [single_edge_tree((1,)), single_edge_tree((2,))]

    def test_two_block_decomposition(self):
        tree = t("((([1],[2]),[3]))")
        res = ungraft_partition(tree, [(1, 2), (3,)])
        assert res is not None
        skeleton, parts, cuts = res
        assert skeleton == t("(([1],[2]))")
        assert parts[0] == t("(([1],[2]))")
        assert parts[1] == single_edge_tree((3,))
        assert cuts == [(0, 0), (0, 1)]

    def test_not_of_type(self):
        star = t("(([1],[2],[3]))")
        assert ungraft_partition(star, [(1, 2), (3,)]) is None


class TestRelabel:
    def test_identity(self):
        tree = t("((([1],[2]),[3]))")
        out, sign = relabel(tree, {1: 1, 2: 2, 3: 3})
        assert out == tree and sign == 1

    def test_inverse_composes_to_identity(self):
        sigma = {1: 2, 2: 3, 3: 1}
        inv = {v: k for k, v in sigma.items()}
        for tree in enumerate_trees(3, GENERALIZED):
            mid, s1 = relabel(tree, sigma)
            back, s2 = relabel(mid, inv)
            assert back == tree
            assert s1 * s2 == 1

    def test_sibling_vertex_swap_flips_sign(self):
        # Two vertex siblings under the root swap under (1 3)(2 4).
        tree = t("(([1],[2]),([3],[4]))")
        out, sign = relabel(tree, {1: 3, 2: 4, 3: 1, 4: 2})
        assert out == tree
        assert sign == -1

    def test_two_vertex_chains_never_flip(self):
        # At three labels every vertex order is a chain, so signs are +1.
        for tree in enumerate_trees(3, GENERALIZED):
            for perm in itertools.permutations((1, 2, 3)):
                sigma = dict(zip((1, 2, 3), perm))
                _out, sign = relabel(tree, sigma)
                assert sign == 1

    @settings(max_examples=40, deadline=None)
    @given(st.permutations([1, 2, 3, 4]), st.permutations([1, 2, 3, 4]),
           st.integers(min_value=0, max_value=114))
    def test_sign_is_multiplicative(self, p1, p2, index):
        trees = enumerate_trees(4, GENERALIZED, max_labels=4)
        tree = trees[index % len(trees)]
        s1 = dict(zip((1, 2, 3, 4), p1))
        s2 = dict(zip((1, 2, 3, 4), p2))
        mid, sign1 = relabel(tree, s1)
        out, sign2 = relabel(mid, s2)
        combined = {k: s2[s1[k]] for k in s1}
        out2, sign12 = relabel(tree, combined)
        assert out == out2
        assert sign12 == sign1 * sign2


class TestWeightingComplex:
    def test_zero_vertex_tree(self):
        c = w_cell_complex(t("([1,2])"))
        assert c.rank(0) == 1
        assert c.homology().groups == {0: (1, ())}

    def test_disc_contractibility_arity_four(self):
        for tree in enumerate_trees(4, GENERALIZED, max_labels=4):
            c = w_cell_complex(tree)
            assert c.homology().groups == {0: (1, ())}, tree.serialize()

    def test_top_cell_is_single(self):
        tree = t("((([1],[2]),[3]))")
        c = w_cell_complex(tree)
        assert c.rank(tree.n_vertices) == 1

    def test_bound(self):
        with pytest.raises(BoundsError):
            w_cell_complex(t("(([1],[2]))"), max_vertices=0)

    def test_down_set_and_cells_share_one_collapse_per_move(
            self, monkeypatch):
        from opbar import trees
        calls = []
        collapse_once = trees.collapse

        def counted(tree, kind, path):
            calls.append((tree, kind, path))
            return collapse_once(tree, kind, path)

        monkeypatch.setattr(trees, "collapse", counted)
        covers.cache_clear()
        down_set.cache_clear()
        tree = t("(((([1],[2]),[3]),[4]),[5])")
        w_cell_complex(tree)
        moves = [(u, kind, path) for u in down_set(tree)
                 for kind, path in collapse_moves(u)]
        assert sorted(calls, key=repr) == sorted(moves, key=repr)
        assert isinstance(covers(tree), tuple)
