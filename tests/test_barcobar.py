import hashlib
import itertools
from math import comb

import pytest
from fractions import Fraction

from opbar import barcobar, exactla, trees
from opbar.barcobar import (
    BAR,
    COBAR,
    bar_cocomposition,
    bar_complex,
    cobar_complex,
    cobar_composition,
    cooperad_from_koszul,
    derivatives_homology,
    jacobi_relation,
    koszul,
    module_MX_homology,
    module_structure_maps,
    operad_from_koszul,
    reduced_bar,
    reduced_cobar,
    simplicial_bar_complex,
    symmetric_action,
)
from opbar.checks import (
    check_cobar_associativity,
    check_coassociativity,
    check_disjoint_cocompositions,
    check_module_pentagon_chain,
    check_unary_action_is_identity,
)
from opbar.combinat import canonical_partition, set_partitions
from opbar.errors import BoundsError, ValidationError
from opbar.exactla import (
    INT,
    RAT,
    ChainComplex,
    ExactMatrix,
    GradedFreeModule,
    HomologySummary,
    homology,
    tensor_list,
)
from opbar.opalg import (
    LEFT_COMODULE,
    LEFT_MODULE,
    RIGHT_COMODULE,
    RIGHT_MODULE,
    Operad,
    SidedModule,
    SymSeq,
    builtin,
    builtin_sphere_comodule,
    builtin_sphere_module,
    compose_product,
    constant_comodule,
    dual,
    unit_module,
)
from opbar.verify import stirling2
from test_exactla import dense_rank
from test_partition import cycle_types, sgn_lie_character
from test_trees import _nested, _nv, _slots


def factorial(n):
    out = 1
    for x in range(2, n + 1):
        out *= x
    return out


@pytest.fixture(scope="module")
def com():
    return builtin("com", 5)


@pytest.fixture(scope="module")
def ass():
    return builtin("ass", 4)


@pytest.fixture(scope="module")
def qcom(com):
    return dual(com)


@pytest.fixture(scope="module")
def bar_cache():
    return {}


class TestBarHomology:
    def test_arity_one_is_coefficient_product(self, com):
        bc = reduced_bar(com, 1)
        assert bc.homology().groups == {0: (1, ())}

    def test_ass_arity_two_suspension(self, ass):
        bc = reduced_bar(ass, 2)
        assert bc.homology().groups == {1: (2, ())}

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_com_bar_is_partition_homology(self, com, n):
        bc = reduced_bar(com, n)
        assert bc.homology().groups == {n - 1: (factorial(n - 1), ())}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ass_bar_free_rank_factorial(self, ass, n):
        bc = reduced_bar(ass, n)
        assert bc.homology().groups == {n - 1: (factorial(n), ())}

    def test_bigrading_of_differential(self, com):
        bc = reduced_bar(com, 4)
        for d, mat in bc.complex.diffs.items():
            for (i, j), _v in mat.entries():
                src = bc.complex.labels(d)[j]
                tgt = bc.complex.labels(d - 1)[i]
                assert src.tree_degree - tgt.tree_degree == 1
                assert src.internal_degree == tgt.internal_degree


def _reordered_merges(structure, arity):
    """The distinct (m_out, insert_pos, k_inner, tau) of the inner edge
    collapses of the standard trees whose merged vertex arity has nonzero
    rank and whose child order changes."""
    out = set()
    for key in trees.enumerate_trees(arity):
        shape = trees._TreeShape(key)
        for q in range(1, shape.nv + 1):
            up = shape.parent[q]
            if not up:
                continue
            m_out, k_inner = len(shape.kids[up]), len(shape.kids[q])
            _k, _s, _sign, ins, tau = trees.collapse(shape, q, False)
            if structure.rank(m_out + k_inner - 1) and \
                    tau != tuple(range(len(tau))):
                out.add((m_out, ins, k_inner, tau))
    return out


def test_assembly_makes_no_label_lookups_and_no_tree_walks(monkeypatch):
    # The differential reads positions recorded with the basis, every
    # tree's masks in slot order come with the enumeration, and the
    # matrix of each reordered merge is multiplied once per complex; none
    # hashes labels or walks a key.
    com = builtin("com", 5)
    merges = _reordered_merges(com, 5)
    # A first build fills the structure's own action and partial caches.
    reduced_bar(com, 5)
    calls = {"position": 0, "_mask_walk": 0, "_children": 0, "__mul__": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    monkeypatch.setattr(GradedFreeModule, "position",
                        counted("position", GradedFreeModule.position))
    for name in ("_mask_walk", "_children"):
        monkeypatch.setattr(trees, name, counted(name, getattr(trees, name)))
    monkeypatch.setattr(ExactMatrix, "__mul__",
                        counted("__mul__", ExactMatrix.__mul__))
    bc = reduced_bar(com, 5)
    # Besides the merges, the d^2 = 0 check multiplies consecutive
    # differentials.
    d_squared = sum(1 for k in bc.complex.diffs if k + 1 in bc.complex.diffs)
    assert len(merges) > 1
    assert calls == {"position": 0, "_mask_walk": 0, "_children": 0,
                     "__mul__": len(merges) + d_squared}


def _signature(shape):
    """A tree's vertex count and slot arities, which fix its _Slots within
    one complex."""
    return shape.nv, (*map(len, shape.kids),
                      *(m.bit_count() for m in shape.masks[shape.nv:]))


def _collapse_table_keys(r_mod, p, l_mod, arity):
    """(moves, distinct table keys, distinct templates) of the
    differential of the complex of these inputs.  A move's table key is
    the signatures of its source and target, the plan of trees.collapse,
    and its merged slot's matrix key: (outer slot, m_out, insert_pos,
    k_inner, tau) for an edge, the canonical blocks of the left action
    for a bud.  Its template is the source's signature, vertex parents
    and slot count, q and bud, then for an edge which spliced children
    are vertices, tau and insert_pos, for a bud q's leaves and the
    blocks.  Every move is collapsed, and all moves of one template must
    give one plan, sign, target signature and matrix key, which is what
    lets the complex collapse once per template."""
    supports = [{n for n in range(1, arity + 1) if seq.rank(n)}
                for seq in (r_mod, p, l_mod)]
    found = {key: (masks, nv, children) for key, masks, nv, children,
             _arities in trees.supported_trees(arity, *supports)}
    moves, keys, templates = 0, set(), {}
    for key, (masks, nv, children) in found.items():
        shape = trees._TreeShape(key, masks, nv, children)
        for q in range(1, nv + 1):
            up, kids = shape.parent[q], shape.kids[q]
            m_out = len(shape.kids[up])
            buds = []
            if m_out + len(kids) - 1 in supports[1 if up else 0]:
                buds.append(False)
            if min(kids) > nv and masks[q - 1].bit_count() in supports[2]:
                buds.append(True)
            for bud in buds:
                tkey, plan, sign, ins, tau = trees.collapse(shape, q, bud)
                if bud:
                    labels = [x for x in range(arity + 1)
                              if masks[q - 1] >> x & 1]
                    matrix = canonical_partition(
                        [[i for i, x in enumerate(labels, start=1)
                          if masks[r - 1] >> x & 1] for r in kids])
                    rest = (tuple(kids), matrix)
                else:
                    matrix = ("v" if up else "root", m_out, ins, len(kids),
                              tau)
                    siblings = shape.kids[up]
                    i = siblings.index(q)
                    spliced = siblings[:i] + kids + siblings[i + 1:]
                    rest = (tuple(r <= nv for r in spliced), tau, ins)
                moves += 1
                target = _signature(trees._TreeShape(tkey, *found[tkey]))
                keys.add((_signature(shape), target, tuple(plan), matrix))
                template = (_signature(shape), tuple(shape.parent[:nv + 1]),
                            len(shape.parent), q, bud, rest)
                fixed = (tuple(plan), sign, target, matrix)
                assert templates.setdefault(template, fixed) == fixed, \
                    (key, q, bud)
    return moves, len(keys), len(templates)


def _counted_compiles(monkeypatch):
    compiled = []
    compile_plan = barcobar._plan_table
    monkeypatch.setattr(barcobar, "_plan_table", lambda *args: compiled.append(
        args) or compile_plan(*args))
    return compiled


def _sphere2_inputs():
    sphere = builtin_sphere_comodule(2, 4)
    return unit_module(sphere.over, RIGHT_COMODULE), sphere.over, sphere


# (moves, tables, templates): 8,596 and 550 moves share 243 and 69 plans
# and 615 and 123 templates; the sphere cobar complex's buds need their
# blocks in the key.
@pytest.mark.parametrize("build,inputs,arity,counts", [
    (bar_complex, lambda: (unit_module(builtin("com", 6), RIGHT_MODULE),
                           builtin("com", 6),
                           unit_module(builtin("com", 6), LEFT_MODULE)),
     6, (8596, 243, 615)),
    (bar_complex, lambda: (unit_module(builtin("ass", 5), RIGHT_MODULE),
                           builtin("ass", 5),
                           unit_module(builtin("ass", 5), LEFT_MODULE)),
     5, (550, 69, 123)),
    (cobar_complex, _sphere2_inputs, 4, None),
], ids=["bar-com-6", "bar-ass-5", "cobar-sphere2-4"])
def test_each_collapse_plan_is_compiled_once_per_complex(
        monkeypatch, build, inputs, arity, counts):
    # trees.collapse runs once per template and each table compiles once.
    r_mod, p, l_mod = inputs()
    moves, tables, templates = _collapse_table_keys(r_mod, p, l_mod, arity)
    if counts is not None:
        assert (moves, tables, templates) == counts
    assert tables <= templates < moves
    collapsed = []
    collapse = trees.collapse
    monkeypatch.setattr(trees, "collapse", lambda *args: collapsed.append(
        args) or collapse(*args))
    compiled = _counted_compiles(monkeypatch)
    build(r_mod, p, l_mod, arity)
    assert (len(collapsed), len(compiled)) == (templates, tables)


def test_koszul_ass_compiles_89_tables(monkeypatch):
    # The five bar complexes of koszul(ass, 5), one build each.
    compiled = _counted_compiles(monkeypatch)
    koszul(builtin("ass", 5), 5, with_structure=False)
    assert len(compiled) == 89


def test_actions_and_splits_compile_each_plan_once_per_map(monkeypatch):
    ass = builtin("ass", 4)
    cache = {}
    bc, skeleton, part = (reduced_bar(ass, n, cache) for n in (4, 3, 2))
    sigma = (2, 4, 1, 3)
    image = trees._mask_image(sigma)
    cut = trees._cutter(4, [(2, 3)])
    action_keys, split_keys = set(), set()
    for key in bc.trees():
        src = trees._TreeShape(key)
        images = [image(m) for m in src.masks]
        tgt = trees._TreeShape(tuple(sorted(images)))
        _sign, moves = trees._relabel_slots(src, tgt, images, image)
        action_keys.add((_signature(src), _signature(tgt), tuple(moves)))
        split = cut(src)
        if split is None or split[0][0] not in skeleton.trees() or \
                split[0][1] not in part.trees():
            continue
        factors = [trees._TreeShape(k) for k in split[0]]
        # The skeleton's root and every source slot are copied.
        plans = [[None] * (1 + len(f.masks)) for f in factors]
        plans[0][0] = 0
        for q, (j, mask) in enumerate(split[1], start=1):
            plans[j][factors[j].slot[mask]] = q
        split_keys.add((_signature(src), tuple(map(_signature, factors)),
                        tuple(x for plan in plans for x in plan)))
    assert 0 < len(action_keys) < len(bc.trees())
    assert 0 < len(split_keys) < len(bc.trees())
    compiled = _counted_compiles(monkeypatch)
    symmetric_action(bc, sigma)
    assert len(compiled) == len(action_keys)
    del compiled[:]
    bar_cocomposition(ass, 4, 2, (1, 4, 2), (2, 3), cache)
    assert len(compiled) == len(split_keys)


def _complex_digest(complex_):
    """sha256 of the label reprs per degree and the sorted differential
    entries, each value written as str(Fraction(v))."""
    h = hashlib.sha256()
    for d in complex_.degrees():
        h.update(f"degree {d}\n".encode())
        for lab in complex_.labels(d):
            h.update(f"{lab!r}\n".encode())
    for k in sorted(complex_.diffs):
        h.update(f"d {k}\n".encode())
        for (i, j), v in sorted(complex_.diffs[k].entries()):
            h.update(f"{i} {j} {Fraction(v)}\n".encode())
    return h.hexdigest()


def _sphere_cobar(arity):
    sphere = builtin_sphere_comodule(2, 4)
    return cobar_complex(unit_module(sphere.over, RIGHT_COMODULE),
                         sphere.over, sphere, arity)


def _mixed_degree_cobar(arity):
    """One-sided cobar complex on the comodule of X = <a, b>, |a| = 1 and
    |b| = 2, with zero coproduct: a tree's decorations span degrees."""
    x = GradedFreeModule({1: ("a",), 2: ("b",)})
    comodule = constant_comodule(x, ExactMatrix.zero(4, 2), arity)
    q = comodule.over
    return cobar_complex(unit_module(q, RIGHT_COMODULE), q, comodule, arity)


# Digests computed with the code of commit d4debb1, before collapses were
# made local and the differential read positions from per-tree tables.
@pytest.mark.parametrize("build,digest", [
    (lambda: reduced_bar(builtin("com", 5), 5),
     "582d6cb40ef78f7d7ff351c32ecf301b1c371e93421f55de1bd23ad569c05e28"),
    (lambda: reduced_bar(builtin("ass", 4), 4),
     "aa0e8de7d7bfaf724c719d9a77fa32bab54609619282ae5cec080ff73ec1cfc8"),
    (lambda: reduced_cobar(dual(builtin("com", 5)), 4),
     "da381a7b74f8ad788ee9f253fc62aa0f1a043313453d2cca4afd939c8967cf76"),
    (lambda: _sphere_cobar(4),
     "8a7a9a9010a527fd8a2fc6f3b1b1b7a5c50e782fcc4cb0f4b9fe4ce2c9729b15"),
], ids=["bar-com-5", "bar-ass-4", "cobar-dual-com-4", "cobar-sphere2-4"])
def test_complexes_match_pinned_digests(build, digest):
    assert _complex_digest(build().complex) == digest


def _sphere3_cobar(arity):
    sphere = builtin_sphere_comodule(3, 4)
    return cobar_complex(unit_module(sphere.over, RIGHT_COMODULE),
                         sphere.over, sphere, arity)


def _simplicial(op, l_mod, arity):
    return simplicial_bar_complex(unit_module(op, RIGHT_MODULE), op, l_mod,
                                  arity)


# Digests computed with the code of commit 28107a0, before collapse moves
# became integer work and the plan evaluator read flat indices: the larger
# bar complexes, decorations of odd degree (where the Koszul sign of a
# degree tuple matters) and the simplicial complexes, which share the
# evaluator.
@pytest.mark.parametrize("build,digest", [
    (lambda: reduced_bar(builtin("com", 6), 6).complex,
     "559253e994a231f276a1f891bced238e4d3882f5858a28676b85730a129b27be"),
    (lambda: reduced_bar(builtin("ass", 5), 5).complex,
     "2fe1a8ee84b63c20e73ae3a4b8c84dd874d263b9b659c18a55cdf0ed85e15023"),
    (lambda: _mixed_degree_cobar(4).complex,
     "cfaae615a01bd7f1533d1daf09dfa5d235e943e390438633151d9ad958b9de3a"),
    (lambda: _sphere3_cobar(4).complex,
     "a3a03d5b38d80a41a94c79a1596853cf593a0ead57110fce242e424ed0fbc6ed"),
    (lambda: _simplicial(builtin("com", 4), unit_module(
        builtin("com", 4), LEFT_MODULE), 4),
     "cad18618f2c398ccc6c49cf513056d4a950df5fe74760dd369fb5af073cfceb1"),
    (lambda: _simplicial(builtin("com", 4), builtin_sphere_module(1, 4), 3),
     "335f10ba090ba3bfe88098b9e16f1ec38f4d7f8a889df6ba64604b66c354d637"),
], ids=["bar-com-6", "bar-ass-5", "cobar-mixed-4", "cobar-sphere3-4",
        "simplicial-com-4", "simplicial-sphere1-3"])
def test_larger_complexes_match_pinned_digests(build, digest):
    assert _complex_digest(build()) == digest


def _maps_digest(maps):
    """sha256 of a sequence of {degree: matrix} dicts: each matrix's
    degree, shape and sorted entries, each value as str(Fraction(v))."""
    h = hashlib.sha256()
    for mats in maps:
        h.update(b"map\n")
        for d in sorted(mats):
            m = mats[d]
            h.update(f"m {d} {m.nrows} {m.ncols}\n".encode())
            for (i, j), v in sorted(m.entries()):
                h.update(f"{i} {j} {Fraction(v)}\n".encode())
    return h.hexdigest()


def _canonical_splits(total):
    """(a, a_side, b_side) of every canonical split, as koszul takes them."""
    for k in range(1, total + 1):
        for a in range(1, total - k + 2):
            b_side = tuple(range(a, a + k))
            a_side = tuple(x for x in range(1, total + 1)
                           if x < a or x >= a + k) + (a,)
            yield a, a_side, b_side


def _split_maps(split, structure, arity):
    cache = {}
    return [split(structure, arity, a, a_side, b_side, cache).mats
            for a, a_side, b_side in _canonical_splits(arity)]


def _adjacent_actions(bc):
    out = []
    for i in range(1, bc.arity):
        sigma = list(range(1, bc.arity + 1))
        sigma[i - 1], sigma[i] = sigma[i], sigma[i - 1]
        out.append(symmetric_action(bc, tuple(sigma)))
    return out


def _module_maps(cc):
    return [module_structure_maps(cc, blocks, {}).mats
            for blocks in set_partitions(range(1, cc.arity + 1))]


def _pinned_map_builds():
    """case -> build of the maps it pins: the canonical splits at one
    arity, the adjacent transpositions on one complex, or the module maps
    of a one-sided cobar complex at arity 3 for every partition."""
    builds = {"module-sphere2-3": lambda: _module_maps(_sphere_cobar(3)),
              "action-sphere2-3": lambda: _adjacent_actions(_sphere_cobar(3)),
              "module-mixed-3": lambda: _module_maps(_mixed_degree_cobar(3)),
              "action-mixed-3": lambda: _adjacent_actions(
                  _mixed_degree_cobar(3))}
    for name in ("com", "ass"):
        for n in range(1, 6):
            builds[f"cocomp-{name}-{n}"] = lambda name=name, n=n: _split_maps(
                bar_cocomposition, builtin(name, 5), n)
            if n > 1:
                builds[f"action-{name}-{n}"] = lambda name=name, n=n: \
                    _adjacent_actions(reduced_bar(builtin(name, 5), n))
    for n in range(1, 5):
        builds[f"comp-dual-com-{n}"] = lambda n=n: _split_maps(
            cobar_composition, dual(builtin("com", 5)), n)
        if n > 1:
            builds[f"action-dual-com-{n}"] = lambda n=n: _adjacent_actions(
                reduced_cobar(dual(builtin("com", 5)), n))
    return builds


_PINNED_MAP_BUILDS = _pinned_map_builds()

# Digests computed with the code of commit befc79c, before ungrafting and
# the symmetric action read per-tree records.
PINNED_MAP_DIGESTS = {
    "action-ass-2":
        "3a09032435467142450a7875becd2204d234ebf54c4d34294e481c2f84c114bc",
    "action-ass-3":
        "282f66d4cf34a72f9fddd3755bf8d578b719c70b6c0eb0a1dbbb3cf2af00bace",
    "action-ass-4":
        "60d49ee1afba2c9ba9e2e36d81cbab83912bce8c56d0c59dba4d2f05a617fd60",
    "action-ass-5":
        "c047cc5d3d932b1750097b3477cd527b5f8d0926fb5351c31f59f5f7abdb4976",
    "action-com-2":
        "53aa7fbd677919c35cd6388d170a45e3abc4d1f2b095b5ac2df32fa418213aca",
    "action-com-3":
        "bcc35cfc3438e95cc1414d48d3c988e3513f70c7942c388da7ee26ff3344e746",
    "action-com-4":
        "eac688011c09fc1bd3a3f74fec87d90f7f80fb828b48e698ece0da4b188f7902",
    "action-com-5":
        "6a2e7a8ba5c86552c1ae1a57c959d35395ad2f6039a5f113ccafe4939da8edf6",
    "action-dual-com-2":
        "28b262fed7e1374d7aa419f8fd41bc931595ce03eea053d676d3ab6c67a58b37",
    "action-dual-com-3":
        "290a7b97ba0bd2fbae5b1539537a7bc0033c2c6fe1a55576422ddd4d829e8078",
    "action-dual-com-4":
        "634f40544b4a2d7f525c838dc37ab6e2a88b4311b547886b31f3d5d9ca2618ed",
    "action-mixed-3":
        "25082af335532128dcb1dfd3b7d5ca13c4b87b740b11e382e5eb050006064218",
    "action-sphere2-3":
        "3e973eac72fe8bf0e9d7460974d2c20d018cf76ca857eadc8f02a7d18fa512d6",
    "cocomp-ass-1":
        "b2320d791190f005b6ae52bf67626e7c24b76cc3447bcaf7f69f5d4169123bd3",
    "cocomp-ass-2":
        "cee6b8739f49720bf7193c76f46048bee4a52bd62b512d71034c807fe71e3515",
    "cocomp-ass-3":
        "cb521c6110a159fda2f6e005ef7e9a327630ffbe9362f5dce530a4ea0d8abb8f",
    "cocomp-ass-4":
        "d74a340184f36328c99c9fee0405071b4941450d0cb1dd294520078f2dac0b21",
    "cocomp-ass-5":
        "2ba3b08e340779fd9e11d3d8b8be4605ae2471a56a418ed4f595eb906854c364",
    "cocomp-com-1":
        "b2320d791190f005b6ae52bf67626e7c24b76cc3447bcaf7f69f5d4169123bd3",
    "cocomp-com-2":
        "b4c48c9fa115ccfbb7adab18592e780b44aa4648fea1fbaa976228bf94a5bc84",
    "cocomp-com-3":
        "88a19676393710f6bb0e1f13a654b32f4f29a1e04a210ac0f1154eb8639092c4",
    "cocomp-com-4":
        "96cc9e67673f2c32c39a06873e220296aead96e312445494f54e73b3d8750499",
    "cocomp-com-5":
        "0783d24d37bceeb5217b0ce3cf0f783dea2a1c728edb1939374c84ec4c3f0713",
    "comp-dual-com-1":
        "b2320d791190f005b6ae52bf67626e7c24b76cc3447bcaf7f69f5d4169123bd3",
    "comp-dual-com-2":
        "19e7476654decf56bd0656ffabbd2b3d034ac7b598de3ce768a5d8eaa97ee31b",
    "comp-dual-com-3":
        "ecac4a629670de608406f25c33d9b927b7b7a773ef42e1e32643eafdb2ff4b65",
    "comp-dual-com-4":
        "9ab36f0763f9fba8d4cfd229139d2ccea3aab5acb370a837fdc9e12e5142086b",
    "module-mixed-3":
        "aeaa94702cd2155803bca43ec8fdec019e7f5fd56e35cc305e21267498a1e63f",
    "module-sphere2-3":
        "1bdcd7f797cc26cb52241a6717ad419883a72cdf1e290fbe9b00dd16e6783230",
}


@pytest.mark.parametrize("case", sorted(_PINNED_MAP_BUILDS))
def test_structure_maps_match_pinned_digests(case):
    assert _maps_digest(_PINNED_MAP_BUILDS[case]()) == \
        PINNED_MAP_DIGESTS[case]


def _every_action(bc):
    return [symmetric_action(bc, sigma)
            for sigma in itertools.permutations(range(1, bc.arity + 1))]


def _report_maps(report):
    """The homology action matrices, keyed (arity, generator), then the
    induced structure matrices of a Koszul report, as two maps."""
    return [{(n, i): m for n, mats in report.actions.items()
             for i, m in enumerate(mats)}, dict(report.structure)]


_PINNED_ACTION_BUILDS = {
    "every-action-com-4": lambda: _every_action(
        reduced_bar(builtin("com", 4), 4)),
    "every-action-ass-4": lambda: _every_action(
        reduced_bar(builtin("ass", 4), 4)),
    "every-action-dual-com-4": lambda: _every_action(
        reduced_cobar(dual(builtin("com", 4)), 4)),
    "every-action-sphere2-3": lambda: _every_action(_sphere_cobar(3)),
    "every-action-mixed-3": lambda: _every_action(_mixed_degree_cobar(3)),
    "koszul-com-5": lambda: _report_maps(koszul(builtin("com", 5), 5)),
    "koszul-ass-4": lambda: _report_maps(koszul(builtin("ass", 4), 4)),
    "koszul-dual-com-4": lambda: _report_maps(
        koszul(dual(builtin("com", 4)), 4)),
}

# Digests computed with the code of commit e230303, before the symmetric
# action and ungrafting read bitmask tree keys: every permutation of the
# arity on five complexes (leaves with several labels, decorations of odd
# degree), and the actions and structure maps on homology of three Koszul
# reports.
PINNED_ACTION_DIGESTS = {
    "every-action-ass-4":
        "53139bb2b0113fa37dcd403380f28286839d14c851f74199eba24f7858dc9a55",
    "every-action-com-4":
        "ef181ecaa19eeb8fd58e22af199817f99439c6e4a8b4e5bfc3f8036ea4500e16",
    "every-action-dual-com-4":
        "d798ff7b7ba615cd446ea0092e6319a5c78b49af2972e2a0ba8ec92ca9a72447",
    "every-action-mixed-3":
        "f9569b375f83cd4c5f54ab7cfdc90ca3fedc373d94597156201e6ff4d0a32f93",
    "every-action-sphere2-3":
        "bd59bf453e32832f5bc8b0bf341710404ff63163754edfab6cd0953e7729fd1a",
    "koszul-ass-4":
        "1fbc7bfaef100d91cdaa3e8cfa474bf25c3e7925b93677463618f736e04fedd0",
    "koszul-com-5":
        "8ed50b10d6a2b39b9ef6f6a5dc1e5f963a480b8b06cb6913d0c50ed5eb762cf9",
    "koszul-dual-com-4":
        "2e3b19912b2c7b6c5d01976511ae7bfd9aeffde813d6ad65c085bae7c0fa353b",
}


@pytest.mark.parametrize("case", sorted(_PINNED_ACTION_BUILDS))
def test_every_action_and_koszul_maps_match_pinned_digests(case):
    assert _maps_digest(_PINNED_ACTION_BUILDS[case]()) == \
        PINNED_ACTION_DIGESTS[case]


def _standard_trees_by_vertices(n):
    """[number of standard trees on n labels with v vertices, v = 0, 1,
    ...], by a recurrence on polynomials in x (x counts vertices): F_1 = 1
    (a leaf), F_k = x * sum over 1 <= j < k of C(k-1, j-1) F_j P_(k-j),
    with P_m = sum over 1 <= j <= m of C(m-1, j-1) F_j P_(m-j) and P_0 = 1
    the sum over set partitions of m labels of the product of F over the
    blocks, the block of the least label taken first.  A standard tree's
    root edge carries one subtree on all the labels."""
    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def add(a, b):
        out = [0] * max(len(a), len(b))
        for i, x in enumerate(a):
            out[i] += x
        for i, y in enumerate(b):
            out[i] += y
        return out

    f, p = {1: [1]}, {0: [1]}
    for k in range(1, n + 1):
        if k > 1:
            inner = [0]
            for j in range(1, k):
                inner = add(inner, [comb(k - 1, j - 1) * c
                                    for c in mul(f[j], p[k - j])])
            f[k] = [0] + inner
        p[k] = [0]
        for j in range(1, k + 1):
            p[k] = add(p[k], [comb(k - 1, j - 1) * c
                              for c in mul(f[j], p[k - j])])
    return f[n]


@pytest.mark.slow
def test_reduced_bar_of_com_at_arity_seven():
    by_vertices = _standard_trees_by_vertices(7)
    want = {v: c for v, c in enumerate(by_vertices) if c}
    assert want == {1: 1, 2: 119, 3: 1918, 4: 9450, 5: 17325, 6: 10395}
    assert sum(want.values()) == trees.standard_tree_count(7)
    assert _standard_trees_by_vertices(4) == [0, 1, 10, 15]
    bc = reduced_bar(builtin("com", 7), 7)
    assert {d: bc.complex.rank(d) for d in bc.complex.degrees()} == want
    assert bc.complex.homology().groups == {6: (720, ())}


def test_actions_and_cuts_walk_no_tree_twice(monkeypatch):
    com = builtin("com", 4)
    qcom = dual(com)
    cc = _sphere_cobar(3)
    cache = {}

    def run():
        bc = reduced_bar(com, 4, cache)
        for sigma in itertools.permutations((1, 2, 3, 4)):
            symmetric_action(bc, sigma)
        for a, a_side, b_side in _canonical_splits(4):
            bar_cocomposition(com, 4, a, a_side, b_side, cache)
            cobar_composition(qcom, 4, a, a_side, b_side, cache)
        for blocks in set_partitions((1, 2, 3)):
            module_structure_maps(cc, blocks, cache)
        symmetric_action(cc, (2, 3, 1))

    # The first run builds the complexes and walks each record's key once.
    run()
    walks = []
    walk = trees._mask_walk
    monkeypatch.setattr(trees, "_mask_walk",
                        lambda key: walks.append(key) or walk(key))
    run()
    assert walks == []


def _structure_checks(cache):
    """The (co)associativity checks of the structure-checks benchmark set;
    returns the number of instances checked."""
    instances = 0
    for op in (builtin("com", 4), builtin("ass", 4)):
        instances += check_coassociativity(op, 3, cache)
        instances += check_coassociativity(op, 4, cache)
        instances += check_disjoint_cocompositions(op, 4, cache)
    qcom = dual(builtin("com", 4))
    instances += check_cobar_associativity(qcom, 3, cache)
    instances += check_cobar_associativity(qcom, 4, cache)
    return instances


def _module_checks(cache):
    """The module checks of the structure-checks benchmark set: the unary
    action and every pentagon of the sphere cobar module at arity 3."""
    qcom = dual(builtin("com", 4))
    cc = cobar_complex(unit_module(qcom, RIGHT_COMODULE), qcom,
                       builtin_sphere_comodule(2, 4), 3)
    return [check_unary_action_is_identity(cc, cache)] + [
        check_module_pentagon_chain(cc, lam, grouping, cache)
        for lam in set_partitions(range(1, 4))
        for grouping in set_partitions(range(len(lam)))]


def test_check_maps_are_built_once_per_check_call(monkeypatch):
    from opbar import checks
    tensors, identities = [], []
    tensor = checks.tensor_chain_maps
    identity = exactla.ChainMap.identity.__func__
    monkeypatch.setattr(checks, "tensor_chain_maps",
                        lambda maps: tensors.append(maps) or tensor(maps))
    monkeypatch.setattr(exactla.ChainMap, "identity", classmethod(
        lambda cls, c: identities.append(c) or identity(cls, c)))
    cache = {}
    assert _structure_checks(cache) == 222
    module_checks = _module_checks(cache)
    assert len(module_checks) == 13 and all(module_checks)
    # 468 tensors and 485 identities when each instance built its own, 60
    # identities when each pentagon built its parts' identities per use.
    assert (len(tensors), len(identities)) == (203, 50)


def test_factor_columns_are_built_once_per_map(monkeypatch):
    from opbar import checks
    passed, built = [], []
    tensor = checks.tensor_chain_maps
    columns = exactla._columns_in

    def counted(mats, source, target, shift):
        # shift 0: a map's columns; shift 1: a complex's boundary columns.
        built.append((shift, mats))
        return columns(mats, source, target, shift)

    monkeypatch.setattr(checks, "tensor_chain_maps",
                        lambda maps: passed.extend(maps) or tensor(maps))
    monkeypatch.setattr(exactla, "_columns_in", counted)
    cache = {}
    assert _structure_checks(cache) == 222
    assert all(_module_checks(cache))
    # passed holds every map, so no id is reused while this runs.
    distinct = {id(f) for f in passed}
    map_builds = [id(mats) for shift, mats in built if shift == 0]
    assert len(map_builds) == len(set(map_builds)) == len(distinct)
    # Each complex, a product's factor, builds its boundary columns once.
    complex_builds = [id(mats) for shift, mats in built if shift == 1]
    assert complex_builds and len(complex_builds) == len(set(complex_builds))


def test_records_are_listed_once_per_complex(monkeypatch):
    built, calls = [], []
    record, tree_record = barcobar.BarComplex.record, barcobar._TreeRecord
    monkeypatch.setattr(barcobar, "_TreeRecord", lambda *args: (
        built.append((id(args[4]), args[0])) or tree_record(*args)))
    monkeypatch.setattr(barcobar.BarComplex, "record", lambda bc, key: (
        calls.append(key) or record(bc, key)))
    bc = _sphere_cobar(3)
    first = symmetric_action(bc, (2, 3, 1))
    listed = bc.records()
    assert [rec.key for rec in listed] == list(bc.trees())
    # Later calls return the kept tuple and look up no record.
    calls.clear()
    assert bc.records() is listed and calls == []
    cache = {}
    for blocks in set_partitions((1, 2, 3)):
        module_structure_maps(bc, blocks, cache)
    again = symmetric_action(bc, (2, 3, 1))
    assert bc.records() is listed
    # Each record of each complex is built once, and the matrices are a
    # fresh complex's.
    assert len(built) == len(set(built))
    assert again == first == symmetric_action(_sphere_cobar(3), (2, 3, 1))


def test_module_maps_are_shared_across_check_calls(monkeypatch):
    from opbar import checks
    built = []
    structure_maps = checks.module_structure_maps

    def counted(bc, blocks, cache):
        built.append((barcobar.one_sided_key(bc.kind, bc.r_coeff, bc.op,
                                             bc.l_coeff, bc.arity),
                      canonical_partition(blocks)))
        return structure_maps(bc, blocks, cache)

    monkeypatch.setattr(checks, "module_structure_maps", counted)
    cache = {}
    _structure_checks(cache)
    assert all(_module_checks(cache))
    # 50 calls for 21 pairs of a complex and a partition when each check
    # call kept its own maps.  The sphere complex the checks are given and
    # the cache's complex of the same inputs at arity 3 share their maps.
    assert len(built) == len(set(built)) == 16
    assert all(_module_checks(cache))
    assert len(built) == 16


def test_split_maps_are_kept_with_the_complex_cache(monkeypatch):
    from opbar.opalg import fingerprint
    builds = []
    split_map = barcobar._split_map

    def counted(kind, p, arity, a, a_side, b_side, cache):
        builds.append((kind, fingerprint(p, arity), arity, tuple(b_side)))
        return split_map(kind, p, arity, a, a_side, b_side, cache)

    monkeypatch.setattr(barcobar, "_split_map", counted)
    cache = {}
    # 131 builds when each check call kept its own maps.
    _structure_checks(cache)
    assert len(builds) == len(set(builds)) == 75
    # Equal structures built again find their maps in the cache, and so
    # does a structure with equal data up to each map's arity.
    _structure_checks(cache)
    check_coassociativity(builtin("com", 5), 4, cache)
    assert len(builds) == 75
    # A structure with other data gets its own maps.
    check_coassociativity(builtin("com", 4, ring=RAT), 3, cache)
    assert len(builds) > 75


def test_tree_records_are_built_once_per_complex_and_tree(monkeypatch):
    built = []
    record = barcobar._TreeRecord

    def counted(key, masks, nv, children, slots, at):
        built.append((slots, key))
        return record(key, masks, nv, children, slots, at)

    monkeypatch.setattr(barcobar, "_TreeRecord", counted)
    # Assembly and reduction read no record.
    reduced_bar(builtin("com", 5), 5).homology()
    assert built == []
    koszul(builtin("com", 4), 4, with_structure=True)
    cache = {}
    cc = _sphere_cobar(3)
    for blocks in set_partitions((1, 2, 3)):
        module_structure_maps(cc, blocks, cache)
    symmetric_action(cc, (2, 3, 1))
    keys = [(id(bc), tree) for bc, tree in built]
    assert built and len(set(keys)) == len(keys)


@pytest.mark.parametrize("build,spread", [
    (lambda: reduced_bar(builtin("ass", 4), 4), False),
    (lambda: _sphere_cobar(4), False),
    (lambda: _mixed_degree_cobar(3), True),
], ids=["bar-ass-4", "cobar-sphere2-4", "cobar-mixed-3"])
def test_records_hold_the_module_positions(build, spread):
    # spread: some tree has decorations in more than one degree.
    bc = build()
    degrees = 1
    for key in bc.trees():
        rec = bc.record(key)
        # The masks are the vertices in depth-first order, then the leaves
        # by least label, as the nested reference walk reads them.
        masks, nv, _arities = _slots(_nested(key))
        assert (rec.masks, rec.nv) == (masks, nv)
        for k, (decor, _degs, t) in enumerate(rec.slots.decorations):
            flat = 0
            for size, i in zip(rec.slots.sizes, decor):
                flat = flat * size + i
            assert flat == k
            d, pos = rec.at[k]
            assert bc.complex.module.position(d, barcobar.BarBasisLabel(
                key, decor, nv, t)) == pos
        degrees = max(degrees, len({d for d, _pos in rec.at}))
    assert (degrees > 1) == spread
    assert bc.record(trees.parse_tree("([1])")) is None


@pytest.mark.parametrize("arity", [2.5, True])
def test_arity_is_an_int(arity):
    with pytest.raises(ValidationError,
                       match=f"arity {arity!r} is not an int"):
        reduced_bar(builtin("com", 4), arity)


@pytest.mark.parametrize("arity,error", [
    (0, BoundsError), (-1, BoundsError), (2.0, ValidationError),
    (True, ValidationError), (5, BoundsError), (9, BoundsError)],
    ids=["zero", "negative", "float", "bool", "above-max", "far-above-max"])
def test_simplicial_arity_is_checked(arity, error):
    # 0 and -1 gave an empty complex, 2.0 a TypeError and True arity 1;
    # above max_arity 4 the complex was truncated (5) or ran for minutes
    # (9).  An arity out of range is a BoundsError, as in koszul and
    # builtin.
    com = builtin("com", 4)
    with pytest.raises(error, match=f"arity {arity!r}"):
        _simplicial(com, unit_module(com, LEFT_MODULE), arity)


@pytest.mark.parametrize("build", [
    lambda com, n: reduced_bar(com, n),
    lambda com, n: bar_cocomposition(com, n, 2, (1, 2), range(2, n + 1)),
], ids=["reduced_bar", "bar_cocomposition"])
@pytest.mark.parametrize("arity", [5, 9])
def test_arity_above_max_is_a_bounds_error(build, arity):
    # It was a ValidationError; the message names both numbers.
    with pytest.raises(BoundsError,
                       match=f"arity {arity} exceeds max_arity 4"):
        build(builtin("com", 4), arity)


@pytest.mark.parametrize("sigma", [(2, 1), (1, 2, 3, 5), (2, 1, 3, 4, 5),
                                   (1, 1, 2, 3), "1234", None])
def test_symmetric_action_takes_only_permutations_of_the_arity(sigma):
    bc = reduced_bar(builtin("com", 4), 4)
    with pytest.raises(ValidationError, match="arity 4"):
        symmetric_action(bc, sigma)


def _binary_only(max_arity):
    """com truncated to arities 1 and 2: P(n) = 0 for n >= 3, with zero
    composition matrices into those arities."""
    com = builtin("com", max_arity)
    components = {n: com.component(n) if n <= 2 else GradedFreeModule({})
                  for n in range(1, max_arity + 1)}
    symseq = SymSeq(INT, components, {2: com.symseq.actions[2]})
    comp = {(m, a, n): ExactMatrix(
        symseq.rank(m + n - 1), symseq.rank(m) * symseq.rank(n),
        dict(mat.entries()) if m + n - 1 <= 2 else None)
        for (m, a, n), mat in com.maps.items()}
    return Operad(symseq, comp, name="binary")


@pytest.fixture
def collapses(monkeypatch):
    """(source key, target key, target vertex order) of every collapse move
    trees.collapse makes while the fixture is live; the order lists the
    target's vertices as source vertex slots."""
    out = []
    move = trees.collapse

    def recorded(shape, q, bud):
        result = move(shape, q, bud)
        # The target's vertex slots are 1..nv - 1.
        out.append((shape.key, result[0], result[1][1:shape.nv]))
        return result

    monkeypatch.setattr(trees, "collapse", recorded)
    return out


@pytest.fixture
def moves(monkeypatch):
    """{(source key, vertex slot, bud): target key} of every collapse move
    trees._move makes while the fixture is live: the complexes make each
    move through it, and trees.collapse its template's first."""
    out = {}
    move = trees._move

    def recorded(shape, q, bud):
        result = move(shape, q, bud)
        out[shape.key, q, bud] = result[0]
        return result

    monkeypatch.setattr(trees, "_move", recorded)
    return out


class TestSupports:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_operad_with_a_gap_has_binary_trees_and_no_differential(
            self, n, collapses):
        bc = reduced_bar(_binary_only(5), n)
        double_factorial = 1
        for k in range(1, 2 * n - 2, 2):
            double_factorial *= k
        assert {d: bc.complex.rank(d) for d in bc.complex.degrees()} == \
            {n - 1: double_factorial}
        assert all(m.nnz() == 0 for m in bc.complex.diffs.values())
        assert collapses == []

    def test_com_collapses_only_into_the_basis(self, collapses, moves):
        bc = reduced_bar(builtin("com", 6), 6)
        basis = set(bc.trees())
        # Every one of the 8,596 moves lands in the basis, one vertex
        # down, and one collapse per template orders the target's
        # vertices.
        assert len(moves) == 8596
        for (key, _q, _bud), target in moves.items():
            assert target in basis
            assert _nv(target) == _nv(key) - 1
        made = {(key, target) for (key, _q, _bud), target in moves.items()}
        assert len(collapses) == 615
        for key, target, order in collapses:
            assert (key, target) in made
            assert _nv(target) == len(order) == _nv(key) - 1

    def test_sphere_cobar_collapses_only_into_the_basis(self, collapses):
        sphere = builtin_sphere_comodule(2, 4)
        cc = cobar_complex(unit_module(sphere.over, RIGHT_COMODULE),
                           sphere.over, sphere, 4)
        basis = set(cc.trees())
        assert collapses
        for key, target, order in collapses:
            assert target in basis
            assert _nv(target) == len(order) == _nv(key) - 1


def _over_itself(name):
    """P = builtin(name, 4) as a left module over itself, and Q = dual(P)
    as a left comodule over itself by the transposes: act_lam = sigma_lam
    gamma, where sigma_lam sends the inputs of gamma(p; q_1..q_r), taken
    block after block, onto the labels of lam."""
    op = builtin(name, 4)
    q = dual(op)
    maps = {lam: op.action(n, tuple(x for b in lam for x in b))
            * op.full([len(b) for b in lam])
            for n in range(1, 5) for lam in set_partitions(range(1, n + 1))}
    return (op, SidedModule(LEFT_MODULE, op.symseq, op, maps), q,
            SidedModule(LEFT_COMODULE, q.symseq, q,
                        {lam: m.transpose() for lam, m in maps.items()}))


@pytest.mark.parametrize("name", ["com", "ass"])
def test_bar_and_cobar_over_the_structure_itself_are_the_unit(name):
    # B(I, P, P) and Omega(I, Q, Q) are I: Z in arity 1 and degree 0, and
    # no homology in arities 2..4.  Their buds, unlike a unit module's,
    # need their blocks in the key of a collapse's term table.
    op, left, q, coleft = _over_itself(name)
    for n in range(1, 5):
        want = {0: (1, ())} if n == 1 else {}
        bar = bar_complex(unit_module(op, RIGHT_MODULE), op, left, n)
        cobar = cobar_complex(unit_module(q, RIGHT_COMODULE), q, coleft, n)
        assert (n, bar.homology().groups) == (n, want)
        assert (n, cobar.homology().groups) == (n, want)


class TestCobarHomology:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_dual_com_cobar_is_lie_dimension(self, qcom, n):
        cc = reduced_cobar(qcom, n)
        assert cc.homology().groups == {1 - n: (factorial(n - 1), ())}

    def test_duality_shadow_com(self, com, qcom):
        for n in range(1, 6):
            b = reduced_bar(com, n).homology()
            o = reduced_cobar(qcom, n).homology()
            assert o == b.degree_negated()

    def test_duality_shadow_ass(self, ass):
        qass = dual(ass)
        for n in range(1, 5):
            b = reduced_bar(ass, n).homology()
            o = reduced_cobar(qass, n).homology()
            assert o == b.degree_negated()

    def test_sphere_comodule_two_sided(self, qcom):
        sphere = builtin_sphere_comodule(2, 4)
        runit = unit_module(qcom, RIGHT_COMODULE)
        cc = cobar_complex(runit, qcom, sphere, 3)
        assert cc.homology().groups == {2: (1, ()), 3: (3, ()), 4: (2, ())}

    def test_odd_sphere_stress_d_squared(self, qcom):
        # Construction validates d^2 = 0; odd degrees exercise the signs.
        sphere = builtin_sphere_comodule(1, 4)
        runit = unit_module(qcom, RIGHT_COMODULE)
        for n in (2, 3, 4):
            cobar_complex(runit, qcom, sphere, n)

    def test_odd_sphere_bar_side_d_squared(self, com):
        sphere = builtin_sphere_module(1, 4)
        runit = unit_module(com, RIGHT_MODULE)
        for n in (2, 3, 4):
            bar_complex(runit, com, sphere, n)


class TestSimplicialOracle:
    def test_com_arity_three(self, com):
        runit = unit_module(com, RIGHT_MODULE)
        lunit = unit_module(com, LEFT_MODULE)
        sc = simplicial_bar_complex(runit, com, lunit, 3)
        assert homology(sc).groups == {2: (2, ())}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_tree_bar_for_com_and_ass(self, com, ass, n):
        for op in (com, ass):
            runit = unit_module(op, RIGHT_MODULE)
            lunit = unit_module(op, LEFT_MODULE)
            sc = simplicial_bar_complex(runit, op, lunit, n)
            bc = bar_complex(runit, op, lunit, n)
            assert homology(sc).groups == bc.homology().groups

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_tree_bar_two_sided_sphere(self, com, n):
        sphere = builtin_sphere_module(2, 4)
        runit = unit_module(com, RIGHT_MODULE)
        sc = simplicial_bar_complex(runit, com, sphere, n)
        bc = bar_complex(runit, com, sphere, n)
        assert homology(sc).groups == bc.homology().groups

    def test_odd_degree_simplicial_d_squared(self, com):
        sphere = builtin_sphere_module(1, 4)
        runit = unit_module(com, RIGHT_MODULE)
        for n in (2, 3):
            simplicial_bar_complex(runit, com, sphere, n)


ACTION_CASES = ("com-bar-3", "com-cobar-4", "ass-bar-4", "sphere1-cobar-4",
                "sphere3-cobar-4")


@pytest.fixture(scope="module")
def actions(com, ass, qcom):
    """case -> (complex, {sigma: action matrices} over all of S_n), each
    built on first use."""
    runit = unit_module(qcom, RIGHT_COMODULE)
    build = {
        "com-bar-3": lambda: reduced_bar(com, 3),
        "com-cobar-4": lambda: reduced_cobar(qcom, 4),
        "ass-bar-4": lambda: reduced_bar(ass, 4),
        "sphere1-cobar-4": lambda: cobar_complex(
            runit, qcom, builtin_sphere_comodule(1, 4), 4),
        "sphere3-cobar-4": lambda: cobar_complex(
            runit, qcom, builtin_sphere_comodule(3, 4), 4),
    }
    built = {}

    def get(case):
        if case not in built:
            bc = build[case]()
            built[case] = bc, {
                sigma: symmetric_action(bc, sigma)
                for sigma in itertools.permutations(range(1, bc.arity + 1))}
        return built[case]
    return get


class TestSymmetricAction:
    def test_action_is_chain_equivariance(self, ass):
        # Conjugating the differential reproduces the differential.
        bc = reduced_bar(ass, 3)
        for sigma in itertools.permutations((1, 2, 3)):
            act = symmetric_action(bc, sigma)
            for d in sorted(bc.complex.diffs):
                lhs = act[d - 1] * bc.complex.differential(d)
                rhs = bc.complex.differential(d) * act[d]
                assert lhs == rhs, (sigma, d)

    @pytest.mark.parametrize("case", ACTION_CASES)
    def test_action_composes(self, actions, case):
        # sigma o tau acts as act(sigma) * act(tau) for every sigma and
        # each adjacent transposition tau.  Vertex orientations carry
        # signs at arity 4, and so do the odd leaf decorations of S^1, S^3.
        bc, act = actions(case)
        n = bc.arity
        for sigma in act:
            for i in range(1, n):
                tau = list(range(1, n + 1))
                tau[i - 1], tau[i] = i + 1, i
                both = tuple(sigma[t - 1] for t in tau)
                for d in bc.complex.degrees():
                    assert act[sigma][d] * act[tuple(tau)][d] == \
                        act[both][d], (sigma, i, d)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_swapped_sphere_leaves_carry_the_koszul_sign(self, qcom, r):
        # (1 2) fixes both trees of the arity-2 sphere cobar complex; it
        # swaps the two leaf decorations of degree r under the vertex.
        cc = cobar_complex(unit_module(qcom, RIGHT_COMODULE), qcom,
                           builtin_sphere_comodule(r, 2), 2)
        act = symmetric_action(cc, (2, 1))
        diagonal = {lab.tree_degree: act[d].entry(i, i)
                    for d in cc.complex.degrees()
                    for i, lab in enumerate(cc.complex.labels(d))}
        assert diagonal == {0: 1, 1: (-1) ** r}
        assert all(m.nnz() == m.nrows for m in act.values())

    @pytest.mark.parametrize("case", ACTION_CASES)
    def test_cobar_action_equivariance(self, actions, case):
        bc, act = actions(case)
        for sigma, mats in act.items():
            for d in sorted(bc.complex.diffs):
                assert mats[d - 1] * bc.complex.differential(d) == \
                    bc.complex.differential(d) * mats[d], (sigma, d)


class TestCocomposition:
    def test_chain_map_verified_on_construction(self, com, ass, bar_cache):
        for op in (com, ass):
            for b_side in [(1, 2), (2, 3), (1, 3), (3,), (1, 2, 3)]:
                a = min(b_side)
                a_rest = tuple(sorted(set((1, 2, 3)) - set(b_side)))
                bar_cocomposition(op, 3, a, a_rest + (a,), b_side, {})

    def test_counit_component_is_signed_permutation(self, com):
        # Splitting off a singleton acts as relabelling: entries +-1 and
        # exactly one entry per column.
        cm = bar_cocomposition(com, 3, 3, (1, 2, 3), (3,), {})
        for d, mat in cm.mats.items():
            cols = {}
            for (_i, j), v in mat.entries():
                cols.setdefault(j, []).append(v)
            for j in range(mat.ncols):
                assert sorted(cols.get(j, [])) in ([1], [-1], [])

    def test_coassociativity_arity_three(self, com, ass):
        from opbar.checks import check_coassociativity
        assert check_coassociativity(com, 3) > 0
        assert check_coassociativity(ass, 3) > 0

    def test_coassociativity_arity_four(self, com):
        from opbar.checks import check_coassociativity
        assert check_coassociativity(com, 4) > 0

    def test_disjoint_splits_arity_four(self, com):
        from opbar.checks import check_disjoint_cocompositions
        assert check_disjoint_cocompositions(com, 4) > 0

    def test_cobar_composition_chain_maps(self, qcom):
        for b_side in [(1, 2), (2, 3), (1, 2, 3), (2,)]:
            a = min(b_side)
            a_rest = tuple(sorted(set((1, 2, 3)) - set(b_side)))
            cobar_composition(qcom, 3, a, a_rest + (a,), b_side, {})

    def test_cobar_associativity_arity_three(self, qcom):
        from opbar.checks import check_cobar_associativity
        assert check_cobar_associativity(qcom, 3) > 0


class TestModuleStructureMaps:
    def test_trivial_partition_identityish(self, qcom):
        sphere = builtin_sphere_comodule(2, 3)
        runit = unit_module(qcom, RIGHT_COMODULE)
        cc = cobar_complex(runit, qcom, sphere, 3)
        cm = module_structure_maps(cc, [(1, 2, 3)], {})
        # Unary action: Omega(Q)(1) (x) Omega(L)(3) -> Omega(L)(3) acts as
        # the identity on every degree.
        for d in cc.complex.degrees():
            mat = cm.component(d)
            assert mat.nrows == cc.complex.rank(d)

    def test_partition_chain_maps_verify(self, qcom):
        sphere = builtin_sphere_comodule(2, 4)
        runit = unit_module(qcom, RIGHT_COMODULE)
        for n in (2, 3):
            cc = cobar_complex(runit, qcom, sphere, n)
            from opbar.combinat import set_partitions
            for blocks in set_partitions(range(1, n + 1)):
                module_structure_maps(cc, blocks, {})

    def test_pentagon_chain_level(self, qcom):
        from opbar.barcobar import one_sided_key
        from opbar.checks import check_module_pentagon_chain
        from opbar.combinat import set_partitions
        sphere = builtin_sphere_comodule(2, 3)
        runit = unit_module(qcom, RIGHT_COMODULE)
        cache = {}
        cc = cobar_complex(runit, qcom, sphere, 3)
        cache[one_sided_key(COBAR, runit, qcom, sphere, 3)] = cc
        for lam in set_partitions(range(1, 4)):
            for grouping in set_partitions(range(len(lam))):
                check_module_pentagon_chain(cc, lam, grouping, cache)

    def test_unary_action_identity(self, qcom):
        from opbar.checks import check_unary_action_is_identity
        sphere = builtin_sphere_comodule(2, 3)
        runit = unit_module(qcom, RIGHT_COMODULE)
        cc = cobar_complex(runit, qcom, sphere, 3)
        assert check_unary_action_is_identity(cc, {})

    @pytest.mark.parametrize("blocks", [
        [(1, 2), (2, 3)], [(1, 2), (1, 2, 3)], [(1, 2), (1, 2), (3,)],
        [(1, 2, 3), ()], [(1, 2)], [(1, 2), (3, 4)]])
    def test_blocks_must_partition_the_arity(self, blocks):
        with pytest.raises(ValidationError, match="partition"):
            module_structure_maps(_sphere_cobar(3), blocks, {})

    def test_bar_side_comodule_maps_verify(self, com):
        sphere = builtin_sphere_module(2, 4)
        runit = unit_module(com, RIGHT_MODULE)
        for n in (2, 3):
            bc = bar_complex(runit, com, sphere, n)
            from opbar.combinat import set_partitions
            for blocks in set_partitions(range(1, n + 1)):
                module_structure_maps(bc, blocks, {})


class TestKoszul:
    def test_koszul_com(self, com):
        report = koszul(com, 5, with_structure=False)
        assert report.is_koszul()
        for n in range(1, 6):
            assert report.dimension(n) == factorial(n - 1)
            assert report.modules[n].degrees() == [n - 1] if n > 1 else [0]

    def test_koszul_ass_dims(self, ass):
        report = koszul(ass, 4, with_structure=False)
        assert report.is_koszul()
        for n in range(1, 5):
            assert report.dimension(n) == factorial(n)

    def test_only_the_top_differential_is_eliminated(self, monkeypatch):
        # Ranks come from homology(); ass is Koszul, so only the kernel of
        # the top differential of each arity is read, by representatives.
        reduced, kept = [], []
        echelon = exactla._column_echelon

        def counted(mat):
            out = echelon(mat)
            reduced.append(mat)
            kept.append(len(out[1]))
            return out

        monkeypatch.setattr(exactla, "_column_echelon", counted)
        report = koszul(builtin("ass", 5), 5, with_structure=False)
        monkeypatch.undo()
        assert reduced == [bc.complex.differential(n - 1)
                           for n, bc in report.complexes.items()]
        # 1! + 2! + ... + 5!: the kernels of the top differentials only.
        assert sum(kept) == 153

    @pytest.mark.parametrize("make,n", [
        (lambda: builtin("com", 5), 5), (lambda: builtin("ass", 4), 4),
        (lambda: dual(builtin("com", 4)), 4),
        (lambda: square_zero({0: 1}), 3),
        (lambda: square_zero({0: 1, 1: 1}), 3)],
        ids=["com5", "ass4", "dual_com4", "square_zero", "square_zero_mixed"])
    def test_summaries_match_dense_ranks(self, make, n):
        # Free rank = dim C_d - rank d_d - rank d_{d+1}, the ranks by dense
        # Gaussian elimination, independent of homology().
        report = koszul(make(), n, with_structure=False)
        for arity, bc in report.complexes.items():
            cplx = bc.complex
            ranks = {k: dense_rank([[m.entry(i, j) for j in range(m.ncols)]
                                    for i in range(m.nrows)])
                     for k, m in cplx.diffs.items()}
            expected = HomologySummary(RAT, {
                d: (cplx.rank(d) - ranks.get(d, 0) - ranks.get(d + 1, 0), ())
                for d in cplx.degrees()})
            assert report.summaries[arity] == expected, arity

    @pytest.mark.slow
    def test_koszul_ass6_closed_form(self):
        report = koszul(builtin("ass", 6), 6, with_structure=False)
        assert report.is_koszul()
        for n in range(1, 7):
            assert report.summaries[n] == HomologySummary(
                RAT, {n - 1: (factorial(n), ())})
            assert report.dimension(n) == factorial(n)

    def test_representatives_only_in_the_top_degree(self, ass, monkeypatch):
        degrees = []
        reps = exactla.homology_representatives

        def counted(complex_, degree):
            degrees.append(degree)
            return reps(complex_, degree)

        monkeypatch.setattr(barcobar, "homology_representatives", counted)
        report = koszul(ass, 4, with_structure=False)
        monkeypatch.undo()
        # ass is Koszul: each arity n has homology in degree n - 1 only.
        assert degrees == [0, 1, 2, 3]
        for n, bc in report.complexes.items():
            every = [(d, z) for d in bc.complex.degrees()
                     for z in reps(bc.complex, d)]
            spaces = {}
            for i, (d, _z) in enumerate(every):
                spaces.setdefault(d, []).append(f"h{n}.{d}.{i}")
            assert report.reps[n] == every
            assert report.modules[n] == GradedFreeModule(spaces)

    def test_torsion_only_degree_gets_no_representatives(self, monkeypatch):
        # Cellular RP^2: d_2 = 2 and d_1 = 0, so H_1 = Z/2 and H_2 = 0.
        rp2 = ChainComplex(GradedFreeModule({0: ["v"], 1: ["e"], 2: ["f"]}),
                           {2: ExactMatrix(1, 1, {(0, 0): 2})})
        summary = rp2.homology()
        assert summary.torsion(1) == (2,) and summary.free_rank(1) == 0
        degrees = []
        find = exactla.homology_representatives
        monkeypatch.setattr(barcobar, "homology_representatives",
                            lambda c, d: degrees.append(d) or find(c, d))
        reps, module = barcobar._homology_basis(rp2, "x", summary)
        assert degrees == [0] and reps == [(0, {0: 1})]
        assert module == GradedFreeModule({0: ["x.0.0"]})

    def test_k_com_is_a_cooperad(self, com):
        report = koszul(com, 4, with_structure=True)
        k = cooperad_from_koszul(report)   # validates the axioms
        assert [k.rank(n) for n in (1, 2, 3, 4)] == [1, 1, 2, 6]

    def test_double_dual_of_com(self, com):
        report = koszul(com, 4, with_structure=True)
        k = cooperad_from_koszul(report)
        kk = koszul(dual(k), 4, with_structure=False)
        assert kk.is_koszul()
        for n in range(1, 5):
            assert kk.dimension(n) == 1

    def test_action_character_is_sgn_lie(self, com):
        report = koszul(com, 4, with_structure=True)
        for n in range(2, 5):
            # gens[i - 1] is the transposition (i, i+1); the product of
            # gens[a - 1] .. gens[b - 2] is a cycle on a..b.
            gens = report.actions[n]
            for ct in cycle_types(n):
                act = ExactMatrix.identity(report.dimension(n), ring=RAT)
                start = 1
                for length in ct:
                    for i in range(start, start + length - 1):
                        act = act * gens[i - 1]
                    start += length
                assert act.trace() == sgn_lie_character(ct), (n, ct)

    @pytest.mark.parametrize("bound,error", [
        (0, BoundsError), (-1, BoundsError), (4, BoundsError),
        (2.5, ValidationError), ("3", ValidationError),
        (True, ValidationError)])
    def test_max_arity_is_none_or_an_int_in_range(self, bound, error):
        with pytest.raises(error, match=f"max_arity {bound!r}"
                           if error is ValidationError
                           else f"max_arity {bound} outside 1..3"):
            koszul(builtin("com", 3), bound)

    def test_max_arity_none_is_the_structures(self):
        report = koszul(builtin("com", 3), None, with_structure=False)
        assert report.max_arity == 3 and sorted(report.summaries) == [1, 2, 3]

    def test_non_koszul_is_reported_not_raised(self):
        # Square zero: d = 0, so the homology is the decorated trees.
        report = koszul(square_zero({0: 1}), 3)
        assert report.summaries[3].groups == {1: (1, ()), 2: (3, ())}
        assert report.concentrated[3] is False and not report.is_koszul()
        assert report.structure == {} and report.actions == {}

    def test_concentration_reads_the_tree_degree(self):
        # Arity 2 has degrees 1 (a) and 2 (b), both in tree degree 1.
        report = koszul(square_zero({0: 1, 1: 1}), 3,
                        with_structure=False)
        assert report.summaries[2].groups == {1: (1, ()), 2: (1, ())}
        assert report.concentrated[2] is True
        assert report.summaries[3].groups == {
            1: (1, ()), 2: (3, ()), 3: (6, ()), 4: (3, ())}
        assert report.concentrated[3] is False

    @pytest.mark.parametrize("make,n", [
        (lambda: builtin("com", 5), 5), (lambda: builtin("ass", 4), 4),
        (lambda: dual(builtin("com", 4)), 4),
        (lambda: square_zero({0: 1}), 3),
        (lambda: square_zero({0: 1, 1: 1}), 3)],
        ids=["com5", "ass4", "dual_com4", "square_zero", "square_zero_mixed"])
    def test_ranks_per_internal_degree_match_the_split(self, make, n):
        report = koszul(make(), n, with_structure=False)
        for arity, bc in report.complexes.items():
            summary, concentrated = split_homology(bc)
            assert report.summaries[arity] == summary, arity
            assert report.concentrated[arity] is concentrated, arity


def square_zero(arity_two):
    """com's components to arity 3, but with the arity-two component of
    ranks {degree: rank}; trivial actions and only the unit compositions,
    so every composite of two non-unit operations is zero and so is the
    bar differential."""
    comps = {1: GradedFreeModule({0: ("e",)}),
             2: GradedFreeModule({d: tuple(f"g{d}.{i}" for i in range(r))
                                  for d, r in arity_two.items()}),
             3: GradedFreeModule({0: ("e",)})}
    ranks = {n: c.total_rank() for n, c in comps.items()}
    actions = {n: (ExactMatrix.identity(ranks[n]),) * (n - 1) for n in comps}
    comp = {}
    for m, n in itertools.product(comps, repeat=2):
        if m + n - 1 <= 3:
            unit = ({(i, i): 1 for i in range(ranks[m + n - 1])}
                    if 1 in (m, n) else {})
            for a in range(1, m + 1):
                comp[(m, a, n)] = ExactMatrix(
                    ranks[m + n - 1], ranks[m] * ranks[n], unit)
    return Operad(SymSeq(INT, comps, actions), comp, name="square-zero")


def split_homology(bc):
    """(rational homology, concentration) of bc by the reference route:
    copy bc into one sub-complex per internal degree t, graded by signed
    tree degree s = d - t, and take each one's homology by matrix_rank."""
    spaces, pos = {}, {}
    cplx = bc.complex
    for d in cplx.degrees():
        for i, lab in enumerate(cplx.labels(d)):
            t = lab.internal_degree
            bucket = spaces.setdefault(t, {}).setdefault(d - t, [])
            pos[(d, i)] = (t, len(bucket))
            bucket.append(lab)
    rows = {t: {} for t in spaces}
    for d, mat in cplx.diffs.items():
        for (i, j), val in mat.entries():
            t, jj = pos[(d, j)]
            assert pos[(d - 1, i)][0] == t
            rows[t].setdefault(d - t, {}).setdefault(
                pos[(d - 1, i)][1], {})[jj] = val
    top = barcobar._top_signed_degree(bc.kind, bc.arity)
    ranks, concentrated = {}, True
    for t, by_s in spaces.items():
        h = ChainComplex.from_rows(GradedFreeModule(by_s), rows[t],
                                   bc.ring).homology(ring=RAT)
        for s in h.degrees():
            ranks[s + t] = ranks.get(s + t, 0) + h.free_rank(s)
            concentrated = concentrated and s == top
    return HomologySummary(RAT, {d: (r, ()) for d, r in ranks.items()}), \
        concentrated


@pytest.fixture(scope="module")
def deriv():
    return derivatives_homology(4)


class TestDerivatives:

    def test_dimensions_and_degrees(self, deriv):
        for n in range(2, 5):
            assert deriv.dimension(n) == factorial(n - 1)
            assert deriv.modules[n].degrees() == [1 - n]

    def test_operad_structure_validates(self, deriv):
        op = operad_from_koszul(deriv)   # runs all operad axioms over Q
        assert op.rank(4) == 6

    def test_jacobi(self, deriv):
        dim, relation = jacobi_relation(deriv)
        assert dim == 1
        values = sorted(abs(v) for v in relation.values())
        lead = values[0]
        normalized = [v / lead for v in relation.values()]
        assert len(relation) == 3
        assert all(abs(v) == 1 for v in normalized)

    def test_jacobi_names_a_missing_arity(self):
        with pytest.raises(ValidationError, match="arity 3"):
            jacobi_relation(derivatives_homology(2))


class TestModuleMX:
    def test_sphere_r2_matches_compose_product(self):
        x = GradedFreeModule({2: ("x",)})
        delta = ExactMatrix.zero(1, 1)
        report = module_MX_homology(x, delta, 3, with_action=False)
        assert report.summaries[2].groups == {2: (1, ()), 3: (1, ())}
        assert report.summaries[3].groups == \
            {2: (1, ()), 3: (3, ()), 4: (2, ())}

    def test_sphere_action_pentagon_validates(self):
        x = GradedFreeModule({2: ("x",)})
        delta = ExactMatrix.zero(1, 1)
        report = module_MX_homology(x, delta, 3, with_action=True)
        assert report.homology_module is not None
        assert report.homology_module.kind == LEFT_MODULE

    # Digests computed with the code of commit 8fc8c86, where the induced
    # maps had their own loop: the homology-level module maps of
    # module_MX_homology(X, 0, 4), one per partition of each arity.
    PINNED_MODULE_MAPS = {
        "S2": (
            {2: ("x",)},
            "1ce39b364359fd4d23c435db58b9a2d4b4b7f2e60ea343a1b20a832a4dfa886a"),
        "S2-wedge-S3": (
            {2: ("a",), 3: ("b",)},
            "b75912faa4daf363d6a045600453c41b068a87c3e8c008db1522e476200bc2de"),
    }

    @pytest.mark.parametrize("case", sorted(PINNED_MODULE_MAPS))
    def test_homology_module_maps_match_pinned_digests(self, deriv, case):
        spaces, digest = self.PINNED_MODULE_MAPS[case]
        x = GradedFreeModule(spaces)
        r = x.total_rank()
        report = module_MX_homology(x, ExactMatrix.zero(r * r, r), 4,
                                    deriv_report=deriv)
        assert _maps_digest([report.homology_module.maps]) == digest


class TestDualOfASpreadComodule:
    # Coalgebras whose components have basis elements in several degrees:
    # X = <a_2, t_4> with Delta(t) = a (x) a, and S^2 x S^3 = <x_2, y_3, z_5>
    # with Delta(z) = x (x) y + y (x) x.
    CASES = {"a2-t4": ({2: ("a",), 4: ("t",)}, {(0, 1): 1}),
             "s2-times-s3": ({2: ("x",), 3: ("y",), 5: ("z",)},
                             {(1, 2): 1, (3, 2): 1})}

    @staticmethod
    def comodule(case):
        spaces, entries = TestDualOfASpreadComodule.CASES[case]
        x = GradedFreeModule(spaces)
        r = x.total_rank()
        return constant_comodule(x, ExactMatrix(r * r, r, entries), 3)

    def test_bar_complex_of_the_dual_builds(self):
        # This raised "entry (0,0) outside 0x1" while dual misindexed.
        module = dual(self.comodule("a2-t4"))
        bc = bar_complex(unit_module(module.over, RIGHT_MODULE), module.over,
                         module, 2)
        assert bc.homology().groups == {-7: (1, ()), -5: (2, ()),
                                        -2: (1, ())}

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_simplicial_bar_of_the_dual_is_the_negated_cobar(self, case, n):
        # A second construction: chains of partitions on the dual module,
        # no trees, against the cobar complex of the comodule itself.
        comodule = self.comodule(case)
        module = dual(comodule)
        simplicial = simplicial_bar_complex(
            unit_module(module.over, RIGHT_MODULE), module.over, module, n)
        cobar = cobar_complex(unit_module(comodule.over, RIGHT_COMODULE),
                              comodule.over, comodule, n)
        assert homology(simplicial) == cobar.homology().degree_negated()


class TestOddDegreeSigns:
    """Ungrafting moves each factor's orientation past the decorations of
    the factors before it; with odd decorations that sign shows."""

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("r", [1, 3])
    def test_odd_sphere_module_and_action(self, deriv, r, n):
        x = GradedFreeModule({r: ("x",)})
        # with_action validates the unit, pentagon and equivariance.
        report = module_MX_homology(x, ExactMatrix.zero(1, 1), n,
                                    deriv_report=deriv, with_action=True)
        assert report.homology_module is not None
        for m in range(2, n + 1):
            want = {}
            for k in range(1, m + 1):
                d = k * (r - 1) + 1
                want[d] = want.get(d, 0) + stirling2(m, k) * factorial(k - 1)
            assert report.summaries[m].groups == \
                {d: (rank, ()) for d, rank in want.items()}

    def test_odd_sphere_pentagon_chain(self, qcom):
        sphere = builtin_sphere_comodule(1, 4)
        cc = cobar_complex(unit_module(qcom, RIGHT_COMODULE), qcom, sphere, 3)
        cache = {}
        check_unary_action_is_identity(cc, cache)
        for lam in set_partitions(range(1, 4)):
            for grouping in set_partitions(range(len(lam))):
                check_module_pentagon_chain(cc, lam, grouping, cache)

    def test_odd_sphere_bar_comodule_map(self):
        com4 = builtin("com", 4)
        bc = bar_complex(unit_module(com4, RIGHT_MODULE), com4,
                         builtin_sphere_module(1, 4), 4)
        cm = module_structure_maps(bc, ((1,), (2, 3, 4)))
        cm.verify()

    def test_derivatives_structure_maps(self, deriv):
        k_op = operad_from_koszul(deriv)   # degrees 1 - n
        assert check_coassociativity(k_op, 4) > 0
        assert check_cobar_associativity(dual(k_op), 4) > 0


class TestComplexCache:
    def test_equal_structures_share_a_complex(self):
        cache = {}
        first = reduced_bar(builtin("com", 4), 4, cache)
        assert reduced_bar(builtin("com", 4), 4, cache) is first

    def test_ring_separates_complexes(self):
        cache = {}
        over_z = reduced_bar(builtin("com", 4), 4, cache)
        over_q = reduced_bar(builtin("com", 4, ring=RAT), 4, cache)
        assert over_q is not over_z
        assert over_z.ring == INT and over_q.ring == RAT

    def test_name_does_not_select_the_complex(self):
        cache = {}
        com_bar = reduced_bar(builtin("com", 4), 4, cache)
        renamed = builtin("ass", 4)
        renamed.name = "com"
        ass_bar = reduced_bar(renamed, 4, cache)
        assert com_bar.complex.module.total_rank() == 26
        assert ass_bar.complex.module.total_rank() == 264

    @staticmethod
    def counted_builds(monkeypatch):
        """The (kind, operad name, arity) of every complex built."""
        builds = []
        build = barcobar._tree_complex

        def counted(kind, r_mod, p, l_mod, arity):
            builds.append((kind, p.name, arity))
            return build(kind, r_mod, p, l_mod, arity)

        monkeypatch.setattr(barcobar, "_tree_complex", counted)
        return builds

    def test_max_arities_share_the_complexes_they_both_reach(
            self, monkeypatch):
        builds = self.counted_builds(monkeypatch)
        cache = {}
        five = [reduced_cobar(dual(builtin("com", 5)), n, cache)
                for n in range(1, 6)]
        four = [reduced_cobar(dual(builtin("com", 4)), n, cache)
                for n in range(1, 5)]
        assert all(a is b for a, b in zip(four, five))
        assert builds == [(COBAR, "dual(com)", n) for n in range(1, 6)]
        # Arity 1 of com and ass reads the same data: one unit and its
        # composition; the label of the unit names nothing a complex uses.
        assert reduced_bar(builtin("com", 3), 1, cache) is \
            reduced_bar(builtin("ass", 3), 1, cache)

    def test_a_cache_hit_never_skips_a_bounds_error(self):
        cache = {}
        for n in range(1, 6):
            reduced_bar(builtin("com", 5), n, cache)
        with pytest.raises(BoundsError, match="arity 5 exceeds max_arity 4"):
            reduced_bar(builtin("com", 4), 5, cache)
        with pytest.raises(ValidationError, match="arity 4.0 is not an int"):
            reduced_bar(builtin("com", 5), 4.0, cache)

    @staticmethod
    def com_cut_at(top, max_arity):
        """com up to arity top, and zero from there to max_arity."""
        com = builtin("com", top)
        seq = SymSeq(com.ring, com.symseq.components, com.symseq.actions,
                     max_arity=max_arity)
        comp = dict(com.maps)
        for m in range(1, max_arity + 1):
            for n in range(1, max_arity + 2 - m):
                if m + n - 1 > top:
                    for a in range(1, m + 1):
                        comp[(m, a, n)] = ExactMatrix.zero(
                            0, seq.rank(m) * seq.rank(n))
        return Operad(seq, comp, name="com")

    def test_different_data_up_to_the_arity_never_shares(self):
        cache = {}
        com = [reduced_bar(builtin("com", 4), n, cache) for n in (3, 4)]
        cut = [reduced_bar(self.com_cut_at(3, 4), n, cache) for n in (3, 4)]
        # Equal up to arity 3, and the cut operad has no corolla at 4.
        assert cut[0] is com[0]
        assert cut[1] is not com[1]
        assert (cut[1].complex.module.total_rank(),
                com[1].complex.module.total_rank()) == (25, 26)


def _negated_terms(monkeypatch, match):
    """Negate the (un)grafting terms that barcobar._split_terms returns
    whenever match(bc, blocks) holds; the negated map is still a chain
    map."""
    original = barcobar._split_terms

    def negated(bc, skeleton, parts, blocks):
        terms = original(bc, skeleton, parts, blocks)
        if match(bc, tuple(tuple(sorted(b)) for b in blocks)):
            return [(label, factors, -c) for label, factors, c in terms]
        return terms
    monkeypatch.setattr(barcobar, "_split_terms", negated)


def _split_at(arity, b_set):
    return lambda bc, blocks: (bc.arity, blocks) == (arity, (b_set,))


class TestChecksRejectCorruptedMaps:
    """One negated structure map makes the matching identity check fail."""

    @pytest.mark.parametrize("name", ["com", "ass"])
    @pytest.mark.parametrize("arity,b_set", [(4, (3, 4)), (3, (2, 3)),
                                             (2, (2,))])
    def test_coassociativity(self, monkeypatch, name, arity, b_set):
        _negated_terms(monkeypatch, _split_at(arity, b_set))
        with pytest.raises(ValidationError, match="arity 4"):
            check_coassociativity(builtin(name, 4), 4)

    @pytest.mark.parametrize("arity,b_set", [(4, (2,)), (3, (2,))])
    def test_disjoint_cocompositions(self, monkeypatch, com, arity, b_set):
        _negated_terms(monkeypatch, _split_at(arity, b_set))
        with pytest.raises(ValidationError, match="arity 4"):
            check_disjoint_cocompositions(com, 4)

    @pytest.mark.parametrize("arity,b_set", [(3, (2,)), (4, (2, 3))])
    def test_cobar_associativity(self, monkeypatch, qcom, arity, b_set):
        _negated_terms(monkeypatch, _split_at(arity, b_set))
        with pytest.raises(ValidationError, match=f"arity {arity}"):
            check_cobar_associativity(qcom, arity)

    @pytest.mark.parametrize("check,arity,b_set,message", [
        (check_coassociativity, 4, (3, 4),
         "coassociativity fails at arity 4, split X=(2,) Y=(1,) Z=(3, 4), "
         "degree 3, column 8"),
        (check_disjoint_cocompositions, 4, (2,),
         "disjoint cocompositions disagree at arity 4, split X=(4,) "
         "Y=(1, 3) Z=(2,), degree 2, column 3"),
        (check_cobar_associativity, 3, (2,),
         "cobar associativity fails at arity 3, split X=(3,) Y=(1,) Z=(2,), "
         "degree -2, column 0"),
    ], ids=["coassociativity", "disjoint", "cobar"])
    def test_failure_names_the_split_degree_and_column(
            self, monkeypatch, com, qcom, check, arity, b_set, message):
        _negated_terms(monkeypatch, _split_at(arity, b_set))
        structure = qcom if check is check_cobar_associativity else com
        with pytest.raises(ValidationError) as failure:
            check(structure, arity)
        assert str(failure.value) == message

    @pytest.mark.parametrize("check", [
        check_coassociativity, check_cobar_associativity,
        check_disjoint_cocompositions])
    @pytest.mark.parametrize("arity,error", [
        (2.5, ValidationError), (True, ValidationError), (0, BoundsError),
        (-1, BoundsError)])
    def test_arity_must_be_a_positive_int(self, com, qcom, check, arity,
                                          error):
        structure = qcom if check is check_cobar_associativity else com
        with pytest.raises(error, match=f"arity {arity}"):
            check(structure, arity)

    @pytest.mark.parametrize("grouping", [[(), (0, 1)], [(0,), (5,)]],
                             ids=["empty-group", "block-out-of-range"])
    def test_pentagon_grouping_must_partition_the_blocks(self, grouping):
        with pytest.raises(ValidationError, match="partition the blocks"):
            check_module_pentagon_chain(_sphere_cobar(3), [(1, 2), (3,)],
                                        grouping, {})

    def _sphere_cobar(self, qcom):
        sphere = builtin_sphere_comodule(2, 3)
        runit = unit_module(qcom, RIGHT_COMODULE)
        return cobar_complex(runit, qcom, sphere, 3), sphere

    def test_unary_action(self, monkeypatch, qcom):
        cc, sphere = self._sphere_cobar(qcom)
        _negated_terms(
            monkeypatch, lambda bc, blocks: bc.l_coeff is sphere and
            blocks == ((1, 2, 3),))
        with pytest.raises(ValidationError, match="degree"):
            check_unary_action_is_identity(cc, {})

    def test_module_pentagon(self, monkeypatch, qcom):
        cc, sphere = self._sphere_cobar(qcom)
        _negated_terms(
            monkeypatch, lambda bc, blocks: bc.l_coeff is sphere and
            blocks == ((1, 2), (3,)))
        check_module_pentagon_chain(cc, [(1,), (2,), (3,)], [(0,), (1,), (2,)],
                                    {})
        with pytest.raises(ValidationError, match="lam="):
            check_module_pentagon_chain(cc, [(1,), (2,), (3,)],
                                        [(0, 1), (2,)], {})


def _point():
    """The coalgebra of a point: rank one in degree 0, zero coproduct."""
    return GradedFreeModule({0: ("p",)}), ExactMatrix.zero(1, 1)


@pytest.mark.parametrize("entry", [
    lambda a: builtin("com", a),
    lambda a: builtin("ass", a),
    lambda a: derivatives_homology(a),
    lambda a: module_MX_homology(*_point(), a),
    lambda a: builtin_sphere_comodule(2, a),
    lambda a: builtin_sphere_module(2, a),
    lambda a: constant_comodule(*_point(), a),
    lambda a: compose_product(builtin("com", 8).symseq,
                              builtin("com", 8).symseq, a),
], ids=["builtin-com", "builtin-ass", "derivatives", "module-mx",
        "sphere-comodule", "sphere-module", "constant-comodule",
        "compose-product"])
@pytest.mark.parametrize("bound,error", [
    (2.5, ValidationError), ("3", ValidationError), (True, ValidationError),
    (0, BoundsError), (-1, BoundsError), (9, BoundsError)])
def test_max_arity_is_an_int_in_range(entry, bound, error):
    with pytest.raises(error, match=f"arity {bound!r} is not an int"
                       if error is ValidationError
                       else f"arity {bound} outside 1..8"):
        entry(bound)

