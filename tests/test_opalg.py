import itertools
import re

import pytest

from opbar.combinat import perm_inverse, set_partitions
from opbar.errors import BoundsError, ParseError, ValidationError
from opbar.exactla import INT, RAT, ExactMatrix, GradedFreeModule
from opbar.opalg import (
    LEFT_COMODULE,
    LEFT_MODULE,
    MAX_BUILTIN_ARITY,
    RIGHT_COMODULE,
    RIGHT_MODULE,
    Cooperad,
    Operad,
    SidedModule,
    SymSeq,
    builtin,
    builtin_sphere_comodule,
    builtin_sphere_module,
    compose_product,
    constant_comodule,
    dual,
    dumps,
    fingerprint,
    loads,
    load_operad,
    operad_form,
    save,
    unit_module,
    unit_symseq,
)


@pytest.fixture(scope="module")
def com4():
    return builtin("com", 4)


@pytest.fixture(scope="module")
def ass3():
    return builtin("ass", 3)


class TestBuiltins:
    def test_com_validates(self, com4):
        assert com4.rank(3) == 1
        assert com4.component(2).degrees() == [0]

    def test_ass_ranks(self, ass3):
        assert [ass3.rank(n) for n in (1, 2, 3)] == [1, 2, 6]

    def test_ass_composition_matches_substitution_oracle(self, ass3):
        # Independent oracle: substitute the inner word into letter a of
        # the outer word, acting on positions rather than digits.
        def substitute(outer, a, inner):
            result = []
            for x in outer:
                if x == a:
                    result.extend(y + a - 1 for y in inner)
                elif x < a:
                    result.append(x)
                else:
                    result.append(x + len(inner) - 1)
            return tuple(result)

        words2 = [(1, 2), (2, 1)]
        labels2 = ["12", "21"]
        labels3 = [lab for _d, lab in ass3.component(3).basis()]
        for (i, w), (j, u) in itertools.product(
                enumerate(words2), enumerate(words2)):
            for a in (1, 2):
                col = ass3.comp(2, a, 2).column(i * 2 + j)
                expected = "".join(str(x) for x in substitute(w, a, u))
                assert col == {labels3.index(expected): 1}

    def test_ass_example_one_shot(self, ass3):
        # (21) o_1 (21) substitutes at the slot of input 1: word 3 2 1.
        labels2 = [lab for _d, lab in ass3.component(2).basis()]
        labels3 = [lab for _d, lab in ass3.component(3).basis()]
        i = labels2.index("21")
        col = ass3.comp(2, 1, 2).column(i * 2 + i)
        assert col == {labels3.index("321"): 1}

    def test_unit_symseq(self):
        unit = unit_symseq()
        assert unit.rank(1) == 1
        assert unit.rank(2) == 0

    def test_sphere_comodule_validates(self):
        sphere = builtin_sphere_comodule(2, 3)
        assert sphere.rank(3) == 1
        assert sphere.component(2).degrees() == [2]

    def test_sphere_comodule_odd_degree_validates(self):
        builtin_sphere_comodule(1, 3)

    def test_sphere_module_validates(self):
        builtin_sphere_module(2, 3)

    def test_unit_modules_validate(self, com4):
        unit_module(com4, LEFT_MODULE)
        unit_module(com4, RIGHT_MODULE)

    def test_builtin_bounds(self):
        with pytest.raises(BoundsError):
            builtin("com", 9)
        with pytest.raises(ValidationError):
            builtin("nosuch", 3)


class TestValidationCatchesCorruption:
    def test_broken_associativity_rejected(self, com4):
        comp = dict(com4.comp_maps)
        comp[(2, 1, 2)] = ExactMatrix(1, 1, {(0, 0): -1})
        with pytest.raises(ValidationError, match="axiom"):
            Operad(com4.symseq, comp, name="broken")

    @pytest.mark.parametrize("name", ["com", "ass"])
    @pytest.mark.parametrize("kind", ["operad", "cooperad", "right_module",
                                      "right_comodule"])
    def test_every_negated_partial_is_rejected(self, kind, name):
        # Negating one (co)composition matrix keeps every shape and every
        # Coxeter relation, so only the partial-composition axioms see it.
        op = builtin(name, 4)
        q = dual(op)
        maps = op.comp_maps if kind in ("operad", "right_module") \
            else q.cocomp_maps
        assert len(maps) == 20 and all(m.nnz() for m in maps.values())

        def build(data):
            if kind == "operad":
                return Operad(op.symseq, data, name="broken")
            if kind == "cooperad":
                return Cooperad(q.symseq, data, name="broken")
            if kind == "right_module":
                return SidedModule(RIGHT_MODULE, op.symseq, op, data)
            return SidedModule(RIGHT_COMODULE, q.symseq, q, data)

        build(dict(maps))
        for key, mat in maps.items():
            data = dict(maps)
            data[key] = mat.scale(-1)
            with pytest.raises(ValidationError):
                build(data)

    def test_sign_action_breaks_equivariance(self, com4):
        # The sign representation at arity 3 is a valid Sigma_3 action,
        # but the compositions of com are not equivariant for it.
        actions = dict(com4.symseq.actions)
        actions[3] = tuple(m.scale(-1) for m in actions[3])
        signed = SymSeq(INT, com4.symseq.components, actions)
        with pytest.raises(ValidationError, match="equivariance"):
            Operad(signed, com4.comp_maps, name="signed")
        with pytest.raises(ValidationError, match="equivariance"):
            SidedModule(RIGHT_MODULE, signed, com4, com4.comp_maps)

    def test_left_unit_is_an_operad_axiom_only(self, com4):
        # M(1) acting by -1 keeps every right-module axiom of com over
        # itself; only the operad's left unit sees it.
        comp = dict(com4.comp_maps)
        for n in (2, 3, 4):
            comp[(1, 1, n)] = comp[(1, 1, n)].scale(-1)
        SidedModule(RIGHT_MODULE, com4.symseq, com4, comp)
        with pytest.raises(ValidationError,
                           match=r"left unit axiom .*\(1,1,2\)"):
            Operad(com4.symseq, comp, name="broken")

    def test_comodule_over_an_operad_rejected(self, com4):
        with pytest.raises(ValidationError, match="over a cooperad"):
            SidedModule(RIGHT_COMODULE, com4.symseq, com4, com4.comp_maps)

    @pytest.mark.parametrize("name", ["com", "ass"])
    def test_structures_are_right_modules_over_themselves(self, name):
        op = builtin(name, 4)
        q = dual(op)
        SidedModule(RIGHT_MODULE, op.symseq, op, op.comp_maps)
        SidedModule(RIGHT_COMODULE, q.symseq, q, q.cocomp_maps)

    @pytest.mark.parametrize("sigma", [(1, 1, 2), (0, 1, 2), (2, 3, 4),
                                       (1, 2)])
    def test_action_of_a_non_permutation_rejected(self, ass3, sigma):
        with pytest.raises(ValidationError,
                           match=re.escape(f"{sigma} is not a permutation "
                                           "of 1..3")):
            ass3.symseq.action(3, sigma)
        assert (3, sigma) not in ass3.symseq._action_cache

    @pytest.mark.parametrize("name", ["com", "ass"])
    def test_structures_are_left_modules_over_themselves(self, name):
        # act_lam = sigma_lam . gamma, where sigma_lam sends the inputs of
        # gamma(p; q_1..q_r), taken block after block, onto the labels of
        # lam; with sigma_lam^-1 instead, ass fails the pentagon.
        op = builtin(name, 4)
        q = dual(op)

        def acts(inverse):
            maps = {}
            for n in range(1, 5):
                for lam in set_partitions(range(1, n + 1)):
                    sigma = tuple(x for b in lam for x in b)
                    sigma = perm_inverse(sigma) if inverse else sigma
                    maps[lam] = op.action(n, sigma) * op.full_composition(
                        [len(b) for b in lam])
            return maps

        for inverse in (False, True):
            maps = acts(inverse)
            comaps = {k: m.transpose() for k, m in maps.items()}
            if inverse and name == "ass":
                for side, over, data in ((LEFT_MODULE, op, maps),
                                         (LEFT_COMODULE, q, comaps)):
                    with pytest.raises(ValidationError, match=re.escape(
                            "pentagon fails for partition ((1,), (2,), "
                            "(3, 4))")):
                        SidedModule(side, over.symseq, over, data)
            else:
                SidedModule(LEFT_MODULE, op.symseq, op, maps)
                SidedModule(LEFT_COMODULE, q.symseq, q, comaps)

    def test_broken_action_rejected(self):
        comps = {1: GradedFreeModule({0: ("e",)}),
                 2: GradedFreeModule({0: ("a", "b")})}
        bad = ExactMatrix(2, 2, {(0, 0): 1, (0, 1): 1, (1, 1): 1})
        with pytest.raises(ValidationError, match="Coxeter"):
            SymSeq(INT, comps, {2: (bad,)})

    @pytest.mark.parametrize("arity", [2.5, True, "2"])
    def test_non_int_arity_rejected(self, arity):
        # int() used to store the arity 2.5 as 2.
        comps = {arity: GradedFreeModule({0: ("a",)})}
        with pytest.raises(ValidationError, match=f"arity {arity!r} is not"):
            SymSeq(INT, comps, {}, check=False)
        with pytest.raises(ValidationError, match=f"arity {arity!r} is not"):
            SymSeq(INT, {}, {arity: (ExactMatrix.identity(1),)}, check=False)


class TestComposeProduct:
    def test_unit_laws(self, com4):
        unit = unit_symseq()
        for arity in (1, 2, 3):
            left = compose_product(unit, com4.symseq, arity)
            right = compose_product(com4.symseq, unit, arity)
            want = com4.component(arity)
            assert [left.rank(d) for d in want.degrees()] == \
                [want.rank(d) for d in want.degrees()]
            assert left.total_rank() == right.total_rank() == want.total_rank()

    def test_com_com_arity_three(self, com4):
        prod = compose_product(com4.symseq, com4.symseq, 3)
        assert prod.total_rank() == 5
        assert prod.degrees() == [0]

    def test_rank_identity_against_partition_enumerator(self, ass3):
        # Independent brute-force partition count oracle.
        from opbar.combinat import set_partitions
        import math
        n = 3
        expected = 0
        for blocks in set_partitions(range(1, n + 1)):
            term = math.factorial(len(blocks))
            for b in blocks:
                term *= math.factorial(len(b))
            expected += term
        prod = compose_product(ass3.symseq, ass3.symseq, n)
        assert prod.total_rank() == expected

    def test_bounds(self, com4):
        with pytest.raises(BoundsError):
            compose_product(com4.symseq, com4.symseq, 5)


class TestDual:
    def test_involution(self, ass3):
        dd = dual(dual(ass3))
        assert dd.symseq == ass3.symseq
        assert dd.comp_maps == ass3.comp_maps

    def test_dual_com_is_cocommutative_cooperad(self, com4):
        q = dual(com4)
        assert isinstance(q, Cooperad)
        assert all(q.rank(n) == 1 for n in range(1, 5))
        assert q.component(3).degrees() == [0]

    def test_dual_ass_ranks(self, ass3):
        q = dual(ass3)
        assert [q.rank(n) for n in (1, 2, 3)] == [1, 2, 6]
        assert q.component(3).degrees() == [0]

    def test_dual_flips_module_side(self):
        sphere = builtin_sphere_comodule(2, 3)
        m = dual(sphere)
        assert m.side == LEFT_MODULE
        assert m.component(2).degrees() == [-2]


def _dual_cases():
    """Every kind of structure these tests build, with components in one
    degree per arity and in several."""
    com = builtin("com", 4)

    def coalgebra(spaces, entries):
        x = GradedFreeModule(spaces)
        r = x.total_rank()
        return constant_comodule(x, ExactMatrix(r * r, r, entries), 4)

    return {
        "com": lambda: com, "ass": lambda: builtin("ass", 3),
        "dual-com": lambda: dual(com), "unit-symseq": unit_symseq,
        **{f"unit-{side}": lambda side=side: unit_module(
            com if side in (LEFT_MODULE, RIGHT_MODULE) else dual(com), side)
           for side in (LEFT_MODULE, RIGHT_MODULE, LEFT_COMODULE,
                        RIGHT_COMODULE)},
        **{f"sphere{r}-module": lambda r=r: builtin_sphere_module(r, 4)
           for r in (1, 2, 3)},
        **{f"sphere{r}-comodule": lambda r=r: builtin_sphere_comodule(r, 4)
           for r in (1, 2, 3)},
        "a2-t4": lambda: coalgebra({2: ("a",), 4: ("t",)}, {(0, 1): 1}),
        "a2-b4-c6": lambda: coalgebra({2: ("a",), 4: ("b",), 6: ("c",)},
                                      {(0, 1): 1, (1, 2): 1, (3, 2): 1}),
        "s2-times-s3": lambda: coalgebra({2: ("x",), 3: ("y",), 5: ("z",)},
                                         {(1, 2): 1, (3, 2): 1}),
        "s2-wedge-s3": lambda: coalgebra({2: ("x",), 3: ("y",)}, {}),
        "odd-flip": lambda: coalgebra({1: ("x", "y"), 2: ("t",)},
                                      {(1, 2): 1, (3, 2): -1}),
    }


@pytest.mark.parametrize("name", sorted(_dual_cases()))
def test_dual_is_an_involution(name):
    structure = _dual_cases()[name]()
    twice = dual(dual(structure))
    assert type(twice) is type(structure)
    assert twice == structure


@pytest.mark.parametrize("name", ["a2-t4", "a2-b4-c6", "s2-times-s3"])
def test_dual_of_a_spread_comodule_is_a_checked_module(name):
    # Components with several degrees: the dual's maps are reindexed into
    # the negated blocks' order, so the dual validates as a left module.
    c = _dual_cases()[name]()
    d = dual(c)
    assert SidedModule(LEFT_MODULE, d.symseq, d.over, d.maps) == d


def test_structure_maps_must_have_degree_zero():
    # Transposing without reindexing, as dual once did, sends t (x) t in
    # degree -8 to a in degree -2.
    c = _dual_cases()["a2-t4"]()
    transposed = {k: m.transpose() for k, m in c.maps.items()}
    for check in (True, False):
        with pytest.raises(ValidationError, match="not of degree 0"):
            SidedModule(LEFT_MODULE, c.symseq.dual_symseq(), dual(c.over),
                        transposed, check=check)
    com = builtin("com", 3)
    shifted = SymSeq(INT, {1: com.component(1), 2: com.component(2),
                           3: GradedFreeModule({1: ("x",)})},
                     com.symseq.actions)
    with pytest.raises(ValidationError, match=r"operad bad: structure map "
                                              r"\(2, 1, 2\) is not of degree 0"):
        Operad(shifted, com.comp_maps, name="bad", check=False)


class TestConstantComodule:
    def test_sphere_like_coalgebra(self):
        x = GradedFreeModule({2: ("x",)})
        delta = ExactMatrix.zero(1, 1)
        c = constant_comodule(x, delta, 3)
        assert c.rank(2) == 1

    def test_nontrivial_coalgebra_validates(self):
        # k[e]/e^2 with primitive-free reduced coproduct on the top class:
        # X spanned by a (deg 2), t (deg 4); Delta(t) = a (x) a.
        x = GradedFreeModule({2: ("a",), 4: ("t",)})
        delta = ExactMatrix(4, 2, {(0, 1): 1})
        c = constant_comodule(x, delta, 3)
        assert c.rank(1) == 2

    def test_non_cocommutative_rejected(self):
        # Delta(t) = x (x) y alone is not graded cocommutative.
        x = GradedFreeModule({1: ("x", "y"), 2: ("t",)})
        delta = ExactMatrix(9, 3, {(1, 2): 1})
        with pytest.raises(ValidationError, match="cocommutative|coassociative"):
            constant_comodule(x, delta, 3)

    def test_non_coassociative_rejected(self):
        # Delta(c) = a (x) a, Delta(d) = b (x) c + c (x) b: cocommutative,
        # but (Delta (x) 1) Delta(d) = a a b and (1 (x) Delta) Delta(d) = b a a.
        x = GradedFreeModule({2: ("a", "b"), 4: ("c",), 6: ("d",)})
        delta = ExactMatrix(16, 4, {(0, 2): 1, (1 * 4 + 2, 3): 1,
                                    (2 * 4 + 1, 3): 1})
        with pytest.raises(ValidationError, match="not coassociative"):
            constant_comodule(x, delta, 3)

    def test_odd_flip_carries_the_koszul_sign(self):
        # Delta(t) = x (x) y - y (x) x is graded cocommutative only because
        # swapping two odd factors costs a sign.
        x = GradedFreeModule({1: ("x", "y"), 2: ("t",)})
        delta = ExactMatrix(9, 3, {(1, 2): 1, (3, 2): -1})
        assert constant_comodule(x, delta, 3).rank(3) == 3


def _coalgebra(spaces, coproduct_entries):
    x = GradedFreeModule(spaces)
    r = x.total_rank()
    return constant_comodule(x, ExactMatrix(r * r, r, coproduct_entries), 4)


def _rebuild(comodule, form, maps=None, symseq=None):
    """The comodule with replaced data, validated as itself or, dualized,
    as a left module."""
    built = SidedModule(LEFT_COMODULE, symseq or comodule.symseq,
                        comodule.over, maps or comodule.maps, check=False)
    if form == "module":
        built = dual(built)
        return SidedModule(LEFT_MODULE, built.symseq, built.over, built.maps)
    return SidedModule(LEFT_COMODULE, built.symseq, built.over, built.maps)


@pytest.mark.parametrize("form", ["comodule", "module"])
class TestLeftAxiomsCatchCorruption:
    # X = {2: a, 4: b, 6: c} with Delta(b) = a a, Delta(c) = a b + b a.
    abc = staticmethod(lambda: _coalgebra(
        {2: ("a",), 4: ("b",), 6: ("c",)}, {(0, 1): 1, (1, 2): 1, (3, 2): 1}))
    # X = {2: a, 4: t} with Delta(t) = a a.
    at = staticmethod(lambda: _coalgebra({2: ("a",), 4: ("t",)}, {(0, 1): 1}))

    def test_uncorrupted_data_validates(self, form):
        _rebuild(self.abc(), form)
        _rebuild(self.at(), form)

    def test_pentagon(self, form):
        c = self.abc()
        maps = {k: m.scale(-1) if len(k) == 2 and sum(map(len, k)) == 3
                else m for k, m in c.maps.items()}
        with pytest.raises(ValidationError, match=re.escape(
                "pentagon fails for partition ((1,), (2,), (3,))")):
            _rebuild(c, form, maps=maps)

    def test_equivariance(self, form):
        c = self.at()
        maps = dict(c.maps)
        maps[((1, 2), (3,))] = maps[((1, 2), (3,))].scale(-1)
        with pytest.raises(ValidationError, match="equivariance"):
            _rebuild(c, form, maps=maps)

    def test_sign_action_breaks_equivariance(self, form):
        c = self.at()
        actions = dict(c.symseq.actions)
        actions[3] = tuple(m.scale(-1) for m in actions[3])
        signed = SymSeq(INT, c.symseq.components, actions)
        with pytest.raises(ValidationError, match="equivariance"):
            _rebuild(c, form, symseq=signed)

    def test_unit(self, form):
        c = self.at()
        maps = dict(c.maps)
        maps[((1, 2),)] = maps[((1, 2),)].scale(-1)
        with pytest.raises(ValidationError, match="unit action"):
            _rebuild(c, form, maps=maps)


class TestIO:
    def test_round_trip_com(self, com4, tmp_path):
        path = tmp_path / "com.opb"
        save(com4, path)
        loaded = load_operad(path)
        assert loaded == com4

    def test_round_trip_ass(self, ass3, tmp_path):
        path = tmp_path / "ass.opb"
        save(ass3, path)
        assert load_operad(path) == ass3

    def test_round_trip_cooperad_and_module(self, tmp_path):
        sphere = builtin_sphere_comodule(2, 3)
        text = dumps(sphere)
        loaded = loads(text)
        assert loaded[-1] == sphere

    def test_corrupted_composition_rejected(self, com4):
        text = dumps(com4)
        lines = text.splitlines()
        # Flip the sign of one composition entry: breaks associativity.
        for i, line in enumerate(lines):
            if line.startswith("begin map comp 2 1 2"):
                lines[i + 1] = "0 0 -1"
                break
        with pytest.raises(ValidationError, match="axiom"):
            loads("\n".join(lines))

    def test_parse_error_has_location(self):
        with pytest.raises(ParseError, match="line 1"):
            loads("not a structure file")

    def test_every_truncation_is_a_parse_error(self):
        lines = dumps(builtin("com", 3)).splitlines()
        for cut in range(1, len(lines)):
            with pytest.raises((ParseError, ValidationError)):
                loads("\n".join(lines[:cut]))

    def test_missing_end_reported(self, com4):
        text = dumps(com4)
        broken = text.replace("endstructure", "", 1)
        with pytest.raises(ParseError):
            loads(broken[:broken.rindex("end")])


def _round_trip_cases():
    com = builtin("com", 4)
    x = GradedFreeModule({2: ("a",), 4: ("t",)})
    return {
        "com": com, "ass": builtin("ass", 3), "unit": unit_symseq(),
        "unit-left": unit_module(com, LEFT_MODULE),
        "unit-right": unit_module(com, RIGHT_MODULE),
        "sphere-module": builtin_sphere_module(2, 3),
        "sphere-comodule": builtin_sphere_comodule(1, 3),
        "constant-comodule": constant_comodule(
            x, ExactMatrix(4, 2, {(0, 1): 1}), 3),
    }


class TestFingerprint:
    def test_max_arities_agree_up_to_the_smaller(self):
        four, five = builtin("com", 4), builtin("com", 5)
        assert fingerprint(four, 4) == fingerprint(five, 4)
        assert fingerprint(dual(four), 3) == fingerprint(dual(five), 3)
        # A structure that stops below an arity never matches one that
        # reaches it.
        assert fingerprint(four, 5) != fingerprint(five, 5)
        assert fingerprint(four, 5)[-1] is None

    def test_chunks_are_built_once_and_shared(self):
        com = builtin("com", 5)
        assert all(a is b for a, b in zip(fingerprint(com, 3),
                                          fingerprint(com, 5)))

    def test_ring_kind_and_data_separate_labels_and_names_do_not(self):
        com, ass = builtin("com", 3), builtin("ass", 3)
        # Arity 1 of both is one unit and its composition; the label of
        # the unit names nothing a complex reads.
        assert fingerprint(com, 1) == fingerprint(ass, 1)
        assert fingerprint(com, 2) != fingerprint(ass, 2)
        assert fingerprint(builtin("com", 3, ring=RAT), 1) != \
            fingerprint(com, 1)
        assert fingerprint(dual(com), 1) != fingerprint(com, 1)

    def test_zero_module_maps_read_as_absent_ones(self):
        x = GradedFreeModule({2: ("x",)})
        mx = constant_comodule(x, ExactMatrix.zero(1, 1), 4, name="mx")
        sphere = builtin_sphere_comodule(2, 4)
        assert len(mx.maps) > len(sphere.maps)
        assert fingerprint(mx, 4) == fingerprint(sphere, 4)


@pytest.mark.parametrize("name", list(_round_trip_cases()))
def test_loads_inverts_dumps(name):
    structure = _round_trip_cases()[name]
    loaded = loads(dumps(structure))[-1]
    assert loaded == structure
    # Every stored arity is at most MAX_BUILTIN_ARITY.
    assert fingerprint(loaded, MAX_BUILTIN_ARITY) == \
        fingerprint(structure, MAX_BUILTIN_ARITY)
    assert loaded.max_arity == structure.max_arity


# (line number in dumps(com at arity 2), replacement, reported line)
MALFORMED = {
    "component-arity": (6, "begin component x", 6),
    "degree": (7, "degree z e", 7),
    "entry-value": (13, "0 0 one", 13),
    "bare-max-arity": (5, "max_arity", 5),
    "short-key": (15, "begin map comp 1 1", 15),
    "bare-begin": (6, "begin component", 6),
    "ring": (4, "ring R", 4),
    "generator": (12, "begin action 2 5", 12),
    "entry-outside-shape": (16, "3 0 1", 15),
    "entry-index": (16, "0 a 1", 16),
    "wrong-tag": (15, "begin map smap 1 1 1", 15),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_every_malformed_line_names_its_line(case):
    lineno, text, reported = MALFORMED[case]
    lines = dumps(builtin("com", 2)).splitlines()
    lines[lineno - 1] = text
    with pytest.raises(ParseError, match=f"^line {reported}: "):
        loads("\n".join(lines))


def test_malformed_left_map_key_names_its_line():
    lines = dumps(unit_module(builtin("com", 2), LEFT_MODULE)).splitlines()
    at = lines.index("begin map smap 1")
    lines[at] = "begin map smap 1.x"
    with pytest.raises(ParseError, match=f"^line {at + 1}: "):
        loads("\n".join(lines))


@pytest.mark.parametrize("build", [
    pytest.param(lambda: builtin("com", 4), id="com"),
    pytest.param(lambda: builtin("ass", 4), id="ass"),
    pytest.param(lambda: builtin_sphere_module(1, 4), id="sphere-module"),
])
def test_operad_form_of_the_dual_is_the_original(build):
    # The dual stores transposes and the dual action; read in operad form
    # it must give back the original matrices entrywise.
    x = build()
    view, dual_view = operad_form(x), operad_form(dual(x))
    for n in range(1, 5):
        for sigma in itertools.permutations(range(1, n + 1)):
            assert dual_view.action(n, sigma) == x.action(n, sigma)
    if isinstance(x, Operad):
        assert x.comp_maps
        for (m, a, n), mat in x.comp_maps.items():
            assert dual_view.partial(m, a, n) == mat == view.partial(m, a, n)
    else:
        for n in range(1, 5):
            for lam in set_partitions(range(1, n + 1)):
                got = dual_view.left_action(lam)
                assert got == view.left_action(lam)
                assert got == x.maps[lam] if lam in x.maps else got.is_zero()


class TestFullComposition:
    def test_com_full_composition_is_rank_one(self, com4):
        mat = com4.full_composition((2, 2))
        assert mat.nrows == 1 and mat.ncols == 1
        assert mat.entry(0, 0) == 1

    def test_ass_full_composition_agrees_with_partials(self, ass3):
        # gamma(p; q1, q2) == (p o_2 q2) o_1 q1 for 1+1 -> 2 insertion.
        full = ass3.full_composition((1, 2))
        step1 = ass3.comp(2, 1, 1)
        for i in range(2):
            for j in range(2):
                via_full = full.column(i * 2 + j)
                mid = step1.column(i * 1 + 0)
                out = {}
                for w, c in mid.items():
                    for r, v in ass3.comp(2, 2, 2).column(w * 2 + j).items():
                        out[r] = out.get(r, 0) + c * v
                assert via_full == out
