import itertools
import math
import random
import re
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opbar import exactla
from opbar.barcobar import (
    bar_cocomposition,
    cobar_complex,
    cobar_composition,
    module_structure_maps,
    reduced_bar,
    reduced_cobar,
    simplicial_bar_complex,
    symmetric_action,
)
from opbar.errors import ValidationError
from opbar.exactla import (
    INT,
    RAT,
    ChainComplex,
    ChainMap,
    ExactMatrix,
    GradedFreeModule,
    HomologySummary,
    alternating_trace,
    column_space_basis,
    homology,
    homology_coordinates,
    homology_representatives,
    kernel_basis,
    koszul_sign,
    matrix_rank,
    reindexing_map,
    smith_normal_form,
    solve_in_span,
    tensor_chain_maps,
    tensor_list,
    tensor_vector,
)
from opbar.opalg import (
    LEFT_MODULE,
    RIGHT_COMODULE,
    RIGHT_MODULE,
    builtin,
    builtin_sphere_comodule,
    builtin_sphere_module,
    dual,
    unit_module,
)
from opbar.partition import partition_complex


def mat(rows, ring=INT):
    entries = {}
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                entries[(i, j)] = v
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    return ExactMatrix(nrows, ncols, entries, ring=ring)


class TestSmithNormalForm:
    def test_zero_matrix(self):
        assert smith_normal_form(ExactMatrix.zero(3, 4)) == []

    def test_identity(self):
        assert smith_normal_form(ExactMatrix.identity(4)) == [1, 1, 1, 1]

    def test_frozen_example(self):
        # d1 = gcd of entries = 2, d1*d2 = |det| = 8.
        assert smith_normal_form(mat([[2, 4], [6, 8]])) == [2, 4]

    def test_divisibility_chain(self):
        factors = smith_normal_form(mat([[2, 0, 0], [0, 3, 0], [0, 0, 4]]))
        assert factors == [1, 2, 12]
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0

    def test_rank_deficient(self):
        assert smith_normal_form(mat([[1, 2], [2, 4]])) == [1]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_invariance_under_unimodular_ops(self, seed):
        rng = random.Random(seed)
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)]
        base = smith_normal_form(mat(rows))
        for _ in range(6):
            kind = rng.random()
            if kind < 0.4 and n > 1:
                i, j = rng.sample(range(n), 2)
                c = rng.randint(-3, 3)
                for col in range(m):
                    rows[i][col] += c * rows[j][col]
            elif kind < 0.8 and m > 1:
                i, j = rng.sample(range(m), 2)
                c = rng.randint(-3, 3)
                for r in rows:
                    r[i] += c * r[j]
            else:
                i = rng.randrange(n)
                rows[i] = [-v for v in rows[i]]
        assert smith_normal_form(mat(rows)) == base


class TestMatrixBasics:
    def test_mul_and_transpose(self):
        a = mat([[1, 2], [0, 1]])
        b = mat([[1, 0], [3, 1]])
        assert (a * b) == mat([[7, 2], [3, 1]])
        assert a.transpose() == mat([[1, 0], [2, 1]])

    def test_mixed_rings_rejected(self):
        z = ExactMatrix(2, 2, {(0, 0): 1})
        q = ExactMatrix(2, 2, {(0, 0): Fraction(1, 2)}, ring=RAT)
        for combine in (lambda a, b: a * b, lambda a, b: a + b,
                        lambda a, b: a - b):
            with pytest.raises(ValidationError, match="a Z matrix with a Q"):
                combine(z, q)

    @pytest.mark.parametrize("key", [(0.5, 0), (0, True), ("0", 1)])
    def test_non_integer_index_rejected(self, key):
        # (0.5, 0) once passed the bounds check and was stored as row 0.5.
        with pytest.raises(ValidationError, match="index that is not an int"):
            ExactMatrix(2, 2, {key: 1})

    def test_kron_refuses_mixed_rings(self):
        z = ExactMatrix(2, 2, {(0, 0): 1, (1, 1): 1})
        q = ExactMatrix(2, 2, {(0, 0): Fraction(1, 2)}, ring=RAT)
        with pytest.raises(ValidationError, match="a Z matrix with a Q"):
            z.kron(q)
        with pytest.raises(ValidationError, match="a Q matrix with a Z"):
            q.kron(z)

    def test_apply_refuses_an_index_outside_the_columns(self):
        m = mat([[1, 2], [3, 4]])
        assert m.apply({0: 1, 1: -1}) == {0: -1, 1: -1}
        assert m.apply({}) == {}
        for vec, bad in (({5: 1, -1: 2}, -1), ({2: 1}, 2), ({0: 1, 7: 0}, 7)):
            with pytest.raises(ValidationError,
                               match=rf"index {bad} outside the 2 columns"):
                m.apply(vec)

    def test_negative_shape_rejected(self):
        with pytest.raises(ValidationError, match="shape -1x3"):
            ExactMatrix(-1, 3)

    @pytest.mark.parametrize("shape", [(2.5, 1), (2, True)])
    def test_non_integer_shape_rejected(self, shape):
        # 2.5 rows once built a matrix with an entry in row 2.
        nrows, ncols = shape
        with pytest.raises(ValidationError,
                           match=f"shape {nrows!r}x{ncols!r} is not"):
            ExactMatrix(nrows, ncols, {(2, 0): 1})

    def test_rank_rational(self):
        m = mat([[Fraction(1, 2), 1], [1, 2]], ring=RAT)
        assert matrix_rank(m) == 1

    def test_kernel_and_solve(self):
        m = mat([[1, 1, 0], [0, 0, 1]])
        ker = kernel_basis(m)
        assert len(ker) == 1
        assert ker[0] == {0: Fraction(1), 1: Fraction(-1)}
        coeffs = solve_in_span([{0: 1, 1: 1}, {1: 1}], {0: 2, 1: 3})
        assert coeffs == {0: Fraction(2), 1: Fraction(1)}
        assert solve_in_span([{0: 1}], {1: 1}) is None
        # Explicit zero entries neither divide by zero nor block a solve.
        assert solve_in_span([{0: 0, 1: 1}], {0: 0, 1: 2}) == {0: 2}


def dense(m):
    """The rows of m as a dense list of lists."""
    return [[m.entry(i, j) for j in range(m.ncols)] for i in range(m.nrows)]


def dense_product(a, b, ncols):
    return [[sum(x * b[k][j] for k, x in enumerate(row))
             for j in range(ncols)] for row in a]


def dense_kron(a, b, ncols_a, ncols_b):
    return [[ra[j // ncols_b] * rb[j % ncols_b]
             for j in range(ncols_a * ncols_b)] for ra in a for rb in b]


def assert_canonical(m):
    """No stored zero, no empty row, every index in range."""
    for i, row in m._rows.items():
        assert 0 <= i < m.nrows and row
        assert all(0 <= j < m.ncols and v != 0 for j, v in row.items())


# Few distinct values, so products and sums cancel often.
ENTRIES = st.sampled_from([0, 0, 0, 1, -1, 2, -2, Fraction(1, 2),
                           Fraction(-1, 2)])


@st.composite
def sparse_matrices(draw, nrows, ncols, ring):
    """(matrix, dense rows) with entries from ENTRIES, ints only over Z."""
    values = ENTRIES if ring == RAT else ENTRIES.filter(
        lambda v: type(v) is int)
    rows = [[draw(values) for _j in range(ncols)] for _i in range(nrows)]
    return mat(rows, ring=ring), rows


class TestKernelOutputs:
    """Products, Kronecker products, transposes, sums and scalings against
    a dense reference; no output stores a zero or an empty row."""

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.sampled_from([INT, RAT]),
           *(st.integers(min_value=1, max_value=4) for _ in range(4)))
    def test_match_the_dense_reference(self, data, ring, n, m, k, p):
        (a, da) = data.draw(sparse_matrices(n, m, ring))
        (b, db) = data.draw(sparse_matrices(m, k, ring))
        (c, dc) = data.draw(sparse_matrices(n, m, ring))
        (e, de) = data.draw(sparse_matrices(k, p, ring))
        scalar = data.draw(ENTRIES)
        results = [
            (a * b, dense_product(da, db, k)),
            (a.kron(e), dense_kron(da, de, m, p)),
            (a.transpose(), [list(col) for col in zip(*da)]),
            (a + c, [[x + y for x, y in zip(r, s)] for r, s in zip(da, dc)]),
            (a - c, [[x - y for x, y in zip(r, s)] for r, s in zip(da, dc)]),
            (a.scale(scalar), [[scalar * x for x in r] for r in da]),
        ]
        for got, want in results:
            assert_canonical(got)
            assert got.ring == ring
            assert dense(got) == want
            assert got == ExactMatrix(got.nrows, got.ncols, {
                (i, j): v for i, row in enumerate(want)
                for j, v in enumerate(row) if v}, ring=ring)

    def test_a_cancelling_product_is_the_zero_matrix(self):
        a, b = mat([[1, 1], [2, 2]]), mat([[1, 3], [-1, -3]])
        product = a * b
        assert product._rows == {}
        assert product == ExactMatrix.zero(2, 2)
        total = a + mat([[-1, -1], [0, 0]])
        assert total._rows == {1: {0: 2, 1: 2}}
        assert a.kron(ExactMatrix.zero(1, 3)) == ExactMatrix.zero(2, 6)


def dense_rank(rows):
    """Rank over Q by dense Gaussian elimination (independent oracle)."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col] / rows[rank][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def fraction_det(rows):
    """Determinant by Fraction Gaussian elimination (independent oracle)."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(a)):
        p = next((r for r in range(c, len(a)) if a[r][c]), None)
        if p is None:
            return 0
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return int(det)


def dense_inverse(rows):
    """Inverse of an invertible square matrix by Fraction Gauss-Jordan
    elimination (independent oracle)."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c])
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def determinantal_factors(rows):
    """d_k = D_k / D_(k-1), D_k the gcd of all k x k minors, while D_k != 0."""
    n, m = len(rows), len(rows[0])
    factors, prev = [], 1
    for k in range(1, min(n, m) + 1):
        dk = 0
        for rs in itertools.combinations(range(n), k):
            for cs in itertools.combinations(range(m), k):
                dk = math.gcd(dk, fraction_det(
                    [[rows[r][c] for c in cs] for r in rs]))
        if dk == 0:
            break
        factors.append(dk // prev)
        prev = dk
    return factors


def random_sparse_rows(rng, n, m, bound):
    """Sparse integer rows, some of them combinations of earlier ones."""
    density = rng.random()
    rows = [[rng.randint(-bound, bound) if rng.random() < density else 0
             for _ in range(m)] for _ in range(n)]
    for r in range(1, n):
        if rng.random() < 0.3:
            a, b = rng.randrange(r), rng.randrange(r)
            x, y = rng.randint(-2, 2), rng.randint(-2, 2)
            rows[r] = [x * u + y * v for u, v in zip(rows[a], rows[b])]
    return rows


class TestEliminationOracles:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_smith_form_matches_determinantal_divisors(self, seed):
        rng = random.Random(seed)
        rows = random_sparse_rows(rng, rng.randint(1, 6), rng.randint(1, 6), 6)
        assert smith_normal_form(mat(rows)) == determinantal_factors(rows)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_smith_form_of_units_non_units_and_torsion(self, seed):
        # U D V with unimodular U and V and a diagonal D that mixes units,
        # zeros and entries > 1 whose chain makes new units and torsion.
        rng = random.Random(seed)
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[0] * m for _ in range(n)]
        for i in range(min(n, m)):
            rows[i][i] = rng.choice([1, 1, 1, 0, 2, 3, 4, 6, 9, -1, -2])
        for _ in range(rng.randint(0, 12)):
            a, b = rng.sample(range(n), 2) if n > 1 else (0, 0)
            c, d = rng.sample(range(m), 2) if m > 1 else (0, 0)
            q = rng.randint(-2, 2)
            if a != b:
                rows[a] = [x + q * y for x, y in zip(rows[a], rows[b])]
            if c != d:
                for row in rows:
                    row[c] += q * row[d]
        assert smith_normal_form(mat(rows)) == determinantal_factors(rows)

    def test_units_are_set_aside_from_the_divisor_chain(self):
        # diag(1, 2, 1, 3, 4): the entries > 1 chain to 1 | 2 | 12.
        rows = [[0] * 5 for _ in range(5)]
        for i, v in enumerate([1, 2, 1, 3, 4]):
            rows[i][i] = v
        assert smith_normal_form(mat(rows)) == [1, 1, 1, 2, 12] == \
            determinantal_factors(rows)

    def test_pivot_that_outlives_its_remainder_step(self):
        # A pivot here survives its Euclidean step without being written
        # again, so its queued key is the only one it has.
        rows = [[7, -2, 0, 0, 0, 6, -2, 4],
                [0, 0, -5, -2, 0, 0, 0, 0],
                [0, 0, 6, 2, 0, 0, 4, 0],
                [0, 0, 0, 0, 0, 0, 2, 0]]
        assert smith_normal_form(mat(rows)) == determinantal_factors(rows)
        assert matrix_rank(mat(rows)) == dense_rank(rows)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_rank_matches_dense_elimination(self, seed):
        rng = random.Random(seed)
        rows = random_sparse_rows(rng, rng.randint(1, 30), rng.randint(1, 30),
                                  6)
        assert matrix_rank(mat(rows)) == dense_rank(rows)
        scaled = [[Fraction(v, rng.randint(1, 6)) for v in row]
                  for row in rows]
        assert matrix_rank(mat(scaled, ring=RAT)) == dense_rank(scaled)

    def test_half_integers_rejected(self):
        m = ExactMatrix(2, 2, {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 3)})
        with pytest.raises(ValidationError, match=r"entry \(0,0\) = .*1, 2"):
            smith_normal_form(m)
        with pytest.raises(ValidationError, match=r"entry \(0,0\)"):
            matrix_rank(m)

    def test_float_entry_rejected(self):
        # The constructor refuses a float, so it is planted unchecked.
        m = exactla._matrix(1, 2, {0: {0: 2.0, 1: 3}}, INT)
        with pytest.raises(ValidationError, match=r"entry \(0,0\) = 2\.0"):
            smith_normal_form(m)
        with pytest.raises(ValidationError, match=r"entry \(0,0\) = 2\.0"):
            matrix_rank(m)

    def test_integral_fraction_becomes_int(self):
        factors = smith_normal_form(ExactMatrix(1, 1, {(0, 0): Fraction(-4)}))
        assert factors == [4] and type(factors[0]) is int


class TestSolveInSpan:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_solves_match_dense_elimination(self, seed):
        rng = random.Random(seed)
        dim, count = rng.randint(1, 6), rng.randint(0, 6)
        # Entries may be explicit zeros, which the solver must ignore.
        vectors = [{i: rng.randint(-3, 3) for i in range(dim)
                    if rng.random() < 0.4} for _ in range(count)]

        def dense(v):
            return [v.get(i, 0) for i in range(dim)]

        def combination(coeffs):
            return [sum(c * dense(vectors[k])[i] for k, c in coeffs.items())
                    for i in range(dim)]

        targets = []
        for _ in range(5):
            if vectors and rng.random() < 0.5:
                row = combination({k: rng.randint(-2, 2)
                                   for k in range(count)})
                targets.append({i: x for i, x in enumerate(row) if x})
            else:
                targets.append({i: rng.randint(-3, 3) for i in range(dim)
                                if rng.random() < 0.5})
        base = dense_rank([dense(v) for v in vectors])
        for target in targets:
            coeffs = solve_in_span(vectors, target)
            inside = dense_rank([dense(v) for v in vectors]
                                + [dense(target)]) == base
            assert (coeffs is not None) == inside
            if coeffs is not None:
                assert combination(coeffs) == dense(target)


def inexact_matrix():
    """diag(1, 0.5) over Q, built unchecked as a kernel output is: the
    constructors refuse the float."""
    return exactla._matrix(2, 2, {0: {0: 1}, 1: {1: 0.5}}, RAT)


class TestInexactEntriesRejected:
    @pytest.mark.parametrize("value", [0.5, 2.0, "1", None, True])
    def test_constructor(self, value):
        with pytest.raises(ValidationError,
                           match=r"entry \(0,1\) = .* is not an int or "
                                 r"Fraction"):
            ExactMatrix(1, 2, {(0, 0): 1, (0, 1): value})

    def test_scale(self):
        m = ExactMatrix(1, 2, {(0, 0): 2, (0, 1): 4})
        with pytest.raises(ValidationError,
                           match=r"scalar True is not an int or Fraction"):
            m.scale(True)
        assert m.scale(Fraction(1, 2)) == ExactMatrix(1, 2, {(0, 0): 1,
                                                             (0, 1): 2})
        with pytest.raises(ValidationError,
                           match=r"scalar 0\.5 is not an int or Fraction"):
            m.scale(0.5)

    def test_solve_in_span(self):
        with pytest.raises(ValidationError,
                           match=r"vector 0 has entry 0\.1 at index 0"):
            solve_in_span([{0: 0.1}], {0: 0.3})
        with pytest.raises(ValidationError,
                           match=r"target has entry 0\.3 at index 0"):
            solve_in_span([{0: 1}], {0: 0.3})

    def test_kernel_basis(self):
        m = inexact_matrix()
        with pytest.raises(ValidationError,
                           match=r"column 1 has entry 0\.5 at index 1"):
            kernel_basis(m)

    def test_column_space_basis(self):
        m = inexact_matrix()
        with pytest.raises(ValidationError,
                           match=r"column 1 has entry 0\.5 at index 1"):
            column_space_basis(m)

    def test_rational_rank(self):
        m = inexact_matrix()
        with pytest.raises(ValidationError,
                           match=r"column 1 has entry 0\.5 at index 1"):
            matrix_rank(m)


def dense_rref(rows, ncols):
    """Reduced row echelon rows over Q and their pivot columns (oracle)."""
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][col]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][col] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col]:
                c = a[i][col]
                a[i] = [x - c * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
    return a[:len(pivots)], pivots


def unimodular_pair(rng, n, ring=RAT):
    """A random integer n x n matrix of determinant +-1 and its inverse."""
    p = q = ExactMatrix.identity(n, ring=ring)
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        a = rng.randint(-2, 2)
        ident = {(k, k): 1 for k in range(n)}
        p = ExactMatrix(n, n, {**ident, (i, j): a}, ring=ring) * p
        q = q * ExactMatrix(n, n, {**ident, (i, j): -a}, ring=ring)
    if n:
        flip = ExactMatrix(n, n, {(k, k): rng.choice((1, -1))
                                  for k in range(n)}, ring=ring)
        p, q = flip * p, q * flip
    return p, q


def invariant_factors(orders):
    """Invariant factors (each > 1, ascending) of the direct sum of the
    Z/m for m in orders, grouped from the prime powers dividing each m."""
    powers = {}
    for m in orders:
        p = 2
        while m > 1:
            q = 1
            while m % p == 0:
                m, q = m // p, q * p
            if q > 1:
                powers.setdefault(p, []).append(q)
            p += 1
    chains = [sorted(qs, reverse=True) for qs in powers.values()]
    depth = max(map(len, chains), default=0)
    return tuple(math.prod(qs[i] for qs in chains if i < len(qs))
                 for i in reversed(range(depth)))


def complex_with_homology(rng, top, ring=RAT):
    """A complex in degrees 0..top and its integral homology groups.

    Degree k holds generators with d = 0 and pairs x -> m y (x in degree
    k, y in degree k - 1, m in 0, 1, 2, 3, 6 up to sign), then every
    degree is moved by a random unimodular basis change, so entries are
    dense, some are not units and many pairs are not free.
    """
    free = [rng.randint(0, 2) for _ in range(top + 1)]
    orders = [[] for _ in range(top + 1)]
    labels = [[("z", i) for i in range(b)] for b in free]
    entries = {k: {} for k in range(1, top + 1)}
    for k in range(1, top + 1):
        for pair in range(rng.randint(0, 3)):
            m = rng.choice((0, 1, 2, 3, 6))
            labels[k].append(("x", pair))
            labels[k - 1].append(("y", pair, k))
            if m:
                entries[k][(len(labels[k - 1]) - 1, len(labels[k]) - 1)] = \
                    rng.choice((m, -m))
                if m > 1:
                    orders[k - 1].append(m)
            else:
                free[k] += 1
                free[k - 1] += 1
    ranks = [len(labs) for labs in labels]
    moves = [unimodular_pair(rng, r, ring) for r in ranks]
    diffs = {k: moves[k - 1][0] * ExactMatrix(
        ranks[k - 1], ranks[k], entries[k], ring=ring) * moves[k][1]
        for k in range(1, top + 1)}
    module = GradedFreeModule(dict(enumerate(labels)))
    groups = {k: (free[k], invariant_factors(orders[k]))
              for k in range(top + 1) if free[k] or orders[k]}
    return ChainComplex(module, diffs, ring=ring), groups


class TestEchelonOracles:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_kernel_and_column_space_match_dense_rref(self, seed):
        rng = random.Random(seed)
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        rows = [[Fraction(v, rng.randint(1, 4)) for v in row]
                for row in random_sparse_rows(rng, n, m, 6)]
        # A first pivot other than +-1, so the Fraction path always runs.
        rows[0][0] = Fraction(rng.choice((2, -3, 5)), rng.randint(1, 4))
        matrix = mat(rows, ring=RAT)
        rref, pivots = dense_rref(rows, m)
        expected = []
        for f in range(m):
            if f not in pivots:
                x = {f: Fraction(1)}
                x.update((p, -rref[i][f]) for i, p in enumerate(pivots)
                         if rref[i][f])
                lead = x[min(x)]
                expected.append({k: v / lead for k, v in x.items()})
        assert kernel_basis(matrix) == expected
        assert column_space_basis(matrix) == [
            {i: rows[i][p] for i in range(n) if rows[i][p]} for p in pivots]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_representatives_match_known_betti_numbers(self, seed):
        rng = random.Random(seed)
        top = rng.randint(0, 3)
        c, groups = complex_with_homology(rng, top)

        def dense(v, k):
            return [v.get(i, 0) for i in range(c.rank(k))]

        for k in range(top + 1):
            b = groups.get(k, (0, ()))[0]
            reps = homology_representatives(c, k)
            assert len(reps) == b
            assert all(not c.differential(k).apply(z) for z in reps)
            up = c.differential(k + 1)
            bounds = [dense(up.column(j), k) for j in range(up.ncols)]
            assert dense_rank(bounds + [dense(z, k) for z in reps]) == \
                dense_rank(bounds) + b
            # Each class moved by a random boundary keeps its coordinates.
            dx = up.apply({j: rng.randint(-3, 3) for j in range(up.ncols)})
            images = [(k, {i: v for i in z.keys() | dx.keys()
                           if (v := z.get(i, 0) + dx.get(i, 0))})
                      for z in reps]
            assert homology_coordinates(c, [(k, z) for z in reps], images) \
                == ExactMatrix.identity(b, ring=RAT)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_coordinates_in_a_changed_basis_invert_the_change(self, seed):
        # Basis B' = reps T with T invertible and not unimodular, so the
        # basis rows go in tracked on top of the untracked boundaries and
        # through Fraction pivots; the coordinates of the reps are T^-1.
        rng = random.Random(seed)
        top = rng.randint(0, 3)
        c, _groups = complex_with_homology(rng, top)
        basis, images, expected, row = [], [], {}, 0
        for k in range(top + 1):
            reps = homology_representatives(c, k)
            b = len(reps)
            if not b:
                continue
            while True:
                t = [[rng.randint(-4, 4) for _ in range(b)] for _ in range(b)]
                if fraction_det(t) and any(abs(v) > 1 for r in t for v in r):
                    break
            for j in range(b):
                col = {}
                for i, z in enumerate(reps):
                    for x, v in z.items():
                        col[x] = col.get(x, 0) + t[i][j] * v
                basis.append((k, {x: v for x, v in col.items() if v}))
            up = c.differential(k + 1)
            for z in reps:
                dx = up.apply({j: rng.randint(-3, 3) for j in range(up.ncols)})
                images.append((k, {x: v for x in z.keys() | dx.keys()
                                   if (v := z.get(x, 0) + dx.get(x, 0))}))
            for i, r in enumerate(dense_inverse(t)):
                for j, v in enumerate(r):
                    if v:
                        expected[(row + i, row + j)] = v
            row += b
        assert homology_coordinates(c, basis, images) == ExactMatrix(
            row, row, expected, ring=RAT)


def three_term(matrix_entries):
    """0 -> Z -> Z -> 0 style complex with C_1 -> C_0 given by a matrix."""
    m = matrix_entries
    module = GradedFreeModule({0: [f"a{i}" for i in range(m.nrows)],
                               1: [f"b{j}" for j in range(m.ncols)]})
    return ChainComplex(module, {1: m})


class TestHomology:
    def test_identity_acyclic(self):
        c = three_term(ExactMatrix.identity(1))
        assert homology(c).groups == {}

    def test_single_generator(self):
        module = GradedFreeModule({0: ["x"]})
        c = ChainComplex(module, {})
        assert homology(c).groups == {0: (1, ())}

    def test_times_two_torsion(self):
        c = three_term(ExactMatrix(1, 1, {(0, 0): 2}))
        assert homology(c).groups == {0: (0, (2,))}

    def test_rational_sees_only_free_part(self):
        c = three_term(ExactMatrix(1, 1, {(0, 0): 2}))
        assert homology(c, ring=RAT).groups == {}

    def test_d_squared_checked(self):
        module = GradedFreeModule({0: ["a"], 1: ["b"], 2: ["c"]})
        with pytest.raises(ValidationError):
            ChainComplex(module, {1: ExactMatrix(1, 1, {(0, 0): 1}),
                                  2: ExactMatrix(1, 1, {(0, 0): 1})})

    def test_euler_characteristic_matches(self):
        c = three_term(mat([[0, 0], [0, 3]]))
        summary = homology(c)
        chi = c.rank(0) - c.rank(1)
        assert summary.euler_characteristic() == chi

    def test_euler_characteristic_is_an_int_in_negative_degrees(self):
        # Homology Z^2 in degree -2: (-1) ** d would make it the float 2.0.
        chi = reduced_cobar(dual(builtin("com", 3)), 3).homology() \
            .euler_characteristic()
        assert chi == 2
        assert type(chi) is int


def snf_homology(complex_, ring=None):
    """Homology from the Smith form (over Z) or rank (over Q) of every
    differential of the whole complex, with no collapse: free rank =
    nullity(d_k) - rank(d_{k+1}), torsion = invariant factors of d_{k+1}
    exceeding 1."""
    ring = ring or complex_.ring
    factors = {k: smith_normal_form(d) if ring == INT else [1] * matrix_rank(d)
               for k, d in complex_.diffs.items()}
    groups = {}
    for k in complex_.degrees():
        up = factors.get(k + 1, ())
        groups[k] = (complex_.rank(k) - len(factors.get(k, ())) - len(up),
                     tuple(t for t in up if t > 1))
    return HomologySummary(ring, groups)


def _sphere_cobar(r, arity):
    sphere = builtin_sphere_comodule(r, 4)
    return cobar_complex(unit_module(sphere.over, RIGHT_COMODULE),
                         sphere.over, sphere, arity).complex


def _simplicial(op, l_mod, arity):
    return simplicial_bar_complex(unit_module(op, RIGHT_MODULE), op, l_mod,
                                  arity)


def _torsion_products():
    two = three_term(ExactMatrix(1, 1, {(0, 0): 2}))
    six = ChainComplex(GradedFreeModule({1: ("a", "b"), 2: ("c",)}),
                       {2: ExactMatrix(2, 1, {(0, 0): 6, (1, 0): 3})})
    circle = ChainComplex(GradedFreeModule({0: ("v",), 1: ("e",)}), {})
    return tensor_list([two, six, circle])


COMPLEX_FAMILIES = {
    **{f"bar-{name}-{n}": (lambda name=name, n=n:
                           reduced_bar(builtin(name, n), n).complex)
       for name in ("com", "ass") for n in range(1, 6)},
    **{f"cobar-dual-com-{n}": (lambda n=n:
                               reduced_cobar(dual(builtin("com", n)), n).complex)
       for n in range(1, 6)},
    **{f"partition-{n}": (lambda n=n: partition_complex(n))
       for n in range(1, 6)},
    **{f"cobar-sphere{r}-{n}": (lambda r=r, n=n: _sphere_cobar(r, n))
       for r in (2, 3) for n in range(2, 5)},
    "simplicial-com-4": lambda: _simplicial(
        builtin("com", 4), unit_module(builtin("com", 4), LEFT_MODULE), 4),
    "simplicial-sphere1-3": lambda: _simplicial(
        builtin("com", 4), builtin_sphere_module(1, 4), 3),
    "tensor-torsion": _torsion_products,
}


class TestFreePairCollapse:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_matches_closed_form_homology(self, seed):
        rng = random.Random(seed)
        c, groups = complex_with_homology(rng, rng.randint(0, 4), INT)
        assert homology(c).groups == groups
        assert homology(c, ring=RAT).groups == {
            k: (r, ()) for k, (r, _t) in groups.items() if r}

    @pytest.mark.parametrize("name", sorted(COMPLEX_FAMILIES))
    def test_matches_smith_form_of_every_differential(self, name):
        c = COMPLEX_FAMILIES[name]()
        for ring in (INT, RAT):
            assert homology(c, ring) == snf_homology(c, ring)

    def test_torsion_survives_the_collapse(self):
        # Kunneth: Z/2 in degree 0, Z + Z/3 in degree 1 and Z in degrees 0
        # and 1 give Z/2 in degrees 1 and 2 (Z/2 (x) Z/3 = 0, no Tor).
        assert homology(_torsion_products()).groups == \
            {1: (0, (2,)), 2: (0, (2,))}

    # The critical cells of an EL-shelling of the partition lattice are its
    # (n-1)! falling chains (Bjorner 1980), so no matching does better: a
    # queue order that leaves a residual to the Smith form fails here.
    @pytest.mark.parametrize("build,n", [
        *((lambda n: reduced_bar(builtin("com", n), n).complex, n)
          for n in range(1, 7)),
        *((partition_complex, n) for n in range(1, 6))])
    def test_leaves_only_the_top_cells(self, build, n):
        residual = exactla._free_pair_residual(build(n), INT)
        assert {d: residual.rank(d) for d in residual.degrees()} == \
            {n - 1: math.factorial(n - 1)}
        assert residual.diffs == {}


class TestTensor:
    def test_unit_complex(self):
        unit = ChainComplex(GradedFreeModule({0: ["e"]}), {})
        c = three_term(ExactMatrix(1, 1, {(0, 0): 2}))
        t = tensor_list([c, unit])
        assert homology(t).groups == homology(c).groups

    def test_degree_shift(self):
        line = ChainComplex(GradedFreeModule({1: ["s"]}), {})
        t = tensor_list([line, line])
        assert t.rank(2) == 1
        assert homology(t).groups == {2: (1, ())}

    def test_koszul_sign_gives_d_squared_zero(self):
        # An acyclic two-term complex in odd degrees exercises the sign.
        c = ChainComplex(GradedFreeModule({1: ["x"], 2: ["y"]}),
                         {2: ExactMatrix(1, 1, {(0, 0): 1})})
        t = tensor_list([c, c, c])
        assert homology(t).groups == {}

    def test_kunneth_ranks(self):
        circle = ChainComplex(
            GradedFreeModule({0: ["v"], 1: ["e"]}),
            {1: ExactMatrix.zero(1, 1)})
        t = tensor_list([circle, circle])
        assert homology(t).groups == {0: (1, ()), 1: (2, ()), 2: (1, ())}

    def test_label_in_two_degrees(self):
        # The label b sits in degrees 0 and 1; d(b_1) = b_0.
        c = ChainComplex(GradedFreeModule({0: ("a", "b"), 1: ("b",)}),
                         {1: ExactMatrix(2, 1, {(1, 0): 1})})
        u = ChainComplex(GradedFreeModule({0: ("u",)}), {})
        t = tensor_list([c, u])
        assert dict(t.differential(1).entries()) == {(1, 0): 1}
        assert homology(t).groups == {0: (1, ())}

    @pytest.mark.parametrize("index", [0.5, True, -1, 2])
    def test_tensor_vector_refuses_what_is_not_a_position(self, index):
        # Degree 1 of each factor has rank 2.
        c = ChainComplex(GradedFreeModule({0: ("a",), 1: ("b", "c")}), {})
        t = tensor_list([c, c])
        with pytest.raises(ValidationError,
                           match=rf"vector 1 has index "
                                 rf"{re.escape(repr(index))} outside degree 1 "
                                 rf"of factor 1, which has rank 2"):
            tensor_vector(t, [(1, {0: 1}), (1, {index: 1})])

    def test_tensor_vector_names_the_bad_index(self):
        c = ChainComplex(GradedFreeModule({0: ("a",), 1: ("b", "c")}), {})
        t = tensor_list([c, c])
        assert tensor_vector(t, [(0, {0: 2}), (1, {1: 3})]) == \
            (1, {t.module.position(1, ("a", "c")): 6})
        with pytest.raises(ValidationError,
                           match="index 2 outside degree 1 of factor 1"):
            tensor_vector(t, [(0, {0: 1}), (1, {2: 1})])
        with pytest.raises(ValidationError,
                           match="index 0 outside degree 5 of factor 0"):
            tensor_vector(t, [(5, {0: 1}), (0, {0: 1})])
        # A negative index does not count from the end.
        with pytest.raises(ValidationError,
                           match="index -1 outside degree 1 of factor 1"):
            tensor_vector(t, [(1, {0: 1}), (1, {-1: 1})])


def complex_of_entries(module, entries, ring=INT):
    """The complex whose d_k has the entries {(i, j): v} entries[k], built
    through the public ExactMatrix constructor."""
    return ChainComplex(module, {
        k: ExactMatrix(module.rank(k - 1), module.rank(k), e, ring=ring)
        for k, e in entries.items()}, ring=ring)


def map_of_entries(source, target, entries, check=True):
    """The chain map with the entries {(i, j): v} entries[d] in degree d,
    built through the public ExactMatrix constructor."""
    return ChainMap(source, target, {
        d: ExactMatrix(target.rank(d), source.rank(d), entries.get(d),
                       ring=source.ring) for d in source.degrees()},
        check=check)


class TestFromRows:
    def test_matches_the_direct_construction(self):
        module = GradedFreeModule({0: ("a", "b"), 1: ("x",), 2: ("y",)})
        c = ChainComplex.from_rows(
            module, {1: {0: {0: 1}, 1: {0: -1}}, 2: {0: {0: 0}}})
        assert c.diffs == {1: mat([[1], [-1]])}
        assert homology(c).groups == {0: (1, ()), 2: (1, ())}

    def test_d_squared_checked(self):
        module = GradedFreeModule({0: ("a",), 1: ("x",), 2: ("y",)})
        with pytest.raises(ValidationError, match="d_1 o d_2"):
            ChainComplex.from_rows(module, {1: {0: {0: 1}},
                                            2: {0: {0: 1}}})

    @pytest.mark.parametrize("rows,message", [
        ({2: {0: 1}}, r"row 2 outside 2x3"),
        ({-1: {0: 1}}, r"row -1 outside 2x3"),
        ({0: {0: 1, 3: 1}}, r"entry \(0,3\) outside 2x3"),
        ({1: {-1: 1, 2: 1}}, r"entry \(1,-1\) outside 2x3"),
        ({0: {1: 0.5}}, r"row 0 has entry 0\.5 at index 1, not an int"),
        ({0: {0.5: 1}}, r"entry \(0,0\.5\) outside 2x3"),
        ({True: {0: 1}}, r"row True outside 2x3"),
        ({0: {0: True}}, r"row 0 has entry True at index 0, not an int"),
    ])
    def test_each_row_is_checked(self, rows, message):
        with pytest.raises(ValidationError, match=message):
            ExactMatrix.from_rows(2, 3, rows)

    def test_zeros_and_empty_rows_are_dropped(self):
        m = ExactMatrix.from_rows(2, 3, {0: {0: 0, 2: Fraction(1, 2)},
                                         1: {1: 0}}, ring=RAT)
        assert m == ExactMatrix(2, 3, {(0, 2): Fraction(1, 2)}, ring=RAT)
        assert m._rows == {0: {2: Fraction(1, 2)}}

    def test_a_chain_map_gets_every_source_degree(self):
        c = odd_pair()
        f = ChainMap.from_rows(c, c, {2: {0: {0: 2}}}, check=False)
        assert set(f.mats) == {1, 2} and f.component(1).is_zero()
        with pytest.raises(ValidationError, match="not a chain map"):
            f.verify()


def odd_pair():
    """x in degree 1, y in degree 2, d(y) = x."""
    return ChainComplex(GradedFreeModule({1: ["x"], 2: ["y"]}),
                        {2: ExactMatrix(1, 1, {(0, 0): 1})})


class TestTensorOfChainMaps:
    def test_tensor_is_a_chain_map_and_functorial(self):
        c = odd_pair()
        f = ChainMap(c, c, {1: mat([[2]]), 2: mat([[2]])})
        g = ChainMap(c, c, {1: mat([[-1]]), 2: mat([[-1]])})
        fg = tensor_chain_maps([f, g])
        fg.verify()
        assert fg.source.module == tensor_list([c, c]).module
        assert fg.component(3) == mat([[-2, 0], [0, -2]])
        twice = tensor_chain_maps([f, g]).compose(fg)
        assert twice.mats == tensor_chain_maps(
            [f.compose(f), g.compose(g)]).mats

    def test_compose_accepts_equal_copies_only(self):
        c = odd_pair()
        ident = tensor_chain_maps([ChainMap.identity(c)] * 2)
        copy = ChainMap.identity(tensor_list([c, odd_pair()]))
        assert copy.source is not ident.target
        assert copy.compose(ident).mats == ident.mats
        with pytest.raises(ValidationError, match="composable"):
            ChainMap.identity(tensor_list([c, c, c])).compose(ident)


class TestReindexingMap:
    def test_swap_carries_the_koszul_sign(self):
        c = odd_pair()
        swap = reindexing_map([c, c], (0, 1), (1, 0))
        # x (x) x has two odd factors; x (x) y and y (x) x do not.
        assert swap.component(2) == mat([[-1]])
        assert swap.component(3) == mat([[0, 1], [1, 0]])
        assert swap.compose(swap).mats == ChainMap.identity(swap.source).mats

    def test_rebracketing_has_no_sign(self):
        c = odd_pair()
        r = reindexing_map([c, c, c], ((0, 1), 2), (0, (1, 2)))
        assert r.source.module.labels(3) == ((("x", "x"), "x"),)
        assert r.target.module.labels(3) == (("x", ("x", "x")),)
        for d in r.source.degrees():
            assert r.component(d) == ExactMatrix.identity(r.source.rank(d))

    def test_shuffle_sign_counts_crossings(self):
        odd = ChainComplex(GradedFreeModule({1: ["o"]}), {})
        even = ChainComplex(GradedFreeModule({0: ["e"]}), {})
        # (o1, o2, e, o3) -> (o1, (e, o3), o2): o2 crosses o3 only.
        r = reindexing_map([odd, odd, even, odd], (0, 1, 2, 3),
                           (0, (2, 3), 1))
        assert r.component(3) == mat([[-1]])


class TestSharedProducts:
    def test_same_factor_objects_share_one_product(self):
        c = odd_pair()
        u = ChainComplex(GradedFreeModule({0: ("u",)}), {})
        t = tensor_list([c, u, c])
        assert tensor_list((c, u, c)) is t
        assert len(t.factors) == 3
        assert all(f is g for f, g in zip(t.factors, [c, u, c]))

    def test_equal_copies_give_distinct_products(self):
        c, d = odd_pair(), odd_pair()
        t = tensor_list([c, c])
        s = tensor_list([c, d])
        assert s is not t and s.factors[1] is d
        assert s.module == t.module and s.diffs == t.diffs

    def test_a_dropped_product_leaves_the_table(self):
        c = odd_pair()
        t = tensor_list([c, c])
        alive = weakref.ref(t)
        assert (id(c), id(c)) in exactla._PRODUCTS
        del t
        assert alive() is None
        assert (id(c), id(c)) not in exactla._PRODUCTS


def label_product(factors):
    """The tensor product built by walking factor labels, as a reference
    for tensor_list: row-major basis, Koszul-signed differential."""
    spaces = {}
    for combo in itertools.product(*(f.module.basis() for f in factors)):
        spaces.setdefault(sum(d for d, _lab in combo), []).append(
            tuple(lab for _d, lab in combo))
    module = GradedFreeModule(spaces)
    entries = {}
    for combo in itertools.product(*(f.module.basis() for f in factors)):
        deg = sum(d for d, _lab in combo)
        labs = tuple(lab for _d, lab in combo)
        row = entries.setdefault(deg, {})
        sign = 1
        for pos, (fd, flab) in enumerate(combo):
            f = factors[pos]
            col = f.differential(fd).column(f.module.position(fd, flab))
            for i, v in col.items():
                new = labs[:pos] + (f.labels(fd - 1)[i],) + labs[pos + 1:]
                key = (module.position(deg - 1, new),
                       module.position(deg, labs))
                row[key] = row.get(key, 0) + sign * v
            if fd % 2:
                sign = -sign
    return complex_of_entries(module, entries, factors[0].ring)


def label_tensor_chain_maps(maps):
    """f_1 (x) ... (x) f_k by walking labels, between label_products."""
    source = label_product([f.source for f in maps])
    target = label_product([f.target for f in maps])
    entries = {}
    for combo in itertools.product(*(f.source.module.basis() for f in maps)):
        d = sum(fd for fd, _lab in combo)
        j = source.module.position(d, tuple(lab for _d, lab in combo))
        images = [[(f.target.labels(fd)[i], c) for i, c in f.component(
            fd).column(f.source.module.position(fd, lab)).items()]
            for f, (fd, lab) in zip(maps, combo)]
        for parts in itertools.product(*images):
            i = target.module.position(d, tuple(lab for lab, _c in parts))
            entries.setdefault(d, {})[(i, j)] = math.prod(
                c for _lab, c in parts)
    return map_of_entries(source, target, entries, check=False)


def label_reindexing_map(factors, source_shape, target_shape):
    """reindexing_map by walking labels, between nested label_products."""
    def nest(shape, items, join):
        if isinstance(shape, int):
            return items[shape]
        return join([nest(part, items, join) for part in shape])

    source, target = (nest(shape, factors, label_product)
                      for shape in (source_shape, target_shape))
    singletons = [(k,) for k in range(len(factors))]
    src_order, tgt_order = (nest(shape, singletons, lambda p: sum(p, ()))
                            for shape in (source_shape, target_shape))
    perm = tuple(tgt_order.index(k) for k in src_order)
    entries = {}
    for combo in itertools.product(*(f.module.basis() for f in factors)):
        labels = [lab for _d, lab in combo]
        degrees = [combo[k][0] for k in src_order]
        d = sum(degrees)
        entries.setdefault(d, {})[(
            target.module.position(d, nest(target_shape, labels, tuple)),
            source.module.position(d, nest(source_shape, labels, tuple)))] = \
            koszul_sign(degrees, perm)
    return map_of_entries(source, target, entries)


def same_map(new, old):
    for side in ("source", "target"):
        a, b = getattr(new, side), getattr(old, side)
        assert a.module == b.module and a.diffs == b.diffs, side
    assert new.mats == old.mats


class TestIntegerIndexAgainstLabels:
    """tensor_list, tensor_chain_maps and reindexing_map equal the label
    walks entrywise on bar and cobar structure maps, identities and the
    odd-degree S^1 comodule."""

    com = builtin("com", 4)
    qcom = dual(com)
    s1 = builtin_sphere_comodule(1, 4)

    def s1_cobar(self, arity):
        """The cobar complex of the S^1 comodule, in degrees 1..arity-1."""
        return cobar_complex(unit_module(self.qcom, RIGHT_COMODULE),
                             self.qcom, self.s1, arity)

    def test_tensored_maps(self):
        com, qcom, cache = self.com, self.qcom, {}
        bar = bar_cocomposition(com, 4, 2, (1, 4, 2), (2, 3), cache)
        inner = bar_cocomposition(com, 3, 1, (3, 1), (1, 2), cache)
        cobar = cobar_composition(qcom, 3, 1, (3, 1), (1, 2), cache)
        s1 = self.s1_cobar(4)
        act = module_structure_maps(s1, [(1, 3), (2,), (4,)], cache)
        ident = ChainMap.identity(reduced_bar(com, 2, cache).complex)
        # Zero in degree 1, and in degree 2 onto the cycles: every column
        # of degree 1 is empty.
        b3 = reduced_bar(com, 3, cache).complex
        cycles = kernel_basis(b3.differential(2))
        onto_cycles = ChainMap(b3, b3, {
            1: ExactMatrix.zero(b3.rank(1), b3.rank(1)),
            2: ExactMatrix(b3.rank(2), b3.rank(2), {
                (i, j): v for j in range(b3.rank(2))
                for i, v in cycles[j % len(cycles)].items()})})
        assert onto_cycles.component(1).is_zero()
        assert not onto_cycles.component(2).is_zero()
        cases = [
            [inner, ident],
            [ident, bar, ident],
            [ChainMap.identity(reduced_cobar(qcom, 2, cache).complex), cobar],
            [act, ChainMap.identity(s1.complex)],
            [cobar, act],
            [onto_cycles, inner],
            [ident, onto_cycles],
        ]
        for maps in cases:
            new = tensor_chain_maps(maps)
            same_map(new, label_tensor_chain_maps(maps))
            new.verify()
            # Negative odd degrees give int signs, not (-1) ** -1 == -1.0.
            assert all(type(v) is int for side in (new.source, new.target)
                       for m in side.diffs.values() for _ij, v in m.entries())
        # The source of (inner (x) id) is the product that bar hits.
        assert tensor_chain_maps([inner, ident]).source is bar.target

    def test_reindexings(self):
        com, qcom, cache = self.com, self.qcom, {}
        b2, b3 = (reduced_bar(com, n, cache).complex for n in (2, 3))
        o2 = reduced_cobar(qcom, 2, cache).complex
        odd = [self.s1_cobar(n).complex for n in (2, 2, 3)]
        cases = [
            ([b3, b2, b2], ((0, 1), 2), (0, (1, 2))),
            ([b3, b2, b2], ((0, 2), 1), ((0, 1), 2)),
            ([o2, b2, o2], (0, (1, 2)), ((0, 1), 2)),
            (odd, (0, 1, 2), (2, (0, 1))),
            ([o2] + odd, ((0, 1), 2, 3), (0, (2, 3), 1)),
        ]
        for factors, src, tgt in cases:
            same_map(reindexing_map(factors, src, tgt),
                     label_reindexing_map(factors, src, tgt))


def induced_map_on_homology(f, degree):
    """Matrix of H(f) in the deterministic homology bases, over Q."""
    src_reps = homology_representatives(f.source, degree)
    tgt_reps = homology_representatives(f.target, degree)
    comp = f.component(degree)
    return homology_coordinates(f.target, [(degree, z) for z in tgt_reps],
                                [(degree, comp.apply(z)) for z in src_reps])


class TestInducedMap:
    def test_identity_map(self):
        circle = ChainComplex(
            GradedFreeModule({0: ["v"], 1: ["e"]}),
            {1: ExactMatrix.zero(1, 1)}, ring=RAT)
        f = ChainMap(circle, circle, {0: ExactMatrix.identity(1, ring=RAT),
                                      1: ExactMatrix.identity(1, ring=RAT)})
        assert induced_map_on_homology(f, 1) == ExactMatrix.identity(1, ring=RAT)

    def test_functoriality(self):
        module = GradedFreeModule({0: ["a", "b"]})
        c = ChainComplex(module, {}, ring=RAT)
        f = ChainMap(c, c, {0: mat([[0, 1], [1, 0]], ring=RAT)})
        g = ChainMap(c, c, {0: mat([[1, 1], [0, 1]], ring=RAT)})
        hf = induced_map_on_homology(f, 0)
        hg = induced_map_on_homology(g, 0)
        hgf = induced_map_on_homology(g.compose(f), 0)
        assert hg * hf == hgf

    def test_chain_homotopic_maps_agree(self):
        # C: 0 -> Q -> Q^2 -> 0 with d(b) = a0 - a1; f = id, g = f + dh + hd.
        d = mat([[1], [-1]], ring=RAT)
        module = GradedFreeModule({0: ["a0", "a1"], 1: ["b"]})
        c = ChainComplex(module, {1: d}, ring=RAT)
        ident = {0: ExactMatrix.identity(2, ring=RAT),
                 1: ExactMatrix.identity(1, ring=RAT)}
        f = ChainMap(c, c, ident)
        h0 = mat([[2, 2]], ring=RAT)  # C_0 -> C_1
        g0 = ident[0] + d * h0
        g1 = ident[1] + h0 * d
        g = ChainMap(c, c, {0: g0, 1: g1})
        assert induced_map_on_homology(f, 0) == induced_map_on_homology(g, 0)

    def test_non_chain_map_rejected(self):
        c = three_term(ExactMatrix(1, 1, {(0, 0): 1}))
        with pytest.raises(ValidationError, match="degree"):
            ChainMap(c, c, {0: ExactMatrix.identity(1),
                            1: ExactMatrix(1, 1, {(0, 0): 2})})


class TestHomologyCoordinates:
    @staticmethod
    def segment_plus_loop():
        # d(b) = a0 - a1 and d(c) = 0: H_0 is spanned by [a0], H_1 by c.
        module = GradedFreeModule({0: ["a0", "a1"], 1: ["b", "c"]})
        return ChainComplex(module, {1: mat([[1, 0], [-1, 0]], ring=RAT)},
                            ring=RAT)

    def test_rows_follow_the_basis_across_degrees(self):
        c = self.segment_plus_loop()
        basis = [(1, {1: 1}), (0, {0: 1})]
        images = [(0, {1: 3}), (1, {1: 2})]
        got = homology_coordinates(c, basis, images)
        assert got == ExactMatrix(2, 2, {(1, 0): 3, (0, 1): 2}, ring=RAT)

    def test_non_cycle_names_index_and_degree(self):
        c = self.segment_plus_loop()
        basis = [(1, {1: 1}), (0, {0: 1})]
        with pytest.raises(ValidationError, match="image 1 in degree 1"):
            homology_coordinates(c, basis, [(1, {1: 1}), (1, {0: 1})])

    def test_index_outside_the_rank_is_rejected(self):
        c = self.segment_plus_loop()
        with pytest.raises(ValidationError,
                           match="basis vector 1 in degree 0 has index 5"):
            homology_coordinates(c, [(1, {1: 1}), (0, {5: 1})],
                                 [(0, {0: 1})])
        with pytest.raises(ValidationError,
                           match="image 0 in degree 1 has index 2"):
            homology_coordinates(c, [(1, {1: 1})], [(1, {2: 1})])

    @pytest.mark.parametrize("index", [0.5, True, -1, 2])
    def test_index_that_is_not_a_position_is_named(self, index):
        # Degree 1 has rank 2; 0.5 and True are no positions either.
        c = self.segment_plus_loop()
        with pytest.raises(ValidationError,
                           match=rf"basis vector 1 in degree 1 has index "
                                 rf"{re.escape(repr(index))} outside rank 2"):
            homology_coordinates(c, [(1, {1: 1}), (1, {index: 1})],
                                 [(1, {1: 1})])
        with pytest.raises(ValidationError,
                           match=rf"image 0 in degree 1 has index "
                                 rf"{re.escape(repr(index))} outside rank 2"):
            homology_coordinates(c, [(1, {1: 1})], [(1, {index: 1})])

    @pytest.mark.parametrize("degree", ["a", 1.0, True, None])
    def test_degree_that_is_not_an_int_is_named(self, degree):
        # 1.0 and True used to answer for degree 1, "a" used to be an
        # "index outside rank 0".
        c = self.segment_plus_loop()
        name = re.escape(repr(degree))
        with pytest.raises(ValidationError,
                           match=rf"basis vector 1: degree {name} is not an "
                                 rf"int"):
            homology_coordinates(c, [(1, {1: 1}), (degree, {0: 1})],
                                 [(1, {1: 1})])
        with pytest.raises(ValidationError,
                           match=rf"image 0: degree {name} is not an int"):
            homology_coordinates(c, [(1, {1: 1})], [(degree, {1: 1})])
        with pytest.raises(ValidationError,
                           match=rf"degree {name} is not an int"):
            homology_representatives(c, degree)

    def test_representatives_of_an_int_degree(self):
        c = self.segment_plus_loop()
        assert homology_representatives(c, 1) == [{1: 1}]

    def test_dependent_basis_vector_is_rejected(self):
        c = self.segment_plus_loop()
        # a1 = a0 - d(b), so [a1] repeats [a0] modulo boundaries.
        for basis in ([(0, {0: 1}), (0, {0: 2})], [(0, {0: 1}), (0, {1: 1})]):
            with pytest.raises(ValidationError,
                               match="basis vector 1 in degree 0 depends"):
                homology_coordinates(c, basis, [(0, {0: 1})])

    @staticmethod
    def counted_inserts(monkeypatch):
        inserts = []
        insert = exactla._Echelon.insert

        def counting(self, vec, tracking):
            # Boundary columns go in with {}, basis vectors with their row.
            if tracking:
                inserts.append(dict(tracking))
            return insert(self, vec, tracking)

        monkeypatch.setattr(exactla._Echelon, "insert", counting)
        return inserts

    def test_an_equal_basis_is_inserted_once(self, monkeypatch):
        c = self.segment_plus_loop()
        inserts = self.counted_inserts(monkeypatch)
        images = [(0, {1: 3}), (1, {1: 2})]
        want = ExactMatrix(2, 2, {(1, 0): 3, (0, 1): 2}, ring=RAT)
        assert homology_coordinates(
            c, [(1, {1: 1}), (0, {0: 1})], images) == want
        assert sorted(map(sorted, inserts)) == [[0], [1]]
        # An equal basis, in new dicts, inserts no basis vector.
        inserts.clear()
        assert homology_coordinates(
            c, [(1, {1: 1}), (0, {0: 1})], images) == want
        assert homology_coordinates(c, [(1, {1: 1}), (0, {0: 1})],
                                    [(0, {0: 5})]) == ExactMatrix(
            2, 1, {(1, 0): 5}, ring=RAT)
        assert inserts == []

    def test_another_basis_gets_its_own_echelon(self, monkeypatch):
        c = self.segment_plus_loop()
        inserts = self.counted_inserts(monkeypatch)
        image = [(0, {0: 3})]
        # The same classes with other rows, vectors or degrees listed.
        bases = [[(0, {0: 1})], [(0, {0: 2})], [(0, {1: 1})],
                 [(1, {1: 1}), (0, {0: 1})], [(0, {0: 1}), (1, {1: 1})]]
        wants = [{(0, 0): 3}, {(0, 0): Fraction(3, 2)}, {(0, 0): 3},
                 {(1, 0): 3}, {(0, 0): 3}]
        for _round in range(2):
            inserts.clear()
            for basis, want in zip(bases, wants):
                assert homology_coordinates(c, basis, image) == ExactMatrix(
                    len(basis), 1, want, ring=RAT)
            # Each basis inserts its degree-0 vector in the first round
            # only; the last one's degree-0 row and vector are the
            # first's, so it shares the first's echelon.
            assert len(inserts) == (4 if _round == 0 else 0)

    @pytest.mark.parametrize("basis,images,message", [
        ([(0, {0: 1}), (0, {1: 1})], [(0, {0: 1})],
         "basis vector 1 in degree 0 depends"),
        ([(1, {1: 1}), (0, {5: 1})], [(0, {0: 1})],
         "basis vector 1 in degree 0 has index 5"),
        ([(1, {5: 1}), (0, {0: 1})], [(0, {0: 1})],
         "basis vector 0 in degree 1 has index 5"),
        ([(1, {1: 1}), (0, {0: 1})], [(1, {0: 1})],
         "image 0 in degree 1 lies outside"),
        ([(1, {1: 1}), (0, {0: 1})], [(1, {2: 1})],
         "image 0 in degree 1 has index 2"),
    ], ids=["dependent", "index", "index-without-image", "non-cycle",
            "image-index"])
    def test_errors_repeat_on_later_calls(self, basis, images, message):
        c = self.segment_plus_loop()
        # A good call first, so that the complex keeps echelons.
        homology_coordinates(c, [(1, {1: 1}), (0, {0: 1})], [(0, {0: 1})])
        for _call in range(3):
            with pytest.raises(ValidationError, match=message):
                homology_coordinates(c, basis, images)

    @pytest.mark.parametrize("vector,message", [
        ({True: 1}, "basis vector 0 in degree 1 has index True"),
        ({1: True}, "basis vector 0 has entry True"),
        ({1: 1.0}, "basis vector 0 has entry 1.0"),
    ], ids=["bool-index", "bool-value", "float-value"])
    def test_an_equal_vector_of_another_type_is_checked(self, vector,
                                                        message):
        # {True: 1}, {1: True} and {1: 1.0} equal the kept basis {1: 1},
        # and must not pass as it.
        c = self.segment_plus_loop()
        for _call in range(2):
            homology_coordinates(c, [(1, {1: 1})], [(1, {1: 1})])
            with pytest.raises(ValidationError, match=message):
                homology_coordinates(c, [(1, vector)], [(1, {1: 1})])


class TestBoundaries:
    def test_one_boundary_echelon_per_degree(self, monkeypatch):
        c = TestHomologyCoordinates.segment_plus_loop()
        inserts, spans = [], []
        insert, column_span = exactla._Echelon.insert, exactla._column_span

        def counting(self, vec, tracking):
            inserts.append((self, dict(tracking)))
            return insert(self, vec, tracking)

        def counting_span(mat):
            spans.append(mat)
            return column_span(mat)

        monkeypatch.setattr(exactla._Echelon, "insert", counting)
        monkeypatch.setattr(exactla, "_column_span", counting_span)
        images = [(0, {0: j + 1, 1: j}) for j in range(10)]
        bounds = c.boundaries(0)
        for _ in range(3):
            reps = {k: homology_representatives(c, k) for k in (0, 1)}
        assert reps == {0: [{0: 1}], 1: [{1: 1}]}
        built = [e for e, _t in inserts if e in c._boundaries.values()]
        inserts.clear()
        for _ in range(3):
            got = homology_coordinates(c, [(0, {0: 1})], images)
        assert got == ExactMatrix(1, 10, {(0, j): 2 * j + 1
                                          for j in range(10)}, ring=RAT)
        # Both columns of d_1 went into boundaries(0), once; d_2 has none.
        assert c.boundaries(0) is bounds and len(bounds.pivots) == 1
        assert sorted(c._boundaries) == [0, 1] and len(spans) == 2
        assert built == [bounds, bounds]
        # One insert in all: the basis vector, tracked by its row, into a
        # copy of boundaries(0) that shares its vectors, kept for the
        # later calls with the equal basis.  No boundary vector goes in
        # again.
        assert [t for _e, t in inserts] == [{0: 1}]
        for e, _t in inserts:
            assert e is not bounds and all(
                e.pivots[p] is hit for p, hit in bounds.pivots.items())


class TestGradedFreeModule:
    @pytest.mark.parametrize("degree", [1.5, True, "1"])
    def test_non_integer_degree_rejected(self, degree):
        # int() once made 1.5 and True silently into degree 1.
        with pytest.raises(ValidationError,
                           match=f"degree {degree!r} is not an int"):
            GradedFreeModule({degree: ("x",)})

    def test_unknown_label_names_degree_and_label(self):
        module = GradedFreeModule({0: ["a", "b"], 1: ["c"]})
        assert module.position(1, "c") == 0 and module.index(1, "c") == 2
        for lookup in (module.position, module.index):
            with pytest.raises(ValidationError, match="'zz' in degree 0"):
                lookup(0, "zz")
            with pytest.raises(ValidationError, match="'c' in degree 0"):
                lookup(0, "c")


class TestDegreeKeysAndRings:
    # int() once read the keys True and 1.0 as degree 1, and an unknown
    # ring went through unchecked.
    @staticmethod
    def edge():
        module = GradedFreeModule({0: ["a"], 1: ["b"]})
        return module, ExactMatrix(1, 1, {(0, 0): 1})

    @pytest.mark.parametrize("degree", [True, 1.0, "1"])
    def test_non_integer_differential_degree_rejected(self, degree):
        module, d = self.edge()
        with pytest.raises(ValidationError,
                           match=f"degree {degree!r} is not an int"):
            ChainComplex(module, {degree: d})

    @pytest.mark.parametrize("mats", [
        {True: ExactMatrix.identity(1), 0: ExactMatrix.identity(1)},
        {1.0: ExactMatrix.identity(1)}], ids=["true_and_0", "float"])
    def test_non_integer_chain_map_degree_rejected(self, mats):
        module, d = self.edge()
        c = ChainComplex(module, {1: d})
        bad = next(k for k in mats if k.__class__ is not int)
        with pytest.raises(ValidationError,
                           match=f"degree {bad!r} is not an int"):
            ChainMap(c, c, mats)

    def test_unknown_complex_ring_rejected(self):
        with pytest.raises(ValidationError, match="unknown ring 'R'"):
            ChainComplex(GradedFreeModule({0: ["a"]}), {}, ring="R")

    def test_unknown_summary_ring_rejected(self):
        with pytest.raises(ValidationError, match="unknown ring 'R'"):
            HomologySummary("R", {0: (1, ())})


class TestAlternatingTrace:
    def test_identity_gives_euler_characteristic(self):
        circle = ChainComplex(
            GradedFreeModule({0: ["v"], 1: ["e"]}),
            {1: ExactMatrix.zero(1, 1)})
        auto = {0: ExactMatrix.identity(1), 1: ExactMatrix.identity(1)}
        assert alternating_trace(circle, auto) == 0

    def test_transposition_on_zero_differential(self):
        module = GradedFreeModule({1: ["x", "y"]})
        c = ChainComplex(module, {})
        flip = mat([[0, 1], [1, 0]])
        assert alternating_trace(c, {1: flip}) == 0

    def test_acyclic_augmented_complex_vanishes(self):
        c = three_term(ExactMatrix.identity(2))
        g = {0: mat([[0, 1], [1, 0]]), 1: mat([[0, 1], [1, 0]])}
        assert alternating_trace(c, g) == 0

    def test_trace_over_a_cobar_complex_is_an_int(self):
        # Chains in degrees -1 and -2; the identity gives chi = -1 + 3.
        cc = reduced_cobar(dual(builtin("com", 3)), 3)
        for sigma in itertools.permutations((1, 2, 3)):
            trace = alternating_trace(cc.complex, symmetric_action(cc, sigma))
            assert type(trace) is int
            if sigma == (1, 2, 3):
                assert trace == 2

    def test_non_equivariant_rejected(self):
        c = three_term(ExactMatrix.identity(2))
        g = {0: ExactMatrix.identity(2), 1: mat([[0, 1], [1, 0]])}
        with pytest.raises(ValidationError):
            alternating_trace(c, g)


class TestKoszulSign:
    def test_even_factors_never_sign(self):
        assert koszul_sign((2, 4), (1, 0)) == 1

    def test_two_odd_factors_cross(self):
        assert koszul_sign((1, 1), (1, 0)) == -1

    def test_identity_perm(self):
        assert koszul_sign((1, 1, 1), (0, 1, 2)) == 1


class TestSummary:
    def test_equality_and_negation(self):
        s = HomologySummary(INT, {2: (3, (2, 4))})
        assert s.degree_negated().groups == {-2: (3, (2, 4))}
        assert s == HomologySummary(INT, {2: (3, (2, 4)), 5: (0, ())})

    def test_rat_with_torsion_rejected(self):
        with pytest.raises(ValidationError):
            HomologySummary(RAT, {0: (1, (2,))})

    # int() used to read {1.5: (2.7, (3.9,))} as {1: (2, (3,))}.
    @pytest.mark.parametrize("value", [1.5, True, "1"])
    def test_non_int_degree_rejected(self, value):
        with pytest.raises(ValidationError,
                           match=f"degree {re.escape(repr(value))} is not"):
            HomologySummary(INT, {value: (1, ())})

    @pytest.mark.parametrize("value", [2.7, True, Fraction(2)])
    def test_non_int_rank_rejected(self, value):
        with pytest.raises(ValidationError,
                           match=f"rank {re.escape(repr(value))} is not"):
            HomologySummary(INT, {1: (value, ())})

    @pytest.mark.parametrize("value", [3.9, True, Fraction(3)])
    def test_non_int_torsion_rejected(self, value):
        with pytest.raises(ValidationError,
                           match=f"torsion factor {re.escape(repr(value))} is not"):
            HomologySummary(INT, {1: (0, (value,))})
