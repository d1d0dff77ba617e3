"""Exact sparse linear algebra over Z and Q.

A matrix is its rows {i: {j: v}} with arbitrary-precision entries (int or
Fraction), holding no zero value and no empty row, so equal matrices have
equal rows.  Rows go in and rows come out:

- ExactMatrix(nrows, ncols, {(i, j): v}) takes outside input (built-in
  structures, the parser, tests): every entry's type and indices are
  checked, and zeros are dropped.
- ExactMatrix.from_rows, ChainComplex.from_rows and ChainMap.from_rows
  take the rows that a construction assembled: the index types and the
  value types of all rows are checked in one pass each, each row's index
  range from the min and max of its keys, and zero values and empty rows
  are dropped.
- The kernel's own outputs (products, sums, scalings, transposes,
  Kronecker products, identities) check their operands' rings and shapes
  and build their rows directly, unchecked (_matrix), since every index
  comes from an in-range operand; they drop the zeros a sum cancels.

Chain complexes are graded free modules with labelled bases; d^2 = 0 is
checked on every complex and every checked chain map is verified.  A
complex keeps its boundary columns and a chain map its columns, in global
indices, for the tensor products of complexes and of maps (built on first
use).
Each ring has one elimination.  Over Z, the Smith normal form, the rank
and the homology come from one sparse elimination whose Markowitz pivots
are kept in an incrementally updated queue.  Over Q, ranks, kernels,
column spaces, solves, homology representatives and homology coordinates
come from one echelon (_Echelon) with lowest-index pivots that tracks
every vector's expression in its inputs, in ints until a pivot other than
+-1 needs a Fraction (floats are refused).  Rational and integral
homology (free rank plus torsion invariant factors) first collapse the
free unit pairs of the complex and run the elimination of the ring only
on what survives.  A complex keeps one echelon of the boundaries per
degree (ChainComplex.boundaries); homology representatives (lowest-pivot
kernel vectors independent of it) and homology coordinates (the basis
vectors inserted on top of it) both extend a copy of it.
"""

from __future__ import annotations

import collections
import heapq
import itertools
import weakref
from fractions import Fraction
from math import gcd, prod

from .errors import ValidationError, require_int

INT = "Z"
RAT = "Q"
RINGS = (INT, RAT)
_EXACT_TYPES = frozenset((int, Fraction))
_INT_TYPE = frozenset((int,))


def _require_ring(ring):
    if ring not in RINGS:
        raise ValidationError(f"unknown ring {ring!r}")


def _require_shape(nrows, ncols, ring):
    _require_ring(ring)
    if nrows.__class__ is not int or ncols.__class__ is not int:
        raise ValidationError(
            f"matrix shape {nrows!r}x{ncols!r} is not a pair of ints")
    if nrows < 0 or ncols < 0:
        raise ValidationError(f"matrix shape {nrows}x{ncols} is negative")


def _outside(keys, size):
    """A key of keys that is not an int (a bool is not) or lies outside
    0..size-1, or None; one type pass, one min and one max."""
    if not _INT_TYPE.issuperset(map(type, keys)):
        return next(k for k in keys if k.__class__ is not int)
    low, high = min(keys), max(keys)
    if low < 0:
        return low
    return high if high >= size else None


class ExactMatrix:
    """Immutable sparse matrix with exact entries (int or Fraction)."""

    __slots__ = ("ring", "nrows", "ncols", "_rows", "_cols")

    def __init__(self, nrows, ncols, entries=None, ring=INT):
        _require_shape(nrows, ncols, ring)
        self.ring = ring
        self.nrows = nrows
        self.ncols = ncols
        rows = {}
        if entries:
            for (i, j), v in entries.items():
                if v.__class__ not in _EXACT_TYPES:
                    raise ValidationError(
                        f"entry ({i},{j}) = {v!r} is not an int or Fraction")
                if v == 0:
                    continue
                if i.__class__ is not int or j.__class__ is not int:
                    raise ValidationError(
                        f"entry ({i!r},{j!r}) has an index that is not an int")
                if not (0 <= i < nrows and 0 <= j < ncols):
                    raise ValidationError(f"entry ({i},{j}) outside {nrows}x{ncols}")
                rows.setdefault(i, {})[j] = v
        self._rows = rows
        self._cols = None

    @classmethod
    def from_rows(cls, nrows, ncols, rows, ring=INT):
        """The matrix on assembled rows {i: {j: v}}, which it takes over.

        The index types and the value types of all rows are checked in one
        pass each, and each row's index range from the min and max of its
        keys; zero values and empty rows are dropped.
        """
        _require_shape(nrows, ncols, ring)
        bad = _outside(rows, nrows) if rows else None
        if bad is not None:
            raise ValidationError(f"row {bad!r} outside {nrows}x{ncols}")
        # One type pass over every index and one over every value; a row
        # is checked on its own only when a pass fails, to name it.
        chain = itertools.chain.from_iterable
        ints = _INT_TYPE.issuperset(map(type, chain(rows.values())))
        exact = _EXACT_TYPES.issuperset(
            map(type, chain(map(dict.values, rows.values()))))
        clean = {}
        for i, row in rows.items():
            if not row:
                continue
            if not (ints or _INT_TYPE.issuperset(map(type, row))) \
                    or min(row) < 0 or max(row) >= ncols:
                raise ValidationError(f"entry ({i},{_outside(row, ncols)!r}) "
                                      f"outside {nrows}x{ncols}")
            if not exact:
                _exact(row, "row", i)
            if not all(row.values()):
                row = {j: v for j, v in row.items() if v}
                if not row:
                    continue
            clean[i] = row
        return _matrix(nrows, ncols, clean, ring)

    @classmethod
    def identity(cls, n, ring=INT):
        _require_shape(n, n, ring)
        return _matrix(n, n, {i: {i: 1} for i in range(n)}, ring)

    @classmethod
    def zero(cls, nrows, ncols, ring=INT):
        _require_shape(nrows, ncols, ring)
        return _matrix(nrows, ncols, {}, ring)

    def entries(self):
        for i, row in self._rows.items():
            for j, v in row.items():
                yield (i, j), v

    def entry(self, i, j):
        return self._rows.get(i, {}).get(j, 0)

    def column(self, j):
        if self._cols is None:
            self._cols = _transposed(self._rows)
        return self._cols.get(j, {})

    def nnz(self):
        return sum(len(r) for r in self._rows.values())

    def is_zero(self):
        return not self._rows

    def transpose(self):
        return _matrix(self.ncols, self.nrows, _transposed(self._rows),
                       self.ring)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.nrows == other.nrows and self.ncols == other.ncols
                and self._rows == other._rows)

    def __hash__(self):
        return hash((self.nrows, self.ncols,
                     frozenset((i, j, v) for (i, j), v in self.entries())))

    def __repr__(self):
        return f"ExactMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()}, ring={self.ring})"

    def __add__(self, other):
        self._check_shape(other, same=True)
        rows = {i: dict(row) for i, row in self._rows.items()}
        for i, orow in other._rows.items():
            row = rows.get(i)
            if row is None:
                rows[i] = dict(orow)
                continue
            for j, v in orow.items():
                w = row.get(j, 0) + v
                if w:
                    row[j] = w
                else:
                    del row[j]
            if not row:
                del rows[i]
        return _matrix(self.nrows, self.ncols, rows, self.ring)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        if c.__class__ not in _EXACT_TYPES:
            raise ValidationError(f"scalar {c!r} is not an int or Fraction")
        if not c:
            return _matrix(self.nrows, self.ncols, {}, self.ring)
        return _matrix(self.nrows, self.ncols, {
            i: {j: c * v for j, v in row.items()}
            for i, row in self._rows.items()}, self.ring)

    def __mul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._check_shape(other)
        orows = other._rows
        rows = {}
        for i, row in self._rows.items():
            if len(row) == 1:
                # One term: a nonzero multiple of one row of other.
                (k, a), = row.items()
                orow = orows.get(k)
                if orow:
                    rows[i] = dict(orow) if a == 1 else {
                        j: a * b for j, b in orow.items()}
                continue
            acc = {}
            for k, a in row.items():
                orow = orows.get(k)
                if orow:
                    for j, b in orow.items():
                        acc[j] = acc.get(j, 0) + a * b
            if acc and not all(acc.values()):
                acc = {j: v for j, v in acc.items() if v}
            if acc:
                rows[i] = acc
        return _matrix(self.nrows, other.ncols, rows, self.ring)

    def apply(self, vec):
        """Matrix times sparse column vector (dict col -> value)."""
        if vec:
            bad = _outside(vec, self.ncols)
            if bad is not None:
                raise ValidationError(
                    f"apply: index {bad!r} outside the {self.ncols} columns of "
                    f"a {self.nrows}x{self.ncols} matrix")
        out = {}
        for j, c in vec.items():
            for i, v in self.column(j).items():
                w = out.get(i, 0) + c * v
                if w == 0:
                    out.pop(i, None)
                else:
                    out[i] = w
        return out

    def kron(self, other):
        """Kronecker product, valid for degree-zero maps of graded modules."""
        self._check_ring(other)
        on, om = other.nrows, other.ncols
        rows = {}
        for i, row in self._rows.items():
            for k, orow in other._rows.items():
                rows[i * on + k] = {j * om + col: v * w
                                    for j, v in row.items()
                                    for col, w in orow.items()}
        return _matrix(self.nrows * on, self.ncols * om, rows, self.ring)

    def trace(self):
        return sum(row.get(i, 0) for i, row in self._rows.items())

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise ValidationError(
                f"ring mismatch: a {self.ring} matrix with a {other.ring} one")

    def _check_shape(self, other, same=False):
        """Refuse operands over different rings or of unfit shapes: the
        same shape for a sum (same), chained shapes for a product."""
        self._check_ring(other)
        if same:
            fits = (self.nrows, self.ncols) == (other.nrows, other.ncols)
        else:
            fits = self.ncols == other.nrows
        if not fits:
            raise ValidationError(
                f"shape mismatch {self.nrows}x{self.ncols} "
                f"{'+' if same else '*'} {other.nrows}x{other.ncols}")


_new = object.__new__


def _matrix(nrows, ncols, rows, ring):
    """The matrix on rows, unchecked: for the kernel's own outputs, whose
    rows hold no zero value, no empty row and only in-range indices."""
    m = _new(ExactMatrix)
    m.ring = ring
    m.nrows = nrows
    m.ncols = ncols
    m._rows = rows
    m._cols = None
    return m


def _transposed(rows):
    """The columns {j: {i: v}} of rows {i: {j: v}}."""
    cols = {}
    for i, row in rows.items():
        for j, v in row.items():
            col = cols.get(j)
            if col is None:
                cols[j] = {i: v}
            else:
                col[i] = v
    return cols


# ---------------------------------------------------------------------------
# Smith normal form and integer rank


def _integer_rows(mat):
    """Rows {i: {j: int}} of mat, checked in one pass over its entries.

    A Fraction with denominator 1 becomes its int; any other non-int
    entry raises ValidationError naming its position.
    """
    rows = {}
    for i, row in mat._rows.items():
        out = rows[i] = {}
        for j, v in row.items():
            if not isinstance(v, int):
                if not (isinstance(v, Fraction) and v.denominator == 1):
                    raise ValidationError(
                        f"entry ({i},{j}) = {v!r} is not an integer")
                v = v.numerator
            out[j] = v
    return rows


def _snf_diagonal(rows):
    """Diagonalize integer rows {i: {j: v}} in place by unimodular row and
    column operations; returns the |pivots|, not yet a divisor chain.

    Pivot rule (Markowitz): least |v|, then least fill-in bound
    (len(row) - 1) * (len(col) - 1), then least (i, j).  The keys sit in a
    heap filled once and pushed again for each entry an elimination step
    writes.  The least key is checked against its entry before use:
    dropped if the entry is gone, replaced by the current key if the value
    or cost changed, and left queued when accepted.  Every live entry
    keeps a key with its current value (its last write pushed one), so the
    pivot always has the least |v| and the Euclidean loop ends.  A cost
    goes stale when its row or column changes elsewhere: too low is caught
    by that check, and too high only steers fill-in, since any nonzero
    entry is a valid pivot.
    """
    cols = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    heap = [(abs(v), (len(row) - 1) * (len(cols[j]) - 1), i, j)
            for i, row in rows.items() for j, v in row.items()]
    heapq.heapify(heap)
    push = heapq.heappush
    diag = []

    def pick():
        while True:
            key = heap[0]
            i, j = key[2], key[3]
            row = rows.get(i)
            v = row.get(j) if row is not None else None
            if v is None:
                heapq.heappop(heap)
                continue
            now = (abs(v), (len(row) - 1) * (len(cols[j]) - 1), i, j)
            if now == key:
                return i, j
            heapq.heapreplace(heap, now)

    def addmul_row(dst, src, q):
        # row[dst] += q * row[src]; every column of src holds src.
        rsrc, rdst = rows[src], rows[dst]
        for j, v in rsrc.items():
            w = rdst.get(j, 0) + q * v
            if w:
                if j not in rdst:
                    cols[j].add(dst)
                rdst[j] = w
            elif j in rdst:
                del rdst[j]
                cols[j].discard(dst)
        if not rdst:
            del rows[dst]
            return
        n = len(rdst) - 1
        for j in rsrc:
            w = rdst.get(j)
            if w is not None:
                push(heap, (abs(w), n * (len(cols[j]) - 1), dst, j))

    def addmul_col(dst, src, q):
        # col[dst] += q * col[src]
        for i in list(cols[src]):
            ri = rows[i]
            w = ri.get(dst, 0) + q * ri[src]
            if w:
                if dst not in ri:
                    cols.setdefault(dst, set()).add(i)
                ri[dst] = w
                push(heap, (abs(w), (len(ri) - 1) * (len(cols[dst]) - 1),
                            i, dst))
            elif dst in ri:
                del ri[dst]
                cols[dst].discard(i)
                if not cols[dst]:
                    del cols[dst]

    while rows:
        i, j = pick()
        # Clean column j and row i; remainders shrink |pivot|, so this ends.
        while True:
            col_others = [r for r in cols[j] if r != i]
            for r in col_others:
                q = -(rows[r][j] // rows[i][j])
                if q:
                    addmul_row(r, i, q)
            if any(r in cols[j] for r in col_others):
                i, j = pick()
                continue
            row_others = [c for c in rows[i] if c != j]
            for c in row_others:
                q = -(rows[i][c] // rows[i][j])
                if q:
                    addmul_col(c, j, q)
            if all(c not in rows[i] for c in row_others):
                break
            i, j = pick()
        # Row i is now {j} and column j is {i}.
        diag.append(abs(rows.pop(i)[j]))
        del cols[j]
    return diag


def smith_normal_form(mat):
    """Invariant factors d_1 | d_2 | ... of an integer matrix.

    The returned list has length rank(mat) and contains only positive
    integers (including any leading 1s).  A non-integer entry raises
    ValidationError.
    """
    if mat.ring != INT:
        raise ValidationError("smith_normal_form requires ring Z")
    diag = _snf_diagonal(_integer_rows(mat))
    # A unit divides every entry, so only the entries > 1 need chaining:
    # diag(a, b) is equivalent to diag(gcd(a,b), lcm(a,b)).  One sweep of
    # that over the pairs leaves each entry dividing every later one: an
    # entry only shrinks to a divisor, and the later ones stay multiples.
    chain = [v for v in diag if v != 1]
    for a in range(len(chain)):
        for b in range(a + 1, len(chain)):
            g = gcd(chain[a], chain[b])
            chain[a], chain[b] = g, chain[a] * chain[b] // g
    return [1] * (len(diag) - len(chain)) + chain


def matrix_rank(mat):
    """Exact rank: over Z by the Smith form's elimination (a non-integer
    entry raises ValidationError), over Q by _column_span."""
    if mat.ring == RAT:
        return len(_column_span(mat).pivots)
    return len(_snf_diagonal(_integer_rows(mat)))


# ---------------------------------------------------------------------------
# Echelon machinery over Q (sparse dict vectors)


def _exact(vec, kind, index=None):
    """vec, after checking that every entry is an int or a Fraction; the
    error names the vector as kind and index ("column 3", "target"), which
    are formatted only then."""
    if _EXACT_TYPES.issuperset(map(type, vec.values())):
        return vec
    for i, v in vec.items():
        if v.__class__ not in _EXACT_TYPES:
            name = kind if index is None else f"{kind} {index}"
            raise ValidationError(
                f"{name} has entry {v!r} at index {i}, not an int or Fraction")
    return vec


def _vec_addmul(dst, src, c):
    for j, v in src.items():
        w = dst.get(j, 0) + c * v
        if w == 0:
            dst.pop(j, None)
        else:
            dst[j] = w


class _Echelon:
    """Growing echelon basis over Q with lowest-index pivots.

    Every vector goes in with a tracking dict, its expression in the
    caller's inputs, which reductions keep updated; a vector inserted with
    {} adds nothing to any expression.  _Echelon(base) starts from base's
    pivots: it shares their vectors and never changes them.  The only
    Fraction it makes is the inverse of a pivot other than +-1.
    """

    def __init__(self, base=None):
        # pivot index -> (vector, tracking)
        self.pivots = {} if base is None else dict(base.pivots)

    def reduce(self, vec, tracking):
        vec = dict(vec)
        while vec:
            p = min(vec)
            hit = self.pivots.get(p)
            if hit is None:
                break
            c = -vec[p]
            _vec_addmul(vec, hit[0], c)
            _vec_addmul(tracking, hit[1], c)
        return vec, tracking

    def insert(self, vec, tracking):
        """Reduce and insert: (pivot, tracking), the pivot None if vec was
        dependent."""
        vec, tracking = self.reduce(vec, tracking)
        if not vec:
            return None, tracking
        p = min(vec)
        v = vec[p]
        vec = _normalized(vec, v)
        tracking = _normalized(tracking, v)
        self.pivots[p] = (vec, tracking)
        return p, tracking


def _normalized(vec, v):
    """vec / v, in ints when v is +-1 (vec itself when v is 1)."""
    if v == 1:
        return vec
    inv = -1 if v == -1 else Fraction(1) / v
    return {j: x * inv for j, x in vec.items()}


def _column_echelon(mat):
    """(pivot columns, kernel basis) of mat over Q from one tracked echelon
    of its columns in order: the columns independent of the earlier ones,
    and per other column the relation it closes, lowest coefficient 1."""
    ech = _Echelon()
    pivots, kernel = [], []
    for j in range(mat.ncols):
        col = _exact(mat.column(j), "column", j)
        pivot, tracking = ech.insert(col, {j: 1})
        if pivot is None:
            kernel.append(_normalized(tracking, tracking[min(tracking)]))
        else:
            pivots.append(j)
    return tuple(pivots), kernel


def _column_span(mat):
    """The echelon over Q of the columns of mat, each inserted with {}."""
    ech = _Echelon()
    for j in range(mat.ncols):
        ech.insert(_exact(mat.column(j), "column", j), {})
    return ech


def kernel_basis(mat):
    """Deterministic basis of the right kernel over Q (sparse dict vectors)."""
    return _column_echelon(mat)[1]


def column_space_basis(mat):
    """The columns of mat independent of the columns before them."""
    return [dict(mat.column(j)) for j in _column_echelon(mat)[0]]


def _nonzero(vec, kind, index=None):
    """The nonzero entries of vec, checked by _exact."""
    return {i: x for i, x in _exact(vec, kind, index).items() if x}


def solve_in_span(vectors, target):
    """Coefficients expressing target in span(vectors), or None.

    Deterministic; vectors and target are sparse dicts over Q, where
    explicit zero entries are ignored.  Vector k goes into a fresh echelon
    tracked by {k: 1} and the target is reduced against it.
    """
    ech = _Echelon()
    for k, v in enumerate(vectors):
        ech.insert(_nonzero(v, "vector", k), {k: 1})
    red, tracking = ech.reduce(_nonzero(target, "target"), {})
    if red:
        return None
    return {k: -c for k, c in tracking.items()}


# ---------------------------------------------------------------------------
# Graded modules, chain complexes, homology


class GradedFreeModule:
    """Finitely supported map degree -> ordered list of basis labels."""

    __slots__ = ("spaces", "_basis", "_index", "_offset")

    def __init__(self, spaces):
        clean = {}
        for d, labels in spaces.items():
            require_int(d, "degree")
            labels = tuple(labels)
            if not labels:
                continue
            if len(set(labels)) != len(labels):
                raise ValidationError(f"duplicate basis labels in degree {d}")
            clean[d] = labels
        self.spaces = clean
        self._basis = tuple((d, lab) for d in sorted(clean)
                            for lab in clean[d])
        self._index = {pair: i for i, pair in enumerate(self._basis)}
        self._offset = dict(zip(sorted(clean), itertools.accumulate(
            (len(clean[d]) for d in sorted(clean)), initial=0)))

    def degrees(self):
        return sorted(self.spaces)

    def rank(self, d):
        return len(self.spaces.get(d, ()))

    def labels(self, d):
        return self.spaces.get(d, ())

    def total_rank(self):
        return len(self._basis)

    def basis(self):
        """Global ordered basis as (degree, label) pairs, degree-major."""
        return self._basis

    def index(self, degree, label):
        try:
            return self._index[(degree, label)]
        except KeyError:
            raise ValidationError(
                f"no basis label {label!r} in degree {degree}") from None

    def position(self, degree, label):
        """Index of a basis label within its degree."""
        try:
            return self._index[(degree, label)] - self._offset[degree]
        except KeyError:
            raise ValidationError(
                f"no basis label {label!r} in degree {degree}") from None

    def degree_of(self, i):
        return self._basis[i][0]

    def offset(self, degree):
        """Global index of the first basis label of a nonzero degree."""
        return self._offset[degree]

    def negated(self):
        return GradedFreeModule({-d: labs for d, labs in self.spaces.items()})

    def __eq__(self, other):
        if not isinstance(other, GradedFreeModule):
            return NotImplemented
        return self.spaces == other.spaces

    def __repr__(self):
        ranks = {d: len(v) for d, v in sorted(self.spaces.items())}
        return f"GradedFreeModule({ranks})"


class HomologySummary:
    """Per degree: free rank and torsion invariant factors (each > 1)."""

    __slots__ = ("ring", "groups")

    def __init__(self, ring, groups):
        _require_ring(ring)
        self.ring = ring
        clean = {}
        for d, (rank, torsion) in groups.items():
            torsion = tuple(torsion)
            for name, v in (("degree", d), ("rank", rank),
                            *(("torsion factor", t) for t in torsion)):
                require_int(v, name)
            if ring == RAT and torsion:
                raise ValidationError("torsion is empty over Q")
            for a, b in zip(torsion, torsion[1:]):
                if b % a != 0:
                    raise ValidationError("torsion factors must form a divisor chain")
            if rank or torsion:
                clean[d] = (rank, torsion)
        self.groups = clean

    def free_rank(self, d):
        return self.groups.get(d, (0, ()))[0]

    def torsion(self, d):
        return self.groups.get(d, (0, ()))[1]

    def degrees(self):
        return sorted(self.groups)

    def euler_characteristic(self):
        return sum(-r if d % 2 else r for d, (r, _t) in self.groups.items())

    def degree_negated(self):
        return HomologySummary(self.ring,
                               {-d: g for d, g in self.groups.items()})

    def is_concentrated_in(self, degree):
        return all(d == degree for d in self.groups)

    def __eq__(self, other):
        if not isinstance(other, HomologySummary):
            return NotImplemented
        return self.ring == other.ring and self.groups == other.groups

    def __repr__(self):
        return f"HomologySummary({self.ring}, {self.groups})"


class ChainComplex:
    """Graded free module with differentials d_k : C_k -> C_{k-1}.

    d^2 = 0 and all matrix shapes are always verified on construction.  The
    echelon over Q of the boundaries in each degree is made once and kept
    (boundaries); representatives and coordinates extend copies of it, and
    coordinates keep theirs per degree and homology basis
    (homology_coordinates).
    """

    def __init__(self, module, diffs, ring=INT):
        _require_ring(ring)
        self.ring = ring
        self.module = module
        clean = {}
        for k, m in diffs.items():
            require_int(k, "degree")
            if m.nrows != module.rank(k - 1) or m.ncols != module.rank(k):
                raise ValidationError(
                    f"differential d_{k} has shape {m.nrows}x{m.ncols}, "
                    f"expected {module.rank(k-1)}x{module.rank(k)}")
            if not m.is_zero():
                clean[k] = m
        self.diffs = clean
        self._boundaries = {}
        self._coordinates = {}
        self._columns = None
        for k, m in clean.items():
            up = clean.get(k + 1)
            if up is not None and not (m * up).is_zero():
                raise ValidationError(f"d_{k} o d_{k+1} != 0")

    @classmethod
    def from_rows(cls, module, rows, ring=INT):
        """Chain complex on module whose d_k has the rows rows[k] =
        {i: {j: v}}: row i indexes degree k - 1 of module and column j
        degree k.  The rows are checked as ExactMatrix.from_rows checks
        them, and the shapes and d^2 = 0 as for any complex."""
        return cls(module, {
            k: ExactMatrix.from_rows(module.rank(k - 1), module.rank(k), r,
                                     ring=ring)
            for k, r in rows.items()}, ring=ring)

    def degrees(self):
        return self.module.degrees()

    def rank(self, k):
        return self.module.rank(k)

    def labels(self, k):
        return self.module.labels(k)

    def differential(self, k):
        d = self.diffs.get(k)
        if d is None:
            d = ExactMatrix.zero(self.rank(k - 1), self.rank(k), ring=self.ring)
        return d

    def boundaries(self, k):
        """Echelon over Q of the columns of d_{k+1}, a basis of the
        degree-k boundaries, built on first use and kept; callers share
        it and must not change it."""
        ech = self._boundaries.get(k)
        if ech is None:
            ech = self._boundaries[k] = _column_span(self.differential(k + 1))
        return ech

    def homology(self, ring=None):
        return homology(self, ring=ring)

    def _global_columns(self):
        """The boundary of each basis element with one, in global indices
        (_columns_in); built on first use and kept."""
        if self._columns is None:
            self._columns = _columns_in(self.diffs, self.module, self.module,
                                        1)
        return self._columns


def _free_pair_residual(complex_, ring):
    """The complex on the cells that survive collapsing every free unit
    pair of complex_ (see homology), over ring.

    Each deletion drops both cells from their neighbours' face and coface
    maps and queues the neighbours.  Entries are checked as
    smith_normal_form (over Z) and matrix_rank (over Q) check them, and
    the residual is a ChainComplex, so d^2 = 0 is checked again.
    """
    mod = complex_.module
    faces = [{} for _ in range(mod.total_rank())]
    cofaces = [{} for _ in faces]
    for k, d in complex_.diffs.items():
        lo, hi = mod.offset(k - 1), mod.offset(k)
        rows = _integer_rows(d) if ring == INT else {
            i: _exact(row, "row", i) for i, row in d._rows.items()}
        for i, row in rows.items():
            a = lo + i
            for j, v in row.items():
                faces[hi + j][a] = v
                cofaces[a][hi + j] = v
    alive = [True] * len(faces)
    queue = collections.deque(range(len(faces)))
    while queue:
        c = queue.popleft()
        if not alive[c]:
            continue
        for own in (cofaces[c], faces[c]):
            if len(own) == 1:
                (other, v), = own.items()
                if ring == RAT or v in (1, -1):
                    break
        else:
            continue
        for x in (c, other):
            alive[x] = False
            for y in faces[x]:
                del cofaces[y][x]
                queue.append(y)
            for y in cofaces[x]:
                del faces[y][x]
                queue.append(y)
    spaces, position = {}, {}
    for g, (d, _lab) in enumerate(mod.basis()):
        if alive[g]:
            space = spaces.setdefault(d, [])
            position[g] = len(space)
            space.append(g)
    rows = {}
    for d, cells in spaces.items():
        out = rows[d] = {}
        for j, b in enumerate(cells):
            for a, v in faces[b].items():
                out.setdefault(position[a], {})[j] = v
    return ChainComplex.from_rows(GradedFreeModule(spaces), rows, ring)


def homology(complex_, ring=None):
    """Homology summary of a chain complex.

    First every free unit pair is collapsed (_free_pair_residual).  A pair
    is a cell a of degree k - 1 and a cell b of degree k whose coefficient
    <d b, a> is a unit of the ring (+-1 over Z, any nonzero value over Q);
    it is free when b is a's only live coface or a is b's only live face.
    Deleting a free pair is a quotient by an acyclic subcomplex, so no
    other boundary changes and the homology is kept.  The pass is exact
    over Z and takes time linear in the number of entries (Kaczynski,
    Mrozek and Slusarek, "Homology computation by reduction of chain
    complexes", 1998; Mrozek and Batko, "Coreduction homology algorithm",
    Discrete Comput. Geom., 2009).  Its queue is FIFO, seeded with every
    cell in ascending (degree, index) order: the order does not change
    the answer, but it decides how much survives, and on the bar complex
    of com and the partition complexes it leaves only the (n-1)! top
    cells.  Then, on the residual differentials d'_k: over Z, free rank =
    survivors in degree k - rank(d'_k) - rank(d'_{k+1}) and torsion =
    invariant factors of d'_{k+1} exceeding 1 (smith_normal_form); over Q,
    ranks only (matrix_rank).
    """
    ring = ring or complex_.ring
    residual = _free_pair_residual(complex_, ring)
    factors = {k: smith_normal_form(d) if ring == INT else [1] * matrix_rank(d)
               for k, d in sorted(residual.diffs.items())}
    groups = {}
    for k in complex_.degrees():
        up = factors.get(k + 1, ())
        groups[k] = (residual.rank(k) - len(factors.get(k, ())) - len(up),
                     tuple(t for t in up if t > 1))
    return HomologySummary(ring, groups)


_PRODUCTS = weakref.WeakValueDictionary()


def _columns_in(mats, source, target, shift):
    """{global index in the module source: [(global index in the module
    target, coefficient)]} of the nonzero columns of the matrices mats (by
    degree), in ascending order; the column of a degree-d element lies in
    degree d - shift of target."""
    out = {}
    for d in source.degrees():
        m = mats.get(d)
        if m is None or m.is_zero():
            continue
        lo, hi = source._offset[d], target._offset[d - shift]
        cols = _transposed(m._rows)
        for j in sorted(cols):
            out[lo + j] = [(hi + i, v) for i, v in cols[j].items()]
    return out


def tensor_list(complexes):
    """Tensor product of chain complexes with Koszul-signed differential.

    Basis labels are k-tuples of factor labels; the ordering is row-major
    over the factors' (degree, index) global orders.  The product keeps
    its `factors` and a dict `tensor_index` from tuples of factor global
    basis indices to (degree, position).  Its rows are assembled from the
    factors' boundary columns (ChainComplex._global_columns).  Products
    are shared while alive: a call on the same factor objects returns the
    product an earlier call built while some caller still holds it.  The
    table holds products weakly and a product holds its factors, so no id
    in a live key can be reused.
    """
    if not complexes:
        raise ValidationError("tensor_list needs at least one complex")
    key = tuple(id(c) for c in complexes)
    product = _PRODUCTS.get(key)
    if product is not None:
        return product
    ring = complexes[0].ring
    if any(c.ring != ring for c in complexes):
        raise ValidationError("tensor factors must share a ring")
    bases = [c.module.basis() for c in complexes]
    degrees = [[d for d, _lab in b] for b in bases]
    # Global index tuples in row-major order, then bucketed by total degree.
    spaces, index = {}, {}
    for combo in itertools.product(*(range(len(b)) for b in bases)):
        deg = sum(ds[g] for ds, g in zip(degrees, combo))
        space = spaces.setdefault(deg, [])
        index[combo] = (deg, len(space))
        space.append(tuple(b[g][1] for b, g in zip(bases, combo)))
    module = GradedFreeModule(spaces)
    boundaries = [c._global_columns() for c in complexes]
    rows = {}
    for combo, (deg, col) in index.items():
        out = rows.setdefault(deg, {})
        sign = 1
        for pos, g in enumerate(combo):
            faces = boundaries[pos].get(g)
            if faces:
                head, tail = combo[:pos], combo[pos + 1:]
                for i, v in faces:
                    # Each face changes one factor, so no entry repeats.
                    out.setdefault(index[head + (i,) + tail][1], {})[col] = \
                        sign * v
            if degrees[pos][g] % 2:
                sign = -sign
    product = ChainComplex.from_rows(module, rows, ring)
    product.factors = tuple(complexes)
    product.tensor_index = index
    _PRODUCTS[key] = product
    return product


class ChainMap:
    """Degree-0 map of chain complexes, verified to commute with d."""

    def __init__(self, source, target, mats, check=True):
        self.source = source
        self.target = target
        clean = {}
        for k, m in mats.items():
            require_int(k, "degree")
            if m.nrows != target.rank(k) or m.ncols != source.rank(k):
                raise ValidationError(
                    f"chain map component {k} has shape {m.nrows}x{m.ncols}, "
                    f"expected {target.rank(k)}x{source.rank(k)}")
            clean[k] = m
        self.mats = clean
        self._columns = None
        if check:
            self.verify()

    @classmethod
    def identity(cls, complex_):
        return cls(complex_, complex_, {
            d: ExactMatrix.identity(complex_.rank(d), ring=complex_.ring)
            for d in complex_.degrees()}, check=False)

    @classmethod
    def from_rows(cls, source, target, rows, check=True):
        """Chain map whose degree-d component has the rows rows[d] =
        {i: {j: v}}, checked as ExactMatrix.from_rows checks them; every
        degree of source gets a component."""
        return cls(source, target, {
            d: ExactMatrix.from_rows(target.rank(d), source.rank(d),
                                     rows.get(d, {}), ring=source.ring)
            for d in set(source.degrees()).union(rows)}, check=check)

    def component(self, k):
        m = self.mats.get(k)
        if m is None:
            m = ExactMatrix.zero(self.target.rank(k), self.source.rank(k),
                                 ring=self.source.ring)
        return m

    def _global_columns(self):
        """The image of each basis element of source that has one, in
        global indices (_columns_in); built on first use and kept."""
        if self._columns is None:
            self._columns = _columns_in(self.mats, self.source.module,
                                        self.target.module, 0)
        return self._columns

    def verify(self):
        degrees = set(self.source.degrees()) | set(self.mats)
        for k in sorted(degrees):
            lhs = self.target.differential(k) * self.component(k)
            rhs = self.component(k - 1) * self.source.differential(k)
            if lhs != rhs:
                raise ValidationError(f"not a chain map in degree {k}")

    def compose(self, other):
        """self o other; the middle complexes may be equal copies."""
        mid, src = other.target, self.source
        if mid is not src and (mid.ring, mid.module, mid.diffs) != \
                (src.ring, src.module, src.diffs):
            raise ValidationError("chain maps not composable")
        degrees = set(other.mats) | set(self.mats)
        mats = {k: self.component(k) * other.component(k) for k in degrees}
        return _chain_map(other.source, self.target, mats)


def _chain_map(source, target, mats):
    """The chain map with the components mats, unchecked: for composites,
    whose components are products of checked components."""
    f = _new(ChainMap)
    f.source = source
    f.target = target
    f.mats = mats
    f._columns = None
    return f


def _tensor_terms(product, items):
    """{position in product: coefficient} of the products of one (global
    basis index, coefficient) pair of items[k] per factor k."""
    index = product.tensor_index
    out = {}
    for combo in itertools.product(*items):
        image, coeffs = zip(*combo)
        out[index[image][1]] = prod(coeffs)
    return out


def tensor_vector(product, vectors):
    """(degree, coordinates in product) of v_1 (x) ... (x) v_k.

    product is a tensor_list product and vectors[i] = (degree, sparse
    vector) lies in one degree of product.factors[i]; the coefficients
    multiply and take no Koszul sign.
    """
    items = []
    for k, (f, (dv, v)) in enumerate(zip(product.factors, vectors)):
        rank = f.rank(dv)
        bad = _outside(v, rank) if v else None
        if bad is not None:
            raise ValidationError(
                f"tensor_vector: vector {k} has index {bad!r} outside degree "
                f"{dv} of factor {k}, which has rank {rank} there")
        off = f.module._offset.get(dv, 0)
        items.append([(off + i, c) for i, c in v.items()])
    return sum(dv for dv, _v in vectors), _tensor_terms(product, items)


def tensor_chain_maps(maps):
    """f_1 (x) ... (x) f_k from the tensor_list of the sources to that of
    the targets.  The maps have degree 0, so no Koszul sign arises.  Each
    factor's columns are read from that map (ChainMap._global_columns),
    and only the sources whose every factor has a nonzero column are
    visited."""
    source = tensor_list([f.source for f in maps])
    target = tensor_list([f.target for f in maps])
    rows = {}
    for combo in itertools.product(*(f._global_columns().items()
                                     for f in maps)):
        gs, columns = zip(*combo)
        d, j = source.tensor_index[gs]
        out = rows.setdefault(d, {})
        for i, c in _tensor_terms(target, columns).items():
            out.setdefault(i, {})[j] = c
    return ChainMap.from_rows(source, target, rows, check=False)


def _bracket(shape, items, join):
    """items nested as shape, a nested tuple of positions into items,
    with join applied to the parts of each bracket."""
    if isinstance(shape, int):
        return items[shape]
    return join([_bracket(part, items, join) for part in shape])


def _leaf_indices(cplx, shape):
    """Per global basis index of cplx, the tensor_list bracketing of shape:
    the global basis indices of its factors' elements, as a tuple in the
    order shape lists its positions."""
    if isinstance(shape, int):
        return [(g,) for g in range(cplx.module.total_rank())]
    parts = [_leaf_indices(f, part) for f, part in zip(cplx.factors, shape)]
    out = [None] * cplx.module.total_rank()
    offset = cplx.module._offset
    for combo, (d, pos) in cplx.tensor_index.items():
        out[offset[d] + pos] = sum((leaves[g] for leaves, g in
                                    zip(parts, combo)), ())
    return out


def reindexing_map(factors, source_shape, target_shape):
    """Chain map between two bracketings and orders of one tensor product.

    A shape is a nested tuple using each position of factors once, and it
    brackets tensor_list complexes: ((0, 1), 2) is (F0 (x) F1) (x) F2.
    The basis element carrying factor labels a_0..a_{k-1} goes to the one
    carrying the same labels in the target, times the Koszul sign of the
    reordering.  Re-bracketings, swaps and shuffles are all of this form;
    the result is verified as a chain map, since a wrong sign breaks it.
    """
    source, target = (_bracket(shape, factors, tensor_list)
                      for shape in (source_shape, target_shape))
    singletons = [(k,) for k in range(len(factors))]
    src_order, tgt_order = (_bracket(shape, singletons, lambda p: sum(p, ()))
                            for shape in (source_shape, target_shape))
    perm = tuple(tgt_order.index(k) for k in src_order)
    # Target leaf m is source leaf reorder[m]; a leaf's degree is read off
    # its factor's basis.
    reorder = [src_order.index(k) for k in tgt_order]
    in_target = {leaves: g for g, leaves in
                 enumerate(_leaf_indices(target, target_shape))}
    leaf_degrees = [[d for d, _lab in factors[k].module.basis()]
                    for k in src_order]
    s_mod, t_mod = source.module, target.module
    signs = {}
    rows = {}
    for g, leaves in enumerate(_leaf_indices(source, source_shape)):
        d = s_mod.degree_of(g)
        degrees = tuple(ds[x] % 2 for ds, x in zip(leaf_degrees, leaves))
        sign = signs.get(degrees)
        if sign is None:
            sign = signs[degrees] = koszul_sign(degrees, perm)
        t = in_target[tuple(leaves[x] for x in reorder)]
        # A signed permutation matrix: one entry per row.
        rows.setdefault(d, {})[t - t_mod._offset[d]] = {
            g - s_mod._offset[d]: sign}
    return ChainMap.from_rows(source, target, rows)


def homology_representatives(complex_, degree):
    """Cycle representatives of a basis of homology over Q in one degree.

    Representatives are deterministic: the vectors of kernel_basis of
    d_degree, in order, that are independent modulo the boundaries, each
    inserted into a copy of boundaries(degree).  Which vectors are kept
    depends only on the boundary subspace.  The degree is an int.
    """
    require_int(degree, "degree")
    ech = _Echelon(complex_.boundaries(degree))
    return [z for z in kernel_basis(complex_.differential(degree))
            if ech.insert(z, {})[0] is not None]


def homology_coordinates(complex_, basis, images):
    """Coordinates of homology classes in a homology basis, over Q.

    basis and images are lists of (degree, sparse cycle) pairs.  Column j
    of the result holds the coordinates of images[j] and row i belongs to
    basis[i], so basis vectors of another degree than the image get
    coordinate 0.

    Each degree with an image reduces it against a copy of
    boundaries(d) extended by that degree's basis vectors, each tracked
    by its row {i: 1}, so the negated tracking holds the image's
    coordinates and no boundary vector is inserted again.  The complex
    keeps that echelon under (d, the degree's rows and basis vectors), as
    it keeps boundaries(d), so a later call with an equal basis in that
    degree inserts nothing and skips its index checks.  The basis vectors
    of a degree with no kept echelon are checked on every call: a degree
    without an image, and a degree whose basis holds an index or value
    that is not an int (a bool is not) or a Fraction, which is never
    kept.  Images are checked and reduced on every call.  ValidationError
    is raised for a degree that is not an int, for a vector with an index
    outside the rank of its degree, for a basis vector that depends on
    the boundaries and the earlier basis vectors of a degree with an
    image, and for an image outside the span, such as a non-cycle.
    """
    for j, (d, _vec) in enumerate(images):
        require_int(d, f"image {j}: degree")
    rows = {}
    for i, (d, vec) in enumerate(basis):
        require_int(d, f"basis vector {i}: degree")
        rows.setdefault(d, []).append((i, vec))
    kept = complex_._coordinates
    keys = {d: _basis_key(d, vectors) for d, vectors in rows.items()}
    checks = [("basis vector", i, d, vec) for i, (d, vec) in enumerate(basis)
              if keys[d] not in kept]
    checks += [("image", j, d, vec) for j, (d, vec) in enumerate(images)]
    for kind, i, d, vec in checks:
        rank = complex_.rank(d)
        bad = _outside(vec, rank) if vec else None
        if bad is not None:
            raise ValidationError(
                f"{kind} {i} in degree {d} has index {bad!r} outside "
                f"rank {rank}")
    echelons = {}
    out = {}
    for j, (d, img) in enumerate(images):
        ech = echelons.get(d)
        if ech is None:
            ech = echelons[d] = _extended(complex_, d, rows.get(d),
                                          keys.get(d))
        red, tracking = ech.reduce(_nonzero(img, "image", j), {})
        if red:
            raise ValidationError(
                f"image {j} in degree {d} lies outside the span of the "
                f"boundaries and the basis")
        for i, c in tracking.items():
            out.setdefault(i, {})[j] = -c
    return ExactMatrix.from_rows(len(basis), len(images), out, ring=RAT)


def _extended(complex_, d, vectors, key):
    """boundaries(d) extended by the (row, basis vector) pairs vectors of
    degree d, each tracked by {row: 1}: the echelon the complex keeps
    under key (_basis_key), else a new one, kept unless key is None."""
    if not vectors:
        return complex_.boundaries(d)
    kept = complex_._coordinates
    ech = None if key is None else kept.get(key)
    if ech is None:
        ech = _Echelon(complex_.boundaries(d))
        for i, vec in vectors:
            if ech.insert(_nonzero(vec, "basis vector", i),
                          {i: 1})[0] is None:
                raise ValidationError(
                    f"basis vector {i} in degree {d} depends on the "
                    f"boundaries and the earlier basis vectors")
        if key is not None:
            kept[key] = ech
    return ech


def _basis_key(d, vectors):
    """(d, ((row, items), ...)) for the (row, vector) pairs of a degree,
    or None unless every index is an int and every value an int or a
    Fraction, so that equal keys are interchangeable bases."""
    for _i, vec in vectors:
        if not (_INT_TYPE.issuperset(map(type, vec))
                and _EXACT_TYPES.issuperset(map(type, vec.values()))):
            return None
    return d, tuple((i, tuple(vec.items())) for i, vec in vectors)


def alternating_trace(complex_, automorphism):
    """Lefschetz number: sum of (-1)^k trace(g on degree k).

    The automorphism is a dict degree -> ExactMatrix; it must commute with
    the differential.
    """
    for k in complex_.degrees():
        g = automorphism.get(k)
        if g is None or g.nrows != complex_.rank(k) or g.ncols != complex_.rank(k):
            raise ValidationError(f"automorphism missing or misshapen in degree {k}")
    # A nonzero d_k joins two degrees of the complex, both checked above.
    for k, d in sorted(complex_.diffs.items()):
        if automorphism[k - 1] * d != d * automorphism[k]:
            raise ValidationError(f"automorphism does not commute with d_{k}")
    return sum(-automorphism[k].trace() if k % 2 else automorphism[k].trace()
               for k in complex_.degrees())


# ---------------------------------------------------------------------------
# Graded tensor bookkeeping shared by the operadic modules


def koszul_sign(degrees, perm):
    """Sign of the graded permutation sending slot i to slot perm[i].

    perm is a tuple with perm[i] = new position of factor i; the sign is
    the product of (-1)^{d_i d_j} over pairs that cross.
    """
    sign = 1
    n = len(degrees)
    for i in range(n):
        for j in range(i + 1, n):
            if perm[i] > perm[j] and degrees[i] % 2 and degrees[j] % 2:
                sign = -sign
    return sign


def perm_sign(perm):
    """Sign of a permutation given as a tuple of images (0-based)."""
    return koszul_sign((1,) * len(perm), perm)
