"""Symmetric sequences, operads, cooperads and one-sided (co)modules.

All structures are arity-indexed graded free modules with explicit sparse
matrices: symmetric actions are stored for the adjacent transpositions,
partial compositions P(m) (x) P(n) -> P(m+n-1) for canonical index sets,
left-module actions per set partition, right-module actions as partials.
General instances are derived through the symmetric action.  Every axiom
(Coxeter relations, associativity, equivariance, units, pentagons) is an
executable matrix identity checked on construction: each instance is one
comparison of two ExactMatrix products.

Operads, cooperads and one-sided (co)modules share one base, Structure:
a symmetric sequence, the structure it is over (itself for an operad or
a cooperad), a kind and one dict of stored maps.  Every reader of
structure matrices goes through the structure's reads in operad form:
``partial`` gives M(m) (x) P(n) -> M(m+n-1), ``left_action`` the left
actions, ``form_action`` the symmetric actions, and ``full`` every full
composition and full right action, derived from the partials.  Cooperad
and comodule matrices are transposed once, and sigma acts on a dual
sequence by the transpose of sigma^-1, so the axiom checks and the bar
and cobar differentials read the same data either way.  One checker,
``_check_partials``, covers all partial-composition data: a right module
over P is P's data with one more colour, so an operad is checked as a
right module over itself (plus reducedness and the left unit).

A left module (a left comodule, transposed) satisfies, for lam with
blocks B_1..B_r grouped into the blocks of mu, and for sigma in Sigma_n,

    pentagon:      act_lam ((rho gamma) (x) id_M)
                   = act_mu (id_P(s) (x) act_1 (x) ... (x) act_s)
                     (id_P(s) (x) S),
    equivariance:  sigma act_lam
                   = act_{sigma lam} (rho (x) R) (id (x) tau_1 ... tau_r),

where S shuffles each P(k_i) in front of its group of blocks, R and rho
put the blocks into the order of sigma(lam) and tau_i relabels B_i.  A
coalgebra Delta: X -> X (x) X behind ``constant_comodule`` satisfies

    coassociativity:        (Delta (x) 1) Delta = (1 (x) Delta) Delta,
    graded cocommutativity: T Delta = Delta,

and its iterated coproducts are Delta^(r) = (1 (x) Delta^(r-1)) Delta.

Tensor bases are ordered row-major over the factors' (degree, index)
global orders.  All structure maps preserve degree (checked on every
construction, also without the axiom checks), so tensor products of
maps are plain Kronecker products; Koszul signs enter only through
explicit factor reorderings.  In the axiom checks these (S, R, the swap
T and the slot-commutation swap) all come from ``_factor_permutation``.
"""

from __future__ import annotations

import itertools
import urllib.parse
from fractions import Fraction
from functools import cache, reduce
from math import prod

from .combinat import (
    adjacent_word,
    block_sort_perm,
    canonical_partition,
    perm_identity,
    perm_inverse,
    permutation,
    set_partitions,
)
from .errors import BoundsError, ParseError, ValidationError, require_int
from .exactla import (
    INT,
    RAT,
    ExactMatrix,
    GradedFreeModule,
    koszul_sign,
)

LEFT_MODULE = "left_module"
RIGHT_MODULE = "right_module"
LEFT_COMODULE = "left_comodule"
RIGHT_COMODULE = "right_comodule"
SIDES = (LEFT_MODULE, RIGHT_MODULE, LEFT_COMODULE, RIGHT_COMODULE)
# The kinds whose stored maps are transposed in operad form.
TRANSPOSED_KINDS = ("cooperad", RIGHT_COMODULE, LEFT_COMODULE)

DEFAULT_MAX_ARITY = 6
MAX_BUILTIN_ARITY = 8


# ---------------------------------------------------------------------------
# permutation plumbing


def outer_insertion_perm(sigma, a, n):
    """Permutation of {1..m+n-1} induced by sigma in Sigma_m on A u_a B."""
    m = len(sigma)
    size = m + n - 1

    def pos(slot, x):
        return x if x < slot else x + n - 1

    rho = [0] * size
    sa = sigma[a - 1]
    for x in range(1, m + 1):
        if x == a:
            continue
        rho[pos(a, x) - 1] = pos(sa, sigma[x - 1])
    for j in range(1, n + 1):
        rho[a - 1 + j - 1] = sa - 1 + j
    return tuple(rho)


def inner_insertion_perm(m, a, tau):
    """Permutation of {1..m+n-1} induced by tau in Sigma_n on the block."""
    n = len(tau)
    rho = list(range(1, m + n))
    for j in range(1, n + 1):
        rho[a - 1 + j - 1] = a - 1 + tau[j - 1]
    return tuple(rho)


# ---------------------------------------------------------------------------
# symmetric sequences


class SymSeq:
    """Arity-indexed graded free modules with symmetric-group actions."""

    kind = name = "symseq"

    def __init__(self, ring, components, actions, check=True, max_arity=None):
        self.ring = ring
        for n in itertools.chain(components, actions):
            require_int(n, "arity")
        self.components = dict(components)
        if max_arity is None:
            max_arity = max(self.components) if self.components else 0
        self.max_arity = max_arity
        self.actions = {n: tuple(mats) for n, mats in actions.items()
                        if mats}
        self._action_cache = {}
        self._fingerprint = None
        if check:
            self._validate()

    def component(self, n):
        c = self.components.get(n)
        if c is None:
            c = GradedFreeModule({})
        return c

    def rank(self, n):
        return self.component(n).total_rank()

    def degree_of(self, n, idx):
        return self.component(n).degree_of(idx)

    def generator_action(self, n, i):
        """Matrix of the adjacent transposition s_i on arity n."""
        mats = self.actions.get(n, ())
        if not 1 <= i <= n - 1 or i > len(mats):
            raise ValidationError(f"no action generator s_{i} at arity {n}")
        return mats[i - 1]

    def action(self, n, sigma):
        """Matrix of an arbitrary permutation, composed from generators."""
        sigma = tuple(sigma)
        key = (n, sigma)
        cached = self._action_cache.get(key)
        if cached is not None:
            return cached
        permutation(sigma, n, "action")
        mat = ExactMatrix.identity(self.rank(n), ring=self.ring)
        if self.rank(n):
            for i in adjacent_word(sigma):
                mat = mat * self.generator_action(n, i)
        self._action_cache[key] = mat
        return mat

    def _validate(self):
        for n, c in self.components.items():
            r = c.total_rank()
            mats = self.actions.get(n, ())
            if r == 0 and not mats:
                continue
            if n >= 2 and len(mats) != n - 1:
                raise ValidationError(
                    f"arity {n} needs {n - 1} transposition matrices")
            for i, m in enumerate(mats, start=1):
                if m.nrows != r or m.ncols != r:
                    raise ValidationError(f"action s_{i} at arity {n} misshapen")
                for (row, col), _v in m.entries():
                    if c.degree_of(row) != c.degree_of(col):
                        raise ValidationError(
                            f"action s_{i} at arity {n} does not preserve degree")
            ident = ExactMatrix.identity(r, ring=self.ring)
            for i, m in enumerate(mats, start=1):
                if m * m != ident:
                    raise ValidationError(f"Coxeter s_{i}^2 = 1 fails at arity {n}")
            for i in range(1, len(mats)):
                braid = mats[i - 1] * mats[i]
                if braid * braid * braid != ident:
                    raise ValidationError(
                        f"Coxeter braid relation fails at arity {n}, s_{i}")
            for i in range(1, len(mats) + 1):
                for j in range(i + 2, len(mats) + 1):
                    a, b = mats[i - 1], mats[j - 1]
                    if a * b != b * a:
                        raise ValidationError(
                            f"Coxeter commutation fails at arity {n} ({i},{j})")

    def dual_symseq(self):
        comps = {n: c.negated() for n, c in self.components.items()}
        acts = {n: tuple(_dual_matrix(m, [self.component(n)],
                                      [self.component(n)]) for m in mats)
                for n, mats in self.actions.items()}
        return SymSeq(self.ring, comps, acts, check=False)

    def __eq__(self, other):
        if not isinstance(other, SymSeq):
            return NotImplemented
        return (self.ring == other.ring and self.components == other.components
                and self.actions == other.actions)


class Structure:
    """A symmetric sequence with structure maps: an operad, a cooperad or
    a one-sided (co)module, told apart by kind.

    over is the structure acted on: the structure itself for an operad
    or a cooperad.  maps holds the stored matrices: partials keyed
    (m, a, n), left actions P(r) (x) M(B_1) (x) ... (x) M(B_r) -> M(n)
    keyed by canonical set partitions of {1..n}; missing module keys are
    zero maps.  They are read in operad form (see the module docstring),
    each once.
    """

    def __init__(self, kind, symseq, over, maps, name):
        self.kind = kind
        self.symseq = symseq
        self.over = self if over is None else over
        self.name = name
        self.ring = symseq.ring
        self.max_arity = symseq.max_arity if over is None else min(
            symseq.max_arity, over.max_arity)
        self.maps = {tuple(k): v for k, v in maps.items()}
        self._transposed = kind in TRANSPOSED_KINDS
        # Memos: the operad-form reads, fingerprint's chunks and the unit
        # (co)modules over this structure, by side.
        self._reads = {}
        self._fingerprint = None
        self.unit_modules = {}

    def component(self, n):
        return self.symseq.component(n)

    def rank(self, n):
        return self.symseq.rank(n)

    def action(self, n, sigma):
        """The stored action of sigma on arity n."""
        return self.symseq.action(n, sigma)

    def __eq__(self, other):
        if not isinstance(other, Structure):
            return NotImplemented
        return (self.kind == other.kind and self.symseq == other.symseq
                and self.maps == other.maps)

    def _read(self, key):
        """The stored map at key, checked against its shape, in operad
        form; absent module maps are zero, absent (co)compositions an
        error."""
        mat = self._reads.get(key)
        if mat is None:
            shape = _map_shape(self.kind, key, self.rank, self.over.rank)
            mat = self.maps.get(key)
            if mat is None and self.kind not in SIDES:
                raise ValidationError(f"no structure matrix for {key}")
            if mat is None:
                mat = ExactMatrix.zero(*shape, ring=self.ring)
            if (mat.nrows, mat.ncols) != shape:
                raise ValidationError(f"structure map {key} misshapen: "
                                      f"{(mat.nrows, mat.ncols)} != {shape}")
            mat = self._reads[key] = \
                mat.transpose() if self._transposed else mat
        return mat

    def partial(self, m, a, n):
        return self._read((m, a, n))

    def left_action(self, blocks):
        return self._read(canonical_partition(blocks))

    def form_action(self, n, sigma):
        """The action of sigma on arity n in operad form."""
        if not self._transposed:
            return self.action(n, sigma)
        key = ("action", n, tuple(sigma))
        if key not in self._reads:
            self._reads[key] = self.action(n, perm_inverse(sigma)).transpose()
        return self._reads[key]

    def full(self, inner_arities):
        """M(r) (x) P(n_1) (x) ... (x) P(n_r) -> M(sum n_i).

        Composes the partials left to right; the consumed factors are
        always adjacent, so no Koszul signs arise.
        """
        key = ("full", tuple(inner_arities))
        if key in self._reads:
            return self._reads[key]
        ring = self.ring
        ranks = [self.over.rank(n) for n in key[1]]
        mat = ExactMatrix.identity(self.rank(len(ranks)) * prod(ranks),
                                   ring=ring)
        if mat.nrows:
            arity, pos = len(ranks), 1
            for i, n in enumerate(key[1]):
                rest = ExactMatrix.identity(prod(ranks[i + 1:]), ring=ring)
                mat = self.partial(arity, pos, n).kron(rest) * mat
                arity, pos = arity + n - 1, pos + n
        else:
            mat = ExactMatrix.zero(self.rank(sum(key[1])), 0, ring=ring)
        self._reads[key] = mat
        return mat


class Operad(Structure):
    """Reduced operad: SymSeq plus partial composition matrices."""

    def __init__(self, symseq, comp, name="operad", check=True):
        super().__init__("operad", symseq, None, comp, name)
        _check_homogeneous(self, f"operad {name}")
        if check:
            _check_operad(self, f"operad {name}")


class Cooperad(Structure):
    """Reduced cooperad: SymSeq plus partial cocomposition matrices.

    Validated through the observation that the transposed data on the
    dual symmetric sequence is an operad.
    """

    def __init__(self, symseq, cocomp, name="cooperad", check=True):
        super().__init__("cooperad", symseq, None, cocomp, name)
        _check_homogeneous(self, f"cooperad {name}")
        if check:
            _check_operad(self, f"cooperad {name}")


# ---------------------------------------------------------------------------
# one-sided modules and comodules


class SidedModule(Structure):
    """One-sided module or comodule over a structure; kind is its side."""

    def __init__(self, side, symseq, over, maps, name="module", check=True):
        if side not in SIDES:
            raise ValidationError(f"unknown side {side!r}")
        super().__init__(side, symseq, over, maps, name)
        label = f"{side} {name}"
        over_kind = "cooperad" if side in TRANSPOSED_KINDS else "operad"
        if check and self.over.kind != over_kind:
            raise ValidationError(f"{label} must be over a {over_kind}")
        _check_homogeneous(self, label)
        if check and side in (LEFT_MODULE, LEFT_COMODULE):
            _validate_left_module(self, label)
        elif check:
            _check_partials(label, self, self.over)


# ---------------------------------------------------------------------------
# the axioms (see the module docstring)


def _require_equal(lhs, rhs, message):
    """Raise ValidationError(message) naming the first differing column."""
    if lhs != rhs:
        col = min(j for (_i, j), _v in (lhs - rhs).entries())
        raise ValidationError(f"{message} at column {col}")


def _factor_permutation(modules, perm, ring):
    """Signed reordering of tensor factors: factor k moves to slot perm[k].

    x_0 (x) ... (x) x_{k-1} goes to the reordered product times the Koszul
    sign of the move.  Only degree parities enter, so the dual sequences,
    whose degrees are negated, use it unchanged.
    """
    sizes = [m.total_rank() for m in modules]
    target = [0] * len(sizes)
    for k, slot in enumerate(perm):
        target[slot] = sizes[k]
    strides = [prod(target[slot + 1:]) for slot in perm]
    parities = [[m.degree_of(i) % 2 for i in range(size)]
                for m, size in zip(modules, sizes)]
    signs = {}
    entries = {}
    for col, multi in enumerate(itertools.product(*map(range, sizes))):
        row = sum(i * stride for i, stride in zip(multi, strides))
        key = tuple(p[i] for p, i in zip(parities, multi))
        if key not in signs:
            signs[key] = koszul_sign(key, perm)
        entries[(row, col)] = signs[key]
    return ExactMatrix(prod(sizes), prod(sizes), entries, ring=ring)


def _transposition(n, i):
    """The adjacent transposition s_i in Sigma_n."""
    sigma = list(perm_identity(n))
    sigma[i - 1], sigma[i] = sigma[i], sigma[i - 1]
    return tuple(sigma)


def _check_partials(label, mod, over):
    """Unit, associativity, slot commutation and equivariance.

    mod's partials M(m) (x) P(n) -> M(m+n-1) are checked against the
    operad over's partials, both in operad form; an operad or a cooperad
    is checked as a right module over itself.
    """
    m_comp, p_comp = mod.partial, over.partial
    m_action, p_action = mod.form_action, over.form_action
    rk_m, rk_p = mod.rank, over.rank
    max_arity = mod.max_arity

    def ident(r):
        return ExactMatrix.identity(r, ring=mod.ring)

    for m in range(1, max_arity + 1):
        for a in range(1, m + 1):
            if rk_m(m):
                _require_equal(m_comp(m, a, 1), ident(rk_m(m)),
                               f"{label}: unit axiom fails at "
                               f"(m,a,n)=({m},{a},1)")

    # (x o_a y) o_{a+b-1} z = x o_a (y o_b z), and for a < a2 the
    # insertions into slots a and a2 commute up to the Koszul swap.
    for m in range(1, max_arity + 1):
        for n in range(2, max_arity - m + 1):
            for p in range(2, max_arity - m - n + 3):
                if rk_m(m) * rk_p(n) * rk_p(p) == 0:
                    continue
                swap = ident(rk_m(m)).kron(_factor_permutation(
                    [over.component(n), over.component(p)], (1, 0), mod.ring))
                for a in range(1, m + 1):
                    first = m_comp(m, a, n).kron(ident(rk_p(p)))
                    for b in range(1, n + 1):
                        _require_equal(
                            m_comp(m + n - 1, a + b - 1, p) * first,
                            m_comp(m, a, n + p - 1)
                            * ident(rk_m(m)).kron(p_comp(n, b, p)),
                            f"{label}: associativity axiom fails at "
                            f"(m,n,p)=({m},{n},{p}), a={a}, b={b}")
                    for a2 in range(a + 1, m + 1):
                        _require_equal(
                            m_comp(m + n - 1, a2 + n - 1, p) * first,
                            m_comp(m + p - 1, a, n)
                            * m_comp(m, a2, p).kron(ident(rk_p(n))) * swap,
                            f"{label}: slot commutation axiom fails at "
                            f"(m,n,p)=({m},{n},{p}), a={a}, a'={a2}")

    for m in range(1, max_arity + 1):
        for n in range(2, max_arity - m + 2):
            if rk_m(m) * rk_p(n) == 0:
                continue
            for a in range(1, m + 1):
                base = m_comp(m, a, n)
                for i in range(1, m):
                    sigma = _transposition(m, i)
                    _require_equal(
                        m_action(m + n - 1, outer_insertion_perm(sigma, a, n))
                        * base,
                        m_comp(m, sigma[a - 1], n)
                        * m_action(m, sigma).kron(ident(rk_p(n))),
                        f"{label}: outer equivariance fails at "
                        f"(m,a,n)=({m},{a},{n}), s_{i}")
                for j in range(1, n):
                    tau = _transposition(n, j)
                    _require_equal(
                        m_action(m + n - 1, inner_insertion_perm(m, a, tau))
                        * base,
                        base * ident(rk_m(m)).kron(p_action(n, tau)),
                        f"{label}: inner equivariance fails at "
                        f"(m,a,n)=({m},{a},{n}), s_{j}")


def _check_operad(structure, label):
    """Reducedness, the left unit, and the axioms of a right module over
    itself, for an operad or a cooperad."""
    if structure.rank(1) != 1 or structure.component(1).degrees() != [0]:
        raise ValidationError(
            f"{label} is not reduced: arity 1 is not the unit")
    for n in range(1, structure.max_arity + 1):
        r = structure.rank(n)
        if r:
            _require_equal(structure.partial(1, 1, n),
                           ExactMatrix.identity(r, ring=structure.ring),
                           f"{label}: left unit axiom fails at "
                           f"(m,a,n)=(1,1,{n})")
    _check_partials(label, structure, structure)


def _validate_left_module(mod, label):
    """Unit, pentagon and equivariance for a left (co)module.

    For comodules the checks run in operad form, on transposed matrices
    over the dual sequences, where they are literally the module
    identities.
    """
    over = mod.over
    act = mod.left_action
    # Many instances repeat a reordering: build each one once per call.
    reorder = cache(lambda p_arities, m_arities, perm: _factor_permutation(
        [over.component(k) for k in p_arities]
        + [mod.component(k) for k in m_arities], perm, mod.ring))
    arities = [n for n in range(1, mod.max_arity + 1) if mod.rank(n)]

    for n in arities:
        _require_equal(act((perm_identity(n),)),
                       ExactMatrix.identity(mod.rank(n), ring=mod.ring),
                       f"{label}: unit action is not the identity "
                       f"at arity {n}")
    for n in arities:
        for lam in set_partitions(range(1, n + 1)):
            if over.rank(len(lam)):
                for grouping in set_partitions(range(len(lam))):
                    _check_left_pentagon(mod, lam, grouping, label, reorder)
    for n in arities:
        for lam in set_partitions(range(1, n + 1)):
            for i in range(1, n):
                _check_left_equivariance(mod, lam, _transposition(n, i),
                                         label, reorder)


def _check_left_pentagon(mod, lam, grouping, label, reorder):
    """act_lam ((rho gamma) (x) id) = act_mu (id (x) act_1 ... act_s) (id (x) S).

    lam partitions {1..n} into blocks B_1..B_r (least-element order);
    grouping partitions the block indices {0..r-1} into s groups, taken
    in the order of their least labels, whose unions are the blocks of
    the coarsening mu.  The domain is P(s) (x) P(k_1) ... P(k_s) (x)
    M(B_1) ... M(B_r).  gamma composes in group order and rho puts its
    inputs into lam's order; S shuffles each P(k_i) in front of its
    group's blocks, on which act_i acts.
    """
    over, ring = mod.over, mod.ring
    act = mod.left_action
    r = len(lam)
    groups = sorted(grouping, key=lambda g: lam[g[0]][0])
    s = len(groups)
    inner = [len(g) for g in groups]
    rho = over.form_action(r, _perm_from_zero(
        block_sort_perm([lam[bi][0] for g in groups for bi in g])))
    lhs = act(lam) * (rho * over.full(inner)).kron(
        ExactMatrix.identity(prod(mod.rank(len(b)) for b in lam), ring=ring))

    slots = [f for i, g in enumerate(groups) for f in (i, *(s + bi for bi in g))]
    shuffle = reorder(tuple(inner), tuple(len(b) for b in lam),
                      tuple(slots.index(f) for f in range(s + r)))
    unions = [sorted(x for bi in g for x in lam[bi]) for g in groups]
    acts = [act(tuple(tuple(u.index(x) + 1 for x in lam[bi]) for bi in g))
            for g, u in zip(groups, unions)]
    outer = ExactMatrix.identity(over.rank(s), ring=ring)
    rhs = (act(tuple(map(tuple, unions))) * reduce(ExactMatrix.kron, acts, outer)
           * outer.kron(shuffle))
    _require_equal(lhs, rhs, f"{label}: pentagon fails for partition {lam} "
                             f"grouped {groups}")


def _perm_from_zero(perm):
    return tuple(p + 1 for p in perm)


def _check_left_equivariance(mod, lam, sigma, label, reorder):
    """sigma act_lam = act_{sigma lam} (rho (x) R) (id (x) tau_1 ... tau_r).

    sigma maps each block B_i of lam onto sigma(B_i), relabelling it by
    tau_i; R moves the factors M(B_i) into the least-element order of
    sigma(lam), and rho permutes the inputs of P(r) alike.
    """
    ring = mod.ring
    act, m_action = mod.left_action, mod.form_action
    p_action = mod.over.form_action
    images = [[sigma[x - 1] for x in b] for b in lam]
    order = block_sort_perm([min(im) for im in images])
    taus = [m_action(len(im), _perm_from_zero(block_sort_perm(im)))
            for im in images]
    moves = p_action(len(lam), _perm_from_zero(order)).kron(
        reorder((), tuple(len(b) for b in lam), order))
    outer = ExactMatrix.identity(mod.over.rank(len(lam)), ring=ring)
    _require_equal(
        m_action(len(sigma), sigma) * act(lam),
        act(canonical_partition(images)) * moves
        * reduce(ExactMatrix.kron, taus, outer),
        f"{label}: equivariance fails for partition {lam}, "
        f"transposition at {sigma}")


# ---------------------------------------------------------------------------
# composition product of symmetric sequences


def compose_product(m_seq, n_seq, arity):
    """The arity component of the composition product as a graded module.

    Basis labels are (partition, outer label, inner labels) triples; the
    direct sum runs over unordered partitions of {1..arity}.
    """
    require_int(arity, "arity")
    top = min(m_seq.max_arity, n_seq.max_arity)
    if not 1 <= arity <= top:
        raise BoundsError(f"arity {arity} outside 1..{top}, the factors' "
                          f"max_arity")
    spaces = {}
    for blocks in sorted(set_partitions(range(1, arity + 1)),
                         key=lambda b: (len(b), b)):
        r = len(blocks)
        outer = m_seq.component(r)
        inners = [n_seq.component(len(b)) for b in blocks]
        for od, olab in outer.basis():
            for combo in itertools.product(*(inn.basis() for inn in inners)):
                deg = od + sum(d for d, _ in combo)
                lab = (blocks, olab, tuple(l for _, l in combo))
                spaces.setdefault(deg, []).append(lab)
    return GradedFreeModule({d: tuple(v) for d, v in spaces.items()})


# ---------------------------------------------------------------------------
# duality


def dual(structure):
    """Linear dual: degrees negated, matrices transposed, variance flipped.

    Negating the degrees reverses the order of the degree blocks of every
    component (GradedFreeModule.negated), so each transposed matrix is
    reindexed factor by factor into the new orders.
    """
    kind = getattr(structure, "kind", None)
    if kind == "symseq":
        return structure.dual_symseq()
    if kind not in ("operad", "cooperad", *SIDES):
        raise ValidationError(f"cannot dualize {type(structure).__name__}")
    maps = {key: _dual_matrix(mat, *_map_factors(
                kind, key, structure.component, structure.over.component))
            for key, mat in structure.maps.items()}
    symseq = structure.symseq.dual_symseq()
    name = f"dual({structure.name})"
    if kind == "operad":
        return Cooperad(symseq, maps, name=name, check=False)
    if kind == "cooperad":
        return Operad(symseq, maps, name=name, check=False)
    flip = {LEFT_MODULE: LEFT_COMODULE, LEFT_COMODULE: LEFT_MODULE,
            RIGHT_MODULE: RIGHT_COMODULE, RIGHT_COMODULE: RIGHT_MODULE}
    return SidedModule(flip[kind], symseq, dual(structure.over), maps,
                       name=name, check=False)


def _negation_index(module):
    """The index in module.negated() of each basis index of module: the
    degree blocks come in reverse order, each keeping its own order."""
    degrees = module.degrees()
    start = dict(zip(reversed(degrees), itertools.accumulate(
        (module.rank(d) for d in reversed(degrees)), initial=0)))
    return [i for d in degrees
            for i in range(start[d], start[d] + module.rank(d))]


def _dual_matrix(mat, rows, cols):
    """The transpose of mat, whose rows and columns are the tensor
    products of the modules rows and cols (row-major), reindexed into the
    negated modules' orders."""
    if all(len(m.degrees()) < 2 for m in rows + cols):
        return mat.transpose()
    index = []
    for factors in (rows, cols):
        flat = [0]
        for m in factors:
            step = _negation_index(m)
            flat = [x * len(step) + y for x in flat for y in step]
        index.append(flat)
    row_index, col_index = index
    return ExactMatrix(mat.ncols, mat.nrows, {
        (col_index[j], row_index[i]): v for (i, j), v in mat.entries()},
        ring=mat.ring)


def _tensor_degree(modules, flat):
    """Total degree of the basis element at a row-major flat index of the
    tensor product of modules."""
    degree = 0
    for m in reversed(modules):
        flat, i = divmod(flat, m.total_rank())
        degree += m.degree_of(i)
    return degree


def _check_homogeneous(structure, label):
    """Every stored structure map has its factors' shape and is
    homogeneous of degree 0: each entry joins basis elements of equal
    total degree.  When every factor has one degree this is one
    comparison per map."""
    kind, over = structure.kind, structure.over
    # arity -> the degree of the component, for components of one degree.
    own, other = ({n: c.degrees()[0] for n, c in seq.symseq.components.items()
                   if len(c.degrees()) == 1} for seq in (structure, over))
    for key, mat in structure.maps.items():
        shape = _map_shape(kind, key, structure.rank, over.rank)
        if (mat.nrows, mat.ncols) != shape:
            raise ValidationError(f"{label}: structure map {key} misshapen: "
                                  f"{(mat.nrows, mat.ncols)} != {shape}")
        if mat.is_zero():
            continue
        rows, cols = _map_factors(kind, key, own.get, other.get)
        if None not in rows and None not in cols and sum(rows) == sum(cols):
            continue
        rows, cols = _map_factors(kind, key, structure.component,
                                  over.component)
        for (i, j), _v in mat.entries():
            if _tensor_degree(rows, i) != _tensor_degree(cols, j):
                raise ValidationError(
                    f"{label}: structure map {key} is not of degree 0 at "
                    f"entry ({i},{j})")


# ---------------------------------------------------------------------------
# builtins


def _trivial_actions(ranks, ring):
    return {n: tuple(ExactMatrix.identity(r, ring=ring) for _ in range(n - 1))
            for n, r in ranks.items() if n >= 2}


def builtin(name, max_arity=DEFAULT_MAX_ARITY, ring=INT):
    """Built-in structures: the operads com and ass, the unit sequence.

    max_arity must be an int (ValidationError) in 1..MAX_BUILTIN_ARITY
    (BoundsError)."""
    require_int(max_arity, "max_arity")
    if not 1 <= max_arity <= MAX_BUILTIN_ARITY:
        raise BoundsError(
            f"max_arity {max_arity} outside 1..{MAX_BUILTIN_ARITY}")
    if name == "com":
        comps = {n: GradedFreeModule({0: ("e",)}) for n in range(1, max_arity + 1)}
        ss = SymSeq(ring, comps, _trivial_actions({n: 1 for n in comps}, ring))
        comp = {}
        for m in range(1, max_arity + 1):
            for n in range(1, max_arity + 1):
                if m + n - 1 > max_arity:
                    continue
                for a in range(1, m + 1):
                    comp[(m, a, n)] = ExactMatrix(1, 1, {(0, 0): 1}, ring=ring)
        return Operad(ss, comp, name="com")
    if name == "ass":
        return _builtin_ass(max_arity, ring)
    if name == "unit":
        return unit_symseq(ring)
    raise ValidationError(f"unknown builtin {name!r}")


def _ass_words(n):
    return tuple("".join(str(x) for x in w)
                 for w in sorted(itertools.permutations(range(1, n + 1))))


def _builtin_ass(max_arity, ring):
    comps = {}
    actions = {}
    index = {}
    for n in range(1, max_arity + 1):
        words = _ass_words(n)
        comps[n] = GradedFreeModule({0: words})
        index[n] = {w: i for i, w in enumerate(words)}
        mats = []
        for i in range(1, n):
            entries = {}
            for j, w in enumerate(words):
                relabelled = "".join(
                    str(i + 1) if ch == str(i) else str(i) if ch == str(i + 1)
                    else ch for ch in w)
                entries[(index[n][relabelled], j)] = 1
            mats.append(ExactMatrix(len(words), len(words), entries, ring=ring))
        actions[n] = tuple(mats)
    ss = SymSeq(ring, comps, actions)

    comp = {}
    for m in range(1, max_arity + 1):
        for n in range(1, max_arity + 1):
            if m + n - 1 > max_arity:
                continue
            for a in range(1, m + 1):
                entries = {}
                words_m = _ass_words(m)
                words_n = _ass_words(n)
                for im, wm in enumerate(words_m):
                    for jn, wn in enumerate(words_n):
                        word = []
                        for ch in wm:
                            x = int(ch)
                            if x == a:
                                word.extend(int(c) + a - 1 for c in wn)
                            elif x < a:
                                word.append(x)
                            else:
                                word.append(x + n - 1)
                        out = "".join(str(x) for x in word)
                        entries[(index[m + n - 1][out],
                                 im * len(words_n) + jn)] = 1
                comp[(m, a, n)] = ExactMatrix(
                    len(_ass_words(m + n - 1)),
                    len(words_m) * len(words_n), entries, ring=ring)
    return Operad(ss, comp, name="ass")


def unit_symseq(ring=INT):
    """The unit symmetric sequence: rank one in arity 1, degree 0."""
    return SymSeq(ring, {1: GradedFreeModule({0: ("e",)})}, {},
                  max_arity=MAX_BUILTIN_ARITY)


def unit_module(over, side):
    """The unit sequence as a one-sided (co)module over a reduced structure."""
    ring = over.ring
    comps = {n: GradedFreeModule({0: ("e",)}) if n == 1 else GradedFreeModule({})
             for n in range(1, over.max_arity + 1)}
    ss = SymSeq(ring, comps, {})
    maps = {}
    one = ExactMatrix(1, 1, {(0, 0): 1}, ring=ring)
    if side in (RIGHT_MODULE, RIGHT_COMODULE):
        maps[(1, 1, 1)] = one
    else:
        maps[((1,),)] = one
    return SidedModule(side, ss, over, maps, name="unit")


def _sphere(side, over, r, name):
    """Rank one in degree r at every arity of over, over Z; the structure
    map of the one-block partition is the identity and all others vanish."""
    comps = {n: GradedFreeModule({r: ("x",)})
             for n in range(1, over.max_arity + 1)}
    ss = SymSeq(INT, comps, _trivial_actions({n: 1 for n in comps}, INT))
    maps = {(perm_identity(n),): ExactMatrix(1, 1, {(0, 0): 1}) for n in comps}
    return SidedModule(side, ss, over, maps, name=name)


def builtin_sphere_comodule(r, max_arity=DEFAULT_MAX_ARITY):
    """Left comodule of a sphere over dual(com), over Z: rank one in
    degree r at every arity.

    The reduced diagonal vanishes on homology, so all cocompositions are
    zero except the unary component.
    """
    return _sphere(LEFT_COMODULE, dual(builtin("com", max_arity)), r,
                   f"sphere{r}")


def builtin_sphere_module(r, max_arity=DEFAULT_MAX_ARITY):
    """Left module counterpart of the sphere over com, over Z: only the
    unary action acts."""
    return _sphere(LEFT_MODULE, builtin("com", max_arity), r,
                   f"sphere{r}-module")


def constant_comodule(module, coproduct, max_arity=DEFAULT_MAX_ARITY,
                      name="coalgebra"):
    """Left comodule over the cocommutative cooperad dual(com), over Z,
    built from a coalgebra.

    module: GradedFreeModule X; coproduct: matrix X -> X (x) X (reduced,
    degree 0).  Coassociativity and graded cocommutativity are checked;
    the partition components are the iterated reduced coproducts.
    """
    over = dual(builtin("com", max_arity))
    rank = module.total_rank()
    if coproduct.nrows != rank * rank or coproduct.ncols != rank:
        raise ValidationError("coproduct must map X to X (x) X")
    for (row, j), _v in coproduct.entries():
        i1, i2 = divmod(row, rank)
        if module.degree_of(i1) + module.degree_of(i2) != module.degree_of(j):
            raise ValidationError("coproduct must preserve degree")
    one = ExactMatrix.identity(rank)
    _require_equal(coproduct.kron(one) * coproduct,
                   one.kron(coproduct) * coproduct,
                   "coproduct is not coassociative")
    _require_equal(_factor_permutation([module, module], (1, 0), INT)
                   * coproduct, coproduct,
                   "coproduct is not graded cocommutative")

    comps = {n: module for n in range(1, max_arity + 1)}
    ss = SymSeq(INT, comps, _trivial_actions({n: rank for n in comps}, INT))
    # Iterated coproducts Delta^(r) = (1 (x) Delta^(r-1)) Delta: X -> X^(x r).
    iterated = {1: one}
    for r in range(2, max_arity + 1):
        iterated[r] = one.kron(iterated[r - 1]) * coproduct
    # Q(r) is rank one in degree zero, so its index 0 is implicit.
    maps = {blocks: iterated[len(blocks)] for n in range(1, max_arity + 1)
            for blocks in set_partitions(range(1, n + 1))}
    return SidedModule(LEFT_COMODULE, ss, over, maps, name=name)


# ---------------------------------------------------------------------------
# on-disk format


FORMAT_HEADER = "OPBAR-STRUCTURE 1"
# The file tag of each kind's maps; every (co)module's is "smap".
_MAP_TAGS = {"operad": "comp", "cooperad": "cocomp"}


def _q(label):
    return urllib.parse.quote(str(label), safe="")


def dumps(structure):
    """Serialize a structure (plus any base operad) to the text format."""
    chunks = [FORMAT_HEADER]
    if structure.kind in SIDES:
        chunks.append(_dump_one(structure.over))
    chunks.append(_dump_one(structure))
    return "\n".join(chunks) + "\n"


def _dump_one(structure):
    ss = _symseq_of(structure)
    lines = [f"kind {structure.kind}",
             f"name {structure.name}",
             f"ring {ss.ring}",
             f"max_arity {ss.max_arity}"]
    if structure.kind in SIDES:
        lines.append(f"over {structure.over.name}")
    for _n, head, body in _content_blocks(structure):
        lines += [f"begin {head}", *body, "end"]
    lines.append("endstructure")
    return "\n".join(lines)


def _symseq_of(structure):
    return structure if isinstance(structure, SymSeq) else structure.symseq


def _content_blocks(structure, read=False):
    """(arity, head, lines) of each component, action and structure map in
    the text format, in file order, a map at its target's arity.  With
    read, only what a complex reads: ranks, not labels, and no empty
    component or zero (co)module map, which reads as an absent one."""
    ss = _symseq_of(structure)
    for n, c in sorted(ss.components.items()):
        if c.total_rank() or not read:
            yield n, f"component {n}", [f"degree {d} " + (
                str(c.rank(d)) if read else " ".join(map(_q, c.labels(d))))
                for d in c.degrees()]
    tag = _MAP_TAGS.get(structure.kind, "smap")
    stored = {} if structure is ss else structure.maps
    for n, head, m in itertools.chain(
            ((n, f"action {n} {i}", m) for n in sorted(ss.actions)
             for i, m in enumerate(ss.actions[n], start=1)),
            ((sum(map(len, key)) if isinstance(key[0], tuple)
              else key[0] + key[2] - 1, f"map {tag} {_encode_key(key)}", m)
             for key, m in sorted(stored.items()))):
        if not (read and m.is_zero() and structure.kind in SIDES):
            yield n, head, [f"{r} {c} {v}" for (r, c), v in
                            sorted(m.entries())]


def fingerprint(structure, arity):
    """What a complex reads of a structure up to an arity, as text: the
    kind and ring, then per arity k a chunk of the read _content_blocks
    at k (below 1 at 1) that says if k is past max_arity, or None past
    every stored arity.  Structures that read alike up to arity and both
    reach it or both stop below it have equal fingerprints, whatever
    their names, labels and larger arities; others never do.  The chunks
    are built once per object."""
    chunks = structure._fingerprint
    if chunks is None:
        by_arity = {}
        for n, head, body in _content_blocks(structure, read=True):
            by_arity.setdefault(max(n, 1), []).extend([head, *body])
        bound = structure.max_arity
        chunks = structure._fingerprint = (
            f"{structure.kind}\n{structure.ring}",
            *("\n".join([f"arity {k}" + (" past max_arity" if k > bound
                                          else ""), *by_arity.get(k, ())])
              for k in range(1, max([bound, *by_arity]) + 1)))
    return chunks[:arity + 1] + (None,) * (arity + 1 - len(chunks))


def _encode_key(key):
    if key and isinstance(key[0], tuple):
        return "|".join(".".join(str(x) for x in b) for b in key)
    return " ".join(str(x) for x in key)


def save(structure, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(structure))


def loads(text):
    """Parse the text format; returns the structures in file order."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != FORMAT_HEADER:
        raise ParseError("line 1: missing format header")
    structures = []
    by_name = {}
    i = 1
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        structure, i = _parse_structure(lines, i, by_name)
        structures.append(structure)
        by_name[structure.name] = structure
    if not structures:
        raise ParseError("no structures in file")
    return structures


def _fail(lineno, msg):
    raise ParseError(f"line {lineno + 1}: {msg}")


def _ints(tokens, count, lineno, what):
    """count integers from tokens, or a ParseError naming the line."""
    try:
        if len(tokens) == count:
            return [int(t) for t in tokens]
    except ValueError:
        pass
    _fail(lineno, f"{what} needs {count} integer(s), got {' '.join(tokens)!r}")


def _parse_structure(lines, i, by_name):
    header = {}
    components = {}
    actions = {}
    maps = []           # (line, tag, key tokens, entries)

    while i < len(lines):
        line = lines[i].strip()
        if not line:
            i += 1
            continue
        if line == "endstructure":
            i += 1
            break
        parts = line.split()
        if parts[0] in ("kind", "name", "ring", "over"):
            header[parts[0]] = parts[1] if len(parts) > 1 else ""
            if parts[0] == "ring" and header["ring"] not in (INT, RAT):
                _fail(i, f"unknown ring {header['ring']!r}")
            i += 1
        elif parts[0] == "max_arity":
            header["max_arity"], = _ints(parts[1:], 1, i, "max_arity")
            _check_arities(i, "max_arity", header["max_arity"])
            i += 1
        elif parts[0] == "begin" and len(parts) > 2:
            section, start = parts[1], i
            if section == "component":
                n, = _ints(parts[2:], 1, i, "a component header")
                _check_arities(i, "component arity", n)
                spaces = {}
                i += 1
                while i < len(lines) and lines[i].strip() != "end":
                    toks = lines[i].split()
                    if not toks or toks[0] != "degree":
                        _fail(i, "expected 'degree' line")
                    d, = _ints(toks[1:2], 1, i, "a degree line")
                    spaces[d] = tuple(urllib.parse.unquote(t) for t in toks[2:])
                    i += 1
                if i == len(lines):
                    _fail(i - 1, "unterminated component section")
                components[n] = GradedFreeModule(spaces)
                i += 1
            elif section == "action":
                n, gen = _ints(parts[2:], 2, i, "an action header")
                _check_arities(i, "action arity", n)
                if not 1 <= gen < n:
                    _fail(i, f"no transposition s_{gen} at arity {n}")
                entries, i = _parse_entries(lines, i + 1, header.get("ring", INT))
                actions.setdefault(n, {})[gen] = (start, entries)
            elif section == "map":
                entries, i = _parse_entries(lines, i + 1, header.get("ring", INT))
                maps.append((start, parts[2], parts[3:], entries))
            else:
                _fail(i, f"unknown section {section!r}")
        else:
            _fail(i, f"unrecognized line {line!r}")
    else:
        _fail(len(lines) - 1, "structure ends without 'endstructure'")
    kind = header.get("kind")
    ring = header.get("ring", INT)
    if kind is None:
        raise ParseError("structure without kind")

    def act_tuple(n):
        got = actions[n]
        for g in range(1, n):
            if g not in got:
                _fail(min(start for start, _e in got.values()),
                      f"arity {n} has no action s_{g}")
        rank = components[n].total_rank() if n in components else 0
        return tuple(_matrix((rank, rank), *got[g], ring) for g in range(1, n))

    # Only arities with action sections get actions, as dumps writes them.
    ss = SymSeq(ring, components, {n: act_tuple(n) for n in actions},
                max_arity=header.get("max_arity"))
    name = header.get("name", kind)
    if kind == "symseq":
        ss.name = name
        return ss, i
    over = by_name.get(header.get("over")) if kind in SIDES else None
    if kind in SIDES and over is None:
        raise ParseError(
            f"module is over unknown structure {header.get('over')!r}")
    if kind not in SIDES and kind not in ("operad", "cooperad"):
        raise ParseError(f"unknown kind {kind!r}")
    tag = _MAP_TAGS.get(kind, "smap")
    data = {}
    for start, got, key_tokens, entries in maps:
        if got != tag:
            _fail(start, f"unexpected map tag {got!r} in {kind}")
        if kind in (LEFT_MODULE, LEFT_COMODULE):
            key = _decode_blocks(key_tokens, start)
            _check_arities(start, "map arity", len(key), sum(map(len, key)))
        else:
            key = tuple(_ints(key_tokens, 3, start, "a partial key"))
            m, _a, n = key
            _check_arities(start, "map arity", m, n, m + n - 1)
        shape = _map_shape(kind, key, ss.rank, (over or ss).rank)
        data[key] = _matrix(shape, start, entries, ring)
    if kind == "operad":
        return Operad(ss, data, name=name), i
    if kind == "cooperad":
        return Cooperad(ss, data, name=name), i
    return SidedModule(kind, ss, over, data, name=name), i


def _check_arities(lineno, what, *arities):
    """A ParseError naming the line unless every arity is in
    1..MAX_BUILTIN_ARITY, the largest a structure is built to."""
    for n in arities:
        if not 1 <= n <= MAX_BUILTIN_ARITY:
            _fail(lineno, f"{what} {n} outside 1..{MAX_BUILTIN_ARITY}")


def _decode_blocks(tokens, lineno):
    """The blocks of a left map key '1.2|3'."""
    try:
        if len(tokens) == 1:
            return tuple(tuple(int(x) for x in b.split("."))
                         for b in tokens[0].split("|"))
    except ValueError:
        pass
    _fail(lineno, f"a left map key needs blocks like 1.2|3, got "
                  f"{' '.join(tokens)!r}")


def _matrix(shape, lineno, entries, ring):
    """The section's matrix, or a ParseError naming its first line."""
    try:
        return ExactMatrix(*shape, entries, ring=ring)
    except ValidationError as exc:
        _fail(lineno, str(exc))


def _map_factors(kind, key, read, over_read):
    """(row factors, column factors) of the stored structure map at key,
    a partial (m, a, n) or the blocks of a left action: read (over_read
    for the structure it is over) applied to the arities of the modules
    whose row-major tensor products index its rows and columns,
    transposed for the dual kinds."""
    if kind in (LEFT_MODULE, LEFT_COMODULE):
        factors = ([read(sum(len(b) for b in key))],
                   [over_read(len(key))] + [read(len(b)) for b in key])
    else:
        m, _a, n = key
        factors = [read(m + n - 1)], [read(m), over_read(n)]
    return factors[::-1] if kind in TRANSPOSED_KINDS else factors


def _map_shape(kind, key, rank, over_rank):
    """Stored shape of the structure map at key (see _map_factors)."""
    return tuple(map(prod, _map_factors(kind, key, rank, over_rank)))


def _parse_entries(lines, i, ring):
    entries = {}
    while i < len(lines) and lines[i].strip() != "end":
        toks = lines[i].split()
        if len(toks) != 3:
            _fail(i, "expected 'row col value'")
        r, c = _ints(toks[:2], 2, i, "an entry's row and column")
        try:
            entries[(r, c)] = Fraction(toks[2]) if ring == RAT else int(toks[2])
        except (ValueError, ZeroDivisionError):
            _fail(i, f"bad {ring} entry {toks[2]!r}")
        i += 1
    if i >= len(lines):
        _fail(i - 1, "unterminated section")
    return entries, i + 1


def load_structures(path):
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())


def load_operad(path):
    for structure in load_structures(path):
        if structure.kind == "operad":
            return structure
    raise ParseError(f"no operad in {path}")

