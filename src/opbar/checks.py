"""Chain-level verification of the induced structure-map identities.

Each check raises ValidationError on failure and returns the number of
instances verified.  Splittings are parametrized by ordered disjoint
triples (X, Y, Z) covering {1..n}: the nested identity splits Z off
first and then Y together with the slot left behind by Z; the disjoint
identity splits Y and Z from separate slots of the X side and compares
across the Koszul swap of the last two tensor factors.
"""

from __future__ import annotations

import itertools

from .barcobar import (
    BAR,
    _TensorIndex,
    _one_sided,
    bar_cocomposition,
    cobar_composition,
    module_structure_maps,
    reduced_bar,
    reduced_cobar,
)
from .errors import ValidationError
from .exactla import tensor_list
from .opalg import canonical_partition


def _triples(n, allow_empty_x=True):
    labels = tuple(range(1, n + 1))
    for z_size in range(1, n):
        for z_side in itertools.combinations(labels, z_size):
            rest = tuple(x for x in labels if x not in z_side)
            for y_size in range(1, len(rest) + 1):
                for y_side in itertools.combinations(rest, y_size):
                    x_side = tuple(x for x in rest if x not in y_side)
                    if not allow_empty_x and not x_side:
                        continue
                    yield x_side, y_side, z_side


def _label_total_degree(kind, label):
    s = label.tree_degree if kind == BAR else -label.tree_degree
    return s + label.internal_degree


def _split(structure, kind, arity, b_side, cache):
    b_side = tuple(sorted(b_side))
    a_rest = tuple(x for x in range(1, arity + 1) if x not in b_side)
    a = min(b_side)
    if kind == BAR:
        return bar_cocomposition(structure, arity, a, a_rest + (a,),
                                 b_side, cache)
    return cobar_composition(structure, arity, a, a_rest + (a,),
                             b_side, cache)


def _positions(universe, subset):
    ordered = sorted(universe)
    return tuple(sorted(ordered.index(x) + 1 for x in subset))


def check_coassociativity(p, arity, cache=None):
    """Nested double cocompositions agree on B(P)(arity), all splittings."""
    cache = {} if cache is None else cache
    src = reduced_bar(p, arity, cache)
    count = 0
    for x_side, y_side, z_side in _triples(arity):
        count += 1
        n = arity
        # Side 1: split Z off, then split Y plus the Z slot.
        phi1 = _split(p, BAR, n, z_side, cache)
        a_labels = sorted(set(range(1, n + 1)) - set(z_side) | {min(z_side)})
        y_block1 = _positions(a_labels, set(y_side) | {min(z_side)})
        m1 = len(a_labels)
        phi2 = _split(p, BAR, m1, y_block1, cache)
        # Side 2: split Y u Z off as one block, then split Z inside it.
        yz = tuple(sorted(set(y_side) | set(z_side)))
        phi3 = _split(p, BAR, n, yz, cache)
        z_block2 = _positions(yz, z_side)
        phi4 = _split(p, BAR, len(yz), z_block2, cache)

        bar_x = reduced_bar(p, len(x_side) + 1, cache)
        bar_y = reduced_bar(p, len(y_side) + 1, cache)
        bar_z = reduced_bar(p, len(z_side), cache)
        triple = tensor_list([bar_x.complex, bar_y.complex, bar_z.complex])
        tidx = _TensorIndex(triple)

        def side1(d, j):
            out = {}
            for i1, c1 in phi1.component(d).column(j).items():
                lab_left, lab_z = phi1.target.labels(d)[i1]
                d_left = d - _label_total_degree(BAR, lab_z)
                jj = phi2.source.labels(d_left).index(lab_left)
                for i2, c2 in phi2.component(d_left).column(jj).items():
                    lab_x, lab_y = phi2.target.labels(d_left)[i2]
                    _dd, flat = tidx((lab_x, lab_y, lab_z))
                    out[flat] = out.get(flat, 0) + c1 * c2
            return {k: v for k, v in out.items() if v}

        def side2(d, j):
            out = {}
            for i1, c1 in phi3.component(d).column(j).items():
                lab_x, lab_yz = phi3.target.labels(d)[i1]
                d_yz = d - _label_total_degree(BAR, lab_x)
                jj = phi4.source.labels(d_yz).index(lab_yz)
                for i2, c2 in phi4.component(d_yz).column(jj).items():
                    lab_y, lab_z = phi4.target.labels(d_yz)[i2]
                    _dd, flat = tidx((lab_x, lab_y, lab_z))
                    out[flat] = out.get(flat, 0) + c1 * c2
            return {k: v for k, v in out.items() if v}

        for d in src.complex.degrees():
            for j in range(src.complex.rank(d)):
                if side1(d, j) != side2(d, j):
                    raise ValidationError(
                        f"coassociativity fails at arity {arity}, "
                        f"split X={x_side} Y={y_side} Z={z_side}, "
                        f"degree {d}, column {j}")
    return count


def check_disjoint_cocompositions(p, arity, cache=None):
    """Disjoint double cocompositions agree up to the Koszul swap."""
    cache = {} if cache is None else cache
    src = reduced_bar(p, arity, cache)
    count = 0
    for x_side, y_side, z_side in _triples(arity, allow_empty_x=False):
        if min(y_side) > min(z_side):
            continue
        count += 1
        n = arity
        # Side 1: split Z, then Y (disjoint from the Z slot).
        phi1 = _split(p, BAR, n, z_side, cache)
        a_labels = sorted(set(range(1, n + 1)) - set(z_side) | {min(z_side)})
        y_block1 = _positions(a_labels, y_side)
        phi2 = _split(p, BAR, len(a_labels), y_block1, cache)
        # Side 2: split Y, then Z.
        phi3 = _split(p, BAR, n, y_side, cache)
        b_labels = sorted(set(range(1, n + 1)) - set(y_side) | {min(y_side)})
        z_block2 = _positions(b_labels, z_side)
        phi4 = _split(p, BAR, len(b_labels), z_block2, cache)

        bar_x = reduced_bar(p, len(x_side) + 2, cache)
        bar_y = reduced_bar(p, len(y_side), cache)
        bar_z = reduced_bar(p, len(z_side), cache)
        triple = tensor_list([bar_x.complex, bar_y.complex, bar_z.complex])
        tidx = _TensorIndex(triple)

        def via(phi_a, phi_b, flip):
            def evaluate(d, j):
                out = {}
                for i1, c1 in phi_a.component(d).column(j).items():
                    lab_left, lab_last = phi_a.target.labels(d)[i1]
                    d_left = d - _label_total_degree(BAR, lab_last)
                    jj = phi_b.source.labels(d_left).index(lab_left)
                    for i2, c2 in phi_b.component(d_left).column(jj).items():
                        lab_x, lab_mid = phi_b.target.labels(d_left)[i2]
                        if flip:
                            # (x, z-part, y-part): swap the last factors.
                            dy = _label_total_degree(BAR, lab_last)
                            dz = _label_total_degree(BAR, lab_mid)
                            sign = -1 if (dy % 2 and dz % 2) else 1
                            labs = (lab_x, lab_last, lab_mid)
                        else:
                            sign = 1
                            labs = (lab_x, lab_mid, lab_last)
                        _dd, flat = tidx(labs)
                        out[flat] = out.get(flat, 0) + sign * c1 * c2
                return {k: v for k, v in out.items() if v}
            return evaluate

        side1 = via(phi1, phi2, flip=False)
        side2 = via(phi3, phi4, flip=True)
        for d in src.complex.degrees():
            for j in range(src.complex.rank(d)):
                if side1(d, j) != side2(d, j):
                    raise ValidationError(
                        f"disjoint cocompositions disagree at arity {arity}, "
                        f"X={x_side} Y={y_side} Z={z_side}, degree {d}, "
                        f"column {j}")
    return count


def check_cobar_associativity(q, arity, cache=None):
    """Nested double compositions agree on the cobar side, all splittings."""
    cache = {} if cache is None else cache
    tgt = reduced_cobar(q, arity, cache)
    count = 0
    for x_side, y_side, z_side in _triples(arity):
        count += 1
        n = arity
        psi1 = _split(q, "cobar", n, z_side, cache)
        a_labels = sorted(set(range(1, n + 1)) - set(z_side) | {min(z_side)})
        y_block1 = _positions(a_labels, set(y_side) | {min(z_side)})
        m1 = len(a_labels)
        psi2 = _split(q, "cobar", m1, y_block1, cache)
        yz = tuple(sorted(set(y_side) | set(z_side)))
        psi3 = _split(q, "cobar", n, yz, cache)
        z_block2 = _positions(yz, z_side)
        psi4 = _split(q, "cobar", len(yz), z_block2, cache)

        om_x = reduced_cobar(q, len(x_side) + 1, cache)
        om_y = reduced_cobar(q, len(y_side) + 1, cache)
        om_z = reduced_cobar(q, len(z_side), cache)

        def eval_side(first, second, nested_left, labs):
            lab_x, lab_y, lab_z = labs
            if nested_left:
                # x o (y o z slot composite): compose (x,y) then with z.
                d_xy = (_label_total_degree("cobar", lab_x)
                        + _label_total_degree("cobar", lab_y))
                jxy = second.source.labels(d_xy).index(
                    (lab_x, lab_y))
                out = {}
                for imid, cmid in second.component(d_xy).column(jxy).items():
                    lab_mid = second.target.labels(d_xy)[imid]
                    d_tot = d_xy + _label_total_degree("cobar", lab_z)
                    jtot = first.source.labels(d_tot).index(
                        (lab_mid, lab_z))
                    for iout, cout in first.component(d_tot).column(
                            jtot).items():
                        out[iout] = out.get(iout, 0) + cmid * cout
                return {k: v for k, v in out.items() if v}
            d_yz = (_label_total_degree("cobar", lab_y)
                    + _label_total_degree("cobar", lab_z))
            jyz = second.source.labels(d_yz).index((lab_y, lab_z))
            out = {}
            for imid, cmid in second.component(d_yz).column(jyz).items():
                lab_mid = second.target.labels(d_yz)[imid]
                d_tot = d_yz + _label_total_degree("cobar", lab_x)
                jtot = first.source.labels(d_tot).index((lab_x, lab_mid))
                for iout, cout in first.component(d_tot).column(jtot).items():
                    out[iout] = out.get(iout, 0) + cmid * cout
            return {k: v for k, v in out.items() if v}

        for dx in om_x.complex.degrees():
            for lab_x in om_x.complex.labels(dx):
                for dy in om_y.complex.degrees():
                    for lab_y in om_y.complex.labels(dy):
                        for dz in om_z.complex.degrees():
                            for lab_z in om_z.complex.labels(dz):
                                labs = (lab_x, lab_y, lab_z)
                                lhs = eval_side(psi1, psi2, True, labs)
                                rhs = eval_side(psi3, psi4, False, labs)
                                if lhs != rhs:
                                    raise ValidationError(
                                        f"cobar associativity fails at arity "
                                        f"{arity}, X={x_side} Y={y_side} "
                                        f"Z={z_side}, {labs}")
    return count


def check_unary_action_is_identity(one_sided, cache=None):
    """The trivial-partition structure map acts as the identity."""
    cache = {} if cache is None else cache
    trivial = canonical_partition([tuple(range(1, one_sided.arity + 1))])
    cm = module_structure_maps(one_sided, trivial, cache)
    if one_sided.kind == BAR:
        src, tgt, pair_side = cm.source, cm.target, "target"
    else:
        src, tgt, pair_side = cm.target, cm.source, "source"
    tensor_cplx = cm.target if one_sided.kind == BAR else cm.source
    for d in one_sided.complex.degrees():
        for j, lab in enumerate(one_sided.complex.labels(d)):
            pair_idx = None
            for i, pair in enumerate(tensor_cplx.labels(d)):
                if pair[1] == lab:
                    pair_idx = i
                    break
            if pair_idx is None:
                raise ValidationError("unary pair missing")
            if one_sided.kind == BAR:
                col = cm.component(d).column(j)
                if col != {pair_idx: 1}:
                    raise ValidationError(
                        f"unary coaction is not the identity in degree {d}")
            else:
                col = cm.component(d).column(pair_idx)
                if col != {j: 1}:
                    raise ValidationError(
                        f"unary action is not the identity in degree {d}")
    return True


def check_module_pentagon_chain(one_sided, lam, grouping, cache=None):
    """Two-step versus one-step module action on a cobar complex.

    lam partitions {1..n}; grouping partitions the block indices
    {0..r-1}.  Path A composes the operadic factors first (through the
    ungrafting composition on the reduced cobar), path B acts group by
    group and then through the coarsening; Koszul signs use total
    degrees.  Raises on any mismatch.
    """
    cache = {} if cache is None else cache
    if one_sided.kind != "cobar":
        raise ValidationError("chain pentagon is implemented on the cobar side")
    lam = canonical_partition(lam)
    r = len(lam)
    groups = sorted((tuple(sorted(g)) for g in grouping),
                    key=lambda g: lam[g[0]][0])
    if sorted(x for g in groups for x in g) != list(range(r)):
        raise ValidationError("grouping must partition the blocks")
    mu = canonical_partition(
        [tuple(x for bi in g for x in lam[bi]) for g in groups])
    s = len(groups)
    q = one_sided.op
    act_lam = module_structure_maps(one_sided, lam, cache)
    act_mu = module_structure_maps(one_sided, mu, cache)
    omega_r = reduced_cobar(q, r, cache)
    gamma = module_structure_maps(
        omega_r, [tuple(x + 1 for x in g) for g in groups], cache)
    sub_acts = []
    sub_parts = []
    for g in groups:
        union = sorted(x for bi in g for x in lam[bi])
        rel = {x: i + 1 for i, x in enumerate(union)}
        sub_blocks = canonical_partition(
            [tuple(rel[x] for x in lam[bi]) for bi in g])
        part = _one_sided(one_sided, len(union), cache)
        sub_acts.append(module_structure_maps(part, sub_blocks, cache))
        sub_parts.append(part)

    omega_s = reduced_cobar(q, s, cache)
    omega_ri = [reduced_cobar(q, len(g), cache) for g in groups]
    parts_lam = [_one_sided(one_sided, len(b), cache) for b in lam]

    def td(lab):
        return -lab.tree_degree + lab.internal_degree

    # Domain tuples: (p; q_1..q_s; m_1..m_r), lambda-blocks in min order.
    dom = [omega_s] + omega_ri + parts_lam
    for combo in itertools.product(*(
            [(d, lab) for d in c.complex.degrees()
             for lab in c.complex.labels(d)] for c in dom)):
        labs = [lab for _d, lab in combo]
        degs = [d for d, _lab in combo]
        p_lab, q_labs, m_labs = labs[0], labs[1:1 + s], labs[1 + s:]
        # Path A: compose operadic factors, then act through lam.
        d_gamma = degs[0] + sum(degs[1:1 + s])
        jg = gamma.source.labels(d_gamma).index(tuple([p_lab] + q_labs))
        out_a = {}
        for ig, cg in gamma.component(d_gamma).column(jg).items():
            lab_r = gamma.target.labels(d_gamma)[ig]
            d_tot = d_gamma + sum(degs[1 + s:])
            jl = act_lam.source.labels(d_tot).index(
                tuple([lab_r] + m_labs))
            for iout, cout in act_lam.component(d_tot).column(jl).items():
                out_a[iout] = out_a.get(iout, 0) + cg * cout
        out_a = {k: v for k, v in out_a.items() if v}
        # Path B: interleave, act per group, then act through mu.
        seq = []
        for i, g in enumerate(groups):
            seq.append(("q", i))
            seq.extend(("m", bi) for bi in g)
        src = [("q", i) for i in range(s)] + [("m", bi) for bi in range(r)]
        perm = tuple(seq.index(x) for x in src)
        fdegs = tuple(degs[1:])
        sign = 1
        for ii in range(len(fdegs)):
            for jj in range(ii + 1, len(fdegs)):
                if perm[ii] > perm[jj] and fdegs[ii] % 2 and fdegs[jj] % 2:
                    sign = -sign
        group_vectors = []
        for i, g in enumerate(groups):
            da = degs[1 + i] + sum(degs[1 + s + bi] for bi in g)
            tup = tuple([q_labs[i]] + [m_labs[bi] for bi in g])
            ja = sub_acts[i].source.labels(da).index(tup)
            group_vectors.append(
                (da, sub_acts[i].component(da).column(ja)))
        out_b = {}
        for picks in itertools.product(*(v.items() for _d, v in
                                         group_vectors)):
            coeff = sign
            mid_labs = []
            for i, (idx, c) in enumerate(picks):
                coeff *= c
                mid_labs.append(
                    sub_parts[i].complex.labels(group_vectors[i][0])[idx])
            d_mu = degs[0] + sum(d for d, _v in group_vectors)
            jm = act_mu.source.labels(d_mu).index(
                tuple([p_lab] + mid_labs))
            for iout, cout in act_mu.component(d_mu).column(jm).items():
                out_b[iout] = out_b.get(iout, 0) + coeff * cout
        out_b = {k: v for k, v in out_b.items() if v}
        if out_a != out_b:
            raise ValidationError(
                f"module pentagon fails for lam={lam} groups={groups} "
                f"at {labs}")
    return True
