import gc
import os
import random
import time
from fractions import Fraction as Fr
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wakimoto import modes
from wakimoto.errors import RealizationBug
from wakimoto.liealg import basis_symbols, bracket_symbols, kappa0_symbols
from wakimoto.modes import (FieldExpr, WakimotoModule, affine_comm_check,
                            canon, mode_apply, pi_affine, pi_field,
                            render_field, solve_c_gamma, top_component_check)
from wakimoto.rootdata import Weight, build_root_system
from wakimoto.sparse import added as vec_add
from wakimoto.sparse import scaled

RS2 = build_root_system(2)
RS3 = build_root_system(3)
LAM2 = Weight((Fr(2, 3),))
K = Fr(1, 2)


def vmod(rs=RS2, lam=None, k=K, alpha_idx=None):
    return WakimotoModule(rs, lam or Weight((Fr(2, 3),) * rs.rank), k,
                          alpha_idx)


# -- Heisenberg sector ------------------------------------------------------------

def test_heisenberg_sl2_anchors():
    mod = vmod()
    vac = mod.vacuum()
    assert mod.apply_b(0, 1, vac) == {}
    y = mod.apply_b(0, -1, vac)
    # b_1 y_1 vac = (k + h_dual) kappa0(h,h) vac = 2(k+2) vac
    assert mod.apply_b(0, 1, y) == {(): 2 * (K + 2)}
    assert mod.apply_b(0, 0, vac) == {(): LAM2.coords[0] + 2}


def test_heisenberg_commutation_sl3():
    mod = vmod(RS3, Weight((Fr(1, 3), Fr(2))), Fr(-3, 2))
    vac = mod.vacuum()
    v = mod.apply_b(1, -2, mod.apply_b(0, -1, vac))
    for i in range(2):
        for j in range(2):
            for m in (1, 2):
                for n in (-1, -2):
                    ab = mod.apply_b(i, m, mod.apply_b(j, n, v))
                    ba = mod.apply_b(j, n, mod.apply_b(i, m, v))
                    diff = vec_add(ab, ba, -Fr(1))
                    expect = {}
                    if m == -n:
                        c = m * mod.heis_gram[i][j]
                        expect = {mo: c * x for mo, x in v.items()} if c else {}
                    assert diff == expect


# -- mode actions ------------------------------------------------------------------

def test_pi_f_zero_mode_is_top_derivative():
    mod = vmod()
    F = pi_field(RS2, ("f", 0), K)
    got = mode_apply(mod, F, 0, mod.vacuum())
    assert got == {canon({("D0", 0): 1}): Fr(-1)}


def test_pi_e_kills_verma_vacuum():
    mod = vmod()
    F = pi_field(RS2, ("e", 0), K)
    assert mode_apply(mod, F, 0, mod.vacuum()) == {}


def test_number_operator_on_top():
    # :a*_alpha a_alpha:_0 on a Verma-top monomial d_{x,0}^j: the zero-mode
    # pair is the only contribution, d_{x,0} multiplies (relaxed top), then
    # x_0 = -d/d(d_{x,0}) gives -(j+1).  Consistency with pi(h)_0 weights:
    # 2(-(j+1)) + (lam+2)(h) = (lam - j alpha)(h).
    mod = vmod()
    F = FieldExpr([(Fr(1), ((0, 0),), ("a", 0))])
    for j in (0, 1, 2, 3):
        v = {canon({("D0", 0): j}): Fr(1)}
        assert mode_apply(mod, F, 0, v) == {canon({("D0", 0): j}): Fr(-j - 1)}


def test_creation_modes_append():
    mod = vmod()
    F = FieldExpr([(Fr(1), (), ("a", 0))])  # a_alpha(z)
    got = mode_apply(mod, F, -2, mod.vacuum())
    assert got == {canon({("D", 0, 2): 1}): Fr(1)}


def test_smoothness():
    # pi(a)_m v = 0 for m beyond the energy of v
    mod = vmod()
    v = {canon({("D", 0, 2): 1, ("Y", 0, 1): 1, ("D0", 0): 2}): Fr(1)}
    # energy: each D/X/Y generator carries its mode index
    d = sum(key[2] * e for key, e in next(iter(v)) if len(key) == 3)
    for sym in basis_symbols(RS2):
        F = pi_field(RS2, sym, K)
        for m in range(d + 2, d + 5):
            assert mode_apply(mod, F, m, v) == {}


def test_zhu_correspondence_sl2():
    from wakimoto import weylpoly
    lam = LAM2
    for ai in (None, 0):
        mod = vmod(alpha_idx=ai)
        for sym in basis_symbols(RS2):
            F = pi_field(RS2, sym, K)
            w = weylpoly.pi_g(RS2, sym)
            for j in range(4):
                exps = (j,)
                mono = modes.fock_to_top_monomial(mod, exps)
                got = mode_apply(mod, F, 0, {mono: Fr(1)})
                fv = weylpoly.fock_apply(weylpoly.fock_terms(w, RS2, lam), ai,
                                         {exps: Fr(1)})
                expect = {modes.fock_to_top_monomial(mod, e): c
                          for e, c in fv.items()}
                assert got == expect


def test_top_component_check_sl2():
    assert top_component_check(2, LAM2, K) == []


# -- c_gamma -----------------------------------------------------------------------

def test_solve_c_gamma_sl2():
    for k in (Fr(1, 2), Fr(-4, 3), Fr(7, 5)):
        assert solve_c_gamma(RS2, 0, k) == Fr(-2)


def test_solve_c_gamma_sl2_lambda_independent():
    for lam_c in (Fr(0), Fr(1), Fr(-3, 7)):
        assert solve_c_gamma(RS2, 0, K, lam=Weight((lam_c,))) == Fr(-2)


def test_solve_c_gamma_sl3_symmetric():
    k = Fr(-3, 2)
    c1 = solve_c_gamma(RS3, RS3.simple_indices[0], k)
    c2 = solve_c_gamma(RS3, RS3.simple_indices[1], k)
    assert c1 == c2 == Fr(-5, 2)


def _c_gamma_oracle(rs, gamma_idx, k, lam):
    """c_gamma from [pi(e_gamma)_1, pi(f_gamma)_{-1}] = pi(h_gamma)_0
    + k kappa_0(e_gamma, f_gamma) on the degree-<=2 spanning set of the
    Verma-top module: each monomial component is a scalar equation
    a C = b in the total dz a*_gamma coefficient -C."""
    mod = WakimotoModule(rs, lam, k)
    f_field = pi_field(rs, ("f", gamma_idx), k)
    s = rs.positive_roots[gamma_idx].index(1)
    h_field = pi_field(rs, ("h", s), k)
    # pi(e_gamma) with its dz term replaced by -C :dz a*_gamma:
    rigid = [t for t in pi_field(rs, ("e", gamma_idx), k).terms
             if all(d == 0 for _, d in t[1])]
    e_fields = [FieldExpr(rigid + [(-C, ((gamma_idx, 1),), None)])
                for C in (0, 1)]
    eqs = []
    for v in modes._spanning_vectors(mod, 2, 1):
        fv = mode_apply(mod, f_field, -1, v)
        l0, l1 = [vec_add(mode_apply(mod, ef, 1, fv),
                          mode_apply(mod, f_field, -1,
                                     mode_apply(mod, ef, 1, v)), -Fr(1))
                  for ef in e_fields]
        rhs = vec_add(mode_apply(mod, h_field, 0, v), v, k)
        slope = vec_add(l1, l0, -Fr(1))
        resid = vec_add(rhs, l0, -Fr(1))
        for mono in set(slope) | set(resid):
            eqs.append((slope.get(mono, 0), resid.get(mono, 0)))
    sols = {Fr(b) / a for a, b in eqs if a}
    assert len(sols) == 1
    assert all(b == 0 for a, b in eqs if not a)
    C = sols.pop()
    return C - (k + rs.h_dual) * kappa0_symbols(rs, ("e", gamma_idx),
                                                ("f", gamma_idx))


def test_c_gamma_vacuum_solve_matches_spanning_set_system():
    for rs in (RS2, RS3):
        for k in (Fr(1, 2), Fr(-3, 2), Fr(-4, 3)):
            for lam in (Weight((Fr(2, 3),) * rs.rank),
                        Weight((Fr(-1, 5),) * rs.rank)):
                for gi in rs.simple_indices:
                    assert (solve_c_gamma(rs, gi, k, lam=lam)
                            == _c_gamma_oracle(rs, gi, k, lam))


# -- the non-simple e fields ---------------------------------------------------------

def _lazy_e_modes(mod, rs, idx, k, m, v):
    """Mode m of pi(e_alpha) on v through the commutator
    (1/N)[pi(e_gamma)_0, pi(e_{alpha-gamma})_m], recursively down to the
    simple roots (gamma the lowest simple root with alpha - gamma a root)."""
    alpha = rs.positive_roots[idx]
    if sum(alpha) == 1:
        return mode_apply(mod, pi_field(rs, ("e", idx), k), m, v)
    for si, simple in enumerate(rs.simple_roots):
        rest = tuple(a - b for a, b in zip(alpha, simple))
        if rs.is_positive_root(rest):
            break
    g_idx, rest_idx = rs.simple_indices[si], rs.root_index[rest]
    N = bracket_symbols(rs, ("e", g_idx), ("e", rest_idx))[("e", idx)]
    A = pi_field(rs, ("e", g_idx), k)
    ab = mode_apply(mod, A, 0, _lazy_e_modes(mod, rs, rest_idx, k, m, v))
    ba = _lazy_e_modes(mod, rs, rest_idx, k, m, mode_apply(mod, A, 0, v))
    return scaled(vec_add(ab, ba, -Fr(1)), Fr(1) / N)


@pytest.mark.parametrize("n,dmax", [(3, 1), (4, 0)])
def test_explicit_e_fields_match_lazy_commutator(n, dmax):
    rs = build_root_system(n)
    k = Fr(-3, 2)
    lam = Weight([Fr(2 * i + 1, 3) for i in range(rs.rank)])
    nonsimple = [i for i, a in enumerate(rs.positive_roots) if sum(a) > 1]
    for ai in (None, rs.simple_indices[0]):
        mod = vmod(rs, lam, k, ai)
        for v in modes._spanning_vectors(mod, dmax, 1):
            for idx in nonsimple:
                F = pi_field(rs, ("e", idx), k)
                for m in range(-2, 3):
                    assert (mode_apply(mod, F, m, v)
                            == _lazy_e_modes(mod, rs, idx, k, m, v))


def test_duplicated_dz_candidate_is_a_realization_bug(monkeypatch):
    # a duplicated candidate makes two equal columns: a coefficient is free
    k = Fr(-3, 2)
    th = RS3.root_index[(1, 1)]
    for i in RS3.simple_indices:
        pi_field(RS3, ("e", i), k)  # built before the patch, and kept
    stale = {(3, ("e", th), k), (2, ("e", 0), k)}
    monkeypatch.setattr(modes, "_FIELD_CACHE",
                        {key: F for key, F in modes._FIELD_CACHE.items()
                         if key not in stale})
    cands = modes._dz_candidates
    monkeypatch.setattr(modes, "_dz_candidates",
                        lambda rs, idx: cands(rs, idx) + cands(rs, idx)[:1])
    for rs, idx in ((RS3, th), (RS2, 0)):
        with pytest.raises(RealizationBug):
            pi_field(rs, ("e", idx), k)


def test_fields_have_conformal_weight_one():
    # every term is a*'s times exactly one of dz a*, a or b
    for rs in (RS2, RS3):
        for sym in basis_symbols(rs):
            F = pi_field(rs, sym, Fr(-3, 2))
            for c, astars, main in F.terms:
                assert c and all(d in (0, 1) for _, d in astars)
                assert sum(d for _, d in astars) + (main is not None) == 1


# -- the non-simple e_theta field --------------------------------------------------

def test_e_theta_kills_verma_vacuum_sl3():
    k = Fr(-3, 2)
    mod = vmod(RS3, Weight((Fr(1, 3), Fr(2))), k)
    th = RS3.root_index[(1, 1)]
    F = pi_field(RS3, ("e", th), k)
    assert mode_apply(mod, F, 0, mod.vacuum()) == {}


def test_h_e_theta_commutator_is_theta_of_h():
    # [pi(h_i)_0, pi(e_theta)_m] = theta(h_i) pi(e_theta)_m on a small slice
    k = Fr(-3, 2)
    lam = Weight((Fr(1, 3), Fr(2)))
    mod = vmod(RS3, lam, k)
    th = RS3.root_index[(1, 1)]
    Fth = pi_field(RS3, ("e", th), k)
    vecs = [mod.vacuum(),
            {canon({("D", th, 1): 1}): Fr(1)},
            {canon({("D", 0, 2): 1, ("D0", 1): 1}): Fr(1)},
            {canon({("Y", 0, 1): 1, ("D0", th): 2}): Fr(1)}]
    thw = RS3.root_to_weight(RS3.positive_roots[th])
    for i in range(2):
        Fh = pi_field(RS3, ("h", i), k)
        for m in (-1, 0, 1):
            for v in vecs:
                ab = mode_apply(mod, Fh, 0, mode_apply(mod, Fth, m, v))
                ba = mode_apply(mod, Fth, m, mode_apply(mod, Fh, 0, v))
                lhs = vec_add(ab, ba, -Fr(1))
                rhs = vec_scale_dict(mode_apply(mod, Fth, m, v), thw.coords[i])
                assert lhs == rhs


def vec_scale_dict(v, c):
    c = Fr(c)
    return {m: c * x for m, x in v.items()} if c else {}


def test_mode_cache_keeps_a_dropped_field_apart_from_a_new_one():
    # a new field built after an old one is dropped may get the old one's id;
    # its modes must still be its own, not the cached modes, the compiled
    # plan or the scale of the old field.  Each round empties all caches but
    # one, so that only that one can keep the old field alive.
    v = {canon({("D", 0, 1): 1}): Fr(1)}
    caches = ("_scales", "_plan_cache", "_mode_cache")
    for kept in caches:
        mod = vmod()
        F = FieldExpr([(Fr(1), (), ("a", 0))])
        assert mode_apply(mod, F, -1, v) == mod.apply_d(0, -1, v)
        for cleared in caches:
            if cleared != kept:
                getattr(mod, cleared).clear()
        terms = [(Fr(1), (), ("b", 0))]
        del F  # with nothing allocated in between, G takes F's memory and id
        G = FieldExpr(terms)
        assert mode_apply(mod, G, -1, v) == mod.apply_b(0, -1, v)


# -- spanning vectors ----------------------------------------------------------------

def _spanning_oracle(mod, dmax, top_deg):
    """Every monomial of energy <= dmax and top degree <= top_deg, from
    itertools.product over the generator counts (one mode level at a time),
    sorted by (energy, monomial)."""
    rs = mod.rs
    npos = len(rs.positive_roots)
    levels = []
    for m in range(1, dmax + 1):
        keys = ([("D", g, m) for g in range(npos)]
                + [("X", g, m) for g in range(npos)]
                + [("Y", i, m) for i in range(rs.rank)])
        levels.append([dict(zip(keys, c))
                       for c in product(range(dmax // m + 1), repeat=len(keys))
                       if m * sum(c) <= dmax])
    top_keys = [("X0", g) if g == mod.alpha_idx else ("D0", g)
                for g in range(npos)]
    tops = [dict(zip(top_keys, c))
            for c in product(range(top_deg + 1), repeat=npos)
            if sum(c) <= top_deg]
    found = []
    for parts in product(*levels):
        mode = {}
        for part in parts:
            mode.update(part)
        energy = sum(key[2] * c for key, c in mode.items())
        if energy > dmax:
            continue
        for top in tops:
            mono = tuple(sorted((key, c) for key, c in {**mode, **top}.items()
                                if c))
            found.append((energy, mono))
    found.sort()
    return [{mono: Fr(1)} for _, mono in found]


def test_spanning_vectors_match_brute_force():
    theta3 = RS3.root_index[(1, 1)]
    for rs, dmaxes, top_deg, gt_alphas in ((RS2, range(4), 2, (0,)),
                                           (RS3, range(3), 1, (0, theta3))):
        mods = [vmod(rs)] + [vmod(rs, alpha_idx=a) for a in gt_alphas]
        for mod in mods:
            for dmax in dmaxes:
                got = modes._spanning_vectors(mod, dmax, top_deg)
                assert got == _spanning_oracle(mod, dmax, top_deg)
    # the sl3 D=2 set that test_03 checks on each top
    assert len(modes._spanning_vectors(vmod(RS3), 2, 1)) == 212
    assert len(modes._spanning_vectors(
        vmod(RS3, alpha_idx=0), 2, 1)) == 212


# -- exponent choices against brute force ----------------------------------------

def _choices_oracle(ann, tops, total, need):
    """_exponent_choices by brute force: every exponent tuple in a box that
    holds all the valid ones, filtered."""
    lows = [min(a + [-1 if top else 0]) for a, top in zip(ann, tops)]
    ranges = [range(lo, total - sum(lows) + lo + 1) for lo in lows]
    out = set()
    for js in product(*ranges):
        if sum(js) != total:
            continue
        valid = [j in a or j >= 0 or (top and j == -1)
                 for j, a, top in zip(js, ann, tops)]
        if all(valid) and sum(j in a for j, a in zip(js, ann)) >= need:
            out.add(js)
    return out


def test_exponent_choices_match_brute_force():
    # inputs as _compile makes them: distinct sorted exponents < 0, and
    # where tops[i] (a or b) every annihilating exponent is <= -2
    rng = random.Random(0)
    cases = [([[-2]], [True], -2, 1), ([[-1, -3]], [False], 0, 1),
             ([[-2], []], [True, False], -9, 0),
             ([[], []], [False, True], 3, 0)]
    for _ in range(300):
        nfac = rng.randint(1, 3)
        tops = [rng.random() < 0.5 for _ in range(nfac)]
        ann = [sorted(rng.sample(range(-4, -1 if top else 0),
                                 rng.randint(0, 2))) for top in tops]
        cases.append((ann, tops, rng.randint(-7, 3), rng.randint(0, nfac)))
    below = some_needed = 0
    for ann, tops, total, need in cases:
        # each pick's None places take the compositions, in order
        got = []
        for pick, comps in modes._exponent_choices(ann, tops, total, need):
            for comp in comps:
                it = iter(comp)
                got.append(tuple(next(it) if j is None else j for j in pick))
        expect = _choices_oracle(ann, tops, total, need)
        assert len(got) == len(set(got)) and set(got) == expect
        lowest = sum(min(a + [-1 if top else 0]) for a, top in zip(ann, tops))
        below += total < lowest
        some_needed += bool(need and expect)
    # totals below the reachable minimum, and choices that need annihilators
    assert below >= 10 and some_needed >= 50


# -- compiled plans against the op-by-op evaluator ------------------------------------

def _op_by_op(module, F, m, mono):
    """Mode m of F on one monomial, one generator operation at a time
    through apply_x/apply_d/apply_b: the reference for the compiled plans.

    For each term the z-exponent of every field factor is enumerated; an
    exponent that makes the factor a (nonzero-energy) annihilation operator is
    proposed only if the corresponding creation generator is actually present
    in the monomial — annihilation operators act first, and nothing in a term
    can create an energy>0 generator before they apply, so this pruning is
    exact."""
    vec = {mono: 1}
    dmods = {}
    xmods = {}
    ymods = set()
    for key, e in mono:
        if len(key) == 3:
            kind, g, mm = key
            if kind == "D":
                dmods.setdefault(g, []).append(mm)
            elif kind == "X":
                xmods.setdefault(g, []).append(mm)
            else:
                ymods.add((g, mm))
    total = -m - 1
    out = {}
    for coeff, astars, main in F.terms:
        factors = [("as", g, d) for g, d in astars]
        if main is not None:
            factors.append(("main",) + main)
        if not factors:
            if m == -1:
                out = vec_add(out, vec, coeff)
            continue
        neg = []
        for f in factors:
            if f[0] == "as":
                g = f[1]
                if f[2] == 0:
                    neg.append([-mm for mm in dmods.get(g, ())])
                else:
                    neg.append([-mm - 1 for mm in dmods.get(g, ())])
            elif f[1] == "a":
                cand = [-n - 1 for n in xmods.get(f[2], ())]
                cand.append(-1)
                neg.append(cand)
            else:
                i = f[2]
                cand = [-mm - 1 for (jj, mm) in ymods
                        if module.heis_gram[i][jj] != 0]
                cand.append(-1)
                neg.append(sorted(set(cand)))
        jmins = [min(ns, default=0) for ns in neg]
        nfac = len(factors)
        tail_min = [0] * (nfac + 1)
        for i in range(nfac - 1, -1, -1):
            tail_min[i] = tail_min[i + 1] + jmins[i]

        def candidates(idx, jmax):
            for j in neg[idx]:
                if j <= jmax:
                    yield j
            yield from range(jmax + 1)

        def rec(idx, remaining, js):
            if idx == nfac - 1:
                j = remaining
                if j >= 0 or j in neg[idx]:
                    yield js + [j]
                return
            for j in candidates(idx, remaining - tail_min[idx + 1]):
                yield from rec(idx + 1, remaining - j, js + [j])

        for js in rec(0, total, []):
            cmul = coeff
            annih = []
            create = []
            for f, j in zip(factors, js):
                if f[0] == "as":
                    _, g, d = f
                    if d == 1:
                        cmul *= (j + 1)
                        xj = j + 1
                    else:
                        xj = j
                    (annih if xj <= -1 else create).append(("x", g, xj))
                elif f[1] == "a":
                    n = -j - 1
                    (annih if n >= 0 else create).append(("d", f[2], n))
                else:
                    n = -j - 1
                    (annih if n >= 1 else create).append(("b", f[2], n))
            cur = vec
            for op in annih + create:
                if op[0] == "x":
                    cur = module.apply_x(op[1], op[2], cur)
                elif op[0] == "d":
                    cur = module.apply_d(op[1], op[2], cur)
                else:
                    cur = module.apply_b(op[1], op[2], cur)
                if not cur:
                    break
            if cur:
                out = vec_add(out, cur, cmul)
    return out


@pytest.mark.parametrize("rs,dmax,top_deg", [(RS2, 2, 2), (RS3, 1, 1)])
def test_compiled_plans_match_op_by_op_evaluator(rs, dmax, top_deg):
    # sl3's Heisenberg Gram rows fan b_{i,n>=1} out over both y_{j,n}; at
    # k = -5/7 heis_gram is in sevenths, and at the critical level -h_dual
    # it is all zero
    assert all(all(row) for row in vmod(rs).heis_gram)
    assert not any(any(row) for row in vmod(rs, k=-rs.h_dual).heis_gram)
    lam = Weight([Fr(2 * i + 1, 3) for i in range(rs.rank)])
    for k in (Fr(1, 2), Fr(-3, 2), Fr(-5, 7), Fr(-rs.h_dual)):
        for ai in (None, rs.simple_indices[0]):
            mod = vmod(rs, lam, k, ai)
            vectors = modes._spanning_vectors(mod, dmax, top_deg)
            for sym in basis_symbols(rs):
                F = pi_field(rs, sym, k)
                for m in range(-4, 5):
                    for v in vectors:
                        assert (mode_apply(mod, F, m, v)
                                == _op_by_op(mod, F, m, next(iter(v))))


@st.composite
def _random_monomials(draw):
    """(module, field, mode, monomial): sl2 or sl3, the V top or the GT top
    along the first simple root, k = 1/2 or -h_dual, a basis field, a mode
    in -4..4, and a monomial of up to four keys with exponents up to 3,
    drawn from the top's keys (D0, and X0 on a GT top) and the D, X and Y
    keys of modes 1-3."""
    rs = draw(st.sampled_from([RS2, RS3]))
    alpha_idx = draw(st.sampled_from([None, rs.simple_indices[0]]))
    k = draw(st.sampled_from([K, Fr(-rs.h_dual)]))
    npos = len(rs.positive_roots)
    keys = ([("X0" if g == alpha_idx else "D0", g) for g in range(npos)]
            + [(kind, g, mm) for mm in range(1, 4)
               for kind, count in (("D", npos), ("X", npos), ("Y", rs.rank))
               for g in range(count)])
    mono = draw(st.dictionaries(st.sampled_from(keys), st.integers(1, 3),
                                max_size=4))
    lam = Weight([Fr(2 * i + 1, 3) for i in range(rs.rank)])
    return (vmod(rs, lam, k, alpha_idx),
            pi_field(rs, draw(st.sampled_from(basis_symbols(rs))), k),
            draw(st.integers(-4, 4)), canon(mono))


@given(_random_monomials())
@settings(max_examples=400, deadline=None)
def test_compiled_plans_match_op_by_op_on_random_monomials(case):
    # random monomials reach what spanning vectors at D <= 2 barely do:
    # groups of two or more keys, a key differentiated twice, and a top key
    # moved before it is differentiated (d_{x_{g,0}} then x_{g,0})
    mod, F, m, mono = case
    assert mode_apply(mod, F, m, {mono: 1}) == _op_by_op(mod, F, m, mono)


# -- the full commutation suite (small instance; acceptance runs the big one) ------

def test_verify_affine_comm_sl2_small():
    assert affine_comm_check(2, Fr(1, 2), 2)[0] == []


@pytest.mark.parametrize("n,dmax", [(2, 1), (3, 0)])
def test_verify_affine_comm_at_sevenths_and_the_critical_level(n, dmax):
    for k in (Fr(-5, 7), Fr(-n)):
        assert affine_comm_check(n, k, dmax)[0] == []


def _affine_comm_in_process(n, k, dmax):
    """affine_comm_check with both tops checked in this process, so that a
    test sees the modules and caches of the GT top too."""
    problem = modes._comm_problem(n, k)
    failures, checks = [], 0
    for alpha_idx in (None, problem[0].simple_indices[0]):
        f, c = modes._check_top(problem, alpha_idx, dmax)
        failures += f
        checks += c
    return failures, checks


def test_integer_engine_holds_only_ints(monkeypatch):
    # every plan coefficient and every cached result is s(F) times the exact
    # one, an int: no Fraction reaches the hot path; and every monomial in
    # the per-(field, mode) tables, a key of a table or of a result, is an
    # int code
    made = []

    class Recording(WakimotoModule):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(modes, "WakimotoModule", Recording)
    for n, k, dmax in ((2, K, 1), (3, Fr(-3, 2), 0)):
        made.clear()
        assert _affine_comm_in_process(n, k, dmax)[0] == []
        assert len(made) >= 2
        for mod in made:
            assert mod._plan_cache and mod._mode_cache
            assert all(type(c) is int for plan in mod._plan_cache.values()
                       for c, _, _ in plan)
            tables = mod._mode_cache.values()
            assert all(type(c) is int for table in tables
                       for res in table.values() for c in res.values())
            assert all(type(code) is int for table in tables
                       for code in table)
            assert all(type(code) is int for table in tables
                       for res in table.values() for code in res)


_KEYS = st.one_of(
    st.tuples(st.sampled_from("DXY"), st.integers(0, 5), st.integers(1, 9)),
    st.tuples(st.sampled_from(["D0", "X0"]), st.integers(0, 5)))


@given(st.lists(st.dictionaries(_KEYS, st.integers(1, modes.MASK >> 1)),
                min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_codes_round_trip(monos):
    # one module meets the monomials in turn, so later ones find some of
    # their keys' fields assigned and others not
    mod = vmod(RS3)
    codes = [modes.encode(mod, canon(d)) for d in monos]
    for d, code in zip(monos, codes):
        assert type(code) is int and modes.decode(mod, code) == canon(d)
    assert len(set(codes)) == len({canon(d) for d in monos})


def test_an_exponent_at_the_guard_is_a_realization_bug():
    # the guard is half a field's range: a monomial at it is refused, and
    # so is one just below it that a creation takes to it; past a field's
    # range a carry into the next key's field would go unseen
    limit = (modes.MASK >> 1) + 1
    mod = vmod()
    F = FieldExpr([(Fr(1), ((0, 0),), None)])  # a*_0: mode -2 is x_{0,1}
    x01 = ("X", 0, 1)
    below = {((x01, limit - 1),): Fr(1)}
    assert mode_apply(mod, F, -3, below) == {
        ((x01, limit - 1), (("X", 0, 2), 1)): Fr(1)}
    for vec in ({((x01, limit),): Fr(1)}, below):
        with pytest.raises(RealizationBug):
            mode_apply(mod, F, -2, vec)
    for e in (limit, 2 * limit):
        with pytest.raises(RealizationBug):
            modes.encode(mod, ((x01, e),))


def test_a_non_integral_plan_entry_is_a_realization_bug():
    # never round: with den missing lam2rho's denominator 3, the b_{0,0}
    # factor 8/3 is not integral
    mod = vmod()
    assert mod.den == 3
    mod.den = 1
    with pytest.raises(RealizationBug):
        mode_apply(mod, FieldExpr([(Fr(1), (), ("b", 0))]), 0, mod.vacuum())


def test_scaling_does_not_split_plan_keys(monkeypatch):
    # a cold sl3 D=0 run, the dz solves of its e fields included, holds as
    # many plans as the engine compiled before it computed in ints
    monkeypatch.setattr(modes, "_FIELD_CACHE", {})
    made = []

    class Recording(WakimotoModule):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(modes, "WakimotoModule", Recording)
    _affine_comm_in_process(3, Fr(-3, 2), 0)
    assert sum(len(mod._plan_cache) for mod in made) == 2903


def test_a_check_leaves_no_cyclic_garbage():
    # _check_top pauses the cyclic collector, which is safe only because the
    # module, its caches and the plans it compiles hold no reference cycle:
    # with the collector paused, a collection after both tops finds nothing
    for n, k, dmax in ((2, K, 1), (3, Fr(-3, 2), 0)):
        problem = modes._comm_problem(n, k)
        gc.collect()
        gc.disable()
        try:
            for alpha_idx in (None, problem[0].simple_indices[0]):
                assert modes._check_top(problem, alpha_idx, dmax)[0] == []
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_affine_comm_checks_each_unordered_pair_once():
    # sl2 at D=1: 3 symbols x 5 modes give 15 items, so C(15, 2) = 105
    # checks per vector, on the spanning vectors of both tops
    failures, checks = modes.affine_comm_check(2, Fr(1, 2), 1)
    assert failures == []
    items = list(product(basis_symbols(RS2), range(-2, 3)))
    pairs = len(list(combinations(items, 2)))
    lam = Weight((Fr(1, 3),))
    nvec = sum(len(_spanning_oracle(vmod(RS2, lam, alpha_idx=ai), 1, 2))
               for ai in (None, 0))
    assert pairs == 105 and nvec == 2 * 12
    assert checks == pairs * nvec


def test_affine_comm_check_count_is_exact():
    # the count made before any work is C(5 dim g, 2) x the spanning vectors
    # of both tops, listed, which is what affine_comm_check checks
    # (test_affine_comm_checks_each_unordered_pair_once)
    assert modes._affine_comm_checks(RS2, 1) == \
        modes.affine_comm_check(2, K, 1)[1]
    for n, dmaxes in ((2, range(8)), (3, range(4)), (4, range(2))):
        rs = build_root_system(n)
        pairs = comb(5 * len(basis_symbols(rs)), 2)
        for dmax in dmaxes:
            nvec = sum(len(modes._spanning_vectors(
                vmod(rs, alpha_idx=ai), dmax, modes._top_degree(rs)))
                for ai in (None, rs.simple_indices[0]))
            assert modes._affine_comm_checks(rs, dmax) == pairs * nvec
    assert modes._affine_comm_checks(RS3, 2) == 330720
    assert modes._affine_comm_checks(build_root_system(4), 1) == 621600


# -- two processes: V in the parent, GT in a forked child -------------------------

class TopFailed(Exception):
    pass


def _patch_top(monkeypatch, top, action):
    """Run action() before the check of one top ("V" or "GT"), in whichever
    process checks that top."""
    check = modes._check_top

    def patched(problem, alpha_idx, dmax):
        if top == ("V" if alpha_idx is None else "GT"):
            action()
        return check(problem, alpha_idx, dmax)

    monkeypatch.setattr(modes, "_check_top", patched)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_two_processes_give_the_in_process_result():
    for n, k, dmax in ((2, K, 1), (3, Fr(-3, 2), 0)):
        assert modes.affine_comm_check(n, k, dmax) == \
            _affine_comm_in_process(n, k, dmax)
    _assert_no_child_left()


def test_an_exception_in_the_gt_half_reaches_the_caller(monkeypatch):
    def fail():
        raise TopFailed("raised in the GT half")

    _patch_top(monkeypatch, "GT", fail)
    with pytest.raises(TopFailed, match="raised in the GT half"):
        affine_comm_check(2, K, 0)
    _assert_no_child_left()


def test_a_child_that_dies_is_a_realization_bug(monkeypatch):
    _patch_top(monkeypatch, "GT", lambda: os._exit(9))
    with pytest.raises(RealizationBug, match="without a result"):
        affine_comm_check(2, K, 0)
    _assert_no_child_left()


def test_an_unpicklable_exception_is_sent_as_a_realization_bug(monkeypatch):
    class Local(Exception):  # a local class does not pickle
        pass

    def fail():
        raise Local("in the GT half")

    _patch_top(monkeypatch, "GT", fail)
    with pytest.raises(RealizationBug, match=r"Local\('in the GT half'\)"):
        affine_comm_check(2, K, 0)
    _assert_no_child_left()


@pytest.mark.parametrize("exc", [TopFailed, KeyboardInterrupt])
def test_an_exception_in_the_v_half_kills_the_child(monkeypatch, exc):
    # the GT half would sleep for a minute; the parent kills it, reaps it
    # and re-raises its own exception
    def fail():
        raise exc("raised in the V half")

    _patch_top(monkeypatch, "GT", lambda: time.sleep(60))
    _patch_top(monkeypatch, "V", fail)
    start = time.monotonic()
    with pytest.raises(exc, match="raised in the V half"):
        affine_comm_check(2, K, 0)
    assert time.monotonic() - start < 30
    _assert_no_child_left()


def test_pi_affine_linearity():
    mod = vmod()
    a = {("e", 0): Fr(2), ("f", 0): Fr(-1, 3)}
    v = {canon({("D", 0, 1): 1}): Fr(1)}
    got = {}
    for c, F in pi_affine(RS2, a, K):
        got = vec_add(got, mode_apply(mod, F, 0, v), c)
    expect = vec_add(
        vec_scale_dict(mode_apply(mod, pi_field(RS2, ("e", 0), K), 0, v), 2),
        mode_apply(mod, pi_field(RS2, ("f", 0), K), 0, v), Fr(-1, 3))
    assert got == expect


def test_render_field_sl2():
    F = pi_field(RS2, ("h", 0), K)
    assert render_field(F) == "2 :a*_0(z) a_0(z): + 1 :b_0(z):"


def test_bracket_symbols_cache_is_not_poisoned():
    # regression guard: pi_field caching must not leak across levels
    F1 = pi_field(RS2, ("e", 0), Fr(1, 2))
    F2 = pi_field(RS2, ("e", 0), Fr(-4, 3))
    assert F1.terms != F2.terms  # dz-coefficient depends on k
