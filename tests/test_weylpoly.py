from copy import deepcopy
from fractions import Fraction as Fr

import pytest

from wakimoto.errors import (EmptyWeightSpace, ModuleMismatch, NotInNilradical,
                             NotSimpleRoot)
from wakimoto.liealg import LieElement, basis_symbols
from wakimoto.rootdata import Weight, build_root_system
from wakimoto.weylpoly import (FockVector, PolyGValued, T_poly, WeylElement,
                               act_F, bernoulli_series, fock_character,
                               gamma_alpha_multiplicity, pi_g, pi_g_elem,
                               pq_polynomials, render_weyl, twist_character,
                               verify_pi_hom, weyl_mul)

RS2 = build_root_system(2)
RS3 = build_root_system(3)


def w_elem(rs, x, d, h=None, c=Fr(1)):
    zero_h = (0,) * rs.rank
    return WeylElement(rs, {(tuple(x), tuple(d)): {(h or zero_h): c}})


# -- Weyl algebra ---------------------------------------------------------------

def test_ccr_single_contraction():
    # d . x = x d + 1 ... with the sign convention [x, d] = -1
    x = w_elem(RS2, (1,), (0,))
    d = w_elem(RS2, (0,), (1,))
    got = weyl_mul(d, x)
    expect = w_elem(RS2, (1,), (1,)) + w_elem(RS2, (0,), (0,))
    assert got == expect


def test_ccr_double_contraction():
    x = w_elem(RS2, (1,), (0,))
    d2 = w_elem(RS2, (0,), (2,))
    got = weyl_mul(d2, x)
    expect = w_elem(RS2, (1,), (2,)) + 2 * w_elem(RS2, (0,), (1,))
    assert got == expect


def test_h_is_central():
    xh = w_elem(RS2, (1,), (0,), h=(1,))
    d = w_elem(RS2, (0,), (1,))
    prod = weyl_mul(xh, d)
    assert prod == w_elem(RS2, (1,), (1,), h=(1,))


def test_weyl_mul_associative():
    a = w_elem(RS2, (2,), (1,))
    b = w_elem(RS2, (1,), (2,))
    c = w_elem(RS2, (0,), (1,), h=(1,))
    assert weyl_mul(weyl_mul(a, b), c) == weyl_mul(a, weyl_mul(b, c))


# -- kernels ----------------------------------------------------------------------

def test_sums_leave_operands_unchanged():
    a = w_elem(RS2, (1,), (0,)) + w_elem(RS2, (0,), (1,), c=Fr(1, 2))
    b = w_elem(RS2, (1,), (0,), c=Fr(-1))
    keep = deepcopy((a.terms, b.terms))
    assert (a + b) == w_elem(RS2, (0,), (1,), c=Fr(1, 2))
    assert not (b + a).is_zero()
    assert (a.terms, b.terms) == keep
    e = LieElement.basis(RS3, ("e", 0))
    p = PolyGValued.from_lie(e + LieElement.basis(RS3, ("f", 1)))
    q = PolyGValued.from_lie(e)
    keep = deepcopy((p.components, q.components))
    assert p.scale_add(q, Fr(-1)).components == \
        PolyGValued.from_lie(LieElement.basis(RS3, ("f", 1))).components
    q.scale_add(p, 3)
    assert (p.components, q.components) == keep
    lam = Weight((Fr(2, 3),))
    u = FockVector(RS2, "V", lam, {(0,): 1, (1,): 2})
    v = FockVector(RS2, "V", lam, {(1,): -2, (2,): 1})
    keep = deepcopy((u.terms, v.terms))
    assert (u + v).terms == {(0,): 1, (2,): 1}
    assert (u.terms, v.terms) == keep


def test_bernoulli_k0():
    assert bernoulli_series("t/(e^t-1)", 4) == [
        Fr(1), Fr(-1, 2), Fr(1, 12), Fr(0), Fr(-1, 720)]


def test_bernoulli_k1_order1():
    k1 = bernoulli_series("t*e^t/(e^t-1)", 4)
    assert k1[0] == 1 and k1[1] == Fr(1, 2)


def test_all_kernels_start_at_one():
    for name in ("t/(e^t-1)", "t*e^t/(e^t-1)", "(e^t-1)/t"):
        assert bernoulli_series(name, 2)[0] == 1
    assert bernoulli_series("t/(e^t-1)-1", 2)[0] == 0


def test_kernel_product_identity():
    # K0 * (e^t-1)/t = 1
    k0 = bernoulli_series("t/(e^t-1)", 6)
    base = bernoulli_series("(e^t-1)/t", 6)
    for m in range(7):
        s = sum(k0[j] * base[m - j] for j in range(m + 1))
        assert s == (1 if m == 0 else 0)


# -- T and pi_g -------------------------------------------------------------------

def test_T_sl2_is_identity_on_f():
    t = T_poly(LieElement.basis(RS2, ("f", 0)))
    assert t.components == {("f", 0): {(0,): Fr(1)}}


def test_T_sl3_f_theta():
    th = RS3.root_index[(1, 1)]
    t = T_poly(LieElement.basis(RS3, ("f", th)))
    assert t.components == {("f", th): {(0, 0, 0): Fr(1)}}


def test_T_sl3_f_simple_has_theta_correction():
    # the matrix-unit sign convention fixes the coefficient to -1/2 here
    a1 = RS3.root_index[(1, 0)]
    a2 = RS3.root_index[(0, 1)]
    th = RS3.root_index[(1, 1)]
    t = T_poly(LieElement.basis(RS3, ("f", a1)))
    x_a2 = tuple(1 if g == a2 else 0 for g in range(3))
    assert t.components[("f", a1)] == {(0, 0, 0): Fr(1)}
    assert t.components[("f", th)] == {x_a2: Fr(-1, 2)}


def test_T_rejects_non_nilradical():
    with pytest.raises(NotInNilradical):
        T_poly(LieElement.basis(RS2, ("h", 0)))


def test_pi_g_sl2_anchors():
    e = pi_g(LieElement.basis(RS2, ("e", 0)))
    h = pi_g(LieElement.basis(RS2, ("h", 0)))
    f = pi_g(LieElement.basis(RS2, ("f", 0)))
    assert f == -1 * w_elem(RS2, (0,), (1,))
    assert h == 2 * w_elem(RS2, (1,), (1,)) + w_elem(RS2, (0,), (0,), h=(1,))
    assert e == w_elem(RS2, (2,), (1,)) + w_elem(RS2, (1,), (0,), h=(1,))


def test_pi_hom_sl2_sl3():
    assert verify_pi_hom(2) == []
    assert verify_pi_hom(3) == []


def test_pq_sl2():
    p, q = pq_polynomials(RS2, 0)
    assert p == {}
    assert q == {0: {(2,): Fr(-1)}}


def test_pq_sl3_x2_coefficient():
    a1 = RS3.root_index[(1, 0)]
    p, q = pq_polynomials(RS3, a1)
    x2 = tuple(2 if g == a1 else 0 for g in range(3))
    assert q[a1][x2] == Fr(-1)


def test_pq_needs_simple_root():
    th = RS3.root_index[(1, 1)]
    with pytest.raises(NotSimpleRoot):
        pq_polynomials(RS3, th)


# -- Fock realizations ------------------------------------------------------------

def test_verma_highest_weight():
    for lam_c in (Fr(0), Fr(1), Fr(2, 3), Fr(-1, 2), Fr(7, 5)):
        lam = Weight((lam_c,))
        vac = FockVector.vacuum(RS2, "V", lam)
        hv = act_F(pi_g(LieElement.basis(RS2, ("h", 0))), vac)
        assert hv.terms == ({(0,): lam_c} if lam_c else {})
        ev = act_F(pi_g(LieElement.basis(RS2, ("e", 0))), vac)
        assert ev.terms == {}


def test_verma_f_action():
    lam = Weight((Fr(2, 3),))
    vac = FockVector.vacuum(RS2, "V", lam)
    fv = act_F(pi_g(LieElement.basis(RS2, ("f", 0))), vac)
    assert fv.terms == {(1,): Fr(-1)}


def test_gt_h_spectrum_sl2():
    lam = Weight((Fr(2, 3),))
    h = pi_g(LieElement.basis(RS2, ("h", 0)))
    for j in range(5):
        v = FockVector(RS2, ("GT", 0), lam, {(j,): Fr(1)})
        hv = act_F(h, v)
        assert hv.terms == {(j,): lam.coords[0] + 2 + 2 * j}


def test_gt_f_is_derivative_sl2():
    lam = Weight((Fr(2, 3),))
    f = pi_g(LieElement.basis(RS2, ("f", 0)))
    for j in range(1, 5):
        v = FockVector(RS2, ("GT", 0), lam, {(j,): Fr(1)})
        assert act_F(f, v).terms == {(j - 1,): Fr(-j)}
    v = FockVector(RS2, ("GT", 0), lam, {(0,): Fr(1)})
    assert act_F(f, v).terms == {}


def test_act_F_kind_mismatch():
    lam = Weight((Fr(0),))
    v = FockVector.vacuum(RS2, "V", lam)
    w = FockVector.vacuum(RS3, "V", Weight((0, 0)))
    with pytest.raises(ModuleMismatch):
        act_F(pi_g(LieElement.basis(RS3, ("f", 0))), v)
    del w


def test_act_F_is_hom_on_slice():
    # pi_g followed by act_F respects brackets on both module kinds
    lam3 = Weight((Fr(1, 3), Fr(2)))
    from wakimoto.liealg import bracket
    for kind in ("V", ("GT", RS3.root_index[(1, 1)])):
        monos = [(0, 0, 0), (1, 0, 0), (0, 1, 1), (2, 1, 0)]
        for s1 in basis_symbols(RS3):
            for s2 in basis_symbols(RS3):
                br = pi_g_elem(bracket(LieElement.basis(RS3, s1),
                                       LieElement.basis(RS3, s2)))
                w1 = pi_g(LieElement.basis(RS3, s1))
                w2 = pi_g(LieElement.basis(RS3, s2))
                for mono in monos:
                    if kind != "V" and mono[2]:
                        continue
                    v = FockVector(RS3, kind, lam3, {mono: Fr(1)})
                    lhs = act_F(br, v).terms
                    rhs1 = act_F(w1, act_F(w2, v)).terms
                    rhs2 = act_F(w2, act_F(w1, v)).terms
                    diff = dict(rhs1)
                    for m, c in rhs2.items():
                        diff[m] = diff.get(m, Fr(0)) - c
                    diff = {m: c for m, c in diff.items() if c}
                    assert lhs == diff


# -- characters -------------------------------------------------------------------

def test_twist_character_sl2():
    lam = Weight((Fr(2, 3),))
    ch = twist_character(RS2, lam, 0, 6)
    expect = {Weight((lam.coords[0] + 2 * k,)): 1 for k in range(1, 7)}
    assert ch == expect


def test_twist_matches_fock_sl2():
    for lam_c in (Fr(0), Fr(2, 3), Fr(-1, 2)):
        lam = Weight((lam_c,))
        assert twist_character(RS2, lam, 0, 8) == \
            fock_character(RS2, lam, ("GT", 0), 8)


def test_twist_matches_fock_sl3_theta():
    lam = Weight((Fr(1, 3), Fr(2)))
    th = RS3.root_index[(1, 1)]
    a = twist_character(RS3, lam, th, 4, kcap=20)
    b = fock_character(RS3, lam, ("GT", th), 4, kcap=20)
    assert a == b


def test_theta_twist_weight_lambda_unbounded():
    # weight lambda itself has unbounded multiplicity in expanding windows
    lam = Weight((Fr(1, 3), Fr(2)))
    th = RS3.root_index[(1, 1)]
    ch = twist_character(RS3, lam, th, 3, kcap=15)
    m = ch[lam]
    assert isinstance(m, tuple) and m[0] == "ge" and m[1] >= 15


def test_verma_fock_character_is_verma_character():
    # F_nbar monomial count inside a window = Verma character
    lam = Weight((Fr(1, 3), Fr(2)))
    ch = fock_character(RS3, lam, "V", 3)
    from wakimoto.relaxed import _verma_top_character
    from wakimoto.rootdata import offset_weight
    assert ch == {offset_weight(RS3, lam, c): m
                  for c, m in _verma_top_character(RS3, 3).items()}


# -- Gamma_alpha ------------------------------------------------------------------

def test_gamma_mult_sl2_single_eigenvalue():
    for lam_c in (Fr(0), Fr(2, 3), Fr(-1, 2)):
        lam = Weight((lam_c,))
        scalar = lam_c + lam_c * lam_c / 2
        for k in range(1, 4):
            mu = Weight((lam_c + 2 * k,))
            mult = gamma_alpha_multiplicity(RS2, lam, 0, mu, 6)
            assert mult == {scalar: 1}


def test_gamma_mult_empty_weight_space():
    lam = Weight((Fr(2, 3),))
    with pytest.raises(EmptyWeightSpace):
        gamma_alpha_multiplicity(RS2, lam, 0, Weight((lam.coords[0] + 1,)), 4)


def test_render_weyl():
    e = pi_g(LieElement.basis(RS2, ("e", 0)))
    assert render_weyl(e) == "x_{a1} h1 + x_{a1}^2 d_{a1}"
    assert render_weyl(WeylElement.zero(RS2)) == "0"
