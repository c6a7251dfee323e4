from fractions import Fraction as Fr

from wakimoto import modes
from wakimoto.liealg import LieElement, basis_symbols
from wakimoto.modes import (FieldExpr, WakimotoModule, canon, mode_apply,
                            mode_apply_elem, mono_energy, pi_affine, pi_field,
                            render_field, solve_c_gamma, verify_affine_comm)
from wakimoto.rootdata import Weight, build_root_system
from wakimoto.sparse import added as vec_add

RS2 = build_root_system(2)
RS3 = build_root_system(3)
LAM2 = Weight((Fr(2, 3),))
K = Fr(1, 2)


def vmod(rs=RS2, lam=None, k=K, top="V", alpha_idx=None):
    return WakimotoModule(rs, top, lam or Weight((Fr(2, 3),) * rs.rank), k,
                          alpha_idx)


def test_mono_energy():
    assert mono_energy(canon({("D", 0, 2): 1, ("Y", 0, 1): 3})) == 5
    assert mono_energy(canon({("D0", 0): 4})) == 0


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
    d = mono_energy(next(iter(v)))
    for sym in basis_symbols(RS2):
        F = pi_field(RS2, sym, K)
        for m in range(d + 2, d + 5):
            assert mode_apply(mod, F, m, v) == {}


def test_zhu_correspondence_sl2():
    from wakimoto import weylpoly
    lam = LAM2
    for top, ai in (("V", None), ("GT", 0)):
        mod = vmod(top=top, alpha_idx=ai)
        kind = "V" if top == "V" else ("GT", 0)
        for sym in basis_symbols(RS2):
            F = pi_field(RS2, sym, K)
            w = weylpoly.pi_g(LieElement.basis(RS2, sym))
            for j in range(4):
                exps = (j,)
                mono = modes.fock_to_top_monomial(RS2, mod, exps)
                got = mode_apply(mod, F, 0, {mono: Fr(1)})
                fv = weylpoly.act_F(w, weylpoly.FockVector(RS2, kind, lam,
                                                           {exps: Fr(1)}))
                expect = {modes.fock_to_top_monomial(RS2, mod, e): c
                          for e, c in fv.terms.items()}
                assert got == expect


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


# -- the full commutation suite (small instance; acceptance runs the big one) ------

def test_verify_affine_comm_sl2_small():
    assert verify_affine_comm(2, Fr(1, 2), 2) == []


def test_pi_affine_linearity():
    mod = vmod()
    a = LieElement(RS2, {("e", 0): Fr(2), ("f", 0): Fr(-1, 3)})
    fields = pi_affine(RS2, a, K)
    v = {canon({("D", 0, 1): 1}): Fr(1)}
    got = mode_apply_elem(mod, fields, 0, v)
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
