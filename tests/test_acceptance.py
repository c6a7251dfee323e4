"""Acceptance suite: one test per contract item, exact arithmetic throughout.

These are the end-to-end checks; module-level unit tests live in the other
test files.  Everything here is deterministic and tolerance-free.
"""

from fractions import Fraction as Fr
from itertools import combinations

from wakimoto import modes, relaxed
from wakimoto.admissible import (level_from_pq, omega_direct, omega_theorem,
                                 orbit_dim, orbit_q, orbit_table,
                                 pr_k_integral, richardson, sigma_roots)
from wakimoto.errors import WakimotoError
from wakimoto.liealg import casimir_s_alpha
from wakimoto.rootdata import Weight, build_root_system
from wakimoto.sparse import added
from wakimoto.weylpoly import (fock_apply, fock_terms,
                               gamma_alpha_multiplicity, pi_g, pi_g_elem,
                               pi_hom_check, twist_character, weyl_mul)

from test_relaxed import decoded, top_slice
from test_weylpoly import fock_oracle

RS2 = build_root_system(2)
RS3 = build_root_system(3)

FIVE_LAMBDAS = [Fr(0), Fr(1), Fr(-1, 2), Fr(2, 3), Fr(7, 5)]


def test_01_pi_g_homomorphism_sl2_sl3_sl4():
    for n in (2, 3, 4):
        assert pi_hom_check(n)[0] == []


def test_02_sl2_anchors_and_highest_weight():
    e, h, f = (pi_g(RS2, (kind, 0)) for kind in "ehf")
    assert e == {((2,), (1,), (0,)): 1, ((1,), (0,), (1,)): 1}
    assert h == {((1,), (1,), (0,)): 2, ((0,), (0,), (1,)): 1}
    assert f == {((0,), (1,), (0,)): -1}
    for lam_c in FIVE_LAMBDAS:
        lam = Weight((lam_c,))
        vac = {(0,): Fr(1)}
        assert fock_apply(fock_terms(h, RS2, lam), None, vac) == \
            ({(0,): lam_c} if lam_c else {})
        assert fock_apply(fock_terms(e, RS2, lam), None, vac) == {}


def test_03_affine_commutation():
    for k in (Fr(1, 2), Fr(-1, 2), Fr(-4, 3)):
        assert modes.affine_comm_check(2, k, 3)[0] == []
    assert modes.affine_comm_check(3, Fr(-3, 2), 2)[0] == []


def test_04_c_gamma_lambda_independent_rational():
    for rs, k in ((RS2, Fr(1, 2)), (RS3, Fr(-3, 2))):
        lams = [Weight(tuple(Fr(c) for _ in range(rs.rank)))
                for c in (Fr(0), Fr(1), Fr(-2, 7))]
        for gi in rs.simple_indices:
            vals = {modes.solve_c_gamma(rs, gi, k, lam=lam) for lam in lams}
            assert len(vals) == 1
            c = vals.pop()
            assert isinstance(c, Fr)
    # the solved realization passing the commutation suite is criterion 3


def test_05_character_identity():
    # the two sides agree as point tables, and so as (Weight, energy)
    # tables at every lambda, since the decoder merges no points
    lam3 = Weight((Fr(1, 3), Fr(2)))
    th = RS3.root_index[(1, 1)]
    for rs, ai, dmax, radius, lams in (
            (RS2, 0, 6, 10, [Weight((c,)) for c in FIVE_LAMBDAS]),
            (RS2, None, 6, 10, [Weight((c,)) for c in FIVE_LAMBDAS]),
            (RS3, th, 3, 5, [lam3]), (RS3, None, 3, 5, [lam3])):
        count = relaxed.character_top(rs, ai, dmax, radius)
        a = relaxed.character_relaxed_verma(rs, count)
        b = relaxed.character_relaxed_wakimoto(rs, count)
        assert a == b
        for lam in lams:
            assert len(decoded(rs, lam, a)) == len(a)


def test_06_top_component_correspondence():
    # sl2 default slice is degree <= 20: 21 basis vectors per top
    assert modes.top_component_check(2, Weight((Fr(2, 3),)), Fr(1, 2)) == []
    assert modes.top_component_check(
        3, Weight((Fr(1, 3), Fr(2))), Fr(-3, 2)) == []


def test_07_twisting_functor_characters():
    th = RS3.root_index[(1, 1)]
    lam3 = Weight((Fr(1, 3), Fr(2)))
    for lam_c in (Fr(0), Fr(2, 3), Fr(-1, 2)):
        lam = Weight((lam_c,))
        assert twist_character(RS2, lam, 0, 8) == \
            fock_oracle(RS2, lam, 0, 8)
    assert twist_character(RS3, lam3, th, 4, kcap=20) == \
        fock_oracle(RS3, lam3, th, 4, kcap=20)
    # GT-top relaxed character restricted to energy 0 is the twisted character
    for rs, lam, ai, r in ((RS2, Weight((Fr(2, 3),)), 0, 8),
                           (RS3, lam3, th, 4)):
        ch = relaxed.character_relaxed_verma(
            rs, relaxed.character_top(rs, ai, 2, r))
        assert top_slice(rs, lam, ai, ch) == twist_character(rs, lam, ai, r)


def test_08_gamma_alpha_multiplicities_stabilize():
    for lam_c in (Fr(0), Fr(2, 3), Fr(-1, 2)):
        lam = Weight((lam_c,))
        for j in range(1, 4):
            mu = Weight((lam_c + 2 * j,))
            tables = [gamma_alpha_multiplicity(RS2, lam, 0, mu, D)
                      for D in (4, 6, 8)]
            assert tables[0] == tables[1] == tables[2]
            assert all(m == 1 for m in tables[0].values())
    lam3 = Weight((Fr(1, 3), Fr(2)))
    th = RS3.root_index[(1, 1)]
    t6 = gamma_alpha_multiplicity(RS3, lam3, th, lam3, 6)
    t8 = gamma_alpha_multiplicity(RS3, lam3, th, lam3, 8)
    t10 = gamma_alpha_multiplicity(RS3, lam3, th, lam3, 10)
    # every multiplicity seen at D = 6 is already final at D = 8, and the
    # whole table is stable from D = 8 on (finiteness, not boundedness)
    assert t6
    assert all(t8[ev] == m for ev, m in t6.items())
    assert t8 == t10
    assert all(m == 1 for m in t8.values())


def test_09_central_character_invariance():
    cas = {}
    for c, (a, b) in casimir_s_alpha(RS2, 0):
        cas = added(cas, weyl_mul(pi_g_elem(RS2, a), pi_g_elem(RS2, b)), c)
    for lam_c in FIVE_LAMBDAS:
        lam = Weight((lam_c,))
        scalar = lam_c + lam_c * lam_c / 2
        for j in range(20):
            got = fock_apply(fock_terms(cas, RS2, lam), 0, {(j,): Fr(1)})
            assert got == ({(j,): scalar} if scalar else {})


def test_10_omega_theorem_equals_direct_oracle():
    for n in (2, 3):
        sigmas = [set(s) for r in range(n)
                  for s in combinations(range(1, n), r)]
        for p in range(n, 7):
            for q in range(1, 5):
                try:
                    lvl = level_from_pq(n, p, q)
                except WakimotoError:
                    continue
                for sigma in sigmas:
                    assert omega_theorem(sigma, lvl) == omega_direct(sigma, lvl)


def test_11_nonemptiness_thresholds():
    for n in (2, 3):
        for p in range(n, 7):
            for q in range(1, 5):
                try:
                    lvl = level_from_pq(n, p, q)
                except WakimotoError:
                    continue
                # Borel: nonempty iff q >= n
                assert bool(omega_theorem(set(), lvl)) == (q >= n)
                # full parabolic: Omega_k(g) is the integral dominant set
                assert omega_theorem(set(range(1, n)), lvl) == \
                    list(map(Weight, pr_k_integral(lvl)))


def test_12_orbit_tables():
    for n in (2, 3, 4, 5):
        dims = {lab: r["dim"] for r in orbit_table(n) for lab in r["labels"]}
        g, rk = n * n - 1, n - 1
        assert dims["zero"] == 0
        assert dims["min"] == 2 * n - 2
        assert dims["reg"] == g - rk
        if n >= 3:
            assert dims["subreg"] == g - rk - 2
    for n in range(2, 7):
        rs = build_root_system(n)
        for r in range(n):
            for s in combinations(range(1, n), r):
                sigma = set(s)
                part = richardson(sigma, n)
                dsig = sigma_roots(rs, sigma)
                nu = sum(1 for a in rs.positive_roots if a not in dsig)
                assert orbit_dim(part) == 2 * nu
    assert richardson({1, 3}, 4) == (2, 2)
    assert orbit_dim((2, 2)) == 8
    assert orbit_q(4, 3) == (3, 1)


def test_13_singular_vectors():
    lam = Weight((Fr(0),))
    found = relaxed.find_singular_vectors(RS2, lam, Fr(-1, 2), 4)
    assert found
    assert any(d <= 4 and v for d, delta, v in found)
    # the expected Kac-Kazhdan vector sits at weight lam + 2 alpha
    assert any(delta == (2,) for _, delta, _ in found)
    # generic point: no singular vectors at low energy
    assert relaxed.find_singular_vectors(
        RS2, Weight((Fr(1, 5),)), Fr(7, 3), 3) == []
