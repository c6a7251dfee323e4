from fractions import Fraction as Fr
from itertools import combinations

import pytest

from wakimoto.admissible import (AdmissibleLevel, AffineWeight, admissible_check,
                                 affine_dot, affine_inner, all_partitions,
                                 check_regular_dominant, dominance_leq,
                                 dominant_coweights, hasse_covers, level_from_pq,
                                 levi_blocks, omega_certificates, omega_direct,
                                 omega_theorem, orbit_dim, orbit_labels,
                                 orbit_q, orbit_table, pr_k_bar, pr_k_classes,
                                 pr_k_integral, richardson, rho_hat,
                                 sigma_roots, t_translation, transpose,
                                 y_is_admissible)
from wakimoto.errors import SizeMismatch
from wakimoto.rootdata import Weight, build_root_system, rho

RS2 = build_root_system(2)
RS3 = build_root_system(3)


def wt(*cs):
    return Weight(tuple(Fr(c) for c in cs))


# -- admissible numbers ------------------------------------------------------------

def test_admissible_check():
    lvl = admissible_check(Fr(-1, 2), 2)
    assert lvl == AdmissibleLevel(2, 3, 2, Fr(-1, 2))
    assert admissible_check(Fr(-2), 2) == (False, "nonpositive")
    assert admissible_check(Fr(-3, 2), 2) == (False, "p_too_small")
    assert admissible_check(Fr(-3, 2), 3) == AdmissibleLevel(3, 3, 2, Fr(-3, 2))


def test_level_from_pq():
    assert level_from_pq(2, 3, 2).k == Fr(-1, 2)
    assert level_from_pq(2, 4, 2) == (False, "not_coprime")


def test_pr_k_integral():
    assert pr_k_integral(level_from_pq(2, 3, 2)) == [wt(0), wt(1)]
    assert pr_k_integral(level_from_pq(2, 2, 1)) == [wt(0)]
    assert len(pr_k_integral(level_from_pq(3, 4, 3))) == 3


# -- the extended affine Weyl group ------------------------------------------------

def test_translation_group_law():
    mu, nu = wt(2), wt(-1)
    gammas = [AffineWeight(wt(Fr(1, 3)), Fr(-1, 2), Fr(0)),
              AffineWeight(wt(1), Fr(2), Fr(-3))]
    for g in gammas:
        lhs = t_translation(RS2, mu, t_translation(RS2, nu, g))
        rhs = t_translation(RS2, mu + nu, g)
        assert lhs == rhs
        assert t_translation(RS2, wt(0), g) == g


def test_translation_preserves_inner_product():
    g1 = AffineWeight(wt(Fr(1, 3)), Fr(-1, 2), Fr(0))
    g2 = AffineWeight(wt(1), Fr(2), Fr(-3))
    eta = wt(2)
    t1 = t_translation(RS2, eta, g1)
    t2 = t_translation(RS2, eta, g2)
    assert affine_inner(RS2, t1, t2) == affine_inner(RS2, g1, g2)


def test_rho_hat_level():
    rh = rho_hat(RS3)
    assert rh.finite == rho(RS3)
    assert rh.a0 == 3 and rh.d == 0


def test_affine_dot_identity():
    g = AffineWeight(wt(Fr(2, 3)), Fr(-1, 2), Fr(0))
    assert affine_dot(RS2, (0, 1), wt(0), g) == g


def test_y_is_admissible_sl2():
    assert y_is_admissible(RS2, (0, 1), wt(0), 2)
    assert y_is_admissible(RS2, (0, 1), wt(1), 2)
    assert not y_is_admissible(RS2, (0, 1), wt(1), 1)
    # the simple reflection with eta = 0 has (eta, alpha) = 0 < 1 on the
    # flipped root: rejected
    assert not y_is_admissible(RS2, (1, 0), wt(0), 2)


def test_pr_k_bar_sl2_32():
    lvl = level_from_pq(2, 3, 2)
    got = pr_k_bar(lvl)
    assert got == [wt(Fr(-3, 2)), wt(Fr(-1, 2)), wt(0), wt(1)]
    for lam in got:
        assert check_regular_dominant(lvl, lam)


def test_pr_k_bar_q1_is_integral():
    lvl = level_from_pq(2, 3, 1)
    assert pr_k_bar(lvl) == pr_k_integral(lvl)


def test_pr_k_classes_partition():
    lvl = level_from_pq(2, 3, 2)
    classes = pr_k_classes(lvl)
    flat = sorted((w for c in classes for w in c), key=lambda x: x.coords)
    assert flat == pr_k_bar(lvl)
    assert all(c for c in classes)


# -- Omega sets ---------------------------------------------------------------------

def test_sigma_roots_sl3():
    assert sigma_roots(RS3, set()) == set()
    full = sigma_roots(RS3, {1, 2})
    assert len(full) == 6
    assert sigma_roots(RS3, {1}) == {(1, 0), (-1, 0)}


def test_omega_theorem_matches_direct_grid():
    for n in (2, 3):
        sigmas = [set(s) for r in range(n)
                  for s in combinations(range(1, n), r)]
        for p in range(n, 6):
            for q in range(1, 4):
                lvl = level_from_pq(n, p, q)
                if not isinstance(lvl, AdmissibleLevel):
                    continue
                for sigma in sigmas:
                    assert omega_theorem(sigma, lvl) == \
                        omega_direct(sigma, lvl)


def test_omega_disjoint_over_sigma():
    lvl = level_from_pq(3, 4, 3)
    sets = {}
    for sigma in (frozenset(), frozenset({1}), frozenset({2}),
                  frozenset({1, 2})):
        sets[sigma] = set(omega_direct(sigma, lvl))
    for s1 in sets:
        for s2 in sets:
            if s1 != s2:
                assert not (sets[s1] & sets[s2])


def test_omega_borel_empty_iff_q_small():
    # Sigma = empty: nonempty exactly when q >= n
    for n in (2, 3):
        for p, q in ((n, 1), (n + 1, 1), (2 * n + 1, 2), (2 * n + 1, n),
                     (3 * n + 1, n + 1)):
            lvl = level_from_pq(n, p, q)
            if not isinstance(lvl, AdmissibleLevel):
                continue
            got = omega_theorem(set(), lvl)
            assert bool(got) == (q >= n)


def test_omega_full_parabolic_is_integral():
    # Sigma = all simple roots: the parabolic is g itself
    for n, p, q in ((2, 3, 2), (3, 4, 3), (3, 5, 2)):
        lvl = level_from_pq(n, p, q)
        sigma = set(range(1, n))
        assert omega_theorem(sigma, lvl) == pr_k_integral(lvl)


def test_omega_certificates():
    lvl = level_from_pq(2, 3, 2)
    certs = omega_certificates(set(), lvl)
    lams = omega_direct(set(), lvl)
    assert len(certs) == len(lams)  # one positive root for sl2
    assert {c["lambda"] for c in certs} == set(lams)
    assert all(c["alpha"] == RS2.positive_roots[0] for c in certs)


def test_dominant_coweights_count():
    # nonnegative integer vectors with coordinate sum <= 2, rank 2: C(4,2)=6
    assert len(dominant_coweights(RS3, 2)) == 6


# -- partitions and orbits ----------------------------------------------------------

def test_transpose_involution():
    for n in (4, 5, 6):
        for p in all_partitions(n):
            assert transpose(transpose(p)) == p


def test_orbit_dims_sl3():
    assert orbit_dim((1, 1, 1)) == 0
    assert orbit_dim((2, 1)) == 4      # minimal, 2 h_vee - 2
    assert orbit_dim((3,)) == 6        # regular, dim g - rank g


def test_orbit_labels_n4():
    assert orbit_labels(4, (1, 1, 1, 1)) == ["zero"]
    assert orbit_labels(4, (2, 1, 1)) == ["min"]
    assert orbit_labels(4, (3, 1)) == ["subreg"]
    assert orbit_labels(4, (4,)) == ["reg"]
    assert orbit_labels(4, (2, 2)) == []


def test_dominance():
    assert dominance_leq((1, 1, 1, 1), (2, 2))
    assert dominance_leq((2, 2), (3, 1))
    assert not dominance_leq((3, 1), (2, 2))
    with pytest.raises(SizeMismatch):
        dominance_leq((2, 1), (2, 2))
    with pytest.raises(SizeMismatch):
        transpose((1, 2))


def test_hasse_n4_is_a_chain():
    assert hasse_covers(4) == [
        ((1, 1, 1, 1), (2, 1, 1)), ((2, 1, 1), (2, 2)),
        ((2, 2), (3, 1)), ((3, 1), (4,))]


def test_orbit_table_n2_to_5():
    for n in (2, 3, 4, 5):
        rows = orbit_table(n)
        dims = {lab: r["dim"] for r in rows for lab in r["labels"]}
        assert dims["zero"] == 0
        assert dims["reg"] == n * n - 1 - (n - 1)
        if n >= 2:
            assert dims["min"] == 2 * n - 2
        if n >= 3:
            assert dims["subreg"] == n * n - 1 - (n - 1) - 2


def test_levi_blocks_and_richardson():
    assert levi_blocks(set(), 4) == (1, 1, 1, 1)
    assert levi_blocks({1, 2, 3}, 4) == (4,)
    assert levi_blocks({1, 3}, 4) == (2, 2)
    assert richardson(set(), 4) == (4,)
    assert richardson({1, 2, 3}, 4) == (1, 1, 1, 1)
    assert richardson({1, 3}, 4) == (2, 2)
    assert orbit_dim(richardson({1, 3}, 4)) == 8


def test_richardson_dimension_identity_small_n():
    # the 2|Delta_+^u| assertion inside richardson() holds for every parabolic
    for n in range(2, 7):
        for r in range(n):
            for s in combinations(range(1, n), r):
                richardson(set(s), n)


def test_orbit_q():
    assert orbit_q(4, 3) == (3, 1)
    assert orbit_q(4, 2) == (2, 2)
    assert orbit_q(4, 5) == (4,)
    assert orbit_q(5, 2) == (2, 2, 1)
    with pytest.raises(SizeMismatch):
        orbit_q(4, 0)


def test_richardson_dominated_by_orbit_q():
    # whenever Omega_k(p_Sigma) is nonempty, the Richardson orbit of p_Sigma
    # is dominated by the distinguished orbit of the denominator
    for n in (2, 3, 4):
        for p in range(n, n + 4):
            for q in range(1, n + 2):
                lvl = level_from_pq(n, p, q)
                if not isinstance(lvl, AdmissibleLevel):
                    continue
                for r in range(n):
                    for s in combinations(range(1, n), r):
                        sigma = set(s)
                        if n <= 3 and omega_theorem(sigma, lvl):
                            assert dominance_leq(richardson(sigma, n),
                                                 orbit_q(n, lvl.q))
