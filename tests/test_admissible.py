from dataclasses import dataclass
from fractions import Fraction as Fr
from itertools import combinations

import pytest

from wakimoto.admissible import (MAX_ENUMERATION, AdmissibleLevel,
                                 admissible_check, all_partitions,
                                 check_regular_dominant, dominance_leq,
                                 dominant_coweights, enumeration_size,
                                 hasse_covers, level_from_pq, levi_blocks,
                                 omega_certificates, omega_direct,
                                 omega_theorem, orbit_dim, orbit_labels,
                                 orbit_q, orbit_table, pr_k_bar, pr_k_classes,
                                 pr_k_integral, richardson, sigma_roots,
                                 transpose, y_is_admissible)
from wakimoto.errors import SizeMismatch
from wakimoto.rootdata import (Weight, all_weyl_elements, build_root_system,
                               dot_action, rho, weyl_act)

from test_rootdata import weight_inner

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
#
# The affine-weight algebra below is an oracle: admissible computes only the
# finite projection w(lam + rho - (k + n) eta) - rho of the dot orbit, and the
# test checks it against the full action on lam + k Lambda0.

@dataclass(frozen=True)
class AffineWeight:
    """finite + a0*Lambda0 + d*delta, finite in fundamental-weight coords."""
    finite: Weight
    a0: Fr
    d: Fr

    def __add__(self, other):
        return AffineWeight(self.finite + other.finite, self.a0 + other.a0,
                            self.d + other.d)

    def scale(self, c):
        c = Fr(c)
        return AffineWeight(c * self.finite, c * self.a0, c * self.d)


def affine_inner(rs, x, y):
    """(.,.) extended by (Lambda0, delta) = 1, (Lambda0, Lambda0) =
    (delta, delta) = 0, h* orthogonal to both."""
    return weight_inner(rs, x.finite, y.finite) + x.a0 * y.d + x.d * y.a0


def t_translation(rs, eta, gamma):
    """t_eta(gamma) = gamma + (gamma,delta) eta
    - ((eta,eta)/2 (gamma,delta) + (gamma,eta)) delta."""
    gd = gamma.a0  # (gamma, delta)
    ge = weight_inner(rs, gamma.finite, eta)
    ee = weight_inner(rs, eta, eta)
    return AffineWeight(gamma.finite + gd * eta, gamma.a0,
                        gamma.d - (ee / 2 * gd + ge))


def affine_weyl_act(rs, w, eta, gamma):
    """(w, t_{-eta}) acting linearly: finite reflections fix Lambda0, delta."""
    g = t_translation(rs, -1 * eta, gamma)
    return AffineWeight(weyl_act(rs, w, g.finite), g.a0, g.d)


def rho_hat(rs):
    return AffineWeight(rho(rs), Fr(rs.n), Fr(0))


def affine_dot(rs, w, eta, gamma):
    rh = rho_hat(rs)
    moved = affine_weyl_act(rs, w, eta, gamma + rh)
    return moved + rh.scale(-1)


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


def test_finite_dot_matches_affine_dot():
    # every admissible y = w t_{-eta} and every lam in Pr_{k,Z}: the finite
    # dot action on lam - (k + n) eta is the h*-part of y.(lam + k Lambda0),
    # and pr_k_bar is the set of those h*-parts
    for n, pqs in ((2, ((2, 1), (3, 2), (5, 3), (5, 4))),
                   (3, ((4, 1), (3, 2), (4, 3), (5, 4))),
                   (4, ((5, 1), (5, 2), (4, 3), (5, 4)))):
        rs = build_root_system(n)
        for p, q in pqs:
            lvl = level_from_pq(n, p, q)
            assert isinstance(lvl, AdmissibleLevel)
            t = lvl.k + n
            orbit = set()
            for w in all_weyl_elements(rs):
                for eta in dominant_coweights(rs, q - 1):
                    if not y_is_admissible(rs, w, eta, q):
                        continue
                    for lam in pr_k_integral(lvl):
                        g = AffineWeight(lam, lvl.k, Fr(0))
                        finite = affine_dot(rs, w, eta, g).finite
                        assert dot_action(rs, w, lam - t * eta) == finite
                        orbit.add(finite)
            assert pr_k_bar(lvl) == sorted(orbit, key=lambda x: x.coords)


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
    weights = pr_k_bar(lvl)
    classes = pr_k_classes(lvl, weights)
    flat = sorted((w for c in classes for w in c), key=lambda x: x.coords)
    assert flat == weights
    assert all(c for c in classes)



def test_enumeration_size_counts_the_enumerated_triples():
    # |W| x #eta x #Pr_{k,Z}, counted from the enumerators themselves
    for n, p, q in ((2, 3, 2), (3, 4, 3), (3, 7, 2), (4, 5, 4), (4, 7, 3)):
        lvl = level_from_pq(n, p, q)
        rs = build_root_system(n)
        assert enumeration_size(lvl) == (len(all_weyl_elements(rs))
                                         * len(dominant_coweights(rs, q - 1))
                                         * len(pr_k_integral(lvl)))
    # the largest Weyl group still runs; p and q can make it too large
    assert enumeration_size(level_from_pq(8, 8, 1)) == 40320 <= MAX_ENUMERATION
    assert enumeration_size(level_from_pq(7, 9, 2)) == 987840 > MAX_ENUMERATION


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
    lams = omega_direct(set(), lvl)
    certs = omega_certificates(set(), lvl, lams)
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
