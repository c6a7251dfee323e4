import random
from fractions import Fraction as Fr
from itertools import product

import pytest

from wakimoto import rootdata
from wakimoto.errors import DimensionError, InvalidRank
from wakimoto.rootdata import (Root, Weight, all_weyl_elements,
                               build_root_system, dot_action, pairing,
                               perm_compose, perm_from_word, rho,
                               simple_reflection, theta, weyl_act,
                               weyl_act_root)


def weight_inner(rs, lam, mu):
    """kappa_0-induced form on h*, computed in epsilon coordinates (also the
    affine-weight oracle's form in test_admissible)."""
    v = rs.weight_to_eps(lam)
    u = rs.weight_to_eps(mu)
    return sum((a * b for a, b in zip(v, u)), Fr(0))


def test_basic_counts():
    for n in (2, 3, 4, 5):
        rs = build_root_system(n)
        assert rs.rank == n - 1
        assert len(rs.positive_roots) == n * (n - 1) // 2
        assert rs.h == rs.h_dual == n


def test_positive_root_order_sl3():
    rs = build_root_system(3)
    assert [a.coeffs for a in rs.positive_roots] == [(0, 1), (1, 0), (1, 1)]
    assert rs.simple_indices == [1, 0]


def test_theta_is_highest():
    for n in (2, 3, 4):
        rs = build_root_system(n)
        th = theta(rs)
        assert th.coeffs == (1,) * rs.rank
        assert all(th.height >= a.height for a in rs.positive_roots)


def test_invalid_rank():
    with pytest.raises(InvalidRank):
        build_root_system(1)


def test_pairing_fundamental():
    rs = build_root_system(3)
    # <omega_i, alpha_j^vee> = delta_ij
    for i in range(rs.rank):
        w = Weight(tuple(1 if t == i else 0 for t in range(rs.rank)))
        for j, a in enumerate(rs.simple_roots):
            assert pairing(rs, w, a) == (1 if i == j else 0)


def test_pairing_rank_mismatch():
    rs = build_root_system(3)
    with pytest.raises(DimensionError):
        pairing(rs, Weight((1,)), rs.simple_roots[0])


def test_rho_theta_pairing():
    for n in (2, 3, 4, 5):
        rs = build_root_system(n)
        assert pairing(rs, rho(rs), theta(rs)) == n - 1


def test_weight_inner_norms():
    for n in (2, 3, 4):
        rs = build_root_system(n)
        for a in rs.positive_roots:
            w = rs.root_to_weight(a)
            assert weight_inner(rs, w, w) == 2


def test_weyl_group_size():
    import math
    for n in (2, 3, 4):
        rs = build_root_system(n)
        assert len(all_weyl_elements(rs)) == math.factorial(n)


def test_simple_reflection_on_simple_root():
    rs = build_root_system(3)
    for i in range(rs.rank):
        s = simple_reflection(rs, i)
        img = weyl_act_root(rs, s, rs.simple_roots[i])
        assert img.coeffs == tuple(-c for c in rs.simple_roots[i].coeffs)


def test_weyl_act_root_matches_weyl_act():
    # the eps-index permutation agrees with acting on the root as a weight
    for n in (2, 3, 4, 5):
        rs = build_root_system(n)
        for w in all_weyl_elements(rs):
            for a in rs.positive_roots:
                assert rs.root_to_weight(weyl_act_root(rs, w, a)) == \
                    weyl_act(rs, w, rs.root_to_weight(a))


def test_braid_relation_sl3():
    rs = build_root_system(3)
    s0, s1 = simple_reflection(rs, 0), simple_reflection(rs, 1)
    lhs = perm_compose(s0, perm_compose(s1, s0))
    rhs = perm_compose(s1, perm_compose(s0, s1))
    assert lhs == rhs


def test_weyl_act_preserves_inner():
    rs = build_root_system(3)
    lam = Weight((Fr(1, 2), Fr(3)))
    mu = Weight((Fr(-2), Fr(1, 5)))
    for w in all_weyl_elements(rs):
        assert weight_inner(rs, weyl_act(rs, w, lam), weyl_act(rs, w, mu)) \
            == weight_inner(rs, lam, mu)


def test_dot_action_word_and_perm_agree():
    rs = build_root_system(3)
    lam = Weight((Fr(2, 3), Fr(-1)))
    word = [0, 1, 0]
    perm = perm_from_word(rs, word)
    assert dot_action(rs, word, lam) == dot_action(rs, perm, lam)


def test_dot_action_fixed_point():
    # -rho is the fixed point of the dot action
    rs = build_root_system(3)
    mr = Weight((-1, -1))
    for w in all_weyl_elements(rs):
        assert dot_action(rs, w, mr) == mr


def test_eps_round_trip():
    rs = build_root_system(4)
    lam = Weight((Fr(1, 3), Fr(-2), Fr(7, 5)))
    assert rs.eps_to_weight(rs.weight_to_eps(lam)) == lam
    assert sum(rs.weight_to_eps(lam)) == 0


def test_root_pair():
    rs = build_root_system(4)
    for a in rs.positive_roots:
        i, j = rs.root_pair(a)
        assert a.coeffs == tuple(1 if i <= t < j else 0 for t in range(rs.rank))


def test_frac_str():
    assert rootdata.frac_str(Fr(-1, 2)) == "-1/2"
    assert rootdata.frac_str(Fr(4, 2)) == "2"


def test_root_label():
    rs = build_root_system(3)
    assert rootdata.root_label(rs.positive_roots[2]) == "a1+a2"
    assert rootdata.root_label(Root((1, 0))) == "a1"


# -- enumerators, against brute force --------------------------------------------

def _brute_root_combinations(roots, start, floor):
    # every b_g is at most max(start) - floor: each root has a positive entry
    bound = max(max(start) - floor, 0)
    out = []
    for b in product(range(bound + 1), repeat=len(roots)):
        end = tuple(s - sum(k * g[t] for k, g in zip(b, roots))
                    for t, s in enumerate(start))
        if all(c >= floor for c in end):
            out.append((b, end))
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_root_combinations_matches_brute_force(n):
    rs = build_root_system(n)
    roots = [g.coeffs for g in rs.positive_roots]
    r = rs.rank
    starts = [(0,) * r, (2,) * r, tuple(range(r, 0, -1)),
              (3,) + (-1,) * (r - 1)]
    # all roots, and a proper subset as the twisted characters use (empty
    # for sl2, so that no root covers a coordinate below the floor)
    for rts in (roots, roots[1:]):
        for start in starts:
            for floor in (0, -1, -2, 1):
                got = list(rootdata.root_combinations(rts, start, floor))
                assert got == _brute_root_combinations(rts, start, floor)
        # a start already below the floor yields nothing
        assert list(rootdata.root_combinations(rts, (0,) * r, 1)) == []


def test_root_combinations_matches_brute_force_on_random_inputs():
    # any nonzero nonnegative roots, such as the mode energies (m,) of the
    # mode monomials, in the lexicographic order of itertools.product
    rng = random.Random(8)
    for _ in range(300):
        r, nroots = rng.randint(1, 3), rng.randint(0, 4)
        roots = []
        while len(roots) < nroots:
            g = tuple(rng.randint(0, 2) for _ in range(r))
            if any(g):
                roots.append(g)
        start = tuple(rng.randint(-1, 4) for _ in range(r))
        floor = rng.randint(-1, 1)
        got = list(rootdata.root_combinations(roots, start, floor))
        assert got == _brute_root_combinations(roots, start, floor)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_exact_root_decompositions_match_brute_force(n):
    # floor 0, end 0: the decompositions target = sum b_g gamma_g
    rs = build_root_system(n)
    roots = [g.coeffs for g in rs.positive_roots]
    for target in ((0,) * rs.rank, (1,) * rs.rank, (2,) * rs.rank,
                   (2,) + (1,) * (rs.rank - 1), (-1,) + (0,) * (rs.rank - 1)):
        got = [b for b, end in rootdata.root_combinations(roots, target, 0)
               if not any(end)]
        expect = [b for b, end in _brute_root_combinations(roots, target, 0)
                  if not any(end)]
        assert got == expect
    # Kostant's partition function of theta in type A_r is 2^(r-1)
    assert len([b for b, end in rootdata.root_combinations(
        roots, (1,) * rs.rank, 0) if not any(end)]) == 2 ** (rs.rank - 1)


def test_bounded_degree_exponents_match_brute_force():
    for nvars in range(5):
        for dmax in range(-1, 5):
            expect = [e for e in product(range(dmax + 2), repeat=nvars)
                      if sum(e) <= dmax]
            assert list(rootdata.bounded_degree_exponents(nvars, dmax)) \
                == expect


def test_offset_weight():
    rs = build_root_system(3)
    lam = Weight((Fr(1, 3), Fr(2)))
    assert rootdata.offset_weight(rs, lam, (0, 0)) == lam
    assert rootdata.offset_weight(rs, lam, (1, 0)) == lam + Weight((2, -1))
    assert rootdata.offset_weight(rs, lam, (-1, 2)) == \
        lam + Weight((-4, 5))
