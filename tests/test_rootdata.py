import random
from fractions import Fraction as Fr
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wakimoto import rootdata
from wakimoto.errors import RealizationBug, WakimotoError
from wakimoto.rootdata import (Weight, all_weyl_elements,
                               build_root_system, pairing, rho, theta)


# -- the Weyl group on Fraction epsilon vectors -----------------------------------
#
# The oracle of the int epsilon vectors in `admissible`: weights as sum-zero
# vectors in Q^n, and the permutations of all_weyl_elements acting on them.

def weight_to_eps(rs, lam):
    """Sum-zero vector in Q^n representing lam."""
    v = [Fr(0)] * rs.n
    for i, c in enumerate(lam.coords):
        # omega_{i+1} = e_1 + ... + e_{i+1} - ((i+1)/n)(e_1+...+e_n)
        for j in range(i + 1):
            v[j] += c
        shift = Fr(c * (i + 1), rs.n)
        for j in range(rs.n):
            v[j] -= shift
    return v


def eps_to_weight(rs, v):
    return Weight(tuple(v[i] - v[i + 1] for i in range(rs.rank)))


def weyl_act(rs, perm, lam):
    """Action of the permutation on a weight (via epsilon coordinates)."""
    v = weight_to_eps(rs, lam)
    w = [Fr(0)] * rs.n
    for j in range(rs.n):
        w[perm[j]] = v[j]
    return eps_to_weight(rs, w)


def weyl_act_root(rs, perm, alpha):
    """Action on a positive root; returns its coefficient tuple (possibly
    the negative of a positive root's).  w(eps_i - eps_j) =
    eps_{perm[i]} - eps_{perm[j]}, and eps_a - eps_b is +-1 on the simple
    coordinates between a and b."""
    i, j = rs.root_pair(alpha)
    a, b = perm[i], perm[j]
    sign = 1 if a < b else -1
    lo, hi = min(a, b), max(a, b)
    return tuple(sign if lo <= t < hi else 0 for t in range(rs.rank))


def dot_action(rs, perm, lam):
    """perm . lam = perm(lam + rho) - rho."""
    r = rho(rs)
    return weyl_act(rs, perm, lam + r) - r


def weight_inner(rs, lam, mu):
    """kappa_0-induced form on h*, computed in epsilon coordinates (also the
    affine-weight oracle's form in test_admissible)."""
    v = weight_to_eps(rs, lam)
    u = weight_to_eps(rs, mu)
    return sum((a * b for a, b in zip(v, u)), Fr(0))


def test_basic_counts():
    for n in (2, 3, 4, 5):
        rs = build_root_system(n)
        assert rs.rank == n - 1
        assert len(rs.positive_roots) == n * (n - 1) // 2
        assert rs.h == rs.h_dual == n


def test_positive_root_order_sl3():
    rs = build_root_system(3)
    assert rs.positive_roots == [(0, 1), (1, 0), (1, 1)]
    assert rs.simple_indices == [1, 0]


def test_theta_is_highest():
    for n in (2, 3, 4):
        rs = build_root_system(n)
        th = theta(rs)
        assert th == (1,) * rs.rank
        assert all(sum(th) >= sum(a) for a in rs.positive_roots)


def test_invalid_rank():
    with pytest.raises(WakimotoError, match="need n >= 2, got 1"):
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
    with pytest.raises(WakimotoError, match="rank mismatch in pairing"):
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
        s = list(range(rs.n))
        s[i], s[i + 1] = s[i + 1], s[i]
        img = weyl_act_root(rs, s, rs.simple_roots[i])
        assert img == tuple(-c for c in rs.simple_roots[i])


def test_weyl_act_root_matches_weyl_act():
    # the eps-index permutation agrees with acting on the root as a weight
    for n in (2, 3, 4, 5):
        rs = build_root_system(n)
        for w in all_weyl_elements(rs):
            for a in rs.positive_roots:
                assert rs.root_to_weight(weyl_act_root(rs, w, a)) == \
                    weyl_act(rs, w, rs.root_to_weight(a))


def test_weyl_act_preserves_inner():
    rs = build_root_system(3)
    lam = Weight((Fr(1, 2), Fr(3)))
    mu = Weight((Fr(-2), Fr(1, 5)))
    for w in all_weyl_elements(rs):
        assert weight_inner(rs, weyl_act(rs, w, lam), weyl_act(rs, w, mu)) \
            == weight_inner(rs, lam, mu)


def test_dot_action_fixed_point():
    # -rho is the fixed point of the dot action
    rs = build_root_system(3)
    mr = Weight((-1, -1))
    for w in all_weyl_elements(rs):
        assert dot_action(rs, w, mr) == mr


def test_eps_round_trip():
    rs = build_root_system(4)
    lam = Weight((Fr(1, 3), Fr(-2), Fr(7, 5)))
    assert eps_to_weight(rs, weight_to_eps(rs, lam)) == lam
    assert sum(weight_to_eps(rs, lam)) == 0


def test_root_pair():
    rs = build_root_system(4)
    for a in rs.positive_roots:
        i, j = rs.root_pair(a)
        assert a == tuple(1 if i <= t < j else 0 for t in range(rs.rank))


def test_frac_str():
    assert rootdata.frac_str(Fr(-1, 2)) == "-1/2"
    assert rootdata.frac_str(Fr(4, 2)) == "2"


def test_root_label():
    rs = build_root_system(3)
    assert rootdata.root_label(rs.positive_roots[2]) == "a1+a2"
    assert rootdata.root_label((1, 0)) == "a1"


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
    roots = rs.positive_roots
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
    roots = rs.positive_roots
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


def _brute_lattice_counts(starts, gens, floors, bound):
    # every b_g below bound; the callers check that bound + 1 adds nothing
    out = {}
    for s, cnt in starts.items():
        for b in product(range(bound), repeat=len(gens)):
            end = tuple(x - sum(k * g[t] for k, g in zip(b, gens))
                        for t, x in enumerate(s))
            if all(f is None or x >= f for x, f in zip(end, floors)):
                out[end] = out.get(end, 0) + cnt
    return out


def _unpacked_counts(starts, gens, floors):
    """rootdata.lattice_counts with its codes unpacked into tuples."""
    return {rootdata.unpack(c, len(floors)): m for c, m in
            rootdata.lattice_counts(starts, gens, floors).items()}


_point = st.lists(st.integers(-2, 3), min_size=2, max_size=2).map(tuple)


@settings(max_examples=60, deadline=None)
@given(starts=st.dictionaries(_point, st.integers(1, 3), max_size=3),
       gens=st.lists(st.lists(st.integers(0, 2), min_size=2, max_size=2)
                     .map(tuple).filter(any), max_size=3),
       floor=st.integers(-2, 1))
def test_lattice_counts_with_a_floor_match_brute_force(starts, gens, floor):
    # nonnegative generators and every coordinate >= floor, as the top
    # characters use them
    floors = (floor, floor)
    bound = 3 - floor + 1
    expect = _brute_lattice_counts(starts, gens, floors, bound)
    assert expect == _brute_lattice_counts(starts, gens, floors, bound + 1)
    assert _unpacked_counts(starts, gens, floors) == expect


@settings(max_examples=60, deadline=None)
@given(dmax=st.integers(0, 4),
       gens=st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2),
                               st.integers(1, 3)), max_size=3))
def test_lattice_counts_on_one_coordinate_match_brute_force(dmax, gens):
    # any weight and a positive last coordinate (an energy), kept while the
    # energy left is >= 0, as the mode-monomial tables use them
    floors = (None, None, 0)
    starts = {(0, 0, dmax): 1}
    expect = _brute_lattice_counts(starts, gens, floors, dmax + 1)
    assert expect == _brute_lattice_counts(starts, gens, floors, dmax + 2)
    assert _unpacked_counts(starts, gens, floors) == expect


@st.composite
def _open_walks(draw):
    """(starts, gens, floors) in 2 or 3 coordinates: at least one floor and
    some None; a generator is 0..2 on each floored coordinate, positive on
    one of them, and -2..2 on the others."""
    dim = draw(st.integers(2, 3))
    floors = draw(st.lists(st.one_of(st.none(), st.integers(-2, 1)),
                           min_size=dim, max_size=dim)
                  .filter(lambda fs: any(f is not None for f in fs)))
    floored = [t for t, f in enumerate(floors) if f is not None]

    def gen(draw_t):
        t0 = draw_t(st.sampled_from(floored))
        return tuple(
            draw_t(st.integers(1, 2)) if t == t0 else
            draw_t(st.integers(0, 2)) if floors[t] is not None else
            draw_t(st.integers(-2, 2)) for t in range(dim))

    gens = [gen(draw) for _ in range(draw(st.integers(0, 3)))]
    point = st.lists(st.integers(-2, 3), min_size=dim, max_size=dim)
    starts = draw(st.dictionaries(point.map(tuple), st.integers(1, 3),
                                  max_size=3))
    return starts, gens, tuple(floors)


@settings(max_examples=80, deadline=None)
@given(_open_walks())
def test_lattice_counts_with_open_coordinates_match_brute_force(walk):
    # floors with None, negative entries on the open coordinates, and
    # several starts: a generator is taken at most 3 - (-2) = 5 times
    starts, gens, floors = walk
    expect = _brute_lattice_counts(starts, gens, floors, 6)
    assert expect == _brute_lattice_counts(starts, gens, floors, 7)
    assert _unpacked_counts(starts, gens, floors) == expect


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-2 ** 30, 2 ** 30 - 1), min_size=1, max_size=4))
def test_codes_round_trip(coords):
    code = rootdata.pack(coords)
    assert rootdata.unpack(code, len(coords)) == tuple(coords)
    # codes add and subtract as points, with no carry between fields
    half = [c // 2 for c in coords]
    assert rootdata.pack(coords) - rootdata.pack(half) + \
        rootdata.pack([0] * len(coords)) == \
        rootdata.pack([c - h for c, h in zip(coords, half)])


def test_a_coordinate_past_the_packed_range_is_a_realization_bug():
    # a field holds c + 2^30 below its guard bit 31: c in [-2^30, 2^30)
    for c in (2 ** 30, -2 ** 30 - 1, 2 ** 31):
        with pytest.raises(RealizationBug):
            rootdata.pack((0, c))
    with pytest.raises(RealizationBug):
        rootdata.lattice_counts({(0,): 1}, [(1,)], (-2 ** 30 - 1,))
    # a start at the edge and a walk that would cross it: (-2^30 + 1, 3)
    # down by (1, 1) reaches (-2^30 - 1, 1), whose field 0 would borrow
    # from field 1, which the floor of field 1 would then pass
    start = {(-2 ** 30 + 1, 3): 1}
    with pytest.raises(RealizationBug):
        rootdata.lattice_counts(start, [(1, 1)], (None, 0))
    # one step down from the start, below the floor, would carry field 0
    # into field 1 and so pass field 1's floor
    with pytest.raises(RealizationBug):
        rootdata.lattice_counts({(0, 0): 1}, [(-3 * 2 ** 30, 1)], (None, 0))
    # a ray that would run up past 2^30 on an open coordinate
    with pytest.raises(RealizationBug):
        rootdata.lattice_counts({(5, 2 ** 30 - 3): 1}, [(1, -1)], (0, None))
    # inside the range the same walks count
    assert _unpacked_counts({(-2 ** 30 + 5, 3): 1}, [(1, 1)], (None, 0)) == \
        {(-2 ** 30 + 5 - k, 3 - k): 1 for k in range(4)}


def test_a_walk_that_would_not_end_is_a_realization_bug():
    # a generator must lower a floored coordinate and raise none
    for gens, floors in (([(0, 1)], (0, None)), ([(1, -1)], (0, 0)),
                         ([(0, 0)], (0, 0))):
        with pytest.raises(RealizationBug):
            rootdata.lattice_counts({(1, 1): 1}, gens, floors)


def test_bounded_degree_exponents_match_brute_force():
    # the unit-root case: root_combinations over nvars roots (1,) from
    # (dmax,) gives every exponent tuple of total degree <= dmax, in
    # lexicographic order
    for nvars in range(5):
        for dmax in range(-1, 6):
            expect = [e for e in product(range(dmax + 2), repeat=nvars)
                      if sum(e) <= dmax]
            got = rootdata.root_combinations([(1,)] * nvars, (dmax,), 0)
            assert [e for e, _ in got] == expect


def test_offset_weight():
    rs = build_root_system(3)
    lam = Weight((Fr(1, 3), Fr(2)))
    assert rootdata.offset_weight(rs, lam, (0, 0)) == lam
    assert rootdata.offset_weight(rs, lam, (1, 0)) == lam + Weight((2, -1))
    assert rootdata.offset_weight(rs, lam, (-1, 2)) == \
        lam + Weight((-4, 5))


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(-5, 5), min_size=n - 1, max_size=n - 1),
    st.lists(st.fractions(-2, 2, max_denominator=4), min_size=n - 1,
             max_size=n - 1))))
def test_root_offset_inverts_offset_weight(case):
    n, c, lam = case
    rs = build_root_system(n)
    lam = Weight(tuple(lam))
    mu = rootdata.offset_weight(rs, lam, tuple(c))
    assert rootdata.root_offset(rs, lam, mu) == tuple(c)
    # omega_1 is not in the root lattice
    omega1 = Weight((1,) + (0,) * (n - 2))
    assert rootdata.root_offset(rs, lam, mu + omega1) is None
