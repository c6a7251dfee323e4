from fractions import Fraction as Fr
from itertools import product

import pytest

from wakimoto.errors import ModuleMismatch
from wakimoto.liealg import basis_symbols, bracket_symbols, kappa0_symbols
from wakimoto.relaxed import (RelaxedModule, character_relaxed_verma,
                              character_relaxed_wakimoto,
                              coinvariants_character, enum_root_decompositions,
                              find_singular_vectors, relaxed_verma_act,
                              top_component_check)
from wakimoto.rootdata import Weight, build_root_system, pairing
from wakimoto.sparse import added as vec_add

RS2 = build_root_system(2)
RS3 = build_root_system(3)
LAM2 = Weight((Fr(2, 3),))
K = Fr(1, 2)


def test_top_must_be_valid():
    with pytest.raises(ModuleMismatch):
        RelaxedModule(RS2, "bogus", LAM2, K)
    with pytest.raises(ModuleMismatch):
        RelaxedModule(RS2, "GT", LAM2, K)


def test_e1_f_minus1_on_vacuum():
    mod = RelaxedModule(RS2, "V", LAM2, K)
    v = relaxed_verma_act(mod, ("f", 0), -1, mod.vacuum())
    v = relaxed_verma_act(mod, ("e", 0), 1, v)
    scalar = pairing(RS2, LAM2, RS2.positive_roots[0]) + K
    assert v == {((), (0,)): scalar}


def test_positive_modes_kill_vacuum():
    mod = RelaxedModule(RS2, "V", LAM2, K)
    for sym in basis_symbols(RS2):
        for m in (1, 2, 3):
            assert relaxed_verma_act(mod, sym, m, mod.vacuum()) == {}


def test_gt_top_f_zero_is_derivative():
    mod = RelaxedModule(RS2, "GT", LAM2, K, alpha_idx=0)
    for j in range(1, 5):
        v = {((), (j,)): Fr(1)}
        assert relaxed_verma_act(mod, ("f", 0), 0, v) == \
            {((), (j - 1,)): Fr(-j)}
    assert relaxed_verma_act(mod, ("f", 0), 0, {((), (0,)): Fr(1)}) == {}


def test_pbw_confluence_sl2():
    # the straightening engine reproduces the mode commutation relations
    mod = RelaxedModule(RS2, "V", LAM2, K)
    vecs = [((), (0,)), (((1, 2),), (1,)), (((2, 0), (1, 1)), (0,))]
    syms = basis_symbols(RS2)
    for s1, s2 in product(syms, repeat=2):
        for m in (-2, -1, 0, 1, 2):
            for n in (-2, -1, 0, 1, 2):
                for be in vecs:
                    v = {be: Fr(1)}
                    ab = relaxed_verma_act(
                        mod, s1, m, relaxed_verma_act(mod, s2, n, v))
                    ba = relaxed_verma_act(
                        mod, s2, n, relaxed_verma_act(mod, s1, m, v))
                    lhs = vec_add(ab, ba, -Fr(1))
                    rhs = {}
                    for s3, c in bracket_symbols(RS2, s1, s2).items():
                        rhs = vec_add(
                            rhs, relaxed_verma_act(mod, s3, m + n, v), c)
                    if m == -n:
                        rhs = vec_add(rhs, v,
                                      Fr(m) * K * kappa0_symbols(RS2, s1, s2))
                    assert lhs == rhs


def test_act_results_are_not_cached_dicts():
    mod = RelaxedModule(RS2, "V", LAM2, K)
    v = {(((1, 2),), (1,)): Fr(1)}
    first = relaxed_verma_act(mod, ("e", 0), 1, v)
    expect = dict(first)
    assert expect
    first.clear()
    assert relaxed_verma_act(mod, ("e", 0), 1, v) == expect


def test_pbw_confluence_sl3_spot():
    lam = Weight((Fr(1, 3), Fr(2)))
    mod = RelaxedModule(RS3, "V", lam, Fr(-3, 2))
    th = RS3.root_index[(1, 1)]
    vac = mod.vacuum()
    v = relaxed_verma_act(mod, ("f", th), -1, vac)
    pairs = [((("e", 0), 1), (("f", 0), -1)),
             ((("e", th), 1), (("f", th), -1)),
             ((("h", 0), 1), (("h", 1), -1)),
             ((("e", 0), 0), (("e", 1), -2))]
    for (s1, m), (s2, n) in pairs:
        for base in (vac, v):
            ab = relaxed_verma_act(mod, s1, m,
                                   relaxed_verma_act(mod, s2, n, base))
            ba = relaxed_verma_act(mod, s2, n,
                                   relaxed_verma_act(mod, s1, m, base))
            lhs = vec_add(ab, ba, -Fr(1))
            rhs = {}
            for s3, c in bracket_symbols(RS3, s1, s2).items():
                rhs = vec_add(rhs, relaxed_verma_act(mod, s3, m + n, base), c)
            if m == -n:
                rhs = vec_add(rhs, base,
                              Fr(m) * mod.k * kappa0_symbols(RS3, s1, s2))
            assert lhs == rhs


# -- characters --------------------------------------------------------------------

def test_degree_zero_is_top_character():
    ch = character_relaxed_verma(RS2, "GT", LAM2, 0, 2, 6)
    d0 = {wt: m for (wt, d), m in ch.items() if d == 0}
    from wakimoto.weylpoly import twist_character
    assert d0 == twist_character(RS2, LAM2, 0, 6)


def test_gt_degree_zero_spectrum_sl2():
    ch = character_relaxed_verma(RS2, "GT", LAM2, 0, 1, 8)
    d0 = sorted(wt.coords[0] for (wt, d), m in ch.items() if d == 0)
    assert d0 == [LAM2.coords[0] + 2 + 2 * j for j in range(8)]


def test_degree_one_generator_count_is_dim_g():
    # at degree 1 over the vacuum line: one monomial per basis element of g
    ch = character_relaxed_verma(RS2, "V", LAM2, None, 1, 6)
    top_wt = LAM2
    a = RS2.root_to_weight(RS2.positive_roots[0])
    assert ch[(top_wt + a, 1)] == 1      # e_{-1}
    assert ch[(top_wt, 1)] == 2          # h_{-1}, plus e_{-1} f_0-level
    # total over the three weights hit from the vacuum: dim sl2 families
    vals = [ch[(top_wt + a, 1)]]
    assert vals[0] == 1


def test_character_identity_sl2():
    for lam_c in (Fr(0), Fr(2, 3), Fr(-1, 2)):
        lam = Weight((lam_c,))
        for top, ai in (("V", None), ("GT", 0)):
            a = character_relaxed_verma(RS2, top, lam, ai, 3, 6)
            b = character_relaxed_wakimoto(RS2, top, lam, ai, 3, 6)
            assert a == b


def test_character_identity_sl3_theta():
    lam = Weight((Fr(1, 3), Fr(2)))
    th = RS3.root_index[(1, 1)]
    a = character_relaxed_verma(RS3, "GT", lam, th, 2, 4, kcap=20)
    b = character_relaxed_wakimoto(RS3, "GT", lam, th, 2, 4, kcap=20)
    assert a == b
    assert any(isinstance(m, tuple) for m in a.values())


def test_enum_root_decompositions():
    # theta = a1 + a2 two ways: b_theta = 1, or b_a1 = b_a2 = 1
    decs = enum_root_decompositions(RS3, (1, 1))
    assert len(decs) == 2
    assert enum_root_decompositions(RS3, (0, 0)) == [(0, 0, 0)]
    assert enum_root_decompositions(RS3, (-1, 0)) == []


# -- diagnostics -------------------------------------------------------------------

def test_top_component_check_sl2():
    assert top_component_check(2, LAM2, K, max_degree=6) == []


def test_singular_vector_annihilation():
    # every reported vector is actually killed by e_0 and f_{theta,1}
    lam = Weight((Fr(0),))
    k = Fr(-1, 2)
    found = find_singular_vectors(RS2, lam, k, 4)
    assert found
    mod = RelaxedModule(RS2, "V", lam, k)
    for d, delta, vec in found:
        assert relaxed_verma_act(mod, ("e", 0), 0, vec) == {}
        assert relaxed_verma_act(mod, ("f", 0), 1, vec) == {}
        # and by the derived positive modes too
        assert relaxed_verma_act(
            mod, ("h", 0), 1, vec) == {}


def test_no_singular_vectors_generic():
    assert find_singular_vectors(RS2, Weight((Fr(1, 5),)), Fr(7, 3), 2) == []


def test_coinvariants_degree_zero_sl2():
    # M(lam)/f M(lam) has a single degree-0 line, at weight lam
    table = coinvariants_character(RS2, LAM2, K, 0, 1, 6)
    d0 = {wt: m for (wt, d), m in table.items() if d == 0}
    assert d0 == {LAM2: 1}


def test_f_alpha_locally_nilpotent_on_sl2_gt_top():
    # on the energy-0 slice of the sl2 GT module f acts as -d/dx: nilpotent
    mod = RelaxedModule(RS2, "GT", LAM2, K, alpha_idx=0)
    v = {((), (5,)): Fr(1)}
    for _ in range(6):
        v = relaxed_verma_act(mod, ("f", 0), 0, v)
    assert v == {}


def test_f_simple_not_nilpotent_on_sl3_theta_top():
    # on the theta-twisted top a simple-root f_0 keeps multiplying by the
    # untwisted d-variable: injective, never locally nilpotent
    lam = Weight((Fr(1, 3), Fr(2)))
    a1 = RS3.root_index[(1, 0)]
    mod = RelaxedModule(RS3, "GT", lam, Fr(-3, 2),
                        alpha_idx=RS3.root_index[(1, 1)])
    v = {((), (0, 0, 0)): Fr(1)}
    for _ in range(8):
        v = relaxed_verma_act(mod, ("f", a1), 0, v)
        assert v != {}
