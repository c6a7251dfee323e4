import json
import math
from fractions import Fraction as Fr
from itertools import product

import pytest

from wakimoto import relaxed
from wakimoto.cli import main
from wakimoto.errors import RealizationBug
from wakimoto.liealg import basis_symbols, bracket_symbols, kappa0_symbols
from wakimoto.relaxed import (RelaxedModule, character_relaxed_verma,
                              character_relaxed_wakimoto,
                              find_singular_vectors, relaxed_verma_act)
from wakimoto.rootdata import (Weight, build_root_system, pairing,
                               root_combinations)
from wakimoto.sparse import add_into, add_term
from wakimoto.sparse import added as vec_add
from wakimoto.weylpoly import fock_apply, fock_terms, pi_g

from test_weylpoly import fock_oracle

RS2 = build_root_system(2)
RS3 = build_root_system(3)
LAM2 = Weight((Fr(2, 3),))
K = Fr(1, 2)


def test_e1_f_minus1_on_vacuum():
    mod = RelaxedModule(RS2, LAM2, K)
    v = relaxed_verma_act(mod, ("f", 0), -1, mod.vacuum())
    v = relaxed_verma_act(mod, ("e", 0), 1, v)
    scalar = pairing(RS2, LAM2, RS2.positive_roots[0]) + K
    assert v == {((), (0,)): scalar}


def test_positive_modes_kill_vacuum():
    mod = RelaxedModule(RS2, LAM2, K)
    for sym in basis_symbols(RS2):
        for m in (1, 2, 3):
            assert relaxed_verma_act(mod, sym, m, mod.vacuum()) == {}


def test_gt_top_f_zero_is_derivative():
    mod = RelaxedModule(RS2, LAM2, K, alpha_idx=0)
    for j in range(1, 5):
        v = {((), (j,)): Fr(1)}
        assert relaxed_verma_act(mod, ("f", 0), 0, v) == \
            {((), (j - 1,)): Fr(-j)}
    assert relaxed_verma_act(mod, ("f", 0), 0, {((), (0,)): Fr(1)}) == {}


def test_pbw_confluence_sl2():
    # the straightening engine reproduces the mode commutation relations
    mod = RelaxedModule(RS2, LAM2, K)
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
    mod = RelaxedModule(RS2, LAM2, K)
    v = {(((1, 2),), (1,)): Fr(1)}
    first = relaxed_verma_act(mod, ("e", 0), 1, v)
    expect = dict(first)
    assert expect
    first.clear()
    assert relaxed_verma_act(mod, ("e", 0), 1, v) == expect


def test_pbw_confluence_sl3_spot():
    lam = Weight((Fr(1, 3), Fr(2)))
    mod = RelaxedModule(RS3, lam, Fr(-3, 2))
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


# -- the Fraction straightening oracle ----------------------------------------

def _oracle_normalize(mod, factor_list, top, coeff, out):
    """Straighten an arbitrarily ordered factor list into PBW order in
    Fractions, swapping the first pair out of order, accumulating into
    out."""
    fl = list(factor_list)
    for i in range(len(fl) - 1):
        a, b = fl[i], fl[i + 1]
        if (-a[0], a[1]) > (-b[0], b[1]):
            _oracle_normalize(mod, fl[:i] + [b, a] + fl[i + 2:], top, coeff,
                              out)
            br = bracket_symbols(mod.rs, mod.syms[a[1]], mod.syms[b[1]])
            for sym2, c2 in br.items():
                merged = (fl[:i] + [(a[0] + b[0], mod.sym_index[sym2])]
                          + fl[i + 2:])
                _oracle_normalize(mod, merged, top, coeff * c2, out)
            return
    add_term(out, (tuple(fl), top), coeff)


def _oracle_act(mod, sym, m, factors, top, cache):
    """a^{(sym)}_m on one PBW basis element in Fractions, the top by pi_g;
    memoized in cache."""
    ckey = (sym, m, factors, top)
    hit = cache.get(ckey)
    if hit is not None:
        return hit
    rs = mod.rs
    out = {}
    if m < 0:
        _oracle_normalize(mod, [(-m, mod.sym_index[sym])] + list(factors),
                          top, Fr(1), out)
    elif not factors:
        if m == 0:
            terms = fock_terms(pi_g(rs, sym), rs, mod.lam)
            for exps, c in fock_apply(terms, mod.alpha_idx,
                                      {top: Fr(1)}).items():
                out[((), exps)] = c
    else:
        b = factors[0]
        rest = factors[1:]
        bsym = mod.syms[b[1]]
        for (f2, t2), c in _oracle_act(mod, sym, m, rest, top,
                                       cache).items():
            _oracle_normalize(mod, [b] + list(f2), t2, c, out)
        for sym2, c2 in bracket_symbols(rs, sym, bsym).items():
            add_into(out, _oracle_act(mod, sym2, m - b[0], rest, top, cache),
                     c2)
        if m == b[0]:
            kap = kappa0_symbols(rs, sym, bsym)
            if kap:
                add_term(out, (rest, top), m * mod.k * kap)
    cache[ckey] = out
    return out


@pytest.mark.parametrize("n,k,lam,D", [
    (2, Fr(-1, 2), (0,), 4), (2, Fr(7, 3), (Fr(1, 5),), 4),
    (2, Fr(-4, 3), (Fr(1, 3),), 4), (3, Fr(-3, 2), (0, 0), 1),
    (3, Fr(1, 2), (Fr(1, 3), Fr(1, 5)), 1)])
def test_int_action_equals_the_fraction_oracle(n, k, lam, D):
    # every basis element of the singular search's cells, under every
    # symbol at modes -2..2 (the search's e_{alpha_i,0} and f_{theta,1}
    # among them), on the Verma top and on the GT top along theta
    rs = build_root_system(n)
    lam = Weight(tuple(map(Fr, lam)))
    monomials = relaxed._mode_monomials(RelaxedModule(rs, lam, k), D)
    basis = [b for d in range(1, D + 1)
             for cell in relaxed._cells(monomials[d], rs.positive_roots,
                                        2 * D + 2).values()
             for b in cell]
    theta = rs.root_index[(1,) * rs.rank]
    for alpha_idx in (None, theta):
        mod = RelaxedModule(rs, lam, k, alpha_idx)
        cache = {}
        for sym in basis_symbols(rs):
            for m in range(-2, 3):
                for b in basis:
                    assert (relaxed_verma_act(mod, sym, m, {b: Fr(1)})
                            == _oracle_act(mod, sym, m, *b, cache))


def test_the_scale_is_fixed_on_the_first_action():
    # L = lcm(den k, den of the top scalars): at k = -4/3, lam = 1/5 the
    # top scalars lie in (1/5)Z, and every cached coefficient is an int
    mod = RelaxedModule(RS2, Weight((Fr(1, 5),)), Fr(-4, 3))
    assert mod.scale is None
    v = relaxed_verma_act(mod, ("f", 0), -1, mod.vacuum())
    v = relaxed_verma_act(mod, ("e", 0), 1, v)
    assert mod.scale == 15
    assert v == {((), (0,)): Fr(1, 5) - Fr(4, 3)}
    assert all(type(c) is int for res in mod._act_cache.values()
               for c in res.values())


def test_a_scale_without_den_k_is_a_realization_bug(monkeypatch):
    # never round: with L missing den k = 3, L k kappa0 is not integral (at
    # lam = 0 every top scalar is an int)
    monkeypatch.setattr(relaxed, "lcm",
                        lambda den_k, *dens: math.lcm(*dens))
    mod = RelaxedModule(RS2, Weight((Fr(0),)), Fr(7, 3))
    with pytest.raises(RealizationBug):
        relaxed_verma_act(mod, ("f", 0), -1, mod.vacuum())


def test_a_search_with_no_cells_computes_no_pi_g(capsys):
    # nothing acts at D = 0, so sl6, above pi_g's limit, is searched and
    # has no vectors
    assert main(["verify", "singular", "-n", "6", "-k", "1/2", "--lam",
                 "0,0,0,0,0", "-D", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["singular_vectors"] == []


# -- characters --------------------------------------------------------------------

def test_degree_zero_is_top_character():
    ch = character_relaxed_verma(RS2, LAM2, 0, 2, 6)
    d0 = {wt: m for (wt, d), m in ch.items() if d == 0}
    from wakimoto.weylpoly import twist_character
    assert d0 == twist_character(RS2, LAM2, 0, 6)


def test_gt_degree_zero_spectrum_sl2():
    ch = character_relaxed_verma(RS2, LAM2, 0, 1, 8)
    d0 = sorted(wt.coords[0] for (wt, d), m in ch.items() if d == 0)
    assert d0 == [LAM2.coords[0] + 2 + 2 * j for j in range(8)]


def test_degree_one_generator_count_is_dim_g():
    # at degree 1 over the vacuum line: one monomial per basis element of g
    ch = character_relaxed_verma(RS2, LAM2, None, 1, 6)
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
        for ai in (None, 0):
            a = character_relaxed_verma(RS2, lam, ai, 3, 6)
            b = character_relaxed_wakimoto(RS2, lam, ai, 3, 6)
            assert a == b


def test_character_identity_sl3_theta():
    lam = Weight((Fr(1, 3), Fr(2)))
    th = RS3.root_index[(1, 1)]
    a = character_relaxed_verma(RS3, lam, th, 2, 4)
    b = character_relaxed_wakimoto(RS3, lam, th, 2, 4)
    assert a == b
    assert any(isinstance(m, tuple) for m in a.values())


@pytest.mark.parametrize("n,radius", [(2, 6), (3, 4), (4, 1)])
def test_energy_zero_is_the_fock_oracle(n, radius):
    # the energy-0 slice of either relaxed character is the Fock top's
    # character, counted monomial by monomial; sl4 leaves out theta, whose
    # default cap makes (radius + 62)^3 points
    rs = build_root_system(n)
    lam = Weight(tuple(Fr(i + 1, 3) for i in range(rs.rank)))
    tops = [None] + [ai for ai, g in enumerate(rs.positive_roots)
                     if n < 4 or sum(g) < rs.rank]
    for ai in tops:
        expect = fock_oracle(rs, lam, ai, radius)
        for character in (character_relaxed_verma,
                          character_relaxed_wakimoto):
            ch = character(rs, lam, ai, 1, radius)
            assert {wt: m for (wt, d), m in ch.items() if d == 0} == expect


@pytest.mark.parametrize("n,dmax", [(2, 6), (3, 3), (4, 2)])
def test_mode_table_points_are_bounded(n, dmax):
    # _relaxed_character's work bound counts (dmax + 1)(2 dmax + 1)^rank
    # points (energy left, weight); a generator of energy m moves each root
    # coordinate by at most 1 <= m
    rs = build_root_system(n)
    pbw = [relaxed._root_shift(rs, sym) for sym in basis_symbols(rs)]
    for families in (pbw, pbw + [(0,) * rs.rank]):
        table = relaxed._mode_monomial_table(rs, families, dmax)
        assert sum(map(len, table.values())) <= \
            (dmax + 1) * (2 * dmax + 1) ** rs.rank


def _exact_oracle(mod, d):
    """(factors, weight shift) of every factor tuple of energy exactly d, from
    itertools.product over the counts of the generators a^{(s)}_{-n} in PBW
    order (n descending, s ascending), one mode level at a time; product
    gives the count vectors in lexicographic order."""
    rs = mod.rs
    nsyms = len(mod.syms)
    levels = [[(n, c) for c in product(range(d // n + 1), repeat=nsyms)
               if n * sum(c) <= d] for n in range(d, 0, -1)]
    out = []
    for parts in product(*levels):
        if sum(n * sum(c) for n, c in parts) != d:
            continue
        factors = tuple((n, s) for n, c in parts for s in range(nsyms)
                        for _ in range(c[s]))
        shift = [0] * rs.rank
        for _, s in factors:
            kind, idx = mod.syms[s]
            if kind != "h":
                sign = 1 if kind == "e" else -1
                for t, x in enumerate(rs.positive_roots[idx]):
                    shift[t] += sign * x
        out.append((factors, tuple(shift)))
    return out


def test_mode_monomials_exact_match_brute_force():
    # one enumeration up to dmax, grouped by energy, gives each energy's
    # monomials in the order of a separate exact-energy enumeration
    for rs, dmax in ((RS2, 5), (RS3, 3)):
        mod = RelaxedModule(rs, Weight((0,) * rs.rank), K)
        got = relaxed._mode_monomials(mod, dmax)
        assert sorted(got) == list(range(dmax + 1))
        for d in range(dmax + 1):
            assert got[d] == _exact_oracle(mod, d)


def _cells_oracle(rs, monomials, radius):
    """The cells by brute force: every monomial times every top exponent
    tuple b of bounded total degree, whose weight delta = shift - sum b_g g
    lands in the box |delta| <= radius."""
    roots = rs.positive_roots
    cells = {}
    for factors, wshift in monomials:
        # each root has height >= 1, so a b in the box has degree at most
        # sum(shift) + rank * radius
        degree = sum(wshift) + rs.rank * radius
        for b, _ in root_combinations([(1,)] * len(roots), (degree,), 0):
            delta = tuple(w - sum(x * g[t] for x, g in zip(b, roots))
                          for t, w in enumerate(wshift))
            if all(abs(c) <= radius for c in delta):
                cells.setdefault(delta, []).append((factors, b))
    return cells


def test_cells_match_brute_force():
    # at the search radius 2D + 2 no shift leaves the box from above; a
    # radius of 1 checks that edge too
    for rs, dmax in ((RS2, 4), (RS3, 2)):
        mod = RelaxedModule(rs, Weight((0,) * rs.rank), K)
        roots = rs.positive_roots
        for d in range(dmax + 1):
            monomials = _exact_oracle(mod, d)
            for radius in (1, 2 * dmax + 2):
                # list equality: each cell's basis in the oracle's order
                assert (relaxed._cells(monomials, roots, radius)
                        == _cells_oracle(rs, monomials, radius))


# -- singular vectors and GT tops --------------------------------------------------

def test_singular_vector_annihilation():
    # every reported vector is actually killed by e_0 and f_{theta,1}
    lam = Weight((Fr(0),))
    k = Fr(-1, 2)
    found = find_singular_vectors(RS2, lam, k, 4)
    assert found
    mod = RelaxedModule(RS2, lam, k)
    for d, delta, vec in found:
        assert relaxed_verma_act(mod, ("e", 0), 0, vec) == {}
        assert relaxed_verma_act(mod, ("f", 0), 1, vec) == {}
        # and by the derived positive modes too
        assert relaxed_verma_act(
            mod, ("h", 0), 1, vec) == {}


def test_vacuum_singular_vector_at_two_alpha():
    # the cell-basis column order decides which nullspace basis vector comes
    # out; pin the energy-4 vector at weight lam + 2 alpha term by term, in
    # basis order
    found = find_singular_vectors(RS2, Weight((Fr(0),)), Fr(-1, 2), 4)
    [vec] = [v for d, delta, v in found if (d, delta) == (4, (2,))]
    assert list(vec.items()) == [
        ((((1, 0), (1, 0), (1, 1), (1, 1)), (0,)), Fr(-1, 7)),
        ((((1, 0), (1, 0), (1, 0), (1, 2)), (0,)), Fr(-4, 7)),
        ((((1, 0), (1, 0), (1, 0), (1, 1)), (1,)), Fr(4, 7)),
        ((((1, 0), (1, 0), (1, 0), (1, 0)), (2,)), Fr(4, 7)),
        ((((2, 1), (1, 0), (1, 0)), (0,)), Fr(-1, 7)),
        ((((2, 0), (1, 0), (1, 1)), (0,)), Fr(3, 7)),
        ((((2, 0), (1, 0), (1, 0)), (1,)), Fr(-2, 7)),
        ((((2, 0), (2, 0)), (0,)), Fr(-15, 28)),
        ((((3, 0), (1, 0)), (0,)), Fr(1)),
    ]


def test_sl3_vacuum_singular_vectors():
    # (energy, shift, term count) of every vector of the sl3 vacuum module
    # at k = -3/2 up to energy 2
    found = find_singular_vectors(RS3, Weight((Fr(0), Fr(0))), Fr(-3, 2), 2)
    assert [(d, delta, len(v)) for d, delta, v in found] == [
        (2, (-3, -3), 127), (2, (-3, -1), 63), (2, (-1, -3), 63),
        (2, (-1, 1), 14), (2, (1, -1), 14), (2, (1, 1), 7)]


@pytest.mark.parametrize("n,D", [(2, 0), (2, 1), (2, 5), (2, 8), (3, 1),
                                 (3, 2), (4, 1)])
def test_singular_search_size_counts_the_cells(n, D):
    # the character count is the number of basis elements the search's
    # cells hold at energies 1..D
    rs = build_root_system(n)
    lam = Weight((Fr(1, 3),) * rs.rank)
    monomials = relaxed._mode_monomials(RelaxedModule(rs, lam, K), D)
    cells = sum(len(basis) for d in range(1, D + 1)
                for basis in relaxed._cells(monomials[d], rs.positive_roots,
                                            2 * D + 2).values())
    assert relaxed._search_size(rs, lam, D) == cells


def test_no_singular_vectors_generic():
    assert find_singular_vectors(RS2, Weight((Fr(1, 5),)), Fr(7, 3), 2) == []


def test_f_alpha_locally_nilpotent_on_sl2_gt_top():
    # on the energy-0 slice of the sl2 GT module f acts as -d/dx: nilpotent
    mod = RelaxedModule(RS2, LAM2, K, alpha_idx=0)
    v = {((), (5,)): Fr(1)}
    for _ in range(6):
        v = relaxed_verma_act(mod, ("f", 0), 0, v)
    assert v == {}


def test_f_simple_not_nilpotent_on_sl3_theta_top():
    # on the theta-twisted top a simple-root f_0 keeps multiplying by the
    # untwisted d-variable: injective, never locally nilpotent
    lam = Weight((Fr(1, 3), Fr(2)))
    a1 = RS3.root_index[(1, 0)]
    mod = RelaxedModule(RS3, lam, Fr(-3, 2), alpha_idx=RS3.root_index[(1, 1)])
    v = {((), (0, 0, 0)): Fr(1)}
    for _ in range(8):
        v = relaxed_verma_act(mod, ("f", a1), 0, v)
        assert v != {}
