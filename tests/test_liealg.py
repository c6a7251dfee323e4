from fractions import Fraction as Fr
from itertools import product

from wakimoto.liealg import (LieElement, basis_symbols, bracket,
                             bracket_symbols, casimir_s_alpha, h_alpha,
                             kappa0_symbols, matrix_to_lie, render,
                             symbol_matrix)
from wakimoto.rootdata import build_root_system


def test_basis_size():
    for n in (2, 3, 4):
        rs = build_root_system(n)
        assert len(basis_symbols(rs)) == n * n - 1


def test_sl2_triple():
    rs = build_root_system(2)
    assert bracket_symbols(rs, ("e", 0), ("f", 0)) == {("h", 0): 1}
    assert bracket_symbols(rs, ("h", 0), ("e", 0)) == {("e", 0): 2}
    assert bracket_symbols(rs, ("h", 0), ("f", 0)) == {("f", 0): -2}


def test_sl3_ee_bracket():
    # [e_{a1}, e_{a2}] = E12 E23 - ... = e_theta with the matrix-unit sign
    rs = build_root_system(3)
    a1, a2, th = rs.root_index[(1, 0)], rs.root_index[(0, 1)], rs.root_index[(1, 1)]
    assert bracket_symbols(rs, ("e", a1), ("e", a2)) == {("e", th): 1}
    assert bracket_symbols(rs, ("e", a2), ("e", a1)) == {("e", th): -1}


def test_antisymmetry():
    rs = build_root_system(3)
    syms = basis_symbols(rs)
    for s1, s2 in product(syms, repeat=2):
        b12 = bracket_symbols(rs, s1, s2)
        b21 = bracket_symbols(rs, s2, s1)
        assert b12 == {s: -c for s, c in b21.items()}


def test_jacobi_sl3():
    rs = build_root_system(3)
    syms = basis_symbols(rs)
    zero = LieElement(rs)
    for s1, s2, s3 in product(syms, repeat=3):
        a = LieElement.basis(rs, s1)
        b = LieElement.basis(rs, s2)
        c = LieElement.basis(rs, s3)
        total = (bracket(a, bracket(b, c)) + bracket(b, bracket(c, a))
                 + bracket(c, bracket(a, b)))
        assert total == zero


def test_weight_of_root_vectors():
    # [h_i, e_alpha] = alpha(h_i) e_alpha
    for n in (2, 3, 4):
        rs = build_root_system(n)
        for i in range(rs.rank):
            for a_idx, alpha in enumerate(rs.positive_roots):
                w = rs.root_to_weight(alpha)
                assert bracket_symbols(rs, ("h", i), ("e", a_idx)) == (
                    {("e", a_idx): w.coords[i]} if w.coords[i] else {})


def test_h_alpha():
    rs = build_root_system(3)
    th = rs.root_index[(1, 1)]
    assert h_alpha(rs, th).coeffs == {("h", 0): 1, ("h", 1): 1}
    # [e_alpha, f_alpha] = h_alpha for every positive root
    for a_idx in range(len(rs.positive_roots)):
        got = bracket(LieElement.basis(rs, ("e", a_idx)),
                      LieElement.basis(rs, ("f", a_idx)))
        assert got == h_alpha(rs, a_idx)


def test_matrix_round_trip():
    rs = build_root_system(3)
    for s in basis_symbols(rs):
        assert matrix_to_lie(rs, symbol_matrix(rs, s)) == LieElement.basis(rs, s)


def test_kappa0_symbols():
    rs = build_root_system(3)
    syms = basis_symbols(rs)
    for s1 in syms:
        for s2 in syms:
            v = kappa0_symbols(rs, s1, s2)
            if s1[0] == s2[0] == "h":
                assert v == rs.cartan_matrix[s1[1]][s2[1]]
            elif {s1[0], s2[0]} == {"e", "f"} and s1[1] == s2[1]:
                assert v == 1
            else:
                assert v == 0


def test_kappa0_invariance():
    # kappa0([a,b],c) + kappa0(b,[a,c]) = 0
    rs = build_root_system(3)
    syms = basis_symbols(rs)

    def k0(x, y):
        return sum(c1 * c2 * kappa0_symbols(rs, s1, s2)
                   for s1, c1 in x.coeffs.items()
                   for s2, c2 in y.coeffs.items())

    for s1, s2, s3 in product(syms, repeat=3):
        a, b, c = (LieElement.basis(rs, s) for s in (s1, s2, s3))
        assert k0(bracket(a, b), c) + k0(b, bracket(a, c)) == 0


def test_casimir_shape():
    rs = build_root_system(2)
    terms = casimir_s_alpha(rs, 0)
    assert [c for c, _ in terms] == [Fr(1), Fr(1), Fr(1, 2)]


def test_render():
    rs = build_root_system(2)
    x = LieElement(rs, {("e", 0): Fr(1), ("f", 0): Fr(-1, 2)})
    assert render(x) == "e_{a1} - 1/2 f_{a1}"
    assert render(LieElement(rs)) == "0"
