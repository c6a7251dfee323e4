"""Chevalley basis and bracket for sl_n via matrix units.

Basis symbols are tuples: ("e", a), ("h", i), ("f", a) where a indexes
rs.positive_roots and i is a 0-based Cartan index.  Structure constants come
from the matrix-unit realization e_{eps_i - eps_j} = E_ij (i < j), f = E_ji,
h_i = E_ii - E_{i+1,i+1}, so all constants are 0, +-1 (type A) and signs are
unambiguous.
"""

from fractions import Fraction

from .sparse import add_term

ZERO = Fraction(0)


def basis_symbols(rs):
    """Canonical ordering of the Chevalley basis: e's, then h's, then f's."""
    syms = [("e", a) for a in range(len(rs.positive_roots))]
    syms += [("h", i) for i in range(rs.rank)]
    syms += [("f", a) for a in range(len(rs.positive_roots))]
    return syms


def symbol_matrix(rs, sym):
    """Sparse n x n matrix {(i,j): coeff} of a basis symbol."""
    kind, idx = sym
    if kind == "h":
        return {(idx, idx): Fraction(1), (idx + 1, idx + 1): Fraction(-1)}
    i, j = rs.root_pair(rs.positive_roots[idx])
    if kind == "e":
        return {(i, j): Fraction(1)}
    return {(j, i): Fraction(1)}


def matrix_to_lie(rs, mat):
    """Decompose a traceless sparse matrix over the Chevalley basis, as
    {symbol: Fraction}."""
    coeffs = {}
    diag = [mat.get((i, i), ZERO) for i in range(rs.n)]
    # h-part: partial sums
    s = ZERO
    for i in range(rs.rank):
        s += diag[i]
        if s != 0:
            coeffs[("h", i)] = s
    for (i, j), c in mat.items():
        if i == j or c == 0:
            continue
        if i < j:
            coeffs[("e", _root_idx(rs, i, j))] = c
        else:
            coeffs[("f", _root_idx(rs, j, i))] = c
    return coeffs


def _root_idx(rs, i, j):
    coeffs = tuple(1 if i <= t < j else 0 for t in range(rs.rank))
    return rs.root_index[coeffs]


_BRACKET_CACHE = {}


def bracket_symbols(rs, s1, s2):
    """[s1, s2] as a dict symbol -> Fraction (cached)."""
    key = (rs.n, s1, s2)
    if key in _BRACKET_CACHE:
        return _BRACKET_CACHE[key]
    m1 = symbol_matrix(rs, s1)
    m2 = symbol_matrix(rs, s2)
    comm = {}
    for (i, j), a in m1.items():
        for (k, l), b in m2.items():
            if j == k:
                add_term(comm, (i, l), a * b)
            if l == i:
                add_term(comm, (k, j), -a * b)
    out = matrix_to_lie(rs, comm)
    _BRACKET_CACHE[key] = out
    return out


def h_alpha(rs, a_idx):
    """The coroot h_alpha as {symbol: Fraction} (sum of consecutive h_i in
    type A)."""
    i, j = rs.root_pair(rs.positive_roots[a_idx])
    return {("h", t): Fraction(1) for t in range(i, j)}


def casimir_s_alpha(rs, a_idx):
    """c_alpha = e f + f e + h^2/2 of the sl2-triple of alpha.

    Returned as a list of (coefficient, tuple of {symbol: Fraction}), read
    as an ordered product in U(g).
    """
    e = {("e", a_idx): Fraction(1)}
    f = {("f", a_idx): Fraction(1)}
    h = h_alpha(rs, a_idx)
    return [
        (Fraction(1), (e, f)),
        (Fraction(1), (f, e)),
        (Fraction(1, 2), (h, h)),
    ]


def kappa0_symbols(rs, s1, s2):
    """Normalized invariant form kappa_0 on basis symbols.

    In type A this is the trace form of the defining representation:
    kappa0(e_a, f_a) = 1, kappa0(h_i, h_j) = Cartan matrix entry, rest 0.
    """
    k1, i1 = s1
    k2, i2 = s2
    if k1 == "h" and k2 == "h":
        return Fraction(rs.cartan_matrix[i1][i2])
    if {k1, k2} == {"e", "f"} and i1 == i2:
        return Fraction(1)
    return ZERO
