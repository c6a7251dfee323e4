from fractions import Fraction as Fr
from itertools import combinations, permutations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wakimoto import linalg, modes, relaxed
from wakimoto.cli import main
from wakimoto.linalg import (P, RECON_BOUND, _ceil_root, _eliminate,
                            _root_bound, charpoly, nullspace, rational_roots)
from wakimoto.rootdata import Weight, build_root_system


def F(x):
    return Fr(x)


def sparse(a):
    """The dense matrix a as sparse {column: coeff} rows."""
    return [{c: x for c, x in enumerate(row) if x} for row in a]


def rref(a):
    """`_eliminate` on the dense matrix a, densified: (rref rows, zero rows
    last; pivot columns)."""
    if not a:
        return [], []
    ncols = len(a[0])
    piv = _eliminate(sparse(a))
    m = [[r.get(j, Fr(0)) for j in range(ncols)]
         for _, r in sorted(piv.items())]
    m.extend([Fr(0)] * ncols for _ in range(len(a) - len(piv)))
    return m, sorted(piv)


def _dense_rref(rows):
    """Dense Gauss-Jordan elimination: the oracle for `_eliminate`."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = Fr(m[r][c])
        m[r] = [x / p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


@st.composite
def sparse_matrices(draw, min_rows=0):
    """Up to 12 x 12, about 80% zeros, int and Fraction entries, with some
    zero rows and repeated rows."""
    nrows = draw(st.integers(min_rows, 12))
    ncols = draw(st.integers(1, 12))
    nonzero = st.one_of(st.integers(-6, 6),
                        st.fractions(-6, 6, max_denominator=7))

    def entry():
        return draw(nonzero) if draw(st.integers(0, 4)) == 0 else 0

    rows = []
    for i in range(nrows):
        kind = draw(st.integers(0, 5))
        if kind == 0:
            rows.append([0] * ncols)
        elif kind == 1 and rows:
            rows.append(list(rows[draw(st.integers(0, len(rows) - 1))]))
        else:
            rows.append([entry() for _ in range(ncols)])
    return rows


def test_rref_identity():
    m, piv = rref([[F(1), F(0)], [F(0), F(1)]])
    assert piv == [0, 1]
    assert m == [[F(1), F(0)], [F(0), F(1)]]


def test_rank():
    assert len(_eliminate([{0: F(1), 1: F(2)}, {0: F(2), 1: F(4)}])) == 1
    assert len(_eliminate([{}, {}])) == 0
    assert _eliminate([]) == {}


def test_nullspace():
    assert nullspace([{0: F(1), 1: F(2)}], 2) == [{0: F(-2), 1: F(1)}]
    assert nullspace([], 2) == [{0: F(1)}, {1: F(1)}]
    assert nullspace([], 0) == []
    # pivots 0 and 1, free columns 2 and 3; each vector is keyed in
    # ascending order, whatever the order of its rows' keys
    ns = nullspace([{0: F(1), 3: F(5)}, {2: F(1), 1: F(-1), 3: F(2)}], 4)
    assert ns == [{1: F(1), 2: F(1)}, {0: F(-5), 1: F(2), 3: F(1)}]
    assert [list(v) for v in ns] == [[1, 2], [0, 1, 3]]


def test_eliminate_leaves_its_rows_unchanged():
    rows = [{0: F(2), 1: F(4)}, {0: F(1), 2: F(1)}]
    copy = [dict(r) for r in rows]
    nullspace(rows, 3)
    assert rows == copy


def _oracle_nullspace(rows, ncols):
    """The nullspace read off `_eliminate`'s reduced row echelon form: for
    each free column c, 1 at c and minus the pivot rows' c entries at their
    pivots, pivots ascending."""
    piv = _eliminate(rows)
    return [{**{pc: -piv[pc][c] for pc in sorted(piv) if c in piv[pc]},
             c: Fr(1)}
            for c in range(ncols) if c not in piv]


def _items(vectors):
    return [[(c, type(x), x) for c, x in v.items()] for v in vectors]


# entries that stress the certificate: zero mod P but not over Q, beyond
# the reconstruction bound, or (rarely) with the denominator P
_hard_entries = st.one_of(
    st.integers(-3, 3).filter(bool).map(lambda m: m * P),
    st.integers(-3, 3).map(lambda m: m * P + 1),
    st.integers(1, 4).map(lambda j: RECON_BOUND + j),
    st.integers(1, 4).map(lambda j: Fr(1, RECON_BOUND + j)),
    st.integers(1, 4).map(lambda j: Fr(-(RECON_BOUND + j), 3)),
    st.just(Fr(1, P)))


@st.composite
def certified_matrices(draw):
    """(rows, ncols): up to 12 x 10 sparse int and Fraction rows, some of
    them zero, multiples of an earlier row or sums of two, with small and
    hard entries."""
    nrows = draw(st.integers(0, 12))
    ncols = draw(st.integers(0, 10))
    hard = draw(st.booleans())
    entries = st.one_of(st.integers(-6, 6),
                        st.fractions(-6, 6, max_denominator=7),
                        *([_hard_entries] if hard else []))
    rows = []
    for _ in range(nrows):
        kind = draw(st.integers(0, 5))
        if kind == 0 or not ncols:
            row = {}
        elif kind == 1 and rows:
            m = draw(st.fractions(-4, 4, max_denominator=5))
            row = {c: m * x for c, x in draw(st.sampled_from(rows)).items()}
        elif kind == 2 and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            row = {c: a.get(c, 0) + b.get(c, 0) for c in {**a, **b}}
        else:
            row = {c: draw(entries) for c in range(ncols)
                   if draw(st.integers(0, 3)) == 0}
        rows.append({c: x for c, x in row.items() if x})
    return rows, ncols


@settings(max_examples=400, deadline=None)
@given(certified_matrices())
def test_nullspace_equals_the_elimination_oracle(matrix):
    # vector for vector, key for key and in the same order, all Fractions;
    # the rows are left as they were
    rows, ncols = matrix
    copy = [list(r.items()) for r in rows]
    assert _items(nullspace(rows, ncols)) == _items(
        _oracle_nullspace(rows, ncols))
    assert [list(r.items()) for r in rows] == copy


@pytest.fixture
def eliminations(monkeypatch):
    """Counts the calls of `_eliminate`, which runs only when the modular
    certificate does not go through."""
    calls = []

    def counted(rows):
        calls.append(rows)
        return _eliminate(rows)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    return calls


@pytest.mark.parametrize("rows,ncols", [
    # rank 1 over Q, 0 mod P: the kernel mod P is too large
    ([{0: P, 1: 2 * P}], 2),
    # rank 1 mod P, 2 over Q
    ([{0: 1, 1: 1}, {0: 1, 1: 1 + P}], 2),
    # the kernel vector (1/(B + 1), 1) is beyond reconstruction
    ([{0: RECON_BOUND + 1, 1: -1}], 2),
    ([{0: Fr(3, RECON_BOUND + 2), 2: 1}, {1: RECON_BOUND + 5, 2: -7}], 3),
])
def test_hard_matrices_fall_back_to_elimination(rows, ncols, eliminations):
    assert _items(nullspace(rows, ncols)) == _items(
        _oracle_nullspace(rows, ncols))
    assert len(eliminations) == 1


def test_a_denominator_of_p_forces_the_fallback(eliminations):
    rows = [{0: Fr(1, P), 1: 1}, {0: 2, 1: 3}]
    assert nullspace(rows, 3) == [{2: Fr(1)}]
    assert nullspace([{0: Fr(1, P), 1: 1}], 2) == [{0: -P, 1: 1}]
    assert len(eliminations) == 2


def test_small_full_rank_and_rank_deficient_matrices_are_certified(
        eliminations):
    assert nullspace([{0: 1}, {1: Fr(2, 3)}, {0: 5, 1: 7}], 2) == []
    assert nullspace([{0: 2, 1: 4}, {0: 1, 1: 2}], 2) == [{0: -2, 1: 1}]
    assert nullspace([{1: Fr(-3, 7), 2: Fr(1, 2)}], 3) == [
        {0: 1}, {1: Fr(7, 6), 2: 1}]
    assert eliminations == []


def test_a_wrong_reconstruction_is_caught_by_the_exact_check(
        monkeypatch, eliminations):
    # a reconstruction off by one still gives the oracle's vectors: the
    # exact check rejects them and the elimination runs
    rs = build_root_system(2)
    expected = relaxed.find_singular_vectors(rs, Weight((Fr(0),)),
                                             Fr(-1, 2), 4)
    assert eliminations == []
    reconstruct = linalg._reconstruct
    monkeypatch.setattr(linalg, "_reconstruct",
                        lambda a: reconstruct(a) + 1)
    assert nullspace([{0: 1, 1: 2}], 2) == [{0: -2, 1: 1}]
    assert len(eliminations) == 1
    assert relaxed.find_singular_vectors(rs, Weight((Fr(0),)), Fr(-1, 2),
                                         4) == expected
    assert len(eliminations) > 1


@pytest.mark.parametrize("argv", [
    # the singular workload of the benchmark at its seed 0
    "-n 2 -k -1/2 --lam 0 -D 4",
    "-n 2 -k 7/3 --lam 1/5 -D 4",
    "-n 2 -k 5/3 --lam 2/5 -D 4",
    "-n 3 -k -3/2 --lam 0,0 -D 1",
    # six vectors, and many cells that drop rank
    "-n 3 -k -3/2 --lam 0,0 -D 2",
])
def test_singular_searches_are_certified_without_elimination(
        argv, eliminations, capsys):
    assert main(["verify", "singular"] + argv.split()) == 0
    capsys.readouterr()
    assert eliminations == []


def test_field_solves_are_certified_without_elimination(monkeypatch,
                                                        eliminations):
    monkeypatch.setattr(modes, "_FIELD_CACHE", {})
    for n in (2, 3, 4):
        rs = build_root_system(n)
        for k in (Fr(1, 2), Fr(-3, 2), Fr(-4, 3), Fr(7, 5)):
            for idx in range(len(rs.positive_roots)):
                modes.pi_field(rs, ("e", idx), k)
            for idx in rs.simple_indices:
                modes.solve_c_gamma(rs, idx, k)
    assert eliminations == []


def test_reconstruction_inverts_reduction_within_the_bound():
    for n, d in ((0, 1), (5, 1), (-5, 1), (RECON_BOUND, 1),
                 (-RECON_BOUND, 1), (1, RECON_BOUND), (-7, 15),
                 (RECON_BOUND, RECON_BOUND - 1), (-RECON_BOUND + 2, 999)):
        if gcd(n, d) == 1:
            assert linalg._reconstruct(n * pow(d, -1, P) % P) == Fr(n, d)
    assert 2 * RECON_BOUND ** 2 < P < 2 * (RECON_BOUND + 1) ** 2
    # (B + 1) / 1 has no representative within the bound but itself
    assert linalg._reconstruct(RECON_BOUND + 1) != RECON_BOUND + 1


def _dot(row, v):
    return sum(x * v.get(c, 0) for c, x in row.items())


def _check_nullspace(a, ncols):
    """nullspace of a's sparse rows: rank + nullity = ncols, and every
    vector has ascending keys, no zero entry and is killed by every row."""
    rows = sparse(a)
    ns = nullspace(rows, ncols)
    assert len(_eliminate(rows)) + len(ns) == ncols
    for v in ns:
        assert list(v) == sorted(v)
        assert all(v.values())
        assert all(_dot(r, v) == 0 for r in rows)
    return ns


def test_integer_matrices_stay_exact():
    for a in ([[2, 1], [4, 2]], [[3, 1]], [[2, 4, 6], [1, 3, 5]],
              [[0, 3, 1], [0, 6, 2], [5, 0, 1]]):
        m, _ = rref(a)
        ns = _check_nullspace(a, len(a[0]))
        assert ns
        assert not any(isinstance(x, float) for row in m for x in row)
        assert not any(isinstance(x, float) for v in ns for x in v.values())
    assert rref([[3, 1]]) == ([[1, Fr(1, 3)]], [0])
    assert nullspace(sparse([[2, 1], [4, 2]]), 2) == [{0: Fr(-1, 2), 1: 1}]


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_sparse_elimination_matches_dense_oracle(a):
    ncols = len(a[0]) if a else 3
    assert rref(a) == _dense_rref(a)
    _check_nullspace(a, ncols)


@settings(max_examples=40, deadline=None)
@given(sparse_matrices(min_rows=1))
def test_rref_matches_sympy(a):
    sympy = pytest.importorskip("sympy")
    m, pivots = sympy.Matrix(a).rref()
    expected = [[Fr(int(x.p), int(x.q)) for x in m.row(i)]
                for i in range(m.rows)]
    assert rref(a) == (expected, list(pivots))


def test_charpoly():
    # [[0,1],[-2,3]]: t^2 - 3t + 2
    c = charpoly([[F(0), F(1)], [F(-2), F(3)]])
    assert c == [F(2), F(-3), F(1)]


def _det(a):
    """Leibniz expansion: the signed sum over permutations of products of
    entries, the oracle for charpoly's constant term."""
    n = len(a)
    total = Fr(0)
    for p in permutations(range(n)):
        inversions = sum(p[i] > p[j] for i, j in combinations(range(n), 2))
        term = Fr((-1) ** inversions)
        for i in range(n):
            term *= a[i][p[i]]
        total += term
    return total


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.fractions(-5, 5, max_denominator=6), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_charpoly_satisfies_cayley_hamilton(a):
    n = len(a)
    c = charpoly(a)
    assert len(c) == n + 1 and c[n] == 1
    assert c[n - 1] == -sum(a[i][i] for i in range(n))
    assert c[0] == (-1) ** n * _det(a)
    # p(A) = 0 exactly, by Horner: P <- P A + c_i I from the top down
    p = [[Fr(0)] * n for _ in range(n)]
    for coef in reversed(c):
        p = [[sum(p[i][t] * a[t][j] for t in range(n))
              + (coef if i == j else 0) for j in range(n)]
             for i in range(n)]
    assert p == [[0] * n for _ in range(n)]


def test_rational_roots():
    # (t-1)(t+1/2)^2 = t^3 - ... constant first: expand
    # p(t) = (t-1)(2t+1)^2 / 4 = t^3 + 0 t^2 - 3/4 t - 1/4
    roots, resid = rational_roots([Fr(-1, 4), Fr(-3, 4), F(0), F(1)])
    assert roots == {F(1): 1, Fr(-1, 2): 2}
    assert resid == 0


def test_rational_roots_irrational_factor():
    # t^2 - 2 has no rational roots
    roots, resid = rational_roots([F(-2), F(0), F(1)])
    assert roots == {}
    assert resid == 2


def test_rational_roots_stop_once_the_polynomial_is_used_up(monkeypatch):
    # 720720 (x - 1) has 240 x 240 candidate pairs p/q, and 1/1 is the
    # first: once it is divided out the quotient is a constant, so no other
    # pair may be made, let alone all 57,600 before the first is tried
    # (gamma-mult at D = 32 ran out of memory building that list)
    made = []

    def counting_gcd(a, b):
        made.append((a, b))
        return gcd(a, b)

    monkeypatch.setattr(linalg, "gcd", counting_gcd)
    assert rational_roots([F(-720720), F(720720)]) == ({F(1): 1}, 0)
    assert made == [(1, 1)]


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _product(roots, scale=1):
    """scale times prod (q x - p)^m over the roots p/q with multiplicity
    m, constant first."""
    poly = [scale]
    for r, m in roots.items():
        for _ in range(m):
            poly = _poly_mul(poly, [-r.numerator, r.denominator])
    return poly


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.fractions(-9, 9, max_denominator=6),
                       st.integers(1, 3), max_size=4),
       st.fractions(-5, 5, max_denominator=4).filter(bool))
def test_rational_roots_of_products(roots, scale):
    poly = _poly_mul([-2 * scale, 0, scale], _product(roots))  # x^2 - 2
    assert rational_roots(poly) == (roots, 2)


def test_ceil_root_matches_brute_force():
    for i in range(1, 6):
        for a in list(range(200)) + [10 ** 12, 10 ** 12 + 1, 2 ** 61 - 1]:
            t = _ceil_root(a, i)
            assert t ** i >= a and (t == 0 or (t - 1) ** i < a)


_root = st.tuples(st.integers(-10 ** 9, 10 ** 9),
                  st.integers(1, 60)).map(lambda pq: Fr(*pq))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_root, st.integers(1, 5), min_size=1, max_size=5),
       st.integers(-7, 7).filter(bool))
def test_root_bound_holds_for_products_of_linear_factors(roots, scale):
    # every root, large or repeated, lies within the bound
    bound = _root_bound(_product(roots, scale))
    assert all(abs(r) <= bound for r in roots)


def test_root_bound_at_large_and_repeated_roots():
    for r, m in ((10 ** 9, 5), (-1, 8), (Fr(7, 3), 6), (Fr(-10 ** 6, 7), 3)):
        r = Fr(r)
        poly = _product({r: m})
        assert abs(r) <= _root_bound(poly)
        assert rational_roots(poly) == ({r: m}, 0)
