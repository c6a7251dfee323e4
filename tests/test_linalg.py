from fractions import Fraction as Fr

from wakimoto.linalg import charpoly, nullspace, rank, rational_roots, rref


def F(x):
    return Fr(x)


def test_rref_identity():
    m, piv = rref([[F(1), F(0)], [F(0), F(1)]])
    assert piv == [0, 1]
    assert m == [[F(1), F(0)], [F(0), F(1)]]


def test_rank():
    assert rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert rank([]) == 0


def test_nullspace():
    ns = nullspace([[F(1), F(2)]])
    assert len(ns) == 1
    v = ns[0]
    assert v[0] + 2 * v[1] == 0
    assert nullspace([], ncols=2) == [[F(1), F(0)], [F(0), F(1)]] or \
        len(nullspace([], ncols=2)) == 2


def _matvec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def test_integer_matrices_stay_exact():
    for a in ([[2, 1], [4, 2]], [[3, 1]], [[2, 4, 6], [1, 3, 5]],
              [[0, 3, 1], [0, 6, 2], [5, 0, 1]]):
        m, _ = rref(a)
        ns = nullspace(a)
        assert ns
        assert not any(isinstance(x, float) for row in m + ns for x in row)
        for v in ns:
            assert _matvec(a, v) == [0] * len(a)
    assert rref([[3, 1]]) == ([[1, Fr(1, 3)]], [0])
    assert nullspace([[2, 1], [4, 2]]) == [[Fr(-1, 2), 1]]


def test_charpoly():
    # [[0,1],[-2,3]]: t^2 - 3t + 2
    c = charpoly([[F(0), F(1)], [F(-2), F(3)]])
    assert c == [F(2), F(-3), F(1)]


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
