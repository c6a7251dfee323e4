"""Small exact linear-algebra helpers over Fraction."""

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def rref(rows):
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
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
        # a Fraction pivot keeps integer input exact: int / int is a float
        p = Fraction(m[r][c])
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


def rank(rows):
    return len(rref(rows)[1])


def nullspace(rows, ncols=None):
    """Basis of the right nullspace of the matrix (rows of length ncols)."""
    if not rows:
        if not ncols:
            return []
        rows = [[ZERO] * ncols]
    ncols = len(rows[0])
    m, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def charpoly(mat):
    """Characteristic polynomial coefficients [c_0 .. c_n] of det(tI - M),
    via the Faddeev-LeVerrier recursion (exact over Q)."""
    n = len(mat)
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = ONE
    m = [[ZERO] * n for _ in range(n)]
    c = ONE
    for k in range(1, n + 1):
        # M_k = A*M_{k-1} + c_{k-1} I
        am = [[sum((mat[i][t] * m[t][j] for t in range(n)), ZERO) for j in range(n)]
              for i in range(n)]
        for i in range(n):
            am[i][i] += c
        m = am
        tr = sum((sum((mat[i][t] * m[t][i] for t in range(n)), ZERO)
                  for i in range(n)), ZERO)
        c = -tr / k
        coeffs[n - k] = c
    return coeffs


def rational_roots(coeffs):
    """All rational roots with multiplicity of a polynomial with Fraction
    coefficients (constant term first).  Returns (roots_dict, residual_degree);
    residual_degree > 0 means non-rational factors remain."""
    # clear denominators
    from math import lcm

    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    if not c:
        raise ValueError("zero polynomial")
    den = 1
    for x in c:
        den = lcm(den, Fraction(x).denominator)
    ic = [int(x * den) for x in c]
    roots = {}
    # strip zero roots
    while ic[0] == 0:
        roots[ZERO] = roots.get(ZERO, 0) + 1
        ic = ic[1:]
    while len(ic) > 1:
        found = None
        a0, an = abs(ic[0]), abs(ic[-1])
        for p in _divisors(a0):
            for q in _divisors(an):
                for sign in (1, -1):
                    r = Fraction(sign * p, q)
                    if _poly_eval(ic, r) == 0:
                        found = r
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            break
        roots[found] = roots.get(found, 0) + 1
        ic = _synthetic_div(ic, found)
    return roots, len(ic) - 1


def _divisors(a):
    if a == 0:
        return [1]
    out = []
    d = 1
    while d * d <= a:
        if a % d == 0:
            out.append(d)
            if d != a // d:
                out.append(a // d)
        d += 1
    return sorted(out)


def _poly_eval(c, x):
    acc = ZERO
    for coef in reversed(c):
        acc = acc * x + coef
    return acc


def _synthetic_div(c, r):
    """Divide polynomial (constant first) by (x - r); exact."""
    n = len(c) - 1
    out = [ZERO] * n
    acc = ZERO
    for i in range(n, 0, -1):
        acc = c[i] + acc * r
        out[i - 1] = acc
    return out
