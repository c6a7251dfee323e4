"""Small exact linear-algebra helpers over Fraction: the nullspace of sparse
{column: coeff} rows, characteristic polynomials and rational roots."""

from bisect import bisect_right
from fractions import Fraction
from math import gcd, lcm

from .sparse import add_into, scaled

ZERO = Fraction(0)
ONE = Fraction(1)


def _eliminate(rows):
    """Reduced row echelon form of sparse {column: coeff} rows, as {pivot
    column: row}.  Every pivot row is 1 at its pivot and 0 at every other
    pivot column, so its other entries lie in free columns right of it."""
    piv = {}
    for row in rows:
        r = {c: x for c, x in row.items() if x}
        # the pivot rows are fully reduced, so clearing one pivot column
        # never refills another
        for c, x in [(c, x) for c, x in r.items() if c in piv]:
            add_into(r, piv[c], -x)
        if not r:
            continue
        p = min(r)
        # a Fraction pivot keeps integer input exact: int / int is a float
        r = scaled(r, 1 / Fraction(r[p]))
        for s in piv.values():
            if p in s:
                add_into(s, r, -s[p])
        piv[p] = r
    return piv


def nullspace(rows, ncols):
    """Basis of the right nullspace of the sparse rows over columns
    0..ncols-1: one sparse vector per free column c, in ascending order.  It
    is 1 at c and minus the pivot rows' c entries at their pivots, all left
    of c, so its keys come in ascending order."""
    piv = _eliminate(rows)
    basis = {c: {} for c in range(ncols) if c not in piv}
    for pc in sorted(piv):
        for c, x in piv[pc].items():
            if c != pc:
                basis[c][pc] = -x
    for c, v in basis.items():
        v[c] = ONE
    return list(basis.values())


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
    zeros = next(i for i, x in enumerate(ic) if x)
    if zeros:
        roots[ZERO] = zeros
        ic = ic[zeros:]
    # a root p/q in lowest terms has p | a_0, q | a_n and |p| <= bound q;
    # each quotient's roots are roots of ic, so the divisors and the bound
    # are found once.  The denominators come in ascending order.  The
    # candidate pairs are made one at a time, and none once the quotient is
    # constant
    pdivs = sorted(_divisors(abs(ic[0])))
    bound = _root_bound(ic)
    cands = ((s * p, q) for q in sorted(_divisors(abs(ic[-1])))
             for p in pdivs[:bisect_right(pdivs, bound * q)]
             if gcd(p, q) == 1 for s in (1, -1))
    for p, q in cands:
        if len(ic) == 1:
            break
        while len(ic) > 1 and _is_root(ic, p, q):
            r = Fraction(p, q)
            roots[r] = roots.get(r, 0) + 1
            ic = _divide_linear(ic, p, q)
    return roots, len(ic) - 1


def _root_bound(c):
    """An integer B with |z| <= B for every complex root z of the integer
    polynomial c (constant first, nonzero leading coefficient): Fujiwara's
    bound 2 max_i |c_{n-i} / c_n|^(1/i), each i-th root rounded up."""
    n = len(c) - 1
    lead = abs(c[-1])
    return 2 * max((_ceil_root(-(-abs(c[n - i]) // lead), i)
                    for i in range(1, n + 1)), default=0)


def _ceil_root(a, i):
    """The least integer t >= 0 with t^i >= a, by bisection."""
    lo, hi = 0, 1
    while hi ** i < a:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** i < a:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _divisors(a):
    """Positive divisors of a > 0, from its factorisation by trial division
    (which stops at the square root of the unfactored part)."""
    divs = [1]
    d = 2
    while d * d <= a:
        e = 0
        while a % d == 0:
            a //= d
            e += 1
        if e:
            divs = [x * d ** i for x in divs for i in range(e + 1)]
        d += 1
    if a > 1:
        divs += [x * a for x in divs]
    return divs


def _is_root(c, p, q):
    """Whether p/q is a root of the integer polynomial c (constant first):
    sum c_i p^i q^(deg - i) == 0."""
    acc = 0
    qpow = 1
    for coef in reversed(c):
        acc = acc * p + coef * qpow
        qpow *= q
    return acc == 0


def _divide_linear(c, p, q):
    """Quotient of the integer polynomial c (constant first) by q x - p, for
    a root p/q in lowest terms; by Gauss's lemma it has integer
    coefficients."""
    n = len(c) - 1
    out = [0] * n
    b = 0
    for i in range(n, 0, -1):
        # c_i = q b_{i-1} - p b_i
        b = (c[i] + p * b) // q
        out[i - 1] = b
    return out
