"""Exact linear algebra over Q: the nullspace of sparse {column: coeff}
rows, characteristic polynomials and rational roots.

`nullspace` eliminates modulo the prime P = 2^61 - 1 and proves its answer
exact.  A nonzero minor mod P is nonzero over Q, so rank_Q >= rank_P, and
ncols pivots mod P prove full rank with no kernel.  Otherwise each kernel
vector of the reduced echelon form mod P, 1 at its free column c, 0 at the
other free columns and nonzero only at pivots left of c, is lifted to Q by
rational reconstruction and checked against every row in Fractions.  The
ncols - rank_P checked vectors are independent kernel vectors, so with
rank_Q >= rank_P they span the kernel over Q.  A kernel vector whose last
nonzero entry is at c makes column c free over Q, so the free columns mod P
are those over Q, and the vectors are the ones `_eliminate` gives, key for
key.  Where P divides a denominator, a reconstruction fails or a check
fails, `nullspace` runs `_eliminate`, the Fraction elimination that is also
its test oracle.
"""

from bisect import bisect_right
from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import RealizationBug
from .sparse import add_into, scaled

ZERO = Fraction(0)
ONE = Fraction(1)
# the Mersenne prime modulus of nullspace's elimination
P = (1 << 61) - 1
# n/d with |n|, d <= RECON_BOUND is the only such fraction in its class
# mod P, since 2 RECON_BOUND^2 < P
RECON_BOUND = isqrt(P // 2)


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
    """Basis of the right nullspace over Q of the list of sparse rows (int
    or Fraction entries) over columns 0..ncols-1: one sparse vector per free
    column c of the reduced row echelon form, in ascending order.  The rows
    are not changed."""
    basis = _modular_nullspace(rows, ncols)
    return _kernel(_eliminate(rows), ncols) if basis is None else basis


def _kernel(piv, ncols):
    """The nullspace basis of reduced row echelon rows {pivot column: row}:
    for each free column c, the vector 1 at c and minus the rows' c entries
    at their pivots, all left of c, so its keys come in ascending order."""
    basis = {c: {} for c in range(ncols) if c not in piv}
    for pc in sorted(piv):
        for c, x in piv[pc].items():
            if c != pc:
                basis[c][pc] = -x
    for c, v in basis.items():
        v[c] = ONE
    return list(basis.values())


def _modular_nullspace(rows, ncols):
    """nullspace's basis, found mod P and proved exact (see the module
    docstring), or None if the proof does not go through."""
    piv = _echelon_mod_p(rows, ncols)
    if piv is None:
        return None
    if len(piv) == ncols:
        return []
    # back substitution, highest pivot first: a reduced row has entries
    # only at its pivot and at free columns, so clearing one pivot column
    # never refills another
    for p in sorted(piv, reverse=True):
        r = piv[p]
        for q in [q for q in r if q != p and q in piv]:
            _sub_mod_p(r, piv[q], r[q])
    lifted = {x: None for r in piv.values() for x in r.values()}
    for x in lifted:
        lifted[x] = _reconstruct(x)
        if lifted[x] is None:
            return None
    basis = _kernel({p: {c: lifted[x] for c, x in r.items()}
                     for p, r in piv.items()}, ncols)
    for v in basis:
        for row in rows:
            if sum(x * v[c] for c, x in row.items() if c in v):
                return None
    return basis


def _echelon_mod_p(rows, ncols):
    """Row echelon form mod P of the rows, as {pivot column: row}, each row
    1 at its pivot and with entries only right of it.  Its pivots are the
    leftmost independent columns mod P, as in `_eliminate`, whatever order
    the rows are taken in; shortest first makes the least fill-in.  It
    stops at ncols pivots.  None if P divides a denominator."""
    inverses = {1: 1}
    reduced = []
    for row in rows:
        r = {}
        for c, x in row.items():
            d = x.denominator
            inv = inverses.get(d)
            if inv is None:
                if d % P == 0:
                    return None
                inv = inverses[d] = pow(d, -1, P)
            x = x.numerator * inv % P
            if x:
                r[c] = x
        if r:
            reduced.append((len(r), min(r), r))
    reduced.sort(key=lambda t: t[:2])
    piv = {}
    for _, p, r in reduced:
        while p in piv:
            _sub_mod_p(r, piv[p], r[p])
            if not r:
                break
            p = min(r)
        if r:
            inv = pow(r[p], -1, P)
            piv[p] = {c: x * inv % P for c, x in r.items()}
            if len(piv) == ncols:
                break
    return piv


def _sub_mod_p(r, s, f):
    """In place r -= f s mod P, pruning zeros."""
    for c, x in s.items():
        x = (r.get(c, 0) - f * x) % P
        if x:
            r[c] = x
        else:
            del r[c]


def _reconstruct(a):
    """The fraction n/d with |n|, d <= RECON_BOUND and n = a d mod P, or
    None; by the extended Euclidean algorithm on (P, a), stopped at the
    first remainder within the bound (Wang's rational reconstruction)."""
    r0, r1, s0, s1 = P, a, 0, 1
    while r1 > RECON_BOUND:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > RECON_BOUND:
        return None
    return Fraction(r1, s1)


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
        raise RealizationBug("zero polynomial")
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
