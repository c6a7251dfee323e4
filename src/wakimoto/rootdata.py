"""Root systems, weights, Weyl group and invariant forms for type A_{n-1}.

Conventions
-----------
A root is its integer coefficient tuple over the simple roots
(alpha_1 .. alpha_r, r = n-1), and its height is the tuple's sum.  Weights
are rational coordinate vectors in the fundamental-weight basis, so
``pairing(lam, alpha_i) == lam.coords[i]``.

The normalized invariant form kappa_0 satisfies (theta, theta) = 2; in type A
it is the trace form of the defining representation.  The Weyl group S_n is
the permutations w of the epsilon indices 0..n-1, which send the root
eps_i - eps_j to eps_w[i] - eps_w[j]; `admissible` lets them act on int
epsilon vectors scaled to clear denominators.
"""

from fractions import Fraction
from itertools import permutations

from .errors import RealizationBug, WakimotoError

ZERO = Fraction(0)


class Weight:
    """Rational vector in the fundamental-weight basis."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = tuple(Fraction(c) for c in coords)

    def __add__(self, other):
        self._check(other)
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __rmul__(self, c):
        c = Fraction(c)
        return Weight(tuple(c * a for a in self.coords))

    def __neg__(self):
        return Weight(tuple(-a for a in self.coords))

    def __eq__(self, other):
        return isinstance(other, Weight) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def _check(self, other):
        if len(self.coords) != len(other.coords):
            raise WakimotoError("weights over different root systems")

    def __repr__(self):
        return "Weight(%s)" % (", ".join(str(c) for c in self.coords),)


class RootSystem:
    """Type A_{n-1} root data."""

    def __init__(self, n):
        if n < 2:
            raise WakimotoError("need n >= 2, got %r" % (n,))
        self.n = n
        self.rank = n - 1
        self.h = n
        self.h_dual = n
        r = self.rank
        self.cartan_matrix = [
            [2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(r)]
            for i in range(r)
        ]
        self.simple_roots = [
            tuple(1 if j == i else 0 for j in range(r)) for i in range(r)
        ]
        # positive roots eps_i - eps_j (i<j) = alpha_i + ... + alpha_{j-1},
        # ordered by (height, lex coefficients).
        pos = []
        for i in range(n):
            for j in range(i + 1, n):
                pos.append(tuple(1 if i <= t < j else 0 for t in range(r)))
        pos.sort(key=lambda a: (sum(a), a))
        self.positive_roots = pos
        self.root_index = {a: idx for idx, a in enumerate(pos)}
        self.simple_indices = [self.root_index[a] for a in self.simple_roots]

    def root_pair(self, alpha):
        """(i, j) with alpha = eps_i - eps_j, 0-based, i < j."""
        i = alpha.index(1)
        j = i
        while j < self.rank and alpha[j] == 1:
            j += 1
        return i, j

    def root_to_weight(self, alpha):
        """Coordinates of the root alpha in the fundamental-weight basis: the
        Cartan matrix times alpha, 2 a_i - a_{i-1} - a_{i+1} in type A."""
        a = (0, *alpha, 0)
        return Weight(tuple(2 * a[i] - a[i - 1] - a[i + 1]
                            for i in range(1, self.rank + 1)))

    def is_positive_root(self, alpha):
        return alpha in self.root_index


def build_root_system(n):
    return RootSystem(n)


def pairing(rs, lam, alpha):
    """<lam, alpha^vee>.  In type A alpha^vee has the same simple coefficients."""
    if len(lam.coords) != rs.rank or len(alpha) != rs.rank:
        raise WakimotoError("rank mismatch in pairing")
    return sum((c * m for c, m in zip(lam.coords, alpha)), ZERO)


def rho(rs):
    return Weight((1,) * rs.rank)


def theta(rs):
    return (1,) * rs.rank


def default_weight(rs):
    """The weight with coordinates (2i + 1)/3, i = 0..rank-1: the default
    lambda of `verify zhu-diagram` and `verify characters`, and the highest
    weight of the affine commutation check."""
    return Weight([Fraction(2 * i + 1, 3) for i in range(rs.rank)])


# -- enumerators ------------------------------------------------------------

def root_combinations(roots, start, floor):
    """Yield (b, end) for every b >= 0 with
    end = start - sum_g b[g] * roots[g] >= floor in every coordinate.

    roots are nonzero coefficient tuples with nonnegative entries, so a
    coordinate only decreases and a branch is cut as soon as it drops below
    floor.  The b come in lexicographic order: a depth-first walk on an
    explicit stack, which pushes each node's children largest count first.
    With roots [(1,)] * n, start (d,) and floor 0, the b are the exponent
    tuples in n variables of total degree <= d.
    """
    roots = [tuple(g) for g in roots]
    last = len(roots)
    start = tuple(start)
    if any(c < floor for c in start):
        return
    stack = [((), start)]
    while stack:
        b, cur = stack.pop()
        idx = len(b)
        if idx == last:
            yield b, cur
            continue
        g = roots[idx]
        bmax = min((c - floor) // x for c, x in zip(cur, g) if x)
        for k in range(bmax, -1, -1):
            stack.append((b + (k,), tuple(c - k * x for c, x in zip(cur, g))))


# -- packed lattice points ----------------------------------------------------
#
# lattice_counts and the character tables hold a lattice point as one int,
# its code: coordinate i sits in bits [32 i, 32 i + 32) as c_i + 2^30.  A
# coordinate must lie in [-2^30, 2^30), so that its field stays below bit
# 31, the field's guard bit: then codes add and subtract as points, with no
# carry from one field into the next, and a point c lies at or above a
# floor f in every coordinate iff ((c | G) - f) & G == G, G the guard bits
# and f packed: no field of c | G borrows, and a field keeps its guard bit
# iff it is at least f's.  Likewise c lies at or below u iff
# ((u | G) - c) & G == G.  pack refuses a coordinate outside the range, and
# lattice_counts, before it walks, a walk that could leave it.

WIDTH = 32
_BIAS = 1 << 30
_FIELD = (1 << WIDTH) - 1


def pack(coords):
    """The code of a lattice point; RealizationBug if a coordinate lies
    outside [-2^30, 2^30)."""
    code = 0
    for c in reversed(coords):
        if not -_BIAS <= c < _BIAS:
            raise RealizationBug("lattice coordinate %d is outside the "
                                 "packed range [-2^30, 2^30)" % (c,))
        code = code << WIDTH | (c + _BIAS)
    return code


def unpack(code, dim):
    """The first dim coordinates of a code."""
    return tuple(((code >> WIDTH * i) & _FIELD) - _BIAS for i in range(dim))


def guard_bits(dim):
    """G: the guard bit of each of dim fields."""
    return sum(1 << (WIDTH * i + WIDTH - 1) for i in range(dim))


def floor_code(floors):
    """The packed floors, a floor None packed as -2^30, the least
    coordinate a code holds."""
    return pack(tuple(-_BIAS if f is None else f for f in floors))


def _steps(starts, gens, floors):
    """The generators as code differences, after checking the walk of
    lattice_counts from the point tuples starts: RealizationBug if a
    generator raises a coordinate that has a floor or lowers none, or if a
    point the walk computes could leave the packed range.  A generator g is
    taken at most B_g = min_t (max start_t - floor_t) // g_t times, over
    the coordinates t with a floor and g_t > 0, since no generator raises
    them; the walk also computes each held point's next point down and up
    along a generator, so every coordinate stays within sum_g (B_g + 1) |g_t|
    of the starts."""
    dim = len(floors)
    lo = [min(s[t] for s in starts) for t in range(dim)]
    hi = [max(s[t] for s in starts) for t in range(dim)]
    reach = [0] * dim
    for g in gens:
        if any(f is not None and x < 0 for f, x in zip(floors, g)):
            raise RealizationBug("generator %r raises a coordinate that has "
                                 "a floor" % (g,))
        times = [(hi[t] - f) // x for t, (f, x) in enumerate(zip(floors, g))
                 if f is not None and x > 0]
        if not times:
            raise RealizationBug("generator %r lowers no coordinate that has "
                                 "a floor" % (g,))
        for t, x in enumerate(g):
            reach[t] += (min(times) + 1) * abs(x)
    if any(l - r < -_BIAS or h + r >= _BIAS
           for l, h, r in zip(lo, hi, reach)):
        raise RealizationBug("a lattice walk could leave the packed range "
                             "[-2^30, 2^30)")
    return [sum(x << WIDTH * t for t, x in enumerate(g)) for g in gens]


def lattice_counts(starts, gens, floors):
    """{code: count} of the points s - sum_g b[g] * g with b >= 0 at or
    above floors, where starts is {s: count}: a point counts starts[s] once
    for every start s and every b that reach it.  Points are tuples on the
    way in and codes (pack) on the way out; floors holds a floor per
    coordinate, None for none.

    No generator may raise a coordinate that has a floor, and each must
    lower one, so that the walk ends and every point on the way down to a
    counted point is counted too; see _steps, which checks this and the
    packed range before anything is walked.  The generators are taken one
    at a time: each point's ray c, c - g, c - 2g, ... is walked down until
    it meets a point already held or one below the floors, and then each
    ray is walked again from its top, setting count(c) = before(c) +
    count(c + g).  Equal points merge, so the work grows with the number
    of distinct points, not with the number of exponent vectors b; a step
    is one subtraction and one mask test.
    """
    kept = {s: c for s, c in starts.items()
            if all(f is None or x >= f for x, f in zip(s, floors))}
    if not kept:
        return {}
    steps = _steps(kept, gens, floors)
    G = guard_bits(len(floors))
    L = floor_code(floors)
    table = {pack(s): c for s, c in kept.items()}
    for g in steps:
        for c in list(table):
            c -= g
            while c not in table and ((c | G) - L) & G == G:
                table[c] = 0
                c -= g
        for c in list(table):
            if c + g in table:
                continue
            run = 0
            while c in table:
                run += table[c]
                table[c] = run
                c -= g
    return table


def offset_weight(rs, lam, coords):
    """The weight lam + sum_i coords[i] alpha_i (integer root coordinates)."""
    return lam + rs.root_to_weight(coords)


def root_offset(rs, lam, mu):
    """The integer root coordinates c with mu = offset_weight(rs, lam, c), or
    None if mu - lam is not in the root lattice.  In type A_{n-1} the inverse
    Cartan matrix has entries min(i, j) (n - max(i, j)) / n, 1-based."""
    n = rs.n
    c = [sum(Fraction(min(i, j) * (n - max(i, j)), n) * w
             for j, w in enumerate((mu - lam).coords, 1)) for i in range(1, n)]
    if any(x.denominator != 1 for x in c):
        return None
    return tuple(x.numerator for x in c)


# -- Weyl group --------------------------------------------------------------

def all_weyl_elements(rs):
    return list(permutations(range(rs.n)))


# -- serialization -----------------------------------------------------------

def frac_str(x):
    x = Fraction(x)
    return "%d/%d" % (x.numerator, x.denominator) if x.denominator != 1 else str(x.numerator)


def weight_to_json(lam):
    return [frac_str(c) for c in lam.coords]


def root_label(alpha):
    """Text label like 'a1+a2' for a positive root."""
    parts = []
    for i, c in enumerate(alpha):
        if c == 0:
            continue
        parts.append(("a%d" % (i + 1)) if c == 1 else ("%da%d" % (c, i + 1)))
    return "+".join(parts) if parts else "0"
