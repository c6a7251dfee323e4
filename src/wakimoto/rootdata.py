"""Root systems, weights, Weyl group and invariant forms for type A_{n-1}.

Conventions
-----------
Roots are stored by their integer coefficient vectors over the simple roots
(alpha_1 .. alpha_r, r = n-1).  Weights are rational coordinate vectors in the
fundamental-weight basis, so ``pairing(lam, alpha_i) == lam.coords[i]``.

The normalized invariant form kappa_0 satisfies (theta, theta) = 2; in type A
it is the trace form of the defining representation.  The Weyl group S_n acts
through the epsilon-coordinate realization (sum-zero vectors in Q^n).
"""

from fractions import Fraction
from itertools import permutations

from .errors import DimensionError, InvalidRank, InvalidWeylWord

ZERO = Fraction(0)


class Root:
    """A root, stored as an integer coefficient vector over the simple roots."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(int(c) for c in coeffs)

    @property
    def height(self):
        return sum(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Root) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return Root(tuple(-c for c in self.coeffs))

    def __repr__(self):
        return "Root(%r)" % (self.coeffs,)


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
            raise DimensionError("weights over different root systems")

    def __repr__(self):
        return "Weight(%s)" % (", ".join(str(c) for c in self.coords),)


class RootSystem:
    """Type A_{n-1} root data."""

    def __init__(self, n):
        if n < 2:
            raise InvalidRank("need n >= 2, got %r" % (n,))
        self.n = n
        self.rank = n - 1
        self.h = n
        self.h_dual = n
        self.lacing = 1
        r = self.rank
        self.cartan_matrix = [
            [2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(r)]
            for i in range(r)
        ]
        self.simple_roots = [
            Root(tuple(1 if j == i else 0 for j in range(r))) for i in range(r)
        ]
        # positive roots eps_i - eps_j (i<j) = alpha_i + ... + alpha_{j-1},
        # ordered by (height, lex coefficients).
        pos = []
        for i in range(n):
            for j in range(i + 1, n):
                pos.append(Root(tuple(1 if i <= t < j else 0 for t in range(r))))
        pos.sort(key=lambda a: (a.height, a.coeffs))
        self.positive_roots = pos
        self.root_index = {a.coeffs: idx for idx, a in enumerate(pos)}
        self.simple_indices = [self.root_index[a.coeffs] for a in self.simple_roots]

    # -- epsilon coordinates -------------------------------------------------
    def weight_to_eps(self, lam):
        """Sum-zero vector in Q^n representing lam."""
        r = self.rank
        v = [ZERO] * self.n
        for i, c in enumerate(lam.coords):
            # omega_{i+1} = e_1 + ... + e_{i+1} - ((i+1)/n)(e_1+...+e_n)
            for j in range(i + 1):
                v[j] += c
            shift = Fraction(c * (i + 1), self.n)
            for j in range(self.n):
                v[j] -= shift
        return v

    def eps_to_weight(self, v):
        return Weight(tuple(v[i] - v[i + 1] for i in range(self.rank)))

    def root_pair(self, alpha):
        """(i, j) with alpha = eps_i - eps_j, 0-based, i < j."""
        c = alpha.coeffs
        i = c.index(1)
        j = i
        while j < self.rank and c[j] == 1:
            j += 1
        return i, j

    def root_to_weight(self, alpha):
        """Coordinates of the root alpha in the fundamental-weight basis."""
        r = self.rank
        return Weight(
            tuple(
                sum(self.cartan_matrix[i][j] * alpha.coeffs[j] for j in range(r))
                for i in range(r)
            )
        )

    def is_positive_root(self, coeffs):
        return tuple(coeffs) in self.root_index


def build_root_system(n):
    return RootSystem(n)


def pairing(rs, lam, alpha):
    """<lam, alpha^vee>.  In type A alpha^vee has the same simple coefficients."""
    if len(lam.coords) != rs.rank or len(alpha.coeffs) != rs.rank:
        raise DimensionError("rank mismatch in pairing")
    return sum((c * m for c, m in zip(lam.coords, alpha.coeffs)), ZERO)


def rho(rs):
    return Weight((1,) * rs.rank)


def theta(rs):
    return Root((1,) * rs.rank)


# -- enumerators ------------------------------------------------------------

def root_combinations(roots, start, floor):
    """Yield (b, end) for every b >= 0 with
    end = start - sum_g b[g] * roots[g] >= floor in every coordinate.

    roots are nonzero coefficient tuples with nonnegative entries, so a
    coordinate only decreases and a branch is cut as soon as it drops below
    floor.  The b come in lexicographic order: a depth-first walk on an
    explicit stack, which pushes each node's children largest count first.
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


def bounded_degree_exponents(nvars, dmax):
    """Every exponent tuple in nvars variables of total degree <= dmax, in
    lexicographic order."""
    if nvars == 0:
        if dmax >= 0:
            yield ()
        return
    for e in range(dmax + 1):
        for rest in bounded_degree_exponents(nvars - 1, dmax - e):
            yield (e,) + rest


def offset_weight(rs, lam, coords):
    """The weight lam + sum_i coords[i] alpha_i (integer root coordinates)."""
    return lam + rs.root_to_weight(Root(coords))


# -- Weyl group --------------------------------------------------------------

def identity_perm(rs):
    return tuple(range(rs.n))


def simple_reflection(rs, i):
    """s_{alpha_{i+1}} as a permutation of {0..n-1} (0-based simple index i)."""
    if not 0 <= i < rs.rank:
        raise InvalidWeylWord("simple index out of range: %r" % (i,))
    p = list(range(rs.n))
    p[i], p[i + 1] = p[i + 1], p[i]
    return tuple(p)


def perm_compose(p, q):
    """(p o q): first q, then p."""
    return tuple(p[q[i]] for i in range(len(p)))


def perm_from_word(rs, word):
    """Permutation for a word in simple reflections (list of 0-based indices)."""
    p = identity_perm(rs)
    for i in word:
        p = perm_compose(p, simple_reflection(rs, i))
    return p


def weyl_act(rs, perm, lam):
    """Action of the permutation on a weight (via epsilon coordinates)."""
    v = rs.weight_to_eps(lam)
    w = [ZERO] * rs.n
    for j in range(rs.n):
        w[perm[j]] = v[j]
    return rs.eps_to_weight(w)


def weyl_act_root(rs, perm, alpha):
    """Action on a positive root; returns a Root (possibly negative of a
    positive one).  w(eps_i - eps_j) = eps_{perm[i]} - eps_{perm[j]}, and eps_a - eps_b is
    +-1 on the simple coordinates between a and b."""
    i, j = rs.root_pair(alpha)
    a, b = perm[i], perm[j]
    sign = 1 if a < b else -1
    lo, hi = min(a, b), max(a, b)
    return Root(sign if lo <= t < hi else 0 for t in range(rs.rank))


def all_weyl_elements(rs):
    return list(permutations(range(rs.n)))


def dot_action(rs, w, lam):
    """w . lam = w(lam + rho) - rho.  w is a permutation or a reduced word."""
    if w and isinstance(w[0], list):
        raise InvalidWeylWord("nested word")
    if all(isinstance(x, int) for x in w) and sorted(w) == list(range(rs.n)):
        perm = tuple(w)
    else:
        perm = perm_from_word(rs, list(w))
    r = rho(rs)
    return weyl_act(rs, perm, lam + r) - r


# -- serialization -----------------------------------------------------------

def frac_str(x):
    x = Fraction(x)
    return "%d/%d" % (x.numerator, x.denominator) if x.denominator != 1 else str(x.numerator)


def weight_to_json(lam):
    return [frac_str(c) for c in lam.coords]


def root_label(alpha):
    """Text label like 'a1+a2' for a positive root."""
    parts = []
    for i, c in enumerate(alpha.coeffs):
        if c == 0:
            continue
        parts.append(("a%d" % (i + 1)) if c == 1 else ("%da%d" % (c, i + 1)))
    return "+".join(parts) if parts else "0"
