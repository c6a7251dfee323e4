"""Admissible levels and weights for sl_n: Pr_{k,Z}, the extended affine Weyl
group with its dot action, the projected sets Pr_k-bar, the Omega_k(p_Sigma)
sets (theorem-side construction plus an independent direct-definition oracle),
and nilpotent/Richardson orbit combinatorics for partitions of n.
"""

from fractions import Fraction
from math import comb, factorial, gcd

from .errors import InvalidRank, SizeMismatch
from .rootdata import (Weight, all_weyl_elements, bounded_degree_exponents,
                       build_root_system, dot_action, pairing, rho, theta,
                       weyl_act_root)


# -- admissible numbers ----------------------------------------------------------

class AdmissibleLevel:
    """An admissible level k of sl_n, k + n = p/q in lowest terms; compared
    and hashed by value."""

    __slots__ = ("n", "p", "q", "k")

    def __init__(self, n, p, q, k):
        self.n, self.p, self.q, self.k = n, p, q, k

    def _key(self):
        return (self.n, self.p, self.q, self.k)

    def __eq__(self, other):
        if type(other) is not AdmissibleLevel:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "AdmissibleLevel(n=%r, p=%r, q=%r, k=%r)" % self._key()


def admissible_check(k, n):
    """Accept k iff k + h_vee = p/q in lowest terms with p >= n (type A).
    Returns an AdmissibleLevel or a (False, reason) rejection."""
    if n < 2:
        raise InvalidRank("need n >= 2")
    k = Fraction(k)
    t = k + n
    if t <= 0:
        return (False, "nonpositive")
    p, q = t.numerator, t.denominator
    if p < n:
        return (False, "p_too_small")
    return AdmissibleLevel(n, p, q, k)


def level_from_pq(n, p, q):
    if q < 1:
        return (False, "q_not_positive")
    if gcd(p, q) != 1:
        return (False, "not_coprime")
    return admissible_check(Fraction(p, q) - n, n)


def pr_k_integral(lvl):
    """Dominant integral lambda with <lambda, theta_vee> <= p - n, sorted."""
    return [Weight(e)
            for e in bounded_degree_exponents(lvl.n - 1, lvl.p - lvl.n)]


# -- the extended affine Weyl group ----------------------------------------------

# The largest n for which pr_k_bar, pr_k_classes and the Omega sets run over
# the Weyl group S_n, all n! of its elements held at once.  On a 2-core box
# `prk -n 8 -p 8 -q 1` takes 9.2 s with a 42 MB peak and `omega -n 8 -p 8
# -q 1` 2.6 s (`prk -n 7 -p 7 -q 1`: 1.1 s, 19 MB); n = 9 holds 9 times as
# many permutations, and n = 12 would hold 479,001,600.
MAX_WEYL_N = 8

# The largest enumeration_size that the same functions run, n! x #eta x
# #Pr_{k,Z}.  On a 2-core box `prk -n 5 -p 8 -q 3` (63,000) takes 7 s and
# `prk -n 8 -p 8 -q 1` (40,320) 9-16 s; `prk -n 7 -p 9 -q 2` (987,840) took
# 90 s and printed 339 KB.
MAX_ENUMERATION = 100000


def enumeration_size(lvl):
    """n! x C(q-1+n-1, n-1) x C(p-1, n-1): the Weyl group elements, times
    the dominant coweights eta with (eta, theta) <= q-1, times the weights
    of Pr_{k,Z}; a bound on the dot actions the enumerators compute."""
    n, p, q = lvl.n, lvl.p, lvl.q
    return factorial(n) * comb(q + n - 2, n - 1) * comb(p - 1, n - 1)


def _check_enumeration(lvl):
    """InvalidRank (a usage error) if S_n, or the enumeration over it, is
    too large to run."""
    if lvl.n > MAX_WEYL_N:
        raise InvalidRank("this enumerates all n! Weyl group elements; "
                          "n = %d is above the limit %d"
                          % (lvl.n, MAX_WEYL_N))
    size = enumeration_size(lvl)
    if size > MAX_ENUMERATION:
        raise InvalidRank("n = %d, p = %d, q = %d enumerates about %d "
                          "(Weyl element, eta, weight) triples; the limit "
                          "is %d" % (lvl.n, lvl.p, lvl.q, size,
                                     MAX_ENUMERATION))


def dominant_coweights(rs, cap):
    """Dominant integral coweights eta with (eta, theta) <= cap.  In type A
    the fundamental coweights pair as (omega_i_vee, alpha_j) = delta_ij, so
    these are just nonnegative integer coordinate vectors with sum <= cap."""
    return [Weight(e) for e in bounded_degree_exponents(rs.rank, cap)]


def y_is_admissible(rs, w, eta, q):
    """y = w t_{-eta} maps the integral positive system of kLambda0 into the
    positive real roots iff for every alpha in Delta_+:
    0 <= (eta,alpha) <= q-1 when w(alpha) > 0, else 1 <= (eta,alpha) <= q."""
    for a in rs.positive_roots:
        v = pairing(rs, eta, a)
        wa = weyl_act_root(rs, w, a).coeffs
        if rs.is_positive_root(wa):
            if not (0 <= v <= q - 1):
                return False
        else:
            if not (1 <= v <= q):
                return False
    return True


def pr_k_bar(lvl):
    """Projections to h* of the dot-orbit of Pr_{k,Z} under all admissible
    y = w t_{-eta} with eta dominant, (eta,theta) <= q-1.  Deduplicated and
    sorted."""
    _check_enumeration(lvl)
    rs = build_root_system(lvl.n)
    base = pr_k_integral(lvl)
    t = lvl.k + lvl.n
    found = set()
    for w in all_weyl_elements(rs):
        for eta in dominant_coweights(rs, lvl.q - 1):
            if not y_is_admissible(rs, w, eta, lvl.q):
                continue
            for lam in base:
                # lam + k Lambda0 plus the affine rho (rho + n Lambda0) has
                # level k + n, so t_{-eta} moves its finite part by
                # -(k + n) eta: the projection of y.(lam + k Lambda0) is
                # w(lam + rho - (k + n) eta) - rho.
                found.add(dot_action(rs, w, lam - t * eta))
    return sorted(found, key=lambda x: x.coords)


def pr_k_classes(lvl, weights):
    """Group the weights of pr_k_bar(lvl) by finite W dot-action orbits
    ([Pr_k-bar])."""
    _check_enumeration(lvl)
    rs = build_root_system(lvl.n)
    pool = set(weights)
    classes = []
    for lam in weights:
        if lam not in pool:
            continue
        orbit = {dot_action(rs, w, lam) for w in all_weyl_elements(rs)}
        cls = sorted(orbit & pool, key=lambda x: x.coords)
        for m in cls:
            pool.discard(m)
        classes.append(cls)
    return classes


# -- Omega sets -------------------------------------------------------------------

def sigma_roots(rs, sigma):
    """Delta_Sigma: all roots (both signs) supported on the marked simple
    roots; returned as a set of coefficient tuples."""
    out = set()
    marked = set(sigma)
    for a in rs.positive_roots:
        if all((i + 1) in marked for i, c in enumerate(a.coeffs) if c):
            out.add(a.coeffs)
            out.add(tuple(-c for c in a.coeffs))
    return out


def omega_theorem(sigma, lvl):
    """Omega_k(p_Sigma) via the classification: union of Pr_{k,y} over
    admissible y = w t_{-eta} with w(theta) > 0,
    Delta_0^eta cap Delta_+ inside w^{-1}(Delta_+), and
    w(Delta_0^eta) = Delta_Sigma."""
    _check_enumeration(lvl)
    rs = build_root_system(lvl.n)
    dsig = sigma_roots(rs, sigma)
    base = pr_k_integral(lvl)
    t = lvl.k + lvl.n
    th = theta(rs)
    found = set()
    for w in all_weyl_elements(rs):
        if not rs.is_positive_root(weyl_act_root(rs, w, th).coeffs):
            continue
        for eta in dominant_coweights(rs, lvl.q - 1):
            if not y_is_admissible(rs, w, eta, lvl.q):
                continue
            zero_pos = [a for a in rs.positive_roots
                        if pairing(rs, eta, a) == 0]
            if any(not rs.is_positive_root(weyl_act_root(rs, w, a).coeffs)
                   for a in zero_pos):
                continue
            img = set()
            for a in zero_pos:
                wa = weyl_act_root(rs, w, a).coeffs
                img.add(wa)
                img.add(tuple(-c for c in wa))
            if img != dsig:
                continue
            for lam in base:
                # the finite part of y.(lam + k Lambda0), as in pr_k_bar
                found.add(dot_action(rs, w, lam - t * eta))
    return sorted(found, key=lambda x: x.coords)


def _is_pos_int(x):
    return x.denominator == 1 and x >= 1


def omega_direct(sigma, lvl):
    """Independent oracle: filter pr_k_bar by the definition — lambda in
    Lambda+(p_Sigma) (integral regular dominant on the Levi) and
    <lambda + rho, alpha_vee> not a positive integer on Delta_+^u."""
    rs = build_root_system(lvl.n)
    dsig = sigma_roots(rs, sigma)
    r = rho(rs)
    out = []
    for lam in pr_k_bar(lvl):
        lr = lam + r
        ok = True
        for a in rs.positive_roots:
            v = pairing(rs, lr, a)
            if a.coeffs in dsig:
                if not _is_pos_int(v):
                    ok = False
                    break
            else:
                if _is_pos_int(v):
                    ok = False
                    break
        if ok:
            out.append(lam)
    return out


def check_regular_dominant(lvl, lam, depth=3):
    """<lambda_hat + rho_hat, alpha_vee> not in -N0 for the real test roots
    +-alpha + m delta, m <= depth (finite roots at m = 0)."""
    rs = build_root_system(lvl.n)
    lr = lam + rho(rs)
    t = Fraction(lvl.p, lvl.q)
    for a in rs.positive_roots:
        base = pairing(rs, lr, a)
        for m in range(depth + 1):
            for s in (1, -1):
                if s < 0 and m == 0:
                    continue
                v = s * base + m * t
                if v.denominator == 1 and v <= 0:
                    return False
    return True


def omega_certificates(sigma, lvl, omega):
    """Export (lambda, alpha) pairs for every lambda in omega, the list
    Omega_k(p_Sigma), and alpha in Delta_+^u, the data of an admissible GT
    module."""
    rs = build_root_system(lvl.n)
    dsig = sigma_roots(rs, sigma)
    du = [a for a in rs.positive_roots if a.coeffs not in dsig]
    return [{"lambda": lam, "alpha": a} for lam in omega for a in du]


# -- partitions and nilpotent orbits ----------------------------------------------

def check_partition(parts):
    parts = tuple(int(p) for p in parts)
    if any(p <= 0 for p in parts) or list(parts) != sorted(parts, reverse=True):
        raise SizeMismatch("not a partition")
    return parts


def transpose(parts):
    parts = check_partition(parts)
    return tuple(sum(1 for p in parts if p > j) for j in range(parts[0]))


def orbit_dim(parts):
    """dim O_pi = n^2 - sum of squared transpose parts."""
    parts = check_partition(parts)
    n = sum(parts)
    return n * n - sum(t * t for t in transpose(parts))


def dominance_leq(p1, p2):
    p1, p2 = check_partition(p1), check_partition(p2)
    if sum(p1) != sum(p2):
        raise SizeMismatch("partitions of different n")
    s1 = s2 = 0
    for i in range(max(len(p1), len(p2))):
        s1 += p1[i] if i < len(p1) else 0
        s2 += p2[i] if i < len(p2) else 0
        if s1 > s2:
            return False
    return True


def all_partitions(n):
    if n < 1:
        raise InvalidRank("need n >= 1, got %r" % (n,))
    out = []

    def rec(remaining, maxpart, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for p in range(min(remaining, maxpart), 0, -1):
            rec(remaining - p, p, acc + [p])

    rec(n, n, [])
    return out


def orbit_labels(n, parts):
    labels = []
    if parts == (1,) * n:
        labels.append("zero")
    if n >= 2 and parts == tuple([2] + [1] * (n - 2)):
        labels.append("min")
    if n >= 3 and parts == ((n - 1, 1) if n > 2 else (n,)):
        labels.append("subreg")
    if parts == (n,):
        labels.append("reg")
    return labels


def hasse_covers(n):
    """Cover relations of the dominance order on partitions of n, as pairs
    (lower, upper)."""
    ps = all_partitions(n)
    leq = {(a, b) for a in ps for b in ps
           if a != b and dominance_leq(a, b)}
    covers = []
    for a, b in leq:
        if not any((a, c) in leq and (c, b) in leq for c in ps):
            covers.append((a, b))
    return sorted(covers)


def orbit_table(n):
    """Rows {partition, dim, labels, covers} for all nilpotent orbits."""
    covers = hasse_covers(n)
    rows = []
    for parts in sorted(all_partitions(n), key=lambda p: (orbit_dim(p), p)):
        rows.append({
            "partition": parts,
            "dim": orbit_dim(parts),
            "labels": orbit_labels(n, parts),
            "covers": sorted(b for a, b in covers if a == parts),
        })
    return rows


def levi_blocks(sigma, n):
    """Block sizes of the Levi of p_Sigma: maximal runs of marked simple
    roots give blocks of size run+1, unmarked gaps give 1's."""
    blocks = []
    run = 0
    for i in range(1, n):
        if i in sigma:
            run += 1
        else:
            blocks.append(run + 1)
            run = 0
    blocks.append(run + 1)
    return tuple(sorted(blocks, reverse=True))


def richardson(sigma, n):
    """Richardson partition of p_Sigma = transpose of the Levi block sizes;
    asserts the dimension identity dim = 2 |Delta_+^u|."""
    blocks = levi_blocks(sigma, n)
    part = transpose(blocks)
    rs = build_root_system(n)
    dsig = sigma_roots(rs, sigma)
    nu = sum(1 for a in rs.positive_roots if a.coeffs not in dsig)
    if orbit_dim(part) != 2 * nu:
        raise SizeMismatch("Richardson dimension identity failed")
    return part


def orbit_q(n, q):
    """The distinguished orbit lambda_q = [q^r, s], n = qr + s, 0 <= s < q."""
    if q < 1:
        raise SizeMismatch("q must be positive")
    r, s = divmod(n, q)
    parts = [q] * r + ([s] if s else [])
    return tuple(parts)
