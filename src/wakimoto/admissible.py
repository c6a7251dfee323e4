"""Admissible levels and weights for sl_n: Pr_{k,Z}, the extended affine Weyl
group with its dot action, the projected sets Pr_k-bar, the Omega_k(p_Sigma)
sets (theorem-side construction plus an independent direct-definition oracle),
and nilpotent/Richardson orbit combinatorics for partitions of n.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import gcd

from .errors import InvalidRank, SizeMismatch
from .rootdata import (Weight, bounded_degree_exponents, build_root_system,
                       pairing, rho, theta, weight_inner, weyl_act)

ZERO = Fraction(0)
ONE = Fraction(1)


# -- admissible numbers ----------------------------------------------------------

@dataclass(frozen=True)
class AdmissibleLevel:
    n: int
    p: int
    q: int
    k: Fraction


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


# -- affine weights and the extended affine Weyl group ----------------------------

@dataclass(frozen=True)
class AffineWeight:
    """finite + a0*Lambda0 + d*delta, finite in fundamental-weight coords."""
    finite: Weight
    a0: Fraction
    d: Fraction

    def __add__(self, other):
        return AffineWeight(self.finite + other.finite, self.a0 + other.a0,
                            self.d + other.d)

    def scale(self, c):
        c = Fraction(c)
        return AffineWeight(c * self.finite, c * self.a0, c * self.d)


def affine_inner(rs, x, y):
    """(.,.) extended by (Lambda0, delta) = 1, (Lambda0, Lambda0) =
    (delta, delta) = 0, h* orthogonal to both."""
    return weight_inner(rs, x.finite, y.finite) + x.a0 * y.d + x.d * y.a0


def t_translation(rs, eta, gamma):
    """t_eta(gamma) = gamma + (gamma,delta) eta
    - ((eta,eta)/2 (gamma,delta) + (gamma,eta)) delta."""
    gd = gamma.a0  # (gamma, delta)
    ge = weight_inner(rs, gamma.finite, eta)
    ee = weight_inner(rs, eta, eta)
    return AffineWeight(gamma.finite + gd * eta, gamma.a0,
                        gamma.d - (ee / 2 * gd + ge))


def affine_weyl_act(rs, w, eta, gamma):
    """(w, t_{-eta}) acting linearly: finite reflections fix Lambda0, delta."""
    g = t_translation(rs, -1 * eta, gamma)
    return AffineWeight(weyl_act(rs, w, g.finite), g.a0, g.d)


def rho_hat(rs):
    return AffineWeight(rho(rs), Fraction(rs.n), ZERO)


def affine_dot(rs, w, eta, gamma):
    rh = rho_hat(rs)
    moved = affine_weyl_act(rs, w, eta, gamma + rh)
    return moved + rh.scale(-1)


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
        wa = _act_root(rs, w, a)
        if rs.is_positive_root(wa):
            if not (0 <= v <= q - 1):
                return False
        else:
            if not (1 <= v <= q):
                return False
    return True


def _act_root(rs, w, a):
    """Image of a root under a finite Weyl element; returns the simple-root
    coefficient tuple (possibly of a negative root)."""
    from .rootdata import weyl_act_root
    return weyl_act_root(rs, w, a).coeffs


def all_perms(n):
    return [tuple(p) for p in permutations(range(n))]


def pr_k_bar(lvl, with_y=False):
    """Projections to h* of the dot-orbit of Pr_{k,Z} under all admissible
    y = w t_{-eta} with eta dominant, (eta,theta) <= q-1.  Deduplicated and
    sorted; with_y additionally returns one generating (w, eta, lambda)."""
    rs = build_root_system(lvl.n)
    base = [AffineWeight(lam, lvl.k, ZERO) for lam in pr_k_integral(lvl)]
    found = {}
    for w in all_perms(lvl.n):
        for eta in dominant_coweights(rs, lvl.q - 1):
            if not y_is_admissible(rs, w, eta, lvl.q):
                continue
            for g in base:
                lam = affine_dot(rs, w, eta, g).finite
                found.setdefault(lam, (w, eta, g.finite))
    weights = sorted(found, key=lambda x: x.coords)
    if with_y:
        return weights, found
    return weights


def pr_k_classes(lvl):
    """Group pr_k_bar by finite W dot-action orbits ([Pr_k-bar])."""
    rs = build_root_system(lvl.n)
    from .rootdata import all_weyl_elements, dot_action
    weights = pr_k_bar(lvl)
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
    rs = build_root_system(lvl.n)
    dsig = sigma_roots(rs, sigma)
    base = [AffineWeight(lam, lvl.k, ZERO) for lam in pr_k_integral(lvl)]
    th = theta(rs)
    found = set()
    for w in all_perms(lvl.n):
        if not rs.is_positive_root(_act_root(rs, w, th)):
            continue
        for eta in dominant_coweights(rs, lvl.q - 1):
            if not y_is_admissible(rs, w, eta, lvl.q):
                continue
            zero_pos = [a for a in rs.positive_roots
                        if pairing(rs, eta, a) == 0]
            if any(not rs.is_positive_root(_act_root(rs, w, a))
                   for a in zero_pos):
                continue
            img = set()
            for a in zero_pos:
                wa = _act_root(rs, w, a)
                img.add(wa)
                img.add(tuple(-c for c in wa))
            if img != dsig:
                continue
            for g in base:
                found.add(affine_dot(rs, w, eta, g).finite)
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


def omega_certificates(sigma, lvl):
    """Export (lambda, alpha) pairs for every lambda in Omega_k(p_Sigma) and
    alpha in Delta_+^u, the data of an admissible GT module."""
    rs = build_root_system(lvl.n)
    dsig = sigma_roots(rs, sigma)
    du = [a for a in rs.positive_roots if a.coeffs not in dsig]
    return [{"lambda": lam, "alpha": a} for lam in omega_direct(sigma, lvl)
            for a in du]


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
