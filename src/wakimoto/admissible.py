"""Admissible levels and weights for sl_n: Pr_{k,Z}, the extended affine Weyl
group with its dot action, the projected sets Pr_k-bar, the Omega_k(p_Sigma)
sets (theorem-side construction plus an independent direct-definition oracle),
and nilpotent/Richardson orbit combinatorics for partitions of n.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, gcd
from operator import itemgetter

from .errors import RealizationBug, WakimotoError
from .rootdata import (Weight, all_weyl_elements, build_root_system,
                       lattice_counts, pairing, rho, root_combinations, theta)
from .sparse import integral


# -- admissible numbers ----------------------------------------------------------

# An admissible level k of sl_n, k + n = p/q in lowest terms.
AdmissibleLevel = namedtuple("AdmissibleLevel", "n p q k")


def admissible_check(k, n):
    """The AdmissibleLevel of k if k + h_vee = p/q in lowest terms with
    p >= n (type A); WakimotoError naming the reason if not."""
    if n < 2:
        raise WakimotoError("need n >= 2")
    k = Fraction(k)
    t = k + n
    if t <= 0:
        raise WakimotoError("level not admissible: nonpositive")
    p, q = t.numerator, t.denominator
    if p < n:
        raise WakimotoError("level not admissible: p_too_small")
    return AdmissibleLevel(n, p, q, k)


def level_from_pq(n, p, q):
    if q < 1:
        raise WakimotoError("level not admissible: q_not_positive")
    if gcd(p, q) != 1:
        raise WakimotoError("level not admissible: not_coprime")
    return admissible_check(Fraction(p, q) - n, n)


def pr_k_integral(lvl):
    """Dominant integral lambda with <lambda, theta_vee> <= p - n, as int
    tuples of fundamental-weight coordinates, sorted."""
    return [e for e, _ in root_combinations([(1,)] * (lvl.n - 1),
                                            (lvl.p - lvl.n,), 0)]


# -- the extended affine Weyl group ----------------------------------------------

# The largest enumeration_size that pr_k_bar and the Omega sets run, n! x
# #eta x #Pr_{k,Z}.  It refuses every n >= 9, as n! >= 362,880 exceeds it,
# so S_n is never held at a size above 8! = 40,320 elements (n = 12 would
# hold 479,001,600).  On a 2-core box `prk -n 5 -p 8 -q 3` (63,000) takes
# 0.27 s and prints 397 KB, `prk -n 8 -p 8 -q 1` (40,320) 0.18 s with a
# 21 MB peak, and `omega -n 8 -p 8 -q 1` 0.26 s; with the limit lifted in
# process, `prk -n 7 -p 9 -q 2` (987,840) took 0.2 s and printed 339 KB,
# and `prk -n 9 -p 9 -q 1` 0.9 s and 59 MB.
MAX_ENUMERATION = 100000


def enumeration_size(lvl):
    """n! x C(q-1+n-1, n-1) x C(p-1, n-1): the Weyl group elements, times
    the dominant coweights eta with (eta, theta) <= q-1, times the weights
    of Pr_{k,Z}; a bound on the dot images the enumerators compute."""
    n, p, q = lvl.n, lvl.p, lvl.q
    return factorial(n) * comb(q + n - 2, n - 1) * comb(p - 1, n - 1)


def _check_enumeration(lvl):
    """WakimotoError (a usage error) if the enumeration over S_n is too
    large to run."""
    size = enumeration_size(lvl)
    if size > MAX_ENUMERATION:
        raise WakimotoError("n = %d, p = %d, q = %d enumerates about %d "
                            "(Weyl element, eta, weight) triples; the limit "
                            "is %d" % (lvl.n, lvl.p, lvl.q, size,
                                       MAX_ENUMERATION))


def dominant_coweights(rs, cap):
    """Dominant integral coweights eta with (eta, theta) <= cap.  In type A
    the fundamental coweights pair as (omega_i_vee, alpha_j) = delta_ij, so
    these are just nonnegative integer coordinate tuples with sum <= cap."""
    return [e for e, _ in root_combinations([(1,)] * rs.rank, (cap,), 0)]


def y_is_admissible(w, eta, q):
    """y = w t_{-eta} maps the integral positive system of kLambda0 into the
    positive real roots iff for every alpha in Delta_+:
    0 <= (eta,alpha) <= q-1 when w(alpha) > 0, else 1 <= (eta,alpha) <= q.

    w permutes the epsilon indices, so for alpha = eps_i - eps_j (i < j)
    w(alpha) > 0 iff w[i] < w[j]; eta is an int coordinate tuple, and
    (eta, alpha) = eta[i] + ... + eta[j-1]."""
    n = len(w)
    for i in range(n - 1):
        v = 0
        for j in range(i + 1, n):
            v += eta[j - 1]
            low = 0 if w[i] < w[j] else 1
            if not low <= v <= q - 1 + low:
                return False
    return True


def _scaled_eps(coords):
    """n eps(mu), an int vector, for the weight mu with int
    fundamental-weight coordinates coords:
    omega_i = eps_1 + ... + eps_i - (i/n)(eps_1 + ... + eps_n)."""
    n = len(coords) + 1
    shift = sum(i * c for i, c in enumerate(coords, 1))
    tails = list(accumulate(reversed(coords), initial=0))[::-1]
    return tuple(n * s - shift for s in tails)


def _dot_images(lvl, keep):
    """The sorted finite parts w(lam + rho - (k + n) eta) - rho of the dot
    images y.(lam + k Lambda0), lam in Pr_{k,Z}, over the admissible
    y = w t_{-eta}, eta dominant with (eta, theta) <= q-1, that keep(w, eta)
    accepts.  lam + k Lambda0 plus the affine rho (rho + n Lambda0) has
    level k + n = p/q, so t_{-eta} moves its finite part by -(p/q) eta.

    In epsilon coordinates scaled by nq these are int vectors:
    nq eps(lam + rho - (p/q) eta) = q n eps(lam + rho) - p n eps(eta), one
    for each (eta, lam), which w only permutes.  Each distinct image
    becomes a Weight once, through (E_i - E_{i+1})/(nq) - 1, the -1 being
    rho's coordinate."""
    _check_enumeration(lvl)
    rs = build_root_system(lvl.n)
    n, p, q = lvl.n, lvl.p, lvl.q
    lams = [_scaled_eps([c + 1 for c in lam]) for lam in pr_k_integral(lvl)]
    etas = dominant_coweights(rs, q - 1)
    starts = []
    for eta in etas:
        e = _scaled_eps(eta)
        starts.append([tuple(q * a - p * b for a, b in zip(lam, e))
                       for lam in lams])
    found = set()
    for w in all_weyl_elements(rs):
        # (w v)[w[j]] = v[j]
        act = itemgetter(*sorted(range(n), key=w.__getitem__))
        for eta, vecs in zip(etas, starts):
            if keep(w, eta):
                found.update(map(act, vecs))
    nq = n * q
    weights = (Weight([Fraction(a - b, nq) - 1 for a, b in zip(E, E[1:])])
               for E in found)
    return sorted(weights, key=lambda x: x.coords)


def pr_k_bar(lvl):
    """Projections to h* of the dot-orbit of Pr_{k,Z} under all admissible
    y = w t_{-eta} with eta dominant, (eta,theta) <= q-1.  Deduplicated and
    sorted."""
    return _dot_images(lvl, lambda w, eta: y_is_admissible(w, eta, lvl.q))


def pr_k_classes(lvl, weights):
    """Group the weights of pr_k_bar(lvl) by finite W dot-action orbits
    ([Pr_k-bar]): the classes in order of first appearance, each sorted.

    mu = w.lam iff eps(mu + rho) = w eps(lam + rho), a permutation of it, so
    the sorted epsilon vector of lam + rho names lam's orbit.  The weights
    of pr_k_bar have coordinates in (1/q)Z, so nq eps(lam + rho) is an int
    vector."""
    q = lvl.q
    classes = {}
    for lam in weights:
        E = _scaled_eps([integral(q * (c + 1)) for c in lam.coords])
        classes.setdefault(tuple(sorted(E)), set()).add(lam)
    return [sorted(cls, key=lambda x: x.coords) for cls in classes.values()]


# -- Omega sets -------------------------------------------------------------------

def sigma_roots(rs, sigma):
    """Delta_Sigma: all roots (both signs) supported on the marked simple
    roots; returned as a set of coefficient tuples."""
    out = set()
    marked = set(sigma)
    for a in rs.positive_roots:
        if all((i + 1) in marked for i, c in enumerate(a) if c):
            out.add(a)
            out.add(tuple(-c for c in a))
    return out


def omega_theorem(sigma, lvl):
    """Omega_k(p_Sigma) via the classification: union of Pr_{k,y} over
    admissible y = w t_{-eta} with w(theta) > 0,
    Delta_0^eta cap Delta_+ inside w^{-1}(Delta_+), and
    w(Delta_0^eta) = Delta_Sigma.

    As in y_is_admissible, w(eps_i - eps_j) = eps_w[i] - eps_w[j] with
    i < j, so the last two conditions together read: the pairs
    (w[i], w[j]) over Delta_0^eta cap Delta_+ are the pairs (a, b), a < b,
    of Delta_Sigma's positive roots."""
    rs = build_root_system(lvl.n)
    dsig = {rs.root_pair(a) for a in sigma_roots(rs, sigma)
            if rs.is_positive_root(a)}
    ti, tj = rs.root_pair(theta(rs))
    pairs = [rs.root_pair(a) for a in rs.positive_roots]

    def keep(w, eta):
        if w[ti] > w[tj] or not y_is_admissible(w, eta, lvl.q):
            return False
        img = {(w[i], w[j]) for i, j in pairs if sum(eta[i:j]) == 0}
        return img == dsig

    return _dot_images(lvl, keep)


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
            if a in dsig:
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


def omega_certificates(sigma, lvl, omega):
    """Export (lambda, alpha) pairs for every lambda in omega, the list
    Omega_k(p_Sigma), and alpha in Delta_+^u, the data of an admissible GT
    module."""
    rs = build_root_system(lvl.n)
    dsig = sigma_roots(rs, sigma)
    du = [a for a in rs.positive_roots if a not in dsig]
    return [{"lambda": lam, "alpha": a} for lam in omega for a in du]


# -- partitions and nilpotent orbits ----------------------------------------------

def check_partition(parts):
    parts = tuple(int(p) for p in parts)
    if any(p <= 0 for p in parts) or list(parts) != sorted(parts, reverse=True):
        raise WakimotoError("not a partition")
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
        raise WakimotoError("partitions of different n")
    s1 = s2 = 0
    for i in range(max(len(p1), len(p2))):
        s1 += p1[i] if i < len(p1) else 0
        s2 += p2[i] if i < len(p2) else 0
        if s1 > s2:
            return False
    return True


# The most partitions all_partitions lists, so the largest orbit table.  On
# a 2-core box `orbits -n 32` (8,349 partitions) takes 1.9 s and 70 MB and
# prints 5.6 MB; with the limit lifted in process, `-n 35` (14,883) took
# 2.4 s and 119 MB, and `-n 40` (37,338) 6.3 s and 301 MB, printing 31 MB.
MAX_PARTITIONS = 10000


def all_partitions(n):
    """The partitions of n, as tuples of descending parts.  WakimotoError,
    before any is listed, if there are more than MAX_PARTITIONS."""
    if n < 1:
        raise WakimotoError("need n >= 1, got %r" % (n,))
    parts = [(k,) for k in range(n, 0, -1)]
    count = lattice_counts({(n,): 1}, parts, lambda c: c[0] >= 0)[(0,)]
    if count > MAX_PARTITIONS:
        raise WakimotoError("n = %d has %d partitions; the limit is %d"
                            % (n, count, MAX_PARTITIONS))
    return [tuple(k for (k,), c in zip(parts, b) for _ in range(c))
            for b, end in root_combinations(parts, (n,), 0) if end == (0,)]


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
    """Cover relations of the dominance order on partitions of n, as sorted
    pairs (lower, upper), by Brylawski's rule (Discrete Math. 6, 1973): lam
    covers mu iff lam = mu + e_i - e_j with i < j is a partition and either
    j = i + 1 or mu_i = mu_j."""
    covers = []
    for mu in all_partitions(n):
        m = mu + (0,)
        for i in range(len(mu)):
            if i and m[i - 1] == m[i]:
                continue  # lam_i = mu_i + 1 would exceed lam_{i-1}
            for j in range(i + 1, len(mu)):
                if j > i + 1 and m[j] != m[i]:
                    break
                if m[j] > m[j + 1]:  # else lam_j < lam_{j+1}
                    lam = list(mu)
                    lam[i] += 1
                    lam[j] -= 1
                    covers.append((mu, tuple(x for x in lam if x)))
    return sorted(covers)


def orbit_table(n):
    """Rows {partition, dim, labels, covers} for all nilpotent orbits."""
    covers = {}
    for a, b in hasse_covers(n):
        covers.setdefault(a, []).append(b)
    rows = []
    for parts in sorted(all_partitions(n), key=lambda p: (orbit_dim(p), p)):
        rows.append({
            "partition": parts,
            "dim": orbit_dim(parts),
            "labels": orbit_labels(n, parts),
            "covers": covers.get(parts, []),
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
    nu = sum(1 for a in rs.positive_roots if a not in dsig)
    if orbit_dim(part) != 2 * nu:
        raise RealizationBug("Richardson dimension identity failed")
    return part


def orbit_q(n, q):
    """The distinguished orbit lambda_q = [q^r, s], n = qr + s, 0 <= s < q."""
    if q < 1:
        raise WakimotoError("q must be positive")
    r, s = divmod(n, q)
    parts = [q] * r + ([s] if s else [])
    return tuple(parts)
