"""The finite Weyl algebra A_nbar tensor U(h), the homomorphism pi_g, the
p/q polynomials, the Fock realizations F_nbar and F_{nbar,alpha}, the
characters of module tops and Gamma_alpha multiplicities.

_top_counts is the one table of a top's character, the Verma top or the
twisted top T_alpha M(lambda) = W(lambda, alpha), counted by
rootdata.lattice_counts; twist_character and the relaxed characters read it.

Every element is a flat sparse dict (see sparse), one level deep, summed
by sparse.add_into/add_term/added/scaled:

- a g element is {symbol: Fraction}, as liealg returns it;
- a C[nbar] tensor g element is {(symbol, x-exponents): Fraction}, the
  symbol times the monomial prod_gamma x_gamma^e_gamma;
- a Weyl element is {(x-exponents, d-exponents, h-exponents): Fraction},
  in the normal form with all x's to the left of all d's (h is central),
  and the commutation rule is [x_a, d_b] = -delta_ab (so d.x = x.d + 1 as
  operators);
- a Fock vector is {exponent tuple: Fraction}, read by its module's top
  (see fock_apply).

A module top is named by alpha_idx, the index of its twisting root alpha in
rs.positive_roots: None for the Verma top M(lambda), and alpha for the
Gelfand-Tsetlin top T_alpha M(lambda) = W(lambda, alpha).
"""

from fractions import Fraction
from math import comb, factorial, perm, prod

from . import liealg
from .errors import RealizationBug, WakimotoError
from .linalg import charpoly, rational_roots
from .liealg import bracket_symbols
from .rootdata import (build_root_system, guard_bits, lattice_counts,
                       offset_weight, pack, rho, root_combinations,
                       root_label, root_offset, unpack)
from .sparse import add_into, add_term, added, scaled

ZERO = Fraction(0)
ONE = Fraction(1)


# -- Weyl algebra -------------------------------------------------------------

def weyl_mul(A, B):
    """Product in normal form; CCR [x_a, d_b] = -delta_ab, i.e. d x = x d + 1.

    x^a1 d^b1 h^h1 . x^a2 d^b2 h^h2 reorders d^b x^a, per variable where
    both b = b1 and a = a2 are nonzero, by
    d^b x^a = sum_k C(b,k) C(a,k) k! x^{a-k} d^{b-k}; every other variable
    passes through."""
    out = {}
    for (a1, b1, h1), c1 in A.items():
        for (a2, b2, h2), c2 in B.items():
            h = tuple(p + q for p, q in zip(h1, h2))
            xa = tuple(p + q for p, q in zip(a1, a2))
            db = tuple(p + q for p, q in zip(b1, b2))
            terms = [(c1 * c2, ())]
            for v, (b, a) in enumerate(zip(b1, a2)):
                if a and b:
                    terms = [(c * comb(b, k) * comb(a, k) * factorial(k),
                              ks + ((v, k),))
                             for c, ks in terms for k in range(min(a, b) + 1)]
            for c, ks in terms:
                x, d = list(xa), list(db)
                for v, k in ks:
                    x[v] -= k
                    d[v] -= k
                add_term(out, (tuple(x), tuple(d), h), c)
    return out


# -- series kernels -----------------------------------------------------------

def bernoulli_k0(order):
    """Exact Taylor coefficients of K0(t) = t/(e^t-1), orders 0..order,
    computed by inverting the series (e^t-1)/t."""
    base = [Fraction(1, factorial(k + 1)) for k in range(order + 1)]
    k0 = [ONE]
    for m in range(1, order + 1):
        k0.append(-sum((k0[j] * base[m - j] for j in range(m)), ZERO))
    return k0


def _k1(order):
    """K1(t) = t e^t/(e^t-1) = K0(-t)."""
    return [c if k % 2 == 0 else -c for k, c in enumerate(bernoulli_k0(order))]


# -- C[nbar] tensor g and the series machinery --------------------------------

def ad_u(rs, elem):
    """ad(u) with u = sum_gamma x_gamma f_gamma, acting on C[nbar] tensor g."""
    out = {}
    for (sym, e), c in elem.items():
        for g in range(len(e)):
            br = bracket_symbols(rs, ("f", g), sym)
            if br:
                xe = e[:g] + (e[g] + 1,) + e[g + 1:]
                for s2, c2 in br.items():
                    add_term(out, (s2, xe), c * c2)
    return out


def apply_kernel(rs, coeffs, elem):
    """sum_i coeffs[i] ad(u)^i elem, truncated when the power vanishes."""
    acc = scaled(elem, coeffs[0])
    power = elem
    for i in range(1, len(coeffs)):
        power = ad_u(rs, power)
        if not power:
            break
        add_into(acc, power, coeffs[i])
    else:
        if ad_u(rs, power):
            raise RealizationBug("kernel order too small for nilpotency index")
    return acc


def _order_bound(rs):
    # ad(u) raises height by at least 1 on the e->h->f chain; 2n is safe.
    return 2 * rs.n + 2


def exp_minus_ad_u(rs, a):
    """e^{-ad u} of a g element {symbol: Fraction}, in C[nbar] tensor g."""
    N = _order_bound(rs)
    coeffs = [Fraction((-1) ** i, factorial(i)) for i in range(N)]
    one = (0,) * len(rs.positive_roots)
    return apply_kernel(rs, coeffs, {(s, one): c for s, c in a.items()})


def _nbar_part(elem):
    return {k: c for k, c in elem.items() if k[0][0] == "f"}


_PI_CACHE = {}

# The largest n whose pi_g is computed.  pi_g alone stays cheap for a while
# (on a 2-core box `pi-g -n 8 e:theta` takes 1.7 s and 30 MB, `-n 9` 7 s
# and 74 MB, `-n 10` 40 s), but the commands that lift it into the affine
# fields do not: `ff-field -n 5 -k 1/2 e:theta` takes 1.1 s and 39 MB and
# `verify zhu-diagram -n 5` 2.1 s and 41 MB, while `ff-field -n 6` took
# 12 s and 349 MB.
MAX_PI_G_N = 5


def pi_g(rs, sym):
    """pi_g of a Chevalley basis symbol as a Weyl element (cached per
    (n, sym), like liealg.bracket_symbols); callers must not change it."""
    key = (rs.n, sym)
    w = _PI_CACHE.get(key)
    if w is None:
        w = _PI_CACHE[key] = _pi_g(rs, sym)
    return w


def _pi_g(rs, sym):
    """The finite free-field homomorphism on a basis symbol:

    pi_g(a) = -sum_alpha [K1(ad u)(e^{-ad u}a)_nbar]_alpha d_alpha
              + (e^{-ad u}a)_h,  K1(t) = t e^t/(e^t-1).

    WakimotoError, before any series is computed, if n > MAX_PI_G_N.
    """
    if rs.n > MAX_PI_G_N:
        raise WakimotoError("pi_g at n = %d is above the limit n = %d"
                            % (rs.n, MAX_PI_G_N))
    npos = len(rs.positive_roots)
    v = exp_minus_ad_u(rs, {sym: ONE})
    w = apply_kernel(rs, _k1(_order_bound(rs)), _nbar_part(v))
    zero_h, zero_d = (0,) * rs.rank, (0,) * npos
    terms = {}
    for ((kind, alpha), e), c in w.items():
        assert kind == "f"
        dexp = tuple(1 if t == alpha else 0 for t in range(npos))
        add_term(terms, (e, dexp, zero_h), -c)
    for ((kind, i), e), c in v.items():
        if kind == "h":
            hvar = tuple(1 if t == i else 0 for t in range(rs.rank))
            add_term(terms, (e, zero_d, hvar), c)
    return terms


def pi_g_elem(rs, a):
    """pi_g extended linearly to a g element {symbol: Fraction}, as a new
    Weyl element."""
    out = {}
    for s, c in a.items():
        add_into(out, pi_g(rs, s), c)
    return out


# The largest n whose p/q polynomials are computed.  On a 2-core box
# `pq-polys -n 12 --gamma a2` takes 1.4 s and 37 MB and prints 1.9 MB, and
# `-n 14` 6.5 s and 127 MB; `-n 16` took 33 s and 575 MB, and `-n 24` held
# 1.8 GB after 60 s.
MAX_PQ_N = 12


def pq_polynomials(rs, gamma_idx):
    """(p^gamma, q^gamma) for a simple root gamma; maps alpha -> polynomial
    {x-exponents: Fraction}.  WakimotoError, before any series is computed,
    if n > MAX_PQ_N."""
    if sum(rs.positive_roots[gamma_idx]) != 1:
        raise WakimotoError("gamma must be simple")
    if rs.n > MAX_PQ_N:
        raise WakimotoError("the p/q polynomials at n = %d are above the "
                            "limit n = %d" % (rs.n, MAX_PQ_N))
    N = _order_bound(rs)
    k0m1 = bernoulli_k0(N)
    k0m1[0] -= 1  # K0 - 1
    one = (0,) * len(rs.positive_roots)
    pres = apply_kernel(rs, k0m1, {(("f", gamma_idx), one): ONE})
    eel = exp_minus_ad_u(rs, {("e", gamma_idx): ONE})
    qres = apply_kernel(rs, _k1(N), _nbar_part(eel))
    p_map, q_map = {}, {}
    for out, elem in ((p_map, _nbar_part(pres)), (q_map, _nbar_part(qres))):
        for ((_, alpha), e), c in elem.items():
            out.setdefault(alpha, {})[e] = c
    return p_map, q_map


# The largest n that pi_hom_check checks, all (dim g)^2 basis pairs.  On a
# 2-core box `verify pi-hom -n 4` takes 3.6 s and 18 MB; `-n 5` took 94 s.
MAX_PI_HOM_N = 4


def pi_hom_check(n):
    """Check pi_g([a,b]) = [pi_g(a), pi_g(b)] for all ordered basis pairs;
    returns (failures, checks), the failing pairs (expected none) and the
    number of pairs compared.  WakimotoError, before any pi_g or product is
    computed, if n > MAX_PI_HOM_N."""
    if n > MAX_PI_HOM_N:
        raise WakimotoError("verify pi-hom at n = %d is above the limit "
                            "n = %d" % (n, MAX_PI_HOM_N))
    rs = build_root_system(n)
    syms = liealg.basis_symbols(rs)
    failures = []
    checks = 0
    for s1 in syms:
        for s2 in syms:
            a, b = pi_g(rs, s1), pi_g(rs, s2)
            lhs = pi_g_elem(rs, bracket_symbols(rs, s1, s2))
            rhs = added(weyl_mul(a, b), weyl_mul(b, a), -1)
            checks += 1
            if lhs != rhs:
                failures.append((s1, s2))
    return failures, checks


# -- Fock realizations --------------------------------------------------------

def fock_weight(rs, alpha_idx, lam, mono):
    """h-weight of a Fock monomial of the top alpha_idx, lambda twist
    included.

    Monomials are exponent tuples over the positive roots.  On the Verma top
    (F_nbar) the exponent e at position gamma is the d_gamma power, of
    weight -e gamma.  On the top twisted along alpha (F_{nbar,alpha}) the
    exponent e at alpha is the x_alpha power, of weight (e + 1) alpha.
    """
    coeffs = [e + 1 if g == alpha_idx else -e for g, e in enumerate(mono)]
    return offset_weight(rs, lam, tuple(
        sum(c * a[t] for c, a in zip(coeffs, rs.positive_roots))
        for t in range(rs.rank)))


def fock_terms(w, rs, lam):
    """The terms of a Weyl element with h evaluated at lambda + 2 rho and
    summed per (x-exponents, d-exponents), as a list of (x-exponents,
    d-exponents, scalar); the terms whose scalar is zero are dropped.
    fock_apply applies them."""
    hvals = (lam + 2 * rho(rs)).coords
    out = {}
    for (xa, db, he), c in w.items():
        add_term(out, (xa, db),
                 c * prod(x ** k for x, k in zip(hvals, he) if k))
    return [(xa, db, c) for (xa, db), c in out.items()]


def fock_apply(terms, alpha_idx, v):
    """Apply evaluated terms (fock_terms) to a vector of the top alpha_idx;
    returns a new Fock vector whose coefficients are products of v's and
    the scalars (ints on ints).

    On F_nbar: d_gamma multiplies, x_gamma acts as -d/d(d_gamma).
    On F_{nbar,alpha}: x_alpha multiplies, d_alpha = d/dx_alpha, the other
    x_gamma act as -d/d(d_gamma), the other d_gamma multiply.  The operator
    x^a d^b acts d's-first, on each variable from the monomial's own
    exponent e: at alpha d_alpha^b gives perm(e, b), elsewhere x_gamma^a
    gives (-1)^a perm(e + b, a).
    """
    out = {}
    for xa, db, scal in terms:
        for mono, c in v.items():
            f = 1
            m = []
            for g, (e, a, b) in enumerate(zip(mono, xa, db)):
                if g == alpha_idx:
                    f *= perm(e, b)
                    m.append(e - b + a)
                else:
                    f *= (-1) ** a * perm(e + b, a)
                    m.append(e + b - a)
                if not f:
                    break
            else:
                add_term(out, tuple(m), c * scal * f)
    return out


# -- characters ---------------------------------------------------------------
#
# A character is counted as {root-coordinate offset from lambda: count};
# each offset is one int, its code (rootdata.pack), which only
# twist_character makes a Weight.

# The default cap on the alpha exponent k of a twisted top with a non-simple
# alpha.
KCAP = 60

# The most lattice points _top_counts may hold: prod_t (radius + 1 +
# kmax * alpha_t) bounds the points between the window's floor and the
# highest start.  On a 2-core box `twist-char -n 4 --alpha theta --window 4`
# (274,625) takes 1.4-1.6 s and 48 MB; `-n 4 --alpha theta --window 4
# --kcap 100` (1,157,625) took 14 s and 149 MB.
MAX_TOP_BOX = 300000
# The most work _top_counts may do: lattice_counts walks each point once per
# generator, the positive roots (all but alpha on a GT top), so the work is
# the counting box times the generators.  A step costs about as much at any
# rank, 0.5-0.8 us from sl4 to sl14.  In process on a 2-core box
# `twist-char -n 4 --alpha theta --window 4` (274,625 x 5) takes 1.4-1.8 s,
# `verify characters -n 14 -D 0 --window 1` (8,192 x 91) 0.4-0.6 s and
# `-n 15` (16,384 x 105) 1.0-1.8 s, `twist-char -n 7 --alpha theta --window
# 1 --kcap 6` (262,144 x 20) 4.1-6.0 s.
MAX_TOP_WORK = 1500000


def _check_window(radius):
    """Refuse a window that holds no weight beyond lambda itself."""
    if radius < 1:
        raise WakimotoError("window radius must be positive")


def _top_kmax(rs, alpha_idx, radius, kcap):
    """The largest k of the starts k alpha of a top's count in the window
    |c| <= radius (0 for the Verma top).  WakimotoError if the counting
    box prod_t (radius + 1 + kmax * alpha_t), which bounds the points held
    between the window's floor and the highest start, exceeds MAX_TOP_BOX,
    or that box times the number of generators exceeds MAX_TOP_WORK."""
    if alpha_idx is None:
        alpha, kmax = (0,) * rs.rank, 0
    else:
        # for a simple alpha = alpha_s: at a window point c, the roots
        # gamma != alpha that contain alpha_s sum to B = k - c_s, and each
        # of them also contains another simple root, so it lowers another
        # coordinate: B <= -sum_{t != s} c_t <= (rank - 1) radius, hence
        # k <= rank * radius.  Tight: in sl4, alpha_2 reaches (-R, R, -R)
        # only with k = 3R.
        alpha = rs.positive_roots[alpha_idx]
        kmax = kcap if sum(alpha) > 1 else rs.rank * radius
    box = prod(radius + 1 + kmax * a for a in alpha)
    if box > MAX_TOP_BOX:
        raise WakimotoError("the top character up to radius %d needs a "
                            "counting box of %d lattice points; the limit "
                            "is %d" % (radius, box, MAX_TOP_BOX))
    gens = len(rs.positive_roots) - (alpha_idx is not None)
    if box * gens > MAX_TOP_WORK:
        raise WakimotoError("the top character up to radius %d walks a "
                            "counting box of %d lattice points with %d "
                            "generators, %d steps; the limit is %d"
                            % (radius, box, gens, box * gens, MAX_TOP_WORK))
    return kmax


def _top_counts(rs, alpha_idx, radius, kmax):
    """The character of a module top as {code of the root-coordinate offset
    from lambda (rootdata.pack): count} in the window |c| <= radius: the
    Verma character prod_gamma (1 - e^{-gamma})^{-1} when alpha_idx is None,
    otherwise the twisted one sum_{k >= 1} e^{k alpha} prod_{gamma != alpha}
    (1 - e^{-gamma})^{-1} with k stopped at kmax (_top_kmax, run first).

    For a non-simple alpha every count is a lower bound: the other roots
    hold every simple root, so (kmax + 1) alpha reaches every point
    c <= (kmax + 1) alpha, and every point counted lies below kmax alpha.
    A simple alpha's kmax reaches every window point, see _top_kmax.
    """
    roots = rs.positive_roots
    if alpha_idx is None:
        gens = roots
        starts = {(0,) * rs.rank: 1}
    else:
        alpha = roots[alpha_idx]
        gens = roots[:alpha_idx] + roots[alpha_idx + 1:]
        starts = {tuple(k * a for a in alpha): 1 for k in range(1, kmax + 1)}
    counts = lattice_counts(starts, gens, (-radius,) * rs.rank)
    # c <= u in every coordinate iff ((u | G) - c) & G == G, see rootdata
    G = guard_bits(rs.rank)
    top = pack((radius,) * rs.rank) | G
    return {c: m for c, m in counts.items() if (top - c) & G == G}


def twist_character(rs, lam, alpha_idx, radius, kcap=KCAP):
    """Character of T_alpha M(lambda) inside the window.

    Returns {Weight: mult} where mult is an int or ('ge', n) when the
    window multiplicity is not finite (possible only for non-simple alpha).
    char = e^lam (sum_{k>=1} e^{k alpha}) prod_{gamma != alpha}(1-e^{-gamma})^{-1}.
    """
    _check_window(radius)
    kmax = _top_kmax(rs, alpha_idx, radius, kcap)
    flagged = alpha_idx is not None and sum(rs.positive_roots[alpha_idx]) > 1
    return {offset_weight(rs, lam, unpack(c, rs.rank)):
            ("ge", m) if flagged else m
            for c, m in _top_counts(rs, alpha_idx, radius, kmax).items()}


# -- Gamma_alpha multiplicities ------------------------------------------------

# The most monomials gamma_alpha_multiplicity takes a spectrum on, counted
# before any matrix is built.  A simple alpha's space is one charpoly block,
# whose cost grows as the fourth power of its size: on a 2-core box
# `gamma-mult -n 3 --lam 0,0 --alpha a1 --mu 24,-48` (24 monomials) takes
# 1.2 s and 35 MB, `--mu 30,-60` (30) 5.7 s and 294 MB, and `-n 4
# --lam 0,0,0 --alpha a2 --mu -8,8,-8` (54) took 30 s.
MAX_GAMMA_DIM = 24


def _gamma_space(rs, lam, alpha_idx, mu, D):
    """The space that gamma_alpha_multiplicity reads, as {monomial: level}:
    mu-weight monomials of F_{nbar,alpha} that c_alpha maps into their own
    span, each with a degree that c_alpha never raises.

    - A simple alpha = alpha_s: the whole weight space, all at level 0.  It
      is finite: with c the root offset of mu, every root gamma != alpha
      holds a simple root t != s, so the weight fixes
      sum_gamma e_gamma gamma_t = -c_t and bounds the non-alpha degree (the
      degree without the x_alpha exponent) by -sum_{t != s} c_t.
    - alpha = theta: total degree <= D, at the total degree.
    - Any other alpha: non-alpha degree <= D, at that degree.

    The walk takes one x_alpha exponent a at a time.  The other roots sum
    to (a + 1) alpha - c, whose coordinates lie between 0 and the non-alpha
    degree, as a root's coordinates are 0 or 1; this bounds a.  They go to
    root_combinations, with the degree as one more coordinate, in groups by
    their first simple root t: no later group holds alpha_t, so a branch
    whose coordinate t is not zero is cut there.  WakimotoError if mu is
    not a weight of the space or, as soon as the walk finds more, if the
    space holds more than MAX_GAMMA_DIM monomials.
    """
    roots = rs.positive_roots
    alpha = roots[alpha_idx]
    c = root_offset(rs, lam, mu)
    if c is None or any(y > 0 for x, y in zip(alpha, c) if not x):
        raise WakimotoError("mu is not a weight of the truncated slice")
    inside = [y for x, y in zip(alpha, c) if x]
    simple = sum(alpha) == 1
    total = not simple and sum(alpha) == rs.rank
    bound = -sum(c) + sum(inside) if simple else D
    others = sorted((i for i in range(len(roots)) if i != alpha_idx),
                    key=lambda i: roots[i].index(1))
    groups = [[roots[i] + (1,) for i in others if roots[i].index(1) == t]
              for t in range(rs.rank)]

    def walk(t, b, rest):
        if t == rs.rank:
            yield b
            return
        for b2, end in root_combinations(groups[t], rest, 0):
            if not end[t]:
                yield from walk(t + 1, b + b2, end)

    level = {}
    for a in range(max(0, max(inside) - 1), min(inside) + bound):
        start = tuple((a + 1) * x - y for x, y in zip(alpha, c))
        for b in walk(0, (), start + (bound - a if total else bound,)):
            m = tuple(e for _, e in sorted([*zip(others, b), (alpha_idx, a)]))
            if fock_weight(rs, alpha_idx, lam, m) != mu:
                raise RealizationBug("the weight space walk met %r" % (m,))
            level[m] = 0 if simple else sum(b) + total * a
            if len(level) > MAX_GAMMA_DIM:
                raise WakimotoError(
                    "the c_alpha-invariant space holds more than %d "
                    "monomials" % MAX_GAMMA_DIM)
    if not level:
        raise WakimotoError("mu is not a weight of the truncated slice")
    return level


def gamma_alpha_multiplicity(rs, lam, alpha_idx, mu, D):
    """Eigenvalue multiplicities of c_alpha on the c_alpha-invariant space
    of mu-weight vectors of F_{nbar,alpha} tensor C_{lambda+2rho} that
    _gamma_space names.

    c_alpha never raises a monomial's level, so its matrix is block
    triangular and its spectrum is that of the blocks of one level: a
    diagonal block (every block for theta) reads its diagonal, any other
    runs charpoly and rational_roots.  RealizationBug if c_alpha maps a
    monomial out of the space or to a higher level, or if a block has a
    non-rational eigenvalue.
    """
    op = {}
    for coef, factors in liealg.casimir_s_alpha(rs, alpha_idx):
        prod = pi_g_elem(rs, factors[0])
        for f in factors[1:]:
            prod = weyl_mul(prod, pi_g_elem(rs, f))
        add_into(op, prod, coef)
    level = _gamma_space(rs, lam, alpha_idx, mu, D)
    terms = fock_terms(op, rs, lam)
    blocks = {}
    for m, g in level.items():
        blocks.setdefault(g, []).append(m)
    mult = {}
    for block in blocks.values():
        index = {m: i for i, m in enumerate(block)}
        mat = [[ZERO] * len(block) for _ in block]
        for j, m in enumerate(block):
            for m2, c in fock_apply(terms, alpha_idx, {m: ONE}).items():
                if m2 not in level or level[m2] > level[m]:
                    raise RealizationBug("c_alpha maps %r out of its "
                                         "invariant space" % (m,))
                if m2 in index:
                    mat[index[m2]][j] = c
        if not any(x for i, row in enumerate(mat)
                   for j, x in enumerate(row) if i != j):
            for i, row in enumerate(mat):
                add_term(mult, row[i], 1)
        else:
            roots, residual = rational_roots(charpoly(mat))
            if residual:
                raise RealizationBug("non-rational eigenvalues of c_alpha "
                                     "on an invariant block")
            add_into(mult, roots)
    return mult


# -- rendering ----------------------------------------------------------------

def render_weyl(rs, w):
    if not w:
        return "0"
    pieces = []
    for key in sorted(w, key=lambda k: (sum(k[0]) + sum(k[1]), k)):
        xa, db, he = key
        c = w[key]
        hm = []
        for g, a in enumerate(xa):
            if a:
                lab = root_label(rs.positive_roots[g])
                hm.append("x_{%s}" % lab if a == 1 else "x_{%s}^%d" % (lab, a))
        for g, b in enumerate(db):
            if b:
                lab = root_label(rs.positive_roots[g])
                hm.append("d_{%s}" % lab if b == 1 else "d_{%s}^%d" % (lab, b))
        for i, e in enumerate(he):
            if e:
                hm.append("h%d" % (i + 1) if e == 1 else "h%d^%d" % (i + 1, e))
        body = " ".join(hm) if hm else "1"
        if c == 1 and hm:
            pieces.append(body)
        elif c == -1 and hm:
            pieces.append("-" + body)
        else:
            pieces.append("%s %s" % (c, body) if hm else str(c))
    return " + ".join(pieces).replace("+ -", "- ")
