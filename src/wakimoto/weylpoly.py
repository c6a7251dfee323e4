"""The finite Weyl algebra A_nbar tensor U(h), the homomorphism pi_g, the
p/q polynomials, the Fock realizations F_nbar and F_{nbar,alpha}, twisted
characters and Gamma_alpha multiplicities.

Polynomials are sparse dicts {exponent tuple: Fraction}.  A WeylElement is a
dict {(x-exponents, d-exponents): h-polynomial}; the normal form has all x's
to the left of all d's, and the commutation rule is [x_a, d_b] = -delta_ab
(so d.x = x.d + 1 as operators).
"""

from fractions import Fraction
from math import comb, factorial

from . import liealg
from .errors import (EmptyWindow, ModuleMismatch, NotInNilradical,
                     NotSimpleRoot)
from .linalg import charpoly, rational_roots
from .liealg import LieElement, bracket_symbols
from .rootdata import (bounded_degree_exponents, offset_weight, rho,
                       root_combinations, root_label)
from .sparse import add_nested, add_term, added, scaled

ZERO = Fraction(0)
ONE = Fraction(1)


# -- sparse polynomial helpers ------------------------------------------------

def poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            add_term(out, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
    return out


def poly_var(nvars, i):
    return {tuple(1 if j == i else 0 for j in range(nvars)): ONE}


def poly_eval(p, values):
    acc = ZERO
    for e, c in p.items():
        term = c
        for x, k in zip(values, e):
            if k:
                term *= x ** k
        acc += term
    return acc


# -- Weyl algebra -------------------------------------------------------------

class WeylElement:
    """Normal-form element of A_nbar tensor U(h)."""

    __slots__ = ("rs", "terms")

    def __init__(self, rs, terms=None):
        self.rs = rs
        self.terms = {}
        if terms:
            for key, hp in terms.items():
                if hp:
                    self.terms[key] = hp

    @classmethod
    def zero(cls, rs):
        return cls(rs)

    @classmethod
    def const(cls, rs, c=1):
        npos = len(rs.positive_roots)
        z = (0,) * npos
        return cls(rs, {(z, z): {(0,) * rs.rank: Fraction(c)}})

    def __add__(self, other):
        out = dict(self.terms)
        for key, hp in other.terms.items():
            add_nested(out, key, hp)
        return WeylElement(self.rs, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, c):
        c = Fraction(c)
        return WeylElement(self.rs, {k: scaled(hp, c)
                                     for k, hp in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.terms == other.terms

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        return "WeylElement(%s)" % (render_weyl(self),)


def weyl_mul(A, B):
    """Product in normal form; CCR [x_a, d_b] = -delta_ab, i.e. d x = x d + 1."""
    rs = A.rs
    npos = len(rs.positive_roots)
    out = {}
    for (a1, b1), h1 in A.terms.items():
        for (a2, b2), h2 in B.terms.items():
            hp = poly_mul(h1, h2)
            # reorder d^{b1} x^{a2} per variable:
            # d^b x^a = sum_k C(b,k) C(a,k) k! x^{a-k} d^{b-k}
            combos = [((), ONE)]
            for v in range(npos):
                b, a = b1[v], a2[v]
                kmax = min(a, b)
                new = []
                for ks, coef in combos:
                    for k in range(kmax + 1):
                        new.append((ks + (k,),
                                    coef * comb(b, k) * comb(a, k) * factorial(k)))
                combos = new
            for ks, coef in combos:
                xa = tuple(a1[v] + a2[v] - ks[v] for v in range(npos))
                db = tuple(b1[v] + b2[v] - ks[v] for v in range(npos))
                add_nested(out, (xa, db), hp, coef)
    return WeylElement(rs, out)


# -- series kernels -----------------------------------------------------------

def bernoulli_series(name, order):
    """Exact Taylor coefficients of the operator kernels, orders 0..order.

    Names: 't/(e^t-1)', 't*e^t/(e^t-1)', 't/(e^t-1)-1', '(e^t-1)/t'.
    Computed by inverting the series (e^t-1)/t.
    """
    base = [Fraction(1, factorial(k + 1)) for k in range(order + 1)]
    if name == "(e^t-1)/t":
        return base
    # invert: K0 * base = 1
    k0 = [ONE]
    for m in range(1, order + 1):
        s = sum((k0[j] * base[m - j] for j in range(m)), ZERO)
        k0.append(-s)
    if name == "t/(e^t-1)":
        return k0
    if name == "t/(e^t-1)-1":
        out = list(k0)
        out[0] -= 1
        return out
    if name == "t*e^t/(e^t-1)":
        # t e^t/(e^t-1) = t/(1 - e^{-t}) = K0(-t)
        return [c if k % 2 == 0 else -c for k, c in enumerate(k0)]
    raise ValueError("unknown kernel %r" % (name,))


# -- C[nbar] tensor g and the series machinery --------------------------------

class PolyGValued:
    """Element of C[nbar] tensor g: map basis symbol -> polynomial in x_alpha."""

    __slots__ = ("rs", "components")

    def __init__(self, rs, components=None):
        self.rs = rs
        self.components = {s: p for s, p in (components or {}).items() if p}

    @classmethod
    def from_lie(cls, a):
        npos = len(a.rs.positive_roots)
        one = (0,) * npos
        return cls(a.rs, {s: {one: c} for s, c in a.coeffs.items()})

    def is_zero(self):
        return not self.components

    def scale_add(self, other, c):
        out = dict(self.components)
        for s, p in other.components.items():
            add_nested(out, s, p, c)
        return PolyGValued(self.rs, out)


def ad_u(elem):
    """ad(u) with u = sum_gamma x_gamma f_gamma, acting on C[nbar] tensor g."""
    rs = elem.rs
    npos = len(rs.positive_roots)
    out = {}
    for sym, p in elem.components.items():
        for g in range(npos):
            br = bracket_symbols(rs, ("f", g), sym)
            if not br:
                continue
            xp = poly_mul(poly_var(npos, g), p)
            for s2, c2 in br.items():
                add_nested(out, s2, xp, c2)
    return PolyGValued(rs, out)


def apply_kernel(coeffs, elem):
    """sum_i coeffs[i] ad(u)^i elem, truncated when the power vanishes."""
    acc = PolyGValued(elem.rs).scale_add(elem, coeffs[0])
    power = elem
    for i in range(1, len(coeffs)):
        power = ad_u(power)
        if power.is_zero():
            break
        acc = acc.scale_add(power, coeffs[i])
    else:
        if not ad_u(power).is_zero():
            raise RuntimeError("kernel order too small for nilpotency index")
    return acc


def _order_bound(rs):
    # ad(u) raises height by at least 1 on the e->h->f chain; 2n is safe.
    return 2 * rs.n + 2


def exp_minus_ad_u(a):
    rs = a.rs
    N = _order_bound(rs)
    coeffs = [Fraction((-1) ** i, factorial(i)) for i in range(N)]
    return apply_kernel(coeffs, PolyGValued.from_lie(a))


def T_poly(a):
    """T(a,x) = [t/(e^t-1)](ad u) a, for a in nbar."""
    if a.support_kinds() - {"f"}:
        raise NotInNilradical("T_poly needs a in nbar")
    rs = a.rs
    k0 = bernoulli_series("t/(e^t-1)", _order_bound(rs))
    out = apply_kernel(k0, PolyGValued.from_lie(a))
    if {s[0] for s in out.components} - {"f"}:
        raise RuntimeError("kernel did not preserve nbar")
    return out


def pi_g(a):
    """The finite free-field homomorphism, basis elements -> WeylElement.

    pi_g(a) = -sum_alpha [K1(ad u)(e^{-ad u}a)_nbar]_alpha d_alpha
              + (e^{-ad u}a)_h,  K1(t) = t e^t/(e^t-1).
    """
    rs = a.rs
    npos = len(rs.positive_roots)
    v = exp_minus_ad_u(a)
    nbar = PolyGValued(rs, {s: p for s, p in v.components.items() if s[0] == "f"})
    hpart = {s: p for s, p in v.components.items() if s[0] == "h"}
    k1 = bernoulli_series("t*e^t/(e^t-1)", _order_bound(rs))
    w = apply_kernel(k1, nbar)
    terms = {}
    zero_h = (0,) * rs.rank
    for (kind, alpha), p in w.components.items():
        assert kind == "f"
        dexp = tuple(1 if t == alpha else 0 for t in range(npos))
        for e, c in p.items():
            add_nested(terms, (e, dexp), {zero_h: -c})
    zero_d = (0,) * npos
    for (kind, i), p in hpart.items():
        hvar = tuple(1 if t == i else 0 for t in range(rs.rank))
        for e, c in p.items():
            add_nested(terms, (e, zero_d), {hvar: c})
    return WeylElement(rs, terms)


def pi_g_elem(a):
    """pi_g extended linearly to an arbitrary LieElement."""
    rs = a.rs
    out = WeylElement.zero(rs)
    for s, c in a.coeffs.items():
        out = out + c * pi_g(LieElement.basis(rs, s))
    return out


def pq_polynomials(rs, gamma_idx):
    """(p^gamma, q^gamma) for a simple root gamma; maps alpha -> polynomial."""
    alpha = rs.positive_roots[gamma_idx]
    if alpha.height != 1:
        raise NotSimpleRoot("gamma must be simple")
    N = _order_bound(rs)
    k0m1 = bernoulli_series("t/(e^t-1)-1", N)
    k1 = bernoulli_series("t*e^t/(e^t-1)", N)
    fel = PolyGValued.from_lie(LieElement.basis(rs, ("f", gamma_idx)))
    pres = apply_kernel(k0m1, fel)
    p_map = {s[1]: p for s, p in pres.components.items() if s[0] == "f"}
    eel = exp_minus_ad_u(LieElement.basis(rs, ("e", gamma_idx)))
    nbar = PolyGValued(rs, {s: p for s, p in eel.components.items() if s[0] == "f"})
    qres = apply_kernel(k1, nbar)
    q_map = {s[1]: p for s, p in qres.components.items() if s[0] == "f"}
    return p_map, q_map


def verify_pi_hom(n):
    """Check pi_g([a,b]) = [pi_g(a), pi_g(b)] for all basis pairs; returns
    the list of failing pairs (expected empty)."""
    from .rootdata import build_root_system

    rs = build_root_system(n)
    syms = liealg.basis_symbols(rs)
    images = {s: pi_g(LieElement.basis(rs, s)) for s in syms}
    failures = []
    for s1 in syms:
        for s2 in syms:
            lhs = pi_g_elem(liealg.bracket(LieElement.basis(rs, s1),
                                           LieElement.basis(rs, s2)))
            rhs = weyl_mul(images[s1], images[s2]) - weyl_mul(images[s2], images[s1])
            if lhs != rhs:
                failures.append((s1, s2))
    return failures


# -- Fock realizations --------------------------------------------------------

def top_kind(top, alpha_idx):
    """The FockVector kind of a module top: 'V' for a Verma top, and
    ('GT', alpha_idx) for a Gelfand-Tsetlin top twisted along alpha."""
    if top == "V":
        return "V"
    if top != "GT":
        raise ModuleMismatch("top must be 'V' or 'GT'")
    if alpha_idx is None:
        raise ModuleMismatch("GT top needs alpha")
    return ("GT", alpha_idx)


class FockVector:
    """Vector of F_nbar or F_{nbar,alpha}, twisted by C_{lambda+2rho}.

    Monomials are exponent tuples over the positive roots.  For kind 'V'
    (F_nbar) the exponent at position gamma is the d_gamma power.  For kind
    ('GT', alpha) the exponent at position alpha is the x_alpha power and
    at gamma != alpha the d_gamma power.
    """

    __slots__ = ("rs", "kind", "lam", "terms")

    def __init__(self, rs, kind, lam, terms=None):
        self.rs = rs
        self.kind = kind
        self.lam = lam
        self.terms = {}
        if terms:
            for m, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[m] = c

    @classmethod
    def vacuum(cls, rs, kind, lam):
        return cls(rs, kind, lam, {(0,) * len(rs.positive_roots): ONE})

    def __add__(self, other):
        if self.kind != other.kind or self.lam != other.lam:
            raise ModuleMismatch("incompatible Fock vectors")
        return FockVector(self.rs, self.kind, self.lam,
                          added(self.terms, other.terms))

    def __rmul__(self, c):
        return FockVector(self.rs, self.kind, self.lam,
                          scaled(self.terms, Fraction(c)))

    def __eq__(self, other):
        return (isinstance(other, FockVector) and self.kind == other.kind
                and self.lam == other.lam and self.terms == other.terms)

    def is_zero(self):
        return not self.terms

    def weight_of(self, mono):
        """h-weight of a monomial (includes the lambda twist)."""
        rs = self.rs
        wt = self.lam
        if self.kind == "V":
            for g, b in enumerate(mono):
                if b:
                    wt = wt - b * rs.root_to_weight(rs.positive_roots[g])
        else:
            alpha = self.kind[1]
            aw = rs.root_to_weight(rs.positive_roots[alpha])
            wt = wt + (mono[alpha] + 1) * aw
            for g, b in enumerate(mono):
                if g != alpha and b:
                    wt = wt - b * rs.root_to_weight(rs.positive_roots[g])
        return wt


def _lam_2rho_values(rs, lam):
    r2 = lam + 2 * rho(rs)
    return [r2.coords[i] for i in range(rs.rank)]


def act_F(w, v):
    """Apply a WeylElement to a Fock vector.

    On F_nbar: d_gamma multiplies, x_gamma acts as -d/d(d_gamma).
    On F_{nbar,alpha}: x_alpha multiplies, d_alpha = d/dx_alpha, the other
    x_gamma act as -d/d(d_gamma), the other d_gamma multiply.  h acts on the
    twist by (lambda+2rho)(h).
    """
    if w.rs.n != v.rs.n:
        raise ModuleMismatch("root system mismatch")
    rs = v.rs
    hvals = _lam_2rho_values(rs, v.lam)
    alpha = None if v.kind == "V" else v.kind[1]
    out = {}
    for (xa, db), hp in w.terms.items():
        scal = poly_eval(hp, hvals)
        if scal == 0:
            continue
        for mono, c in v.terms.items():
            coef = c * scal
            m = list(mono)
            ok = True
            # d-part first (the operator x^a d^b acts d's-first)
            for g, b in enumerate(db):
                if not b:
                    continue
                if g == alpha:
                    # d/dx_alpha, b times
                    for _ in range(b):
                        if m[g] == 0:
                            ok = False
                            break
                        coef *= m[g]
                        m[g] -= 1
                    if not ok:
                        break
                else:
                    m[g] += b
            if not ok:
                continue
            # x-part
            for g, a in enumerate(xa):
                if not a:
                    continue
                if g == alpha:
                    m[g] += a
                else:
                    for _ in range(a):
                        if m[g] == 0:
                            ok = False
                            break
                        coef *= -m[g]
                        m[g] -= 1
                    if not ok:
                        break
            if not ok or coef == 0:
                continue
            add_term(out, tuple(m), coef)
    return FockVector(rs, v.kind, v.lam, out)


# -- characters ---------------------------------------------------------------
#
# A character is counted as {root-coordinate offset from lambda: mult}; the
# offsets are integer tuples, and each becomes a Weight once, on output.

def _check_window(radius):
    """Refuse a window that holds no weight beyond lambda itself."""
    if radius < 1:
        raise EmptyWindow("window radius must be positive")


def _in_window(coords, radius):
    return all(-radius <= c <= radius for c in coords)


def _flag_unbounded(table, flagged):
    return {c: (("ge", m) if c in flagged else m) for c, m in table.items()}


def _twist_counts(rs, alpha_idx, radius, kcap):
    """twist_character as {root-coordinate offset: mult}."""
    alpha = rs.positive_roots[alpha_idx]
    others = [g.coeffs for i, g in enumerate(rs.positive_roots)
              if i != alpha_idx]
    simple = alpha.height == 1

    def contributions(k):
        """Offsets k*alpha - sum b_g gamma inside the window box."""
        base = tuple(k * c for c in alpha.coeffs)
        return [end for _, end in root_combinations(others, base, -radius)
                if _in_window(end, radius)]

    table = {}
    kmax = kcap if not simple else (2 * radius + 2 * rs.n)
    for k in range(1, kmax + 1):
        for end in contributions(k):
            table[end] = table.get(end, 0) + 1
    # one step past the cap: any weight still being hit grows forever
    flagged = set() if simple else set(contributions(kmax + 1))
    return _flag_unbounded(table, flagged)


def twist_character(rs, lam, alpha_idx, radius, kcap=60):
    """Character of T_alpha M(lambda) inside the window.

    Returns {Weight: mult} where mult is an int or ('ge', n) when the
    window multiplicity is not finite (possible only for non-simple alpha).
    char = e^lam (sum_{k>=1} e^{k alpha}) prod_{gamma != alpha}(1-e^{-gamma})^{-1}.
    """
    _check_window(radius)
    return {offset_weight(rs, lam, c): m
            for c, m in _twist_counts(rs, alpha_idx, radius, kcap).items()}


def _fock_counts(rs, kind, radius, kcap):
    """fock_character as {root-coordinate offset: mult}."""
    roots = [g.coeffs for g in rs.positive_roots]
    table = {}
    if kind == "V":
        # monomials prod d^{b_g}: offset -sum b_g gamma
        for _, end in root_combinations(roots, (0,) * rs.rank, -radius):
            table[end] = table.get(end, 0) + 1
        return table
    alpha_idx = kind[1]
    alpha = rs.positive_roots[alpha_idx]
    simple = alpha.height == 1
    others = roots[:alpha_idx] + roots[alpha_idx + 1:]
    amax = kcap if not simple else (2 * radius + 2 * rs.n)

    def sweep(a):
        """Offsets of x_alpha^a prod d^{b_g} inside the window box."""
        base = tuple((a + 1) * c for c in alpha.coeffs)
        return [end for _, end in root_combinations(others, base, -radius)
                if _in_window(end, radius)]

    for a in range(amax):
        for end in sweep(a):
            table[end] = table.get(end, 0) + 1
    flagged = set() if simple else set(sweep(amax))
    return _flag_unbounded(table, flagged)


def fock_character(rs, lam, kind, radius, kcap=60):
    """Character of the Fock realization (F_nbar or F_{nbar,alpha}) inside the
    window, by direct monomial enumeration; same flag convention as
    twist_character."""
    _check_window(radius)
    return {offset_weight(rs, lam, c): m
            for c, m in _fock_counts(rs, kind, radius, kcap).items()}


# -- Gamma_alpha multiplicities ------------------------------------------------

def gamma_alpha_multiplicity(rs, lam, alpha_idx, mu, D):
    """Eigenvalue multiplicities of c_alpha on the degree-<=D slice of the
    mu-weight space of F_{nbar,alpha} tensor C_{lambda+2rho}."""
    from .errors import EmptyWeightSpace

    kind = ("GT", alpha_idx)
    probe = FockVector(rs, kind, lam)
    basis = [m for m in bounded_degree_exponents(len(rs.positive_roots), D)
             if probe.weight_of(m) == mu]
    if not basis:
        raise EmptyWeightSpace("mu is not a weight of the truncated slice")
    index = {m: i for i, m in enumerate(basis)}
    cas = liealg.casimir_s_alpha(rs, alpha_idx)
    op = WeylElement.zero(rs)
    for coef, factors in cas:
        prod = WeylElement.const(rs)
        for f in factors:
            prod = weyl_mul(prod, pi_g_elem(f))
        op = op + coef * prod
    mat = [[ZERO] * len(basis) for _ in range(len(basis))]
    for j, m in enumerate(basis):
        img = act_F(op, FockVector(rs, kind, lam, {m: ONE}))
        for m2, c in img.terms.items():
            i = index.get(m2)
            if i is not None:  # projection P_D
                mat[i][j] = c
    cp = charpoly(mat)
    roots, residual = rational_roots(cp)
    if residual:
        raise ArithmeticError("non-rational eigenvalues in c_alpha spectrum")
    return roots


# -- rendering ----------------------------------------------------------------

def render_weyl(w):
    rs = w.rs
    if not w.terms:
        return "0"
    pieces = []
    for (xa, db) in sorted(w.terms, key=lambda k: (sum(k[0]) + sum(k[1]), k)):
        hp = w.terms[(xa, db)]
        mono = []
        for g, a in enumerate(xa):
            if a:
                lab = root_label(rs.positive_roots[g])
                mono.append("x_{%s}" % lab if a == 1 else "x_{%s}^%d" % (lab, a))
        for g, b in enumerate(db):
            if b:
                lab = root_label(rs.positive_roots[g])
                mono.append("d_{%s}" % lab if b == 1 else "d_{%s}^%d" % (lab, b))
        for he in sorted(hp):
            c = hp[he]
            hm = list(mono)
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
