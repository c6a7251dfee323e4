"""Mode-level free fields: the Weyl algebra of loop modes, the Heisenberg
algebra, the relaxed Wakimoto module, and the mode-level free-field
homomorphism with its c_gamma constants.

Mode dictionary (coefficient of z^j in each field):
    a*_alpha(z) = sum_j x_{alpha,j} z^j
    a_alpha(z)  = sum_j d_{x_{alpha,-j-1}} z^j
    b_i(z)      = sum_j b_{i,-j-1} z^j
and mode m of a current is the coefficient of z^{-m-1}.

WakimotoVector monomials are multisets over the creation generators
    D(gamma,m) = d_{x_{gamma,-m}},  X(gamma,m) = x_{gamma,m},  Y(i,m)   (m >= 1)
times top-component generators D0(gamma) = d_{x_{gamma,0}} (Verma; GT for
gamma != alpha) and X0(alpha) = x_{alpha,0} (GT).

Normal ordering places the annihilation set {x_{.,n<=-1}, d_{x_{.,n>=0}},
b_{.,n>=1}} to the right; on the relaxed module the two groups each consist of
mutually commuting operators, so group-internal order is immaterial.
"""

from bisect import bisect_left
from fractions import Fraction

from . import liealg, weylpoly
from .errors import RealizationBug
from .liealg import LieElement, bracket_symbols, kappa0_symbols
from .rootdata import rho
from .sparse import add_into, added, scaled

ZERO = Fraction(0)
ONE = Fraction(1)


def mono_energy(mono):
    return sum(key[2] * e for key, e in mono if len(key) == 3)


def canon(d):
    return tuple(sorted((k, e) for k, e in d.items() if e))


def _bump(m, key, delta):
    """Sorted-tuple monomial with key's exponent shifted by delta."""
    i = bisect_left(m, (key,))
    if i < len(m) and m[i][0] == key:
        e = m[i][1] + delta
        if e:
            return m[:i] + ((key, e),) + m[i + 1:]
        return m[:i] + m[i + 1:]
    return m[:i] + ((key, delta),) + m[i:]


def _ival(x):
    """Normalize a rational coefficient for the mode engine: plain int when
    integral, else Fraction.  An int is ==/hash-compatible with the equal
    Fraction, so vectors built from them compare equal to Fraction
    expectations, and int arithmetic is an order of magnitude faster."""
    num, den = int(x.numerator), int(x.denominator)
    if den == 1:
        return num
    return Fraction(num, den)


class WakimotoModule:
    """Context for a relaxed Wakimoto module: root system, top kind, highest
    data lambda (and alpha for GT tops), level k."""

    def __init__(self, rs, top, lam, k, alpha_idx=None):
        self.kind = weylpoly.top_kind(top, alpha_idx)
        self.rs = rs
        self.top = top
        self.lam = lam
        self.k = Fraction(k)
        self.alpha_idx = alpha_idx
        lam2 = lam + 2 * rho(rs)
        self.lam2rho = [_ival(lam2.coords[i]) for i in range(rs.rank)]
        c = self.k + rs.h_dual
        self.heis_gram = [[_ival(c * rs.cartan_matrix[i][j])
                           for j in range(rs.rank)]
                          for i in range(rs.rank)]
        self._mode_cache = {}

    def vacuum(self):
        return {(): ONE}

    # -- elementary generator operations on {monomial: coeff} dicts ---------
    def _mult(self, vec, key):
        out = {}
        for m, c in vec.items():
            out[_bump(m, key, 1)] = c
        return out

    def _diff(self, vec, key, scale=1):
        out = {}
        for m, c in vec.items():
            i = bisect_left(m, (key,))
            if i == len(m) or m[i][0] != key:
                continue
            e = m[i][1]
            if e == 1:
                k2 = m[:i] + m[i + 1:]
            else:
                k2 = m[:i] + ((key, e - 1),) + m[i + 1:]
            # lowering one exponent keeps distinct monomials distinct, and
            # c * e * scale is nonzero, so nothing adds up or cancels
            out[k2] = c * (e * scale)
        return out

    def apply_x(self, g, j, vec):
        """x_{gamma,j}"""
        if j >= 1:
            return self._mult(vec, ("X", g, j))
        if j <= -1:
            return self._diff(vec, ("D", g, -j), -1)
        if self.top == "GT" and g == self.alpha_idx:
            return self._mult(vec, ("X0", g))
        return self._diff(vec, ("D0", g), -1)

    def apply_d(self, g, n, vec):
        """d_{x_{gamma,n}}"""
        if n <= -1:
            return self._mult(vec, ("D", g, -n))
        if n >= 1:
            return self._diff(vec, ("X", g, n))
        if self.top == "GT" and g == self.alpha_idx:
            return self._diff(vec, ("X0", g))
        return self._mult(vec, ("D0", g))

    def apply_b(self, i, n, vec):
        """b_{i,n} (Heisenberg mode of h_i)."""
        if n <= -1:
            return self._mult(vec, ("Y", i, -n))
        if n == 0:
            return scaled(vec, self.lam2rho[i])
        out = {}
        for jj in range(self.rs.rank):
            g = self.heis_gram[i][jj]
            if g:
                add_into(out, self._diff(vec, ("Y", jj, n), n * g))
        return out


# -- field expressions --------------------------------------------------------

_FIELD_TOKEN = [0]


class FieldExpr:
    """Either an explicit list of normal-ordered terms
    (coeff, astars, main) with astars a tuple of (gamma, dz_order<=1) and
    main in {None, ('a', gamma), ('b', i)}, or a lazy commutator
    ('comm', coeff, F, G) whose modes are [F_0, G_m].

    Each instance carries a unique token used as a memoization key."""

    __slots__ = ("terms", "comm", "token")

    def __init__(self, terms=None, comm=None):
        self.terms = ([(_ival(c), astars, main) for c, astars, main in terms]
                      if terms else [])
        self.comm = ((_ival(comm[0]),) + tuple(comm[1:])
                     if comm is not None else None)
        _FIELD_TOKEN[0] += 1
        self.token = _FIELD_TOKEN[0]

    def __repr__(self):
        return "FieldExpr(%s)" % (render_field(self),)


def render_field(F):
    if F.comm is not None:
        c, A, B = F.comm
        return "%s [%s , %s]" % (c, render_field(A), render_field(B))
    parts = []
    for coeff, astars, main in F.terms:
        factors = []
        for g, d in astars:
            name = "a*_%d(z)" % g
            factors.append(name if d == 0 else "dz " + name)
        if main is not None:
            factors.append("%s_%d(z)" % (main[0], main[1]))
        body = ":%s:" % " ".join(factors) if factors else "1"
        parts.append("%s %s" % (coeff, body))
    return " + ".join(parts) if parts else "0"


def mode_apply(module, F, m, vec):
    """Apply mode m of the field F to a vector (dict monomial -> coeff).

    Results are memoized per (field, mode, monomial) on the module."""
    out = {}
    for mono, c in vec.items():
        add_into(out, _mode_apply_mono(module, F, m, mono), c)
    return out


def _mode_apply_mono(module, F, m, mono):
    cache = module._mode_cache
    key = (F.token, m, mono)
    hit = cache.get(key)
    if hit is not None:
        return hit
    res = _mode_apply_raw(module, F, m, {mono: 1})
    cache[key] = res
    return res


def _mode_apply_raw(module, F, m, vec):
    """Core evaluation on a single-monomial vector.

    For each term the z-exponent of every field factor is enumerated; an
    exponent that makes the factor a (nonzero-energy) annihilation operator is
    proposed only if the corresponding creation generator is actually present
    in the monomial — annihilation operators act first, and nothing in a term
    can create an energy>0 generator before they apply, so this pruning is
    exact."""
    if not vec:
        return {}
    if F.comm is not None:
        c, A, B = F.comm
        out = mode_apply(module, A, 0, mode_apply(module, B, m, vec))
        add_into(out, mode_apply(module, B, m, mode_apply(module, A, 0, vec)),
                 -1)
        # scaling copies into a compact dict: the cache keeps the result, and
        # the cancellations above leave unused slots behind
        return scaled(out, c)
    mono = next(iter(vec))
    dmods = {}
    xmods = {}
    ymods = set()
    for key, e in mono:
        if len(key) == 3:
            kind, g, mm = key
            if kind == "D":
                dmods.setdefault(g, []).append(mm)
            elif kind == "X":
                xmods.setdefault(g, []).append(mm)
            else:
                ymods.add((g, mm))
    total = -m - 1
    out = {}
    for coeff, astars, main in F.terms:
        factors = [("as", g, d) for g, d in astars]
        if main is not None:
            factors.append(("main",) + main)
        if not factors:
            if m == -1:
                add_into(out, vec, coeff)
            continue
        # candidate negative (annihilation-side) exponents per factor, plus
        # the creation side j >= jpos
        neg = []
        jpos = []
        for f in factors:
            if f[0] == "as":
                g = f[1]
                if f[2] == 0:
                    neg.append([-mm for mm in dmods.get(g, ())])
                    jpos.append(0)
                else:
                    # coefficient (j+1) => x-index j+1; x-index 0 vanishes
                    neg.append([-mm - 1 for mm in dmods.get(g, ())])
                    jpos.append(0)
            elif f[1] == "a":
                g = f[2]
                cand = [-n - 1 for n in xmods.get(g, ())]
                cand.append(-1)  # n = 0: top operator, always admissible
                neg.append(cand)
                jpos.append(0)
            else:
                i = f[2]
                cand = [-mm - 1 for (jj, mm) in ymods
                        if module.heis_gram[i][jj] != 0]
                cand.append(-1)  # n = 0: scalar
                neg.append(sorted(set(cand)))
                jpos.append(0)
        jmins = [min(ns, default=0) if not ns else min(min(ns), 0)
                 for ns in neg]
        nfac = len(factors)
        tail_min = [0] * (nfac + 1)
        for i in range(nfac - 1, -1, -1):
            tail_min[i] = tail_min[i + 1] + jmins[i]

        def candidates(idx, jmax):
            for j in neg[idx]:
                if j <= jmax and j < jpos[idx]:
                    yield j
            j = jpos[idx]
            while j <= jmax:
                yield j
                j += 1

        def rec(idx, remaining, js):
            if idx == nfac - 1:
                j = remaining
                if j >= jpos[idx] or j in neg[idx]:
                    yield js + [j]
                return
            for j in candidates(idx, remaining - tail_min[idx + 1]):
                yield from rec(idx + 1, remaining - j, js + [j])

        for js in rec(0, total, []):
            cmul = coeff
            annih = []
            create = []
            for f, j in zip(factors, js):
                if f[0] == "as":
                    _, g, d = f
                    if d == 1:
                        cmul *= (j + 1)
                        xj = j + 1
                    else:
                        xj = j
                    (annih if xj <= -1 else create).append(("x", g, xj))
                elif f[1] == "a":
                    n = -j - 1
                    (annih if n >= 0 else create).append(("d", f[2], n))
                else:
                    n = -j - 1
                    (annih if n >= 1 else create).append(("b", f[2], n))
            cur = vec
            for op in annih + create:
                if op[0] == "x":
                    cur = module.apply_x(op[1], op[2], cur)
                elif op[0] == "d":
                    cur = module.apply_d(op[1], op[2], cur)
                else:
                    cur = module.apply_b(op[1], op[2], cur)
                if not cur:
                    break
            if cur:
                add_into(out, cur, cmul)
    return out


# -- the free-field homomorphism at mode level --------------------------------

_FIELD_CACHE = {}
_C_CACHE = {}


def _nbar_field(rs, a):
    """pi(a(z)) = -sum_alpha :T_alpha(a,z) a_alpha(z): for a in nbar."""
    T = weylpoly.T_poly(a)
    terms = []
    for (kind, alpha), p in T.components.items():
        for e, c in p.items():
            astars = []
            for g, ex in enumerate(e):
                astars.extend([(g, 0)] * ex)
            terms.append((-c, tuple(astars), ("a", alpha)))
    return FieldExpr(terms)


def _h_field(rs, i):
    """pi(h_i(z)) = sum_alpha alpha(h_i) :a*_alpha a_alpha: + b_i(z)."""
    terms = []
    for g, alpha in enumerate(rs.positive_roots):
        coef = rs.root_to_weight(alpha).coords[i]
        if coef:
            terms.append((Fraction(coef), ((g, 0),), ("a", g)))
    terms.append((ONE, (), ("b", i)))
    return FieldExpr(terms)


def _e_simple_field(rs, gamma_idx, C):
    """pi(e_gamma(z)) with total dz-a* coefficient -C
    (C = c_gamma + (k+h_dual) kappa_0(e_gamma, f_gamma))."""
    _, q = weylpoly.pq_polynomials(rs, gamma_idx)
    terms = []
    for alpha, p in q.items():
        for e, c in p.items():
            astars = []
            for g, ex in enumerate(e):
                astars.extend([(g, 0)] * ex)
            terms.append((-c, tuple(astars), ("a", alpha)))
    if C:
        terms.append((-C, ((gamma_idx, 1),), None))
    # b_{h_gamma}: gamma is simple, so h_gamma = h_s for the simple index s
    s = rs.positive_roots[gamma_idx].coeffs.index(1)
    terms.append((ONE, ((gamma_idx, 0),), ("b", s)))
    return FieldExpr(terms)


def solve_c_gamma(rs, gamma_idx, k, lam=None):
    """The unique c_gamma making [pi(e_gamma)_1, pi(f_gamma)_{-1}] =
    pi(h_gamma)_0 + k kappa_0(e_gamma,f_gamma) id on a degree-<=2 spanning
    set of the Verma-top module."""
    from .rootdata import Weight

    k = Fraction(k)
    if lam is None:
        lam = Weight([Fraction(i + 1, i + 2) for i in range(rs.rank)])
    mod = WakimotoModule(rs, "V", lam, k)
    f_field = _nbar_field(rs, LieElement.basis(rs, ("f", gamma_idx)))
    s = rs.positive_roots[gamma_idx].coeffs.index(1)
    h_field = _h_field(rs, s)
    vectors = _spanning_vectors(mod, 2, 1)
    eqs = []  # (a, b): a*C = b per monomial component
    for v in vectors:
        fv = mode_apply(mod, f_field, -1, v)
        lhs_by_C = []
        for C in (ZERO, ONE):
            ef = _e_simple_field(rs, gamma_idx, C)
            l1 = mode_apply(mod, ef, 1, fv)
            l2 = mode_apply(mod, f_field, -1, mode_apply(mod, ef, 1, v))
            lhs_by_C.append(added(l1, l2, -ONE))
        rhs = added(mode_apply(mod, h_field, 0, v), v, k)
        l0, l1 = lhs_by_C
        slope = added(l1, l0, -ONE)
        resid = added(rhs, l0, -ONE)
        for mono in set(slope) | set(resid):
            eqs.append((slope.get(mono, ZERO), resid.get(mono, ZERO)))
    sol = None
    for a, b in eqs:
        if a:
            c = b / a
            if sol is None:
                sol = c
            elif sol != c:
                raise RealizationBug("inconsistent c_gamma system")
    if sol is None:
        raise RealizationBug("c_gamma undetermined")
    for a, b in eqs:
        if a == 0 and b != 0:
            raise RealizationBug("inconsistent c_gamma system (rigid part)")
    sol = sol - (k + rs.h_dual) * kappa0_symbols(
        rs, ("e", gamma_idx), ("f", gamma_idx))
    return Fraction(int(sol.numerator), int(sol.denominator))


def pi_field(rs, sym, k):
    """Mode-level image of a Chevalley basis symbol (cached)."""
    k = Fraction(k)
    key = (rs.n, sym, k)
    if key in _FIELD_CACHE:
        return _FIELD_CACHE[key]
    kind, idx = sym
    if kind == "f":
        F = _nbar_field(rs, LieElement.basis(rs, sym))
    elif kind == "h":
        F = _h_field(rs, idx)
    else:
        alpha = rs.positive_roots[idx]
        if alpha.height == 1:
            ckey = (rs.n, idx, k)
            if ckey not in _C_CACHE:
                c = solve_c_gamma(rs, idx, k)
                _C_CACHE[ckey] = c + (k + rs.h_dual)
            F = _e_simple_field(rs, idx, _C_CACHE[ckey])
        else:
            # lowest simple root s with alpha - alpha_s a positive root
            for si, simple in enumerate(rs.simple_roots):
                rest = tuple(a - b for a, b in zip(alpha.coeffs, simple.coeffs))
                if rs.is_positive_root(rest):
                    break
            else:
                raise RealizationBug("no decomposition for %r" % (sym,))
            g_idx = rs.simple_indices[si]
            rest_idx = rs.root_index[rest]
            br = bracket_symbols(rs, ("e", g_idx), ("e", rest_idx))
            N = br[("e", idx)]
            F = FieldExpr(comm=(ONE / N, pi_field(rs, ("e", g_idx), k),
                                pi_field(rs, ("e", rest_idx), k)))
    _FIELD_CACHE[key] = F
    return F


def pi_affine(rs, a, k):
    """Image of a LieElement as a list of (coeff, FieldExpr)."""
    out = []
    for sym, c in a.coeffs.items():
        out.append((_ival(c), pi_field(rs, sym, k)))
    return out


def mode_apply_elem(module, fields, m, vec):
    out = {}
    for c, F in fields:
        add_into(out, mode_apply(module, F, m, vec), c)
    return out


# -- spanning sets and verification -------------------------------------------

def _mode_generators(rs, dmax):
    gens = []
    for m in range(1, dmax + 1):
        for g in range(len(rs.positive_roots)):
            gens.append((("D", g, m), m))
            gens.append((("X", g, m), m))
        for i in range(rs.rank):
            gens.append((("Y", i, m), m))
    return gens


def _top_generators(module):
    rs = module.rs
    keys = []
    for g in range(len(rs.positive_roots)):
        if module.top == "GT" and g == module.alpha_idx:
            keys.append(("X0", g))
        else:
            keys.append(("D0", g))
    return keys


def _spanning_vectors(module, dmax, top_deg, max_vectors=None):
    """Monomial vectors of energy <= dmax and top degree <= top_deg, in a
    deterministic order (by (energy, top degree, monomial))."""
    rs = module.rs
    gens = _mode_generators(rs, dmax)
    monos = [{}]
    for key, en in gens:
        new = []
        for m in monos:
            cur = dict(m)
            used = sum(k[2] * e for k, e in cur.items())
            c = 0
            while True:
                new.append(dict(cur))
                c += 1
                if used + c * en > dmax:
                    break
                cur[key] = c
        monos = [dict(t) for t in {canon(m): m for m in new}.values()]
    mode_monos = sorted({canon(m) for m in monos},
                        key=lambda m: (mono_energy(m), m))
    tops = [{}]
    for key in _top_generators(module):
        new = []
        for t in tops:
            for c in range(top_deg - sum(t.values()) + 1):
                d = dict(t)
                if c:
                    d[key] = c
                new.append(d)
        tops = new
    top_monos = sorted({canon(t) for t in tops}, key=lambda m: (len(m), m))
    vectors = []
    for mm in mode_monos:
        for tt in top_monos:
            vectors.append({canon(dict(list(mm) + list(tt))): ONE})
    vectors.sort(key=lambda v: (mono_energy(next(iter(v))), next(iter(v))))
    if max_vectors is not None:
        vectors = vectors[:max_vectors]
    return vectors


def verify_affine_comm(n, k, dmax, tops=("V", "GT"), lam=None, alpha_idx=None,
                       top_deg=None, max_vectors=None, mode_range=2):
    """Check [pi(a)_m, pi(b)_n] = pi([a,b])_{m+n} + m k kappa_0(a,b)
    delta_{m,-n} on spanning vectors; returns the list of failures."""
    from .rootdata import Weight, build_root_system

    rs = build_root_system(n)
    k = Fraction(k)
    if lam is None:
        lam = Weight([Fraction(2 * i + 1, 3) for i in range(rs.rank)])
    if alpha_idx is None:
        alpha_idx = rs.simple_indices[0]
    if top_deg is None:
        top_deg = 2 if n == 2 else 1
    syms = liealg.basis_symbols(rs)
    fields = {s: pi_field(rs, s, k) for s in syms}
    brackets = {}
    for s1 in syms:
        for s2 in syms:
            brackets[(s1, s2)] = LieElement(
                rs, bracket_symbols(rs, s1, s2))
    failures = []
    for top in tops:
        mod = WakimotoModule(rs, top, lam, k,
                             alpha_idx if top == "GT" else None)
        vectors = _spanning_vectors(mod, dmax, top_deg, max_vectors)
        for s1 in syms:
            for s2 in syms:
                br = brackets[(s1, s2)]
                br_fields = pi_affine(rs, br, k) if not br.is_zero() else []
                kap = kappa0_symbols(rs, s1, s2)
                for m in range(-mode_range, mode_range + 1):
                    for nn in range(-mode_range, mode_range + 1):
                        for v in vectors:
                            l1 = mode_apply(mod, fields[s1], m,
                                            mode_apply(mod, fields[s2], nn, v))
                            l2 = mode_apply(mod, fields[s2], nn,
                                            mode_apply(mod, fields[s1], m, v))
                            lhs = added(l1, l2, -ONE)
                            rhs = mode_apply_elem(mod, br_fields, m + nn, v)
                            if m == -nn and kap:
                                add_into(rhs, v, m * k * kap)
                            if lhs != rhs:
                                failures.append(
                                    {"pair": (s1, s2), "m": m, "n": nn,
                                     "vector": next(iter(v)), "top": top})
    return failures


# -- Zhu / top-component helpers ----------------------------------------------

def fock_to_top_monomial(rs, module, exps):
    d = {}
    for g, e in enumerate(exps):
        if not e:
            continue
        if module.top == "GT" and g == module.alpha_idx:
            d[("X0", g)] = e
        else:
            d[("D0", g)] = e
    return canon(d)
