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

Each generator operation (x/d/b, index, mode) resolves to one action on a
monomial: multiply by a key, differentiate a key times a factor, scale, or
fan out over the rows of heis_gram (WakimotoModule.resolve).

The mode engine computes in Python ints.  A module has den, the lcm of the
denominators of lam2rho and heis_gram, and a field F has the scale
s(F) = den * lcm(denominators of F's coefficients).  A mode of a field is
evaluated through three caches on the module, all kept for the module's
lifetime and all keyed on the FieldExpr instance itself, so a dropped
field's id never reaches a new one:

- the scale cache, keyed by field: s(F) and F's terms with integer
  coefficients;
- the plan cache, keyed by (field, mode, support), where the support is the
  tuple of the monomial's energy>0 keys.  A plan is the field's mode
  compiled for every monomial of that support: a list of (coefficient,
  chain), a chain being a tuple of steps (key, +1 multiply / -1
  differentiate), and each coefficient the int s(F) times the exact one;
- the mode cache, keyed by (field, mode, monomial), holding s(F) times the
  result vector of one monomial, in ints.

mode_apply divides by s(F) once per output entry; the commutation verifier
never divides, and compares its two sides by cross-multiplying.

Chains and result monomials are interned per module, so an equal tuple that
many plans or results hold is stored once.

verify_affine_comm checks its two tops in two processes: it solves the
fields and brackets once, then forks (POSIX fork), and the parent checks the
V top while the child checks the GT top, each with its own module and
caches.  The wall time is about that of the slower top.  The memory is that
of two processes: the child shares the solved fields copy-on-write, and each
process holds one top's caches.
"""

import os
import pickle
import signal
from bisect import bisect_left
from fractions import Fraction
from math import lcm

from . import liealg, weylpoly
from .errors import NotSimpleRoot, RealizationBug
from .liealg import LieElement, bracket_symbols, kappa0_symbols
from .linalg import nullspace
from .rootdata import (Weight, bounded_degree_exponents, build_root_system,
                       rho, root_combinations)
from .sparse import add_into, add_term, added, scaled

ONE = Fraction(1)


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


def _integral(x):
    """The rational x as an int; RealizationBug if it is not integral."""
    x = Fraction(x)
    if x.denominator != 1:
        raise RealizationBug("the integer mode engine met the non-integral "
                             "coefficient %s" % (x,))
    return x.numerator


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
        self.lam2rho = [Fraction(lam2.coords[i]) for i in range(rs.rank)]
        c = self.k + rs.h_dual
        self.heis_gram = [[c * rs.cartan_matrix[i][j]
                           for j in range(rs.rank)]
                          for i in range(rs.rank)]
        self.den = lcm(*(x.denominator for x in self.lam2rho),
                       *(x.denominator for row in self.heis_gram
                         for x in row))
        self._scales = {}
        self._mode_cache = {}
        self._plan_cache = {}
        self._interned = {}
        self._resolved = {}
        self._int_resolved = {}

    def vacuum(self):
        return {(): ONE}

    # -- generator operations -----------------------------------------------
    def resolve(self, kind, g, j):
        """The action of x_{g,j}, d_{x_{g,j}} or b_{g,j} (kind x, d or b) as a
        tuple of alternatives (factor, step), summed: step (key, 1)
        multiplies by key, (key, -1) differentiates by key, and None leaves
        the monomial as it is.  Memoized, so equal steps share one tuple."""
        op = (kind, g, j)
        alts = self._resolved.get(op)
        if alts is None:
            alts = self._resolved[op] = self._resolve(kind, g, j)
        return alts

    def _resolve(self, kind, g, j):
        top = self.top == "GT" and g == self.alpha_idx
        if kind == "x":
            if j >= 1:
                return ((1, (("X", g, j), 1)),)
            if j <= -1:
                return ((-1, (("D", g, -j), -1)),)
            return ((1, (("X0", g), 1)),) if top else ((-1, (("D0", g), -1)),)
        if kind == "d":
            if j <= -1:
                return ((1, (("D", g, -j), 1)),)
            if j >= 1:
                return ((1, (("X", g, j), -1)),)
            return ((1, (("X0", g), -1)),) if top else ((1, (("D0", g), 1)),)
        if j <= -1:
            return ((1, (("Y", g, -j), 1)),)
        if j == 0:
            s = self.lam2rho[g]
            return ((s, None),) if s else ()
        # b_{i,n}, n >= 1: n heis_gram[i][jj] d/dy_{jj,n}, summed over jj
        return tuple((j * c, (("Y", jj, j), -1))
                     for jj, c in enumerate(self.heis_gram[g]) if c)

    def _apply(self, kind, g, j, vec):
        out = {}
        for factor, step in self.resolve(kind, g, j):
            for m, c in vec.items():
                if step is not None:
                    key, delta = step
                    if delta < 0:
                        i = bisect_left(m, (key,))
                        if i == len(m) or m[i][0] != key:
                            continue
                        c = c * m[i][1]
                    m = _bump(m, key, delta)
                add_term(out, m, c * factor)
        return out

    def apply_x(self, g, j, vec):
        """x_{gamma,j}"""
        return self._apply("x", g, j, vec)

    def apply_d(self, g, n, vec):
        """d_{x_{gamma,n}}"""
        return self._apply("d", g, n, vec)

    def apply_b(self, i, n, vec):
        """b_{i,n} (Heisenberg mode of h_i)."""
        return self._apply("b", i, n, vec)


# -- field expressions --------------------------------------------------------

class FieldExpr:
    """A list of normal-ordered terms (coeff, astars, main) with astars a
    tuple of (gamma, dz_order<=1) and main in {None, ('a', gamma), ('b', i)}.

    Instances hash by identity; the scale, plan and mode caches key on the
    instance itself, so they keep the field alive and its id is never reused
    for another."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = list(terms)

    def __repr__(self):
        return "FieldExpr(%s)" % (render_field(self),)


def render_field(F):
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

    Results are memoized per (field, mode, monomial) on the module as s(F)
    times the exact ones; each output entry is divided by s(F) once."""
    s = _scaled(module, F)[0]
    return {mono: Fraction(c, s)
            for mono, c in _scaled_apply(module, F, m, vec).items()}


def _scaled_apply(module, F, m, vec):
    """s(F) times mode m of F on vec: the memoized integer results of its
    monomials, summed with vec's coefficients (so ints on an int vec)."""
    out = {}
    for mono, c in vec.items():
        add_into(out, _mode_apply_mono(module, F, m, mono), c)
    return out


def _scaled(module, F):
    """(s(F), F's terms with each coefficient times s(F)/den, as ints), s(F)
    being den times the lcm of the denominators of F's coefficients.
    Memoized on the module, keyed on F."""
    hit = module._scales.get(F)
    if hit is None:
        f = lcm(*(Fraction(c).denominator for c, _, _ in F.terms))
        terms = [(_integral(c * f), astars, main)
                 for c, astars, main in F.terms]
        hit = module._scales[F] = (module.den * f, terms)
    return hit


def _int_resolve(module, op):
    """module.resolve(*op) with int factors: a b-operation's factors
    (lam2rho, j heis_gram, creation 1) times den; the x and d factors are
    already +-1.  Memoized on the module."""
    alts = module._int_resolved.get(op)
    if alts is None:
        alts = module.resolve(*op)
        if op[0] == "b":
            alts = tuple((_integral(f * module.den), step)
                         for f, step in alts)
        module._int_resolved[op] = alts
    return alts


def _mode_apply_mono(module, F, m, mono):
    cache = module._mode_cache
    key = (F, m, mono)
    hit = cache.get(key)
    if hit is not None:
        return hit
    res = _mode_apply_raw(module, F, m, mono)
    cache[key] = res
    return res


def _mode_apply_raw(module, F, m, mono):
    """s(F) times mode m of F on a single monomial, through the plan compiled
    for the monomial's support: each entry copies the monomial's exponents
    once and runs its chain of steps on them, in ints."""
    support = tuple(key for key, _ in mono if len(key) == 3)
    pkey = (F, m, support)
    plan = module._plan_cache.get(pkey)
    if plan is None:
        plan = module._plan_cache[pkey] = _compile(module, F, m, support)
    exps = dict(mono)
    interned = module._interned
    out = {}
    for c, chain in plan:
        d = exps.copy()
        for key, delta in chain:
            e = d.get(key, 0)
            if delta > 0:
                d[key] = e + 1
            elif e == 1:
                del d[key]
            elif e:
                c *= e
                d[key] = e - 1
            else:
                break
        else:
            res = tuple(sorted(d.items()))
            add_term(out, interned.setdefault(res, res), c)
    return out


def _compile(module, F, m, support):
    """The plan of mode m of F on monomials whose energy>0 keys are support.

    For each term the z-exponent of every field factor is enumerated; an
    exponent that makes the factor a (nonzero-energy) annihilation operator is
    proposed only if the corresponding creation generator is in the support —
    annihilation operators act first, and nothing in a term can create an
    energy>0 generator before they apply, so this pruning is exact.  Each
    choice of exponents is a product of generator operations, annihilators
    first; their resolved alternatives multiply out into chains of steps, and
    a chain that differentiates an energy>0 key outside the support is
    dropped.  Equal chains add their coefficients.

    The coefficients are ints: each term's coefficient is taken times
    s(F)/den, and den goes on the term's b-factor, or on the term itself if
    it has none, so every entry is s(F) times its exact coefficient."""
    dmods = {}
    xmods = {}
    ymods = set()
    for kind, g, mm in support:
        if kind == "D":
            dmods.setdefault(g, []).append(mm)
        elif kind == "X":
            xmods.setdefault(g, []).append(mm)
        else:
            ymods.add((g, mm))
    present = set(support)
    total = -m - 1
    acc = {}
    for coeff, astars, main in _scaled(module, F)[1]:
        if main is None or main[0] != "b":
            coeff *= module.den
        factors = [("as", g, d) for g, d in astars]
        if main is not None:
            factors.append(("main",) + main)
        if not factors:
            if m == -1:
                add_term(acc, (), coeff)
            continue
        # candidate negative (annihilation-side) exponents per factor, plus
        # the creation side j >= 0
        neg = []
        for f in factors:
            if f[0] == "as":
                g = f[1]
                if f[2] == 0:
                    neg.append([-mm for mm in dmods.get(g, ())])
                else:
                    # coefficient (j+1) => x-index j+1; x-index 0 vanishes
                    neg.append([-mm - 1 for mm in dmods.get(g, ())])
            elif f[1] == "a":
                g = f[2]
                cand = [-n - 1 for n in xmods.get(g, ())]
                cand.append(-1)  # n = 0: top operator, always admissible
                neg.append(cand)
            else:
                i = f[2]
                cand = [-mm - 1 for (jj, mm) in ymods
                        if module.heis_gram[i][jj] != 0]
                cand.append(-1)  # n = 0: scalar
                neg.append(sorted(set(cand)))
        # every candidate in neg is < 0
        jmins = [min(ns, default=0) for ns in neg]
        nfac = len(factors)
        tail_min = [0] * (nfac + 1)
        for i in range(nfac - 1, -1, -1):
            tail_min[i] = tail_min[i + 1] + jmins[i]

        def candidates(idx, jmax):
            for j in neg[idx]:
                if j <= jmax:
                    yield j
            yield from range(jmax + 1)

        def rec(idx, remaining, js):
            if idx == nfac - 1:
                j = remaining
                if j >= 0 or j in neg[idx]:
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
            chains = [(1, ())]
            for op in annih + create:
                chains = [(c * factor, chain + (step,) if step else chain)
                          for c, chain in chains
                          for factor, step in _int_resolve(module, op)
                          if step is None or step[1] > 0
                          or len(step[0]) == 2 or step[0] in present]
                if not chains:
                    break
            for c, chain in chains:
                add_term(acc, chain, cmul * c)
    interned = module._interned
    return [(c, interned.setdefault(chain, chain))
            for chain, c in acc.items()]


# -- the free-field homomorphism at mode level --------------------------------

_FIELD_CACHE = {}


def _lift(rs, sym):
    """The normal-ordered lift of pi_g(sym) (x -> a*, d -> a, h_i -> b_i), as
    its a-terms and its b-terms, each in pi_g's term order."""
    a_terms, b_terms = [], []
    for (xa, db), hp in weylpoly.pi_g(LieElement.basis(rs, sym)).terms.items():
        astars = tuple((g, 0) for g, ex in enumerate(xa) for _ in range(ex))
        for he, c in hp.items():
            if sum(db) + sum(he) > 1:
                raise RealizationBug("pi_g%r has a term with more than one "
                                     "d or h factor" % (sym,))
            if any(he):
                b_terms.append((c, astars, ("b", he.index(1))))
            else:
                a_terms.append((c, astars, ("a", db.index(1)) if any(db)
                                else None))
    return a_terms, b_terms


def _dz_candidates(rs, idx):
    """The a*-factor tuples of every :dz a*_beta (a*-monomial): of root weight
    alpha = positive root idx, the only a*-only shape of conformal weight 1."""
    roots = [g.coeffs for g in rs.positive_roots]
    out = []
    for beta, r in enumerate(roots):
        rest = tuple(a - b for a, b in zip(roots[idx], r))
        for b, end in root_combinations(roots, rest, 0):
            if not any(end):
                out.append(((beta, 1),) + tuple(
                    (g, 0) for g, ex in enumerate(b) for _ in range(ex)))
    return out


def _dz_terms(rs, idx, k, lift_terms, lam=None):
    """The :dz a*: terms of pi(e_alpha), alpha = positive root idx, with
    their coefficients solved on the V-top vacuum of weight lam; lift_terms
    are the terms of the lift of pi_g(e_alpha).

    With E the lift plus sum_t c_t P_t over the candidates P_t, the vacuum
    fixes the c_t: for simple alpha by
    [E_1, pi(f_alpha)_{-1}] = pi(h_alpha)_0 + k kappa_0(e_alpha, f_alpha),
    and otherwise by N E_m = [pi(e_gamma)_0, pi(e_{alpha-gamma})_m] for
    m = -ht(alpha)-1..-1 (gamma simple, N the structure constant).  An
    r-factor term is zero on the vacuum above mode -r; the extra mode
    -ht(alpha)-1 tells apart the terms that differ only in which factor
    carries dz.  RealizationBug if the system is inconsistent or leaves a
    coefficient free."""
    if lam is None:
        lam = Weight([Fraction(i + 1, i + 2) for i in range(rs.rank)])
    mod = WakimotoModule(rs, "V", lam, k)
    vac = mod.vacuum()
    lift = FieldExpr(lift_terms)
    cands = _dz_candidates(rs, idx)
    cand_fields = [FieldExpr([(ONE, astars, None)]) for astars in cands]
    alpha = rs.positive_roots[idx]
    eqs = []  # (m, v, target): sum_t c_t P_{t,m} v = target - lift_m v
    if alpha.height == 1:
        s = alpha.coeffs.index(1)
        # E_1 kills the vacuum, so only E_1 pi(f)_{-1} vac remains
        fv = mode_apply(mod, pi_field(rs, ("f", idx), k), -1, vac)
        target = added(mode_apply(mod, pi_field(rs, ("h", s), k), 0, vac),
                       vac, k * kappa0_symbols(rs, ("e", idx), ("f", idx)))
        eqs.append((1, fv, target))
    else:
        for si, simple in enumerate(rs.simple_roots):
            rest = tuple(a - b for a, b in zip(alpha.coeffs, simple.coeffs))
            if rs.is_positive_root(rest):
                break
        g_idx = rs.simple_indices[si]
        rest_idx = rs.root_index[rest]
        N = bracket_symbols(rs, ("e", g_idx), ("e", rest_idx))[("e", idx)]
        A = pi_field(rs, ("e", g_idx), k)
        B = pi_field(rs, ("e", rest_idx), k)
        for m in range(-alpha.height - 1, 0):
            comm = added(mode_apply(mod, A, 0, mode_apply(mod, B, m, vac)),
                         mode_apply(mod, B, m, mode_apply(mod, A, 0, vac)),
                         -ONE)
            eqs.append((m, vac, scaled(comm, ONE / N)))
    # one sparse row per (equation, monomial): column t holds the P_t
    # component, the last column lift_m v - target
    last = len(cands)
    rows = {}
    for e, (m, v, target) in enumerate(eqs):
        cols = [mode_apply(mod, P, m, v) for P in cand_fields]
        cols.append(added(mode_apply(mod, lift, m, v), target, -ONE))
        for t, col in enumerate(cols):
            for mono, c in col.items():
                rows.setdefault((e, mono), {})[t] = c
    sol = nullspace(list(rows.values()), ncols=last + 1)
    # a unique solution leaves exactly the last column free; its vector is 1
    # there and holds c_t at the candidates, in candidate order
    if len(sol) != 1 or last not in sol[0]:
        raise RealizationBug("the dz-term system of pi(e_%d) is inconsistent "
                             "or leaves a coefficient free" % idx)
    return [(c, cands[t], None) for t, c in sol[0].items() if t != last]


def solve_c_gamma(rs, gamma_idx, k, lam=None):
    """c_gamma for a simple root gamma: pi(e_gamma) carries
    -(c_gamma + (k + h_dual) kappa_0(e_gamma, f_gamma)) :dz a*_gamma:, with
    the coefficient solved on the V-top vacuum of weight lam."""
    if rs.positive_roots[gamma_idx].height != 1:
        raise NotSimpleRoot("gamma must be simple")
    k = Fraction(k)
    a_terms, b_terms = _lift(rs, ("e", gamma_idx))
    C = -sum(c for c, _, _ in _dz_terms(rs, gamma_idx, k, a_terms + b_terms,
                                        lam))
    return C - (k + rs.h_dual) * kappa0_symbols(
        rs, ("e", gamma_idx), ("f", gamma_idx))


def pi_field(rs, sym, k):
    """Mode-level image of a Chevalley basis symbol (cached): the lift of
    pi_g(sym), and for sym = e_alpha its solved :dz a*: terms, placed after
    the a-terms and before the b-terms."""
    k = Fraction(k)
    key = (rs.n, sym, k)
    if key not in _FIELD_CACHE:
        a_terms, b_terms = _lift(rs, sym)
        if sym[0] == "e":
            a_terms += _dz_terms(rs, sym[1], k, a_terms + b_terms)
        _FIELD_CACHE[key] = FieldExpr(a_terms + b_terms)
    return _FIELD_CACHE[key]


def pi_affine(rs, a, k):
    """Image of a LieElement as a list of (coeff, FieldExpr)."""
    return [(c, pi_field(rs, sym, k)) for sym, c in a.coeffs.items()]


# -- spanning sets and verification -------------------------------------------

def _spanning_vectors(module, dmax, top_deg):
    """Monomial vectors of energy <= dmax and top degree <= top_deg, sorted
    by (energy, monomial)."""
    rs = module.rs
    npos = len(rs.positive_roots)
    keys = [(kind, g, m) for m in range(1, dmax + 1)
            for kind, count in (("D", npos), ("X", npos), ("Y", rs.rank))
            for g in range(count)]
    tops = [fock_to_top_monomial(rs, module, e)
            for e in bounded_degree_exponents(npos, top_deg)]
    vectors = []
    # each generator's energy is a one-coordinate root
    for b, (left,) in root_combinations([(key[2],) for key in keys],
                                        (dmax,), 0):
        mode = tuple((key, c) for key, c in zip(keys, b) if c)
        vectors.extend((dmax - left, canon(dict(mode + top))) for top in tops)
    vectors.sort()
    return [{mono: 1} for _, mono in vectors]


def verify_affine_comm(n, k, dmax):
    """Check [pi(a)_m, pi(b)_n] = pi([a,b])_{m+n} + m k kappa_0(a,b)
    delta_{m,-n} for modes -2..2 on spanning vectors of both tops; returns
    the list of failures."""
    return _affine_comm(n, k, dmax)[0]


def _affine_comm(n, k, dmax):
    """(failures, checks) of verify_affine_comm: the V top's, then the GT
    top's, checks counting the (pair, m, n, top, vector) commutators
    compared.

    The fields and brackets are solved once; then the process forks, and
    the parent checks the V top while the child checks the GT top.  The two
    tops share nothing after that, as each builds its own module and caches,
    and the child reads the solved fields copy-on-write.  The child sends
    its result, or the exception it raised, back through a pipe with
    pickle.  The child is reaped on every path, and killed first if the
    parent's half raises; a child that ends without a result is a
    RealizationBug."""
    problem = _comm_problem(n, k)
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        _send_and_exit(w, lambda: _check_top(problem, "GT", dmax))
    os.close(w)
    with open(r, "rb") as pipe:
        try:
            failures, checks = _check_top(problem, "V", dmax)
            data = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
    if status or not data:
        raise RealizationBug("the GT half of the affine commutation check "
                             "ended without a result (wait status %d)"
                             % status)
    gt = pickle.loads(data)
    if isinstance(gt, BaseException):
        raise gt
    return failures + gt[0], checks + gt[1]


def _send_and_exit(w, fn):
    """In a forked child: write the pickled result of fn(), or the exception
    it raised, to the pipe end w, and end the process without running the
    parent's exit handlers.  An exception that does not survive pickling is
    sent as RealizationBug(repr(e))."""
    try:
        try:
            result = fn()
        except BaseException as e:
            result = e
        try:
            data = pickle.dumps(result)
            if isinstance(result, BaseException):
                pickle.loads(data)
        except Exception:
            data = pickle.dumps(RealizationBug(repr(result)))
        with open(w, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)


def _comm_problem(n, k):
    """(rs, k, fields, items, brackets) of the affine commutation check:
    pi of every basis symbol, the (symbol, mode) items for modes -2..2, and
    for each unordered pair of symbols pi of their bracket with kappa_0."""
    rs = build_root_system(n)
    k = Fraction(k)
    syms = liealg.basis_symbols(rs)
    fields = {s: pi_field(rs, s, k) for s in syms}
    items = [(s, m) for s in syms for m in range(-2, 3)]
    brackets = {}
    for i, s1 in enumerate(syms):
        for s2 in syms[i:]:
            br = LieElement(rs, bracket_symbols(rs, s1, s2))
            brackets[(s1, s2)] = (pi_affine(rs, br, k),
                                  kappa0_symbols(rs, s1, s2))
    return rs, k, fields, items, brackets


def _check_top(problem, top, dmax):
    """(failures, checks) of the affine commutation check on one top ("V",
    or "GT" at the first simple root), on its spanning vectors of energy
    <= dmax.

    Each unordered pair of items (a, m), (b, n) is checked once: the check
    for ((b, n), (a, m)) is the negative of this one, since the bracket and
    kappa_0 are antisymmetric and symmetric, and ((a, m), (a, m)) reads
    0 = 0.

    Both sides stay in ints.  On a spanning vector {mono: 1} the scaled
    modes give lhs = s(F1) s(F2) times the commutator, and rhs = R times
    pi([a,b])_{m+n} + m k kappa_0, R being the lcm of the denominators of
    c / s(F) over the bracket's terms c F and of m k kappa_0; the check is
    lhs R == rhs s(F1) s(F2)."""
    rs, k, fields, items, brackets = problem
    lam = Weight([Fraction(2 * i + 1, 3) for i in range(rs.rank)])
    mod = WakimotoModule(rs, top, lam, k,
                         rs.simple_indices[0] if top == "GT" else None)
    vectors = _spanning_vectors(mod, dmax, 2 if rs.n == 2 else 1)
    failures = []
    checks = 0
    for i, (s1, m) in enumerate(items):
        F1 = fields[s1]
        for s2, nn in items[i + 1:]:
            F2 = fields[s2]
            br_fields, kap = brackets[(s1, s2)]
            exact = [(Fraction(c, _scaled(mod, F)[0]), F)
                     for c, F in br_fields]
            central = Fraction(m * k * kap if m == -nn else 0)
            R = lcm(central.denominator,
                    *(q.denominator for q, _ in exact))
            br = [(int(q * R), F) for q, F in exact]
            central = int(central * R)
            s12 = _scaled(mod, F1)[0] * _scaled(mod, F2)[0]
            for v in vectors:
                l1 = _scaled_apply(mod, F1, m,
                                   _scaled_apply(mod, F2, nn, v))
                l2 = _scaled_apply(mod, F2, nn,
                                   _scaled_apply(mod, F1, m, v))
                lhs = added(l1, l2, -1)
                rhs = {}
                for c, F in br:
                    add_into(rhs, _scaled_apply(mod, F, m + nn, v), c)
                if central:
                    add_into(rhs, v, central)
                checks += 1
                if scaled(lhs, R) != scaled(rhs, s12):
                    failures.append(
                        {"pair": (s1, s2), "m": m, "n": nn,
                         "vector": next(iter(v)), "top": top})
    return failures, checks


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
