"""Mode-level free fields: the Weyl algebra of loop modes, the Heisenberg
algebra, the relaxed Wakimoto module, and the mode-level free-field
homomorphism with its c_gamma constants, and the check of its zero modes on
the top against the finite pi_g action.

Mode dictionary (coefficient of z^j in each field):
    a*_alpha(z) = sum_j x_{alpha,j} z^j
    a_alpha(z)  = sum_j d_{x_{alpha,-j-1}} z^j
    b_i(z)      = sum_j b_{i,-j-1} z^j
and mode m of a current is the coefficient of z^{-m-1}.

WakimotoVector monomials are multisets over the creation generators
    D(gamma,m) = d_{x_{gamma,-m}},  X(gamma,m) = x_{gamma,m},  Y(i,m)   (m >= 1)
times top-component generators D0(gamma) = d_{x_{gamma,0}} (Verma; GT for
gamma != alpha) and X0(alpha) = x_{alpha,0} (GT).  A module's top is its
alpha_idx: None for the Verma top, the twisting root's index for a GT top.

Normal ordering places the annihilation set {x_{.,n<=-1}, d_{x_{.,n>=0}},
b_{.,n>=1}} to the right; on the relaxed module the two groups each consist of
mutually commuting operators, so group-internal order is immaterial.

Each generator operation (x/d/b, index, mode) resolves to one action on a
monomial: multiply by a key, differentiate a key times a factor, scale, or
fan out over the rows of heis_gram (WakimotoModule.resolve, with int
factors: a b-operation's are den times the exact ones).

The mode engine computes in Python ints.  A module has den, the lcm of the
denominators of lam2rho and heis_gram, and a field F has the scale
s(F) = den * lcm(denominators of F's coefficients).  One rule,
_annihilates, names the energy>0 keys a field factor differentiates and the
z-exponent at which it does; the plans and groups both read it.  A term's
z-exponents are chosen annihilators first (a combination of factors), then
top or scalar, or creation, the creation exponents being the compositions
of what is left, from rootdata.root_combinations, memoized by (count,
rest).

Inside the engine a monomial is one int, its code: each key has a WIDTH-bit
field, assigned the first time the module meets the key (module.shift), and
holds the key's exponent there.  encode refuses an exponent at or above half a
field's range, the guard, and a result with a field's top bit set is a
RealizationBug.  A chain moves one key's exponent by at most its term's
number of factors, so a result of an in-range code never carries into the
next field.  mode_apply encodes its input and decodes its output, and a
failure reports its vector as a sorted tuple.

A mode of a field is evaluated through four caches on the module, all kept
for the module's lifetime and all keyed on the FieldExpr instance itself,
so a dropped field's id never reaches a new one:

- the scale cache, keyed by field: s(F), F's term table, and the keys F
  reaches and F's longest term, read by _plan.  A row of the term table
  holds a term's int coefficient with den folded in, its factors, the keys
  each factor differentiates (_annihilates), which factors are a or b, and
  a memo of each factor's resolved ops by z-exponent, with the dz factor
  and the keys' field shifts already applied;
- the group cache, keyed by (field, mode, A), A being a sorted tuple of
  energy>0 keys: the entries of the field's mode whose chains of generator
  steps differentiate exactly the energy>0 keys of A.  An entry is
  (c, needs, delta): c is the int s(F) times the exact coefficient, needs
  the (shift, offset) factors the chain multiplies by ((code >> shift &
  MASK) + offset, the key's exponent plus offset), and delta the chain's
  net change of the code, one int.  A chain is built straight into these
  codes from the term table, step by step.  The entry vanishes exactly
  where a factor is 0, and entries of equal (needs, delta) are merged;
- the plan cache, keyed by (field, mode, support), where the support is the
  tuple of the monomial's energy>0 keys, computed once per code: the
  entries of the groups of the subsets of the support, shared with the
  group cache.  The creation-only group (A empty) is compiled once per
  (field, mode), not once per support;
- the mode cache, one table per (field, mode), from a code to s(F) times
  the result vector of that monomial, keyed by codes, in ints.  A surviving
  entry's result is code + delta, one addition.

mode_apply divides by s(F) once per output entry; the commutation verifier
never divides: it sums its two sides, each cross-multiplied by the other's
denominator, into one dict, which is empty iff the check holds.

The needs tuples, deltas, supports and result codes are interned per
module, so an equal one that many entries or results hold is stored once.
None of the caches holds a reference cycle, so the commutation check runs
with the cyclic garbage collector paused.

affine_comm_check checks its two tops in two processes: it solves the
fields and brackets once, then forks (POSIX fork), and the parent checks the
V top while the child checks the GT top, each with its own module and
caches.  The wall time is about that of the slower top.  The memory is that
of two processes: the child shares the solved fields copy-on-write, and each
process holds one top's caches.
"""

import gc
import os
import pickle
import signal
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations, product
from math import comb, lcm

from . import liealg, weylpoly
from .errors import RealizationBug, WakimotoError
from .liealg import bracket_symbols, kappa0_symbols
from .linalg import nullspace
from .rootdata import (Weight, build_root_system, default_weight,
                       lattice_counts, rho, root_combinations)
from .sparse import add_into, add_term, added, integral, scaled

ONE = Fraction(1)
# The bits of a key's field in a code, and their mask.
WIDTH = 8
MASK = (1 << WIDTH) - 1
# Half a field's range: the guard bit, and the bias of a field that holds
# a signed change.
HALF = 1 << (WIDTH - 1)


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


class WakimotoModule:
    """Context for a relaxed Wakimoto module: root system, highest data
    lambda, level k, and the top alpha_idx (None for the Verma top)."""

    def __init__(self, rs, lam, k, alpha_idx=None):
        self.rs = rs
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
        self._group_cache = {}
        self._interned = {}
        self._resolved = {}
        self._shifts = {}
        self._guard = 0
        self._supports = {}
        self.chains = 0

    def vacuum(self):
        return {(): ONE}

    def shift(self, key):
        """The bit shift of key's field in a code, assigned the first time
        the module meets key; the field's top bit joins the guard."""
        s = self._shifts.get(key)
        if s is None:
            s = self._shifts[key] = WIDTH * len(self._shifts)
            self._guard |= 1 << (s + WIDTH - 1)
        return s

    # -- generator operations -----------------------------------------------
    def resolve(self, kind, g, j):
        """The action of x_{g,j}, d_{x_{g,j}} or b_{g,j} (kind x, d or b) as a
        tuple of alternatives (factor, step), summed: step (key, 1)
        multiplies by key, (key, -1) differentiates by key, and None leaves
        the monomial as it is.  The factors are ints: +-1 for x and d, and
        den times the exact ones (lam2rho, j heis_gram, creation 1) for b.
        Memoized, so equal steps share one tuple."""
        op = (kind, g, j)
        alts = self._resolved.get(op)
        if alts is None:
            alts = self._resolved[op] = self._resolve(kind, g, j)
        return alts

    def _resolve(self, kind, g, j):
        top = g == self.alpha_idx
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
            return ((self.den, (("Y", g, -j), 1)),)
        if j == 0:
            s = integral(self.lam2rho[g] * self.den)
            return ((s, None),) if s else ()
        # b_{i,n}, n >= 1: n heis_gram[i][jj] d/dy_{jj,n}, summed over jj
        return tuple((integral(j * c * self.den), (("Y", jj, j), -1))
                     for jj, c in enumerate(self.heis_gram[g]) if c)

    def _apply(self, kind, g, j, vec):
        """The exact action of one generator operation on a vector: a
        b-result is divided by den."""
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
        if kind == "b":
            return {m: Fraction(c, self.den) for m, c in out.items()}
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

    Results are memoized per (field, mode) and code on the module as s(F)
    times the exact ones; each output entry is divided by s(F) once."""
    table = _table(module, F, m)
    out = {}
    for mono, c in vec.items():
        add_into(out, _result(module, F, m, table, encode(module, mono)), c)
    s = _scaled(module, F)[0]
    return {decode(module, code): Fraction(c, s) for code, c in out.items()}


def encode(module, mono):
    """The code of a sorted-tuple monomial: RealizationBug if an exponent is
    at or above the guard, half of a field's range."""
    code = 0
    for key, e in mono:
        if e >> (WIDTH - 1):
            raise RealizationBug("the exponent %d of %r is at or above the "
                                 "mode engine's limit" % (e, key))
        code += e << module.shift(key)
    return code


def decode(module, code):
    """The sorted-tuple monomial of a code, whose fields are in the order of
    module._shifts."""
    mono = []
    for key in module._shifts:
        if code & MASK:
            mono.append((key, code & MASK))
        code >>= WIDTH
    return tuple(sorted(mono))


def _scaled(module, F):
    """(s(F), F's term table, the (kind, g) prefixes of the energy>0 keys
    F's factors reach, F's longest term's number of factors), s(F) being den
    times the lcm of the denominators of F's coefficients.  Memoized on the
    module, keyed on F.

    The term table has one row (c, factors, reach, tops, ops) per term of
    F: c is s(F) times the term's exact coefficient, an int, with den
    folded in where the term has no b-factor (a b-factor carries den
    itself, see resolve); factors are the term's field factors
    (_factors); reach maps each prefix a factor differentiates to the
    (factor index, shift) pairs of _annihilates; tops[i] says whether
    factor i is a or b, whose z-exponent -1 is a top or scalar operator;
    and ops[i] memoizes factor i's resolved op by z-exponent (_op)."""
    hit = module._scales.get(F)
    if hit is None:
        f = lcm(*(Fraction(c).denominator for c, _, _ in F.terms))
        rows = []
        for c, astars, main in F.terms:
            c = integral(c * f)
            if main is None or main[0] != "b":
                c *= module.den
            factors = _factors(astars, main)
            reach = {}
            for i, fac in enumerate(factors):
                prefixes, shift = _annihilates(module, fac)
                for p in prefixes:
                    reach.setdefault(p, []).append((i, shift))
            rows.append((c, factors, reach,
                         [fac[0] != "as" for fac in factors],
                         [{} for _ in factors]))
        hit = module._scales[F] = (
            module.den * f, rows, {p for row in rows for p in row[2]},
            max((len(row[1]) for row in rows), default=0))
    return hit


def _table(module, F, m):
    """The mode table of (F, m): code -> s(F) times mode m of F on it."""
    return module._mode_cache.setdefault((F, m), {})


def _result(module, F, m, table, code):
    """table[code], computed on a miss; table is _table(module, F, m)."""
    res = table.get(code)
    if res is None:
        res = table[code] = _mode_apply_raw(module, F, m, code)
    return res


def _mode_apply_raw(module, F, m, code):
    """s(F) times mode m of F on a single code, through the plan for the
    code's support, the tuple of its energy>0 keys.  An entry (c, needs,
    delta) adds c times the product of (code >> shift & MASK) + offset over
    its needs at code + delta; it is skipped where a factor is 0.
    RealizationBug if a result reaches the guard."""
    support = module._supports.get(code)
    if support is None:
        support = tuple(key for key, _ in decode(module, code)
                        if len(key) == 3)
        support = module._supports[code] = module._interned.setdefault(
            support, support)
    pkey = (F, m, support)
    plan = module._plan_cache.get(pkey)
    if plan is None:
        plan = module._plan_cache[pkey] = _plan(module, F, m, support)
    guard = module._guard
    interned = module._interned
    out = {}
    for c, needs, delta in plan:
        for shift, offset in needs:
            e = (code >> shift & MASK) + offset
            if not e:
                break
            c *= e
        else:
            res = code + delta
            if res & guard:
                raise RealizationBug("mode %d of %r takes an exponent of %r "
                                     "to the mode engine's limit"
                                     % (m, F, decode(module, code)))
            add_term(out, interned.setdefault(res, res), c)
    return out


def _factors(astars, main):
    """A term's field factors in order: ("as", g, d) for each a*_g (d = 1
    for dz a*_g), then main, ("a", g) or ("b", i), if there is one."""
    return [("as", g, d) for g, d in astars] + ([main] if main else [])


def _annihilates(module, f):
    """(prefixes, shift) of the field factor f: f differentiates the
    energy>0 key (kind, g, mm) iff (kind, g) is in prefixes, at z-exponent
    -mm - shift.  a*_g reaches D(g, .) at -mm and dz a*_g at -mm - 1 (as
    x_{g,-mm}); a_g reaches X(g, .), and b_i the Y(j, .) with
    heis_gram[i][j] != 0, at -mm - 1."""
    kind, g = f[:2]
    if kind == "as":
        return {("D", g)}, f[2]
    if kind == "a":
        return {("X", g)}, 1
    return {("Y", j) for j, c in enumerate(module.heis_gram[g]) if c}, 1


def _plan(module, F, m, support):
    """The plan of mode m of F on monomials whose energy>0 keys are support:
    the groups of the subsets A of support that F can annihilate.  Each
    factor of a term differentiates at most one key, and only the keys that
    _annihilates names, so A holds keys that F's factors reach, and no more
    of them than F's longest term has factors (both read from _scaled)."""
    reach, longest = _scaled(module, F)[2:]
    keys = [key for key in support if key[:2] in reach]
    groups = module._group_cache
    plan = []
    for size in range(min(longest, len(keys)) + 1):
        for A in combinations(keys, size):
            gkey = (F, m, A)
            group = groups.get(gkey)
            if group is None:
                group = groups[gkey] = _compile(module, F, m, A)
            plan += group
    return plan


def _compile(module, F, m, A):
    """The group of mode m of F for A, a sorted tuple of energy>0 keys: the
    entries of the chains that differentiate exactly the energy>0 keys of A,
    on any monomial whose support holds A.

    For each row of F's term table (_scaled) the z-exponent of every field
    factor is chosen (_exponent_choices): an exponent that makes a factor an
    annihilation operator is proposed only if the key it differentiates is
    in A (the rule of _annihilates), so a row none of whose factors reaches
    some key of A is skipped.  Annihilation operators act first, and nothing
    in a term creates an energy>0 generator before they apply, so this
    pruning is exact.

    A choice fixes the annihilators and the top or scalar ops (z-exponent
    -1 of a or b); their resolved alternatives (_op, memoized per row,
    factor and exponent) multiply out into chains.  Then each composition
    of the creation exponents extends every chain by the creation ops,
    which have one alternative each.  Moving the scalar ops among the
    annihilators changes no entry, nor does the order within each class:
    there every key moves by steps of one sign.

    A chain is built straight into (c, needs, delta) in code space: delta
    adds step << shift for each step, and a differentiation of the key at
    shift adds the need (shift, offset), offset being that key's net change
    by the chain so far.  The offset is read off delta: with the guard
    added, every field holds its net change plus HALF, and no field
    borrows from the next.  A chain is dropped at the step that
    differentiates an energy>0 key outside A, and after the fixed ops if it
    left a key of A undifferentiated; it may differentiate a key of A more
    than once, each time at a lower offset.  needs is sorted, and entries
    of equal (needs, delta) add their coefficients.  An entry vanishes
    exactly where a factor is 0: the chain stops at its first factor 0, and
    a negative factor only follows a 0 one on the same key.

    The coefficients are ints, s(F) times the exact ones (see _scaled and
    resolve).  module.chains counts the chains kept, before merging."""
    total = -m - 1
    need = len(A)
    full = (1 << need) - 1
    bits = {module.shift(key): 1 << i for i, key in enumerate(A)}
    acc = {}
    kept = 0
    for c0, factors, reach, tops, ops in _scaled(module, F)[1]:
        if len(factors) < need:
            continue
        if not factors:
            if not total:
                add_term(acc, ((), 0), c0)
            continue
        # per factor, the exponents that annihilate a key of A (b_i reaches
        # Y(0, mm) and Y(1, mm) at one exponent)
        ann = [[] for _ in factors]
        for kind, g, mm in A:
            hits = reach.get((kind, g))
            if hits is None:  # no factor of the row reaches this key
                break
            for i, shift in hits:
                ann[i].append(-mm - shift)
        else:
            ann = [sorted(set(a)) for a in ann]
            for pick, comps in _exponent_choices(ann, tops, total, need):
                chains = [(c0, (), 0, 0)]
                free = []
                for i, j in enumerate(pick):
                    if j is None:
                        free.append(i)
                        continue
                    alts = ops[i].get(j)
                    if alts is None:
                        alts = ops[i][j] = _op(module, factors[i], j)
                    guard = module._guard
                    grown = []
                    for c, needs, delta, mask in chains:
                        for a, shift, step, energetic in alts:
                            if step >= 0:
                                grown.append((c * a, needs,
                                              delta + (step << shift), mask))
                                continue
                            bit = bits.get(shift) if energetic else 0
                            if bit is None:  # an energy>0 key outside A
                                continue
                            off = ((delta + guard) >> shift & MASK) - HALF
                            grown.append((c * a, needs + ((shift, off),),
                                          delta - (1 << shift), mask | bit))
                    chains = grown
                chains = [(c, tuple(sorted(needs)), delta)
                          for c, needs, delta, mask in chains if mask == full]
                if not chains:
                    continue
                for comp in comps:
                    c1 = 1
                    d1 = 0
                    diffs = []  # x_{g,0} differentiating a top key
                    for i, j in zip(free, comp):
                        alts = ops[i].get(j)
                        if alts is None:
                            alts = ops[i][j] = _op(module, factors[i], j)
                        if not alts:
                            break
                        a, shift, step, _ = alts[0]
                        c1 *= a
                        d1 += step << shift
                        if step < 0:
                            diffs.append(shift)
                    else:
                        kept += len(chains)
                        guard = module._guard
                        for c, needs, delta in chains:
                            if diffs:
                                d = delta
                                for shift in diffs:
                                    off = ((d + guard) >> shift & MASK) - HALF
                                    needs += ((shift, off),)
                                    d -= 1 << shift
                                needs = tuple(sorted(needs))
                            add_term(acc, (needs, delta + d1), c * c1)
    module.chains += kept
    interned = module._interned
    return [(c, interned.setdefault(needs, needs),
             interned.setdefault(delta, delta))
            for (needs, delta), c in acc.items()]


def _op(module, f, j):
    """The op of the field factor f at z-exponent j as its alternatives
    (c, shift, step, energetic), summed: c the int factor of resolve, times
    j + 1 for dz a*_g (which is x_{g,j+1}), step +1 to multiply by the key
    at shift, -1 to differentiate it and 0 for neither (shift 0), and
    energetic whether that key has energy > 0.  Empty if the op is 0."""
    kind, g = f[:2]
    mul = 1
    if kind == "as":
        op = ("x", g, j + f[2])
        if f[2]:
            mul = j + 1
    elif kind == "a":
        op = ("d", g, -j - 1)
    else:
        op = ("b", g, -j - 1)
    if not mul:
        return ()
    return tuple((c * mul, 0, 0, False) if step is None
                 else (c * mul, module.shift(step[0]), step[1],
                       len(step[0]) == 3)
                 for c, step in module.resolve(*op))


def _exponent_choices(ann, tops, total, need):
    """Every choice of one z-exponent per factor with sum total, of which at
    least need annihilate, as (pick, comps): js[i] is in ann[i] (exponents
    < 0 that make factor i annihilate), -1 where tops[i], or >= 0.

    The annihilating factors are chosen first, as a combination of at
    least need of the factors with a nonempty ann[i]; each of them picks a
    value of ann[i], and every other factor -1 where tops[i], or creation
    (None in pick).  comps are the compositions of what is left over the
    creation factors, in order (_compositions); a pick with none is not
    yielded."""
    can = [i for i, a in enumerate(ann) if a]
    for size in range(need, len(can) + 1):
        for chosen in combinations(can, size):
            picks = [ann[i] if i in chosen else [-1] * top + [None]
                     for i, top in enumerate(tops)]
            for pick in product(*picks):
                comps = _compositions(
                    pick.count(None),
                    total - sum(j for j in pick if j is not None))
                if comps:
                    yield pick, comps


_COMPOSITIONS = {}


def _compositions(count, rest):
    """The tuples of count ints >= 0 with sum rest, from root_combinations
    (all but the last take b, and the last takes end), in its order.
    Memoized by (count, rest)."""
    key = (count, rest)
    hit = _COMPOSITIONS.get(key)
    if hit is None:
        if not count:
            hit = ((),) if not rest else ()
        else:
            hit = tuple(b + end for b, end in root_combinations(
                [(1,)] * (count - 1), (rest,), 0))
        _COMPOSITIONS[key] = hit
    return hit


# -- the free-field homomorphism at mode level --------------------------------

_FIELD_CACHE = {}


def _lift(rs, sym):
    """The normal-ordered lift of pi_g(sym) (x -> a*, d -> a, h_i -> b_i), as
    its a-terms and its b-terms, each in pi_g's term order."""
    a_terms, b_terms = [], []
    for (xa, db, he), c in weylpoly.pi_g(rs, sym).items():
        if sum(db) + sum(he) > 1:
            raise RealizationBug("pi_g%r has a term with more than one "
                                 "d or h factor" % (sym,))
        astars = tuple((g, 0) for g, ex in enumerate(xa) for _ in range(ex))
        if any(he):
            b_terms.append((c, astars, ("b", he.index(1))))
        else:
            a_terms.append((c, astars, ("a", db.index(1)) if any(db)
                            else None))
    return a_terms, b_terms


def _dz_candidates(rs, idx):
    """The a*-factor tuples of every :dz a*_beta (a*-monomial): of root weight
    alpha = positive root idx, the only a*-only shape of conformal weight 1."""
    roots = rs.positive_roots
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
    mod = WakimotoModule(rs, lam, k)
    vac = mod.vacuum()
    lift = FieldExpr(lift_terms)
    cands = _dz_candidates(rs, idx)
    cand_fields = [FieldExpr([(ONE, astars, None)]) for astars in cands]
    alpha = rs.positive_roots[idx]
    eqs = []  # (m, v, target): sum_t c_t P_{t,m} v = target - lift_m v
    if sum(alpha) == 1:
        s = alpha.index(1)
        # E_1 kills the vacuum, so only E_1 pi(f)_{-1} vac remains
        fv = mode_apply(mod, pi_field(rs, ("f", idx), k), -1, vac)
        target = added(mode_apply(mod, pi_field(rs, ("h", s), k), 0, vac),
                       vac, k * kappa0_symbols(rs, ("e", idx), ("f", idx)))
        eqs.append((1, fv, target))
    else:
        for si, simple in enumerate(rs.simple_roots):
            rest = tuple(a - b for a, b in zip(alpha, simple))
            if rs.is_positive_root(rest):
                break
        g_idx = rs.simple_indices[si]
        rest_idx = rs.root_index[rest]
        N = bracket_symbols(rs, ("e", g_idx), ("e", rest_idx))[("e", idx)]
        A = pi_field(rs, ("e", g_idx), k)
        B = pi_field(rs, ("e", rest_idx), k)
        for m in range(-sum(alpha) - 1, 0):
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
    if sum(rs.positive_roots[gamma_idx]) != 1:
        raise WakimotoError("gamma must be simple")
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
    """Image of a g element {symbol: Fraction} as a list of (coeff,
    FieldExpr)."""
    return [(c, pi_field(rs, sym, k)) for sym, c in a.items()]


# -- spanning sets and verification -------------------------------------------

def _spanning_vectors(module, dmax, top_deg):
    """Monomial vectors of energy <= dmax and top degree <= top_deg, sorted
    by (energy, monomial)."""
    rs = module.rs
    npos = len(rs.positive_roots)
    keys = [(kind, g, m) for m in range(1, dmax + 1)
            for kind, count in (("D", npos), ("X", npos), ("Y", rs.rank))
            for g in range(count)]
    tops = [fock_to_top_monomial(module, e)
            for e, _ in root_combinations([(1,)] * npos, (top_deg,), 0)]
    vectors = []
    # each generator's energy is a one-coordinate root
    for b, (left,) in root_combinations([(key[2],) for key in keys],
                                        (dmax,), 0):
        mode = tuple((key, c) for key, c in zip(keys, b) if c)
        vectors.extend((dmax - left, canon(dict(mode + top))) for top in tops)
    vectors.sort()
    return [{mono: 1} for _, mono in vectors]


def _top_degree(rs):
    """The top degree of the spanning vectors of the affine commutation
    check."""
    return 2 if rs.n == 2 else 1


# The most commutator checks affine_comm_check runs (_affine_comm_checks).
# On a 2-core box, with the peak RSS of the parent (V top) and of the child
# (GT top): sl2 at -D 7 (531,720 checks) takes 4.7 s, 102 + 107 MB, and
# sl3 at -D 2 (330,720) 7.3 s, 149 + 231 MB.  With the limit lifted, sl4 at
# -D 1 (621,600) takes 45 s, 599 + 1033 MB.
MAX_AFFINE_CHECKS = 600000
# The largest n affine_comm_check admits.  A check costs more as n grows:
# with this limit lifted, sl5 at -D 0 (157,080 checks) takes 27 s, 406 +
# 592 MB.
MAX_AFFINE_N = 4


def _affine_comm_checks(rs, dmax):
    """The commutator checks of affine_comm_check, 2 tops x C(5 dim g, 2)
    item pairs x the spanning vectors of a top, counted without listing
    them, up to energy dmax or up to the first energy whose count exceeds
    MAX_AFFINE_CHECKS: exact if it does not exceed the limit, and otherwise
    a lower bound that exceeds it too.

    A top has C(npos + d, d) monomials of degree <= d, and at each mode
    m >= 1 there are dim g creation generators, so the mode monomials of
    energy <= E are counted by one lattice_counts call, each generator of
    mode m a step (m,) down from (E,)."""
    npos = len(rs.positive_roots)
    dim = 2 * npos + rs.rank
    top_deg = _top_degree(rs)
    per_vector = 2 * comb(5 * dim, 2) * comb(npos + top_deg, top_deg)
    energy = 0
    while True:
        gens = [(m,) for m in range(1, energy + 1) for _ in range(dim)]
        counts = lattice_counts({(energy,): 1}, gens, lambda c: c[0] >= 0)
        checks = per_vector * sum(counts.values())
        if checks > MAX_AFFINE_CHECKS or energy == dmax:
            return checks
        energy += 1


def affine_comm_check(n, k, dmax):
    """Check [pi(a)_m, pi(b)_n] = pi([a,b])_{m+n} + m k kappa_0(a,b)
    delta_{m,-n} for modes -2..2 on spanning vectors of both tops; returns
    (failures, checks), the V top's failures, then the GT top's (expected
    none), and the number of (pair, m, n, top, vector) commutators compared.

    The fields and brackets are solved once; then the process forks, and
    the parent checks the V top while the child checks the GT top.  The two
    tops share nothing after that, as each builds its own module and caches,
    and the child reads the solved fields copy-on-write.  The child sends
    its result, or the exception it raised, back through a pipe with
    pickle.  The child is reaped on every path, and killed first if the
    parent's half raises; a child that ends without a result is a
    RealizationBug.

    A usage error, before any field is solved, if the checks would exceed
    MAX_AFFINE_CHECKS, or n exceeds MAX_AFFINE_N."""
    checks = _affine_comm_checks(build_root_system(n), dmax)
    if checks > MAX_AFFINE_CHECKS:
        raise WakimotoError("verify affine-comm at n = %d, D = %d makes at "
                            "least %d commutator checks; the limit is %d"
                            % (n, dmax, checks, MAX_AFFINE_CHECKS))
    if n > MAX_AFFINE_N:
        raise WakimotoError("verify affine-comm at n = %d is above the limit "
                            "n = %d" % (n, MAX_AFFINE_N))
    problem = _comm_problem(n, k)
    alpha_idx = problem[0].simple_indices[0]
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        _send_and_exit(w, lambda: _check_top(problem, alpha_idx, dmax))
    os.close(w)
    with open(r, "rb") as pipe:
        try:
            failures, checks = _check_top(problem, None, dmax)
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
            br = bracket_symbols(rs, s1, s2)
            brackets[(s1, s2)] = (pi_affine(rs, br, k),
                                  kappa0_symbols(rs, s1, s2))
    return rs, k, fields, items, brackets


def _check_top(problem, alpha_idx, dmax):
    """(failures, checks) of the affine commutation check on one top (None
    for the Verma top, or the first simple root's index for the GT top), on
    its spanning vectors of energy <= dmax.

    Each unordered pair of items (a, m), (b, n) is checked once: the check
    for ((b, n), (a, m)) is the negative of this one, since the bracket and
    kappa_0 are antisymmetric and symmetric, and ((a, m), (a, m)) reads
    0 = 0.

    Both sides stay in ints, on codes.  The tables of the pair's modes are
    fetched once per pair.  On a spanning vector {mono: 1} the scaled
    modes give lhs = s(F1) s(F2) times the commutator, and rhs = R times
    pi([a,b])_{m+n} + m k kappa_0, R being the lcm of the denominators of
    c / s(F) over the bracket's terms c F and of m k kappa_0.  The check
    sums R lhs - s(F1) s(F2) rhs into one dict, straight from the memoized
    results of single monomials, and fails iff that dict is not empty.

    The cyclic garbage collector is paused while the check runs: the
    module's caches hold no reference cycles, so a collection would only
    walk them, and they grow to millions of objects."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        rs, k, fields, items, brackets = problem
        mod = WakimotoModule(rs, default_weight(rs), k, alpha_idx)
        top = "V" if alpha_idx is None else "GT"
        vectors = [(mono, encode(mod, mono)) for (mono,)
                   in _spanning_vectors(mod, dmax, _top_degree(rs))]
        failures = []
        checks = 0
        for (s1, m), (s2, nn) in combinations(items, 2):
            F1, F2 = fields[s1], fields[s2]
            br_fields, kap = brackets[(s1, s2)]
            exact = [(Fraction(c, _scaled(mod, F)[0]), F)
                     for c, F in br_fields]
            central = Fraction(m * k * kap if m == -nn else 0)
            R = lcm(central.denominator, *(q.denominator for q, _ in exact))
            s12 = _scaled(mod, F1)[0] * _scaled(mod, F2)[0]
            br = [(-s12 * int(q * R), F, _table(mod, F, m + nn))
                  for q, F in exact]
            central = -s12 * int(central * R)
            t1, t2 = _table(mod, F1, m), _table(mod, F2, nn)
            for mono, code in vectors:
                acc = {}
                for code2, c in _result(mod, F2, nn, t2, code).items():
                    add_into(acc, _result(mod, F1, m, t1, code2), R * c)
                for code1, c in _result(mod, F1, m, t1, code).items():
                    add_into(acc, _result(mod, F2, nn, t2, code1), -R * c)
                for c, F, t in br:
                    add_into(acc, _result(mod, F, m + nn, t, code), c)
                if central:
                    add_term(acc, code, central)
                checks += 1
                if acc:
                    failures.append({"pair": (s1, s2), "m": m, "n": nn,
                                     "vector": mono, "top": top})
        return failures, checks
    finally:
        if enabled:
            gc.enable()


# -- Zhu / top-component helpers ----------------------------------------------

def fock_to_top_monomial(module, exps):
    """The mode monomial of a top Fock monomial: x_{alpha,0} at the module's
    twisting root, d_{x_{gamma,0}} at every other root."""
    return canon({("X0" if g == module.alpha_idx else "D0", g): e
                  for g, e in enumerate(exps)})


def top_component_check(n, lam, k):
    """Zero modes of the affine realization restricted to energy 0 versus the
    finite pi_g action, for every Chevalley basis element on the top
    monomials of degree <= 20 (sl2) or <= 3, on the Verma top and the GT top
    twisted along the first simple root.  Returns the list of failures
    (expected empty)."""
    rs = build_root_system(n)
    max_degree = 20 if n == 2 else 3
    npos = len(rs.positive_roots)
    slices = [e for e, _ in root_combinations([(1,)] * npos, (max_degree,), 0)]
    syms = liealg.basis_symbols(rs)
    # pi_g's terms evaluated at lambda + 2 rho, once per symbol
    terms = {sym: weylpoly.fock_terms(weylpoly.pi_g(rs, sym), rs, lam)
             for sym in syms}
    failures = []
    for top, alpha_idx in (("V", None), ("GT", rs.simple_indices[0])):
        mod = WakimotoModule(rs, lam, k, alpha_idx)
        for sym in syms:
            F = pi_field(rs, sym, k)
            for exps in slices:
                got = mode_apply(mod, F, 0,
                                 {fock_to_top_monomial(mod, exps): ONE})
                fv = weylpoly.fock_apply(terms[sym], alpha_idx, {exps: ONE})
                expect = {fock_to_top_monomial(mod, e): c
                          for e, c in fv.items()}
                if got != expect:
                    failures.append({"top": top, "sym": sym, "exps": exps})
    return failures
