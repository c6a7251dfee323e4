"""Relaxed Verma modules as explicit PBW modules, bigraded characters of the
relaxed Verma / relaxed Wakimoto constructions, top-component and singular
vector diagnostics, and coinvariant characters.

A PBW basis element is (factors, top) where factors is a tuple of (n, sidx)
meaning a^{(sidx)}_{-n} (n >= 1, sidx indexing the Chevalley basis in the
canonical order) sorted by (n descending, sidx ascending), and top is a Fock
monomial exponent tuple of the top component (F_nbar for Verma tops,
F_{nbar,alpha} for GT tops).
"""

from fractions import Fraction

from . import liealg, weylpoly
from .errors import ModuleMismatch
from .liealg import LieElement, bracket_symbols, kappa0_symbols
from .linalg import nullspace, rank
from .rootdata import (bounded_degree_exponents, offset_weight,
                       root_combinations)
from .sparse import add_into, add_term

ZERO = Fraction(0)
ONE = Fraction(1)


def _pbw_key(f):
    return (-f[0], f[1])


class RelaxedModule:
    """Relaxed Verma module context over the affine algebra at level k."""

    def __init__(self, rs, top, lam, k, alpha_idx=None):
        self.kind = weylpoly.top_kind(top, alpha_idx)
        self.rs = rs
        self.top = top
        self.lam = lam
        self.k = Fraction(k)
        self.alpha_idx = alpha_idx
        self.syms = liealg.basis_symbols(rs)
        self.sym_index = {s: i for i, s in enumerate(self.syms)}
        self._pi_cache = {}
        self._act_cache = {}

    def vacuum(self):
        return {((), (0,) * len(self.rs.positive_roots)): ONE}

    def pi_g_of(self, sym):
        if sym not in self._pi_cache:
            self._pi_cache[sym] = weylpoly.pi_g(LieElement.basis(self.rs, sym))
        return self._pi_cache[sym]

    def top_act(self, sym, exps):
        """Zero-mode action on the top component, via the Fock realization."""
        v = weylpoly.FockVector(self.rs, self.kind, self.lam, {exps: ONE})
        return weylpoly.act_F(self.pi_g_of(sym), v).terms


def _pbw_normalize(mod, factor_list, top, coeff, out):
    """Straighten an arbitrarily ordered factor list into PBW order,
    accumulating into out."""
    fl = list(factor_list)
    for i in range(len(fl) - 1):
        if _pbw_key(fl[i]) > _pbw_key(fl[i + 1]):
            a, b = fl[i], fl[i + 1]
            swapped = fl[:i] + [b, a] + fl[i + 2:]
            _pbw_normalize(mod, swapped, top, coeff, out)
            br = bracket_symbols(mod.rs, mod.syms[a[1]], mod.syms[b[1]])
            for sym2, c2 in br.items():
                merged = fl[:i] + [(a[0] + b[0], mod.sym_index[sym2])] + fl[i + 2:]
                _pbw_normalize(mod, merged, top, coeff * c2, out)
            return
    add_term(out, (tuple(fl), top), coeff)


def _act_basis(mod, sym, m, factors, top):
    """a^{(sym)}_m applied to a single PBW basis element; returns a dict,
    cached on the module, that callers must not change."""
    ckey = (sym, m, factors, top)
    hit = mod._act_cache.get(ckey)
    if hit is not None:
        return hit
    rs = mod.rs
    out = {}
    if m < 0:
        _pbw_normalize(mod, [(-m, mod.sym_index[sym])] + list(factors),
                       top, ONE, out)
    elif not factors:
        if m == 0:
            for exps, c in mod.top_act(sym, top).items():
                out[((), exps)] = c
    else:
        b = factors[0]
        rest = factors[1:]
        bsym = mod.syms[b[1]]
        # a_m b_{-n} = b_{-n} a_m + [a,b]_{m-n} + m k kappa0(a,b) delta_{m,n}
        inner = _act_basis(mod, sym, m, rest, top)
        for (f2, t2), c in inner.items():
            _pbw_normalize(mod, [b] + list(f2), t2, c, out)
        br = bracket_symbols(rs, sym, bsym)
        for sym2, c2 in br.items():
            add_into(out, _act_basis(mod, sym2, m - b[0], rest, top), c2)
        if m == b[0]:
            kap = kappa0_symbols(rs, sym, bsym)
            if kap:
                add_term(out, (rest, top), m * mod.k * kap)
    mod._act_cache[ckey] = out
    return out


def relaxed_verma_act(mod, sym, m, vec):
    """Action of the mode a^{(sym)}_m on a vector {basis element: coeff}."""
    out = {}
    for (factors, top), c in vec.items():
        add_into(out, _act_basis(mod, sym, m, factors, top), c)
    return out


# -- characters ----------------------------------------------------------------

def _root_shift(rs, sym):
    """Weight of a Chevalley basis symbol in root coordinates."""
    kind, idx = sym
    if kind == "h":
        return (0,) * rs.rank
    co = rs.positive_roots[idx].coeffs
    return co if kind == "e" else tuple(-c for c in co)


def _mode_monomial_table(rs, families, dmax):
    """DP table {energy d: {root-coord weight delta: count}} of monomials in
    negative-mode families; families is a list of root-coordinate tuples (one
    per generator family, each family existing for every m >= 1)."""
    zero = (0,) * rs.rank
    table = {0: {zero: 1}}
    for wt in families:
        for m in range(1, dmax + 1):
            # multiply by the free generator (family, m): geometric series
            new = {d: dict(row) for d, row in table.items()}
            for c in range(1, dmax // m + 1):
                shift = tuple(c * w for w in wt)
                for d, row in table.items():
                    if d + c * m > dmax:
                        continue
                    dst = new.setdefault(d + c * m, {})
                    for w0, cnt in row.items():
                        key = tuple(a + b for a, b in zip(w0, shift))
                        dst[key] = dst.get(key, 0) + cnt
            table = new
    return table


def _convolve_character(rs, lam, top_table, mode_table, radius):
    """Combine a top-component character {root-coordinate offset:
    count-or-('ge',n)} with the mode-monomial table into
    {(Weight, d): count-or-('ge',n)} in the window."""
    weylpoly._check_window(radius)
    out = {}
    for d, row in mode_table.items():
        for wshift, cnt in row.items():
            for offset, mult in top_table.items():
                total = tuple(a + b for a, b in zip(offset, wshift))
                if not weylpoly._in_window(total, radius):
                    continue
                key = (total, d)
                flagged = isinstance(mult, tuple)
                base = mult[1] if flagged else mult
                prev = out.get(key, 0)
                pflag = isinstance(prev, tuple)
                pbase = prev[1] if pflag else prev
                nbase = pbase + base * cnt
                out[key] = ("ge", nbase) if (flagged or pflag) else nbase
    return {(offset_weight(rs, lam, c), d): m for (c, d), m in out.items()}


def character_relaxed_verma(rs, top, lam, alpha_idx, dmax, radius, kcap=40):
    """Bigraded character of the relaxed Verma module, counted on the PBW
    side: top character (f-monomial combinatorics for Verma tops, the
    twisting-functor formula for GT tops) times monomials in the dim g
    families of negative modes."""
    if top == "V":
        top_table = _verma_top_character(rs, radius + dmax)
    else:
        top_table = weylpoly._twist_counts(rs, alpha_idx, radius + dmax, kcap)
    families = [_root_shift(rs, sym) for sym in liealg.basis_symbols(rs)]
    mode_table = _mode_monomial_table(rs, families, dmax)
    return _convolve_character(rs, lam, top_table, mode_table, radius)


def character_relaxed_wakimoto(rs, top, lam, alpha_idx, dmax, radius,
                               kcap=40):
    """Bigraded character of the relaxed Wakimoto module, counted on the
    free-field side: Fock monomials for the top times monomials in the
    generators {d_{x,-m}: -gamma, x_m: +gamma, y_m: 0}."""
    top_table = weylpoly._fock_counts(rs, weylpoly.top_kind(top, alpha_idx),
                                      radius + dmax, kcap)
    families = []
    for gamma in rs.positive_roots:
        families.append(tuple(-c for c in gamma.coeffs))
        families.append(gamma.coeffs)
    for _ in range(rs.rank):
        families.append((0,) * rs.rank)
    mode_table = _mode_monomial_table(rs, families, dmax)
    return _convolve_character(rs, lam, top_table, mode_table, radius)


def _verma_top_character(rs, radius):
    """Verma character e^lam prod (1-e^{-gamma})^{-1} as {root-coordinate
    offset from lam: count}, by direct f-monomial enumeration (independent
    of the Fock realization)."""
    table = {}
    for _, offset in root_combinations(
            [g.coeffs for g in rs.positive_roots], (0,) * rs.rank, -radius):
        table[offset] = table.get(offset, 0) + 1
    return table


# -- diagnostics ---------------------------------------------------------------

def top_component_check(n, lam, k, alpha_idx=None, max_degree=None):
    """Zero modes of the affine realization restricted to energy 0 versus the
    finite pi_g action, for every Chevalley basis element on a degree slice.
    Returns the list of failures (expected empty)."""
    from . import modes
    from .rootdata import build_root_system

    rs = build_root_system(n)
    if alpha_idx is None:
        alpha_idx = rs.simple_indices[0]
    if max_degree is None:
        max_degree = 20 if n == 2 else 3
    failures = []
    npos = len(rs.positive_roots)
    for top in ("V", "GT"):
        mod = modes.WakimotoModule(rs, top, lam, k,
                                   alpha_idx if top == "GT" else None)
        slices = list(bounded_degree_exponents(npos, max_degree))
        for sym in liealg.basis_symbols(rs):
            F = modes.pi_field(rs, sym, k)
            w = weylpoly.pi_g(LieElement.basis(rs, sym))
            for exps in slices:
                mono = modes.fock_to_top_monomial(rs, mod, exps)
                got = modes.mode_apply(mod, F, 0, {mono: ONE})
                fv = weylpoly.act_F(
                    w, weylpoly.FockVector(rs, mod.kind, lam, {exps: ONE}))
                expect = {modes.fock_to_top_monomial(rs, mod, e): c
                          for e, c in fv.terms.items()}
                if got != expect:
                    failures.append({"top": top, "sym": sym, "exps": exps})
    return failures


def _mode_monomials_exact(mod, d):
    """(factors, weight shift) for every PBW factor tuple of energy exactly
    d; the shift is the factors' weight in root coordinates."""
    rs = mod.rs
    shifts = [_root_shift(rs, sym) for sym in mod.syms]
    gens = [(n, s) for n in range(1, d + 1) for s in range(len(mod.syms))]
    gens.sort(key=_pbw_key)
    out = []

    def rec(idx, remaining, acc):
        if remaining == 0:
            wshift = [0] * rs.rank
            for _, sidx in acc:
                for t, c in enumerate(shifts[sidx]):
                    wshift[t] += c
            out.append((tuple(acc), tuple(wshift)))
            return
        if idx == len(gens):
            return
        n, s = gens[idx]
        c = 0
        while c * n <= remaining:
            rec(idx + 1, remaining - c * n, acc + [(n, s)] * c)
            c += 1

    rec(0, d, [])
    return out


def enum_root_decompositions(rs, target):
    """All b >= 0 with sum b_g gamma_g = target (root coordinates)."""
    return [b for b, end in root_combinations(
                [g.coeffs for g in rs.positive_roots], target, 0)
            if not any(end)]


def _cell_basis(mod, monomials, mu_delta, gt_cap=12):
    """Basis of the (energy d, weight lam + mu_delta) cell, from the energy-d
    (factors, weight shift) list; mu_delta in integer root coordinates."""
    rs = mod.rs
    ai = mod.alpha_idx
    if mod.top == "GT":
        roots = [g.coeffs for g in rs.positive_roots]
        alpha, others = roots[ai], roots[:ai] + roots[ai + 1:]
    basis = []
    for factors, wshift in monomials:
        # the top monomial carries weight sum b_g gamma = wshift - mu_delta
        need = tuple(w - m for w, m in zip(wshift, mu_delta))
        if mod.top == "V":
            for b in enum_root_decompositions(rs, need):
                basis.append((factors, b))
            continue
        for a in range(gt_cap):
            start = tuple(x + (a + 1) * c for x, c in zip(need, alpha))
            for b, end in root_combinations(others, start, 0):
                if not any(end):
                    basis.append((factors, b[:ai] + (a,) + b[ai:]))
    return basis


def find_singular_vectors(rs, lam, k, D, top="V", radius=None, alpha_idx=None):
    """Vectors of energy 1..D annihilated by the raising generators
    {e_{gamma,0} (gamma simple), f_{theta,1}} (which generate everything in
    positive modes).  Returns a list of (energy, weight-delta, vector)."""
    if radius is None:
        radius = 2 * D + 2
    mod = RelaxedModule(rs, top, lam, k, alpha_idx)
    theta_idx = rs.root_index[(1,) * rs.rank]
    conds = [(("e", si), 0) for si in rs.simple_indices]
    conds.append((("f", theta_idx), 1))
    found = []
    for d in range(1, D + 1):
        monomials = _mode_monomials_exact(mod, d)
        for delta in sorted(_candidate_deltas(rs, mod, monomials, radius)):
            basis = _cell_basis(mod, monomials, delta)
            if not basis:
                continue
            rows = []
            for sym, m in conds:
                images = [relaxed_verma_act(mod, sym, m, {b: ONE})
                          for b in basis]
                target_index = {}
                for img in images:
                    for mono in img:
                        target_index.setdefault(mono, len(target_index))
                block = [[ZERO] * len(basis) for _ in range(len(target_index))]
                for jcol, img in enumerate(images):
                    for mono, c in img.items():
                        block[target_index[mono]][jcol] = c
                rows.extend(block)
            for v in nullspace(rows, ncols=len(basis)):
                vec = {basis[i]: c for i, c in enumerate(v) if c}
                found.append((d, delta, vec))
    return found


def _candidate_deltas(rs, mod, monomials, radius):
    """Integer root-coordinate weight shifts reachable from the energy-d
    (factors, weight shift) list within the search box."""
    roots = [g.coeffs for g in rs.positive_roots]
    if mod.top == "V":
        tops = [(0,) * rs.rank]
    else:
        alpha = roots[mod.alpha_idx]
        tops = [tuple(a * c for c in alpha) for a in range(1, 2 * radius + 2)]
    out = set()
    for wshift in {w for _, w in monomials}:
        # subtract top-monomial contributions down to the box edge
        for top in tops:
            start = tuple(w + t for w, t in zip(wshift, top))
            for _, end in root_combinations(roots, start, -radius):
                if all(c <= radius for c in end):
                    out.add(end)
    return out


def coinvariants_character(rs, lam, k, alpha_idx, D, radius, top="V",
                           gt_alpha_idx=None):
    """Character of M / f_{alpha,0} M per (weight, energy) cell:
    dim(cell) - rank(f_{alpha,0}: cell(mu+alpha) -> cell(mu))."""
    mod = RelaxedModule(rs, top, lam, k, gt_alpha_idx)
    alpha = rs.positive_roots[alpha_idx]
    table = {}
    for d in range(D + 1):
        monomials = _mode_monomials_exact(mod, d)
        for delta in sorted(_candidate_deltas(rs, mod, monomials, radius)):
            basis = _cell_basis(mod, monomials, delta)
            if not basis:
                continue
            src_delta = tuple(delta[t] + alpha.coeffs[t]
                              for t in range(rs.rank))
            src = _cell_basis(mod, monomials, src_delta)
            index = {b: i for i, b in enumerate(basis)}
            rows = [[ZERO] * len(src) for _ in range(len(basis))]
            for jcol, b in enumerate(src):
                img = relaxed_verma_act(mod, ("f", alpha_idx), 0, {b: ONE})
                for mono, c in img.items():
                    i = index.get(mono)
                    if i is None:
                        raise ModuleMismatch("f_0 image left the cell")
                    rows[i][jcol] = c
            co = len(basis) - (rank(rows) if src else 0)
            if co:
                table[(offset_weight(rs, lam, delta), d)] = co
    return table
