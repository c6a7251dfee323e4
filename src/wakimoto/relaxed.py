"""Relaxed Verma modules as explicit PBW modules, bigraded characters of the
relaxed Verma / relaxed Wakimoto constructions, and the singular-vector
search on the Verma top.

A module's top is its alpha_idx: None for the Verma top, the twisting root's
index for a GT top.  A PBW basis element is (factors, top) where factors is a
tuple of (n, sidx) meaning a^{(sidx)}_{-n} (n >= 1, sidx indexing the
Chevalley basis in the canonical order) sorted by (n descending, sidx
ascending), and top is a Fock monomial exponent tuple of the top component
(F_nbar for the Verma top, F_{nbar,alpha} for a GT top).
"""

from fractions import Fraction
from math import prod

from . import liealg, weylpoly
from .errors import RealizationBug, WakimotoError
from .liealg import bracket_symbols, kappa0_symbols
from .linalg import nullspace
from .rootdata import lattice_counts, offset_weight, root_combinations
from .sparse import add_into, add_term

ONE = Fraction(1)


def _pbw_key(f):
    return (-f[0], f[1])


class RelaxedModule:
    """Relaxed Verma module context over the affine algebra at level k."""

    def __init__(self, rs, lam, k, alpha_idx=None):
        self.rs = rs
        self.lam = lam
        self.k = Fraction(k)
        self.alpha_idx = alpha_idx
        self.syms = liealg.basis_symbols(rs)
        self.sym_index = {s: i for i, s in enumerate(self.syms)}
        self._act_cache = {}

    def vacuum(self):
        return {((), (0,) * len(self.rs.positive_roots)): ONE}

    def top_act(self, sym, exps):
        """Zero-mode action on the top component, via the Fock realization."""
        return weylpoly.act_F(weylpoly.pi_g(self.rs, sym), self.rs,
                              self.alpha_idx, self.lam, {exps: ONE})


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
    co = rs.positive_roots[idx]
    return co if kind == "e" else tuple(-c for c in co)


def _mode_monomial_table(rs, families, dmax):
    """{energy d: {root-coordinate weight: count}} of the monomials of
    energy d <= dmax in negative-mode families; families is a list of
    root-coordinate weights, one per generator family, each family holding
    a generator for every mode m >= 1.  One lattice count on the points
    (energy left, weight), from (dmax, 0) by the generators (m, -w)."""
    gens = [(m,) + tuple(-c for c in wt)
            for wt in families for m in range(1, dmax + 1)]
    counts = lattice_counts({(dmax,) + (0,) * rs.rank: 1}, gens,
                            lambda p: p[0] >= 0)
    table = {}
    for p, cnt in counts.items():
        table.setdefault(dmax - p[0], {})[p[1:]] = cnt
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


# The most work _relaxed_character may do, bounded before anything is
# counted as the mode table's points times the top table's points.  A
# generator of energy m >= 1 moves each root coordinate by at most 1, so
# the table holds at most (dmax + 1) (2 dmax + 1)^rank points (energy left,
# weight), and the convolution pairs each of them with each top point.  The
# top table holds window points c (|c_t| <= R, R = radius + dmax) at or
# below the highest start kmax alpha, at most prod_t min(R + 1 + kmax
# alpha_t, 2 R + 1); the counting that fills it is bounded by MAX_TOP_BOX.
# On a 2-core box both characters of `verify characters -n 3 --window 6`
# (V top) take 2.0 s at -D 10 (1,401,939) and 3.8 s at -D 12 (2,933,125);
# `-n 2 -D 80 --window 10` (1,186,731) takes 6.3 s; with the GT top of
# sl3, along theta at -D 5 --window 17 (1,470,150) they take 2.9 s, along
# a1 at -D 10 --window 1 (1,338,876) 1.9 s.
MAX_CHARACTER_WORK = 1500000


def _relaxed_character(rs, lam, alpha_idx, dmax, radius, families):
    """The top count in the window widened by dmax, times the monomials in
    the mode families, as {(Weight, energy): count-or-('ge', n)}.
    WakimotoError, before anything is counted, if the work bound exceeds
    MAX_CHARACTER_WORK."""
    wide = radius + dmax
    kmax = weylpoly._top_kmax(rs, alpha_idx, wide, weylpoly.KCAP)
    alpha = ((0,) * rs.rank if alpha_idx is None
             else rs.positive_roots[alpha_idx])
    held = prod(min(wide + 1 + kmax * a, 2 * wide + 1) for a in alpha)
    points = (dmax + 1) * (2 * dmax + 1) ** rs.rank
    if points * held > MAX_CHARACTER_WORK:
        raise WakimotoError(
            "the character up to energy %d needs %d mode-table points times "
            "%d top points, %d; the limit is %d"
            % (dmax, points, held, points * held, MAX_CHARACTER_WORK))
    top_table = weylpoly._top_counts(rs, alpha_idx, wide, weylpoly.KCAP)
    mode_table = _mode_monomial_table(rs, families, dmax)
    return _convolve_character(rs, lam, top_table, mode_table, radius)


def character_relaxed_verma(rs, lam, alpha_idx, dmax, radius):
    """Bigraded character of the relaxed Verma module, counted on the PBW
    side: the top character times monomials in the dim g families a_{-m},
    one for each Chevalley basis element a."""
    families = [_root_shift(rs, sym) for sym in liealg.basis_symbols(rs)]
    return _relaxed_character(rs, lam, alpha_idx, dmax, radius, families)


def character_relaxed_wakimoto(rs, lam, alpha_idx, dmax, radius):
    """Bigraded character of the relaxed Wakimoto module, counted on the
    free-field side: the top character times monomials in the generators
    {d_{x,-m}: -gamma, x_m: +gamma, y_m: 0}."""
    families = []
    for gamma in rs.positive_roots:
        families.append(tuple(-c for c in gamma))
        families.append(gamma)
    for _ in range(rs.rank):
        families.append((0,) * rs.rank)
    return _relaxed_character(rs, lam, alpha_idx, dmax, radius, families)


def _mode_monomials(mod, D):
    """{energy d: [(factors, weight shift)]} for every PBW factor tuple of
    energy d <= D, each list in lexicographic order of the generator
    counts; the shift is the factors' weight in root coordinates."""
    rs = mod.rs
    shifts = [_root_shift(rs, sym) for sym in mod.syms]
    zero = (0,) * rs.rank
    # the generators a^{(s)}_{-n} in PBW order, each energy a 1-coordinate root
    gens = [(n, s) for n in range(D, 0, -1) for s in range(len(mod.syms))]
    out = {d: [] for d in range(D + 1)}
    for b, (left,) in root_combinations([(n,) for n, _ in gens], (D,), 0):
        factors = tuple(g for g, c in zip(gens, b) for _ in range(c))
        wshift = tuple(map(sum, zip(zero, *(shifts[s] for _, s in factors))))
        out[D - left].append((factors, wshift))
    return out


def _cells(monomials, roots, radius):
    """{weight delta: basis} of the cells of one energy in the search box
    |delta| <= radius (integer root coordinates).  A basis element
    (factors, b) is a mode monomial times the Verma-top monomial with
    exponents b, of weight -sum b_g g, so delta is the monomial's shift
    minus sum b_g g.  Each basis lists the monomials in order, and for
    each its b in lexicographic order."""
    cells = {}
    for factors, wshift in monomials:
        for b, delta in root_combinations(roots, wshift, -radius):
            if all(c <= radius for c in delta):
                cells.setdefault(delta, []).append((factors, b))
    return cells


# The most basis elements find_singular_vectors may search, counted before
# any row is built.  The time per element grows with energy and rank.  On a
# 2-core box: sl2 -D 7 (14,331) took 2.8 s and 55 MB, sl4 -D 1 (13,671)
# 5 s and 68 MB, sl2 -D 8 (31,407) 10 s at k = 7/3 and 26 s at the vacuum
# k = -1/2 (where one cell's kernel is beyond the modular certificate),
# with 109 MB.  Refused: sl2 -D 9 (65,772), sl3 -D 3 (71,171;
# 18.6 s and 269 MB at k = 1/2, lam = (1/3, 1/5)), sl5 -D 1 (422,442).
MAX_SINGULAR_WORK = 40000


def _search_size(rs, lam, D):
    """The number of basis elements in find_singular_vectors' cells: the
    relaxed Verma character at energies 1..D in the box of radius 2D + 2,
    whose entries are the cell sizes."""
    try:
        char = character_relaxed_verma(rs, lam, None, D, 2 * D + 2)
    except WakimotoError as e:
        raise WakimotoError("the singular-vector search up to energy %d "
                            "is too large to count: %s" % (D, e))
    return sum(m for (_, d), m in char.items() if d)


def find_singular_vectors(rs, lam, k, D):
    """Vectors of energy 1..D in the relaxed Verma module with Verma top
    M(lam) annihilated by the raising generators {e_{gamma,0} (gamma
    simple), f_{theta,1}} (which generate everything in positive modes).
    Returns a list of (energy, weight-delta, vector).  The search box has
    radius 2D + 2.  Each vector is checked by acting on it with every
    raising generator; RealizationBug if one does not annihilate it.
    WakimotoError, before any row is built, if the cells hold more than
    MAX_SINGULAR_WORK basis elements."""
    size = _search_size(rs, lam, D)
    if size > MAX_SINGULAR_WORK:
        raise WakimotoError("the singular-vector search up to energy %d "
                            "has %d basis elements; the limit is %d"
                            % (D, size, MAX_SINGULAR_WORK))
    radius = 2 * D + 2
    mod = RelaxedModule(rs, lam, k)
    roots = rs.positive_roots
    theta_idx = rs.root_index[(1,) * rs.rank]
    conds = [(("e", si), 0) for si in rs.simple_indices]
    conds.append((("f", theta_idx), 1))
    found = []
    monomials = _mode_monomials(mod, D)
    for d in range(1, D + 1):
        cells = _cells(monomials[d], roots, radius)
        for delta in sorted(cells):
            basis = cells[delta]
            # one sparse row per (condition, image monomial)
            rows = {}
            for sym, m in conds:
                for j, b in enumerate(basis):
                    for mono, c in relaxed_verma_act(mod, sym, m,
                                                     {b: ONE}).items():
                        rows.setdefault((sym, m, mono), {})[j] = c
            for v in nullspace(list(rows.values()), ncols=len(basis)):
                vec = {basis[j]: c for j, c in v.items()}
                # check each vector by acting on it, not through the matrix
                if any(relaxed_verma_act(mod, sym, m, vec) for sym, m in conds):
                    raise RealizationBug("energy %d, shift %s: a nullspace "
                                         "vector is not singular" % (d, delta))
                found.append((d, delta, vec))
    return found
