"""Relaxed Verma modules as explicit PBW modules, bigraded characters of the
relaxed Verma / relaxed Wakimoto constructions, and the singular-vector
search on the Verma top.

A module's top is its alpha_idx: None for the Verma top, the twisting root's
index for a GT top.  A PBW basis element is (factors, top) where factors is a
tuple of (n, sidx) meaning a^{(sidx)}_{-n} (n >= 1, sidx indexing the
Chevalley basis in the canonical order) sorted by (n descending, sidx
ascending), and top is a Fock monomial exponent tuple of the top component
(F_nbar for the Verma top, F_{nbar,alpha} for a GT top).

The PBW action computes in Python ints over one scale L per module.  A mode
a_m acts on a basis element by commuting it to the right past each factor:
a_m b_{-n} = b_{-n} a_m + [a, b]_{m-n} + m k kappa0(a, b) delta_{m,n}, and
a_0 reaching the top acts by pi_g(a) on the Fock top.  The sl_n brackets
are integers, and straightening two creation modes makes no central term,
since their modes add to a negative number.  So every term of the result
carries at most one non-integral factor: the central m k kappa0(a, b), or
one top scalar, an h-polynomial of pi_g(a) evaluated at lambda + 2 rho.
L = lcm(den k, the denominators of the top scalars of every basis symbol)
makes each coefficient times L an int.  L is fixed on the module's first
action (_fix_scale), so a module that never acts never computes pi_g; a
scaled coefficient that is not an int raises RealizationBug.
relaxed_verma_act divides each output entry by L once; the singular-vector
search builds its rows from the scaled ints (_scaled_images).
"""

from fractions import Fraction
from math import lcm, prod

from . import liealg, weylpoly
from .errors import RealizationBug, WakimotoError
from .liealg import bracket_symbols, kappa0_symbols
from .linalg import nullspace
from .rootdata import lattice_counts, offset_weight, root_combinations
from .sparse import add_into, add_term, integral

ONE = Fraction(1)


class RelaxedModule:
    """Relaxed Verma module context over the affine algebra at level k.
    scale is L, None until the first action fixes it with the int tables
    (_fix_scale); the action cache holds L times the exact results, and
    the straightening cache the exact ints."""

    def __init__(self, rs, lam, k, alpha_idx=None):
        self.rs = rs
        self.lam = lam
        self.k = Fraction(k)
        self.alpha_idx = alpha_idx
        self.syms = liealg.basis_symbols(rs)
        self.sym_index = {s: i for i, s in enumerate(self.syms)}
        self.scale = None
        self._act_cache = {}
        self._insert_cache = {}

    def vacuum(self):
        return {((), (0,) * len(self.rs.positive_roots)): ONE}


def _fix_scale(mod):
    """Fix L and the module's int tables, indexed by symbol index:
    top_terms[s] holds the Fock terms of pi_g(s) with L times their
    scalars, br[s][t] the bracket [s, t] as (index, int) pairs, and
    central[s][t] the int L k kappa0(s, t)."""
    rs, syms = mod.rs, mod.syms
    terms = [weylpoly.fock_terms(weylpoly.pi_g(rs, s), rs, mod.lam)
             for s in syms]
    L = lcm(mod.k.denominator,
            *(c.denominator for ts in terms for _, _, c in ts))
    mod.top_terms = [[(xa, db, integral(c * L)) for xa, db, c in ts]
                     for ts in terms]
    mod.br = [[tuple((mod.sym_index[s3], integral(c))
                     for s3, c in bracket_symbols(rs, s1, s2).items())
               for s2 in syms] for s1 in syms]
    mod.central = [[integral(mod.k * L * kappa0_symbols(rs, s1, s2))
                    for s2 in syms] for s1 in syms]
    mod.scale = L


def _insert(mod, x, factors):
    """The factor x times the PBW-ordered factors, straightened into PBW
    order, as {factors: int}: x b = b x + [x, b] while x sorts after the
    first factor b.  Exact, with no scale (see the module docstring).
    Memoized on the module; callers must not change the result."""
    key = (x, factors)
    hit = mod._insert_cache.get(key)
    if hit is not None:
        return hit
    b = factors[0] if factors else None
    if b is None or x[0] > b[0] or (x[0] == b[0] and x[1] <= b[1]):
        out = {(x,) + factors: 1}
    else:
        rest = factors[1:]
        out = {}
        for f2, c in _insert(mod, x, rest).items():
            add_into(out, _insert(mod, b, f2), c)
        n = x[0] + b[0]
        for s, c in mod.br[x[1]][b[1]]:
            add_into(out, _insert(mod, (n, s), rest), c)
    mod._insert_cache[key] = out
    return out


def _act_basis(mod, s, m, factors, top):
    """L times a^{(s)}_m (s a symbol index) on the basis element (factors,
    top), as {basis element: int}.  Memoized on the module; callers must
    not change the result."""
    ckey = (s, m, factors, top)
    hit = mod._act_cache.get(ckey)
    if hit is not None:
        return hit
    if m < 0:
        L = mod.scale
        out = {(f, top): c * L
               for f, c in _insert(mod, (-m, s), factors).items()}
    elif not factors:
        # a zero mode acts on the top by pi_g, a positive mode kills it
        image = (weylpoly.fock_apply(mod.top_terms[s], mod.alpha_idx,
                                     {top: 1}) if m == 0 else {})
        out = {((), exps): c for exps, c in image.items()}
    else:
        b = factors[0]
        rest = factors[1:]
        # a_m b_{-n} = b_{-n} a_m + [a,b]_{m-n} + m k kappa0(a,b) delta_{m,n}
        out = {}
        for (f2, t2), c in _act_basis(mod, s, m, rest, top).items():
            for f3, c3 in _insert(mod, b, f2).items():
                add_term(out, (f3, t2), c * c3)
        for s2, c2 in mod.br[s][b[1]]:
            add_into(out, _act_basis(mod, s2, m - b[0], rest, top), c2)
        if m == b[0] and mod.central[s][b[1]]:
            add_term(out, (rest, top), m * mod.central[s][b[1]])
    mod._act_cache[ckey] = out
    return out


def _scaled_images(mod, sym, m, basis):
    """L times a^{(sym)}_m on each basis element, as the memoized {basis
    element: int} dicts, which callers must not change.  The module's first
    action fixes L."""
    if mod.scale is None:
        _fix_scale(mod)
    s = mod.sym_index[sym]
    return [_act_basis(mod, s, m, factors, top) for factors, top in basis]


def relaxed_verma_act(mod, sym, m, vec):
    """Action of the mode a^{(sym)}_m on a vector {basis element: coeff},
    exact: the int images of its basis elements summed with vec's
    coefficients, each output entry divided by L once."""
    out = {}
    for image, c in zip(_scaled_images(mod, sym, m, vec), vec.values()):
        add_into(out, image, c)
    L = mod.scale
    return {b: Fraction(c, L) for b, c in out.items()}


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
# any row is built.  The time per element grows with energy and rank.  In
# process on a 2-core box: sl2 -D 7 (14,331) took 2.1 s and 45 MB, sl4 -D 1
# (13,671) 1.9 s and 61 MB, sl2 -D 8 (31,407) 8.3 s at k = 7/3 and 25.5 s
# at the vacuum k = -1/2 (where one cell's kernel is beyond the modular
# certificate), with 83 MB.  Refused: sl2 -D 9 (65,772), sl3 -D 3 (71,171;
# 18.9 s and 225 MB at k = 1/2, lam = (1/3, 1/5)), sl5 -D 1 (422,442).
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
            # one sparse row per (condition, image monomial), L times the
            # action in ints; scaling a row leaves its nullspace as it is
            rows = {}
            for sym, m in conds:
                for j, image in enumerate(_scaled_images(mod, sym, m, basis)):
                    for mono, c in image.items():
                        rows.setdefault((sym, m, mono), {})[j] = c
            for v in nullspace(list(rows.values()), ncols=len(basis)):
                vec = {basis[j]: c for j, c in v.items()}
                # check each vector by acting on it, not through the matrix
                if any(relaxed_verma_act(mod, sym, m, vec) for sym, m in conds):
                    raise RealizationBug("energy %d, shift %s: a nullspace "
                                         "vector is not singular" % (d, delta))
                found.append((d, delta, vec))
    return found
