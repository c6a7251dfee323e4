"""Command-line interface: every computation as a subcommand with JSON or
text output, plus golden-file generation for the test corpus.

Exit codes: 0 success, 1 verification failure, 2 usage/domain error,
3 internal error (a bug in the package).
"""

import argparse
import json
import sys
from fractions import Fraction

from . import admissible, modes, relaxed, weylpoly
from .errors import WakimotoError
from .liealg import LieElement
from .rootdata import (Weight, build_root_system, frac_str, root_label,
                       weight_to_json)

SCHEMA_VERSION = 1


def parse_fraction(s):
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise WakimotoError("cannot parse rational %r" % (s,))


def parse_weight(rs, s):
    parts = [p for p in s.split(",") if p != ""]
    if len(parts) != rs.rank:
        raise WakimotoError("weight needs %d coordinates" % rs.rank)
    return Weight(tuple(parse_fraction(p) for p in parts))


def parse_root(rs, s):
    """Positive-root index from a label like 'a1', 'a1+a2', or 'theta'."""
    if s == "theta":
        return rs.root_index[(1,) * rs.rank]
    coeffs = [0] * rs.rank
    for tok in s.split("+"):
        tok = tok.strip()
        if not tok.startswith("a"):
            raise WakimotoError("bad root label %r" % (s,))
        try:
            i = int(tok[1:])
        except ValueError:
            raise WakimotoError("bad root label %r" % (s,))
        if not 1 <= i <= rs.rank:
            raise WakimotoError("simple index out of range in %r" % (s,))
        coeffs[i - 1] += 1
    key = tuple(coeffs)
    if key not in rs.root_index:
        raise WakimotoError("%r is not a positive root" % (s,))
    return rs.root_index[key]


def _parse_index(s, what):
    try:
        return int(s)
    except ValueError:
        raise WakimotoError("%s must be an integer, got %r" % (what, s))


def parse_symbol(rs, s):
    """Chevalley symbol from 'e:a1', 'f:a1+a2', 'h:1'."""
    if ":" not in s:
        raise WakimotoError("symbol must look like e:a1 / f:a1+a2 / h:1")
    kind, rest = s.split(":", 1)
    if kind == "h":
        i = _parse_index(rest, "Cartan index")
        if not 1 <= i <= rs.rank:
            raise WakimotoError("Cartan index out of range")
        return ("h", i - 1)
    if kind not in ("e", "f"):
        raise WakimotoError("symbol kind must be e, f, or h")
    return (kind, parse_root(rs, rest))


def parse_sigma(s, n):
    if not s:
        return set()
    out = set()
    for tok in s.split(","):
        i = _parse_index(tok, "sigma index")
        if not 1 <= i <= n - 1:
            raise WakimotoError("sigma index out of range")
        out.add(i)
    return out


def emit(args, payload, text):
    if getattr(args, "format", "json") == "text":
        print(text)
    else:
        payload = {"schema_version": SCHEMA_VERSION, **payload}
        print(json.dumps(payload, indent=2, sort_keys=True))


def character_to_json(table):
    rows = []

    def keyfn(kv):
        if isinstance(kv, Weight):
            return (0, kv.coords)
        return (kv[1], kv[0].coords)

    for key in sorted(table, key=keyfn):
        mult = table[key]
        if isinstance(key, Weight):
            row = {"weight": weight_to_json(key)}
        else:
            row = {"weight": weight_to_json(key[0]), "degree": key[1]}
        if isinstance(mult, tuple):
            row["mult"] = {"ge": mult[1]}
        else:
            row["mult"] = mult
        rows.append(row)
    return rows


# -- subcommands -----------------------------------------------------------------

def cmd_pi_g(args):
    rs = build_root_system(args.n)
    sym = parse_symbol(rs, args.symbol)
    w = weylpoly.pi_g(LieElement.basis(rs, sym))
    text = weylpoly.render_weyl(w)
    emit(args, {"n": args.n, "symbol": args.symbol, "pi_g": text}, text)
    return 0


def cmd_pq_polys(args):
    rs = build_root_system(args.n)
    gi = parse_root(rs, args.gamma)
    p_map, q_map = weylpoly.pq_polynomials(rs, gi)

    def poly_json(p):
        return [{"exps": list(e), "coeff": frac_str(c)}
                for e, c in sorted(p.items())]

    payload = {
        "n": args.n, "gamma": args.gamma,
        "p": {root_label(rs.positive_roots[a]): poly_json(p)
              for a, p in sorted(p_map.items())},
        "q": {root_label(rs.positive_roots[a]): poly_json(p)
              for a, p in sorted(q_map.items())},
    }
    emit(args, payload, json.dumps(payload, sort_keys=True))
    return 0


def cmd_twist_char(args):
    rs = build_root_system(args.n)
    lam = parse_weight(rs, args.lam)
    ai = parse_root(rs, args.alpha)
    table = weylpoly.twist_character(rs, lam, ai, args.window, kcap=args.kcap)
    rows = character_to_json(table)
    emit(args, {"n": args.n, "lambda": weight_to_json(lam),
                "alpha": args.alpha, "radius": args.window,
                "character": rows}, json.dumps(rows))
    return 0


def cmd_gamma_mult(args):
    rs = build_root_system(args.n)
    lam = parse_weight(rs, args.lam)
    ai = parse_root(rs, args.alpha)
    mu = parse_weight(rs, args.mu)
    mult = weylpoly.gamma_alpha_multiplicity(rs, lam, ai, mu, args.D)
    rows = [{"eigenvalue": frac_str(ev), "mult": m}
            for ev, m in sorted(mult.items())]
    emit(args, {"n": args.n, "lambda": weight_to_json(lam),
                "alpha": args.alpha, "mu": weight_to_json(mu), "D": args.D,
                "multiplicities": rows}, json.dumps(rows))
    return 0


def cmd_ff_field(args):
    if args.k is None:
        raise WakimotoError("ff-field needs -k")
    rs = build_root_system(args.n)
    k = parse_fraction(args.k)
    sym = parse_symbol(rs, args.symbol)
    F = modes.pi_field(rs, sym, k)
    text = modes.render_field(F)
    emit(args, {"n": args.n, "k": frac_str(k), "symbol": args.symbol,
                "field": text}, text)
    return 0


def cmd_verify(args):
    suite = args.suite
    report = {"suite": suite, "n": args.n}
    failures = []
    if suite == "pi-hom":
        failures = weylpoly.verify_pi_hom(args.n)
        report["pairs_checked"] = (2 * (args.n * (args.n - 1) // 2)
                                   + args.n - 1) ** 2
    elif suite == "affine-comm":
        k = parse_fraction(args.k)
        failures = modes.verify_affine_comm(args.n, k, args.D)
        report["k"] = frac_str(k)
        report["D"] = args.D
    elif suite == "zhu-diagram":
        rs = build_root_system(args.n)
        lam = (parse_weight(rs, args.lam) if args.lam
               else Weight(tuple(Fraction(2 * i + 1, 3)
                                 for i in range(rs.rank))))
        k = parse_fraction(args.k) if args.k else Fraction(1, 2)
        failures = relaxed.top_component_check(args.n, lam, k)
        report["k"] = frac_str(k)
        report["lambda"] = weight_to_json(lam)
    elif suite == "characters":
        if args.k is not None:
            report["k"] = frac_str(parse_fraction(args.k))
        rs = build_root_system(args.n)
        lam = (parse_weight(rs, args.lam) if args.lam
               else Weight(tuple(Fraction(2 * i + 1, 3)
                                 for i in range(rs.rank))))
        top = args.top.upper() if args.top else "V"
        if top not in ("V", "GT"):
            raise WakimotoError("--top must be V or GT")
        ai = parse_root(rs, args.alpha) if args.alpha else (
            rs.simple_indices[0] if top == "GT" else None)
        a = relaxed.character_relaxed_verma(rs, top, lam, ai, args.D,
                                            args.window)
        b = relaxed.character_relaxed_wakimoto(rs, top, lam, ai, args.D,
                                               args.window)
        report.update({"top": top, "D": args.D, "entries": len(a)})
        if a != b:
            keys = {kk for kk in set(a) | set(b)
                    if a.get(kk) != b.get(kk)}
            failures = [{"weight": weight_to_json(kk[0]), "degree": kk[1]}
                        for kk in sorted(keys, key=lambda x: (x[1], x[0].coords))]
    else:  # singular
        rs = build_root_system(args.n)
        k = parse_fraction(args.k)
        lam = parse_weight(rs, args.lam)
        found = relaxed.find_singular_vectors(rs, lam, k, args.D)
        report.update({"k": frac_str(k), "lambda": weight_to_json(lam),
                       "D": args.D,
                       "singular_vectors": [
                           {"energy": d, "shift": list(delta),
                            "terms": len(v)} for d, delta, v in found]})
        emit(args, report, json.dumps(report, sort_keys=True))
        return 0
    report["failures"] = [repr(f) for f in failures]
    report["ok"] = not failures
    emit(args, report, "ok" if not failures else "FAIL: %r" % (failures,))
    return 0 if not failures else 1


def _level(args):
    lvl = admissible.level_from_pq(args.n, args.p, args.q)
    if isinstance(lvl, tuple):
        raise WakimotoError("level not admissible: %s" % (lvl[1],))
    return lvl


def cmd_omega(args):
    lvl = _level(args)
    sigma = parse_sigma(args.sigma, args.n)
    th = admissible.omega_theorem(sigma, lvl)
    dr = admissible.omega_direct(sigma, lvl)
    certs = admissible.omega_certificates(sigma, lvl)
    payload = {
        "level": {"n": lvl.n, "p": lvl.p, "q": lvl.q, "k": frac_str(lvl.k)},
        "sigma": sorted(sigma),
        "omega": [weight_to_json(w) for w in th],
        "oracle_agrees": th == dr,
        "certificates": [{"lambda": weight_to_json(c["lambda"]),
                          "alpha": root_label(c["alpha"])} for c in certs],
    }
    emit(args, payload, json.dumps(payload["omega"]))
    return 0 if th == dr else 1


def cmd_prk(args):
    lvl = _level(args)
    weights = admissible.pr_k_bar(lvl)
    classes = admissible.pr_k_classes(lvl)
    payload = {
        "level": {"n": lvl.n, "p": lvl.p, "q": lvl.q, "k": frac_str(lvl.k)},
        "weights": [weight_to_json(w) for w in weights],
        "classes": [[weight_to_json(w) for w in cls] for cls in classes],
    }
    emit(args, payload, json.dumps(payload["weights"]))
    return 0


def cmd_orbits(args):
    rows = admissible.orbit_table(args.n)
    payload = {"n": args.n, "orbits": [
        {"partition": list(r["partition"]), "dim": r["dim"],
         "labels": r["labels"], "covers": [list(c) for c in r["covers"]]}
        for r in rows]}
    emit(args, payload,
         "\n".join("%-12s dim %3d  %s" % (list(r["partition"]), r["dim"],
                                          ",".join(r["labels"]))
                   for r in rows))
    return 0


def cmd_richardson(args):
    sigma = parse_sigma(args.sigma, args.n)
    part = admissible.richardson(sigma, args.n)
    payload = {"n": args.n, "sigma": sorted(sigma),
               "partition": list(part), "dim": admissible.orbit_dim(part)}
    emit(args, payload, "%s dim %d" % (list(part), payload["dim"]))
    return 0


# -- golden files ----------------------------------------------------------------

def golden_payloads():
    """Deterministic snapshots of the anchored examples."""
    rs2 = build_root_system(2)
    out = {}
    out["pi_g_sl2"] = {
        "e:a1": weylpoly.render_weyl(weylpoly.pi_g(LieElement.basis(rs2, ("e", 0)))),
        "h:1": weylpoly.render_weyl(weylpoly.pi_g(LieElement.basis(rs2, ("h", 0)))),
        "f:a1": weylpoly.render_weyl(weylpoly.pi_g(LieElement.basis(rs2, ("f", 0)))),
    }
    lvl = admissible.level_from_pq(2, 3, 2)
    out["prk_n2_p3_q2"] = [weight_to_json(w) for w in admissible.pr_k_bar(lvl)]
    out["omega_n2_p3_q2"] = {
        "sigma_empty": [weight_to_json(w)
                        for w in admissible.omega_direct(set(), lvl)],
        "sigma_1": [weight_to_json(w)
                    for w in admissible.omega_direct({1}, lvl)],
    }
    lvl1 = admissible.level_from_pq(2, 2, 1)
    out["omega_n2_p2_q1_empty"] = [weight_to_json(w)
                                   for w in admissible.omega_direct(set(), lvl1)]
    out["orbits_n4"] = [
        {"partition": list(r["partition"]), "dim": r["dim"],
         "labels": r["labels"], "covers": [list(c) for c in r["covers"]]}
        for r in admissible.orbit_table(4)]
    out["richardson_sl4_13"] = {
        "partition": list(admissible.richardson({1, 3}, 4)),
        "dim": admissible.orbit_dim(admissible.richardson({1, 3}, 4)),
    }
    out["orbit_q_4_3"] = list(admissible.orbit_q(4, 3))
    lam = Weight((Fraction(0),))
    sing = relaxed.find_singular_vectors(rs2, lam, Fraction(-1, 2), 4)
    out["singular_sl2_vacuum"] = [{"energy": d, "shift": list(delta)}
                                  for d, delta, v in sing]
    return out


def cmd_golden(args):
    import os

    payloads = golden_payloads()
    if args.write:
        os.makedirs(args.dir, exist_ok=True)
        for name, payload in payloads.items():
            path = os.path.join(args.dir, name + ".json")
            with open(path, "w") as fh:
                json.dump({"schema_version": SCHEMA_VERSION, "data": payload},
                          fh, indent=2, sort_keys=True)
                fh.write("\n")
        print("wrote %d golden files to %s" % (len(payloads), args.dir))
        return 0
    bad = []
    for name, payload in payloads.items():
        path = os.path.join(args.dir, name + ".json")
        try:
            with open(path) as fh:
                stored = json.load(fh)
        except FileNotFoundError:
            bad.append(name + " (missing)")
            continue
        if stored.get("data") != json.loads(json.dumps(payload)):
            bad.append(name)
    if bad:
        print("golden mismatches: %s" % ", ".join(bad))
        return 1
    print("golden ok (%d files)" % len(payloads))
    return 0


# -- parser ----------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(prog="wakimoto",
                                 description="free-field realizations and "
                                             "admissible weights for sl_n")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, k=False, D=None, window=None):
        p.add_argument("-n", type=int, required=True)
        p.add_argument("--format", choices=("json", "text"), default="json")
        if k:
            p.add_argument("-k", type=str, default=None)
        if D is not None:
            p.add_argument("-D", type=int, default=D)
        if window is not None:
            p.add_argument("--window", type=int, default=window)

    p = sub.add_parser("pi-g", help="print pi_g of a Chevalley element")
    common(p)
    p.add_argument("symbol")
    p.set_defaults(func=cmd_pi_g)

    p = sub.add_parser("pq-polys", help="p/q polynomials of a simple root")
    common(p)
    p.add_argument("--gamma", required=True)
    p.set_defaults(func=cmd_pq_polys)

    p = sub.add_parser("twist-char", help="character of T_alpha M(lambda)")
    common(p, window=6)
    p.add_argument("--lam", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--kcap", type=int, default=60)
    p.set_defaults(func=cmd_twist_char)

    p = sub.add_parser("gamma-mult", help="Gamma_alpha multiplicities")
    common(p, D=4)
    p.add_argument("--lam", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--mu", required=True)
    p.set_defaults(func=cmd_gamma_mult)

    p = sub.add_parser("ff-field", help="free-field current of an element")
    common(p, k=True)
    p.add_argument("symbol")
    p.set_defaults(func=cmd_ff_field)

    p = sub.add_parser("verify", help="verification suites")
    p.set_defaults(func=cmd_verify)
    suites = p.add_subparsers(dest="suite", required=True)
    s = suites.add_parser("pi-hom", help="pi_g preserves brackets")
    common(s)
    s = suites.add_parser("affine-comm",
                          help="mode commutators of the affine realization")
    common(s, D=3)
    s.add_argument("-k", required=True)
    s = suites.add_parser("zhu-diagram",
                          help="zero modes on the top agree with pi_g")
    common(s, k=True)
    s.add_argument("--lam", default=None)
    s = suites.add_parser("singular", help="singular vectors up to energy D")
    common(s, D=3)
    s.add_argument("-k", required=True)
    s.add_argument("--lam", required=True)
    s = suites.add_parser("characters",
                          help="relaxed Verma and relaxed Wakimoto "
                               "characters agree")
    common(s, D=3, window=6)
    s.add_argument("-k", default=None,
                   help="echoed in the report; the characters do not "
                        "depend on the level")
    s.add_argument("--lam", default=None)
    s.add_argument("--alpha", default=None)
    s.add_argument("--top", default=None)

    for name, fn in (("omega", cmd_omega), ("prk", cmd_prk)):
        p = sub.add_parser(name)
        common(p)
        p.add_argument("-p", type=int, required=True)
        p.add_argument("-q", type=int, required=True)
        if name == "omega":
            p.add_argument("--sigma", default="")
        p.set_defaults(func=fn)

    p = sub.add_parser("orbits", help="nilpotent orbit table")
    common(p)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("richardson", help="Richardson orbit of p_Sigma")
    common(p)
    p.add_argument("--sigma", default="")
    p.set_defaults(func=cmd_richardson)

    p = sub.add_parser("golden", help="check or regenerate golden files")
    p.add_argument("dir", nargs="?", default="tests/golden")
    p.add_argument("--write", action="store_true")
    p.set_defaults(func=cmd_golden)

    return ap


_RATIONAL_OPTS = {"-k", "--lam", "--mu"}


def _merge_negative_values(argv):
    """Let `-k -1/2` parse: argparse would read the value as an option."""
    import re

    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok in _RATIONAL_OPTS and i + 1 < len(argv)
                and re.fullmatch(r"-[\d/,.\-]+", argv[i + 1])):
            out.append(tok + "=" + argv[i + 1])
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _check_ranges(args):
    """Bounds that the argparse int types leave open; the window radius is
    checked by the character code itself."""
    if getattr(args, "D", 0) < 0:
        raise WakimotoError("-D must be >= 0")
    if getattr(args, "kcap", 1) < 1:
        raise WakimotoError("--kcap must be >= 1")


def main(argv=None):
    ap = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_negative_values(list(argv))
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        _check_ranges(args)
        return args.func(args)
    except WakimotoError as e:
        print("error: %s" % (e,), file=sys.stderr)
        return 2
    except Exception as e:  # anything else is a bug, not a usage error
        print("internal error: %s: %s" % (type(e).__name__, e),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
