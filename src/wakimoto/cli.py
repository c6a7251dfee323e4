"""Command-line interface: every computation as a subcommand with JSON or
text output, plus golden-file generation for the test corpus.

Exit codes: 0 success, 1 verification failure, 2 usage/domain error,
3 internal error (a bug in the package).
"""

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import admissible, modes, relaxed, weylpoly
from .errors import WakimotoError
from .rootdata import (Weight, build_root_system, default_weight, frac_str,
                       root_label, weight_to_json)

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


def symbol_label(rs, sym):
    """The label parse_symbol reads back: 'e:a1', 'f:a1+a2', 'h:1'."""
    kind, i = sym
    if kind == "h":
        return "h:%d" % (i + 1)
    return "%s:%s" % (kind, root_label(rs.positive_roots[i]))


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
    """{Weight: mult} as rows sorted by weight; a multiplicity ('ge', n),
    at least n, becomes {"ge": n}."""
    return [{"weight": weight_to_json(w),
             "mult": {"ge": m[1]} if isinstance(m, tuple) else m}
            for w, m in sorted(table.items(), key=lambda wm: wm[0].coords)]


# -- subcommands -----------------------------------------------------------------

def cmd_pi_g(args):
    rs = build_root_system(args.n)
    sym = parse_symbol(rs, args.symbol)
    text = weylpoly.render_weyl(rs, weylpoly.pi_g(rs, sym))
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


# -- verify suites ---------------------------------------------------------------
#
# A suite is a function (args, rs) -> (report fields, failures as JSON), the
# failures None for a suite with no oracle yet.  It looks its check up on the
# check's module when called, so a wrapper set on that module runs.

def _verify_pi_hom(args, rs):
    failures, checks = weylpoly.pi_hom_check(args.n)
    return ({"pairs_checked": checks},
            [[symbol_label(rs, s) for s in pair] for pair in failures])


def _verify_affine_comm(args, rs):
    k = parse_fraction(args.k)
    failures, _ = modes.affine_comm_check(args.n, k, args.D)
    return ({"k": frac_str(k), "D": args.D},
            [{"pair": [symbol_label(rs, s) for s in f["pair"]],
              "m": f["m"], "n": f["n"], "top": f["top"],
              "vector": [[list(key), e] for key, e in f["vector"]]}
             for f in failures])


def _verify_zhu_diagram(args, rs):
    lam = parse_weight(rs, args.lam) if args.lam else default_weight(rs)
    k = parse_fraction(args.k) if args.k else Fraction(1, 2)
    failures = modes.top_component_check(args.n, lam, k)
    return ({"k": frac_str(k), "lambda": weight_to_json(lam)},
            [{"top": f["top"], "sym": symbol_label(rs, f["sym"]),
              "exps": list(f["exps"])} for f in failures])


def _verify_singular(args, rs):
    k = parse_fraction(args.k)
    lam = parse_weight(rs, args.lam)
    found = relaxed.find_singular_vectors(rs, lam, k, args.D)
    return ({"k": frac_str(k), "lambda": weight_to_json(lam), "D": args.D,
             "singular_vectors": [{"energy": d, "shift": list(delta),
                                   "terms": len(v)}
                                  for d, delta, v in found]}, None)


def _verify_characters(args, rs):
    fields = {}
    if args.k is not None:
        fields["k"] = frac_str(parse_fraction(args.k))
    lam = parse_weight(rs, args.lam) if args.lam else default_weight(rs)
    top = args.top.upper() if args.top else "V"
    if top not in ("V", "GT"):
        raise WakimotoError("--top must be V or GT")
    ai = None
    if top == "GT":
        ai = parse_root(rs, args.alpha) if args.alpha else rs.simple_indices[0]
        fields["alpha"] = root_label(rs.positive_roots[ai])
    elif args.alpha:
        raise WakimotoError("--alpha needs --top GT")
    a = relaxed.character_relaxed_verma(rs, lam, ai, args.D, args.window)
    b = relaxed.character_relaxed_wakimoto(rs, lam, ai, args.D, args.window)
    fields.update({"top": top, "lambda": weight_to_json(lam), "D": args.D,
                   "entries": len(a)})
    keys = sorted((kk for kk in set(a) | set(b) if a.get(kk) != b.get(kk)),
                  key=lambda kk: (kk[1], kk[0].coords))
    return fields, [{"weight": weight_to_json(kk[0]), "degree": kk[1]}
                    for kk in keys]


_D3 = ("-D", {"type": int, "default": 3})

# The verify suites, in the order `verify -h` lists them: name, help, the
# options after -n and --format, and the suite function.
SUITES = (
    ("pi-hom", "pi_g preserves brackets", (), _verify_pi_hom),
    ("affine-comm", "mode commutators of the affine realization",
     (_D3, ("-k", {"required": True})), _verify_affine_comm),
    ("zhu-diagram", "zero modes on the top agree with pi_g",
     (("-k", {}), ("--lam", {})), _verify_zhu_diagram),
    ("singular", "singular vectors up to energy D",
     (_D3, ("-k", {"required": True}), ("--lam", {"required": True})),
     _verify_singular),
    ("characters", "PBW and free-field mode families give one character "
                   "over one top count (whose oracle is in "
                   "tests/test_weylpoly.py)",
     (_D3, ("--window", {"type": int, "default": 6}),
      ("-k", {"help": "echoed in the report; the characters do not depend "
                      "on the level"}),
      ("--lam", {}), ("--alpha", {}), ("--top", {})), _verify_characters),
)


def cmd_verify(args):
    """Run one suite.  The report is {"suite", "n"}, the suite's fields, and
    its failures and "ok", except for a suite with no oracle yet (failures
    None); exit 1 if any check failed."""
    fields, failures = args.run(args, build_root_system(args.n))
    report = {"suite": args.suite, "n": args.n, **fields}
    if failures is None:
        text = json.dumps(report, sort_keys=True)
    else:
        report.update(failures=failures, ok=not failures)
        text = "FAIL: %r" % (failures,) if failures else "ok"
    emit(args, report, text)
    return 1 if failures else 0


def cmd_omega(args):
    lvl = admissible.level_from_pq(args.n, args.p, args.q)
    sigma = parse_sigma(args.sigma, args.n)
    th = admissible.omega_theorem(sigma, lvl)
    dr = admissible.omega_direct(sigma, lvl)
    certs = admissible.omega_certificates(sigma, lvl, dr)
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
    lvl = admissible.level_from_pq(args.n, args.p, args.q)
    weights = admissible.pr_k_bar(lvl)
    classes = admissible.pr_k_classes(lvl, weights)
    payload = {
        "level": {"n": lvl.n, "p": lvl.p, "q": lvl.q, "k": frac_str(lvl.k)},
        "weights": [weight_to_json(w) for w in weights],
        "classes": [[weight_to_json(w) for w in cls] for cls in classes],
    }
    emit(args, payload, json.dumps(payload["weights"]))
    return 0


def orbit_rows(n):
    """admissible.orbit_table(n) as JSON rows, with list partitions."""
    return [{"partition": list(r["partition"]), "dim": r["dim"],
             "labels": r["labels"], "covers": [list(c) for c in r["covers"]]}
            for r in admissible.orbit_table(n)]


def cmd_orbits(args):
    rows = orbit_rows(args.n)
    emit(args, {"n": args.n, "orbits": rows},
         "\n".join("%-12s dim %3d  %s" % (r["partition"], r["dim"],
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
        symbol_label(rs2, sym): weylpoly.render_weyl(rs2,
                                                     weylpoly.pi_g(rs2, sym))
        for sym in (("e", 0), ("h", 0), ("f", 0))}
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
    out["orbits_n4"] = orbit_rows(4)
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

class _Parser(argparse.ArgumentParser):
    """Reports a parse error as a WakimotoError, so that it prints as one
    `error:` line like every other usage error; sub-parsers inherit it."""

    def error(self, message):
        raise WakimotoError("%s: %s" % (self.prog, message))


def build_parser():
    ap = _Parser(prog="wakimoto",
                 description="free-field realizations and "
                             "admissible weights for sl_n")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-n", type=int, required=True)
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("pi-g", help="print pi_g of a Chevalley element")
    common(p)
    p.add_argument("symbol")
    p.set_defaults(func=cmd_pi_g)

    p = sub.add_parser("pq-polys", help="p/q polynomials of a simple root")
    common(p)
    p.add_argument("--gamma", required=True)
    p.set_defaults(func=cmd_pq_polys)

    p = sub.add_parser("twist-char", help="character of T_alpha M(lambda)")
    common(p)
    p.add_argument("--window", type=int, default=6)
    p.add_argument("--lam", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--kcap", type=int, default=weylpoly.KCAP)
    p.set_defaults(func=cmd_twist_char)

    p = sub.add_parser(
        "gamma-mult", help="Gamma_alpha multiplicities",
        description="Eigenvalue multiplicities of c_alpha on a space of "
                    "mu-weight Fock monomials that c_alpha maps into "
                    "itself: the whole weight space for a simple alpha "
                    "(-D is not used), total degree <= D for theta, and "
                    "degree without the x_alpha exponent <= D for any "
                    "other alpha.")
    common(p)
    p.add_argument("-D", type=int, default=4)
    p.add_argument("--lam", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--mu", required=True)
    p.set_defaults(func=cmd_gamma_mult)

    p = sub.add_parser("ff-field", help="free-field current of an element")
    common(p)
    p.add_argument("-k")
    p.add_argument("symbol")
    p.set_defaults(func=cmd_ff_field)

    p = sub.add_parser("verify", help="verification suites")
    p.set_defaults(func=cmd_verify)
    suites = p.add_subparsers(dest="suite", required=True)
    for name, help_text, options, run in SUITES:
        s = suites.add_parser(name, help=help_text)
        common(s)
        for flag, kwargs in options:
            s.add_argument(flag, **kwargs)
        s.set_defaults(run=run)

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


# The largest -n of any command.  Every command builds RootSystem(n) before
# its own guard runs, n(n-1)/2 root tuples of n-1 ints: on a 2-core box
# `richardson -n 64 --sigma 1` takes 0.19 s and 17 MB, `-n 200` 0.9 s and
# 50 MB, and `-n 400` 3.6 s and 275 MB.  Above every n that a guarded
# command admits: `orbits` runs up to n = 32 (admissible.MAX_PARTITIONS),
# and `verify characters -D 0 --window 1` up to n = 14
# (weylpoly.MAX_TOP_WORK).
MAX_N = 64


def _check_ranges(args):
    """Bounds that the argparse int types leave open; the window radius is
    checked by the character code itself."""
    if getattr(args, "n", 0) > MAX_N:
        raise WakimotoError("-n must be <= %d" % MAX_N)
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
        _check_ranges(args)
        return args.func(args)
    except SystemExit as e:  # -h printed the help
        return e.code or 0
    except WakimotoError as e:
        print("error: %s" % (e,), file=sys.stderr)
        return 2
    except Exception as e:  # anything else is a bug, not a usage error
        print("internal error: %s: %s" % (type(e).__name__, e),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
