"""The benchmark's three workloads: lists of `wakimoto` commands built from a
seed.

Each command carries the check its output must pass:

- "ok": a verify suite reporting `"ok": true`;
- "oracle": `omega`, whose built-in oracle must agree;
- "none": a `verify singular` point expected to have no singular vectors;
- "expected": stdout byte-identical to `expected/<label>.json`, recorded by
  `record_expected.py`, for commands with no built-in oracle.

Self-checking commands draw their level and weight from a pool of points of
equal size (same n, D and window); the seed picks which.  Seed 0 picks the
first entries of each pool.  Commands checked against recorded output keep
fixed inputs.  See README.md for why each workload was chosen.
"""

import random

# verify affine-comm, sl2 at D=2 (three levels per run) and sl3 at D=0.
AFFINE_SL2 = [["-k", k] for k in
              ("1/2", "-1/2", "-4/3", "3/2", "-3/2", "2/3", "-2/3", "4/3",
               "1/3", "-1/3", "5/2", "-5/2")]
AFFINE_SL3 = [["-k", k] for k in ("-3/2", "1/2", "-1/2", "3/2", "-4/3", "2/3")]

# verify singular at points expected to have no singular vectors.  The sl2
# points all have k in thirds and lambda in fifths, so their fractions are of
# one size.  At lambda = (1/3, 1) the sl3 check costs a quarter more than at
# lambda = 0, so that pool keeps lambda = 0.
SINGULAR_SL2 = [["-k", k, "--lam", lam] for k, lam in
                (("7/3", "1/5"), ("5/3", "2/5"), ("10/3", "3/5"),
                 ("11/3", "4/5"), ("8/3", "1/5"), ("13/3", "2/5"),
                 ("14/3", "3/5"), ("16/3", "4/5"))]
SINGULAR_SL3 = [["-k", k, "--lam", "0,0"] for k in
                ("-3/2", "1/2", "-1/2", "3/2", "-4/3", "2/3")]

# finite-mix: verify characters (both tops), verify zhu-diagram and omega.
CHAR_V = [["-k", "-3/2"]] + [["-k", k, "--lam", lam] for k, lam in
                             (("-1/2", "1/3,1"), ("1/2", "1/3,1"),
                              ("3/2", "1/3,1"), ("-3/2", "2/3,1/3"),
                              ("-1/2", "2/3,1/3"), ("1/2", "2/3,1/3"),
                              ("3/2", "2/3,1/3"))]
# At lambda = (2/3, 1/3) the GT-top check is a quarter cheaper, so this pool
# keeps the default lambda = (1/3, 1).
CHAR_GT = [["-k", k] for k in ("-3/2", "-1/2", "1/2", "3/2")]
ZHU = [[]] + [["-k", k, "--lam", lam] for k, lam in
              (("-1/2", "1/3,1"), ("3/2", "1/3,1"), ("-3/2", "1/3,1"),
               ("1/2", "2/3,1/3"), ("-1/2", "2/3,1/3"), ("3/2", "2/3,1/3"),
               ("-3/2", "2/3,1/3"))]
# sigma = {2} is a quarter cheaper than the mirror pair {1}, {3}.
OMEGA_SIGMA = [["--sigma", s] for s in ("1", "3")]


class Command:
    def __init__(self, argv, check, label=None):
        self.argv = list(argv)
        self.check = check
        self.label = label

    def __repr__(self):
        return " ".join(self.argv)


def _fixed(label, *argv):
    return Command(argv, "expected", label)


def build(name, seed):
    """The command list of workload `name` for `seed`."""
    rng = random.Random(seed)

    def pick(pool, count=1):
        return pool[:count] if seed == 0 else rng.sample(pool, count)

    if name == "affine-comm":
        return ([Command(["verify", "affine-comm", "-n", "2", *k, "-D", "2"],
                         "ok") for k in pick(AFFINE_SL2, 3)]
                + [Command(["verify", "affine-comm", "-n", "3", *k, "-D", "0"],
                           "ok") for k in pick(AFFINE_SL3)])
    if name == "singular":
        return ([_fixed("singular_sl2_vacuum", "verify", "singular",
                        "-n", "2", "-k", "-1/2", "--lam", "0", "-D", "4")]
                + [Command(["verify", "singular", "-n", "2", *p, "-D", "4"],
                           "none") for p in pick(SINGULAR_SL2, 2)]
                + [Command(["verify", "singular", "-n", "3", *p, "-D", "1"],
                           "none") for p in pick(SINGULAR_SL3)])
    if name == "finite-mix":
        (char_v,), (char_gt,), (zhu,), (sigma,) = (
            pick(CHAR_V), pick(CHAR_GT), pick(ZHU), pick(OMEGA_SIGMA))
        return [
            Command(["verify", "pi-hom", "-n", "3"], "ok"),
            Command(["verify", "characters", "-n", "3", *char_v, "-D", "4"],
                    "ok"),
            Command(["verify", "characters", "-n", "3", *char_gt, "--top",
                     "GT", "--alpha", "theta", "-D", "2", "--window", "5"],
                    "ok"),
            _fixed("gamma_mult", "gamma-mult", "-n", "3", "--lam", "1/3,2",
                   "--alpha", "theta", "--mu", "1/3,2", "-D", "16"),
            _fixed("prk", "prk", "-n", "4", "-p", "5", "-q", "4"),
            Command(["omega", "-n", "4", "-p", "5", "-q", "4", *sigma],
                    "oracle"),
            _fixed("twist_char", "twist-char", "-n", "3", "--lam", "1/3,2",
                   "--alpha", "theta", "--window", "6"),
            Command(["verify", "zhu-diagram", "-n", "3", *zhu], "ok"),
            _fixed("ff_field", "ff-field", "-n", "3", "-k", "-3/2", "e:a1"),
            _fixed("pi_g", "pi-g", "-n", "5", "e:theta"),
            _fixed("orbits", "orbits", "-n", "8"),
            _fixed("richardson", "richardson", "-n", "6", "--sigma", "1,3,5"),
            _fixed("pq_polys", "pq-polys", "-n", "4", "--gamma", "a2"),
        ]
    raise KeyError(name)


NAMES = ("affine-comm", "singular", "finite-mix")
