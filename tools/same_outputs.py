"""Run a fixed list of CLI commands at a parent commit and in the working
tree, and report every command whose output differs.

    python3 tools/same_outputs.py --parent REV

Run from the root of a checkout.  REV is extracted with `git archive` into a
temporary directory (the step tools/bench_pairs.py uses).  Each command runs
as `python3 -m wakimoto.cli ...` in a fresh interpreter, in each tree with
that tree's src on PYTHONPATH; the two trees run a command side by side.
Every command whose stdout, stderr or exit code differs is printed with the
parts that differ, then a count; the exit code is 1 if any differs.

The commands (COMMANDS):

- the distinct commands of seeds 0-7 of every workload of
  perfbench/workloads.py;
- `golden tests/golden`;
- `pi-g`, and `ff-field` at k = 1/2 and -3/2, on every symbol of sl2-sl5;
- `pq-polys` for every simple root of sl2-sl6;
- `verify pi-hom` at n = 2-4;
- the gamma-mult sweep: sl2 at D = 8, sl3 at D = 6 and sl4 at D = 4, with
  lambda 0, (1/3, 2/3, ...) and (-1/2, ...), every positive alpha, and mu =
  lambda + sum_i c_i alpha_i for every c in [-2, 2]^rank.
"""

import argparse
import importlib.util
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import product

from bench_pairs import extract

PARTS = ("exit code", "stdout", "stderr")


def _roots(n):
    """The labels of the positive roots of sl_n."""
    return ["+".join("a%d" % t for t in range(i, j))
            for i in range(1, n) for j in range(i + 1, n + 1)]


def _symbols(n):
    return (["%s:%s" % (kind, r) for kind in "ef" for r in _roots(n)]
            + ["h:%d" % i for i in range(1, n)])


def _weight(coords):
    return ",".join(str(c) for c in coords)


def _pool_commands():
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join("perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [cmd.argv for name in workloads.NAMES for seed in range(8)
            for cmd in workloads.build(name, seed)]


def _gamma_sweep():
    out = []
    for n, D in ((2, 8), (3, 6), (4, 4)):
        rank = n - 1
        for lam in ([Fraction(0)] * rank,
                    [Fraction(i, 3) for i in range(1, n)],
                    [Fraction(-1, 2)] * rank):
            for alpha in _roots(n):
                for c in product(range(-2, 3), repeat=rank):
                    # mu = lambda + sum_i c_i alpha_i, through the Cartan
                    # matrix
                    c = (0,) + c + (0,)
                    mu = [x + 2 * c[i] - c[i - 1] - c[i + 1]
                          for i, x in enumerate(lam, 1)]
                    out.append(["gamma-mult", "-n", str(n), "--lam",
                                _weight(lam), "--alpha", alpha, "--mu",
                                _weight(mu), "-D", str(D)])
    return out


def commands():
    """COMMANDS, each an argv list, in order, without repeats."""
    cmds = _pool_commands() + [["golden", "tests/golden"]]
    for n in range(2, 6):
        for sym in _symbols(n):
            cmds.append(["pi-g", "-n", str(n), sym])
            for k in ("1/2", "-3/2"):
                cmds.append(["ff-field", "-n", str(n), "-k", k, sym])
    for n in range(2, 7):
        cmds += [["pq-polys", "-n", str(n), "--gamma", "a%d" % i]
                 for i in range(1, n)]
    cmds += [["verify", "pi-hom", "-n", str(n)] for n in range(2, 5)]
    cmds += _gamma_sweep()
    return [list(c) for c in dict.fromkeys(map(tuple, cmds))]


def run(tree, argv):
    """(exit code, stdout, stderr) of the CLI of tree on argv, run in tree
    by a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, "-m", "wakimoto.cli", *argv],
                          cwd=tree, env=env, capture_output=True, text=True,
                          check=False)
    return proc.returncode, proc.stdout, proc.stderr


def differing(cmds, parent_tree, change_tree, report=print):
    """[(argv, parts)] for the commands whose results differ between the
    trees, parts naming what differs; report(line) is called on each as it
    is found."""
    out = []
    with ThreadPoolExecutor(2) as pool:
        for argv in cmds:
            a, b = pool.map(run, (parent_tree, change_tree), (argv, argv))
            parts = [p for p, x, y in zip(PARTS, a, b) if x != y]
            if parts:
                out.append((argv, parts))
                report("%s: %s differ" % (" ".join(argv), ", ".join(parts)))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    args = ap.parse_args()
    cmds = commands()
    with tempfile.TemporaryDirectory() as parent_tree:
        extract(args.parent, parent_tree)
        found = differing(cmds, parent_tree, os.getcwd())
    print("%d of %d commands differ" % (len(found), len(cmds)))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
