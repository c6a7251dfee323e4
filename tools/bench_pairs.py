"""Benchmark a change against a parent commit in alternating pairs of runs.

    python3 tools/bench_pairs.py --parent REV --workload W --seed S \
        --pairs N --out BENCH_<n>.json

Run from the root of a checkout.  REV is extracted with `git archive` into
a temporary directory; the change is the working tree.  Each pair runs
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0` once
in each tree, T being BENCHMARK.json's run_seconds; odd pairs run the parent
first, even pairs the change first.  Each tree runs its own perfbench, so a
change that alters perfbench/ is not measured with identical code.  Both
sides load bytecode: perfbench/run.py byte-compiles its tree's
src/wakimoto with compileall before its first command, and compileall
writes the .pyc files even under PYTHONDONTWRITEBYTECODE=1, so the fresh
parent tree and the working tree both hold src/wakimoto/__pycache__ from
the first run on.

The result line of every run (the last stdout line) is kept.  The set, named
W-seedS, is appended to --out, or to a new file of the same schema:

- "what" and "command": how the runs were made;
- "summary": per set, for each end-to-end metric of BENCHMARK.json, the
  median and the quartiles (inclusive method) of each side, and the number
  of pairs in which the change is better (ties count for neither side), and
  the operations failed over all runs;
- "runs": one record per run, in the order run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

COMMAND = ("python3 perfbench/run.py --workload W --seed S --seconds %s "
           "--trace 0")
WHAT = ("perfbench/run.py --trace 0 result lines (last stdout line), a parent "
        "commit (a git archive) against the change (the working tree), in "
        "alternating pairs: odd pairs run the parent first, even pairs the "
        "change first.  Summary medians and quartiles (inclusive method) over "
        "the pairs; change_better_pairs counts the pairs in which the change "
        "is better, ties counting for neither side; sets in the order run.")


def run_once(tree, workload, seed, seconds):
    """The result line of one run of the tree's perfbench/run.py."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit("perfbench/run.py in %s exited %d: %s"
                         % (tree, proc.returncode, proc.stderr.strip()))
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) == 1:    # statistics.quantiles needs two
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(name, workload, seed, runs, metrics):
    """The summary of one set: runs are the set's run records, metrics the
    end-to-end metrics of BENCHMARK.json ({"name", "better", ...})."""
    pairs = sorted({r["pair"] for r in runs})
    side = {(r["pair"], r["side"]): r["result"] for r in runs}
    out = {}
    for metric in metrics:
        key = metric["name"]
        sign = 1 if metric["better"] == "lower" else -1
        values = {s: [side[(p, s)]["metrics"][key]["value"] for p in pairs]
                  for s in ("parent", "change")}
        row = {}
        for s in ("parent", "change"):
            q1, q3 = quartiles(values[s])
            row[s + "_median"] = round(statistics.median(values[s]), 4)
            row[s + "_q1"] = round(q1, 4)
            row[s + "_q3"] = round(q3, 4)
        row["change_better_pairs"] = sum(
            1 for p, c in zip(values["parent"], values["change"])
            if sign * c < sign * p)
        out[key] = row
    return {"set": name, "workload": workload, "seed": seed,
            "pairs": len(pairs), "metrics": out,
            "failed": sum(r["result"]["failed"] for r in runs)}


def extract(rev, dest):
    """Extract the files of commit rev into dest with git archive."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryFile() as fh:
        fh.write(archive)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(dest)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    rev = subprocess.run(["git", "rev-parse", "--short", args.parent],
                         capture_output=True, text=True,
                         check=True).stdout.strip()
    name = "%s-seed%d" % (args.workload, args.seed)
    runs = []
    with tempfile.TemporaryDirectory() as parent_tree:
        extract(rev, parent_tree)
        trees = {"parent": parent_tree, "change": os.getcwd()}
        for pair in range(1, args.pairs + 1):
            order = (("parent", "change") if pair % 2
                     else ("change", "parent"))
            for s in order:
                result = run_once(trees[s], args.workload, args.seed, seconds)
                runs.append({"set": name, "workload": args.workload,
                             "seed": args.seed, "pair": pair, "side": s,
                             "first_in_pair": order[0], "result": result})
                print(json.dumps(runs[-1]), flush=True)

    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    else:
        doc = {"what": WHAT, "command": COMMAND % seconds, "summary": [],
               "runs": []}
    summary = summarize(name, args.workload, args.seed, runs,
                        bench["end_to_end"])
    summary["parent"] = rev
    doc["summary"].append(summary)
    doc["runs"].extend(runs)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
