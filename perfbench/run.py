"""Benchmark of the `wakimoto` CLI: fixed workloads of commands, each run as
a user runs it, in a fresh interpreter, one at a time (closed loop, one
client).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is taken from `src/`.  The
workloads are in `workloads.py`, the reasons for them in README.md.

--trace 0 runs passes over the workload's commands for S seconds: at least
one pass, and another only while one as long as the longest so far still
ends within S.  It reports the end-to-end metrics from the per-command
medians.  --trace 1 runs one untraced pass and one pass with
`spans.py` wrapping the package's functions, and reports the per-layer
metrics of the traced pass.  Every command's output is checked either way.

The second-to-last stdout line is a JSON report: machine facts, fail_frac
and per-command times (and span totals when traced).  The last line is the
result: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import compileall
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads
from shim import REPORT_PREFIX
from spans import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
SHIM = os.path.join(HERE, "shim.py")
EXPECTED = os.path.join(HERE, "expected")
# A run must end within 180 s; no command may start a wait beyond this.
RUN_LIMIT_S = 170.0


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def machine_facts():
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "gmpy2": importlib.util.find_spec("gmpy2") is not None,
            "loadavg": list(os.getloadavg())}


def speed_probe():
    """Median seconds of a fixed pure-Python loop.  The host's speed drifts
    by up to half over minutes; this shows how fast it ran beside a run's
    times, and is not used in any metric."""
    times = []
    for _ in range(3):
        t = now()
        x = 0
        for i in range(1000000):
            x = (x * 31 + i) % 1000003
        times.append(now() - t)
    return statistics.median(times)


def check_output(cmd, code, stdout):
    """None if the command's exit code and output are right, else why not."""
    if code != 0:
        return "exit code %d" % code
    if cmd.check == "expected":
        with open(os.path.join(EXPECTED, cmd.label + ".json"), "rb") as fh:
            return None if stdout == fh.read() else "output differs"
    try:
        out = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    if cmd.check == "ok":
        return None if out.get("ok") is True else "not ok"
    if cmd.check == "oracle":
        return None if out.get("oracle_agrees") is True else "oracle disagrees"
    if cmd.check == "none":
        found = out.get("singular_vectors")
        return None if found == [] else "singular vectors: %r" % (found,)
    raise ValueError(cmd.check)


def run_command(env, cmd, trace, deadline):
    """Run one command through the shim; return its measurements."""
    t0 = now()
    proc = subprocess.Popen(
        [sys.executable, SHIM, "1" if trace else "0", *cmd.argv],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=env)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"cmd": repr(cmd), "error": "timed out", "wall_s": now() - t0}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    wall = now() - t0
    _, sep, tail = stderr.decode().rpartition(REPORT_PREFIX)
    if not sep:
        return {"cmd": repr(cmd), "wall_s": wall,
                "error": "no report: " + stderr.decode()[-500:]}
    report = json.loads(tail)
    res = {"cmd": repr(cmd), "wall_s": wall,
           "maxrss_kb": report["maxrss_kb"],
           "out_bytes": len(stdout),
           "trace": report["trace"],
           "error": check_output(cmd, proc.returncode, stdout)}
    if report["setup_end"] is not None:
        res["setup_s"] = report["setup_end"] - t0
    return res


def run_pass(env, cmds, trace, deadline, results):
    """Run every command once; False if the time limit cut the pass short."""
    for cmd in cmds:
        res = run_command(env, cmd, trace, deadline)
        results.append(res)
        status = res["error"] or "ok"
        print("%8.3f s  %-5s %s%s" % (res["wall_s"], status,
                                       "[traced] " if trace else "", cmd),
              file=sys.stderr, flush=True)
        if res["error"] == "timed out":
            return False
    return True


def per_command(results, key):
    """Median of `key` per command, in first-run order."""
    by_cmd = {}
    for r in results:
        if key in r:
            by_cmd.setdefault(r["cmd"], []).append(r[key])
    return {c: statistics.median(v) for c, v in by_cmd.items()}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(results):
    walls = per_command(results, "wall_s")
    setups = per_command(results, "setup_s")
    rss = [r["maxrss_kb"] for r in results if "maxrss_kb" in r]
    return {
        "wall_s": metric(sum(walls.values()), "s"),
        "query_p50_s": metric(statistics.median(walls.values()), "s"),
        "query_max_s": metric(max(walls.values()), "s"),
        "setup_s": metric(sum(setups.values()), "s"),
        "peak_rss_mb": metric(max(rss, default=0) / 1024.0, "MB"),
    }


def per_layer(traced, untraced):
    """Per-layer metrics summed over one traced pass, and the span totals
    by name and by call edge [parent, name, calls, total_s, self_s]."""
    counts, edges, spans = {}, {}, {}
    for r in traced:
        tr = r.get("trace") or {"counts": {}, "edges": []}
        for name, v in tr["counts"].items():
            counts[name] = counts.get(name, 0) + v
        for parent, name, n, total, self_s in tr["edges"]:
            edge = edges.setdefault((parent, name),
                                    [parent, name, 0, 0.0, 0.0])
            edge[2] += n
            edge[3] += total
            edge[4] += self_s
            span = spans.setdefault(name, {"calls": 0, "self_s": 0.0})
            span["calls"] += n
            span["self_s"] += self_s

    def calls(*names):
        return sum(spans.get(n, {}).get("calls", 0) for n in names)

    def self_s(*names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def frac(num, den):
        return num / den if den else 0.0

    traced_wall = sum(r["wall_s"] for r in traced)
    untraced_wall = sum(r["wall_s"] for r in untraced)
    gen_ops = calls("modes.gen_ops")
    entries = counts.get("linalg.matrix_entries", 0)
    y_checked = calls("admissible.y_is_admissible")
    out = {
        "modes.mode_apply.calls": metric(calls("modes.mode_apply"), "count"),
        "modes.mode_apply.self_s": metric(self_s("modes.mode_apply"), "s"),
        "modes.gen_ops": metric(gen_ops, "count"),
        "modes.gen_ops.self_s": metric(self_s("modes.gen_ops"), "s"),
        "modes.gen_ops.nonzero_frac": metric(
            frac(counts.get("modes.gen_ops.nonzero", 0), gen_ops), "ratio"),
        "modes.pi_field.self_s": metric(self_s("modes.pi_field"), "s"),
        "modes.solve_c_gamma.self_s": metric(self_s("modes.solve_c_gamma"),
                                             "s"),
        "linalg.nullspace.calls": metric(calls("linalg.nullspace"), "count"),
        "linalg.nullspace.self_s": metric(self_s("linalg.nullspace"), "s"),
        "linalg.matrix_entries": metric(entries, "count"),
        "linalg.nonzero_frac": metric(
            frac(counts.get("linalg.matrix_nonzero", 0), entries), "ratio"),
        "linalg.charpoly.self_s": metric(self_s("linalg.charpoly"), "s"),
        "linalg.rational_roots.self_s": metric(
            self_s("linalg.rational_roots"), "s"),
        "relaxed.relaxed_verma_act.calls": metric(
            calls("relaxed.relaxed_verma_act"), "count"),
        "relaxed.relaxed_verma_act.self_s": metric(
            self_s("relaxed.relaxed_verma_act"), "s"),
        "relaxed.find_singular_vectors.self_s": metric(
            self_s("relaxed.find_singular_vectors"), "s"),
        "relaxed.character.self_s": metric(
            self_s("relaxed.character_relaxed_verma",
                   "relaxed.character_relaxed_wakimoto"), "s"),
        "weylpoly.weyl_mul.calls": metric(calls("weylpoly.weyl_mul"), "count"),
        "weylpoly.weyl_mul.self_s": metric(self_s("weylpoly.weyl_mul"), "s"),
        "weylpoly.pi_g.self_s": metric(self_s("weylpoly.pi_g"), "s"),
        "weylpoly.act_F.calls": metric(calls("weylpoly.act_F"), "count"),
        "weylpoly.act_F.self_s": metric(self_s("weylpoly.act_F"), "s"),
        "weylpoly.twist_character.self_s": metric(
            self_s("weylpoly.twist_character"), "s"),
        "weylpoly.fock_character.self_s": metric(
            self_s("weylpoly.fock_character"), "s"),
        "admissible.pr_k_bar.self_s": metric(self_s("admissible.pr_k_bar"),
                                             "s"),
        "admissible.omega.self_s": metric(
            self_s("admissible.omega_theorem", "admissible.omega_direct",
                   "admissible.omega_certificates"), "s"),
        "admissible.y_checked": metric(y_checked, "count"),
        "admissible.y_admissible_frac": metric(
            frac(counts.get("admissible.y_admissible", 0), y_checked),
            "ratio"),
        "admissible.y_is_admissible.self_s": metric(
            self_s("admissible.y_is_admissible"), "s"),
        "liealg.bracket_symbols.calls": metric(
            calls("liealg.bracket_symbols"), "count"),
        "liealg.bracket_symbols.self_s": metric(
            self_s("liealg.bracket_symbols"), "s"),
        "rootdata.weyl_act.calls": metric(calls("rootdata.weyl_act"), "count"),
        "rootdata.weyl_act.self_s": metric(self_s("rootdata.weyl_act"), "s"),
        "cli.emit.self_s": metric(self_s("cli.emit"), "s"),
        "cli.out_bytes": metric(sum(r.get("out_bytes", 0) for r in traced),
                                "bytes"),
        "trace.wall_s": metric(traced_wall, "s"),
        "trace_overhead_frac": metric(traced_wall / untraced_wall - 1.0,
                                      "ratio"),
    }
    for layer in LAYERS:
        out[layer + ".self_s"] = metric(
            sum(s["self_s"] for name, s in spans.items()
                if name.startswith(layer + ".")), "s")
    return out, {"spans": spans, "edges": sorted(edges.values())}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    start = now()
    deadline = start + RUN_LIMIT_S
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "wakimoto", "cli.py")):
        print("error: no src/wakimoto/cli.py under %s; run from the root of "
              "a checkout" % root, file=sys.stderr)
        return 2
    facts = machine_facts()
    facts["speed_probe_start_s"] = speed_probe()
    # The "build": byte-compile once, as an installed package would be.
    compileall.compile_dir(os.path.join(src, "wakimoto"), quiet=1)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    cmds = workloads.build(args.workload, args.seed)

    untraced, traced = [], []
    if args.trace:
        if run_pass(env, cmds, False, deadline, untraced):
            run_pass(env, cmds, True, deadline, traced)
    else:
        # Start another pass only if one as long as the longest so far ends
        # within --seconds of the start.
        longest = 0.0
        while True:
            t = now()
            if not run_pass(env, cmds, False, deadline, untraced):
                break
            longest = max(longest, now() - t)
            if now() + longest - start > args.seconds:
                break
    facts["speed_probe_end_s"] = speed_probe()
    results = untraced + traced
    failed = sum(1 for r in results if r["error"])
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "machine": facts,
              "fail_frac": failed / len(results),
              "failures": [[r["cmd"], r["error"]] for r in results
                           if r["error"]],
              "query_s": per_command(untraced, "wall_s"),
              "setup_s": per_command(untraced, "setup_s")}
    if args.trace:
        if len(traced) == len(cmds):
            metrics, trace_totals = per_layer(traced, untraced)
        else:
            metrics, trace_totals = {}, {}
        report.update(trace_totals)
    else:
        metrics = end_to_end(untraced)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
