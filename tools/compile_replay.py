"""Time the mode engine's group compiles on their own, as affine-comm makes
them.

    python3 tools/compile_replay.py N K D

For each top of `verify affine-comm -n N -k K -D D` (V, then GT) this runs
modes._check_top in process, with modes._compile wrapped to record the
(F, m, A) of every group compile, in order.  It then replays that list on a
fresh module, once per pass, with the cyclic collector paused, and prints
one JSON line per top:

- "compiles": the number of group compiles;
- "chains": the chains the compiles kept, before merging (the module's
  counter; null where the engine has none);
- "entries": the entries of the groups, after merging;
- "replay_s": the best of 30 replays of the list, in seconds;
- "groups": a SHA-256 digest of the groups in key space: per compile, in
  order, the sorted (c, needs, delta) with each field shift replaced by its
  key, so two engines, or two commits, that compile the same groups print
  the same digest.

perfbench does not see group compiles: their time is self time of
affine_comm_check.  Run it with a tree's src on PYTHONPATH to measure that
tree.
"""

import gc
import hashlib
import json
import sys
import time
from fractions import Fraction

from wakimoto import modes
from wakimoto.rootdata import default_weight

PASSES = 30


def key_space(module, group):
    """The entries of a group with every shift replaced by its key: sorted
    (c, needs, delta), needs a sorted tuple of (key, offset) and delta of
    (key, net change)."""
    keys = {shift: key for key, shift in module._shifts.items()}
    out = []
    for c, needs, delta in group:
        net = []
        for shift in sorted(keys):
            field = delta >> shift & modes.MASK
            if field > modes.MASK >> 1:
                field -= modes.MASK + 1
            if field:
                net.append((keys[shift], field))
            delta -= field << shift
        if delta:
            raise ValueError("a delta has a field of no key")
        out.append((c, tuple(sorted((keys[s], off) for s, off in needs)),
                    tuple(sorted(net))))
    return sorted(out)


def record(problem, alpha_idx, dmax):
    """The module _check_top built and the (F, m, A, group) of its group
    compiles, in order."""
    made = []
    compiles = []
    compile_group = modes._compile
    module_class = modes.WakimotoModule

    class Recording(module_class):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    def recording(module, F, m, A):
        group = compile_group(module, F, m, A)
        compiles.append((F, m, A, group))
        return group

    modes._compile, modes.WakimotoModule = recording, Recording
    try:
        modes._check_top(problem, alpha_idx, dmax)
    finally:
        modes._compile, modes.WakimotoModule = compile_group, module_class
    return made[0], compiles


def replay(problem, alpha_idx, compiles):
    """The best time of PASSES replays of the compiles, each on a fresh
    module, with the cyclic collector paused."""
    rs, k = problem[:2]
    best = None
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(PASSES):
            module = modes.WakimotoModule(rs, default_weight(rs), k, alpha_idx)
            t0 = time.perf_counter()
            for F, m, A, _ in compiles:
                modes._compile(module, F, m, A)
            t = time.perf_counter() - t0
            best = t if best is None else min(best, t)
    finally:
        if enabled:
            gc.enable()
    return best


def digest(problem, module, compiles):
    """The first 16 hex digits of the SHA-256 of the compiles' groups in key
    space, each field named by its symbol."""
    names = {F: sym for sym, F in problem[2].items()}
    h = hashlib.sha256()
    for F, m, A, group in compiles:
        h.update(repr((names[F], m, A, key_space(module, group))).encode())
    return h.hexdigest()[:16]


def top_row(problem, alpha_idx, dmax):
    """The printed row of one top."""
    module, compiles = record(problem, alpha_idx, dmax)
    return {"top": "V" if alpha_idx is None else "GT",
            "compiles": len(compiles),
            "chains": getattr(module, "chains", None),
            "entries": sum(len(c[3]) for c in compiles),
            "replay_s": round(replay(problem, alpha_idx, compiles), 4),
            "groups": digest(problem, module, compiles)}


def main(argv):
    if len(argv) != 3:
        raise SystemExit("usage: compile_replay.py N K D")
    n, k, dmax = int(argv[0]), Fraction(argv[1]), int(argv[2])
    problem = modes._comm_problem(n, k)
    for alpha_idx in (None, problem[0].simple_indices[0]):
        print(json.dumps(top_row(problem, alpha_idx, dmax)), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
