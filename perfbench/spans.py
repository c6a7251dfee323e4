"""Per-layer tracing of one wakimoto command, installed from outside the
package.

`install()` replaces the public functions of the wakimoto modules with
timing wrappers, in every module namespace where a caller looks the name up
(callers import by name, so the wrapper also goes on `relaxed.nullspace`,
under the one span name `linalg.nullspace`), except `UNWRAPPED`.  The
generator operations `WakimotoModule.apply_x/apply_d/apply_b` are wrapped on
the class.

Each call is a span with a parent (the innermost open span).  Spans are
aggregated in memory by call edge (parent name, name) as calls, total time
and self time, where self time is the span's duration minus the time its
child spans cover.  Keeping one record per span would cost hundreds of MB on
the mode engine's million generator operations.
"""

import importlib
import inspect
from time import perf_counter

LAYERS = ("modes", "linalg", "relaxed", "weylpoly", "admissible", "liealg",
          "rootdata", "cli")

# `linalg.rref` is the elimination inside `nullspace` and `rank`; its time is
# reported as theirs.
UNWRAPPED = {"linalg.rref"}

GEN_OPS = ("apply_x", "apply_d", "apply_b")


class Tracer:
    def __init__(self):
        self.stack = []        # open spans: [name, child seconds]
        self.edges = {}        # (parent name, name) -> [calls, total, self]
        self.counts = {"modes.gen_ops.nonzero": 0, "linalg.matrix_entries": 0,
                       "linalg.matrix_nonzero": 0,
                       "admissible.y_admissible": 0}

    def wrap(self, name, fn, before=None, after=None):
        stack, edges, counts = self.stack, self.edges, self.counts

        def traced(*args, **kwargs):
            if before is not None:
                before(counts, args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dt
                key = (parent[0] if parent else "", name)
                e = edges.get(key)
                if e is None:
                    e = edges[key] = [0, 0.0, 0.0]
                e[0] += 1
                e[1] += dt
                e[2] += dt - frame[1]
            if after is not None:
                after(counts, result)
            return result

        return traced

    def summary(self):
        """The counts, and the call edges as
        [parent, name, calls, total_s, self_s]."""
        return {"counts": dict(self.counts),
                "edges": [[p, n, c, t, s] for (p, n), (c, t, s)
                          in sorted(self.edges.items())]}


def _count_matrix(counts, args, kwargs):
    """Entries and nonzero entries of the list-of-rows matrix args[0]."""
    rows = args[0]
    if rows:
        counts["linalg.matrix_entries"] += len(rows) * len(rows[0])
        counts["linalg.matrix_nonzero"] += sum(1 for r in rows for x in r
                                               if x != 0)
    else:
        counts["linalg.matrix_entries"] += kwargs.get("ncols") or 0


def _count_nonzero_vec(counts, result):
    if result:
        counts["modes.gen_ops.nonzero"] += 1


def _count_admissible(counts, result):
    if result:
        counts["admissible.y_admissible"] += 1


HOOKS = {
    "linalg.nullspace": (_count_matrix, None),
    "linalg.rank": (_count_matrix, None),
    "linalg.charpoly": (_count_matrix, None),
    "admissible.y_is_admissible": (None, _count_admissible),
}


def install():
    """Wrap the package's public functions; return the Tracer."""
    tracer = Tracer()
    mods = [importlib.import_module("wakimoto." + layer) for layer in LAYERS]
    wrapped = {}   # original function -> wrapper, shared by all namespaces
    for mod in mods:
        for attr, fn in list(vars(mod).items()):
            if not inspect.isfunction(fn) or attr.startswith("_"):
                continue
            package, _, layer = fn.__module__.rpartition(".")
            name = "%s.%s" % (layer, fn.__name__)
            if (package != "wakimoto" or layer not in LAYERS
                    or name in UNWRAPPED):
                continue
            if fn not in wrapped:
                before, after = HOOKS.get(name, (None, None))
                wrapped[fn] = tracer.wrap(name, fn, before, after)
            setattr(mod, attr, wrapped[fn])
    from wakimoto.modes import WakimotoModule
    for attr in GEN_OPS:
        setattr(WakimotoModule, attr,
                tracer.wrap("modes.gen_ops", getattr(WakimotoModule, attr),
                            after=_count_nonzero_vec))
    return tracer
