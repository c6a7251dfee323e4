"""Every public top-level function and class of the package is used by the
package itself: some module reads its name, outside its own definition.
Only a short list of library entry points, which the package exports but
never calls, is exempt."""

import ast
import os

import wakimoto

SRC = os.path.dirname(wakimoto.__file__)

ENTRY_POINTS = {"solve_c_gamma", "verify_pi_hom"}


def _read_names(node):
    """Every name node reads: bare names and attribute names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _top_level():
    """(module file, statement) for every top-level statement of src."""
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname)) as fh:
                tree = ast.parse(fh.read(), fname)
            for stmt in tree.body:
                yield fname, stmt


def unused_definitions():
    stmts = [(fname, stmt, _read_names(stmt))
             for fname, stmt in _top_level()]
    defs = [(fname, stmt) for fname, stmt, _ in stmts
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))]
    # a renamed entry point would leave a stale exemption behind
    assert ENTRY_POINTS <= {stmt.name for _, stmt in defs}
    return ["%s:%s" % (fname, stmt.name) for fname, stmt in defs
            if not stmt.name.startswith("_") and stmt.name not in ENTRY_POINTS
            and not any(stmt.name in names for _, other, names in stmts
                        if other is not stmt)]


def test_every_public_definition_is_used_in_src():
    assert unused_definitions() == []
