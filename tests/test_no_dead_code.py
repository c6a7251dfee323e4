"""Every top-level function, class and module constant of the package, public
or private, is used by the package itself: some module reads its name,
outside its own definition.  Dunder names such as `__version__` and a short
list of library entry points, which the package exports but never calls,
are exempt."""

import ast
import os

import wakimoto

SRC = os.path.dirname(wakimoto.__file__)

ENTRY_POINTS = {"act_F", "dominance_leq", "solve_c_gamma", "verify_pi_hom"}


def _read_names(node):
    """Every name node reads: bare names and attribute names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
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


def _defined_names(stmt):
    """The names a top-level statement defines: a function or class, or the
    targets of a module constant's assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def unused_definitions():
    stmts = [(fname, stmt, _read_names(stmt))
             for fname, stmt in _top_level()]
    defs = [(fname, stmt, name) for fname, stmt, _ in stmts
            for name in _defined_names(stmt)]
    # a renamed entry point would leave a stale exemption behind
    assert ENTRY_POINTS <= {name for _, _, name in defs}
    return ["%s:%s" % (fname, name) for fname, stmt, name in defs
            if not (name.startswith("__") and name.endswith("__"))
            and name not in ENTRY_POINTS
            and not any(name in names for _, other, names in stmts
                        if other is not stmt)]


def test_every_public_definition_is_used_in_src():
    assert unused_definitions() == []
