"""Every top-level function, class and module constant of the package, and
every method, public or private, is used by the package itself: some code
reads its name, outside its own definition.  Dunder names such as
`__version__` and `__init__`, a short list of library entry points, which
the package exports but never calls, and a few methods that code outside the
package calls, are exempt."""

import ast
import os
from collections import Counter

import wakimoto

SRC = os.path.dirname(wakimoto.__file__)

ENTRY_POINTS = {"dominance_leq", "solve_c_gamma"}

# Methods, as Class.method, that only callers outside the package use.
EXEMPT_METHODS = {
    # argparse calls it on a parse error
    "_Parser.error",
    # perfbench/spans.py wraps them to time the generator operations, and
    # tests/test_modes.py applies fields op by op through them as the oracle
    # of the compiled mode engine
    "WakimotoModule.apply_x", "WakimotoModule.apply_d",
    "WakimotoModule.apply_b",
}


def _read_names(node):
    """Every name node reads, with its count: bare names and attribute
    names."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


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


def _definitions(fname, tree):
    """(label, name, node) for every top-level definition of a module and
    every method of its top-level classes."""
    for stmt in tree.body:
        for name in _defined_names(stmt):
            yield "%s:%s" % (fname, name), name, stmt
        if isinstance(stmt, ast.ClassDef):
            for meth in stmt.body:
                if isinstance(meth, ast.FunctionDef):
                    yield ("%s:%s.%s" % (fname, stmt.name, meth.name),
                           meth.name, meth)


def _exempt(label, name):
    qualified = label.split(":")[1]
    return ((name.startswith("__") and name.endswith("__"))
            or qualified in ENTRY_POINTS or qualified in EXEMPT_METHODS)


def unused_definitions(trees):
    """The labels of the definitions in trees ({file name: module AST})
    whose name nothing reads outside the definition itself."""
    reads = Counter()
    for tree in trees.values():
        reads += _read_names(tree)
    return [label for fname, tree in trees.items()
            for label, name, node in _definitions(fname, tree)
            if not _exempt(label, name)
            and reads[name] == _read_names(node)[name]]


def _package_trees():
    trees = {}
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname)) as fh:
                trees[fname] = ast.parse(fh.read(), fname)
    return trees


def test_every_public_definition_is_used_in_src():
    trees = _package_trees()
    # a renamed exemption would be left behind stale
    assert ENTRY_POINTS | EXEMPT_METHODS <= {
        label.split(":")[1] for fname, tree in trees.items()
        for label, _, _ in _definitions(fname, tree)}
    assert unused_definitions(trees) == []


def test_the_check_sees_an_unused_method():
    src = ("class A:\n"
           "    def __init__(self):\n"
           "        self.used()\n"
           "    def used(self):\n"
           "        return 0\n"
           "    def recursive(self):\n"
           "        return self.recursive()\n"
           "    def unused(self):\n"
           "        return 1\n"
           "A()\n")
    assert unused_definitions({"f.py": ast.parse(src)}) == [
        "f.py:A.recursive", "f.py:A.unused"]
