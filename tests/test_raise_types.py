"""Every `raise` in the package raises one of its two exception types, whose
type is the CLI's exit code: `WakimotoError(...)` (exit 2, a refused input)
or `RealizationBug(...)` (exit 3, a bug in the package).  A bare `raise`,
and a raise of a bound name that re-raises a caught exception (as
`modes.affine_comm_check` re-raises the GT half's), are allowed."""

import ast
import builtins
import os

import wakimoto

SRC = os.path.dirname(wakimoto.__file__)

TYPES = {"WakimotoError", "RealizationBug"}


def _allowed(exc):
    if exc is None:
        return True
    if isinstance(exc, ast.Name):
        return not hasattr(builtins, exc.id)
    return (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
            and exc.func.id in TYPES)


def stray_raises(tree, fname):
    return ["%s:%d" % (fname, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Raise) and not _allowed(node.exc)]


def test_every_raise_is_one_of_the_two_types():
    found = []
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname)) as fh:
                found += stray_raises(ast.parse(fh.read(), fname), fname)
    assert found == []


def test_the_check_sees_a_stray_raise():
    src = ("raise ValueError('x')\n"
           "raise KeyError\n"
           "raise errors.WakimotoError('x')\n"
           "raise WakimotoError('x')\n"
           "raise RealizationBug('x') from None\n"
           "raise gt\n"
           "raise\n")
    assert stray_raises(ast.parse(src), "f.py") == ["f.py:1", "f.py:2",
                                                    "f.py:3"]
