import importlib.util
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = os.path.join(ROOT, "tools")

# A stand-in CLI: prints its arguments, and on the arguments named in
# CHANGES prints something else, or exits 1, or writes to stderr.
CLI = '''import sys
args = sys.argv[1:]
CHANGES = %r
what = CHANGES.get(args[0]) if args else None
print("other" if what == "stdout" else " ".join(args))
if what == "stderr":
    print("warning", file=sys.stderr)
sys.exit(1 if what == "exit code" else 0)
'''


@pytest.fixture(scope="module")
def same_outputs():
    sys.path.insert(0, TOOLS)
    try:
        spec = importlib.util.spec_from_file_location(
            "same_outputs", os.path.join(TOOLS, "same_outputs.py"))
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
    finally:
        sys.path.remove(TOOLS)
    return mod


def _tree(path, changes):
    pkg = path / "src" / "wakimoto"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(CLI % (changes,))
    return str(path)


def test_differing_names_each_part_that_differs(same_outputs, tmp_path):
    parent = _tree(tmp_path / "parent", {})
    change = _tree(tmp_path / "change", {"b": "stdout", "c": "exit code",
                                         "d": "stderr"})
    lines = []
    got = same_outputs.differing([["a", "1"], ["b"], ["c", "2"], ["d"]],
                                 parent, change, report=lines.append)
    assert got == [(["b"], ["stdout"]), (["c", "2"], ["exit code"]),
                   (["d"], ["stderr"])]
    assert lines == ["b: stdout differ", "c 2: exit code differ",
                     "d: stderr differ"]
    assert same_outputs.differing([["a"], ["b"]], parent, parent,
                                  report=lines.append) == []


def test_command_list(same_outputs, monkeypatch):
    monkeypatch.chdir(ROOT)
    cmds = same_outputs.commands()
    assert len(set(map(tuple, cmds))) == len(cmds)
    kinds = {}
    for c in cmds:
        kinds[c[0]] = kinds.get(c[0], 0) + 1
    # 50 symbols of sl2-sl5; 15 simple roots of sl2-sl6; the gamma-mult
    # sweep's 15 + 225 + 2250 points; the pool adds pi-g e:theta and its
    # theta gamma-mult, and repeats its ff-field and pq-polys commands
    assert kinds["pi-g"] == 50 + 1 and kinds["ff-field"] == 100
    assert kinds["pq-polys"] == 15
    assert kinds["gamma-mult"] == 2490 + 1
    assert ["golden", "tests/golden"] in cmds
    assert ["gamma-mult", "-n", "3", "--lam", "1/3,2", "--alpha", "theta",
            "--mu", "1/3,2", "-D", "16"] in cmds
    assert ["verify", "pi-hom", "-n", "4"] in cmds
    # the lattice sweep: 1 + 3 + 6 roots at 4 windows, the --kcap case and
    # the pool's; 3 tops at 4 energies on 3 ranks, and the window-1 tops at
    # n = 5-14 (V) and 5-10 (GT); orbits n = 1-10 and the richardson sigmas
    # (2 at n = 2, 3 at n = 3, 4 above; the pool's is one); the refused
    # inputs add 3 twist-char, 5 verify characters and 8 verify singular
    assert kinds["twist-char"] == 40 + 1 + 1 + 3
    assert len([c for c in cmds if c[:2] == ["verify", "characters"]
                and "-k" not in c]) == 36 + 10 + 6 + 5
    assert len([c for c in cmds if c[:2] == ["verify", "singular"]
                and "1000000000" in c]) == 4
    assert ["verify", "characters", "-n", "14", "-D", "0", "--window",
            "1"] in cmds
    assert kinds["orbits"] == 10 and kinds["richardson"] == 2 + 3 + 7 * 4
    assert ["verify", "characters", "-n", "4", "--top", "GT", "--alpha",
            "theta", "-D", "3"] in cmds
