import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction as Fr

import pytest

from wakimoto import modes
from wakimoto.rootdata import build_root_system, default_weight

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "compile_replay.py")

# The group digests of the engine that built each chain as a list of
# (key, step) pairs and formed its needs and delta by sorting (commit
# a61b2a1), per top: equal digests mean equal groups, as multisets of
# (c, needs, delta) in key space, compile by compile.
DIGESTS = {(2, Fr(1, 2), 1): ("97d9077b27c9b15f", "0b8f562d77efee55"),
           (3, Fr(-3, 2), 0): ("9cb2e2109a0f2f21", "27b5ac49bfc5f2f9")}


@pytest.fixture(scope="module")
def replay_tool():
    spec = importlib.util.spec_from_file_location("compile_replay", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_the_tool_prints_one_row_per_top():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, TOOL, "2", "1/2", "1"], env=env,
                         capture_output=True, text=True, check=True).stdout
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["top"] for r in rows] == ["V", "GT"]
    for row, groups in zip(rows, DIGESTS[(2, Fr(1, 2), 1)]):
        assert (row["compiles"], row["chains"], row["entries"]) == (
            284, 375, 256)
        assert row["groups"] == groups
        assert 0 < row["replay_s"] < 1


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_groups_are_the_earlier_engines(replay_tool, case):
    problem = modes._comm_problem(*case[:2])
    tops = (None, problem[0].simple_indices[0])
    for alpha_idx, expect in zip(tops, DIGESTS[case]):
        module, compiles = replay_tool.record(problem, alpha_idx, case[2])
        assert replay_tool.digest(problem, module, compiles) == expect


def test_key_space_reads_signed_fields(replay_tool):
    # a delta that lowers one key and raises the next borrows across their
    # fields; key_space undoes the borrow
    rs = build_root_system(2)
    mod = modes.WakimotoModule(rs, default_weight(rs), Fr(1, 2))
    d, x = ("D", 0, 1), ("X", 0, 2)
    delta = -(1 << mod.shift(d)) + (2 << mod.shift(x))
    group = [(3, ((mod.shift(d), 0),), delta)]
    assert replay_tool.key_space(mod, group) == [(3, ((d, 0),),
                                                   ((d, -1), (x, 2)))]
