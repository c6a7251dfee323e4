import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _runs(values):
    """Run records of one set from {side: [(wall_s, failed), ...]}, one
    entry per pair."""
    runs = []
    for side, per_pair in values.items():
        for pair, (wall, failed) in enumerate(per_pair, 1):
            runs.append({"set": "w-seed0", "workload": "w", "seed": 0,
                         "pair": pair, "side": side,
                         "result": {"failed": failed, "metrics": {
                             "wall_s": {"value": wall, "unit": "s"},
                             "rate": {"value": wall, "unit": "1/s"}}}})
    return runs


def test_summary_of_fixed_numbers(bench_pairs):
    # inclusive quartiles of 1, 2, 3, 4 are 1.75 and 3.25; the change is
    # lower in pairs 1 and 3, ties in pair 2 and is higher in pair 4
    runs = _runs({"parent": [(1, 0), (2, 0), (3, 1), (4, 0)],
                  "change": [(0.5, 0), (2, 0), (2.5, 0), (5, 2)]})
    metrics = [{"name": "wall_s", "better": "lower"},
               {"name": "rate", "better": "higher"}]
    got = bench_pairs.summarize("w-seed0", "w", 0, runs, metrics)
    assert got == {
        "set": "w-seed0", "workload": "w", "seed": 0, "pairs": 4,
        "failed": 3,
        "metrics": {
            "wall_s": {"parent_median": 2.5, "parent_q1": 1.75,
                       "parent_q3": 3.25, "change_median": 2.25,
                       "change_q1": 1.625, "change_q3": 3.125,
                       "change_better_pairs": 2},
            "rate": {"parent_median": 2.5, "parent_q1": 1.75,
                     "parent_q3": 3.25, "change_median": 2.25,
                     "change_q1": 1.625, "change_q3": 3.125,
                     "change_better_pairs": 1}}}


def test_summary_reproduces_a_recorded_file(bench_pairs):
    # BENCH_18.json's summaries were computed from its runs before the tool
    # existed; the tool computes the same numbers from the same runs
    with open(os.path.join(ROOT, "BENCH_18.json")) as fh:
        doc = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    assert len(doc["summary"]) == 4
    for s in doc["summary"]:
        runs = [r for r in doc["runs"] if r["set"] == s["set"]]
        assert bench_pairs.summarize(s["set"], s["workload"], s["seed"],
                                     runs, metrics) == s
