import json
import os

import pytest

from wakimoto import weylpoly
from wakimoto.cli import (main, parse_fraction, parse_root, parse_sigma,
                          parse_symbol, parse_weight)
from wakimoto.errors import RealizationBug, WakimotoError
from wakimoto.rootdata import build_root_system

RS3 = build_root_system(3)


# -- parsing helpers ---------------------------------------------------------------

def test_parse_fraction():
    from fractions import Fraction as Fr
    assert parse_fraction("-1/2") == Fr(-1, 2)
    with pytest.raises(WakimotoError):
        parse_fraction("x")
    with pytest.raises(WakimotoError):
        parse_fraction("1/0")


def test_parse_weight():
    lam = parse_weight(RS3, "1/3,2")
    assert [str(c) for c in lam.coords] == ["1/3", "2"]
    with pytest.raises(WakimotoError):
        parse_weight(RS3, "1/3")


def test_parse_root():
    assert parse_root(RS3, "a1") == RS3.root_index[(1, 0)]
    assert parse_root(RS3, "a1+a2") == RS3.root_index[(1, 1)]
    assert parse_root(RS3, "theta") == RS3.root_index[(1, 1)]
    for bad in ("b1", "a9", "a1+a1"):
        with pytest.raises(WakimotoError):
            parse_root(RS3, bad)


def test_parse_symbol():
    assert parse_symbol(RS3, "e:a1") == ("e", RS3.root_index[(1, 0)])
    assert parse_symbol(RS3, "h:2") == ("h", 1)
    for bad in ("e", "g:a1", "h:5", "h:x"):
        with pytest.raises(WakimotoError):
            parse_symbol(RS3, bad)


def test_parse_sigma():
    assert parse_sigma("", 4) == set()
    assert parse_sigma("1,3", 4) == {1, 3}
    for bad in ("4", "x"):
        with pytest.raises(WakimotoError):
            parse_sigma(bad, 4)


# -- exit codes --------------------------------------------------------------------

def test_success_exit_code(capsys):
    assert main(["pi-g", "-n", "2", "h:1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["schema_version"] == 1
    assert out["pi_g"] == "h1 + 2 x_{a1} d_{a1}"


def test_usage_error_exit_code(capsys):
    assert main(["pi-g", "-n", "2"]) == 2          # missing positional
    assert main(["pi-g", "-n", "2", "g:a1"]) == 2  # bad symbol kind
    assert main(["omega", "-n", "2", "-p", "1", "-q", "2"]) == 2  # p < n
    assert main(["twist-char", "-n", "2", "--lam", "0", "--alpha", "b9"]) == 2
    assert main(["verify", "affine-comm", "-n", "2"]) == 2  # needs -k
    capsys.readouterr()


TWIST = ["twist-char", "-n", "2", "--lam", "2/3", "--alpha", "a1"]


@pytest.mark.parametrize("argv", [
    ["prk", "-n", "2", "-p", "1", "-q", "0"],
    ["omega", "-n", "2", "-p", "1", "-q", "0"],
    ["orbits", "-n", "0"],
    ["orbits", "-n", "-1"],
    ["ff-field", "-n", "3", "e:a1+a2"],
    TWIST + ["--window", "0"],
    TWIST + ["--window", "-1"],
    TWIST + ["--kcap", "0"],
    ["verify", "characters", "-n", "2", "-k", "1/2", "--window", "0"],
    ["verify", "characters", "-n", "2", "-k", "1/2", "--top", "X"],
    ["verify", "affine-comm", "-n", "2", "-k", "1/2", "-D", "-1"],
    ["gamma-mult", "-n", "2", "--lam", "2/3", "--alpha", "a1",
     "--mu", "8/3", "-D", "-1"],
])
def test_usage_errors_exit_2_with_one_line(argv, capsys):
    assert main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("exc", [RealizationBug("inconsistent system"),
                                 KeyError("missing")])
def test_internal_errors_exit_3(exc, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(weylpoly, "pi_g", broken)
    assert main(["pi-g", "-n", "2", "e:a1"]) == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("internal error: %s" % type(exc).__name__)


@pytest.mark.parametrize("argv", [
    ["verify", "pi-hom", "-n", "2", "-D", "0"],
    ["verify", "singular", "-n", "2", "-k", "-1/2", "--lam", "0",
     "--window", "1"],
])
def test_verify_suites_refuse_options_they_ignore(argv, capsys):
    assert main(list(argv)) == 2
    capsys.readouterr()


def test_verify_characters_level_is_optional(capsys):
    argv = ["verify", "characters", "-n", "2", "-D", "1", "--window", "2"]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True and "k" not in out
    assert main(argv + ["-k", "-3/2"]) == 0
    assert json.loads(capsys.readouterr().out)["k"] == "-3/2"


def test_verify_exit_codes(capsys):
    assert main(["verify", "pi-hom", "-n", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True and out["failures"] == []


def test_negative_rational_flag(capsys):
    assert main(["verify", "affine-comm", "-n", "2", "-k", "-1/2",
                 "-D", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["k"] == "-1/2" and out["ok"] is True


def test_omega_agreement_and_payload(capsys):
    assert main(["omega", "-n", "2", "-p", "3", "-q", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["oracle_agrees"] is True
    assert out["omega"] == [["-3/2"], ["-1/2"]]
    assert all(c["alpha"] == "a1" for c in out["certificates"])


def test_prk_payload(capsys):
    assert main(["prk", "-n", "2", "-p", "3", "-q", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["weights"] == [["-3/2"], ["-1/2"], ["0"], ["1"]]
    flat = sorted(w for cls in out["classes"] for w in cls)
    assert flat == sorted(out["weights"])


def test_richardson_text_format(capsys):
    assert main(["richardson", "-n", "4", "--sigma", "1,3",
                 "--format", "text"]) == 0
    assert capsys.readouterr().out.strip() == "[2, 2] dim 8"


def test_orbits_payload(capsys):
    assert main(["orbits", "-n", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    dims = {tuple(r["partition"]): r["dim"] for r in out["orbits"]}
    assert dims == {(1, 1, 1): 0, (2, 1): 4, (3,): 6}


def test_singular_payload(capsys):
    assert main(["verify", "singular", "-n", "2", "-k", "-1/2",
                 "--lam", "0", "-D", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    shifts = {tuple(r["shift"]) for r in out["singular_vectors"]}
    assert (2,) in shifts


def test_gamma_mult(capsys):
    assert main(["gamma-mult", "-n", "2", "--lam", "2/3", "--alpha", "a1",
                 "--mu", "8/3", "-D", "6"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["multiplicities"] == [{"eigenvalue": "8/9", "mult": 1}]


def test_determinism_byte_identical(capsys):
    argsets = [
        ["twist-char", "-n", "2", "--lam", "2/3", "--alpha", "a1"],
        ["omega", "-n", "3", "-p", "4", "-q", "3", "--sigma", "1"],
        ["orbits", "-n", "4"],
        ["ff-field", "-n", "2", "-k", "1/2", "e:a1"],
    ]
    for argv in argsets:
        assert main(list(argv)) == 0
        first = capsys.readouterr().out
        assert main(list(argv)) == 0
        assert capsys.readouterr().out == first


def test_golden_check(capsys):
    here = os.path.join(os.path.dirname(__file__), "golden")
    assert main(["golden", here]) == 0
    assert "golden ok" in capsys.readouterr().out


def test_golden_missing_dir(tmp_path, capsys):
    assert main(["golden", str(tmp_path / "nope")]) == 1
    assert "missing" in capsys.readouterr().out
