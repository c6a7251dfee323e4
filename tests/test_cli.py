import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from wakimoto import admissible, modes, relaxed, weylpoly
from wakimoto.cli import (main, parse_fraction, parse_root, parse_sigma,
                          parse_symbol, parse_weight)
from wakimoto.errors import RealizationBug, WakimotoError
from wakimoto.liealg import basis_symbols, bracket_symbols
from wakimoto.rootdata import Weight, build_root_system

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
    ["verify", "characters", "-n", "3", "--alpha", "theta"],
    ["verify", "affine-comm", "-n", "2"],
    ["pi-g", "-n", "2", "--bogus", "h:1"],
    ["orbits", "-n", "x"],
    ["verify"],
])
def test_usage_errors_exit_2_with_one_line(argv, capsys):
    assert main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_help_exits_0(capsys):
    assert main(["verify", "-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: wakimoto verify")


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


def test_verify_characters_echoes_weight_and_gt_root(capsys):
    argv = ["verify", "characters", "-n", "3", "-D", "1", "--window", "2",
            "--lam", "1/3,1"]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lambda"] == ["1/3", "1"] and "alpha" not in out
    assert main(argv + ["--top", "GT", "--alpha", "theta"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True and out["alpha"] == "a1+a2"
    assert main(argv + ["--top", "GT"]) == 0
    assert json.loads(capsys.readouterr().out)["alpha"] == "a1"


def test_singular_vectors_are_checked_by_acting_on_them(monkeypatch, capsys):
    def first_basis_vector(rows, ncols):
        return [{0: 1}]

    monkeypatch.setattr(relaxed, "nullspace", first_basis_vector)
    assert main(["verify", "singular", "-n", "2", "-k", "-1/2", "--lam", "0",
                 "-D", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal error: RealizationBug")


def test_verify_exit_codes(capsys):
    assert main(["verify", "pi-hom", "-n", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True and out["failures"] == []


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pi_hom_counts_the_pairs_it_compares(n, capsys):
    assert main(["verify", "pi-hom", "-n", str(n)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pairs_checked"] == len(basis_symbols(build_root_system(n))) ** 2


def test_pi_hom_failures_are_symbol_label_pairs(monkeypatch, capsys):
    # doubling pi_g on brackets breaks every pair with a nonzero bracket
    rs = build_root_system(2)
    pi_g_elem = weylpoly.pi_g_elem
    monkeypatch.setattr(weylpoly, "pi_g_elem", lambda a: 2 * pi_g_elem(a))
    assert main(["verify", "pi-hom", "-n", "2"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is False and out["pairs_checked"] == 9
    pairs = [tuple(parse_symbol(rs, lbl) for lbl in js)
             for js in out["failures"]]
    syms = basis_symbols(rs)
    assert pairs == [(a, b) for a in syms for b in syms
                     if bracket_symbols(rs, a, b)]


def test_zhu_diagram_failures_are_json_objects(monkeypatch, capsys):
    # doubling the finite action on the top breaks every nonzero zero mode
    act_F = weylpoly.act_F
    monkeypatch.setattr(weylpoly, "act_F", lambda w, v: 2 * act_F(w, v))
    returned = []
    check = relaxed.top_component_check

    def recording(*args):
        returned.append(check(*args))
        return returned[-1]

    monkeypatch.setattr(relaxed, "top_component_check", recording)
    assert main(["verify", "zhu-diagram", "-n", "2"]) == 1
    (failures,) = returned
    assert failures
    rs = build_root_system(2)
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is False and len(out["failures"]) == len(failures)
    for f, js in zip(failures, out["failures"]):
        assert set(js) == {"top", "sym", "exps"}
        assert js["top"] == f["top"]
        assert parse_symbol(rs, js["sym"]) == f["sym"]
        assert tuple(js["exps"]) == f["exps"]


@pytest.mark.parametrize("scale", [0, 2])
def test_affine_comm_fails_on_a_wrong_dz_term(monkeypatch, capsys, scale):
    # drop (scale 0) or double the :dz a*: terms of sl3's pi(e_theta)
    k = Fraction(-3, 2)
    th = RS3.root_index[(1, 1)]
    for sym in basis_symbols(RS3):
        modes.pi_field(RS3, sym, k)
    key = (3, ("e", th), k)
    terms = [(c * scale if any(d for _, d in astars) else c, astars, main)
             for c, astars, main in modes._FIELD_CACHE[key].terms]
    monkeypatch.setitem(modes._FIELD_CACHE, key,
                        modes.FieldExpr([t for t in terms if t[0]]))
    returned = []
    verify = modes.verify_affine_comm

    def recording(*args):
        returned.append(verify(*args))
        return returned[-1]

    monkeypatch.setattr(modes, "verify_affine_comm", recording)
    assert main(["verify", "affine-comm", "-n", "3", "-k", "-3/2",
                 "-D", "0"]) == 1
    (failures,) = returned
    assert failures
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is False and len(out["failures"]) == len(failures)
    for f, js in zip(failures, out["failures"]):
        assert set(js) == {"pair", "m", "n", "top", "vector"}
        assert [parse_symbol(RS3, lbl) for lbl in js["pair"]] == list(f["pair"])
        assert (js["m"], js["n"], js["top"]) == (f["m"], f["n"], f["top"])
        assert [(tuple(key), e) for key, e in js["vector"]] == list(f["vector"])


def test_affine_comm_fails_on_a_new_denominator(monkeypatch, capsys):
    # add 1/7 to the first coefficient of sl3's pi(h_1) before the e fields
    # are solved against it: the field's scale gains a factor 7, and the
    # cross-multiplied comparison must see every commutator this breaks
    k = Fraction(-3, 2)
    monkeypatch.setattr(modes, "_FIELD_CACHE", {})
    F = modes.pi_field(RS3, ("h", 0), k)
    (c, astars, field_main), *rest = F.terms
    G = modes.FieldExpr([(c + Fraction(1, 7), astars, field_main)] + rest)
    mod = modes.WakimotoModule(RS3, "V", Weight((Fraction(1, 3), 1)), k)
    assert modes._scaled(mod, G)[0] == 7 * modes._scaled(mod, F)[0]
    modes._FIELD_CACHE[(3, ("h", 0), k)] = G
    returned = []
    verify = modes.verify_affine_comm

    def recording(*args):
        returned.append(verify(*args))
        return returned[-1]

    monkeypatch.setattr(modes, "verify_affine_comm", recording)
    assert main(["verify", "affine-comm", "-n", "3", "-k", "-3/2",
                 "-D", "0"]) == 1
    (failures,) = returned
    assert len(failures) == 1115
    # the V top's failures, from the parent, before the GT top's, from the
    # child
    tops = [f["top"] for f in failures]
    assert set(tops) == {"V", "GT"}
    assert tops == sorted(tops, key=("V", "GT").index)
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is False and len(out["failures"]) == 1115


class GTHalfFailed(Exception):
    pass


def test_an_exception_in_the_gt_half_exits_3(monkeypatch, capsys):
    # raised in the forked child that checks the GT top, it reaches the CLI
    # with its type, and no child process is left
    check = modes._check_top

    def patched(problem, top, dmax):
        if top == "GT":
            raise GTHalfFailed("raised in the GT half")
        return check(problem, top, dmax)

    monkeypatch.setattr(modes, "_check_top", patched)
    assert main(["verify", "affine-comm", "-n", "2", "-k", "1/2",
                 "-D", "0"]) == 3
    assert capsys.readouterr().err == \
        "internal error: GTHalfFailed: raised in the GT half\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


@pytest.mark.parametrize("cmd", ["prk", "omega"])
def test_weyl_group_enumeration_is_refused_above_the_limit(
        cmd, monkeypatch, capsys):
    # 12! = 479,001,600 Weyl group elements: refused with a usage error
    # before anything is enumerated (an enumeration here fails the test
    # instead of running)
    def enumerated(*args):
        raise AssertionError("enumerated before the size check")

    for name in ("all_weyl_elements", "bounded_degree_exponents"):
        monkeypatch.setattr(admissible, name, enumerated)
    n = admissible.MAX_WEYL_N + 1
    assert main([cmd, "-n", str(n), "-p", str(n + 1), "-q", "1"]) == 2
    assert main([cmd, "-n", "12", "-p", "13", "-q", "1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: this enumerates all n! Weyl group elements; "
                   "n = %d is above the limit %d" % (m, n - 1)
                   for m in (n, 12)]


@pytest.mark.parametrize("cmd", ["prk", "omega"])
def test_a_large_enumeration_is_refused(cmd, monkeypatch, capsys):
    # n = 7 is below MAX_WEYL_N, but p = 9, q = 2 makes 7! x C(7, 6) x
    # C(8, 6) = 987,840 (Weyl element, eta, weight) triples: refused before
    # anything is enumerated
    def enumerated(*args):
        raise AssertionError("enumerated before the size check")

    for name in ("all_weyl_elements", "bounded_degree_exponents"):
        monkeypatch.setattr(admissible, name, enumerated)
    assert main([cmd, "-n", "7", "-p", "9", "-q", "2"]) == 2
    assert capsys.readouterr().err == (
        "error: n = 7, p = 9, q = 2 enumerates about 987840 (Weyl element, "
        "eta, weight) triples; the limit is %d\n" % admissible.MAX_ENUMERATION)


def test_the_cli_does_not_import_dataclasses():
    # dataclasses (and the inspect it imports) would add to every command's
    # start-up
    src = os.path.dirname(os.path.dirname(admissible.__file__))
    code = "import sys, wakimoto.cli; print('dataclasses' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "False\n"


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


def test_ff_field_non_simple_e_is_explicit(capsys):
    # e_theta prints its normal-ordered terms, :dz a*: terms included
    assert main(["ff-field", "-n", "3", "-k", "-3/2", "e:theta"]) == 0
    out = capsys.readouterr().out
    field = json.loads(out)["field"]
    assert "[" not in out
    assert ":dz a*_" in field


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
