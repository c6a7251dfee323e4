import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from wakimoto import admissible, cli, modes, relaxed, weylpoly
from wakimoto.cli import (main, parse_fraction, parse_root, parse_sigma,
                          parse_symbol, parse_weight)
from wakimoto.errors import RealizationBug, WakimotoError
from wakimoto.liealg import basis_symbols, bracket_symbols
from wakimoto.rootdata import (WIDTH, Weight, build_root_system,
                               offset_weight, pack, weight_to_json)
from wakimoto.sparse import scaled

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

    def doubled(rs, a):
        return scaled(pi_g_elem(rs, a), 2)

    monkeypatch.setattr(weylpoly, "pi_g_elem", doubled)
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
    fock_apply = weylpoly.fock_apply
    monkeypatch.setattr(weylpoly, "fock_apply",
                        lambda *args: scaled(fock_apply(*args), 2))
    returned = []
    check = modes.top_component_check

    def recording(*args):
        returned.append(check(*args))
        return returned[-1]

    monkeypatch.setattr(modes, "top_component_check", recording)
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
    check = modes.affine_comm_check

    def recording(*args):
        returned.append(check(*args))
        return returned[-1]

    monkeypatch.setattr(modes, "affine_comm_check", recording)
    assert main(["verify", "affine-comm", "-n", "3", "-k", "-3/2",
                 "-D", "0"]) == 1
    ((failures, _),) = returned
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
    mod = modes.WakimotoModule(RS3, Weight((Fraction(1, 3), 1)), k)
    assert modes._scaled(mod, G)[0] == 7 * modes._scaled(mod, F)[0]
    modes._FIELD_CACHE[(3, ("h", 0), k)] = G
    returned = []
    check = modes.affine_comm_check

    def recording(*args):
        returned.append(check(*args))
        return returned[-1]

    monkeypatch.setattr(modes, "affine_comm_check", recording)
    assert main(["verify", "affine-comm", "-n", "3", "-k", "-3/2",
                 "-D", "0"]) == 1
    ((failures, _),) = returned
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

    def patched(problem, alpha_idx, dmax):
        if alpha_idx is not None:
            raise GTHalfFailed("raised in the GT half")
        return check(problem, alpha_idx, dmax)

    monkeypatch.setattr(modes, "_check_top", patched)
    assert main(["verify", "affine-comm", "-n", "2", "-k", "1/2",
                 "-D", "0"]) == 3
    assert capsys.readouterr().err == \
        "internal error: GTHalfFailed: raised in the GT half\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# -- the suite table ----------------------------------------------------------------

@pytest.mark.parametrize("suite", [name for name, *_ in cli.SUITES])
def test_every_suite_has_help(suite, capsys):
    assert main(["verify", suite, "-h"]) == 0
    assert capsys.readouterr().out.startswith(
        "usage: wakimoto verify %s [-h] -n N" % suite)


def _one_entry_dropped(rs, count):
    """relaxed.character_relaxed_verma without its first entry."""
    table = relaxed.character_relaxed_verma(rs, count)
    return dict(list(table.items())[1:])


E1, F1 = ("e", 0), ("f", 0)

# Every suite but singular (no oracle yet): the options after -n 2, and the
# module and name of its check, patched to report one failure.
ONE_FAILURE = {
    "pi-hom": ([], weylpoly, "pi_hom_check", lambda n: ([(E1, F1)], 9)),
    "affine-comm": (
        ["-k", "1/2", "-D", "0"], modes, "affine_comm_check",
        lambda n, k, dmax: ([{"pair": (E1, F1), "m": 0, "n": 1, "top": "V",
                              "vector": ((("D0", 0), 1),)}], 1)),
    "zhu-diagram": ([], modes, "top_component_check",
                    lambda n, lam, k: [{"top": "V", "sym": E1,
                                        "exps": (1,)}]),
    "characters": (["-D", "1"], relaxed, "character_relaxed_wakimoto",
                   _one_entry_dropped),
}


def test_every_suite_with_an_oracle_is_in_the_contract():
    assert set(ONE_FAILURE) == {name for name, *_ in cli.SUITES} - {
        "singular"}


@pytest.mark.parametrize("suite", sorted(ONE_FAILURE))
def test_a_failing_suite_reports_it_and_exits_1(suite, monkeypatch, capsys):
    argv, mod, name, check = ONE_FAILURE[suite]
    monkeypatch.setattr(mod, name, check)
    assert main(["verify", suite, "-n", "2", *argv]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["suite"] == suite and out["n"] == 2
    assert out["ok"] is False and len(out["failures"]) == 1


def test_a_character_failure_names_the_decoded_point(monkeypatch, capsys):
    # the failure row of a point that one side lacks is that point's
    # (weight, energy), decoded for the report only
    rs = build_root_system(3)
    lam = Weight((Fraction(1, 3), Fraction(1)))
    count = relaxed.character_top(rs, None, 1, 2)
    table = relaxed.character_relaxed_verma(rs, count)
    # root coordinates (-2, 1) at energy 1
    point = pack((-2, 1)) + (1 << 2 * WIDTH)
    assert point in table
    wt, d = relaxed.weight_energy(rs, lam, point)
    assert wt == offset_weight(rs, lam, (-2, 1)) and d == 1
    monkeypatch.setattr(relaxed, "character_relaxed_wakimoto",
                        lambda rs, count: {p: m for p, m in table.items()
                                           if p != point})
    assert main(["verify", "characters", "-n", "3", "--lam", "1/3,1",
                 "-D", "1", "--window", "2"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["failures"] == [{"weight": weight_to_json(wt), "degree": 1}]


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
    # n >= 9 makes at least n! >= 362,880 > MAX_ENUMERATION (Weyl element,
    # eta, weight) triples: 9! x C(9, 8) and 12! x C(12, 11) at p = n + 1,
    # q = 1, refused with a usage error before anything is enumerated (an
    # enumeration here fails the test instead of running)
    def enumerated(*args):
        raise AssertionError("enumerated before the size check")

    for name in ("all_weyl_elements", "root_combinations"):
        monkeypatch.setattr(admissible, name, enumerated)
    assert main([cmd, "-n", "9", "-p", "10", "-q", "1"]) == 2
    assert main([cmd, "-n", "12", "-p", "13", "-q", "1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: n = %d, p = %d, q = 1 enumerates about %d (Weyl "
                   "element, eta, weight) triples; the limit is %d"
                   % (n, n + 1, size, admissible.MAX_ENUMERATION)
                   for n, size in ((9, 3265920), (12, 5748019200))]


@pytest.mark.parametrize("cmd", ["prk", "omega"])
def test_a_large_enumeration_is_refused(cmd, monkeypatch, capsys):
    # S_7 has 5,040 elements, but p = 9, q = 2 makes 7! x C(7, 6) x
    # C(8, 6) = 987,840 (Weyl element, eta, weight) triples: refused before
    # anything is enumerated
    def enumerated(*args):
        raise AssertionError("enumerated before the size check")

    for name in ("all_weyl_elements", "root_combinations"):
        monkeypatch.setattr(admissible, name, enumerated)
    assert main([cmd, "-n", "7", "-p", "9", "-q", "2"]) == 2
    assert capsys.readouterr().err == (
        "error: n = 7, p = 9, q = 2 enumerates about 987840 (Weyl element, "
        "eta, weight) triples; the limit is %d\n" % admissible.MAX_ENUMERATION)


@pytest.mark.parametrize("n,D,checks", [
    (4, 1, 621600), (3, 3, 1528800), (2, 8, 1042020), (5, 1, 3927000)])
def test_a_large_affine_comm_is_refused(n, D, checks, monkeypatch, capsys):
    # refused with a usage error before any field is solved or any process
    # forked, by the exact count 2 x C(5 dim g, 2) x spanning vectors
    def reached(*args):
        raise AssertionError("reached before the size check")

    for name in ("_check_top", "_comm_problem", "pi_field"):
        monkeypatch.setattr(modes, name, reached)
    monkeypatch.setattr(os, "fork", reached)
    assert main(["verify", "affine-comm", "-n", str(n), "-k", "1/2",
                 "-D", str(D)]) == 2
    assert capsys.readouterr().err == (
        "error: verify affine-comm at n = %d, D = %d makes at least %d "
        "commutator checks; the limit is %d\n"
        % (n, D, checks, modes.MAX_AFFINE_CHECKS))
    # and at once for any D
    assert main(["verify", "affine-comm", "-n", str(n), "-k", "1/2",
                 "-D", "1000000000"]) == 2
    assert "commutator checks; the limit is" in capsys.readouterr().err


@pytest.mark.parametrize("n,D", [(2, 8), (3, 3)])
def test_a_huge_affine_comm_is_refused_at_once(n, D, monkeypatch, capsys):
    # the count goes energy by energy and stops at the first energy past the
    # limit, D here: -D 1000000000 counts as much as -D D, one lattice_counts
    # call per energy 0..D, and prints the same bound
    calls = []
    count = modes.lattice_counts

    def counted(*args):
        calls.append(args)
        return count(*args)

    monkeypatch.setattr(modes, "lattice_counts", counted)
    errs = []
    for d in (D, 1000000000):
        calls.clear()
        assert main(["verify", "affine-comm", "-n", str(n), "-k", "1/2",
                     "-D", str(d)]) == 2
        assert len(calls) == D + 1
        errs.append(capsys.readouterr().err)
    assert errs[1] == errs[0].replace("D = %d " % D, "D = 1000000000 ")


@pytest.mark.parametrize("n", [5, 6])
def test_affine_comm_above_the_rank_limit_is_refused(n, monkeypatch, capsys):
    # admitted by MAX_AFFINE_CHECKS at D = 0 (157,080 checks at sl5, 487,200
    # at sl6), but a check costs more as n grows: refused with a usage error
    # before any field is solved or any process forked
    def reached(*args):
        raise AssertionError("reached before the size check")

    for name in ("_check_top", "_comm_problem", "pi_field"):
        monkeypatch.setattr(modes, name, reached)
    monkeypatch.setattr(os, "fork", reached)
    assert modes._affine_comm_checks(build_root_system(n), 0) \
        <= modes.MAX_AFFINE_CHECKS
    assert main(["verify", "affine-comm", "-n", str(n), "-k", "1/2",
                 "-D", "0"]) == 2
    assert capsys.readouterr().err == (
        "error: verify affine-comm at n = %d is above the limit n = %d\n"
        % (n, modes.MAX_AFFINE_N))


@pytest.mark.parametrize("n,D,size", [(2, 9, 65772), (3, 3, 71171),
                                      (4, 2, 757137), (5, 1, 422442)])
def test_a_large_singular_search_is_refused(n, D, size, monkeypatch, capsys):
    # refused with a usage error before any module is built or any row made
    def reached(*args):
        raise AssertionError("reached before the size check")

    for name in ("RelaxedModule", "relaxed_verma_act", "_scaled_images",
                 "nullspace"):
        monkeypatch.setattr(relaxed, name, reached)
    lam = ",".join(["0"] * (n - 1))
    assert main(["verify", "singular", "-n", str(n), "-k", "1/2", "--lam",
                 lam, "-D", str(D)]) == 2
    assert capsys.readouterr().err == (
        "error: the singular-vector search up to energy %d has %d basis "
        "elements; the limit is %d\n" % (D, size, relaxed.MAX_SINGULAR_WORK))
    # and at once where the count itself is too large to make
    assert main(["verify", "singular", "-n", str(n), "-k", "1/2", "--lam",
                 lam, "-D", "1000000000"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: the singular-vector search up to energy 1000000000 is too "
        "large to count: ")


@pytest.mark.parametrize("argv,radius,box", [
    (["twist-char", "-n", "5", "--lam", "0,0,0,0", "--alpha", "theta",
      "--window", "3", "--kcap", "20"], 3, 24 ** 4),
    (["twist-char", "-n", "4", "--lam", "0,0,0", "--alpha", "a2",
      "--window", "100"], 100, 101 * 401 * 101),
    (["verify", "characters", "-n", "3", "--window", "600", "-D", "1"],
     601, 602 ** 2),
])
def test_a_large_counting_box_is_refused(argv, radius, box, monkeypatch,
                                         capsys):
    # refused before any lattice point is counted
    def counted(*args):
        raise AssertionError("counted before the size check")

    for mod in (weylpoly, relaxed):
        monkeypatch.setattr(mod, "lattice_counts", counted)
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: the top character up to radius %d needs a counting box of "
        "%d lattice points; the limit is %d\n"
        % (radius, box, weylpoly.MAX_TOP_BOX))


@pytest.mark.parametrize("argv,box,gens", [
    # 65,536 points, inside MAX_TOP_BOX, but 136 generators walk them: with
    # the limit lifted it takes 24 s, 7.4 s of it in lattice_counts
    (["verify", "characters", "-n", "17", "-D", "0", "--window", "1"],
     2 ** 16, 136),
    (["verify", "characters", "-n", "15", "--top", "GT", "-D", "0",
      "--window", "1"], 16 * 2 ** 13, 104),
    (["twist-char", "-n", "7", "--lam", "0,0,0,0,0,0", "--alpha", "theta",
      "--window", "1", "--kcap", "6"], 8 ** 6, 20),
])
def test_a_long_top_count_is_refused(argv, box, gens, monkeypatch, capsys):
    # refused before any lattice point is counted, by the counting box
    # times the generators that walk it
    def counted(*args):
        raise AssertionError("counted before the size check")

    for mod in (weylpoly, relaxed):
        monkeypatch.setattr(mod, "lattice_counts", counted)
    assert box <= weylpoly.MAX_TOP_BOX < box * gens
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: the top character up to radius 1 walks a counting box of %d "
        "lattice points with %d generators, %d steps; the limit is %d\n"
        % (box, gens, box * gens, weylpoly.MAX_TOP_WORK))


@pytest.mark.parametrize("argv,D,held", [
    # -n 3 -D 20 --window 6 takes 3.7 s with the limit lifted
    (["-D", "20", "--window", "6"], 20, 27 ** 2),
    # a GT top's table holds only window points, |c_t| <= window + D
    (["--top", "GT", "--alpha", "theta", "-D", "5", "--window", "18"], 5,
     47 ** 2),
])
def test_a_large_character_is_refused(argv, D, held, monkeypatch, capsys):
    # refused before any lattice point is counted, by (D + 1)(2D + 1)^2
    # mode-table points times the top table's points
    def counted(*args):
        raise AssertionError("counted before the size check")

    for mod in (weylpoly, relaxed):
        monkeypatch.setattr(mod, "lattice_counts", counted)
    assert main(["verify", "characters", "-n", "3"] + argv) == 2
    points = (D + 1) * (2 * D + 1) ** 2
    assert capsys.readouterr().err == (
        "error: the character up to energy %d needs %d mode-table points "
        "times %d top points, %d; the limit is %d\n"
        % (D, points, held, points * held, relaxed.MAX_CHARACTER_WORK))


def test_a_large_orbit_table_is_refused(monkeypatch, capsys):
    # p(33) = 10,143 partitions: refused, from the count alone, before any
    # partition is listed
    def listed(*args):
        raise AssertionError("listed before the size check")

    monkeypatch.setattr(admissible, "root_combinations", listed)
    assert main(["orbits", "-n", "33"]) == 2
    assert capsys.readouterr().err == (
        "error: n = 33 has 10143 partitions; the limit is %d\n"
        % admissible.MAX_PARTITIONS)


@pytest.mark.parametrize("argv", [
    ["pi-g", "-n", "6", "e:theta"],
    ["ff-field", "-n", "6", "-k", "1/2", "e:theta"],
    ["verify", "zhu-diagram", "-n", "6"],
])
def test_pi_g_above_the_limit_is_refused(argv, monkeypatch, capsys):
    # refused before any series is computed or any process forked
    def reached(*args):
        raise AssertionError("reached before the size check")

    for name in ("bernoulli_k0", "exp_minus_ad_u", "apply_kernel"):
        monkeypatch.setattr(weylpoly, name, reached)
    monkeypatch.setattr(os, "fork", reached)
    n = weylpoly.MAX_PI_G_N + 1
    assert main(list(argv)) == 2
    assert capsys.readouterr().err == (
        "error: pi_g at n = %d is above the limit n = %d\n" % (n, n - 1))


def test_pi_hom_above_the_limit_is_refused(monkeypatch, capsys):
    # n = 5 took 94 s: refused before any pi_g or product is computed
    def reached(*args):
        raise AssertionError("reached before the size check")

    for name in ("pi_g", "_pi_g", "weyl_mul"):
        monkeypatch.setattr(weylpoly, name, reached)
    n = weylpoly.MAX_PI_HOM_N + 1
    assert main(["verify", "pi-hom", "-n", str(n)]) == 2
    assert capsys.readouterr().err == (
        "error: verify pi-hom at n = %d is above the limit n = %d\n"
        % (n, n - 1))


def test_pq_polys_above_the_limit_is_refused(monkeypatch, capsys):
    # -n 16 took 33 s and 575 MB: refused before any series is computed
    def reached(*args):
        raise AssertionError("reached before the size check")

    for name in ("bernoulli_k0", "exp_minus_ad_u", "apply_kernel"):
        monkeypatch.setattr(weylpoly, name, reached)
    n = weylpoly.MAX_PQ_N + 1
    assert main(["pq-polys", "-n", str(n), "--gamma", "a1"]) == 2
    assert capsys.readouterr().err == (
        "error: the p/q polynomials at n = %d are above the limit n = %d\n"
        % (n, n - 1))


@pytest.mark.parametrize("argv", [
    ["richardson", "-n", "N", "--sigma", "1"],
    ["orbits", "-n", "N"],
    ["pi-g", "-n", "N", "h:1"],
    ["prk", "-n", "N", "-p", "70", "-q", "1"],
    ["verify", "characters", "-n", "N"],
])
def test_n_above_the_ceiling_is_refused(argv, monkeypatch, capsys):
    # refused before the root system, whose size grows as n^3, is built
    from wakimoto import rootdata

    def built(*args):
        raise AssertionError("built before the range check")

    monkeypatch.setattr(rootdata, "RootSystem", built)
    for n in (cli.MAX_N + 1, 10 ** 9):
        assert main([str(n) if a == "N" else a for a in argv]) == 2
        assert capsys.readouterr().err == "error: -n must be <= %d\n" \
            % cli.MAX_N


def test_a_gt_character_in_a_small_window_is_not_refused(capsys):
    # the theta top's counting box, (5 + 1 + 60)^2 points, is not the work:
    # its table holds at most 11^2 window points
    assert main(["verify", "characters", "-n", "3", "--top", "GT",
                 "--alpha", "theta", "-D", "4", "--window", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_the_cli_does_not_import_dataclasses():
    # dataclasses (and the inspect it imports) would add to every command's
    # start-up
    src = os.path.dirname(os.path.dirname(admissible.__file__))
    code = "import sys, wakimoto.cli; print('dataclasses' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "False\n"


def test_a_closed_stdout_exits_141_silently():
    # orbits -n 20 prints 279 KB, more than a pipe holds, so the command is
    # still writing when the reader closes its end
    src = os.path.dirname(os.path.dirname(admissible.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-m", "wakimoto.cli", "orbits",
                             "-n", "20"], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        assert proc.stdout.read(10) == b'{\n  "n": 2'
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


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


@pytest.mark.parametrize("text", ["{not json", "[1, 2]", "\xff"])
def test_golden_reports_a_malformed_file(text, tmp_path, capsys):
    # a file that is not JSON, JSON that is not an object, or bytes that
    # are not text is a mismatch of the data, not an internal error
    here = os.path.join(os.path.dirname(__file__), "golden")
    for name in os.listdir(here):
        with open(os.path.join(here, name)) as src:
            (tmp_path / name).write_text(src.read())
    (tmp_path / "orbits_n4.json").write_bytes(text.encode("latin-1"))
    assert main(["golden", str(tmp_path)]) == 1
    assert capsys.readouterr().out == \
        "golden mismatches: orbits_n4 (unreadable)\n"


def test_golden_write_to_a_file_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "file"
    target.write_text("kept\n")
    assert main(["golden", str(target), "--write"]) == 2
    assert capsys.readouterr().err == \
        "error: cannot write %s: File exists\n" % target
    assert target.read_text() == "kept\n"
    # and so is a directory where a golden file goes
    (tmp_path / "dir" / "orbits_n4.json").mkdir(parents=True)
    assert main(["golden", str(tmp_path / "dir"), "--write"]) == 2
    assert capsys.readouterr().err == "error: cannot write %s: Is a " \
        "directory\n" % (tmp_path / "dir" / "orbits_n4.json")
