"""Command-line interface: commands, formats, exit codes, determinism."""

import importlib
import json
import math
import os
import runpy
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysaddle import cli
from polysaddle import bipoly as bp
from polysaddle import cz_check, field_ops, remarkable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def problem(name):
    return os.path.join(ROOT, "problems", name)


def write_problem(tmp_path, payload, name="prob.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def run(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out + cap.err


# construct

def test_construct_cusp_json(capsys):
    code, out = run(capsys, "construct", problem("cusp_level.json"), "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["schema_version"] == "1"
    assert rep["name"] == "cusp-level"
    assert rep["results"]["field"] == {"P": "x", "Q": "-2*y"}
    assert rep["results"]["degree_m"] == 1
    assert rep["results"]["degree_check"]["status"] == "Holds"


def test_construct_reports_given_field(capsys, tmp_path):
    path = write_problem(tmp_path, {
        "name": "t",
        "factors": [{"poly": "x", "exponent": 1}, {"poly": "y", "exponent": 1}],
        "field": {"p": "x", "q": "-y"},
    })
    code, out = run(capsys, "construct", path, "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["given_field"]["annihilates_integral"]["status"] == "Holds"


def test_construct_given_wrong_field_fails(capsys, tmp_path):
    path = write_problem(tmp_path, {
        "name": "t",
        "factors": [{"poly": "x", "exponent": 1}, {"poly": "y", "exponent": 1}],
        "field": {"p": "x", "q": "y"},
    })
    code, out = run(capsys, "construct", path, "--format", "json")
    assert code == 1
    rep = json.loads(out)
    blk = rep["results"]["given_field"]["annihilates_integral"]
    assert blk["status"] == "Fails"
    assert blk["witness"] == "2*x*y"  # the nonzero Lie derivative


# analyze

def test_analyze_cusp(capsys):
    code, out = run(capsys, "analyze", problem("cusp_level.json"), "--format", "json")
    assert code == 0
    r = json.loads(out)["results"]
    assert r["critical_values"] == ["0"]
    assert r["residual"] is None
    assert r["s"] == 1
    assert r["integrating_factor"] == "x"
    for check in r["checks"].values():
        assert check["status"] == "Holds"


def test_analyze_hamiltonian_branch(capsys):
    code, out = run(capsys, "analyze", problem("product_saddle.json"), "--format", "json")
    assert code == 0
    r = json.loads(out)["results"]
    assert r["hamiltonian"]["potential"] == "x*y"
    assert r["hamiltonian"]["annihilates"]["status"] == "Holds"
    assert len(r["hamiltonian"]["cofactors"]) == 2


def test_analyze_x_free_integral(capsys):
    # H = y^2 (y + 1) has H_x = 0; its critical values are still defined
    code, out = run(capsys, "analyze", os.path.join(HERE, "fixtures", "x_free_cubic.json"),
                    "--format", "json")
    assert "Traceback" not in out
    r = json.loads(out)["results"]
    assert r["critical_values"] == ["-4/27", "0"]
    assert r["residual"] is None
    # two critical values at m = 0: the inverse-factor degree formula fails
    assert r["checks"]["inverse_factor_degree"]["status"] == "Fails"
    assert code == cli._exit_code(r, strict=False) == 1


@pytest.mark.parametrize("command", ["analyze", "all"])
def test_analyze_large_level_constant(capsys, command):
    # H = (3x^2 + x)^2 (9x^2 - 14x - 21)^2: with the root 0 divided out, the
    # level polynomial of its vertical components has a 60-bit constant term
    t0 = time.perf_counter()
    code, out = run(capsys, command, os.path.join(HERE, "fixtures", "slow_levels.json"),
                    "--format", "json")
    assert time.perf_counter() - t0 < 5.0
    r = json.loads(out)["results"]
    if command == "all":
        r = r["analyze"]
    assert r["critical_values"] == ["0"]
    assert r["residual"].startswith("c^3 ")
    assert code == 1


@pytest.mark.parametrize("command", ["construct", "analyze", "linearize"])
def test_many_lines_bounded(capsys, command):
    # 16 lines, the last squared: the constructed field has degree 15 and
    # coprime components, which the subresultant PRS alone took about 30 s
    # to show
    t0 = time.perf_counter()
    code, out = run(capsys, command, os.path.join(HERE, "fixtures", "many_lines_16.json"),
                    "--format", "json")
    assert time.perf_counter() - t0 < 5.0
    assert code == 0, out


@pytest.mark.parametrize("command,code", [("analyze", 1), ("linearize", 2)])
def test_non_coprime_given_field_bounded(capsys, tmp_path, command, code):
    # the constructed field (P, Q) of 16 lines, given as P (x - y)(x + y + 2)
    # and Q (x - 1)(x + y + 2): every base of the heuristic gcd failed on
    # the pair, and the subresultant PRS took analyze 33-47 s
    src = os.path.join(HERE, "fixtures", "many_lines_16.json")
    X = cli.load_problem(src).integral.field
    c = bp.parse("x + y + 2")
    with open(src, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["field"] = {"p": bp.to_string(bp.mul(X.P, bp.mul(bp.parse("x - y"), c))),
                    "q": bp.to_string(bp.mul(X.Q, bp.mul(bp.parse("x - 1"), c)))}
    path = write_problem(tmp_path, doc)
    t0 = time.perf_counter()
    got, out = run(capsys, command, path)
    assert time.perf_counter() - t0 < 2.0
    assert got == code, out
    if command == "linearize":
        assert out == "error: linearize requires a coprime field\n"


@pytest.mark.parametrize("command", ["construct", "analyze", "linearize"])
def test_int_lines_bounded(capsys, command):
    # 16 lines with small integer coefficients, the last squared: pairs of
    # them meet on x = 0, 1, 2, where the field's images share a root, so
    # the coprimality proof needs its large points; the subresultant PRS
    # alone took about 20 s here
    t0 = time.perf_counter()
    code, out = run(capsys, command, os.path.join(HERE, "fixtures", "int_lines_16.json"),
                    "--format", "json")
    assert time.perf_counter() - t0 < 5.0
    assert code == 0, out


def test_dense_pair_cz_bounded(capsys):
    # two dense curves of degree 6 (every monomial, coefficients in -5..5):
    # the transversality system u = v = u_x v_y - u_y v_x = 0 has projections
    # of degree 36 and 60, whose gcd is 1; taking the third polynomial onto
    # the degree-36 fiber by dynamic evaluation took more than two minutes
    t0 = time.perf_counter()
    code, out = run(capsys, "cz", os.path.join(HERE, "fixtures", "dense_pair_6.json"),
                    "--format", "json")
    assert time.perf_counter() - t0 < 10.0
    assert code == 0, out
    assert json.loads(out)["results"]["overall"]["status"] == "Holds"


def test_dense_pair_16_cz_bounded(capsys, tmp_path):
    # the dense-16 draw of scripts/scale_ladder.py, built here: the systems
    # of (i) and (iii) hold by images of their projections, of x-degree up
    # to 480, taken mod 2^61 - 1 by evaluation; exact resultants took about
    # 20 s as a CLI run
    ladder = runpy.run_path(os.path.join(os.path.dirname(HERE), "scripts", "scale_ladder.py"))
    path = write_problem(tmp_path, ladder["problem"]("dense", 16))
    t0 = time.perf_counter()
    code, out = run(capsys, "cz", path, "--format", "json")
    assert time.perf_counter() - t0 < 10.0
    assert code == 0, out
    assert json.loads(out)["results"]["overall"]["status"] == "Holds"


def test_dense_sing_8_cz_fails_at_the_origin(capsys, tmp_path):
    # the dense-sing-8 draw of scripts/scale_ladder.py, built here: curve 1
    # is singular at the origin, and the exact route's gcd in Q[x] of two
    # resultants of degree 56 took about 35 s by Euclid over Q
    ladder = runpy.run_path(os.path.join(os.path.dirname(HERE), "scripts", "scale_ladder.py"))
    path = write_problem(tmp_path, ladder["problem"]("dense-sing", 8))
    t0 = time.perf_counter()
    code, out = run(capsys, "cz", path, "--format", "json")
    assert time.perf_counter() - t0 < 5.0
    assert code == 1, out
    overall = json.loads(out)["results"]["overall"]
    assert overall["status"] == "Fails" and overall["witness"] == {"x": "0", "y": "0"}


@pytest.mark.parametrize("command", ["analyze", "all"])
def test_critical_values_computed_once_per_command(capsys, monkeypatch, command):
    # analyze passes gcd(P0, Q0) to critical_levels and adds the level 0
    # when R is nonconstant; the bare-H entry point is not used
    calls = []
    inner = remarkable.critical_levels

    def counted(H, G):
        calls.append(H)
        return inner(H, G)

    def bare(H):
        raise AssertionError("critical_remarkable_values recomputes gcd(H_x, H_y)")

    monkeypatch.setattr(remarkable, "critical_levels", counted)
    monkeypatch.setattr(remarkable, "critical_remarkable_values", bare)
    code, out = run(capsys, command, problem("twin_parabolas.json"), "--format", "json")
    assert code != 4, out
    assert len(calls) == 1


@pytest.mark.parametrize(
    "command,field,expansions,builds",
    [("analyze", None, 1, 1), ("linearize", None, 0, 1), ("simulate", None, 0, 0),
     ("all", None, 1, 2), ("construct", None, 0, 0),
     ("construct", {"p": "3*y - x^2", "q": "6*x^3 - 2*x*y"}, 0, 0),
     ("construct", {"p": "1", "q": "x"}, 0, 1), ("linearize", {"p": "1", "q": "x"}, 0, 1)],
    ids=["analyze", "linearize", "simulate", "all", "construct", "construct-given",
         "construct-wrong", "linearize-wrong"])
def test_integral_expanded_once_per_command(capsys, tmp_path, monkeypatch, command, field,
                                            expansions, builds):
    # H lives on the factored integral, so every command shares one
    # expansion; construct tests a given field, and linearize reports a
    # wrong one, by X(H) read off the factors, and simulate evaluates H
    # from the factors, so none of them needs H at all.  R = prod
    # u_i^{k_i-1} is built where it is printed (analyze), multiplies the
    # bracket of a Fails witness, or gives linearize u = W R~ over the
    # head factors; construct and simulate never build it
    linearize = importlib.import_module("polysaddle.linearize")
    doc = json.loads(open(problem("twin_parabolas.json")).read())
    if field:
        doc["field"] = field
    path = write_problem(tmp_path, doc)
    calls = {"expand": [], "multiplicity_product": []}
    for owner, name in ((field_ops, "expand"), (field_ops, "multiplicity_product"),
                        (linearize, "multiplicity_product")):
        def counted(arg, inner=getattr(owner, name), seen=calls[name]):
            seen.append(arg)
            return inner(arg)

        monkeypatch.setattr(owner, name, counted)
    code, out = run(capsys, command, path, "--format", "json")
    assert code != 4, out
    assert len(calls["expand"]) == expansions
    assert len(calls["multiplicity_product"]) == builds


@pytest.mark.parametrize(
    "command,pivot,code,gcds,expansions",
    [("all", [], 1, 7, 1), ("all", ["--pivot", "1"], 1, 7, 1),
     ("linearize", ["--pivot", "1"], 0, 4, 0)],
    ids=["pivot0-7", "pivot1-7", "linearize-pivot1-4"])
def test_pivot_reuses_expansion(capsys, monkeypatch, command, pivot, code, gcds, expansions):
    # the reordered integral shares the loaded one's constructed field, and
    # its H once expanded, and does not prove its factors coprime again: a
    # pivot costs no gcd
    counts = {"expand": 0, "construct_field": 0, "gcd": 0}
    inner_expand, inner_construct, inner_gcd = field_ops.expand, field_ops.construct_field, bp.gcd

    def expand(F):
        counts["expand"] += 1
        return inner_expand(F)

    def construct_field(F):
        counts["construct_field"] += 1
        return inner_construct(F)

    def gcd(f, g):
        counts["gcd"] += 1
        return inner_gcd(f, g)

    monkeypatch.setattr(field_ops, "expand", expand)
    monkeypatch.setattr(field_ops, "construct_field", construct_field)
    monkeypatch.setattr(bp, "gcd", gcd)
    got, out = run(capsys, command, problem("three_lines.json"), *pivot)
    assert got == code, out
    assert counts == {"expand": expansions, "construct_field": 1, "gcd": gcds}


@pytest.mark.parametrize("command,pivot", [("all", []), ("all", ["--pivot", "1"]),
                                           ("analyze", []), ("linearize", [])])
@pytest.mark.parametrize("field", [None, {"p": "1", "q": "x"}], ids=["constructed", "wrong"])
def test_multiplier_computed_once(capsys, tmp_path, monkeypatch, command, pivot, field):
    # only linearize takes the quotient G with G X = F.field, once, for a
    # given field, also when it has none; the reduced constructed field
    # takes G from its reduction, so no quotient at all; the
    # single-critical-value criterion compares X with the reduced
    # constructed field instead, so every command takes G at most once
    doc = json.loads(open(problem("twin_parabolas.json")).read())
    if field:
        doc["field"] = field
    path = write_problem(tmp_path, doc)
    linearize_module = importlib.import_module("polysaddle.linearize")
    calls = []
    inner = field_ops.quotient_multiplier

    def counted(X2, X1):
        calls.append(X1)
        return inner(X2, X1)

    # every module that binds the name
    for module in (field_ops, cli, remarkable, linearize_module):
        if hasattr(module, "quotient_multiplier"):
            monkeypatch.setattr(module, "quotient_multiplier", counted)
    code, out = run(capsys, command, path, *pivot)
    assert code in (0, 1), out
    assert len(calls) == (0 if command == "analyze" or not field else 1)
    if field and command != "analyze":
        assert "nonzero remainder" in out


@pytest.mark.parametrize("command", ["construct", "all"])
def test_field_gcd_computed_once_per_command(capsys, tmp_path, monkeypatch, command):
    # H = x^2 (x + 1) is y-free, so the constructed field (0, Q0) has the
    # common factor Q0 and the reduced field is a second field
    path = write_problem(tmp_path, {
        "name": "t", "factors": [{"poly": "x", "exponent": 2},
                                 {"poly": "x + 1", "exponent": 1}]})
    spec = cli.load_problem(path)
    fields = [spec.integral.field, spec.field]
    assert not bp.is_const(spec.integral.field.common_factor)
    calls = []
    inner = bp.gcd

    def counted(f, g):
        calls.append((f, g))
        return inner(f, g)

    monkeypatch.setattr(bp, "gcd", counted)
    run(capsys, command, path, "--format", "json")
    counts = [sum((f, g) == (X.P, X.Q) for f, g in calls) for X in fields]
    assert counts == ([1, 0] if command == "construct" else [1, 1])


# cz

def test_cz_product_saddle_holds(capsys):
    code, out = run(capsys, "cz", problem("product_saddle.json"), "--format", "json")
    assert code == 0
    r = json.loads(out)["results"]
    assert r["overall"]["status"] == "Holds"


def test_cz_twin_parabolas_fails(capsys):
    code, out = run(capsys, "cz", problem("twin_parabolas.json"), "--format", "json")
    assert code == 1
    r = json.loads(out)["results"]
    assert r["condition_ii_leading_squarefree"]["status"] == "Fails"
    assert r["condition_iv_leading_coprime"]["status"] == "Fails"
    assert r["overall"]["status"] == "Fails"


def test_cz_three_lines_triple_point(capsys):
    code, out = run(capsys, "cz", problem("three_lines.json"), "--format", "json")
    assert code == 1
    r = json.loads(out)["results"]
    assert r["condition_i_nonsingular"]["status"] == "Holds"
    assert r["condition_iii_transversal_no_triples"]["status"] == "Fails"
    assert r["condition_iii_transversal_no_triples"]["witness"] == {"x": "0", "y": "0"}


# linearize

def test_linearize_twin(capsys):
    code, out = run(capsys, "linearize", problem("twin_parabolas.json"),
                    "--format", "json")
    assert code == 0
    r = json.loads(out)["results"]
    assert r["u"] == "-x^2 + y"
    assert r["D"] == "-8*x"
    assert r["time_change"] == "dtau = (-8*x) / (1) dt"
    assert r["certificate"]["status"] == "Holds"


def test_linearize_pivot(capsys):
    code, out = run(capsys, "linearize", problem("cusp_level.json"),
                    "--pivot", "1", "--format", "json")
    assert code == 0
    r = json.loads(out)["results"]
    assert r["v"] == "x^2"
    assert r["D"] == "-2"


def test_linearize_wrong_field_exit_1(capsys, tmp_path):
    path = write_problem(tmp_path, {
        "name": "t",
        "factors": [{"poly": "x", "exponent": 1}, {"poly": "y", "exponent": 1}],
        "field": {"p": "x", "q": "y"},
    })
    code, out = run(capsys, "linearize", path, "--format", "json")
    assert code == 1
    r = json.loads(out)["results"]
    assert r["certificate"]["status"] == "Fails"
    assert r["certificate"]["witness"] == "2*x*y"


def test_linearize_pivot_out_of_range_exit_2(capsys):
    code, _ = run(capsys, "linearize", problem("cusp_level.json"), "--pivot", "7")
    assert code == 2


# simulate

def test_simulate_basic(capsys):
    code, out = run(capsys, "simulate", problem("cusp_level.json"),
                    "--x0", "0.7", "--y0", "0.4", "--steps", "100",
                    "--step", "0.001", "--format", "json")
    assert code == 0
    r = json.loads(out)["results"]
    assert r["points"] == 101
    assert not r["truncated"]
    assert r["drift"] < 1e-9


def test_simulate_csv(capsys, tmp_path):
    dest = tmp_path / "orbit.csv"
    code, _ = run(capsys, "simulate", problem("cusp_level.json"),
                  "--steps", "5", "--csv", str(dest))
    assert code == 0
    lines = dest.read_text().splitlines()
    assert lines[0] == "t,x,y,H"
    assert len(lines) == 7


def test_simulate_csv_evaluates_h_once(capsys, tmp_path, monkeypatch):
    # the drift and the CSV share one evaluation of H along the orbit
    numcheck = importlib.import_module("polysaddle.numcheck")
    calls = []
    inner = numcheck._values

    def counted(H, points):
        calls.append(len(points))
        return inner(H, points)

    monkeypatch.setattr(numcheck, "_values", counted)
    code, _ = run(capsys, "simulate", problem("three_lines.json"), "--steps", "50",
                  "--csv", str(tmp_path / "orbit.csv"))
    assert code == 0
    assert calls == [51]


def test_simulate_bad_steps_exit_2(capsys):
    code, _ = run(capsys, "simulate", problem("cusp_level.json"), "--steps", "0")
    assert code == 2


def _no_constants(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("command", ["simulate", "all"])
@pytest.mark.parametrize("args, code", [
    (["--x0", "nan"], 2), (["--x0", "inf"], 2), (["--y0=-inf"], 2), (["--y0", "nan"], 2),
    (["--step", "nan"], 2), (["--step", "inf"], 2), (["--step", "-1"], 2),
    ([], 0), (["--x0", "1e100", "--y0=-1e-300"], 0), (["--x0", "0", "--step", "5e-324"], 0),
    (["--x0", "1e300"], 0),
])
def test_simulate_report_is_strict_json(capsys, command, args, code):
    # a non-finite start or step would print NaN or Infinity, which is not
    # JSON; such flags exit 2 with no report
    got = cli.main([command, problem("cusp_level.json"), "--format", "json", "--steps", "20"]
                   + args)
    cap = capsys.readouterr()
    assert got == code
    if code == 2:
        assert cap.out == "" and cap.err.startswith("error: ")
    else:
        json.loads(cap.out, parse_constant=_no_constants)


@pytest.mark.parametrize("command", ["simulate", "all"])
@pytest.mark.parametrize("factors, args", [
    # H(1e300, 1) overflows at the start: inf - inf over inf was NaN
    (None, ["--x0", "1e300"]),
    # x^30 y overflows on the orbit before |x| reaches 1e12: Infinity; by
    # step 800 that is all, later y underflows to 0 and inf * 0 is NaN
    ([("x", 30), ("y", 1)], ["--x0", "1", "--y0", "1", "--step", "0.03"]),
    ([("x", 30), ("y", 1)], ["--x0", "1", "--y0", "1", "--step", "0.03", "--steps", "800"]),
    # x^30 (y - 1) evaluates to inf - inf = NaN there, which max skipped,
    # so the report read 1.0
    ([("x", 30), ("y - 1", 1)], ["--x0", "1", "--y0", "2", "--step", "0.03",
                                 "--steps", "2000"]),
])
def test_simulate_non_finite_drift_is_null(capsys, tmp_path, command, factors, args):
    path = problem("cusp_level.json") if factors is None else write_problem(tmp_path, {
        "name": "t", "factors": [{"poly": u, "exponent": k} for u, k in factors]})
    code = cli.main([command, path, "--format", "json"] + args)
    out = capsys.readouterr().out
    assert code in (0, 1)
    results = json.loads(out, parse_constant=_no_constants)["results"]
    assert results.get("simulate", results)["drift"] is None


@pytest.mark.parametrize("factors, drift_is_null", [
    # H of degree 200: one Horner form nests 200 deep, past the parser's limit
    ([("x + y + 1", 100), ("x - y", 100)], False),
    # a 400-digit coefficient is too large for a float: it becomes an
    # infinity, the orbit stops at its start and H there is not finite
    ([("1" + "0" * 399 + "*x + y", 2), ("x - y + 1", 1)], True),
])
def test_simulate_float_layer_limits(capsys, tmp_path, factors, drift_is_null):
    path = write_problem(tmp_path, {
        "name": "t", "factors": [{"poly": u, "exponent": k} for u, k in factors]})
    code = cli.main(["simulate", path, "--format", "json", "--steps", "1"])
    out = capsys.readouterr().out
    assert code == 0
    results = json.loads(out, parse_constant=_no_constants)["results"]
    assert (results["drift"] is None) == drift_is_null
    assert results["points"] == (1 if drift_is_null else 2)


POWERS = os.path.join(HERE, "fixtures", "powers_100.json")


@pytest.mark.parametrize("args, drift", [
    # the expanded H read 1.36e82 here: its binomial coefficients cancel
    (["--x0", "0.2", "--y0", "-0.3", "--steps", "10"], 1.8726590856709624e-38),
    # (1, 1) lies on the invariant line x = y, where H = 0; it read 1.0
    (["--x0", "1", "--y0", "1", "--steps", "1"], 0.0),
])
def test_powers_fixture_drift_is_pinned(capsys, args, drift):
    # (x + y + 1)^100 (x - y)^100, evaluated from its factors
    code, out = run(capsys, "simulate", POWERS, "--format", "json", *args)
    assert code == 0
    assert json.loads(out)["results"]["drift"] == drift < 1e-12


def test_powers_fixture_construct_and_simulate_are_fast(capsys):
    # neither builds R = u_1^99 u_2^99 or expands H (about 2.5 s when they did)
    t0 = time.perf_counter()
    assert run(capsys, "construct", POWERS, "--format", "json")[0] == 0
    assert run(capsys, "simulate", POWERS, "--format", "json")[0] == 0
    assert time.perf_counter() - t0 < 0.5


@pytest.mark.parametrize("command", ["simulate", "all"])
def test_steps_past_the_bound_exit_2_before_any_work(capsys, monkeypatch, command):
    from polysaddle import numcheck

    def never(*args, **kwargs):
        raise AssertionError("ran past the --steps bound")

    # no orbit is integrated or allocated, and all runs no other command
    for owner, name in ((numcheck, "integrate_orbit"), (numcheck, "Orbit"),
                        (numcheck, "_rk4_kernel"), (cli, "cmd_construct")):
        monkeypatch.setattr(owner, name, never)
    code = cli.main([command, problem("cusp_level.json"), "--steps", str(cli.MAX_STEPS + 1)])
    cap = capsys.readouterr()
    assert code == 2
    assert cap.out == ""
    assert cap.err == f"error: --steps must be at most {cli.MAX_STEPS}\n"


def test_steps_bound_admits_every_step_count_in_use():
    # the digest, perfbench and the tests take at most 2000 steps
    args = cli._PARSER.parse_args(["simulate", "p.json", "--steps", str(cli.MAX_STEPS)])
    assert cli._check_orbit_args(args) is None
    assert cli.MAX_STEPS >= 2000


# all

def test_all_cusp(capsys):
    code, out = run(capsys, "all", problem("cusp_level.json"), "--format", "json")
    assert code == 0
    rep = json.loads(out)
    for section in ("construct", "analyze", "cz", "linearize", "simulate"):
        assert section in rep["results"]


def test_all_single_factor_skips_linearize(capsys, tmp_path):
    path = write_problem(tmp_path, {
        "name": "t", "factors": [{"poly": "x^2 + y^2 - 1", "exponent": 1}]})
    code, out = run(capsys, "all", path, "--format", "json")
    rep = json.loads(out)
    assert "skipped" in rep["results"]["linearize"]


# input validation: exit 2 with position info

def test_unknown_variable_message(capsys, tmp_path):
    path = write_problem(tmp_path, {
        "name": "t", "factors": [{"poly": "x + z", "exponent": 1}]})
    code, out = run(capsys, "analyze", path)
    assert code == 2
    assert "factor 1" in out and "unknown variable" in out and "column 5" in out


def test_superscript_exponent_exit_2(capsys, tmp_path):
    # '²' passed str.isdigit, and int() then raised: exit 4
    path = write_problem(tmp_path, {
        "name": "t", "factors": [{"poly": "x^²", "exponent": 1}, {"poly": "y", "exponent": 1}]})
    code, out = run(capsys, "simulate", path)
    assert code == 2
    assert "factor 1: exponent must be a natural number (column 3)" in out


@pytest.mark.parametrize("command", ["construct", "analyze", "cz", "linearize", "simulate"])
@pytest.mark.parametrize("where", ["factor", "field"])
@pytest.mark.parametrize("deep", ["(" * 250 + "x" + ")" * 250, "-" * 1000 + "x"])
def test_deep_nesting_exit_2(capsys, tmp_path, command, where, deep):
    # such strings used to exit 4 with a RecursionError
    doc = {"name": "t", "factors": [{"poly": "x", "exponent": 1}, {"poly": "y", "exponent": 1}]}
    if where == "factor":
        doc["factors"][0]["poly"] = deep
    else:
        doc["field"] = {"p": deep, "q": "-y"}
    code, out = run(capsys, command, write_problem(tmp_path, doc))
    assert code == 2
    assert f"nesting too deep (column {bp._MAX_NESTING + 1})" in out
    assert "internal error" not in out


def test_empty_factors_exit_2(capsys, tmp_path):
    path = write_problem(tmp_path, {"name": "t", "factors": []})
    code, _ = run(capsys, "analyze", path)
    assert code == 2


def test_missing_file_exit_2(capsys):
    code, _ = run(capsys, "analyze", "/nonexistent/never.json")
    assert code == 2


@pytest.mark.parametrize("command", ["construct", "analyze", "simulate", "all"])
@pytest.mark.parametrize("fixture, message", [
    ("poly_not_string.json", 'factor 1: "poly" must be a string'),
    ("field_not_string.json", 'field: "p" and "q" must be strings'),
    ("bool_exponent.json", "factor 1: exponent must be a positive integer"),
])
def test_wrongly_typed_field_exit_2(capsys, command, fixture, message):
    # a number where a polynomial string belongs used to exit 4 with a
    # TypeError, and "exponent": true was read as 1
    code, out = run(capsys, command, os.path.join(HERE, "fixtures", fixture))
    assert code == 2
    assert message in out
    assert "internal error" not in out


def test_malformed_json_exit_2(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _ = run(capsys, "analyze", str(p))
    assert code == 2


def test_invalid_utf8_exit_2(capsys, tmp_path):
    # byte 0xff used to escape as an internal error (exit 4)
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"name": "\xff", "factors": []}')
    code, out = run(capsys, "analyze", str(p))
    assert code == 2
    assert out.startswith(f"error: {p}: not valid UTF-8: ")
    assert out.count("\n") == 1
    assert "Traceback" not in out


ONES = "1" * 5001  # past the interpreter's int-string limit of 4300 digits


@pytest.mark.parametrize("command", ["construct", "analyze", "cz", "linearize", "simulate", "all"])
@pytest.mark.parametrize("poly, exponent, message", [
    (f"{ONES}*x + y", "1", "factor 1: number longer than {} digits (column 1)"),
    (f"x^{ONES}", "1", "factor 1: number longer than {} digits (column 3)"),
    ("x + y", ONES, "invalid JSON: a number longer than {} digits"),
], ids=["coefficient", "power", "exponent"])
def test_overlong_number_exit_2(capsys, tmp_path, command, poly, exponent, message):
    # int() raised ValueError on these, which used to escape as exit 4;
    # the file is written by hand, since json.dumps cannot write the exponent
    p = tmp_path / "long.json"
    p.write_text('{"name": "t", "factors": [{"poly": "%s", "exponent": %s}, '
                 '{"poly": "x - y", "exponent": 1}]}' % (poly, exponent))
    code, out = run(capsys, command, str(p))
    assert code == 2
    assert out == f"error: {p}: {message.format(sys.get_int_max_str_digits())}\n"


def test_shared_factor_exit_2(capsys, tmp_path):
    path = write_problem(tmp_path, {
        "name": "t",
        "factors": [{"poly": "x*y", "exponent": 1}, {"poly": "x", "exponent": 1}]})
    code, out = run(capsys, "analyze", path)
    assert code == 2


# determinism

@pytest.mark.parametrize("command", ["construct", "analyze", "linearize", "all"])
@pytest.mark.parametrize("fixture", ["huge_power.json", "huge_exponent.json"])
def test_over_budget_input_exit_2(capsys, fixture, command):
    # (x + y + 1)^3000 in a factor, and a factor with exponent 100000: both
    # are refused before expansion instead of running for minutes
    t0 = time.perf_counter()
    code, out = run(capsys, command, os.path.join(HERE, "fixtures", fixture))
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert f"budget of {bp.MAX_TOTAL_DEGREE}" in out
    assert "Traceback" not in out


def test_json_byte_identical(capsys):
    _, a = run(capsys, "all", problem("twin_parabolas.json"), "--format", "json")
    _, b = run(capsys, "all", problem("twin_parabolas.json"), "--format", "json")
    assert a == b


_json_leaves = st.one_of(
    st.text(st.characters(blacklist_categories=()), max_size=8),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u00e9\u2028", "\U0001f600", "\ud800"]),
    st.integers(), st.integers(-10**60, 10**60), st.booleans(), st.none(),
    st.floats(), st.sampled_from([-0.0, 1e300, -1e-300, math.nan, math.inf, -math.inf]))
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=24)


@given(_json_values)
@settings(max_examples=500, deadline=None)
def test_report_writer_matches_json_dumps(v):
    assert cli._json(v) == json.dumps(v, sort_keys=True, indent=2)


def test_reports_are_not_written_by_json_dumps(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(json, "dumps", refuse)
    code, out = run(capsys, "all", problem("twin_parabolas.json"), "--format", "json")
    assert json.loads(out)["command"] == "all" and code == 1


GOLDEN = os.path.join(HERE, "golden")
with open(os.path.join(GOLDEN, "exit_codes.json"), encoding="utf-8") as _fh:
    GOLDEN_CODES = json.load(_fh)


@pytest.mark.parametrize("rel", sorted(GOLDEN_CODES))
def test_all_report_matches_golden(capsys, rel):
    # the `all` report embeds every command's section; each must stay
    # byte-identical to the recorded report, and the exit code with it
    code = cli.main(["all", os.path.join(ROOT, rel), "--format", "json"])
    out = capsys.readouterr().out
    stem = os.path.splitext(os.path.basename(rel))[0]
    with open(os.path.join(GOLDEN, f"{stem}.all.json"), encoding="utf-8") as fh:
        assert out == fh.read()
    assert code == GOLDEN_CODES[rel]


# exit-code policy

def test_internal_error_exit_4(capsys, monkeypatch):
    def broken(F):
        raise RuntimeError("root certification failed")

    monkeypatch.setattr(cz_check, "cz_report", broken)
    code = cli.main(["cz", problem("three_lines.json"), "--format", "json"])
    cap = capsys.readouterr()
    assert code == 4
    assert cap.out == ""
    assert cap.err == "internal error: RuntimeError: root certification failed\n"


def test_exit_code_policy():
    holds = {"status": "Holds"}
    fails = {"status": "Fails"}
    inc = {"status": "Inconclusive"}
    assert cli._exit_code({"a": holds}, strict=False) == 0
    assert cli._exit_code({"a": {"nested": fails}}, strict=False) == 1
    assert cli._exit_code({"a": inc}, strict=False) == 0
    assert cli._exit_code({"a": inc}, strict=True) == 3
    assert cli._exit_code({"a": inc, "b": fails}, strict=True) == 1  # Fails wins


def test_strict_flag_surfaces_inconclusive(capsys, tmp_path, monkeypatch):
    # force the single-critical-value criterion to report Inconclusive
    # while every other check holds
    path = write_problem(tmp_path, {
        "name": "t",
        "factors": [{"poly": "x", "exponent": 2}, {"poly": "y", "exponent": 1}]})
    monkeypatch.setattr(
        remarkable, "single_critical_value_criterion",
        lambda F, X, analysis: bp.inconclusive("forced for the exit-code test"))
    code, out = run(capsys, "analyze", path, "--strict", "--format", "json")
    assert code == 3
    r = json.loads(out)["results"]
    assert r["checks"]["single_critical_value"]["status"] == "Inconclusive"
    code2, _ = run(capsys, "analyze", path, "--format", "json")
    assert code2 == 0  # without --strict the same run exits 0


def test_text_format_renders_nested(capsys):
    code, out = run(capsys, "cz", problem("product_saddle.json"))
    assert code == 0
    assert "problem: product-saddle" in out
    assert "status: Holds" in out


# start-up: each command loads only the modules it runs, and mpmath is
# imported only to approximate irrational roots

MAIN_IN_FRESH_INTERPRETER = """
import contextlib, importlib, io, json, sys
from polysaddle import cli
codes = []
for command in sys.argv[2:]:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        codes.append(cli.main([command, sys.argv[1]]))
modules = sorted(m.split(".")[1] for m in sys.modules if m.startswith("polysaddle."))
mpmath = "mpmath" in sys.modules
import polysaddle
strays = [name for name, home in polysaddle._EXPORTS.items()
          if getattr(polysaddle, name)
          is not getattr(importlib.import_module("polysaddle." + home), name)]
print(json.dumps({"codes": codes, "last": out.getvalue(), "mpmath": mpmath,
                  "modules": modules, "strays": strays,
                  "int_max_str_digits": sys.get_int_max_str_digits()}))
"""


def main_in_fresh_interpreter(path, *commands):
    """Exit codes, the last command's text report, whether mpmath was
    loaded and which polysaddle modules were, from polysaddle.cli.main
    run on path in a new interpreter; then the public names of polysaddle
    that do not resolve to the object their defining module binds, and
    the int-string limit left after the commands."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", MAIN_IN_FRESH_INTERPRETER, path, *commands],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


def test_commands_leave_mpmath_unloaded():
    got = main_in_fresh_interpreter(problem("three_lines.json"), "construct", "analyze", "cz",
                                    "linearize", "simulate", "all")
    assert got["codes"] == [0, 0, 1, 0, 0, 1]
    assert not got["mpmath"]


SRC = os.path.join(ROOT, "src", "polysaddle")
EVERY_MODULE = {f[:-3] for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py"}
CONSTRUCTION = {"bipoly", "cli", "field_ops", "linearize", "modp", "upoly"}


@pytest.mark.parametrize("command, adds", [
    ("construct", set()),
    ("linearize", set()),
    ("analyze", {"remarkable"}),
    ("cz", {"cz_check", "variety", "arith"}),
    ("simulate", {"numcheck"}),
    ("all", EVERY_MODULE - CONSTRUCTION),
])
def test_each_command_loads_only_the_modules_it_runs(command, adds):
    got = main_in_fresh_interpreter(problem("three_lines.json"), command)
    assert set(got["modules"]) == CONSTRUCTION | adds
    assert not got["mpmath"]
    # polysaddle.linearize stays the function after the submodule ran
    assert got["strays"] == []


def test_package_lists_lazy_names_and_refuses_unknown_ones():
    import polysaddle
    assert set(polysaddle.__all__) <= set(dir(polysaddle))
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        polysaddle.nonesuch


def test_quadratic_witness_leaves_mpmath_unloaded(tmp_path):
    # the roots of x^2 - 540418 are solved in closed form: real boxes,
    # with no imaginary width and no floating point
    path = write_problem(tmp_path, {
        "name": "triple-point-20bit-irrational",
        "factors": [{"poly": "x^2 - 540418", "exponent": 1}, {"poly": "y", "exponent": 2},
                    {"poly": "-x^2 + y + 540418", "exponent": 1}],
    })
    got = main_in_fresh_interpreter(path, "cz")
    assert got["codes"] == [1]
    assert not got["mpmath"]
    assert ("condition_iii_transversal_no_triples:\n"
            "  status: Fails\n"
            "  witness: x in certified boxes re in [-735.131, -735.131], "
            "im in [0, 0]; re in [735.131, 735.131], "
            "im in [0, 0] (roots of x^2 - 540418), y = 0\n"
            "  reason: no triple points: curves 1,2,3 meet\n") in got["last"]


def test_cubic_witness_loads_mpmath(tmp_path):
    # a fiber of degree 3 without rational roots is still seeded by mpmath
    # and certified by interval Newton
    path = write_problem(tmp_path, {
        "name": "triple-point-cubic",
        "factors": [{"poly": "x^3 - 2", "exponent": 1}, {"poly": "y", "exponent": 2},
                    {"poly": "-x^3 + y + 2", "exponent": 1}],
    })
    got = main_in_fresh_interpreter(path, "cz")
    assert got["codes"] == [1]
    assert got["mpmath"]
    assert ("  witness: x in certified boxes re in [1.25992, 1.25992], "
            "im in [-1.79071e-15, 1.79071e-15]; re in [-0.629961, -0.629961], "
            "im in [1.09112, 1.09112]; re in [-0.629961, -0.629961], "
            "im in [-1.09112, -1.09112] (roots of x^3 - 2), y = 0\n") in got["last"]


CLOSE = 10**40
CLOSE_U1 = f"{CLOSE}*x^4 - {4 * CLOSE + 1}*x^2 + {2 * (2 * CLOSE + 1)}"


@pytest.fixture
def close_roots_problem(tmp_path):
    """u1 = (x^2 - 2)(N x^2 - 2N - 1) for N = 10^40, y (squared) and y - u1
    meet over the roots of u1, whose pairs lie about 1/(2.8 N) apart:
    closer than a double resolves, so no box is certified."""
    return write_problem(tmp_path, {
        "name": "close-roots-1e40",
        "factors": [{"poly": CLOSE_U1, "exponent": 1}, {"poly": "y", "exponent": 2},
                    {"poly": f"y - ({CLOSE_U1})", "exponent": 1}],
    })


def test_close_roots_end_in_a_verdict(capsys, close_roots_problem):
    # mpmath's NoConvergence used to escape as exit 4; the Fails is decided
    # exactly, and its witness names the fiber without boxes
    t0 = time.perf_counter()
    code, out = run(capsys, "cz", close_roots_problem, "--format", "json")
    assert time.perf_counter() - t0 < 10.0
    assert code == 1
    cond = json.loads(out)["results"]["condition_iii_transversal_no_triples"]
    assert cond["status"] == "Fails"
    assert cond["witness"] == (
        "every root x* of x^4 - 40000000000000000000000000000000000000001/"
        "10000000000000000000000000000000000000000*x^2 + "
        "20000000000000000000000000000000000000001/5000000000000000000000000000000000000000"
        " = 0 (no boxes could be certified) extends by a root y* of the nonconstant "
        "specialization of (1)*y^1")


LONG = "1" * 1501  # a coefficient within the int-string limit, its field's beyond it


def test_long_field_coefficients_print(tmp_path):
    # four lines within the degree budget whose field has coefficients
    # past 4300 digits: construct and analyze exited 4 while printing, and
    # linearize showed Python's ValueError as an input error
    path = write_problem(tmp_path, {
        "name": "lines-1501-digits",
        "factors": [{"poly": u, "exponent": 1} for u in (
            f"{LONG}*x + y", f"x + {LONG}*y", f"{LONG}*x - y + 1", f"x - {LONG}*y + 2")],
    })
    got = main_in_fresh_interpreter(path, "construct", "analyze", "cz", "linearize",
                                    "simulate", "all")
    assert all(code in (0, 1, 2) for code in got["codes"]), got["codes"]
    assert max(len(t) for t in got["last"].split()) > 4300
    assert got["int_max_str_digits"] == sys.get_int_max_str_digits()  # lifted, then restored


def test_loading_keeps_the_int_string_limit(capsys, monkeypatch):
    # the limit is lifted around the commands, which render the report's
    # polynomials, not around load_problem, whose literal cap stands
    default, limits = sys.get_int_max_str_digits(), []

    def spy(spec, _real=cli.cmd_construct):
        limits.append(sys.get_int_max_str_digits())
        return _real(spec)

    def spy_load(path, _real=cli.load_problem):
        limits.append(sys.get_int_max_str_digits())
        return _real(path)

    monkeypatch.setattr(cli, "cmd_construct", spy)
    monkeypatch.setattr(cli, "load_problem", spy_load)
    code, _ = run(capsys, "construct", problem("cusp_level.json"))
    assert code == 0
    assert limits == [default, 0]
    assert sys.get_int_max_str_digits() == default


def test_linearize_reports_an_undocumented_value_error_as_internal(capsys, monkeypatch):
    # only the split errors linearize documents are input errors (exit 2)
    def broken(F, X):
        raise ValueError("not an input error")

    monkeypatch.setattr(cli, "linearize", broken)
    code, out = run(capsys, "linearize", problem("cusp_level.json"))
    assert code == 4
    assert out == "internal error: ValueError: not an input error\n"
