"""Command-line interface: commands, formats, exit codes, determinism."""

import importlib
import json
import os
import time

import pytest

from polysaddle import cli
from polysaddle import bipoly as bp
from polysaddle import field_ops, remarkable

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


@pytest.mark.parametrize("command", ["analyze", "all"])
def test_critical_values_computed_once_per_command(capsys, monkeypatch, command):
    # analyze reads the gradient gcd off the factors and goes straight to
    # the level computation; the bare-H entry point is not used
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


@pytest.mark.parametrize("command,expansions",
                         [("analyze", 1), ("linearize", 0), ("simulate", 1), ("all", 1)],
                         ids=["analyze", "linearize", "simulate", "all"])
def test_integral_expanded_once_per_command(capsys, monkeypatch, command, expansions):
    # H lives on the factored integral, so every command shares one
    # expansion; a certificate that verifies never needs H at all
    calls = []
    inner = field_ops.expand

    def counted(F):
        calls.append(F)
        return inner(F)

    monkeypatch.setattr(field_ops, "expand", counted)
    code, out = run(capsys, command, problem("twin_parabolas.json"), "--format", "json")
    assert code != 4, out
    assert len(calls) == expansions


@pytest.mark.parametrize(
    "command,pivot,code,gcds,expansions",
    [("all", [], 1, 14, 1), ("all", ["--pivot", "1"], 1, 17, 1),
     ("linearize", ["--pivot", "1"], 0, 7, 0)],
    ids=["pivot0-14", "pivot1-17", "linearize-pivot1-7"])
def test_pivot_reuses_expansion(capsys, monkeypatch, command, pivot, code, gcds, expansions):
    # the reordered integral shares the loaded one's constructed field, and
    # its H once expanded; its pairwise factor check (three gcds for three
    # lines) is the only extra work
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
    # the single-critical-value criterion and linearize share the quotient
    # G with G X = F.field, computed once per problem, also when a given
    # field has none
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

    # every module that binds the name; the quotient-or-zero fallback
    # lives in field_ops
    for module in (field_ops, cli, remarkable, linearize_module):
        if hasattr(module, "quotient_multiplier"):
            monkeypatch.setattr(module, "quotient_multiplier", counted)
    code, out = run(capsys, command, path, *pivot)
    assert code in (0, 1), out
    assert len(calls) == 1
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

    monkeypatch.setattr(cli, "cz_report", broken)
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
        cli, "single_critical_value_criterion",
        lambda F, X, analysis, multiplier: bp.inconclusive("forced for the exit-code test"))
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
