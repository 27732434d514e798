"""The root cases of the layer benchmark expect what rational_roots returns,
its gcd and coprime cases hold, its start-up cases run, and two trees are
timed in pairs, case by case.

`scripts/bench_layers.py` marks a case ok when the program's result equals
the expected value stored with the case, or when its own check proves the
result, so an expected value that drifts from the API would only show as a
failed benchmark check.  The script is read, not changed.
"""

import json
import os
import runpy

import pytest

from polysaddle import upoly

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(os.path.dirname(HERE), "scripts", "bench_layers.py")


def test_root_cases_expect_distinct_rational_roots():
    cases = runpy.run_path(SCRIPT)["cases"]("^roots-")  # compiled from source, no bytecode written
    assert cases
    for name, _, f, _, want in cases:
        assert upoly.rational_roots(upoly.make(f)) == want, name


def test_gcd_cases_are_proved():
    # untimed: the script's gcd_ok proves each gcd by its cofactors, with
    # no gcd routine of the program; the PRS oracle, conftest.prs_gcd,
    # takes 16-30 s on each pair built from 16 lines.  The operands of a
    # gcd case share its planted factor, which the proof must see.
    script = runpy.run_path(SCRIPT)
    cases = script["cases"]("^gcd-|^coprime-")
    assert {op for _, op, _, _, _ in cases} == {"gcd", "coprime"}
    for name, op, f, g, planted in cases:
        assert script["gcd_ok"](op, f, g, planted), name
        assert script["reference_coprime"](f, g) == (op == "coprime"), name


def test_startup_case_times_fresh_interpreters(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", os.path.join(os.path.dirname(HERE), "src"))
    script = runpy.run_path(SCRIPT)
    cases = script["cases"]("^startup")
    assert [name for name, *_ in cases] == ["startup"] + [
        f"startup-{cmd}" for cmd in ("construct", "analyze", "cz", "linearize", "simulate", "all")]
    for name, _, code, _, exit_code in cases:
        assert script["_interpreter"](code) == exit_code, name
    rows = script["worker"]("^startup(-cz)?$")
    assert set(rows) == {"startup", "startup-cz"}
    for row in rows.values():
        assert row["ok"]
        assert row["us"] > 0 and row["baseline_us"] > 0


def test_cli_cases_run_each_command_in_process():
    # each exits as its startup- case expects and prints a JSON report
    # that names its command
    rows = runpy.run_path(SCRIPT)["worker"]("^cli-")
    assert set(rows) == {f"cli-{cmd}" for cmd in
                         ("construct", "analyze", "cz", "linearize", "simulate", "all")}
    assert all(row["ok"] and row["us"] > 0 for row in rows.values())


def test_parse_and_load_cases_match_the_reference_parser():
    rows = runpy.run_path(SCRIPT)["worker"]("^(parse-|load-)")
    assert set(rows) == {"parse-line", "parse-conic", "load-lines-4"}
    assert all(row["ok"] and row["us"] > 0 for row in rows.values())


def test_upoly_and_fiber_cases_hold():
    # each upoly- case expects the result of the script's Fraction-list
    # references; the triple fibers must Fail, and the fiber-holds systems
    # Hold, with the status and witness of the script's exact reference
    rows = runpy.run_path(SCRIPT)["worker"]("^(upoly-|variety-fiber-)")
    assert set(rows) == {"upoly-gcd-d8-common-d3", "upoly-squarefree-d10", "upoly-rem-d10-d6",
                         "upoly-xgcd-d6-d8", "upoly-roots-d10",
                         "variety-fiber-triple-44bit-rational",
                         "variety-fiber-triple-44bit-irrational",
                         "variety-fiber-holds-conic", "variety-fiber-holds-cubic-line",
                         "variety-fiber-holds-transversal-d8"}
    assert all(row["ok"] and row["us"] > 0 for row in rows.values())


def test_isolate_cases_hold():
    # each box is proved by the sign of the polynomial at its ends
    rows = runpy.run_path(SCRIPT)["worker"]("^isolate-")
    assert set(rows) == {"isolate-quadratic-44bit", "isolate-cubic"}
    assert all(row["ok"] and row["us"] > 0 for row in rows.values())


def test_linear_resultant_and_triple_cases_hold():
    # each resultant equals det_bareiss on the Sylvester matrix, and the
    # triple check gives what an exact variety_empty on every triple gives
    rows = runpy.run_path(SCRIPT)["worker"]("^(resultant-linear-|triples-wide-lines-20$)")
    assert set(rows) == {"resultant-linear-lines", "resultant-linear-d3", "resultant-linear-d6",
                         "triples-wide-lines-20"}
    assert all(row["ok"] and row["us"] > 0 for row in rows.values())


def test_each_round_visits_the_trees_abba():
    visits = runpy.run_path(SCRIPT)["visits"]
    assert visits(["a", "b"], 0) == ["a", "b", "b", "a"]
    assert visits(["a", "b"], 1) == ["b", "a", "a", "b"]
    assert visits(["a", "b"], 2) == ["a", "b", "b", "a"]


def test_two_trees_are_timed_in_pairs(tmp_path):
    # one long-lived worker per tree; each tree's rows and the second
    # tree's paired ratio to the first reach the JSON
    src = os.path.join(os.path.dirname(HERE), "src")
    out = tmp_path / "layers.json"
    code = runpy.run_path(SCRIPT)["main"](
        ["--src", f"a={src}", "--src", f"b={src}", "--rounds", "2",
         "--only", "^(parse-line|roots-small)$", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    cases = {"parse-line", "roots-small"}
    assert doc["trees"] == ["a", "b"]
    for label in ("a", "b"):
        assert set(doc["results"][label]) == cases
        assert all(row["ok"] and row["median_us"] > 0 for row in doc["results"][label].values())
    assert set(doc["ratios"]) == {"b"} and set(doc["ratios"]["b"]) == cases
    assert all(q["q1"] <= q["median"] <= q["q3"] for q in doc["ratios"]["b"].values())


@pytest.mark.parametrize("srcs", [["foo"], ["a=x", "a=y"]])
def test_src_must_be_distinct_label_dir_pairs(tmp_path, capsys, srcs):
    argv = [a for s in srcs for a in ("--src", s)] + ["--out", str(tmp_path / "x.json")]
    with pytest.raises(SystemExit) as e:
        runpy.run_path(SCRIPT)["main"](argv)
    assert e.value.code == 2 and "--src" in capsys.readouterr().err
