"""Christopher-Zoladek genericity conditions on curve families."""

import os
from fractions import Fraction

import pytest

from polysaddle import bipoly as bp
from polysaddle import cli
from polysaddle.cz_check import (
    CZReport,
    check_leading_squarefree,
    check_no_triple_points,
    check_nonsingular,
    check_pair_transversal,
    check_pairwise_leading_coprime,
    cz_report,
)
from polysaddle.field_ops import FactoredIntegral

HERE = os.path.dirname(os.path.abspath(__file__))


def fi(*pairs):
    return FactoredIntegral(tuple((bp.parse(s), k) for s, k in pairs))


# condition (i): smoothness

def test_nonsingular_line_and_conic():
    assert check_nonsingular(bp.parse("x + 2*y - 1")).ok
    assert check_nonsingular(bp.parse("x^2 + y^2 - 1")).ok
    assert check_nonsingular(bp.parse("y - x^2")).ok


def test_cusp_curve_is_singular():
    res = check_nonsingular(bp.parse("y^2 - x^3"))
    assert res.status == "Fails"
    assert res.witness == (Fraction(0), Fraction(0))


def test_node_curve_is_singular():
    res = check_nonsingular(bp.parse("y^2 - x^2*(x + 1)"))
    assert res.status == "Fails"
    assert res.witness == (Fraction(0), Fraction(0))


def test_nonsingular_rejects_constant():
    with pytest.raises(ValueError):
        check_nonsingular(bp.const(2))


def test_smooth_complex_curve():
    # x^2 + y^2 + 1 has no real points at all but is smooth over C
    assert check_nonsingular(bp.parse("x^2 + y^2 + 1")).ok


# condition (ii): squarefree leading form

def test_leading_squarefree_cases():
    assert check_leading_squarefree(bp.parse("x*y - 1")).ok
    assert check_leading_squarefree(bp.parse("x + y")).ok
    res = check_leading_squarefree(bp.parse("y - x^2"))
    assert res.status == "Fails"  # leading form x^2 is a square
    res2 = check_leading_squarefree(bp.parse("x^2 + 2*x*y + y^2 - 3"))
    assert res2.status == "Fails"  # (x+y)^2


# condition (iii): transversality and triple points

def test_transversal_crossing_lines():
    assert check_pair_transversal(bp.parse("x"), bp.parse("y")).ok


def test_parallel_lines_vacuously_transversal():
    # no intersection points at all, so nothing to violate
    assert check_pair_transversal(bp.parse("x + y"), bp.parse("x + y - 1")).ok


def test_tangency_detected():
    res = check_pair_transversal(bp.parse("y - x^2"), bp.parse("y"))
    assert res.status == "Fails"
    assert res.witness == (Fraction(0), Fraction(0))


def test_twin_parabolas_tangent_at_origin():
    # both pass through the origin with vertical-free gradients (0,1),(0,1)
    res = check_pair_transversal(bp.parse("y - x^2"), bp.parse("y + x^2"))
    assert res.status == "Fails"
    assert res.witness == (Fraction(0), Fraction(0))


def test_complex_transversal_intersection():
    # circle and line meeting only at complex points, transversally
    assert check_pair_transversal(bp.parse("x^2 + y^2 + 1"), bp.parse("y")).ok
    assert check_pair_transversal(bp.parse("x^2 + y^2 + 1"), bp.parse("y - x")).ok


def test_transversal_requires_coprime():
    with pytest.raises(ValueError, match="coprime"):
        check_pair_transversal(bp.parse("x*y"), bp.parse("x"))


def test_no_triple_points():
    assert check_no_triple_points([bp.parse("x"), bp.parse("y")]).ok  # vacuous
    assert check_no_triple_points(
        [bp.parse("x"), bp.parse("y"), bp.parse("x + y - 1")]).ok
    res = check_no_triple_points(
        [bp.parse("x"), bp.parse("y"), bp.parse("x + y")])
    assert res.status == "Fails"
    assert res.witness == (Fraction(0), Fraction(0))
    assert "1,2,3" in res.reason
    # curves sharing a component are decided exactly too
    assert check_no_triple_points(
        [bp.parse("x*y"), bp.parse("x"), bp.parse("x + 1")]).ok
    res = check_no_triple_points(
        [bp.parse("x*y"), bp.parse("x"), bp.parse("y + 1")])
    assert res.status == "Fails"
    assert res.witness == (Fraction(0), Fraction(-1))


def test_cz_pairwise_gcds_not_repeated(capsys, monkeypatch):
    # FactoredIntegral already refuses non-coprime factors, so the triple
    # check computes no pairwise gcd of its own: 13 calls where 16 were made
    calls = []
    inner = bp.gcd

    def counted(f, g):
        calls.append((f, g))
        return inner(f, g)

    monkeypatch.setattr(bp, "gcd", counted)
    path = os.path.join(os.path.dirname(HERE), "problems", "three_lines.json")
    assert cli.main(["cz", path, "--format", "json"]) == 1
    capsys.readouterr()
    assert len(calls) == 13


# condition (iv): leading forms coprime

def test_pairwise_leading_coprime():
    assert check_pairwise_leading_coprime([bp.parse("x"), bp.parse("y")]).ok
    res = check_pairwise_leading_coprime([bp.parse("y - x^2"), bp.parse("y + x^2")])
    assert res.status == "Fails"
    assert "share a factor" in res.reason
    with pytest.raises(ValueError):
        check_pairwise_leading_coprime([bp.parse("x")])


def test_parallel_lines_share_point_at_infinity():
    res = check_pairwise_leading_coprime([bp.parse("x + y"), bp.parse("x + y - 1")])
    assert res.status == "Fails"


# full reports

def test_report_product_saddle_all_hold():
    rep = cz_report(fi(("x", 1), ("y", 1)))
    assert rep.overall.ok
    assert all(r.ok for r in (rep.condition_i, rep.condition_ii,
                              rep.condition_iii, rep.condition_iv))


def test_report_twin_parabolas():
    rep = cz_report(fi(("y - x^2", 1), ("y + x^2", 2)))
    assert rep.condition_i.ok
    assert rep.condition_ii.status == "Fails"
    assert rep.condition_iii.status == "Fails"   # tangent at the origin
    assert rep.condition_iv.status == "Fails"
    assert rep.overall.status == "Fails"


def test_report_single_factor_vacuous_parts():
    rep = cz_report(fi(("x", 1)))
    assert rep.condition_iii.ok and rep.condition_iv.ok
    assert rep.overall.ok


def test_report_three_lines_concurrent():
    rep = cz_report(fi(("x", 1), ("y", 1), ("x + y", 2)))
    assert rep.condition_i.ok and rep.condition_ii.ok and rep.condition_iv.ok
    assert rep.condition_iii.status == "Fails"
    assert rep.condition_iii.witness == (Fraction(0), Fraction(0))
    assert rep.overall.status == "Fails"
