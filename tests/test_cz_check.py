"""Christopher-Zoladek genericity conditions on curve families."""

import math
import os
import random
import time
from fractions import Fraction
from itertools import combinations

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
from polysaddle.variety import variety_empty

from conftest import evaluate, random_factor

HERE = os.path.dirname(os.path.abspath(__file__))


def fi(*pairs):
    return FactoredIntegral(tuple((bp.parse(s), k) for s, k in pairs))


# condition (i): smoothness

def test_nonsingular_line_and_conic():
    assert check_nonsingular(bp.parse("x + 2*y - 1")).status == "Holds"
    assert check_nonsingular(bp.parse("x^2 + y^2 - 1")).status == "Holds"
    assert check_nonsingular(bp.parse("y - x^2")).status == "Holds"


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
    assert check_nonsingular(bp.parse("x^2 + y^2 + 1")).status == "Holds"


# condition (ii): squarefree leading form

def test_leading_squarefree_cases():
    assert check_leading_squarefree(bp.parse("x*y - 1")).status == "Holds"
    assert check_leading_squarefree(bp.parse("x + y")).status == "Holds"
    res = check_leading_squarefree(bp.parse("y - x^2"))
    assert res.status == "Fails"  # leading form x^2 is a square
    res2 = check_leading_squarefree(bp.parse("x^2 + 2*x*y + y^2 - 3"))
    assert res2.status == "Fails"  # (x+y)^2


# condition (iii): transversality and triple points

def test_transversal_crossing_lines():
    assert check_pair_transversal(bp.parse("x"), bp.parse("y")).status == "Holds"


def test_parallel_lines_vacuously_transversal():
    # no intersection points at all, so nothing to violate
    assert check_pair_transversal(bp.parse("x + y"), bp.parse("x + y - 1")).status == "Holds"


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
    assert check_pair_transversal(bp.parse("x^2 + y^2 + 1"), bp.parse("y")).status == "Holds"
    assert check_pair_transversal(bp.parse("x^2 + y^2 + 1"), bp.parse("y - x")).status == "Holds"


# planted common components: a y-free one, curves with rational points,
# and one with none
PLANTED = ["x - 2", "x + y - 1", "y - x^2", "x*y - 3", "x^2 + y^2 + 1"]


def test_shared_component_fails_transversal():
    # u = h a and v = h b meet on h = 0 with u_x v_y - u_y v_x = 0 there,
    # so no coprimality guard is needed: the pair Fails on its own
    rng = random.Random(1717)
    for hs in PLANTED:
        h = bp.parse(hs)
        for _ in range(6):
            a, b = (random_factor(rng, 2) if rng.random() < 0.8
                    else bp.const(rng.choice([1, -2, 3])) for _ in range(2))
            u, v = bp.mul(h, a), bp.mul(h, b)
            res = check_pair_transversal(u, v)
            assert res.status == "Fails", (hs, bp.to_string(a), bp.to_string(b))
            if isinstance(res.witness, tuple):
                jac = bp.sub(bp.mul(bp.partial(u, "x"), bp.partial(v, "y")),
                             bp.mul(bp.partial(u, "y"), bp.partial(v, "x")))
                assert [evaluate(f, *res.witness) for f in (u, v, jac)] == [0, 0, 0]
            else:
                assert isinstance(res.witness, str)
    # off x^2 + y^2 + 1 = 0 the lines x, y meet transversally at the origin,
    # so the only witnesses have no rational point: certificate text
    h = bp.parse("x^2 + y^2 + 1")
    res = check_pair_transversal(bp.mul(h, bp.X), bp.mul(h, bp.Y))
    assert res.status == "Fails"
    assert isinstance(res.witness, str) and "certified box" in res.witness


def test_no_triple_points():
    assert check_no_triple_points([bp.parse("x"), bp.parse("y")]).status == "Holds"  # vacuous
    assert check_no_triple_points(
        [bp.parse("x"), bp.parse("y"), bp.parse("x + y - 1")]).status == "Holds"
    res = check_no_triple_points(
        [bp.parse("x"), bp.parse("y"), bp.parse("x + y")])
    assert res.status == "Fails"
    assert res.witness == (Fraction(0), Fraction(0))
    assert "1,2,3" in res.reason
    # curves sharing a component are decided exactly too
    assert check_no_triple_points(
        [bp.parse("x*y"), bp.parse("x"), bp.parse("x + 1")]).status == "Holds"
    res = check_no_triple_points(
        [bp.parse("x*y"), bp.parse("x"), bp.parse("y + 1")])
    assert res.status == "Fails"
    assert res.witness == (Fraction(0), Fraction(-1))


def _every_triple(curves):
    """The triple check by an exact variety_empty on every triple."""
    worst = None
    for i, j, k in combinations(range(len(curves)), 3):
        r = variety_empty([curves[i], curves[j], curves[k]])
        if r.status == "Fails":
            return bp.fails(r.witness, f"curves {i + 1},{j + 1},{k + 1} meet")
        if r.status == "Inconclusive":
            worst = r
    return worst or bp.holds("all triples have empty intersection")


def _triple_family(rng):
    """Three to eleven curves: lines with small coefficients, vertical
    lines x = c, conics; most often a planted triple through one point,
    two or three of a line, a vertical line and a conic through it; and
    sometimes three parabolas x = x0 - (y - a)(y - b) over pairs of a, b,
    c, which meet pairwise at x = x0 only, in three points, so that no
    two of their projections are coprime and the triple needs the exact
    route to Hold."""
    def line():
        while True:
            a, b, c = (rng.randint(-4, 4) for _ in range(3))
            if b or a:
                return {e: v for e, v in (((1, 0), a), ((0, 1), b), ((0, 0), c)) if v}

    def conic():
        while True:
            u = {(i, j): rng.randint(-3, 3) for i in range(3) for j in range(3 - i)}
            u = {e: c for e, c in u.items() if c}
            if bp.total_degree(u) == 2:
                return u

    def vertical():
        c = rng.randint(-3, 3)
        return {(1, 0): 1, (0, 0): c} if c else {(1, 0): 1}

    curves = [rng.choice((line, line, vertical, conic))() for _ in range(rng.randint(3, 6))]
    if rng.random() < 0.7:
        px, py = rng.randint(-3, 3), rng.randint(-3, 3)
        for _ in range(rng.randint(2, 3)):
            u = rng.choice((line, vertical, conic))()
            shift = -evaluate(u, Fraction(px), Fraction(py))  # u - u(px, py) passes through it
            u = bp.add(u, bp.const(shift))
            if not bp.is_const(u):
                curves.append(u)
    if rng.random() < 0.4:
        x0 = rng.randint(-3, 3)
        a, b, c = rng.sample(range(-3, 4), 3)
        curves += [bp.parse(f"x - {x0} + (y - {s})*(y - {t})") for s, t in ((a, b), (a, c), (b, c))]
    rng.shuffle(curves)
    return curves


def test_triple_projections_match_every_triple_exactly():
    # clearing triples by projections leaves the verdict, the first failing
    # triple, its witness and the reason as deciding every triple exactly
    statuses = []
    for seed in range(60):
        curves = _triple_family(random.Random(f"triples:{seed}"))
        got = check_no_triple_points(curves)
        assert got == _every_triple(curves), (seed, [bp.to_string(u) for u in curves])
        statuses.append(got.status)
    assert statuses.count("Fails") >= 10 and statuses.count("Holds") >= 10


def _wide_lines(p):
    """p pairwise nonparallel lines with integer coefficients uniform in
    +-10^6 (the wide lines of scripts/scale_ladder.py)."""
    rng = random.Random(f"wide:{p}")
    out = []
    while len(out) < p:
        a, b, c = (rng.randint(-10**6, 10**6) for _ in range(3))
        g = math.gcd(a, b, c)
        if (a or b) and all(a * b2 != a2 * b for a2, b2, _ in out):
            out.append((a // g, b // g, c // g))
    return [{e: v for e, v in (((1, 0), a), ((0, 1), b), ((0, 0), c)) if v}
            for a, b, c in out]


def test_triple_points_of_60_wide_lines_in_time():
    # 34,220 triples, one projection per pair: about 0.1 s, where an exact
    # variety_empty on every triple took about 2.6 s
    curves = _wide_lines(60)
    t0 = time.perf_counter()
    res = check_no_triple_points(curves)
    assert time.perf_counter() - t0 < 2.0
    assert res == bp.holds("all triples have empty intersection")


def test_cz_pairwise_gcds_not_repeated(capsys, monkeypatch):
    # FactoredIntegral proves the factors pairwise coprime at load, so
    # neither the transversality pairs nor the triple check take a pairwise
    # gcd of their own, a leading form takes one gcd, of its two partials,
    # and images at y = 1 prove the three pairs of leading forms x, y and
    # x + y coprime: 6 calls where 16 were made
    calls = []
    inner = bp.gcd

    def counted(f, g):
        calls.append((f, g))
        return inner(f, g)

    monkeypatch.setattr(bp, "gcd", counted)
    path = os.path.join(os.path.dirname(HERE), "problems", "three_lines.json")
    assert cli.main(["cz", path, "--format", "json"]) == 1
    capsys.readouterr()
    assert len(calls) == 6


# condition (iv): leading forms coprime

def test_pairwise_leading_coprime():
    assert check_pairwise_leading_coprime([bp.parse("x"), bp.parse("y")]).status == "Holds"
    res = check_pairwise_leading_coprime([bp.parse("y - x^2"), bp.parse("y + x^2")])
    assert res.status == "Fails"
    assert "share a factor" in res.reason
    with pytest.raises(ValueError):
        check_pairwise_leading_coprime([bp.parse("x")])


def test_leading_forms_taken_once_per_curve(monkeypatch):
    calls = []
    inner = bp.leading_form

    def counted(f):
        calls.append(f)
        return inner(f)

    monkeypatch.setattr(bp, "leading_form", counted)
    curves = [bp.parse(s) for s in ("x", "y", "x + y - 1", "x^2 + y^2 - 1", "x - 2*y")]
    assert check_pairwise_leading_coprime(curves).status == "Holds"
    assert len(calls) == len(curves)


def _every_pair(curves):
    """Condition (iv) by a gcd of every pair of leading forms."""
    forms = [bp.leading_form(u) for u in curves]
    for i, j in combinations(range(len(curves)), 2):
        g = bp.gcd(forms[i], forms[j])
        if not bp.is_const(g):
            return bp.fails(bp.to_string(g),
                            f"leading forms of curves {i + 1} and {j + 1} share a factor")
    return bp.holds("leading forms pairwise coprime")


P = (1 << 61) - 1


@pytest.mark.parametrize("curves,witness", [
    # images x and x + 1 at y = 1 are coprime, but both forms hold y
    (("x*y + 1", "x*y + y^2 + 2"), "y"),
    (("x*y + 1", "x^2 + y^2"), None),
    # both images lose their leading coefficient P, so they prove nothing
    ((f"({P}*x + y)*(x + y) + 1", f"({P}*x + y)*(x + 2*y) + x"), f"{P}*x + y"),
    # the first failing pair in combinations order: curves 2 and 3
    (("x^2 + y^2", "x - 1", "x*y + y", "x^2 - y^2 + x*y"), "x"),
])
def test_leading_forms_cleared_by_images(curves, witness):
    curves = [bp.parse(u) for u in curves]
    got = check_pairwise_leading_coprime(curves)
    assert got == _every_pair(curves)
    assert got.witness == witness


def test_leading_forms_match_every_pair_gcd():
    # the pairs that images at y = 1 clear leave the verdict, the first
    # failing pair, its witness and the reason as a gcd on every pair
    rng = random.Random(6060)

    def curve():
        # a product of one to three forms a x + b y, some of them y or x,
        # plus a lower-degree tail
        top = bp.ONE
        for _ in range(rng.randint(1, 3)):
            a, b = rng.choice([(0, 1), (1, 0)] + [(rng.randint(-3, 3), rng.randint(1, 3))] * 3)
            top = bp.mul(top, bp.parse(f"({a})*x + ({b})*y"))
        return bp.add(top, bp.parse(f"({rng.randint(-3, 3)})*x + {rng.randint(1, 5)}"))

    statuses = []
    for _ in range(80):
        curves = [curve() for _ in range(rng.randint(2, 5))]
        if any(bp.is_const(u) for u in curves):
            continue
        got = check_pairwise_leading_coprime(curves)
        assert got == _every_pair(curves), [bp.to_string(u) for u in curves]
        statuses.append(got.status)
    assert statuses.count("Fails") >= 20 and statuses.count("Holds") >= 10


def test_parallel_lines_share_point_at_infinity():
    res = check_pairwise_leading_coprime([bp.parse("x + y"), bp.parse("x + y - 1")])
    assert res.status == "Fails"


# full reports

def test_report_product_saddle_all_hold():
    rep = cz_report(fi(("x", 1), ("y", 1)))
    assert rep.overall.status == "Holds"
    assert all(r.status == "Holds" for r in (rep.condition_i, rep.condition_ii,
                              rep.condition_iii, rep.condition_iv))


def test_report_twin_parabolas():
    rep = cz_report(fi(("y - x^2", 1), ("y + x^2", 2)))
    assert rep.condition_i.status == "Holds"
    assert rep.condition_ii.status == "Fails"
    assert rep.condition_iii.status == "Fails"   # tangent at the origin
    assert rep.condition_iv.status == "Fails"
    assert rep.overall.status == "Fails"


def test_report_single_factor_vacuous_parts():
    rep = cz_report(fi(("x", 1)))
    assert rep.condition_iii.status == "Holds" and rep.condition_iv.status == "Holds"
    assert rep.overall.status == "Holds"


def test_report_three_lines_concurrent():
    rep = cz_report(fi(("x", 1), ("y", 1), ("x + y", 2)))
    assert rep.condition_i.status == "Holds" and rep.condition_ii.status == "Holds" and rep.condition_iv.status == "Holds"
    assert rep.condition_iii.status == "Fails"
    assert rep.condition_iii.witness == (Fraction(0), Fraction(0))
    assert rep.overall.status == "Fails"
