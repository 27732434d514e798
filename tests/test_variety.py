"""Exact emptiness decisions for common zero sets in C^2."""

import itertools
import random
from fractions import Fraction

import pytest

from polysaddle import bipoly as bp
from polysaddle.variety import variety_empty


def ve(*strs):
    return variety_empty([bp.parse(s) for s in strs])


# oracles with known answers

def test_disjoint_conics_empty():
    assert ve("x^2 + y^2 - 1", "x^2 + y^2 - 2").ok


def test_parallel_lines_empty():
    assert ve("x + y", "x + y - 1").ok


def test_unit_pair_empty():
    assert ve("x", "x - 1").ok


def test_crossing_lines_witness():
    res = ve("x - 1", "y - 2")
    assert res.status == "Fails"
    assert res.witness == (Fraction(1), Fraction(2))


def test_transversal_parabolas_origin():
    res = ve("y - x^2", "y + x^2")
    assert res.status == "Fails"
    assert res.witness == (Fraction(0), Fraction(0))


def test_complex_only_intersection():
    # x^2 + 1 and y meet only at x = +-i: nonempty over C, no rational point
    res = ve("x^2 + 1", "y")
    assert res.status == "Fails"
    assert not isinstance(res.witness, tuple)
    assert "certified" in str(res.witness)


def test_three_polynomials():
    assert ve("x", "y", "x + y - 1").ok
    res = ve("x", "y", "x + y")
    assert res.status == "Fails"
    assert res.witness == (Fraction(0), Fraction(0))


def test_common_factor_branch():
    # shared factor x - y: the diagonal is full of common zeros
    res = ve("(x - y)*(x + 1)", "(x - y)*(y + 2)")
    assert res.status == "Fails"
    f, g = bp.parse("(x - y)*(x + 1)"), bp.parse("(x - y)*(y + 2)")
    w = res.witness
    if isinstance(w, tuple):
        assert bp.evaluate(f, *w) == 0 and bp.evaluate(g, *w) == 0


def test_y_free_pair():
    assert ve("x - 1", "x + 1").ok
    res = ve("x - 1", "x^2 - 1")
    assert res.status == "Fails"
    x0, y0 = res.witness
    assert x0 == 1


@pytest.mark.parametrize("polys,witness", [
    # Res_y = x, and on the fiber x = 0 both reduce to nonzero constants
    (("x*y + 1", "x*y + 2"), None),
    # on the fiber x (x - 1) the third reduces to the y-free x - 1, which
    # shrinks the fiber to x = 1
    (("y", "y - x^2 + x", "x^2*y - x*y + x - 1"), (1, 0)),
    # common factor x - y: its own branch is empty, the cofactors' decides
    (("(x - y)*(x + 1)", "(x - y)*(y + 2)", "(x - y)^2 + (x - y) - 2"), (-1, -2)),
    (("(x - y)*(x + 1)", "(x - y)*(y + 2)", "(x - y)^2 + (x - y) + 1"), None),
    # xy - 1 alone: lc_y = x vanishes at x = 0, so the vertical line moves
    (("(x*y - 1)*(x + 2)", "(x*y - 1)*(y + 3)"), (1, 1)),
    # on the fiber x (x - 1) both reduce to x*y, which vanishes
    # identically on the subfiber x = 0
    (("x^3 - x^2", "x^3*y", "x*y"), (0, 0)),
])
def test_branch_cases(polys, witness):
    fs = [bp.parse(s) for s in polys]
    res = variety_empty(fs)
    if witness is None:
        assert res.ok
        return
    assert res.status == "Fails"
    assert res.witness == tuple(Fraction(c) for c in witness)
    assert all(bp.evaluate(f, *res.witness) == 0 for f in fs)


def test_rejects_degenerate_input():
    with pytest.raises(ValueError):
        variety_empty([bp.parse("x")])
    with pytest.raises(ValueError):
        variety_empty([bp.parse("x"), {}])


# brute-force cross-check on small integer-coefficient pairs:
# scan a rational grid; any hit must force a Fails verdict

def _grid_hit(f, g, rng=4):
    pts = [Fraction(n, d) for n in range(-rng, rng + 1) for d in (1, 2)]
    for x0, y0 in itertools.product(pts, pts):
        if bp.evaluate(f, x0, y0) == 0 and bp.evaluate(g, x0, y0) == 0:
            return (x0, y0)
    return None


def test_grid_cross_check():
    rng = random.Random(77)
    shapes = ["x + y - %d", "x*y - %d", "y - x^2 + %d", "x^2 + y^2 - %d"]
    for _ in range(30):
        f = bp.parse(rng.choice(shapes) % rng.randint(-3, 3))
        g = bp.parse(rng.choice(shapes) % rng.randint(-3, 3))
        if bp.is_zero(f) or bp.is_zero(g) or f == g:
            continue
        if not bp.is_const(bp.gcd(f, g)):
            continue
        res = variety_empty([f, g])
        hit = _grid_hit(f, g)
        if hit is not None:
            assert res.status == "Fails", (bp.to_string(f), bp.to_string(g))
            if isinstance(res.witness, tuple):
                x0, y0 = res.witness
                assert bp.evaluate(f, x0, y0) == 0
                assert bp.evaluate(g, x0, y0) == 0


def test_witness_points_always_reverify():
    cases = [
        ("y - x^2", "y - x - 2"),
        ("x^2 - y^2", "x + y - 2"),
        ("x*y - 1", "y - 1"),
        ("x^3 - y", "y - 8"),
    ]
    for fs, gs in cases:
        f, g = bp.parse(fs), bp.parse(gs)
        res = variety_empty([f, g])
        assert res.status == "Fails"
        if isinstance(res.witness, tuple):
            x0, y0 = res.witness
            assert bp.evaluate(f, x0, y0) == 0
            assert bp.evaluate(g, x0, y0) == 0
