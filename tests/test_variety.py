"""Exact emptiness decisions for common zero sets in C^2."""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import random_line, random_rat
from polysaddle import bipoly as bp, upoly as up, variety
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


P = up._PRIME


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
    # Res_y(p, r) = 0: r shares the factor y - x^2 with p, so only q cuts
    (("y - x^2", "y - 1", "(y - x^2)*(y - 3)"), (-1, 1)),
    # both projections have leading coefficient +-P = 2^61 - 1 and images
    # x + 1 and x + 2 mod P; the common root x = -1/P must survive
    (("y", f"y + ({P}*x + 1)*(x + 1)", f"y + ({P}*x + 1)*(x + 2)"), (Fraction(-1, P), 0)),
    # projections x and x + P: the images share the root 0, the exact gcd is 1
    (("y", "y + x", f"y + x + {P}"), None),
])
def test_branch_cases(polys, witness):
    fs = [bp.parse(s) for s in polys]
    _agree(fs)
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


# the single-projection route as the oracle: the fiber is the squarefree
# part of Res_y(p, q) for the first coprime pair alone, and every other
# polynomial is taken onto it by dynamic evaluation

def _reference_plane(polys, depth=0):
    if any(bp.is_const(p) for p in polys):
        return None
    yfree = [p for p in polys if bp.deg_y(p) == 0]
    if yfree or len(polys) == 1:
        return variety._decide_plane(polys, depth)
    p, q, *others = sorted(polys, key=bp.deg_y)
    h = bp.gcd(p, q)
    if not bp.is_const(h):
        sub = _reference_plane([h] + others, depth + 1)
        if sub is not None:
            return sub
        return _reference_plane([bp.exact_div(p, h), bp.exact_div(q, h)] + others, depth + 1)
    R = bp.resultant(p, q)
    if bp.is_const(R):
        return None
    F = up.squarefree_part(variety._to_upoly_x(R))
    return variety._decide_fiber(F, [variety._to_ypoly(t) for t in [p, q] + others], depth + 1)


def _agree(polys):
    """variety_empty's status, checked to come with the reference's witness."""
    loc = _reference_plane(list(polys))
    want = ("Holds", None) if loc is None else ("Fails", variety._describe_witness(loc, polys))
    got = variety_empty(polys)
    assert (got.status, got.witness) == want, [bp.to_string(f) for f in polys]
    return got.status


def _through(f, a, b):
    """f shifted by a constant so that it passes through (a, b)."""
    return bp.sub(f, bp.const(bp.evaluate(f, a, b)))


def _flatten_at(f, a, b, gx, gy):
    """f through (a, b), with its gradient there replaced by (gx, gy)."""
    f = _through(f, a, b)
    dx = bp.evaluate(bp.partial(f, "x"), a, b) - gx
    dy = bp.evaluate(bp.partial(f, "y"), a, b) - gy
    return bp.sub(f, bp.parse(f"({dx})*(x - ({a})) + ({dy})*(y - ({b}))"))


def _curve(rng, deg):
    """Every monomial of total degree <= deg, integer coefficients in -3..3."""
    while True:
        f = {(i, j): Fraction(rng.randint(-3, 3))
             for i in range(deg + 1) for j in range(deg + 1 - i)}
        f = {e: c for e, c in f.items() if c}
        if f and bp.total_degree(f) == deg:
            return f


def _system(*polys):
    return [f for f in polys if not bp.is_zero(f)]


def _jac(u, v):
    return bp.sub(bp.mul(bp.partial(u, "x"), bp.partial(v, "y")),
                  bp.mul(bp.partial(u, "y"), bp.partial(v, "x")))


def test_line_triples_agree_with_single_projection():
    rng = random.Random(1010)
    statuses = []
    for n in range(60):
        lines = [random_line(rng) for _ in range(3)]
        if n % 2:  # plant a common point: shift all three lines through (a, b)
            a, b = random_rat(rng), random_rat(rng)
            lines = [_through(l, a, b) for l in lines]
        if any(bp.is_const(l) for l in lines):
            continue
        statuses.append(_agree(lines))
        assert n % 2 == 0 or statuses[-1] == "Fails"
    assert statuses.count("Fails") >= 25 and statuses.count("Holds") >= 10


@pytest.mark.parametrize("deg", [2, 3])
def test_transversality_systems_agree_with_single_projection(deg):
    rng = random.Random(2020 + deg)
    statuses = []
    for n in range(16):
        u, v = _curve(rng, deg), _curve(rng, deg)
        if n % 2:  # plant a tangency at (a, b): parallel gradients there
            a, b = random_rat(rng, 3), random_rat(rng, 3)
            gx, gy, lam = random_rat(rng, 3), random_rat(rng, 3), random_rat(rng, 3)
            u, v = _flatten_at(u, a, b, gx, gy), _flatten_at(v, a, b, lam * gx, lam * gy)
        if bp.is_const(u) or bp.is_const(v) or not bp.is_const(bp.gcd(u, v)):
            continue
        statuses.append(_agree(_system(u, v, _jac(u, v))))
        assert n % 2 == 0 or statuses[-1] == "Fails"
    assert "Holds" in statuses


@pytest.mark.parametrize("deg", [2, 3])
def test_singularity_systems_agree_with_single_projection(deg):
    rng = random.Random(3030 + deg)
    statuses = []
    for n in range(16):
        u = _curve(rng, deg)
        if n % 2:  # plant a singular point at (a, b)
            u = _flatten_at(u, random_rat(rng, 3), random_rat(rng, 3), 0, 0)
        if bp.is_const(u):
            continue
        statuses.append(_agree(_system(u, bp.partial(u, "x"), bp.partial(u, "y"))))
        assert n % 2 == 0 or statuses[-1] == "Fails"
    assert "Holds" in statuses
