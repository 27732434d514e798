"""Exact emptiness decisions for common zero sets in C^2."""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import evaluate, random_line, random_rat
from polysaddle import bipoly as bp, modp, upoly as up, variety
from polysaddle.variety import variety_empty


def ve(*strs):
    return variety_empty([bp.parse(s) for s in strs])


# oracles with known answers

def test_disjoint_conics_empty():
    assert ve("x^2 + y^2 - 1", "x^2 + y^2 - 2").status == "Holds"


def test_parallel_lines_empty():
    assert ve("x + y", "x + y - 1").status == "Holds"


def test_unit_pair_empty():
    assert ve("x", "x - 1").status == "Holds"


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
    assert ve("x", "y", "x + y - 1").status == "Holds"
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
        assert evaluate(f, *w) == 0 and evaluate(g, *w) == 0


def test_y_free_pair():
    assert ve("x - 1", "x + 1").status == "Holds"
    res = ve("x - 1", "x^2 - 1")
    assert res.status == "Fails"
    x0, y0 = res.witness
    assert x0 == 1


P = modp.PRIME


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
    # traps for the projection images of operands of y-degree 2, taken by
    # evaluation and interpolation: Res_y(p, q) = 0, as p and q share
    # y^2 + x, so no image proves anything and the exact split runs
    (("(y^2 + x)*(x - 1)", "(y^2 + x)*(x - 2)", "y^2 - 4"), (-4, -2)),
    # the fiber x - 1 shares its root with Res_y of the other two, 4 (x - 1)^2
    (("x - 1", "y^2 - x", "y^2 + x - 2"), (1, -1)),
    # both projections have leading coefficient P^2, so their images,
    # (x + 1)^2 and (x + 2)^2, stay below their bound 4; the root -1/P of
    # the exact gcd must survive
    (("y^2", f"y^2 + ({P}*x + 1)*(x + 1)", f"y^2 + ({P}*x + 1)*(x + 2)"), (Fraction(-1, P), 0)),
    # projections x^2 and (x + P)^2: the images share the root 0, the exact
    # gcd is 1
    (("y^2", "y^2 + x", f"y^2 + x + {P}"), None),
    # lc_y of the first, x + P - 1, vanishes mod P at x = 1, a point the
    # image skips
    ((f"(x + {P} - 1)*y^2 + y + x", "y^2 + x^2 + 1", "y^2 - 5"), None),
    # lc_y = P vanishes mod P everywhere: no image, the exact route decides
    ((f"{P}*y^2 + x*y + 1", "y^2 + (x - 3)*y + 2", "y^2 - x*y - 5"), None),
])
def test_branch_cases(polys, witness):
    fs = [bp.parse(s) for s in polys]
    _agree(fs)
    res = variety_empty(fs)
    if witness is None:
        assert res.status == "Holds"
        return
    assert res.status == "Fails"
    assert res.witness == tuple(Fraction(c) for c in witness)
    assert all(evaluate(f, *res.witness) == 0 for f in fs)


def _exact_image(f, g):
    """Res_y(den(f) f, den(g) g) mod P, highest degree first, from the
    exact resultant."""
    scale = (Fraction(bp._numerators(f)[1]) ** bp.deg_y(g)
             * Fraction(bp._numerators(g)[1]) ** bp.deg_y(f))
    R = [Fraction(c) * scale for c in bp.to_upoly_x(bp.resultant(f, g))]
    assert all(c.denominator == 1 for c in R)
    return [int(c) % P for c in reversed(R)]


def test_resultant_image_is_the_exact_resultant_mod_p():
    # the image by evaluation, univariate resultants mod P and Newton
    # interpolation is the exact resultant mod P, padded with zeros to the
    # Bezout bound; on dense pairs of degree 2-6, some with denominators,
    # it reaches the bound
    rng = random.Random(5050)
    reached = 0
    for n in range(40):
        f, g = _curve(rng, rng.randint(2, 6)), _curve(rng, rng.randint(2, 6))
        if n % 2:
            f = {e: c / rng.randint(1, 4) for e, c in f.items()}
        if bp.deg_y(f) < 2 or bp.deg_y(g) < 2:
            continue
        img, want = modp.resultant_image(f, g), _exact_image(f, g)
        assert len(img) == bp.total_degree(f) * bp.total_degree(g) + 1
        assert img == [0] * (len(img) - len(want)) + want
        reached += bool(img[0])
    assert reached >= 20


def test_resultant_image_traps():
    # x = 1 is skipped, where lc_y = x + P - 1 vanishes mod P; the image
    # still reaches its bound 6
    f, g = bp.parse(f"(x + {P} - 1)*y^2 + y + x"), bp.parse("y^2 + x^2 + 1")
    assert modp.resultant_image(f, g) == _exact_image(f, g) and _exact_image(f, g)[0]
    # lc_y(Res) = P^2: the image stops below its bound 4, so against
    # another such image, of (P x + 1)^2 (x + 2)^2, it proves nothing
    f, g = bp.parse("y^2"), bp.parse(f"y^2 + ({P}*x + 1)*(x + 1)")
    img = modp.resultant_image(f, g)
    assert img == [0, 0, 1, 2, 1] and not modp.coprime_images(img, [0, 0, 1, 4, 4])
    # lc_y = P vanishes mod P at every point: no image
    assert modp.resultant_image(bp.parse(f"{P}*y^2 + x*y + 1"), bp.parse("y^2 + x")) == []


CIRCLE_WITNESS = (
    "every root x* of x^2 - 1/2 = 0 (certified boxes: re in [-0.707107, -0.707107], "
    "im in [0, 0]; re in [0.707107, 0.707107], im in [0, 0]) extends by a root y* of the "
    "nonconstant specialization of (x)*y^0 + (-1)*y^1")


@pytest.mark.parametrize("polys,status,witness,want", [
    # no split: one Euclid step, xgcd(lc, F), inverts lc on x^2 - 1/2
    (("x^2 + y^2 - 1", "x - y"), "Fails", CIRCLE_WITNESS,
     {"rem": 13, "gcd": 4, "xgcd": 1}),
    # lc = x^2 - 2 splits the fiber x^4 - 4 into x^2 - 2 and x^2 + 2
    (("(x^2 - 2)*y^2 + x*y - 1", "(x^2 - 2)*y + x", "x^4 - 4"), "Holds", None,
     {"rem": 27, "gcd": 3, "xgcd": 4}),
], ids=["no-split", "split"])
def test_fiber_gcd_reduces_once(monkeypatch, polys, status, witness, want):
    # _fiber_gcd takes operands already reduced mod the fiber, reduces only
    # what moves onto a smaller fiber at a split, and runs one Euclid per
    # step; a re-reduction on entry or a second Euclid for the inverse
    # raises these counts (27/5 and 53/10 rem/gcd calls when both were
    # made, counted while upoly.gcd still ran Euclid's remainders)
    counts = dict.fromkeys(want, 0)
    for name in want:
        def counted(*args, _inner=getattr(up, name), _name=name):
            counts[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(up, name, counted)
    res = variety_empty([bp.parse(s) for s in polys])
    assert (res.status, res.witness) == (status, witness)
    assert counts == want


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
        if evaluate(f, x0, y0) == 0 and evaluate(g, x0, y0) == 0:
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
                assert evaluate(f, x0, y0) == 0
                assert evaluate(g, x0, y0) == 0


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
            assert evaluate(f, x0, y0) == 0
            assert evaluate(g, x0, y0) == 0


# the single-projection route as the oracle: the fiber is the gcd of the
# polynomials free of y, or else the squarefree part of Res_y(p, q) for
# the first coprime pair alone, and every other polynomial is taken onto
# it by dynamic evaluation; no projection image proves anything here

def _reference_plane(polys, depth=0):
    if any(bp.is_const(p) for p in polys):
        return None
    yfree = [p for p in polys if bp.deg_y(p) == 0]
    if yfree:
        G = up.gcd_many([bp.to_upoly_x(p) for p in yfree])
        if up.degree(G) < 1:
            return None
        rest = [variety._to_ypoly(p) for p in polys if bp.deg_y(p) > 0]
        return variety._decide_fiber(up.squarefree_part(G), rest, depth + 1)
    if len(polys) == 1:
        x0 = bp.first_regular_x(polys[0])
        return variety._decide_fiber(up.make([-x0, 1]), [variety._to_ypoly(polys[0])], depth + 1)
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
    F = up.squarefree_part(bp.to_upoly_x(R))
    return variety._decide_fiber(F, [variety._to_ypoly(t) for t in [p, q] + others], depth + 1)


def _agree(polys):
    """variety_empty's status, checked to come with the reference's witness."""
    loc = _reference_plane(list(polys))
    want = ("Holds", None) if loc is None else ("Fails", variety._describe_witness(loc))
    got = variety_empty(polys)
    assert (got.status, got.witness) == want, [bp.to_string(f) for f in polys]
    return got.status


def _through(f, a, b):
    """f shifted by a constant so that it passes through (a, b)."""
    return bp.sub(f, bp.const(evaluate(f, a, b)))


def _flatten_at(f, a, b, gx, gy):
    """f through (a, b), with its gradient there replaced by (gx, gy)."""
    f = _through(f, a, b)
    dx = evaluate(bp.partial(f, "x"), a, b) - gx
    dy = evaluate(bp.partial(f, "y"), a, b) - gy
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


def _no_xy_conic(rng):
    """a x^2 + b x + c y^2 + d y + e, a and c nonzero: u_x is free of y."""
    a, c = (rng.choice((-1, 1)) * rng.randint(1, 4) for _ in range(2))
    b, d, e = (rng.randint(-5, 5) for _ in range(3))
    return bp.parse(f"({a})*x^2 + ({b})*x + ({c})*y^2 + ({d})*y + ({e})")


def _graph_cubic_and_line(rng):
    """u = A(x) + W(y - m x) and v = y - m x - c: in the coordinates (x,
    y - m x) the Jacobian u_x v_y - u_y v_x is A'(x), free of y."""
    m, c = random_rat(rng, 3), random_rat(rng, 3)
    A = " + ".join(f"({rng.randint(-4, 4)})*x^{i}" for i in range(3)) + f" + ({rng.randint(1, 4)})*x^3"
    W = " + ".join(f"({rng.randint(-4, 4)})*(y - ({m})*x)^{j}" for j in (1, 2, 3))
    return bp.parse(f"{A} + {W}"), bp.parse(f"y - ({m})*x - ({c})")


def test_y_free_systems_agree_with_fiber_route(monkeypatch):
    # the y-free gcd G against Res_y of the two other polynomials: a Holds
    # proved by images takes no squarefree part and no fiber, and every
    # status and witness is the one of the fiber route alone
    rng = random.Random(4040)
    statuses, fibers = [], []
    inner = up.squarefree_part
    monkeypatch.setattr(up, "squarefree_part", lambda f: fibers.append(f) or inner(f))
    for n in range(40):
        if n % 4 < 2:  # conic nonsingularity: u, u_x (free of y), u_y
            u = _no_xy_conic(rng)
            if n % 2:  # plant a singular point at (a, b)
                u = _flatten_at(u, random_rat(rng, 3), random_rat(rng, 3), 0, 0)
            system = _system(u, bp.partial(u, "x"), bp.partial(u, "y"))
        else:  # cubic/line transversality: u, v and the Jacobian A'(x)
            u, v = _graph_cubic_and_line(rng)
            if n % 2:  # plant a tangency at (a, b) on the line: A'(a) = 0
                a = random_rat(rng, 3)
                b = -evaluate(v, a, 0)
                u = _through(bp.sub(u, bp.scalar_mul(evaluate(_jac(u, v), a, b), bp.X)), a, b)
            system = _system(u, v, _jac(u, v))
        if any(bp.is_const(f) for f in system):
            continue
        assert any(bp.deg_y(f) == 0 for f in system)
        status = _agree(system)
        statuses.append(status)
        assert n % 2 == 0 or status == "Fails"
        if status == "Holds":
            del fibers[:]
            variety_empty(system)
            assert not fibers, [bp.to_string(f) for f in system]
    assert statuses.count("Fails") >= 15 and statuses.count("Holds") >= 10
