"""Floating-point cross checks: compiled evaluation, RK4, drift."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysaddle import bipoly as bp
from polysaddle import numcheck
from polysaddle.field_ops import VectorField
from polysaddle.numcheck import (
    Orbit,
    compile_poly,
    conservation_drift,
    integrate_orbit,
    to_csv,
)

SADDLE = VectorField(bp.parse("x"), bp.parse("-y"))
CUSP = VectorField(bp.parse("x"), bp.parse("-2*y"))


# compiled evaluation

def test_compile_poly_matches_exact_evaluation():
    f = bp.parse("3*x^2*y - 1/2*y^3 + x - 7")
    ev = compile_poly(f)
    for x0, y0 in [(0, 0), (1, 2), (-3, 5), (Fraction(1, 4), Fraction(-2, 3))]:
        exact = bp.evaluate(f, Fraction(x0), Fraction(y0))
        assert math.isclose(ev(float(x0), float(y0)), float(exact), rel_tol=1e-12,
                            abs_tol=1e-12)


def test_compile_zero_poly():
    assert compile_poly({})(3.0, 4.0) == 0.0


@given(st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.fractions(min_value=-4, max_value=4, max_denominator=8),
    max_size=6))
@settings(max_examples=60)
def test_compile_poly_random(fd):
    f = {e: c for e, c in fd.items() if c}
    ev = compile_poly(f)
    got = ev(0.5, -1.5)
    exact = float(bp.evaluate(f, Fraction(1, 2), Fraction(-3, 2)))
    assert math.isclose(got, exact, rel_tol=1e-9, abs_tol=1e-9)


# orbit container

def test_orbit_validation():
    with pytest.raises(ValueError):
        Orbit(points=(), step=1e-3)
    orb = Orbit(points=((1.0, 2.0),), step=1e-3)
    assert orb.method == "RK4"


# integration oracles

def test_saddle_orbit_hits_exponential():
    # exact flow: x = e^t, y = e^-t
    orb = integrate_orbit(SADDLE, 1.0, 1.0, 1e-3, 1000)
    assert len(orb.points) == 1001
    xe, ye = orb.points[-1]
    assert abs(xe - math.e) < 1e-11
    assert abs(ye - 1 / math.e) < 1e-11


def test_saddle_drift_tiny():
    orb = integrate_orbit(SADDLE, 1.0, 1.0, 1e-3, 1000)
    assert conservation_drift(bp.parse("x*y"), orb) < 1e-12


def test_drift_normalization():
    # H0 = 0 branch: absolute error is used when |H0| <= 1
    orb = Orbit(points=((0.0, 1.0), (0.5, 1.0)), step=1.0)
    assert conservation_drift(bp.parse("x"), orb) == 0.5


def test_fourth_order_halving_on_cusp():
    # structurally generic field: halving the step cuts the drift of
    # H = x^2 y by about 2^4
    drifts = {}
    for h in (4e-3, 2e-3):
        n = round(1.0 / h)
        orb = integrate_orbit(CUSP, 0.7, 0.4, h, n)
        drifts[h] = conservation_drift(bp.parse("x^2*y"), orb)
    ratio = drifts[4e-3] / drifts[2e-3]
    assert 12 < ratio < 20, ratio


def test_blowup_truncates_orbit():
    # dx/dt = 1 + x^2 escapes to infinity before t = 2; the orbit stops
    # early and never stores a non-finite or absurdly large point
    X = VectorField(bp.parse("1 + x^2"), bp.const(0))
    orb = integrate_orbit(X, 0.0, 0.0, 2e-3, 1000)
    assert len(orb.points) < 1001
    assert all(math.isfinite(a) and math.isfinite(b) for a, b in orb.points)
    assert max(abs(a) for a, _ in orb.points) <= 1e12


def test_integrate_orbit_validation():
    with pytest.raises(ValueError, match="positive"):
        integrate_orbit(SADDLE, 1.0, 1.0, 0.0, 10)
    with pytest.raises(ValueError, match="positive"):
        integrate_orbit(SADDLE, 1.0, 1.0, -1e-3, 10)
    with pytest.raises(ValueError):
        integrate_orbit(SADDLE, 1.0, 1.0, 1e-3, 0)


@pytest.mark.parametrize("x0, y0, step", [
    (math.nan, 1.0, 1e-3), (math.inf, 1.0, 1e-3), (1.0, -math.inf, 1e-3),
    (1.0, 1.0, math.nan), (1.0, 1.0, math.inf),
])
def test_integrate_orbit_rejects_non_finite(x0, y0, step):
    with pytest.raises(ValueError, match="finite"):
        integrate_orbit(SADDLE, x0, y0, step, 10)


# CSV export

def test_to_csv_shape():
    orb = integrate_orbit(SADDLE, 1.0, 1.0, 0.5, 2)
    text = to_csv(orb, bp.parse("x*y"))
    lines = text.splitlines()
    assert lines[0] == "t,x,y,H"
    assert len(lines) == 4
    t0, x0, y0, h0 = lines[1].split(",")
    assert float(t0) == 0.0 and float(x0) == 1.0 and float(h0) == 1.0
    t2 = float(lines[3].split(",")[0])
    assert t2 == 1.0


def test_csv_values_round_trip():
    orb = integrate_orbit(CUSP, 0.5, 0.25, 1e-2, 5)
    ev = compile_poly(bp.parse("x^2*y"))
    for line in to_csv(orb, bp.parse("x^2*y")).splitlines()[1:]:
        _, xs, ys, hs = line.split(",")
        assert math.isclose(ev(float(xs), float(ys)), float(hs), rel_tol=0, abs_tol=0)


# bit identity with a plain-loop reference: the same float operations as
# the generated kernels, written out here without code generation

def _ref_float(c):
    try:
        return float(c)
    except OverflowError:
        return math.inf if c > 0 else -math.inf


def ref_evaluator(f):
    """f as a Horner form in y over Horner forms in x."""
    rows = [[_ref_float(c) for c in row] for row in bp.coeffs_wrt_y(f)]

    def ev(x, y):
        acc = None
        for row in reversed(rows):
            r = row[-1] if row else 0.0
            for c in reversed(row[:-1]):
                r = r * x + c
            acc = r if acc is None else acc * y + r
        return 0.0 if acc is None else acc

    return ev


def ref_orbit(X, x, y, h, n):
    P, Q = ref_evaluator(X.P), ref_evaluator(X.Q)
    pts = [(x, y)]
    for _ in range(n):
        k1x, k1y = P(x, y), Q(x, y)
        x2, y2 = x + 0.5 * h * k1x, y + 0.5 * h * k1y
        k2x, k2y = P(x2, y2), Q(x2, y2)
        x3, y3 = x + 0.5 * h * k2x, y + 0.5 * h * k2y
        k3x, k3y = P(x3, y3), Q(x3, y3)
        x4, y4 = x + h * k3x, y + h * k3y
        k4x, k4y = P(x4, y4), Q(x4, y4)
        x += h / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        y += h / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        if not (math.isfinite(x) and math.isfinite(y)) or abs(x) > 1e12 or abs(y) > 1e12:
            break
        pts.append((x, y))
    return pts


def ref_drift(H, pts):
    ev = ref_evaluator(H)
    h0 = ev(*pts[0])
    gaps = [abs(ev(x, y) - h0) for x, y in pts]
    drift = max(gaps) / max(1.0, abs(h0))
    return drift if math.isfinite(drift) and not math.isnan(sum(gaps)) else None


def ref_csv(pts, step, H):
    ev = ref_evaluator(H)
    return "".join(f"{i * step!r},{x!r},{y!r},{ev(x, y)!r}\n" for i, (x, y) in enumerate(pts))


def _hex(pts):
    return [(x.hex(), y.hex()) for x, y in pts]


def assert_matches_reference(X, H, x0, y0, step, n):
    orb = integrate_orbit(X, x0, y0, step, n)
    pts = ref_orbit(X, x0, y0, step, n)
    assert _hex(orb.points) == _hex(pts)
    got, want = conservation_drift(H, orb), ref_drift(H, pts)
    assert (got.hex() if got is not None else None) == (want.hex() if want is not None else None)
    assert to_csv(orb, H) == "t,x,y,H\n" + ref_csv(pts, step, H)
    ev, ref = compile_poly(H), ref_evaluator(H)
    assert [ev(x, y).hex() for x, y in pts] == [ref(x, y).hex() for x, y in pts]
    return orb, got


_coeffs = st.one_of(st.integers(-9, 9),
                    st.fractions(min_value=-9, max_value=9, max_denominator=97))
_polys = st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)), _coeffs,
                         max_size=8).map(lambda d: {e: c for e, c in d.items() if c})
_starts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.5, 1e11, 1e300, -1e-300]),
                    st.floats(-3, 3))


@given(_polys, _polys, _polys, _starts, _starts,
       st.sampled_from([1e-3, 0.05, 0.7]), st.integers(1, 40))
@settings(max_examples=200, deadline=None)
def test_kernels_match_plain_loop_bit_for_bit(P, Q, H, x0, y0, step, n):
    X = VectorField(P or {(0, 0): 1}, Q)
    assert_matches_reference(X, H, x0, y0, step, n)


@pytest.mark.parametrize("P, Q, H, x0, y0, step, n, points, drift_is_null", [
    # blow-up: the orbit stops early
    ("1 + x^2", "0", "x - y", 0.0, 0.0, 2e-3, 1000, 787, False),
    # negative zeros at the start, and a zero coefficient between two others
    ("x^2 - 1", "-y", "x^3*y - x*y", -0.0, -0.0, 1e-2, 50, 51, False),
    # x^30 (y - 1) evaluates to inf - inf = NaN on the orbit, which stops
    # where x passes 1e12
    ("x", "-y", "x^30*y - x^30", 1.0, 2.0, 0.03, 2000, 922, True),
    # the first step leaves the box, and H(1e300, 1) overflows
    ("x", "-2*y", "x^2*y", 1e300, 1.0, 1e-3, 20, 1, True),
])
def test_kernels_match_plain_loop_at_the_edges(P, Q, H, x0, y0, step, n, points,
                                               drift_is_null):
    X = VectorField(bp.parse(P), bp.parse(Q))
    orb, drift = assert_matches_reference(X, bp.parse(H), x0, y0, step, n)
    assert len(orb.points) == points
    assert (drift is None) == drift_is_null


@pytest.mark.parametrize("P, Q", [
    # rows of 200 and 121 coefficients in x: P and Q written out at each stage
    ("x^199 + x^120*y^3 - y", "y^150 - x"),
    # dense, past numcheck._INLINE coefficients: P and Q called at each stage
    ("(x + 2*y - 1)^60", "(x - y)^61"),
])
def test_deep_horner_forms_compile(P, Q):
    # a Horner form in x of degree 200 nests 200 parentheses deep, which
    # CPython's parser refuses; the kernels break it into statements
    H = bp.parse("x^200 - 3*x^100*y^50 + y^2 - 3")
    X = VectorField(bp.parse(P), bp.parse(Q))
    assert_matches_reference(X, H, 0.5, -0.25, 1e-3, 3)


def test_coefficient_too_large_for_a_float_is_infinite():
    big = 10 ** 400
    X = VectorField({(1, 0): big, (0, 1): Fraction(-big, 3)}, {(0, 0): 1})
    H = {(2, 0): -big, (0, 0): 1}
    orb, drift = assert_matches_reference(X, H, 1.0, 1.0, 1e-3, 5)
    assert len(orb.points) == 1
    assert drift is None
    assert compile_poly(H)(1.0, 0.0) == -math.inf


def test_one_shape_different_coefficients():
    # the two fields (and the two integrals) share a shape, hence a cached
    # kernel; each must still be integrated with its own coefficients
    A = VectorField(bp.parse("2*x + 1"), bp.parse("-3*y"))
    B = VectorField(bp.parse("5*x - 1"), bp.parse("-7*y"))
    assert numcheck._split(A.P)[0] == numcheck._split(B.P)[0]
    oa, _ = assert_matches_reference(A, bp.parse("x*y"), 1.0, 1.0, 1e-2, 10)
    ob, _ = assert_matches_reference(B, bp.parse("3*x*y"), 1.0, 1.0, 1e-2, 10)
    assert oa.points != ob.points
    assert compile_poly(bp.parse("x*y"))(2.0, 3.0) == 6.0
    assert compile_poly(bp.parse("3*x*y"))(2.0, 3.0) == 18.0


def test_kernel_caches_are_bounded():
    for kernel in (numcheck._rk4_kernel, numcheck._value_kernel):
        assert kernel.cache_info().maxsize is not None
