"""Floating-point cross checks: compiled evaluation, RK4, drift."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysaddle import bipoly as bp
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
