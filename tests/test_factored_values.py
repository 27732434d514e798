"""The float layer's integral from its factors: prod u_i^{k_i} per point.

numcheck evaluates a factored integral as the product of its factors'
Horner values raised to their exponents by products.  These tests hold
it to exact rational evaluation with a rounding-error bound, and pin its
overflow rule: a power past the float range is an infinity, never an
OverflowError.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polysaddle import bipoly as bp
from polysaddle import numcheck
from polysaddle.numcheck import Orbit, conservation_drift, to_csv

from conftest import evaluate

U = 2.0 ** -53  # unit roundoff of a double


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u)."""
    return n * U / (1 - n * U)


_coeff = st.integers(-9, 9)
# a line a x + b y + c or a conic, nonconstant
_lines = st.tuples(_coeff, _coeff, _coeff).filter(lambda t: t[0] or t[1]).map(
    lambda t: {e: c for e, c in zip(((1, 0), (0, 1), (0, 0)), t) if c})
_conics = st.dictionaries(
    st.sampled_from([(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)]),
    st.integers(-9, 9).filter(bool), min_size=1, max_size=6).filter(
    lambda f: bp.total_degree(f) >= 1)
_factors = st.lists(st.tuples(st.one_of(_lines, _conics),
                              st.one_of(st.integers(1, 5), st.integers(1, 100))),
                    min_size=1, max_size=3)
_coords = st.floats(-1.5, 1.5)


@given(_factors, _coords, _coords)
@settings(max_examples=150, deadline=None)
def test_factored_values_within_the_rounding_bound(factors, x, y):
    # |u~_i - u_i| <= gamma_{2d+1} sum |a| |x^i y^j| for a Horner form in
    # y over x, d = deg_x + deg_y, so u~_i carries a relative error of at
    # most gamma_{2d+1} cond_i; a power by products multiplies it by k_i and
    # adds at most k_i - 1 roundings, and p - 1 products join the powers
    X, Y = Fraction(x), Fraction(y)
    exact, bound = Fraction(1), 2 * len(factors) * U
    for u, k in factors:
        value = evaluate(u, X, Y)
        assume(value != 0)
        size = sum(abs(c) * abs(X) ** i * abs(Y) ** j for (i, j), c in u.items())
        cond = float(size / abs(value))
        bound += 2 * k * (_gamma(2 * (bp.deg_x(u) + bp.deg_y(u)) + 1) * cond + U)
        # no power and no partial product underflows or overflows (every
        # power in the chain of u^k lies between u and u^k)
        assume(1e-300 < abs(value) ** k < 1e300)
        exact *= value ** k
        assume(1e-300 < abs(exact) < 1e300)
    assume(bound < 1e-3)  # the first-order bound holds
    got = numcheck._values(tuple(factors), [(x, y)])[0]
    assert abs(Fraction(got) - exact) <= Fraction(bound) * abs(exact), (factors, x, y)


def test_the_expanded_form_cancels_where_the_factors_do_not():
    # (x + y + 1)^100 (x - y)^100 at (1, 0.99), about 3.7e-153: Horner on
    # the expanded H can be off by gamma sum |a| |x^i y^j|, about 1e77 here,
    # and reads 2.5e37; the factors lose a few roundings
    u, v = bp.parse("x + y + 1"), bp.parse("x - y")
    X, Y = Fraction(1), Fraction(0.99)
    exact = evaluate(u, X, Y) ** 100 * evaluate(v, X, Y) ** 100
    got = numcheck._values(((u, 100), (v, 100)), [(1.0, 0.99)])[0]
    assert math.isclose(got, float(exact), rel_tol=1e-13)
    expanded = numcheck._values(bp.mul(bp.power(u, 100), bp.power(v, 100)), [(1.0, 0.99)])[0]
    assert abs(expanded) > 1e100 * float(exact)


def test_a_bare_polynomial_is_the_one_factor_case():
    H = bp.parse("3*x^2*y - 1/2*y^3 + x - 7")
    pts = [(0.5, -1.25), (2.0, 3.0), (-0.1, 0.7)]
    assert numcheck._values(H, pts) == numcheck._values(((H, 1),), pts)


def test_a_power_past_the_float_range_is_infinite():
    # (1e155)^2 = 1e310 is past the largest double: float ** raises, the
    # kernel's products overflow to inf, and the drift is null
    with pytest.raises(OverflowError):
        1e155 ** 2
    factors = ((bp.parse("x"), 2), (bp.parse("y"), 1))
    assert numcheck._values(factors, [(1e155, 1.0), (1e155, -1.0)]) == [math.inf, -math.inf]
    orbit = Orbit(points=((1e155, 1.0), (1.0, 1.0)), step=1.0)
    assert conservation_drift(factors, orbit) is None
    assert to_csv(orbit, factors).splitlines()[1] == f"0.0,{1e155!r},1.0,inf"


def test_many_factors_compile():
    # more factors than one expression may multiply (numcheck._DEPTH)
    factors = tuple((bp.parse(f"x + {i}*y + 1"), 1 + i % 3) for i in range(1, 80))
    got = numcheck._values(factors, [(0.01, 0.001)])[0]
    X, Y = Fraction(0.01), Fraction(0.001)
    exact = math.prod(evaluate(u, X, Y) ** k for u, k in factors)
    assert math.isclose(got, float(exact), rel_tol=1e-12)
