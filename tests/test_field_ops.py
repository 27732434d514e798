"""Field synthesis, Lie derivatives, multipliers, Hamiltonian recovery."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polysaddle import bipoly as bp
from polysaddle.field_ops import (
    FactoredIntegral,
    VectorField,
    cofactor,
    construct_field,
    expand,
    is_coprime,
    is_first_integral,
    is_hamiltonian,
    lie_derivative,
    minimal_degree_check,
    multiplicity_product,
    quotient_multiplier,
    reduce_field,
    _lie_of_integral,
)

from conftest import evaluate, random_coprime_field, random_factor, random_integral


def fi(*pairs):
    return FactoredIntegral(tuple((bp.parse(s), k) for s, k in pairs))


# constructors and validation

def test_factored_integral_rejects_bad_input():
    with pytest.raises(ValueError, match="at least one factor"):
        FactoredIntegral(())
    with pytest.raises(ValueError, match="constant"):
        fi(("3", 1))
    with pytest.raises(ValueError, match="positive"):
        fi(("x", 0))
    with pytest.raises(ValueError, match="primitive"):
        fi(("2*x", 1))
    with pytest.raises(ValueError, match="primitive"):
        fi(("1/2*x + 1", 1))
    # Fraction arithmetic leaves Fraction(1, 1) here; x + 2 is primitive
    assert fi(("(1/2*x + 1)*2", 1)).factors[0][0] == bp.parse("x + 2")
    with pytest.raises(ValueError, match="share the divisor"):
        fi(("x*y", 1), ("x", 2))


def test_factored_integral_allows_sign_choice():
    # -x is primitive up to sign; the caller's sign is preserved
    F = fi(("-x + y", 1), ("x + y", 1))
    assert F.factors[0][0] == bp.parse("y - x")


def test_vector_field_basics():
    X = VectorField(bp.parse("x"), bp.parse("-2*y"))
    assert X.degree == 1
    assert "x" in str(X)
    with pytest.raises(ValueError):
        VectorField({}, {})


def test_expand():
    F = fi(("y - x^2", 1), ("y + x^2", 2))
    assert expand(F) == bp.parse("(y - x^2)*(y + x^2)^2")


# construction oracles

def test_construct_product_saddle():
    X = construct_field(fi(("x", 1), ("y", 1)))
    assert X.P == bp.parse("x")
    assert X.Q == bp.parse("-y")


def test_construct_cusp_weights():
    X = construct_field(fi(("x", 2), ("y", 1)))
    assert X.P == bp.parse("x")
    assert X.Q == bp.parse("-2*y")


def test_construct_twin_parabolas():
    X = construct_field(fi(("y - x^2", 1), ("y + x^2", 2)))
    assert X.P == bp.parse("3*y - x^2")
    assert X.Q == bp.parse("6*x^3 - 2*x*y")


def test_construct_single_factor_is_scaled_hamiltonian():
    X = construct_field(fi(("y - x^2", 3)))
    assert X.P == bp.parse("3")
    assert X.Q == bp.parse("6*x")


def test_constructed_field_annihilates_integral():
    rng = random.Random(71)
    for _ in range(25):
        F = random_integral(rng)
        X = construct_field(F)
        assert is_first_integral(X, expand(F))


def reference_field(F):
    """The construction formula written out: P = sum_l k_l prod_{i != l} u_i
    (u_l)_y and Q = -sum_l k_l prod_{i != l} u_i (u_l)_x."""
    P, Q = {}, {}
    for l, (u, k) in enumerate(F.factors):
        others = bp.ONE
        for i, (v, _) in enumerate(F.factors):
            if i != l:
                others = bp.mul(others, v)
        coeff = bp.scalar_mul(k, others)
        P = bp.add(P, bp.mul(coeff, bp.partial(u, "y")))
        Q = bp.sub(Q, bp.mul(coeff, bp.partial(u, "x")))
    return P, Q


def test_construct_matches_reference_formula():
    rng = random.Random(75)
    sizes = set()
    for _ in range(30):
        F = random_integral(rng, max_p=6)
        X = construct_field(F)
        assert (X.P, X.Q) == reference_field(F)
        sizes.add(F.p)
    assert sizes == set(range(1, 7))


def test_head_field_is_the_head_factors_triple():
    # (P, Q, W) of every factor but the last: the head's own constructed
    # field and the product of its factors; F.field is one step on from
    # it.  prod u_i^{k_i-1} is no part of the triple: over the head it is
    # multiplicity_product, over all the factors F.R
    rng = random.Random(81)
    for _ in range(20):
        F = random_integral(rng, max_p=5)
        P, Q, W = F.head_field
        want_R = bp.ONE
        for u, k in F.factors:
            want_R = bp.mul(want_R, bp.power(u, k - 1))
        assert F.R == want_R
        if F.p == 1:
            assert (P, Q, W) == ({}, {}, bp.ONE)
            assert multiplicity_product(F.factors[:-1]) == bp.ONE
            continue
        head = FactoredIntegral(F.factors[:-1])
        assert (P, Q) == reference_field(head)
        want_W = bp.ONE
        want_R = bp.ONE
        for u, k in head.factors:
            want_W = bp.mul(want_W, u)
            want_R = bp.mul(want_R, bp.power(u, k - 1))
        assert W == want_W
        assert multiplicity_product(head.factors) == head.R == want_R
        assert (F.field.P, F.field.Q) == reference_field(F)


# Lie derivative

def test_lie_derivative_oracle():
    X = VectorField(bp.parse("x"), bp.parse("-2*y"))
    assert lie_derivative(X, bp.parse("x^2*y")) == {}
    assert lie_derivative(X, bp.parse("x*y")) == bp.parse("-x*y")


def test_is_first_integral_rejects_wrong_field():
    X = VectorField(bp.parse("x"), bp.parse("y"))
    assert not is_first_integral(X, bp.parse("x*y"))


def test_lie_of_integral_matches_the_expanded_integral():
    # X(H) = R (P0 Q - Q0 P) read off the factors, against the Lie
    # derivative of the expanded H, for a coprime field that does not
    # annihilate H, the constructed field and a non-coprime multiple of it
    rng = random.Random(1907)
    for _ in range(40):
        F = random_integral(rng, max_p=3, max_k=3)
        H = expand(F)
        g = random_factor(rng, max_deg=2)
        fields = (random_coprime_field(rng), F.field,
                  VectorField(bp.mul(g, F.field.P), bp.mul(g, F.field.Q)))
        for X in fields:
            assert _lie_of_integral(F, X) == lie_derivative(X, H), (str(F), str(X))
        assert _lie_of_integral(F, fields[0]), str(F)


# reduction and multipliers

def test_reduce_field_oracle():
    g = bp.parse("x^2 + 1")
    X = VectorField(bp.mul(g, bp.parse("x")), bp.mul(g, bp.parse("-y")))
    Xr, got = reduce_field(X)
    assert got == g
    assert Xr.P == bp.parse("x")
    assert Xr.Q == bp.parse("-y")
    assert is_coprime(Xr)


def test_reduce_field_already_coprime():
    X = VectorField(bp.parse("x"), bp.parse("-y"))
    Xr, g = reduce_field(X)
    assert g == bp.ONE
    assert Xr == X


def test_quotient_multiplier_round_trip():
    rng = random.Random(72)
    for _ in range(25):
        X = random_coprime_field(rng)
        g = bp.parse("x*y + 2")
        X2 = VectorField(bp.mul(g, X.P), bp.mul(g, X.Q))
        assert quotient_multiplier(X2, X) == g


def test_quotient_multiplier_failure_carries_remainder():
    # G = x^2 / x = x, and the witness is Q2 - G Q1 = y - x*(-y)
    X = VectorField(bp.parse("x"), bp.parse("-y"))
    X2 = VectorField(bp.parse("x^2"), bp.parse("y"))
    with pytest.raises(bp.ExactDivisionError) as ei:
        quotient_multiplier(X2, X)
    assert ei.value.remainder == bp.parse("x*y + y")


def test_quotient_multiplier_witness_when_p_vanishes():
    # P1 = 0: G = Q2 / Q1 = y, and the witness is P2 itself
    X = VectorField(bp.ZERO, bp.parse("2"))
    X2 = VectorField(bp.parse("x^2 + y"), bp.parse("2*y"))
    with pytest.raises(bp.ExactDivisionError) as ei:
        quotient_multiplier(X2, X)
    assert ei.value.remainder == bp.parse("x^2 + y")


def test_quotient_multiplier_p_does_not_divide():
    # x does not divide x^2 + y: exact_div's remainder is the witness
    X = VectorField(bp.parse("x"), bp.parse("-y"))
    X2 = VectorField(bp.parse("x^2 + y"), bp.parse("x*y"))
    with pytest.raises(bp.ExactDivisionError) as ei:
        quotient_multiplier(X2, X)
    assert ei.value.remainder == bp.parse("y")


def test_quotient_multiplier_requires_coprime_reference():
    X = VectorField(bp.parse("x^2"), bp.parse("x*y"))
    with pytest.raises(ValueError, match="coprime"):
        quotient_multiplier(X, X)


# Hamiltonian detection

def test_is_hamiltonian_positive():
    X = VectorField(bp.parse("x"), bp.parse("-y"))
    H = is_hamiltonian(X)
    assert H == bp.parse("x*y")
    assert bp.partial(H, "y") == X.P
    assert bp.partial(H, "x") == bp.neg(X.Q)


def test_is_hamiltonian_negative():
    assert is_hamiltonian(VectorField(bp.parse("x"), bp.parse("-2*y"))) is None


@given(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                       st.fractions(min_value=-5, max_value=5, max_denominator=6),
                       max_size=6))
@settings(max_examples=150)
def test_is_hamiltonian_recovers_the_potential(h):
    # _potential no longer rechecks its partials: the Hamiltonian of
    # (h_y, -h_x) must be h itself, less its constant term
    h = {e: c for e, c in h.items() if c}
    assume(not bp.is_const(h))
    X = VectorField(bp.partial(h, "y"), bp.neg(bp.partial(h, "x")))
    assert is_hamiltonian(X) == bp.sub(h, bp.const(evaluate(h, 0, 0)))


def test_all_unit_exponents_give_hamiltonian_field():
    rng = random.Random(73)
    for _ in range(20):
        F = random_integral(rng, all_k_one=True)
        X = construct_field(F)
        H = is_hamiltonian(X)
        assert H is not None
        assert is_first_integral(X, H)


# cofactors

def test_cofactor_oracle():
    X = VectorField(bp.parse("x"), bp.parse("-2*y"))
    assert cofactor(bp.parse("x"), X) == bp.ONE
    assert cofactor(bp.parse("y"), X) == bp.parse("-2")
    assert cofactor(bp.parse("x + y"), X) is None
    with pytest.raises(ValueError):
        cofactor(bp.parse("5"), X)


def test_every_factor_is_invariant():
    rng = random.Random(74)
    for _ in range(15):
        F = random_integral(rng)
        X = construct_field(F)
        for u, _ in F.factors:
            K = cofactor(u, X)
            assert K is not None
            assert lie_derivative(X, u) == bp.mul(K, u)


# degree bookkeeping

def test_minimal_degree_check_holds():
    res = minimal_degree_check(fi(("y - x^2", 1), ("y + x^2", 2)))
    assert res.status == "Holds"
    res = minimal_degree_check(fi(("x", 1), ("y", 1)))
    assert res.status == "Holds"


def test_minimal_degree_check_requires_two_factors():
    with pytest.raises(ValueError):
        minimal_degree_check(fi(("x", 2)))


def test_minimal_degree_on_random_family():
    rng = random.Random(75)
    for _ in range(20):
        F = random_integral(rng)
        if F.p < 2:
            continue
        res = minimal_degree_check(F)
        X = construct_field(F)
        if is_coprime(X):
            expected = sum(bp.total_degree(u) for u, _ in F.factors) - 1
            assert res.status == "Holds" and X.degree == expected
        else:
            assert res.status == "Fails"
