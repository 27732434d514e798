"""Saddle linearization certificates with exact identity checks."""

import importlib
import random

import pytest

from polysaddle import bipoly as bp
from polysaddle import field_ops
from polysaddle.field_ops import (
    FactoredIntegral,
    VectorField,
    construct_field,
    expand,
    is_coprime,
    lie_derivative,
    reduce_field,
)
from polysaddle.linearize import factor_split, k_matrix, linearize
from polysaddle.remarkable import integrating_factor, inverse_integrating_factor

from conftest import (assert_certificate, naive_product, random_integral,
                      reduced_constructed_field)

# the package exports the function under the module's name
linearize_module = importlib.import_module("polysaddle.linearize")


def fi(*pairs):
    return FactoredIntegral(tuple((bp.parse(s), k) for s, k in pairs))


TWIN = fi(("y - x^2", 1), ("y + x^2", 2))


# factor_split

def test_factor_split_moves_pivot_last():
    F = fi(("x", 1), ("y", 2), ("x + y - 1", 3))
    G = factor_split(F, 2)
    assert [k for _, k in G.factors] == [1, 3, 2]
    assert G.factors[-1][0] == bp.parse("y")
    same = factor_split(F, 3)
    assert same.factors == F.factors


def test_factor_split_range_check():
    with pytest.raises(ValueError, match="out of range"):
        factor_split(TWIN, 3)
    with pytest.raises(ValueError, match="out of range"):
        factor_split(TWIN, 0)


# k_matrix oracles

def test_k_matrix_product_saddle():
    K1, K2, K3, K4 = k_matrix(fi(("x", 1), ("y", 1)))
    assert K1 == bp.ONE
    assert K2 == {}
    assert K3 == {}
    assert K4 == bp.ONE


def test_k_matrix_twin_parabolas():
    K1, K2, K3, K4 = k_matrix(TWIN)
    assert K1 == bp.parse("-2*x")
    assert K2 == bp.ONE
    assert K3 == bp.parse("4*x")
    assert K4 == bp.parse("2")


def test_k_matrix_rebuilds_constructed_field():
    # the last product-rule step: F.field = (K4 W + K2 u_p, -K1 u_p - K3 W)
    rng = random.Random(79)
    done = 0
    while done < 10:
        F = random_integral(rng, max_p=5)
        if F.p < 2:
            continue
        X = construct_field(F)
        for pivot in range(1, F.p + 1):
            S = factor_split(F, pivot)
            K1, K2, K3, K4 = k_matrix(S)
            up = S.factors[-1][0]
            W = bp.ONE
            for u, _ in S.factors[:-1]:
                W = bp.mul(W, u)
            assert X.P == bp.add(bp.mul(K4, W), bp.mul(K2, up))
            assert X.Q == bp.neg(bp.add(bp.mul(K1, up), bp.mul(K3, W)))
            assert construct_field(S) == X  # so factor_split may share F.field
        done += 1


@pytest.mark.parametrize("all_k_one", [False, True])
def test_products_match_naive_chains_at_every_pivot(all_k_one):
    # R, V and H are read off the quadruple of all the factors, u = W R~
    # off the head quadruple; each equals its plain chain of products, at
    # every pivot, also for p = 1 and when every k_i = 1
    rng = random.Random(80)
    sizes, certs = set(), 0
    for _ in range(16):
        F = random_integral(rng, max_p=4, all_k_one=all_k_one)
        sizes.add(F.p)
        X = reduced_constructed_field(F)
        for pivot in range(1, F.p + 1):
            S = factor_split(F, pivot)
            assert integrating_factor(S) == naive_product((u, k - 1) for u, k in S.factors)
            assert inverse_integrating_factor(S) == naive_product((u, 1) for u, _ in S.factors)
            assert expand(S) == naive_product(S.factors)
            if S.p < 2:
                continue
            try:
                cert = linearize(S, X)
            except bp.ExactDivisionError:
                raise
            except ArithmeticError:
                continue  # D = 0: a degenerate split has no certificate
            assert cert.u_expr == naive_product(S.factors[:-1])
            assert cert.v_expr == naive_product(S.factors[-1:])
            certs += 1
    assert sizes == {1, 2, 3, 4}
    assert certs >= 10


def test_k_matrix_needs_two_factors():
    with pytest.raises(ValueError):
        k_matrix(fi(("x", 2)))


# worked certificates

def test_linearize_product_saddle():
    F = fi(("x", 1), ("y", 1))
    X = construct_field(F)
    cert = linearize(F, X)
    assert cert.u_expr == bp.parse("x")
    assert cert.v_expr == bp.parse("y")
    assert cert.D == bp.ONE
    assert cert.G == bp.ONE
    assert cert.hamiltonian_input  # xy is Hamiltonian for (x, -y)
    assert_certificate(cert, X)


def test_linearize_twin_parabolas():
    cert = linearize(TWIN, construct_field(TWIN))
    assert cert.u_expr == bp.parse("y - x^2")
    assert cert.v_expr == bp.parse("(y + x^2)^2")
    assert cert.D == bp.parse("-8*x")
    assert cert.G == bp.ONE
    assert not cert.hamiltonian_input
    assert cert.time_change == "dtau = (-8*x) / (1) dt"


def test_linearize_cusp_pivot_choice():
    F = fi(("x", 2), ("y", 1))
    X = construct_field(F)
    cert = linearize(factor_split(F, 1), X)  # pivot x: v = x^2
    assert cert.v_expr == bp.parse("x^2")
    assert cert.u_expr == bp.parse("y")
    assert cert.D == bp.parse("-2")
    cert2 = linearize(F, X)  # default order: v = y
    assert cert2.v_expr == bp.parse("y")
    assert cert2.D == bp.parse("2")


def test_certificate_identities_recheck():
    X = construct_field(TWIN)
    assert_certificate(linearize(TWIN, X), X)


def test_every_pivot_gives_a_certificate():
    F = fi(("x", 1), ("y", 2), ("x + y - 1", 1))
    X = construct_field(F)
    for pivot in range(1, F.p + 1):
        cert = linearize(factor_split(F, pivot), X)
        assert_certificate(cert, X)
        assert bp.mul(cert.u_expr, cert.v_expr) == expand(F)


# error paths

def test_wrong_field_raises_with_remainder():
    X = VectorField(bp.parse("x"), bp.parse("y"))  # not an annihilator
    with pytest.raises(bp.ExactDivisionError) as ei:
        linearize(TWIN, X)
    assert not bp.is_zero(ei.value.remainder)
    # the remainder is exactly the nonzero Lie derivative
    assert ei.value.remainder == lie_derivative(X, expand(TWIN))


def _perturbed_field(F, X):
    """X plus t in {1, x, y} on one component, kept coprime: X(H) gains
    t H_x (or t H_y), so a field that annihilated H no longer does."""
    H = expand(F)
    for t in (bp.ONE, bp.parse("x"), bp.parse("y")):
        if not bp.is_zero(bp.partial(H, "x")):
            cand = VectorField(bp.add(X.P, t), X.Q)
            if is_coprime(cand):
                return cand
        if not bp.is_zero(bp.partial(H, "y")):
            cand = VectorField(X.P, bp.add(X.Q, t))
            if is_coprime(cand):
                return cand
    return None


def test_witness_is_the_lie_derivative_at_every_pivot():
    # the Lie derivative of H is computed only once an identity fails, and
    # it is still the witness, whichever identity failed first
    rng = random.Random(1103)
    done = 0
    while done < 25:
        F = random_integral(rng, max_p=4)
        if F.p < 2:
            continue
        bad = _perturbed_field(F, reduced_constructed_field(F))
        lie = lie_derivative(bad, expand(F))
        assert not bp.is_zero(lie)
        for pivot in range(1, F.p + 1):
            with pytest.raises(bp.ExactDivisionError) as ei:
                linearize(factor_split(F, pivot), bad)
            assert ei.value.remainder == lie
        done += 1


def test_degenerate_split_with_wrong_field_reports_the_lie_derivative():
    # D = 0 identically for x(x + 1), and (1, 0) does not annihilate
    # H = x^2 + x: the witness is X(H) = 2x + 1, not the degenerate split
    F = fi(("x", 1), ("x + 1", 1))
    X = VectorField(bp.ONE, {})
    K1, K2, K3, K4 = k_matrix(F)
    assert bp.is_zero(bp.sub(bp.mul(K1, K4), bp.mul(K2, K3)))
    with pytest.raises(bp.ExactDivisionError) as ei:
        linearize(F, X)
    assert ei.value.remainder == bp.parse("2*x + 1") == lie_derivative(X, expand(F))


def test_verified_certificate_never_expands_the_integral(monkeypatch):
    # G X = F.field and D != 0 imply X(H) = 0 and both saddle pullbacks
    # (module docstring), so a certificate that verifies expands no H and
    # takes no Lie derivative; assert_certificate rechecks the pullbacks
    calls = []
    inner = field_ops.lie_derivative

    def counted(X, H):
        calls.append(H)
        return inner(X, H)

    monkeypatch.setattr(field_ops, "lie_derivative", counted)
    monkeypatch.setattr(linearize_module, "lie_derivative", counted)
    F = fi(("x", 1), ("y", 2), ("x + y - 1", 1))
    X = reduced_constructed_field(F)
    splits = [F] + [factor_split(F, pivot) for pivot in range(1, F.p + 1)]
    certs = [linearize(G, X) for G in splits]
    assert not any("H" in vars(G) for G in splits)
    assert calls == []
    monkeypatch.undo()
    for cert in certs:
        assert_certificate(cert, X)


def test_perturbed_coefficient_raises():
    X = construct_field(TWIN)
    bad = VectorField(bp.add(X.P, bp.parse("x")), X.Q)
    with pytest.raises(bp.ExactDivisionError) as ei:
        linearize(TWIN, bad)
    assert not bp.is_zero(ei.value.remainder)


def test_degenerate_split_detected():
    # u = x, v = x + 1: gradients everywhere parallel, D = 0 identically
    F = fi(("x", 1), ("x + 1", 1))
    X = VectorField({}, bp.parse("-1"))
    # X annihilates nothing here; build the honest annihilator of x(x+1):
    # H = x^2 + x, H_y = 0, so (0, Q) annihilates for any Q; pick Q = -1
    assert bp.is_zero(lie_derivative(X, expand(F)))
    with pytest.raises(ArithmeticError, match="degenerate"):
        linearize(F, X)


def test_preconditions():
    with pytest.raises(ValueError, match="two factors"):
        linearize(fi(("x", 2)), VectorField(bp.parse("x"), bp.parse("-2*y")))
    X = construct_field(TWIN)
    scaled = VectorField(bp.mul(X.P, bp.parse("x")), bp.mul(X.Q, bp.parse("x")))
    with pytest.raises(ValueError, match="coprime"):
        linearize(TWIN, scaled)


# random family

def test_random_family_certificates():
    rng = random.Random(78)
    done = 0
    while done < 12:
        F = random_integral(rng)
        if F.p < 2:
            continue
        X, _ = reduce_field(construct_field(F))
        try:
            cert = linearize(F, X)
        except ArithmeticError:
            continue  # degenerate split: determinant vanishes identically
        assert_certificate(cert, X)
        assert bp.mul(cert.u_expr, cert.v_expr) == expand(F)
        done += 1
