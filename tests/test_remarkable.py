"""Integrating factors, critical remarkable values, degree relations."""

import glob
import os
import random
from fractions import Fraction

import pytest

from polysaddle import bipoly as bp
from polysaddle import cli, upoly
from polysaddle.field_ops import (
    FactoredIntegral,
    VectorField,
    construct_field,
    expand,
    is_first_integral,
    reduce_field,
)
from polysaddle.remarkable import (
    analyze,
    critical_remarkable_values,
    integral_degree_check,
    integral_from_factor,
    integrating_factor,
    inverse_factor_degree_check,
    inverse_integrating_factor,
    single_critical_value_criterion,
    verify_integrating_factor,
)

from conftest import (naive_product, random_coprime_field, random_integral,
                      random_line_family, sylvester_from_coeffs)


def fi(*pairs):
    return FactoredIntegral(tuple((bp.parse(s), k) for s, k in pairs))


TWIN = fi(("y - x^2", 1), ("y + x^2", 2))
CUSP = fi(("x", 2), ("y", 1))


# integrating factor bookkeeping

def test_factor_formulas():
    assert integrating_factor(TWIN) == bp.parse("y + x^2")
    assert inverse_integrating_factor(TWIN) == bp.parse("(y - x^2)*(y + x^2)")
    assert integrating_factor(fi(("x", 1), ("y", 1))) == bp.ONE


def test_verify_integrating_factor():
    X = construct_field(TWIN)
    assert verify_integrating_factor(X, integrating_factor(TWIN))
    assert not verify_integrating_factor(X, bp.parse("x"))


def test_integral_from_factor_round_trip():
    X = construct_field(CUSP)
    H = integral_from_factor(X, integrating_factor(CUSP))
    # same integral up to the stated normalization (constant term 0)
    assert bp.is_zero(bp.sub(H, expand(CUSP))) or bp.is_const(bp.sub(H, expand(CUSP)))


def test_integral_from_factor_rejects_non_factor():
    X = construct_field(CUSP)
    with pytest.raises(ArithmeticError):
        integral_from_factor(X, bp.parse("y"))


# critical remarkable values: frozen oracles
# convention: returned c satisfy gcd(H + c, H_x, H_y) nonconstant

def test_critical_values_worked_examples():
    assert critical_remarkable_values(bp.parse("x^2*y"))[0] == [0]
    assert critical_remarkable_values(bp.parse("x*y")) == ([], None)
    vals, resid = critical_remarkable_values(bp.parse("(y - x^2)*(y + x^2)^2"))
    assert vals == [0] and resid is None


def test_critical_values_two_rational():
    # H = w(w-1)^2 in w = xy: critical levels 0 and 4/27, reported negated
    vals, resid = critical_remarkable_values(bp.parse("x*y*(x*y - 1)^2"))
    assert vals == [Fraction(-4, 27), Fraction(0)]
    assert resid is None


def test_critical_values_residual_for_irrational_levels():
    # H = w^2(w^2 - w - 1) in w = xy: level 0 is rational, the other two
    # critical levels are (conjugate) irrationals caught by the residual
    vals, resid = critical_remarkable_values(bp.parse("x^2*y^2*(x^2*y^2 - x*y - 1)"))
    assert vals == [0]
    assert resid is not None
    assert upoly.degree(resid) == 2
    assert upoly.rational_roots(resid) == []
    # roots of the residual are -psi(w*) for psi(w) = w^4 - w^3 - w^2 at
    # the two irrational critical points w* = (3 +- sqrt(41))/8
    assert resid == upoly.make([Fraction(5, 64), Fraction(-299, 256), Fraction(1)])


def test_critical_values_isolated_singularity_invisible():
    # gradient vanishes only at the origin: no level has a multiple
    # component, so no remarkable value and nothing left over
    assert critical_remarkable_values(bp.parse("x^2 + y^3")) == ([], None)


def _assert_levels_reverify(H, vals, residual):
    """Each value c is critical by the gcd of the definition, and the
    residual keeps no rational root that should have been a value."""
    Hx, Hy = bp.partial(H, "x"), bp.partial(H, "y")
    for c in vals:
        g = bp.gcd_many([bp.add(H, bp.const(c)), Hx, Hy])
        assert not bp.is_const(g), (bp.to_string(H), c)
    assert residual is None or upoly.rational_roots(residual) == [], bp.to_string(H)


def _reverify_integrals():
    """Seeded factored integrals: line families, random integrals with
    p = 1..4, x-free and y-free integrals, and the problem files."""
    rng = random.Random(1201)
    out = [random_line_family(rng, max_p=4) for _ in range(12)]
    for p in range(1, 5):
        for _ in range(6):
            F = random_integral(rng, max_p=p, max_deg=2 if p > 2 else 3)
            while F.p != p:
                F = random_integral(rng, max_p=p, max_deg=2 if p > 2 else 3)
            out.append(F)
    out += [fi(("y", 2), ("y + 1", 1)), fi(("x^3 - 2*x + 1", 2)),
            fi(("x", 2), ("x - 1", 1), ("x + 2", 3)), fi(("y^2 - 2", 2), ("y", 1))]
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "problems")
    out += [cli.load_problem(p).integral for p in sorted(glob.glob(os.path.join(root, "*.json")))]
    return out


def test_critical_values_every_confirmed_value_reverifies():
    # values are read off the components of G = 0 with no confirming gcd
    # (proof in the remarkable module docstring); recheck each by the
    # definition, on the bare-H route and on the factored one
    H = bp.parse("x*y*(x*y - 1)^2")
    vals, residual = critical_remarkable_values(H)
    assert vals == [Fraction(-4, 27), Fraction(0)]
    _assert_levels_reverify(H, vals, residual)
    seen = 0
    for F in _reverify_integrals():
        H = expand(F)
        a = analyze(F)
        _assert_levels_reverify(H, a.critical_values, a.residual)
        assert (list(a.critical_values), a.residual) == critical_remarkable_values(H), str(F)
        seen += len(a.critical_values)
    assert seen >= 40


def test_critical_values_degenerate_inputs():
    with pytest.raises(ValueError, match="constant"):
        critical_remarkable_values(bp.const(3))
    # x-free and y-free integrals: one partial vanishes, the other alone
    # carries the gradient gcd
    assert critical_remarkable_values(bp.parse("y^2*(y - 1)")) == (
        [Fraction(0), Fraction(4, 27)], None)
    vals, resid = critical_remarkable_values(bp.parse("(x^3 - 2*x + 1)^2"))
    assert vals == [0]
    assert resid == upoly.make([Fraction(25, 729), Fraction(118, 27), Fraction(1)])


# the Sylvester elimination route, kept as an independent oracle: it
# eliminates y from (H + c, H_x) and x from (H + c, H_y) with c symbolic,
# by Bareiss determinants over Q[x, c]

def _coeffs_with_c(f, main, add_c):
    """Coefficients of f with respect to `main`, each lifted into the
    two-slot ring Q[other, c]; add_c injects +c into the constant one."""
    g = f if main == "y" else bp.swap_vars(f)
    out = [bp.from_upoly_x(p) for p in bp.coeffs_wrt_y(g)]
    if add_c:
        if not out:
            out = [{}]
        out[0] = bp.add(out[0], {(0, 1): Fraction(1)})
    return out


def _route_candidates(H, deriv, main):
    """Polynomial in c whose roots are the candidate levels of this route,
    or None when deriv is free of `main`."""
    dmain = bp.deg_y(deriv) if main == "y" else bp.deg_x(deriv)
    if dmain < 1:
        return None
    fc = _coeffs_with_c(H, main, add_c=True)
    gc = _coeffs_with_c(deriv, main, add_c=False)
    res = bp.det_bareiss(sylvester_from_coeffs(fc, gc))
    assert not bp.is_zero(res), "level family shares a factor for generic c"
    per_power = bp.coeffs_wrt_y(bp.swap_vars(res))
    return upoly.gcd_many([p for p in per_power if not upoly.is_zero(p)])


def shift_out_rational_roots(f):
    """Divide out every rational linear factor, returning the rootless cofactor."""
    g = f
    for r, m in upoly.rational_roots(f):
        lin = upoly.make([-r, 1])
        for _ in range(m):
            g = upoly.divmod_exact_field(g, lin)[0]
    return g


def elimination_critical_values(H):
    Hx, Hy = bp.partial(H, "x"), bp.partial(H, "y")
    N = upoly.ONE
    for route in (_route_candidates(H, Hx, "y"), _route_candidates(H, Hy, "x")):
        if route is not None:
            N = upoly.mul(N, route)
    if upoly.is_const(N):
        return [], None
    vals = [c0 for c0, _ in upoly.rational_roots(N)
            if not bp.is_const(bp.gcd_many([bp.add(H, bp.const(c0)), Hx, Hy]))]
    residual = shift_out_rational_roots(upoly.squarefree_part(N))
    return vals, (None if upoly.is_const(residual) else residual)


def test_critical_values_agree_with_elimination_route():
    # the elimination route may keep spurious nonrational candidates (a
    # factor shared with one partial only), so its residual is a multiple
    # of the exact one; degrees are capped where that route gets slow
    rng = random.Random(4242)
    cases = [(expand(random_line_family(rng, max_p=4)), 5) for _ in range(20)]
    cases += [(expand(random_integral(rng, max_p=2, max_deg=3, max_k=2)), 7)
              for _ in range(60)]
    # two rational values; one rational value plus an irrational pair
    cases += [(bp.parse(s), 8) for s in ("x*y*(x*y - 1)^2", "x^2*y^2*(x^2*y^2 - x*y - 1)")]
    compared = 0
    for H, max_degree in cases:
        if (bp.total_degree(H) > max_degree
                or bp.is_zero(bp.partial(H, "x")) or bp.is_zero(bp.partial(H, "y"))):
            continue
        vals, resid = critical_remarkable_values(H)
        old_vals, old_resid = elimination_critical_values(H)
        assert vals == old_vals, bp.to_string(H)
        assert resid is None or (old_resid is not None
                                 and upoly.divides(resid, old_resid)), bp.to_string(H)
        compared += 1
    assert compared >= 60


def test_gradient_gcd_from_factors():
    # H_y = R*P0 and H_x = -R*Q0, so gcd(H_x, H_y) = R*gcd(P0, Q0); analyze
    # relies on this instead of a gcd of the expanded H's partials
    rng = random.Random(2718)
    integrals = [random_line_family(rng, max_p=4) for _ in range(20)]
    integrals += [random_integral(rng, max_p=2, max_deg=3, max_k=2) for _ in range(40)]
    integrals += [fi(("y", 2), ("y + 1", 1)), fi(("x^3 - 2*x + 1", 2))]  # x-free, y-free
    for F in integrals:
        H = expand(F)
        X0 = construct_field(F)
        want = bp.gcd(bp.partial(H, "x"), bp.partial(H, "y"))
        got = bp.normalize(bp.mul(integrating_factor(F), X0.common_factor))
        assert got == want, str(F)
        assert analyze(F).critical_values == tuple(critical_remarkable_values(H)[0]), str(F)


def test_factor_bookkeeping_multiplies_back_to_the_integral():
    # R, V and H = R * V are read off the product-rule quadruple; each is
    # checked against its plain chain of products
    rng = random.Random(2719)
    for p in range(1, 7):
        for _ in range(3):
            F = random_integral(rng, max_p=p, max_deg=2)
            while F.p != p:
                F = random_integral(rng, max_p=p, max_deg=2)
            a = analyze(F)
            H = naive_product(F.factors)
            assert bp.mul(a.R, a.V) == H == expand(F), str(F)
            assert a.R == naive_product((u, k - 1) for u, k in F.factors)
            assert a.V == naive_product((u, 1) for u, _ in F.factors)


def _annihilation_cases(rng):
    """(F, X) with X coprime: reduced and scaled constructed fields, which
    annihilate H, and perturbed, foreign and random fields, which do not."""
    while True:
        F = random_integral(rng, max_p=3, max_k=3)
        if not any(k > 1 for _, k in F.factors):
            continue
        X, _ = reduce_field(construct_field(F))
        yield F, X
        c = Fraction(-3, 7)
        yield F, VectorField(bp.scalar_mul(c, X.P), bp.scalar_mul(c, X.Q))
        H = expand(F)
        for t in (bp.ONE, bp.parse("x"), bp.parse("y")):
            for cand in (VectorField(bp.add(X.P, t), X.Q), VectorField(X.P, bp.add(X.Q, t))):
                if bp.is_const(bp.gcd(cand.P, cand.Q)):
                    yield F, cand
        other, _ = reduce_field(construct_field(random_integral(rng, max_p=2)))
        yield F, other
        yield F, random_coprime_field(rng)


def test_annihilation_by_division_agrees_with_lie_derivative():
    # the criterion tests F.field = G X instead of X(H) = 0; for coprime X
    # the two are equivalent (proof in its docstring)
    rng = random.Random(2720)
    cases = _annihilation_cases(rng)
    seen = {True: 0, False: 0}
    analyses = {}
    while min(seen.values()) < 40:
        F, X = next(cases)
        want = is_first_integral(X, expand(F))
        seen[want] += 1
        if str(F) not in analyses:
            analyses[str(F)] = analyze(F)
        a = analyses[str(F)]
        if want:
            single_critical_value_criterion(F, X, a)
        else:
            with pytest.raises(ValueError, match="does not annihilate"):
                single_critical_value_criterion(F, X, a)


# analysis bundle

def test_analyze_twin_parabolas():
    a = analyze(TWIN)
    assert a.critical_values == (0,)
    assert a.residual is None
    assert a.s == 1
    assert a.d == 2
    assert a.R == bp.parse("y + x^2")
    assert bp.mul(a.R, a.V) == expand(TWIN)


def test_analyze_cusp():
    a = analyze(CUSP)
    assert a.critical_values == (0,)
    assert a.s == 1 and a.d == 1
    assert a.V == bp.parse("x*y")


# criterion and degree checks on worked examples

def test_single_critical_value_criterion_holds():
    for F in (TWIN, CUSP):
        X = construct_field(F)
        res = single_critical_value_criterion(F, X)
        assert res.ok, res.reason


def test_single_critical_value_criterion_preconditions():
    F1 = fi(("x", 1), ("y", 1))
    with pytest.raises(ValueError, match="k_i > 1"):
        single_critical_value_criterion(F1, construct_field(F1))
    X = construct_field(TWIN)
    bad = VectorField(bp.mul(X.P, bp.parse("x")), bp.mul(X.Q, bp.parse("x")))
    with pytest.raises(ValueError, match="coprime"):
        single_critical_value_criterion(TWIN, bad)
    with pytest.raises(ValueError, match="annihilate"):
        single_critical_value_criterion(TWIN, VectorField(bp.parse("x"), bp.parse("y")))


def test_single_critical_value_criterion_inconclusive():
    # H = w^2(w^2 - w - 1): one rational value plus a degree-2 residual,
    # so the exact count is unknown
    F = fi(("x", 2), ("y", 2), ("x^2*y^2 - x*y - 1", 1))
    X, _ = reduce_field(construct_field(F))
    res = single_critical_value_criterion(F, X)
    assert res.status == "Inconclusive"
    assert "residual" in res.reason


def test_inverse_factor_degree_check():
    for F in (TWIN, CUSP):
        a = analyze(F)
        m = construct_field(F).degree
        res = inverse_factor_degree_check(a, m)
        assert res.ok, res.reason


def test_inverse_factor_degree_check_needs_values():
    a = analyze(fi(("x", 1), ("y", 1)))  # xy has no remarkable values
    with pytest.raises(ValueError, match="does not apply"):
        inverse_factor_degree_check(a, 1)


def test_integral_degree_check():
    for F in (TWIN, CUSP):
        res = integral_degree_check(F, construct_field(F))
        assert res.ok, res.reason


def test_integral_degree_check_preconditions():
    F1 = fi(("x", 1), ("y", 1))
    with pytest.raises(ValueError, match="k_i > 1"):
        integral_degree_check(F1, construct_field(F1))
    F2 = fi(("y - x^2", 1), ("y + x^2", 2))
    with pytest.raises(ValueError, match="Hamiltonian"):
        integral_degree_check(F2, VectorField(bp.parse("x"), bp.parse("-y")))


# random family smoke: checks agree with direct recomputation
# (line families keep the symbolic elimination cheap)

def test_checks_on_random_line_family():
    rng = random.Random(76)
    for _ in range(8):
        F = random_line_family(rng)
        X, _ = reduce_field(construct_field(F))
        a = analyze(F)
        assert a.s == 1 and a.residual is None
        res = inverse_factor_degree_check(a, X.degree)
        assert res.ok, res.reason
        assert bp.total_degree(a.V) == (a.s - 1) * a.d + (X.degree + 1) * a.s
        assert single_critical_value_criterion(F, X).ok
