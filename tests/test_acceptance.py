"""Acceptance suite: one test per stated criterion, one PASS/FAIL line each.

The lines are echoed in an "acceptance criteria" section at the end of the
pytest run (add -s to also see them inline).  Random families are frozen by
explicit seeds; every numeric tolerance is stated inline.
"""

import functools
import math
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from polysaddle import bipoly as bp
from polysaddle import upoly
from polysaddle.cz_check import check_pair_transversal, cz_report
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
    reduce_field,
    quotient_multiplier,
)
from polysaddle.linearize import factor_split, k_matrix, linearize
from polysaddle.numcheck import compile_poly, conservation_drift, integrate_orbit
from polysaddle.remarkable import (
    analyze,
    critical_remarkable_values,
    integral_degree_check,
    integrating_factor,
    inverse_factor_degree_check,
    inverse_integrating_factor,
    single_critical_value_criterion,
)
from polysaddle.variety import variety_empty

from conftest import (
    ACCEPTANCE_LINES,
    assert_certificate,
    random_coprime_field,
    random_factor,
    random_integral,
    random_line_family,
)


def criterion(num, label):
    """Wrap a test so it prints exactly one PASS/FAIL line."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                line = f"criterion {num} [{label}]: FAIL ({exc})"
                print(line)
                ACCEPTANCE_LINES.append(line)
                raise
            dt = time.perf_counter() - t0
            line = f"criterion {num} [{label}]: PASS ({detail}; {dt:.1f}s)"
            print(line)
            ACCEPTANCE_LINES.append(line)
        return wrapper
    return deco


def fi(*pairs):
    return FactoredIntegral(tuple((bp.parse(s), k) for s, k in pairs))


# 1. random field synthesis annihilates the integral exactly

@criterion(1, "synthesis annihilates")
def test_criterion_1_synthesis_annihilates():
    rng = random.Random(1001)
    t0 = time.perf_counter()
    for _ in range(200):
        F = random_integral(rng)  # p <= 3, deg u <= 3, k <= 3, |num|,|den| <= 9
        X = construct_field(F)
        assert is_first_integral(X, expand(F)), str(F)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    return "200/200 constructed fields annihilate exactly"


# 2. transversal line families: degree relation, single critical value,
#    multiplier consistency after reduction

@criterion(2, "line families")
def test_criterion_2_line_families():
    rng = random.Random(2002)
    t0 = time.perf_counter()
    for _ in range(60):
        F = random_line_family(rng)  # distinct transversal lines, one k >= 2
        g = random_factor(rng, 2)
        X = construct_field(F)
        Xr, _ = reduce_field(X)
        assert cz_report(F).overall.ok, str(F)
        m = Xr.degree
        assert sum(bp.total_degree(u) for u, _ in F.factors) == m + 1, str(F)
        vals, resid = critical_remarkable_values(expand(F))
        assert len(vals) == 1 and resid is None, str(F)
        assert single_critical_value_criterion(F, Xr).ok, str(F)
        # multiply by a nonconstant factor: the unreduced field is not
        # coprime; after reduce_field everything is consistent again
        gX = VectorField(bp.mul(g, Xr.P), bp.mul(g, Xr.Q))
        assert not is_coprime(gX)
        X2, g2 = reduce_field(gX)
        assert X2.degree == m
        assert bp.is_const(bp.exact_div(g, g2))
        assert single_critical_value_criterion(F, X2).ok, str(F)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    return "60/60 families: CZ holds, sum deg u_i = m+1, one critical value, multiplier consistent"


# 3. degree formulas on the line families and on two worked examples

@criterion(3, "degree formulas")
def test_criterion_3_degree_formulas():
    # worked example 1: H = x^2 y, X = (x, -2y)
    F1 = fi(("x", 2), ("y", 1))
    X1 = VectorField(bp.parse("x"), bp.parse("-2*y"))
    assert is_first_integral(X1, expand(F1))
    a1 = analyze(F1)
    assert a1.s == 1
    assert bp.total_degree(a1.V) == X1.degree + 1  # s = 1 branch: deg V = m+1
    assert inverse_factor_degree_check(a1, X1.degree).ok
    assert integral_degree_check(F1, X1).ok
    assert bp.total_degree(expand(F1)) == X1.degree + 1 + a1.d

    # worked example 2: H = (y - x^2)(y + x^2)^2, X = (3y - x^2, 6x^3 - 2xy)
    F2 = fi(("y - x^2", 1), ("y + x^2", 2))
    X2 = VectorField(bp.parse("3*y - x^2"), bp.parse("6*x^3 - 2*x*y"))
    assert is_first_integral(X2, expand(F2))
    a2 = analyze(F2)
    assert a2.s == 1 and a2.d == 2
    assert bp.total_degree(a2.V) == (a2.s - 1) * a2.d + (X2.degree + 1) * a2.s == 4
    assert inverse_factor_degree_check(a2, X2.degree).ok
    assert integral_degree_check(F2, X2).ok
    assert bp.total_degree(expand(F2)) == X2.degree + 1 + a2.d == 6

    # the full criterion-2 family (same seed, stream kept aligned)
    rng = random.Random(2002)
    for _ in range(60):
        F = random_line_family(rng)
        _ = random_factor(rng, 2)  # discard: keeps draws matching criterion 2
        Xr, _ = reduce_field(construct_field(F))
        a = analyze(F)
        m = Xr.degree
        assert bp.total_degree(a.V) == (a.s - 1) * a.d + (m + 1) * a.s, str(F)
        assert inverse_factor_degree_check(a, m).ok, str(F)
        assert integral_degree_check(F, Xr).ok, str(F)
        assert bp.total_degree(expand(F)) == m + 1 + a.d, str(F)
    return "both worked examples plus 60/60 line families satisfy both degree formulas"


# 4. multiplier round trips

@criterion(4, "multiplier round trips")
def test_criterion_4_multiplier_round_trips():
    rng = random.Random(5005)
    for _ in range(100):
        X = random_coprime_field(rng)
        g = random_factor(rng, 2)
        gX = VectorField(bp.mul(g, X.P), bp.mul(g, X.Q))
        assert quotient_multiplier(gX, X) == g
        Xr, gr = reduce_field(gX)
        assert bp.mul(gr, Xr.P) == gX.P and bp.mul(gr, Xr.Q) == gX.Q
        assert bp.is_const(bp.exact_div(g, gr))
    return "100/100 exact round trips: quotient recovered, reduction splits g off"


# 5. linearization certificates at every pivot, with a negative control

def _perturbed_field(F, X):
    """A small honest perturbation of X that provably breaks annihilation."""
    H = expand(F)
    Hx, Hy = bp.partial(H, "x"), bp.partial(H, "y")
    for t in (bp.ONE, bp.parse("x"), bp.parse("y")):
        if not bp.is_zero(Hx):
            cand = VectorField(bp.add(X.P, t), X.Q)
            if is_coprime(cand):
                return cand
        if not bp.is_zero(Hy):
            cand = VectorField(X.P, bp.add(X.Q, t))
            if is_coprime(cand):
                return cand
    return None


@criterion(5, "linearization certificates")
def test_criterion_5_linearization():
    rng = random.Random(3003)
    verified = degenerate = controls = 0
    instances = 0
    while instances < 200:
        F = random_integral(rng)
        if F.p < 2:
            continue
        instances += 1
        Xr, _ = reduce_field(construct_field(F))
        for pivot in range(1, F.p + 1):
            split = factor_split(F, pivot)
            try:
                cert = linearize(split, Xr)
            except ArithmeticError:
                # degenerate split: re-verify that D really vanishes
                K1, K2, K3, K4 = k_matrix(split)
                assert bp.is_zero(bp.sub(bp.mul(K1, K4), bp.mul(K2, K3)))
                degenerate += 1
                continue
            assert_certificate(cert, Xr)
            assert bp.mul(cert.u_expr, cert.v_expr) == expand(F)
            verified += 1
        bad = _perturbed_field(F, Xr)
        assert bad is not None
        with pytest.raises(bp.ExactDivisionError) as ei:
            linearize(F, bad)
        assert not bp.is_zero(ei.value.remainder)
        controls += 1
    assert controls == 200
    assert verified >= 400  # degenerate splits must stay a small minority
    assert degenerate <= verified // 10
    return (f"{verified} certificates verified across all pivots, "
            f"{degenerate} degenerate splits raised cleanly, 200 negative controls")


# 6. CZ verdicts against an independent brute-force oracle on
#    line/parabola families
#
# curve models: ("line", a, b, c)  ->  a x + b y + c
#               ("ypar", a, b, c)  ->  y - (a x^2 + b x + c), a != 0
#               ("xpar", a, b, c)  ->  x - (a y^2 + b y + c), a != 0

def _model_poly(m):
    kind, a, b, c = m
    x, y = bp.parse("x"), bp.parse("y")
    if kind == "line":
        return bp.add(bp.add(bp.scalar_mul(a, x), bp.scalar_mul(b, y)), bp.const(c))
    v = x if kind == "ypar" else y
    quad = bp.add(bp.add(bp.scalar_mul(a, bp.mul(v, v)), bp.scalar_mul(b, v)),
                  bp.const(c))
    return bp.sub(y if kind == "ypar" else x, quad)


def _squarefree(e):
    return upoly.is_const(upoly.gcd(e, upoly.deriv(e)))


def _compose(r, q):
    out = upoly.const(0)
    for c in reversed(r):
        out = upoly.add(upoly.mul(out, q), upoly.const(c))
    return out


def _oracle_pair_transversal(m1, m2):
    k1, k2 = m1[0], m2[0]
    if k1 == "line" and k2 == "line":
        return True  # crossing lines are transversal, parallel ones never meet
    if k1 == "line" or k2 == "line":
        line, par = (m1, m2) if k1 == "line" else (m2, m1)
        _, a, b, c = line
        pa, pb, pc = par[1], par[2], par[3]
        if par[0] == "ypar":
            if b == 0:
                return True  # vertical line: gradients can never align
            e = upoly.make([c + b * pc, a + b * pb, b * pa])
        else:
            if a == 0:
                return True
            e = upoly.make([c + a * pc, b + a * pb, a * pa])
        return _squarefree(e)  # tangency = double root of the substitution
    if k1 == k2:
        e = upoly.make([m1[3] - m2[3], m1[2] - m2[2], m1[1] - m2[1]])
        if upoly.degree(e) <= 0:
            return True  # constant nonzero difference: the parabolas never meet
        return _squarefree(e)
    yp = m1 if k1 == "ypar" else m2
    xp = m2 if k1 == "ypar" else m1
    q = upoly.make([yp[3], yp[2], yp[1]])
    r = upoly.make([xp[3], xp[2], xp[1]])
    e = upoly.sub(upoly.make([0, 1]), _compose(r, q))  # x - r(q(x))
    return _squarefree(e)


def _oracle_no_triple(models):
    if len(models) < 3:
        return True
    assert len(models) == 3  # generator invariant
    lines = [m for m in models if m[0] == "line"]
    assert len(lines) >= 2  # generator invariant
    l1, l2 = lines[0], lines[1]
    det = l1[1] * l2[2] - l2[1] * l1[2]
    if det == 0:
        return True  # parallel pair: no point lies on both
    x0 = (-l1[3] * l2[2] + l2[3] * l1[2]) / det
    y0 = (-l1[1] * l2[3] + l2[1] * l1[3]) / det
    rest = [m for m in models if m is not l1 and m is not l2]
    return not all(bp.evaluate(_model_poly(m), x0, y0) == 0 for m in rest)


def _oracle_pair_leading_coprime(m1, m2):
    k1, k2 = m1[0], m2[0]
    if k1 == "line" and k2 == "line":
        return m1[1] * m2[2] - m2[1] * m1[2] != 0  # coprime iff not parallel
    if k1 == k2:
        return False  # both leading forms are the same pure square
    if {k1, k2} == {"ypar", "xpar"}:
        return True  # x^2 versus y^2
    line, par = (m1, m2) if k1 == "line" else (m2, m1)
    return (line[2] != 0) if par[0] == "ypar" else (line[1] != 0)


def _rand_line(rng, avoid_parallel_to=None):
    while True:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        if (a, b) == (0, 0):
            continue
        if avoid_parallel_to is not None:
            a2, b2 = avoid_parallel_to
            if a * b2 - a2 * b == 0:
                continue
        return ("line", Fraction(a), Fraction(b), Fraction(rng.randint(-3, 3)))


def _rand_par(rng, kind):
    a = rng.choice((-2, -1, 1, 2))
    return (kind, Fraction(a), Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))


def _tangent_line(rng, par):
    kind, a, b, c = par
    t = Fraction(rng.randint(-2, 2), rng.choice((1, 2)))
    val = a * t * t + b * t + c
    slope = 2 * a * t + b
    if kind == "ypar":
        return ("line", slope, Fraction(-1), val - slope * t)
    return ("line", Fraction(-1), slope, val - slope * t)


def _make_set(rng):
    shape = rng.randrange(8)
    if shape == 0:
        models = [_rand_line(rng), _rand_line(rng)]
    elif shape == 1:
        models = [_rand_line(rng) for _ in range(3)]
    elif shape == 2:  # three concurrent lines
        l1 = _rand_line(rng)
        l2 = _rand_line(rng, avoid_parallel_to=(l1[1], l1[2]))
        det = l1[1] * l2[2] - l2[1] * l1[2]
        x0 = (-l1[3] * l2[2] + l2[3] * l1[2]) / det
        y0 = (-l1[1] * l2[3] + l2[1] * l1[3]) / det
        while True:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            if (a, b) != (0, 0):
                break
        models = [l1, l2, ("line", Fraction(a), Fraction(b), -(a * x0 + b * y0))]
    elif shape == 3:
        models = [_rand_line(rng), _rand_par(rng, "ypar")]
    elif shape == 4:  # parabola plus a line tangent at a rational point
        par = _rand_par(rng, rng.choice(("ypar", "xpar")))
        models = [_tangent_line(rng, par), par]
    elif shape == 5:
        models = [_rand_par(rng, "ypar"), _rand_par(rng, "ypar")]
    elif shape == 6:
        models = [_rand_par(rng, "ypar"), _rand_par(rng, "xpar")]
    else:
        models = [_rand_line(rng), _rand_line(rng), _rand_par(rng, "ypar")]
    polys = [bp.normalize(_model_poly(m)) for m in models]
    names = [bp.to_string(p) for p in polys]
    if len(set(names)) < len(polys):
        return None  # a duplicated curve: skip the draw
    return models, polys, tuple(sorted(names))


@criterion(6, "CZ versus brute-force oracle")
def test_criterion_6_cz_oracle():
    rng = random.Random(6006)
    found = {}
    while len(found) < 60:
        drawn = _make_set(rng)
        if drawn is None or drawn[2] in found:
            continue
        found[drawn[2]] = drawn[:2]
    fails = {"i": 0, "ii": 0, "iii": 0, "iv": 0}
    for models, polys in found.values():
        F = FactoredIntegral(tuple((p, 1) for p in polys))
        rep = cz_report(F)
        want = {
            "i": True,  # lines and parabolas are smooth
            "ii": all(m[0] == "line" for m in models),
            "iii": (all(_oracle_pair_transversal(a, b)
                        for a, b in combinations(models, 2))
                    and _oracle_no_triple(models)),
            "iv": all(_oracle_pair_leading_coprime(a, b)
                      for a, b in combinations(models, 2)),
        }
        got = {"i": rep.condition_i, "ii": rep.condition_ii,
               "iii": rep.condition_iii, "iv": rep.condition_iv}
        for name in ("i", "ii", "iii", "iv"):
            assert got[name].status in ("Holds", "Fails"), (name, models)
            assert (got[name].status == "Holds") == want[name], (name, models)
            if got[name].status == "Fails":
                fails[name] += 1
    assert fails["ii"] >= 1 and fails["iii"] >= 1 and fails["iv"] >= 1

    # complex-point cases must come back with certified boxes, not guesses
    r = check_pair_transversal(bp.parse("y"), bp.parse("y - (x^2 + 1)^2"))
    assert r.status == "Fails" and "certified box" in str(r.witness)
    r2 = variety_empty([bp.parse("x^2 + 1"), bp.parse("y")])
    assert r2.status == "Fails" and "certified box" in str(r2.witness)
    return (f"60/60 verdict quadruples match the oracle "
            f"(Fails exercised: ii {fails['ii']}, iii {fails['iii']}, iv {fails['iv']}); "
            "complex tangency witnessed by certified boxes")


# 7. critical remarkable values of the three worked integrals

@criterion(7, "critical values worked examples")
def test_criterion_7_critical_values():
    cases = [
        ("x^2*y", [Fraction(0)]),
        ("x*y", []),
        ("(y - x^2)*(y + x^2)^2", [Fraction(0)]),
    ]
    probes = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2, 3)]
    for hs, want in cases:
        H = bp.parse(hs)
        vals, resid = critical_remarkable_values(H)
        assert vals == want, hs
        assert resid is None, hs
        Hx, Hy = bp.partial(H, "x"), bp.partial(H, "y")
        for c in vals:  # independent confirmation by the defining gcd
            assert not bp.is_const(bp.gcd_many([bp.add(H, bp.const(c)), Hx, Hy]))
        for c in probes:  # and nearby non-values stay regular
            if c not in vals:
                assert bp.is_const(bp.gcd_many([bp.add(H, bp.const(c)), Hx, Hy]))
    return "x^2*y -> {0}, x*y -> {}, twin parabolas -> {0}, each re-verified by gcd"


# 8. RK4 conservation drift and 4th-order step-halving behavior

_C8_RADII = (0.25, 0.45, 0.7, 1.0)
_C8_ANGLES = [0.13 + 2 * math.pi * j / 10 for j in range(10)]


def _admissible_starts(X, V, limit):
    """Start points away from the separatrices whose unit-horizon orbit at
    h = 1e-3 completes and stays slow (max h(|P|+|Q|) <= 0.02)."""
    pev, qev, vev = compile_poly(X.P), compile_poly(X.Q), compile_poly(V)
    out = []
    for r in _C8_RADII:
        for th in _C8_ANGLES:
            x0, y0 = r * math.cos(th), r * math.sin(th)
            if abs(vev(x0, y0)) < 1e-3:
                continue
            orb = integrate_orbit(X, x0, y0, 1e-3, 1000)
            if len(orb.points) != 1001:
                continue
            if max(1e-3 * (abs(pev(a, b)) + abs(qev(a, b)))
                   for a, b in orb.points) > 0.02:
                continue
            out.append((x0, y0, orb))
            if len(out) >= limit:
                return out
    return out


@criterion(8, "RK4 drift and halving")
def test_criterion_8_rk4():
    rng = random.Random(4004)
    t0 = time.perf_counter()
    sampled = []
    draws = 0
    while len(sampled) < 40:
        F = random_integral(rng)
        draws += 1
        assert draws < 1000
        X, _ = reduce_field(construct_field(F))
        V = inverse_integrating_factor(F)
        starts = _admissible_starts(X, V, limit=4)
        if not starts:
            continue
        sampled.append((F, X, starts))

    # part A: drift below 1e-6 on the unit horizon at h = 1e-3
    worst = 0.0
    for F, X, starts in sampled:
        H = expand(F)
        d = conservation_drift(H, starts[0][2])
        worst = max(worst, d)
        assert d < 1e-6, (str(F), d)

    # part B: halving the step improves the drift by a factor in [8, 32].
    # Generic instances converge at 4th order (factor ~16).  Fields that
    # reduce to x*g(xy), -y*g(xy) conserve xy to 5th order: their factor
    # tends to exactly 32 (the band edge) from above, with the finite-step
    # excess below 0.1% at these ladder steps, so the edge carries that
    # much tolerance.  A drift pair is only measurable above the
    # double-precision floor.
    ladder = (6.4e-2, 3.2e-2, 1.6e-2, 8e-3, 4e-3)
    edge_tol = 32 * (1 + 1e-3)
    measurable = in_band = at_edge = generic = 0
    for F, X, starts in sampled:
        H = expand(F)
        pev, qev = compile_poly(X.P), compile_poly(X.Q)
        seen_pair = False
        hit = None
        for x0, y0, _ in starts:
            for h0 in ladder:
                n = round(1.0 / h0)
                orb_a = integrate_orbit(X, x0, y0, h0, n)
                if len(orb_a.points) != n + 1:
                    continue
                if max(h0 * (abs(pev(a, b)) + abs(qev(a, b)))
                       for a, b in orb_a.points) > 0.05:
                    continue
                da = conservation_drift(H, orb_a)
                orb_b = integrate_orbit(X, x0, y0, h0 / 2, 2 * n)
                if len(orb_b.points) != 2 * n + 1:
                    continue
                db = conservation_drift(H, orb_b)
                if da < 1e-13 or db < 5e-15:
                    continue
                seen_pair = True
                if 8 <= da / db <= edge_tol:
                    hit = da / db
                    break
            if hit is not None:
                break
        if seen_pair:
            measurable += 1
            assert hit is not None, f"measurable instance out of band: {F}"
            in_band += 1
            if hit > 32:
                at_edge += 1
            if hit <= 24:
                generic += 1
    assert measurable >= 12
    assert generic >= 10  # the 4th-order bulk must dominate
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    return (f"40 instances, max drift {worst:.2e} < 1e-6; halving factor in band on "
            f"{in_band}/{measurable} measurable instances "
            f"({generic} generic ~16, {at_edge} at the 5th-order edge 32), 0 unresolved")


# 9. all-unit-exponent integrals give Hamiltonian fields with invariant factors

@criterion(9, "Hamiltonian branch")
def test_criterion_9_hamiltonian():
    rng = random.Random(9009)
    for _ in range(100):
        F = random_integral(rng, all_k_one=True)
        X = construct_field(F)
        H = is_hamiltonian(X)
        assert H is not None, str(F)
        assert is_first_integral(X, H)
        for u, _ in F.factors:
            K = cofactor(u, X)
            assert K is not None, str(F)
            assert lie_derivative(X, u) == bp.mul(K, u)
    return "100/100 fields Hamiltonian with zero Lie derivative; every factor has a cofactor"
