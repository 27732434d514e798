"""Layer microbenchmark: bipoly.mul, bipoly.gcd, bipoly.resultant,
upoly.rational_roots, the constructed field, variety.variety_empty and RK4
orbits on a fixed operand ladder.

The operands are drawn from a fixed seed: dense products from 1x1 terms
up to total degree 10, rational and 200-bit coefficients, a single-term
operand, sparse high-degree pairs, gcds of two products that share a
planted factor, univariate polynomials with planted rational roots whose
constant terms grow from a few bits to 60, and coprime gcd pairs: the
degree-15 field (P0, Q0) built from 16 lines, two homogeneous forms of
degree 6, and two dense cubics; and integrals of 8, 12, 16 and 20 lines,
the last one squared, for field_ops.construct_field and
linearize.linearize; resultants in y of dense curves u, v of degree 3 to
6 (every monomial, integer coefficients in -5..5), of u and the Jacobian
u_x v_y - u_y v_x, and of the shape remarkable._level_product eliminates,
f(y) and h(y) + x; two products with an x-free common factor;
variety_empty on three lines in general position, three concurrent
lines, and the transversality system u = v = u_x v_y - u_y v_x = 0 of
dense curves of degree 3, 4 and 5; and ORBIT_STEPS RK4 steps plus the
drift of H (numcheck.integrate_orbit and conservation_drift) on fields
of degree 1, 3 and 5, each built from random lines with H their product,
timed warm and cold (in trees that cache float kernels, a cold call
clears the caches first); and the gcd pairs the commands meet most: two
coprime lines, the leading forms ax + by of two lines, and two dense
conics times x^2 y and x y^3.  A coefficient is an int where it is
an integer, as the program holds it (bipoly).  Every product is
checked against a schoolbook reference kept in this file, and timed
beside it; every gcd must be divisible by the planted factor and equal
bipoly._gcd_prs, the subresultant route, and every coprime pair's gcd
must be 1; every root list must equal the planted one; the constructed
field, and G times the reduced field from each linearization
certificate, must equal the construction formula written out with
schoolbook products, and each certificate's D = K1 K4 - K2 K3 and both
saddle pullbacks G X(u) = D u and G X(v) = -D v are rechecked with them
(outside the timed calls); every resultant must equal bipoly.det_bareiss on
the Sylvester matrix built here; every variety_empty status must be the
one the case was built for, and status and witness must equal those of
the single-projection route kept here as the reference
(reference_variety_empty, run outside the timed region); every orbit and
drift, warm and cold, must equal bit for bit those of the plain-loop RK4
kept here (reference_orbit).  Each
construct_field or linearize call starts from an integral with nothing
cached but its factors.  A case whose calls run past CAP_S seconds in a
round is recorded as a timeout instead of being waited for.

    PYTHONPATH=src python3 scripts/bench_layers.py --out layers.json
    python3 scripts/bench_layers.py --out BENCH.json --src parent=../old/src --src change=src
    python3 scripts/bench_layers.py --out gcd.json --only '^gcd-|^coprime-'

--only PATTERN runs just the cases whose names match the regular
expression (Python's re.search).

Each --src tree (default: the `src` next to this script) is imported in
its own worker process.  The trees take turns for --rounds rounds, in
alternating order, so a drift in host speed hits them alike.  A round
times each case as the median of five batches of calls; the JSON holds,
per tree and case, the median and quartiles of the per-call times over
the rounds, in microseconds ("reference" for the schoolbook product,
"linearize" for the second timing of a field case, "cold" for an orbit
case's cold calls).
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import os
import platform
import random
import re
import signal
import subprocess
import sys
from fractions import Fraction
from statistics import median, quantiles
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
BATCH_S = 0.02  # minimum length of one timed batch
CAP_S = 10.0  # a case that runs longer in one round is recorded as a timeout


def reference_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for (i1, j1), c1 in f.items():
        for (i2, j2), c2 in g.items():
            e = (i1 + i2, j1 + j2)
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _coeff(v: Fraction) -> int | Fraction:
    """v as the program holds a coefficient: an int when it is an integer."""
    return v.numerator if v.denominator == 1 else v


def _dense(rng: random.Random, d: int, bits: int = 5, den: int = 1) -> dict:
    out = {}
    for i in range(d + 1):
        for j in range(d + 1 - i):
            out[(i, j)] = _coeff(Fraction(rng.choice((-1, 1)) * rng.randint(1, 2**bits),
                                          rng.randint(1, den)))
    return out


def _sparse(rng: random.Random, terms: int, deg: int) -> dict:
    return {(rng.randint(0, deg), rng.randint(0, deg)): rng.randint(1, 31)
            for _ in range(terms)}


def _upoly_mul(f: list, g: list) -> list:
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _planted_roots(roots: dict, cofactor: list) -> list:
    """Coefficients (lowest degree first) of cofactor * prod (t - r)^m."""
    f = [Fraction(c) for c in cofactor]
    for r, m in roots.items():
        for _ in range(m):
            f = _upoly_mul(f, [-r, Fraction(1)])
    return f


def _root_cases(rng: random.Random) -> list:
    half = Fraction(1, 2)
    out = [("roots-small", "roots",
            _planted_roots({half: 2, Fraction(-3): 1, Fraction(0): 1}, [1, 0, 1]), None,
            [(Fraction(-3), 1), (Fraction(0), 1), (half, 2)])]
    for bits in (20, 32, 44):
        # (t - a)(t + b)(t^2 - 2): a constant term of `bits` bits
        a, b = (rng.randint(2 ** (bits // 2 - 1), 2 ** (bits // 2)) for _ in range(2))
        roots = {Fraction(a): 1, Fraction(-b): 1}
        out.append((f"roots-{bits}bit", "roots", _planted_roots(roots, [-2, 0, 1]), None,
                    sorted(roots.items())))
    # the level polynomial of tests/fixtures/slow_levels.json: c times a cubic
    # that is irreducible over Q; cleared of denominators and of the root 0,
    # its constant term has 60 bits
    level = [Fraction(0), Fraction(9514750990801, 3779136),
             Fraction(5625898018778653, 4897760256), Fraction(5533511094683, 143327232),
             Fraction(1)]
    out.append(("roots-slow-levels", "roots", level, None, [(Fraction(0), 1)]))
    return out


# a*x + b*y + c for the lines of tests/fixtures/many_lines_16.json; the
# last one has exponent 2
MANY_LINES = ((7, -12, -5), (2, 0, -7), (25, -40, -18), (16, 7, 28), (2, 3, -9),
              (27, 49, -252), (48, -75, -40), (5, -105, -42), (64, 81, 252), (15, 3, -2),
              (18, 16, -3), (14, 10, -63), (14, 7, 1), (1, -14, -3), (9, 72, 10), (2, -7, -4))


def _as_line(a: int, b: int, c: int) -> dict:
    return {e: v for e, v in (((1, 0), a), ((0, 1), b), ((0, 0), c)) if v}


def _partial(f: dict, var: str) -> dict:
    if var == "x":
        return {(i - 1, j): i * c for (i, j), c in f.items() if i}
    return {(i, j - 1): j * c for (i, j), c in f.items() if j}


def _combine(*terms) -> dict:
    """sum of sign * f over (sign, f) pairs."""
    out: dict = {}
    for sign, f in terms:
        for e, c in f.items():
            out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def certificate_holds(cert, P: dict, Q: dict) -> bool:
    """D = K1 K4 - K2 K3 and the saddle pullbacks G X(u) = D u and
    G X(v) = -D v for X = (P, Q), with schoolbook products."""
    def lie(f):
        return _combine((1, reference_mul(_partial(f, "x"), P)),
                        (1, reference_mul(_partial(f, "y"), Q)))

    D = _combine((1, reference_mul(cert.K1, cert.K4)), (-1, reference_mul(cert.K2, cert.K3)))
    return (cert.D == D
            and reference_mul(cert.G, lie(cert.u_expr)) == reference_mul(D, cert.u_expr)
            and reference_mul(cert.G, lie(cert.v_expr))
            == _combine((-1, reference_mul(D, cert.v_expr))))


def literal_field(factors: list) -> tuple[dict, dict]:
    """The construction formula written out for (u, k) pairs:
    P = sum_l k_l prod_{i != l} u_i (u_l)_y and Q = -sum_l k_l prod_{i != l} u_i (u_l)_x."""
    P: dict = {}
    Q: dict = {}
    for l, (u, k) in enumerate(factors):
        others = {(0, 0): 1}
        for i, (v, _) in enumerate(factors):
            if i != l:
                others = reference_mul(others, v)
        for e, c in reference_mul(others, _partial(u, "y")).items():
            P[e] = P.get(e, 0) + k * c
        for e, c in reference_mul(others, _partial(u, "x")).items():
            Q[e] = Q.get(e, 0) - k * c
    return ({e: c for e, c in P.items() if c}, {e: c for e, c in Q.items() if c})


def _line_factors(lines) -> list:
    """(u, k) pairs for lines (a, b, c); the last line is squared."""
    return [(_as_line(*abc), 2 if n == len(lines) - 1 else 1) for n, abc in enumerate(lines)]


def _random_lines(rng: random.Random, p: int) -> list:
    """p lines (a, b, c), pairwise nonparallel, drawn as random_line in
    tests/conftest.py draws them: a, b, c = n/d with |n|, d <= 9, cleared to
    coprime integers."""
    out: list = []
    while len(out) < p:
        a, b, c = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
        den = math.lcm(a.denominator, b.denominator, c.denominator)
        a, b, c = (int(v * den) for v in (a, b, c))
        g = math.gcd(a, b, c)
        if (a or b) and all(a * b2 != a2 * b for a2, b2, _ in out):
            out.append((a // g, b // g, c // g))
    return out


def _homogeneous(rng: random.Random, d: int) -> dict:
    return {(i, d - i): rng.choice((-1, 1)) * rng.randint(1, 32) for i in range(d + 1)}


def _coprime_cases(rng: random.Random) -> list:
    P0, Q0 = literal_field(_line_factors(MANY_LINES))
    return [("coprime-many-lines-16", "coprime", P0, Q0, None),
            ("coprime-homogeneous-d6", "coprime", _homogeneous(rng, 6), _homogeneous(rng, 6),
             None),
            ("coprime-factors-d3", "coprime", _dense(rng, 3), _dense(rng, 3), None)]


def _x_free_case(rng: random.Random) -> tuple:
    """A gcd pair whose common factor is free of x, so that only the
    y = t images could pass."""
    c = {(0, 2): 3, (0, 1): -5, (0, 0): 7}
    return ("gcd-x-free-common-d2", "gcd", reference_mul(_dense(rng, 3), c),
            reference_mul(_dense(rng, 3), c), c)


def sylvester_y(f: dict, g: dict) -> list[list[dict]]:
    """Sylvester matrix of f, g with respect to y, entries in Q[x]; f's
    coefficients fill the top rows."""
    rows = []
    for p in (f, g):
        d = max(j for _, j in p)
        coeffs = [{} for _ in range(d + 1)]
        for (i, j), c in p.items():
            coeffs[d - j][(i, 0)] = c
        rows.append(coeffs)
    m, n = len(rows[0]) - 1, len(rows[1]) - 1
    return ([[{}] * k + rows[0] + [{}] * (n - 1 - k) for k in range(n)]
            + [[{}] * k + rows[1] + [{}] * (m - 1 - k) for k in range(m)])


def _curve(rng: random.Random, d: int) -> dict:
    """Total degree d, coefficients uniform in -5..5 on every monomial."""
    out = {(i, j): rng.randint(-5, 5) for i in range(d + 1) for j in range(d + 1 - i)}
    return {e: c for e, c in out.items() if c}


def _jacobian(u: dict, v: dict) -> dict:
    """u_x v_y - u_y v_x, with schoolbook products."""
    return _combine((1, reference_mul(_partial(u, "x"), _partial(v, "y"))),
                    (-1, reference_mul(_partial(v, "x"), _partial(u, "y"))))


def _resultant_cases(rng: random.Random) -> list:
    out = []
    for d in range(3, 7):
        u, v = _curve(rng, d), _curve(rng, d)
        out += [(f"resultant-uv-d{d}", "resultant", u, v, None),
                (f"resultant-ujac-d{d}", "resultant", u, _jacobian(u, v), None)]
    # Res_t(f, h + c) with c in the x slot: f of degree 8, h reduced below it
    f = {(0, j): rng.choice((-1, 1)) * rng.randint(1, 32) for j in range(9)}
    h = {(0, j): rng.choice((-1, 1)) * rng.randint(1, 32) for j in range(8)}
    out.append(("resultant-level-d8", "resultant", f, {**h, (1, 0): 1}, None))
    return out


def _variety_cases(rng: random.Random) -> list:
    """variety_empty on three lines in general position (none of them
    y-free, so the projections decide) and three through (3, -2), and on
    the transversality system u = v = u_x v_y - u_y v_x = 0
    of dense curves of degree 3, 4 and 5 (as the resultant cases draw them),
    with the status each must get."""
    out = [("variety-lines-general", "variety", [_as_line(*abc) for abc in MANY_LINES[2:5]],
            None, "Holds"),
           ("variety-lines-concurrent", "variety",
            [_as_line(1, 1, -1), _as_line(2, -1, -8), _as_line(5, 3, -9)], None, "Fails")]
    for d in (3, 4, 5):
        u, v = _curve(rng, d), _curve(rng, d)
        out.append((f"variety-transversal-d{d}", "variety", [u, v, _jacobian(u, v)], None,
                    "Holds"))
    return out


def reference_variety_empty(polys: list) -> tuple:
    """(status, witness) of variety_empty by the single-projection route:
    the fiber is the squarefree part of Res_y(p, q) for the first coprime
    pair, and every other polynomial is taken onto it by dynamic
    evaluation."""
    from polysaddle import bipoly as bp
    from polysaddle import upoly as up
    from polysaddle import variety

    def plane(polys, depth):
        if any(bp.is_const(p) for p in polys):
            return None
        if len(polys) == 1 or any(bp.deg_y(p) == 0 for p in polys):
            return variety._decide_plane(polys, depth)
        p, q, *others = sorted(polys, key=bp.deg_y)
        h = bp.gcd(p, q)
        if not bp.is_const(h):
            return (plane([h] + others, depth + 1)
                    or plane([bp.exact_div(p, h), bp.exact_div(q, h)] + others, depth + 1))
        R = bp.resultant(p, q)
        if bp.is_const(R):
            return None
        F = up.squarefree_part(variety._to_upoly_x(R))
        return variety._decide_fiber(F, [variety._to_ypoly(t) for t in [p, q] + others],
                                     depth + 1)

    loc = plane(list(polys), 0)
    if loc is None:
        return "Holds", None
    return "Fails", variety._describe_witness(loc, list(polys))


ORBIT_STEPS = 1000  # RK4 steps per orbit case, as perfbench/run.py takes


def _orbit_cases(rng: random.Random) -> list:
    """Fields of degree 1, 3 and 5 built from d + 1 random lines, each with
    its integral H (the product of the lines), a start and a step that
    keeps the orbit short of the lines' blow-ups."""
    out = []
    for d in (1, 3, 5):
        lines = [_as_line(*abc) for abc in _random_lines(rng, d + 1)]
        P, Q = literal_field([(u, 1) for u in lines])
        H = functools.reduce(reference_mul, lines)
        x0, y0 = 0.1, 0.2
        speed = abs(reference_eval(P)(x0, y0)) + abs(reference_eval(Q)(x0, y0))
        out.append((f"orbit-d{d}", "orbit", P, Q, (H, x0, y0, 1e-4 / max(1.0, speed))))
    return out


def reference_eval(f: dict):
    """Float evaluator of f as a Horner form in y over Horner forms in x,
    with plain loops: the operations numcheck performs, in its order."""
    rows: list = [[] for _ in range(max((j for _, j in f), default=-1) + 1)]
    for (i, j), c in f.items():
        rows[j] += [0.0] * (i + 1 - len(rows[j]))
        rows[j][i] = float(c)

    def ev(x, y):
        acc = None
        for row in reversed(rows):
            r = row[-1] if row else 0.0
            for c in reversed(row[:-1]):
                r = r * x + c
            acc = r if acc is None else acc * y + r
        return 0.0 if acc is None else acc

    return ev


def reference_orbit(P: dict, Q: dict, H: dict, x: float, y: float, h: float, n: int):
    """(points, drift) of classical RK4 and the drift of H along it, as
    numcheck.integrate_orbit and conservation_drift define them."""
    fp, fq, fh = reference_eval(P), reference_eval(Q), reference_eval(H)
    pts = [(x, y)]
    for _ in range(n):
        k1x, k1y = fp(x, y), fq(x, y)
        x2, y2 = x + 0.5 * h * k1x, y + 0.5 * h * k1y
        k2x, k2y = fp(x2, y2), fq(x2, y2)
        x3, y3 = x + 0.5 * h * k2x, y + 0.5 * h * k2y
        k3x, k3y = fp(x3, y3), fq(x3, y3)
        x4, y4 = x + h * k3x, y + h * k3y
        k4x, k4y = fp(x4, y4), fq(x4, y4)
        x += h / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        y += h / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        if not (math.isfinite(x) and math.isfinite(y)) or abs(x) > 1e12 or abs(y) > 1e12:
            break
        pts.append((x, y))
    h0 = fh(*pts[0])
    gaps = [abs(fh(a, b) - h0) for a, b in pts]
    drift = max(gaps) / max(1.0, abs(h0))
    return pts, (drift if math.isfinite(drift) and not math.isnan(sum(gaps)) else None)


def _gcd_path_cases(rng: random.Random) -> list:
    """The pairs bipoly.gcd gets most often: two coprime lines, the
    homogeneous leading forms ax + by of two lines, and two dense conics
    times the monomials x^2 y and x y^3, which share x y."""
    (l1, l2), (f1, f2) = _random_lines(rng, 2), _random_lines(rng, 2)
    a, b = _dense(rng, 2), _dense(rng, 2)
    return [("gcd-lines-coprime", "coprime", _as_line(*l1), _as_line(*l2), None),
            ("gcd-leading-forms-d1", "coprime", _as_line(*f1[:2], 0), _as_line(*f2[:2], 0),
             None),
            ("gcd-monomial-content", "gcd", reference_mul({(2, 1): 1}, a),
             reference_mul({(1, 3): 1}, b), {(1, 1): 1})]


def cases(only: str = "") -> list[tuple[str, str, object, object, object]]:
    """(name, op, f, g, planted factor or roots), the same every run, for
    the cases whose names match the regular expression `only`."""
    rng = random.Random(20091)
    one = 1
    out = [(f"mul-dense-d{d}", "mul", _dense(rng, d), _dense(rng, d), None)
           for d in range(11)]
    out += [
        ("mul-dense-d6-rational", "mul", _dense(rng, 6, den=9), _dense(rng, 6, den=9), None),
        ("mul-dense-d3-200bit", "mul", _dense(rng, 3, bits=200), _dense(rng, 3, bits=200), None),
        ("mul-single-term", "mul", {(3, 2): Fraction(-7, 3)}, _dense(rng, 8), None),
        ("mul-sparse-x2000", "mul", {(2000, 0): one, (0, 0): one},
         {(2000, 0): one, (0, 0): -one}, None),
        ("mul-sparse-x200y200", "mul", {(200, 200): one, (0, 0): one},
         {(200, 200): one, (0, 0): one}, None),
        ("mul-sparse-8x8-deg60", "mul", _sparse(rng, 8, 60), _sparse(rng, 8, 60), None),
    ]
    for da, dc in ((1, 1), (2, 1), (2, 2), (3, 2), (4, 2)):
        a, b, c = _dense(rng, da), _dense(rng, da), _dense(rng, dc)
        out.append((f"gcd-d{da}-common-d{dc}", "gcd", reference_mul(a, c),
                    reference_mul(b, c), c))
    out += _root_cases(rng)
    out += _coprime_cases(rng)
    for p in (8, 12, 16, 20):
        factors = _line_factors(_random_lines(rng, p))
        out.append((f"field-lines-{p}", "field", factors, None, literal_field(factors)))
    out += _resultant_cases(rng)
    out.append(_x_free_case(rng))  # drawn after the cases above, which keep their operands
    out += _variety_cases(rng)
    out += _orbit_cases(rng)
    out += _gcd_path_cases(rng)  # drawn last, so no earlier operand changes
    return [case for case in out if re.search(only, case[0])]


def _time(fn, f, g) -> float:
    """Per-call microseconds: the median of five batches of at least BATCH_S."""
    n = 1
    while True:
        t0 = perf_counter()
        for _ in range(n):
            fn(f, g)
        if perf_counter() - t0 >= BATCH_S:
            break
        n *= 2
    times = []
    for _ in range(5):
        t0 = perf_counter()
        for _ in range(n):
            fn(f, g)
        times.append((perf_counter() - t0) / n * 1e6)
    return median(times)


def _timeout(signum, frame):
    raise TimeoutError


def worker(only: str = "") -> dict:
    """One round in this process over the cases whose names match the
    regular expression `only`: {case: {"us", "reference_us" (mul),
    "linearize_us" (field), "ok"}}, or {case: {"timeout": true}} when the
    case ran past CAP_S seconds."""
    from polysaddle import bipoly as bp
    from polysaddle import numcheck
    from polysaddle import upoly as up
    from polysaddle.field_ops import FactoredIntegral, VectorField, construct_field, reduce_field
    from polysaddle.linearize import linearize
    from polysaddle.variety import variety_empty

    def roots(f, g):
        return up.rational_roots(tuple(f))

    resultant = bp.resultant
    if "var" in inspect.signature(resultant).parameters:  # trees that name y explicitly
        resultant = functools.partial(bp.resultant, var="y")

    def cold(F):
        """F with every cached attribute but its factors cleared."""
        for name in [n for n in vars(F) if n != "factors"]:
            del vars(F)[name]
        return F

    def construct(F, _):
        return construct_field(cold(F))

    def variety(polys, _):
        return variety_empty(polys)

    def linearize_fresh(F, X):
        return linearize(cold(F), X)

    # trees that cache their float kernels: a cold call clears them first
    kernels = [getattr(numcheck, k) for k in ("_rk4_kernel", "_value_kernel")
               if hasattr(numcheck, k)]

    def orbit(X, start):
        H, x0, y0, step = start
        orb = numcheck.integrate_orbit(X, x0, y0, step, ORBIT_STEPS)
        return orb.points, numcheck.conservation_drift(H, orb)

    def orbit_cold(X, start):
        for k in kernels:
            k.cache_clear()
        return orbit(X, start)

    def hexes(run):
        pts, drift = run
        return [(a.hex(), b.hex()) for a, b in pts], None if drift is None else drift.hex()

    out = {}
    signal.signal(signal.SIGALRM, _timeout)
    for name, op, f, g, planted in cases(only):
        # uncapped: the reference route takes about 30 s on the degree-5 system
        reference = reference_variety_empty(f) if op == "variety" else None
        signal.setitimer(signal.ITIMER_REAL, CAP_S)
        try:
            if op == "mul":
                ok = bp.mul(f, g) == reference_mul(f, g) == bp.mul(g, f)
                out[name] = {"us": _time(bp.mul, f, g),
                             "reference_us": _time(reference_mul, f, g), "ok": ok}
            elif op == "gcd":
                got = bp.gcd(f, g)
                ok = got == bp._gcd_prs(f, g) and bp.divides(bp.normalize(planted), got)
                out[name] = {"us": _time(bp.gcd, f, g), "ok": ok}
            elif op == "coprime":
                ok = bp.gcd(f, g) == bp.ONE
                out[name] = {"us": _time(bp.gcd, f, g), "ok": ok}
            elif op == "resultant":
                ok = resultant(f, g) == bp.det_bareiss(sylvester_y(f, g))
                out[name] = {"us": _time(resultant, f, g), "ok": ok}
            elif op == "variety":
                got = variety(f, g)
                ok = (got.status, got.witness) == reference and got.status == planted
                out[name] = {"us": _time(variety, f, g), "ok": ok}
            elif op == "field":
                F = FactoredIntegral(tuple(f))
                X, _ = reduce_field(F.field)
                field = construct(F, None)
                cert = linearize_fresh(F, X)
                ok = ((field.P, field.Q) == planted
                      == (bp.mul(cert.G, X.P), bp.mul(cert.G, X.Q))
                      and certificate_holds(cert, X.P, X.Q))
                out[name] = {"us": _time(construct, F, None),
                             "linearize_us": _time(linearize_fresh, F, X), "ok": ok}
            elif op == "orbit":
                X = VectorField(f, g)
                H, x0, y0, step = planted
                ok = (hexes(orbit_cold(X, planted)) == hexes(orbit(X, planted))
                      == hexes(reference_orbit(f, g, H, x0, y0, step, ORBIT_STEPS)))
                out[name] = {"us": _time(orbit, X, planted),
                             "cold_us": _time(orbit_cold, X, planted), "ok": ok}
            else:
                out[name] = {"us": _time(roots, f, g), "ok": roots(f, g) == planted}
        except TimeoutError:
            out[name] = {"timeout": True}
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    return out


def _summary(xs: list[float]) -> dict:
    q = quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return {"median_us": round(median(xs), 2), "q1_us": round(q[0], 2), "q3_us": round(q[2], 2)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="JSON file to write")
    ap.add_argument("--src", action="append", default=[], metavar="LABEL=DIR",
                    help="a tree to measure (repeatable); default change=<repo>/src")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--only", default="", metavar="PATTERN",
                    help="run only the cases whose names match this regular expression")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.only)))
        return 0
    if not cases(args.only):
        ap.error(f"no case matches --only {args.only!r}")
    if not args.out:
        ap.error("--out is required")
    trees = [s.split("=", 1) for s in args.src] or [["change", os.path.join(HERE, "..", "src")]]
    runs: dict = {label: [] for label, _ in trees}
    for r in range(args.rounds):
        for label, src in (trees if r % 2 == 0 else trees[::-1]):
            env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
            proc = subprocess.run([sys.executable, __file__, "--worker", "--only", args.only],
                                  env=env, capture_output=True, text=True, check=True)
            runs[label].append(json.loads(proc.stdout))
            print(f"round {r + 1}/{args.rounds} {label} done", file=sys.stderr)
    results = {}
    for label, rounds in runs.items():
        results[label] = {}
        for name in rounds[0]:
            if any("timeout" in rd[name] for rd in rounds):
                results[label][name] = {"timeout_s": CAP_S}
                continue
            row = {"ok": all(rd[name]["ok"] for rd in rounds),
                   **_summary([rd[name]["us"] for rd in rounds])}
            for key in rounds[0][name]:
                if key.endswith("_us") and key != "us":
                    row[key[:-3]] = _summary([rd[name][key] for rd in rounds])
            results[label][name] = row
    doc = {
        "benchmark": "scripts/bench_layers.py",
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "rounds": args.rounds,
        "cap_s": CAP_S,
        "trees": [label for label, _ in trees],
        "cases": {name: {"op": op, "terms": [len(f)] + ([len(g)] if g is not None else [])}
                  for name, op, f, g, _ in cases(args.only)},
        "results": results,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    bad = [f"{label}/{name}" for label, rows in results.items()
           for name, row in rows.items() if not row.get("ok", True)]
    for b in bad:
        print(f"check failed: {b}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
