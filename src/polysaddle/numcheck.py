"""Floating-point sanity layer: orbit integration and drift measurement.

Everything else in the package is exact; this module deliberately is not.
It integrates orbits with fixed-step classical RK4 (a deterministic
witness, not a production integrator) and measures how well a claimed
first integral is conserved along them.

The float work runs in two generated kernels, with no Python call per
point.  `_rk4_kernel` runs the whole step loop with P and Q written out
inline at all four stages (past _INLINE coefficients, too many to compile
four times, it calls one generated function for each); `_value_kernel`
evaluates the integral at every orbit point, for the drift and for the
CSV export, and `compile_poly` wraps it for a single point.  The integral
comes as its factors (u_i, k_i) and is evaluated as prod u_i^{k_i}: each
u_i once per point, its power by products, so the value carries the
rounding of the factors and never the cancellation of the expanded H,
whose Horner error grows with sum |a_i| |x|^i (Higham, Accuracy and
Stability of Numerical Algorithms, 5.1).  A bare polynomial is the one
factor (H, 1), evaluated by one Horner form.

A kernel depends only on the shape of its polynomials, the number of
x-coefficients at each power of y (and, for the value kernel, on the
exponents), and a bounded LRU cache keeps one per key: the coefficients
come in as a tuple of floats and are unpacked into locals, so no input
coefficient is in the generated source and polynomials of one shape
share one kernel.  A polynomial is written as a Horner form in y over
Horner forms in x.  One expression nests at most _DEPTH parentheses
deep; a longer chain goes on in statements through temporaries, so forms
up to the degree budget compile.

The orbit is bit for bit that of plain RK4 with one Horner evaluator per
component, and a bare polynomial's values are those of its Horner
evaluator: the kernels make the same float operations on the same
operands in the same order (a zero coefficient is still added; `0.5 * h`
and `h / 6.0` are merely hoisted), and the abort test
`-1e12 <= x <= 1e12` is false for NaN and the infinities, exactly as a
finiteness test is.  A coefficient too large for a float becomes an
infinity of its sign; the orbit then stops at its start.  A power past
the float range is an infinity too, as a product overflows where float
`**` would raise OverflowError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .bipoly import BiPoly
from .field_ops import VectorField

_ABORT = 1e12
_DEPTH = 32  # parentheses one generated expression may nest; CPython's parser stops at 200
_KERNELS = 64  # kernels each cache keeps
# P and Q are written out at all four RK4 stages up to this many
# coefficients together; past it, compiling four copies costs more
# memory than the calls it saves (about 2 KB a term)
_INLINE = 1000


def _float(c) -> float:
    """c as a float; an infinity of its sign when it is too large for one."""
    try:
        return float(c)
    except OverflowError:
        return math.inf if c > 0 else -math.inf


def _split(f: BiPoly) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """(shape, coefficients) of f: shape[j] is one more than the highest
    power of x at y^j (0 for none), and the coefficients run over x^0 ..
    in y^0, then y^1, ..., zeros included."""
    if not f:
        return (), ()
    shape = [0] * (max(j for _, j in f) + 1)
    for i, j in f:
        if i >= shape[j]:
            shape[j] = i + 1
    start = [0]
    for n in shape:
        start.append(start[-1] + n)
    coeffs = [0.0] * start[-1]
    for (i, j), c in f.items():
        coeffs[start[j] + i] = _float(c)
    return tuple(shape), tuple(coeffs)


def _horner(shape: tuple[int, ...], names: list[str], x: str, y: str,
            tmp: str) -> tuple[list[str], str]:
    """Statements and an expression that evaluate the polynomial of this
    shape, whose coefficients are the locals `names`, at (x, y) as a Horner
    form in y over Horner forms in x.  No expression nests deeper than
    _DEPTH; the statements assign temporaries named tmp0, tmp1, ..."""
    stmts: list[str] = []

    def bound(e: str, d: int) -> tuple[str, int]:
        if d < _DEPTH:
            return e, d
        t = f"{tmp}{len(stmts)}"
        stmts.append(f"{t} = {e}")
        return t, 0

    acc = None
    end = len(names)
    for n in reversed(shape):
        row, end = names[end - n:end], end - n
        e, d = (row[-1], 0) if row else ("0.0", 0)
        for c in reversed(row[:-1]):
            e, d = bound(e, d)
            e, d = f"({e})*{x} + {c}", d + 1
        if acc is not None:
            (a, da), (e, d) = bound(*acc), bound(e, d)
            e, d = f"({a})*{y} + ({e})", max(da, d) + 1
        acc = e, d
    return stmts, acc[0] if acc else "0.0"


def _unpack(names: list[str], source: str) -> list[str]:
    return [f"{', '.join(names)}, = {source}"] if names else []


def _define(lines: list[str], name: str, **namespace):
    exec("\n".join(lines), namespace)  # noqa: S102  (the source holds no input)
    return namespace[name]


def _names(prefix: str, shape: tuple[int, ...]) -> list[str]:
    return [f"{prefix}{k}" for k in range(sum(shape))]


@functools.lru_cache(maxsize=_KERNELS)
def _rk4_kernel(shape_p: tuple[int, ...], shape_q: tuple[int, ...]):
    """rk4(x, y, h, n, cp, cq) -> points: n classical RK4 steps of
    (P, Q) from (x, y), stopping before the first point outside the box
    [-1e12, 1e12]^2; cp, cq are the coefficients of P and Q.  P and Q
    are written out at each stage, or past _INLINE coefficients called
    there as functions of their own."""
    polys = (("P", shape_p, _names("p", shape_p), "cp"),
             ("Q", shape_q, _names("q", shape_q), "cq"))
    inline = sum(shape_p) + sum(shape_q) <= _INLINE
    head, functions, evals = [], {}, []
    for f, shape, names, cs in polys:
        if inline:  # one template, its point filled in at each stage
            head += _unpack(names, cs)
            stmts, e = _horner(shape, names, "{x}", "{y}", f"t{f}")
            evals.append("\n".join(stmts + [f"{{k}} = {e}"]))
        else:  # compiled one at a time, which lowers the peak memory
            stmts, e = _horner(shape, names, "x", "y", "t")
            functions[f] = _define([f"def {f}(x, y, {cs}):",
                                    *("    " + s for s in _unpack(names, cs) + stmts),
                                    f"    return {e}"], f)
            evals.append(f"{{k}} = {f}({{x}}, {{y}}, {cs})")
    body = []
    for s, (x, y) in enumerate((("x", "y"), ("x2", "y2"), ("x3", "y3"), ("x4", "y4")), 1):
        for template, k in zip(evals, (f"k{s}x", f"k{s}y")):
            body += template.format(x=x, y=y, k=k).split("\n")
        if s < 4:
            w = "h" if s == 3 else "hh"
            body += [f"x{s + 1} = x + {w} * k{s}x", f"y{s + 1} = y + {w} * k{s}y"]
    body += ["x += h6 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)",
             "y += h6 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)",
             f"if not ({-_ABORT!r} <= x <= {_ABORT!r} and {-_ABORT!r} <= y <= {_ABORT!r}):",
             "    break",
             "append((x, y))"]
    head += ["hh = 0.5 * h", "h6 = h / 6.0", "pts = [(x, y)]", "append = pts.append",
             "for _ in range(n):"]
    return _define(["def rk4(x, y, h, n, cp, cq):", *("    " + s for s in head),
                    *("        " + s for s in body), "    return pts"], "rk4", **functions)


def _power(v: str, k: int, tmp: str) -> tuple[list[str], str]:
    """Statements and a name that hold v**k, k >= 1, formed by products
    (square and multiply over the bits of k): a product overflows to an
    infinity, where float ** raises OverflowError."""
    stmts, acc = [], v
    for bit in bin(k)[3:]:
        stmts.append(f"{tmp} = {acc} * {acc}")
        acc = tmp
        if bit == "1":
            stmts.append(f"{tmp} = {tmp} * {v}")
    return stmts, acc


@functools.lru_cache(maxsize=_KERNELS)
def _value_kernel(shapes: tuple[tuple[int, ...], ...], exponents: tuple[int, ...]):
    """values(points, cs) -> prod u_i^{k_i} at each (x, y) of points, u_i
    of shapes[i] and k_i = exponents[i], the coefficients of u_1, u_2, ...
    one after another in cs.  Each u_i is a Horner form, its power formed
    by _power, and the powers are multiplied in factor order."""
    names = [_names(f"c{i}_", shape) for i, shape in enumerate(shapes)]
    body, powers = [], []
    for i, (shape, k) in enumerate(zip(shapes, exponents)):
        stmts, e = _horner(shape, names[i], "x", "y", f"t{i}_")
        more, v = _power(f"u{i}", k, f"w{i}")
        body += stmts + [f"u{i} = {e}"] + more
        powers.append(v)
    # the product goes left to right, in chains of at most _DEPTH operands
    head = " * ".join(powers[:_DEPTH])
    for at in range(_DEPTH, len(powers), _DEPTH):
        body.append(f"h = {head}")
        head = " * ".join(["h"] + powers[at:at + _DEPTH])
    return _define(["def values(points, cs):",
                    *("    " + s for s in _unpack([c for row in names for c in row], "cs")),
                    "    out = []", "    append = out.append", "    for x, y in points:",
                    *("        " + s for s in body), f"        append({head})",
                    "    return out"], "values")


def _values(H: BiPoly | Sequence[tuple[BiPoly, int]], points) -> list[float]:
    """H at each point: a BiPoly by one Horner form, factors (u_i, k_i) as
    prod u_i^{k_i} (_value_kernel); a BiPoly is the one factor (H, 1)."""
    factors = ((H, 1),) if isinstance(H, dict) else H
    split = [_split(u) for u, _ in factors]
    kernel = _value_kernel(tuple(shape for shape, _ in split), tuple(k for _, k in factors))
    return kernel(points, tuple(c for _, coeffs in split for c in coeffs))


def compile_poly(f: BiPoly) -> Callable[[float, float], float]:
    """Float evaluator for f, as a nested Horner form in y over x."""
    shape, coeffs = _split(f)
    values = _value_kernel((shape,), (1,))
    return lambda x, y: values(((x, y),), coeffs)[0]


@dataclass(frozen=True)
class Orbit:
    """RK4 trajectory; points are (x, y) with implied times i*step."""

    points: tuple[tuple[float, float], ...]
    step: float
    method: str = "RK4"

    def __post_init__(self):
        if not self.points:
            raise ValueError("orbit must contain at least one point")


def integrate_orbit(X: VectorField, x0: float, y0: float,
                    step: float, n: int) -> Orbit:
    """Classical fixed-step RK4 from (x0, y0) for n steps.

    The orbit is truncated early if a coordinate leaves [-1e12, 1e12] or
    stops being finite.
    """
    if not all(map(math.isfinite, (x0, y0, step))):
        raise ValueError("x0, y0 and step must be finite")
    if step <= 0:
        raise ValueError("step must be positive")
    if n < 1:
        raise ValueError("need at least one step")
    (shape_p, cp), (shape_q, cq) = _split(X.P), _split(X.Q)
    h = float(step)
    pts = _rk4_kernel(shape_p, shape_q)(float(x0), float(y0), h, n, cp, cq)
    return Orbit(tuple(pts), h)


def conservation_drift(H: BiPoly | Sequence[tuple[BiPoly, int]],
                       orbit: Orbit) -> float | None:
    """max over the orbit of |H(x,y) - H(x0,y0)| / max(1, |H(x0,y0)|), or
    None when that is not a finite number: H overflowed on the orbit.  H
    is a BiPoly or its factors (u_i, k_i); see _values."""
    return _drift(_values(H, orbit.points))


def _drift(hs: list[float]) -> float | None:
    """conservation_drift from the values hs of H along the orbit."""
    h0 = hs[0]
    scale = max(1.0, abs(h0))
    gaps = [abs(v - h0) for v in hs]
    drift = max(gaps) / scale
    # max skips a NaN that is not first, so the sum looks for one
    return drift if math.isfinite(drift) and not math.isnan(sum(gaps)) else None


def to_csv(orbit: Orbit, H: BiPoly | Sequence[tuple[BiPoly, int]]) -> str:
    """CSV with header t,x,y,H; one row per orbit point.  H is a BiPoly or
    its factors (u_i, k_i); see _values."""
    return _csv(orbit, _values(H, orbit.points))


def _csv(orbit: Orbit, hs: list[float]) -> str:
    """to_csv from the values hs of H along the orbit."""
    lines = ["t,x,y,H"]
    for i, ((x, y), v) in enumerate(zip(orbit.points, hs)):
        lines.append(f"{i * orbit.step!r},{x!r},{y!r},{v!r}")
    return "\n".join(lines) + "\n"
