"""Floating-point sanity layer: orbit integration and drift measurement.

Everything else in the package is exact; this module deliberately is not.
It integrates orbits with fixed-step classical RK4 (a deterministic
witness, not a production integrator) and measures how well a claimed
first integral is conserved along them.  Polynomials are compiled once
into nested Horner closures so long orbit batches stay cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from . import bipoly as bp
from .bipoly import BiPoly
from .field_ops import VectorField

_ABORT = 1e12


def compile_poly(f: BiPoly) -> Callable[[float, float], float]:
    """Float evaluator for f, as a nested Horner form in y over x."""
    if not f:
        return lambda x, y: 0.0
    rows = bp.coeffs_wrt_y(f)

    def horner_x(p) -> str:
        if not p:
            return "0.0"
        expr = repr(float(p[-1]))
        for c in reversed(p[:-1]):
            expr = f"({expr})*x + {float(c)!r}"
        return expr

    expr = horner_x(rows[-1])
    for p in reversed(rows[:-1]):
        expr = f"({expr})*y + ({horner_x(p)})"
    return eval(f"lambda x, y: {expr}", {"__builtins__": {}})  # noqa: S307


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
    fp = compile_poly(X.P)
    fq = compile_poly(X.Q)
    h = float(step)
    pts = [(float(x0), float(y0))]
    x, y = pts[0]
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
        if not (math.isfinite(x) and math.isfinite(y)) or abs(x) > _ABORT or abs(y) > _ABORT:
            break
        pts.append((x, y))
    return Orbit(tuple(pts), h)


def conservation_drift(H: BiPoly, orbit: Orbit) -> float | None:
    """max over the orbit of |H(x,y) - H(x0,y0)| / max(1, |H(x0,y0)|), or
    None when that is not a finite number: H overflowed on the orbit."""
    fh = compile_poly(H)
    x0, y0 = orbit.points[0]
    h0 = fh(x0, y0)
    scale = max(1.0, abs(h0))
    gaps = [abs(fh(x, y) - h0) for x, y in orbit.points]
    drift = max(gaps) / scale
    # max skips a NaN that is not first, so the sum looks for one
    return drift if math.isfinite(drift) and not math.isnan(sum(gaps)) else None


def to_csv(orbit: Orbit, H: BiPoly) -> str:
    """CSV with header t,x,y,H; one row per orbit point."""
    fh = compile_poly(H)
    lines = ["t,x,y,H"]
    for i, (x, y) in enumerate(orbit.points):
        lines.append(f"{i * orbit.step!r},{x!r},{y!r},{fh(x, y)!r}")
    return "\n".join(lines) + "\n"
