"""Command-line front end.

Problems are single JSON documents: a name, a list of factors (polynomial
string plus exponent), and optionally an explicit field.  When the field
is absent it is synthesized from the factors and reduced.  Commands run
the analysis pipelines and emit either a human-readable text report or a
deterministic JSON report (schema_version "1", no timestamps).

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 input
or parse error, 3 some verdict was Inconclusive and --strict was set, 4
internal error (an exception the program did not expect; one line on
stderr, no report).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import bipoly as bp
from . import numcheck, upoly
from .bipoly import BiPoly, CheckResult, ParseError
from .cz_check import cz_report
from .field_ops import (FactoredIntegral, VectorField, is_coprime, is_first_integral,
                        cofactor, lie_derivative, minimal_degree_check, reduce_field,
                        _divergence, _multiplier, _potential)
from .linearize import factor_split, linearize
from .remarkable import (analyze, integral_degree_check,
                         inverse_factor_degree_check,
                         single_critical_value_criterion)


class ProblemError(Exception):
    """Anything wrong with the input file or flags; mapped to exit 2."""


@dataclass(frozen=True)
class ProblemSpec:
    """A loaded problem.  The expanded integral and the constructed field
    live on the integral (integral.H, integral.field); the reduction of
    the constructed field and the multiplier of the field under study are
    built here on first use and shared by every command run on the
    problem."""

    name: str
    integral: FactoredIntegral
    given_field: VectorField | None

    @property
    def field_given(self) -> bool:
        return self.given_field is not None

    @cached_property
    def reduced(self) -> tuple[VectorField, BiPoly]:
        """The constructed field split as (X', g) by reduce_field."""
        return reduce_field(self.integral.field)

    @property
    def field(self) -> VectorField:
        """The field under study: the given one, else the reduced
        constructed one."""
        return self.reduced[0] if self.given_field is None else self.given_field

    @cached_property
    def multiplier(self) -> BiPoly | None:
        """G with G * field = integral.field, which the criterion of
        `analyze` and `linearize` both need (a pivot reorders the factors
        but keeps integral.field); the zero polynomial when there is no
        such G, and None when the field is not coprime, which both
        refuse."""
        return _multiplier(self.integral, self.field) if is_coprime(self.field) else None


def load_problem(path: str) -> ProblemSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ProblemError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ProblemError(f"{path}: invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ProblemError(f"{path}: top level must be a JSON object")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise ProblemError(f"{path}: missing or empty \"name\"")
    raw = doc.get("factors")
    if not isinstance(raw, list) or not raw:
        raise ProblemError(f"{path}: \"factors\" must be a nonempty list")
    factors = []
    for idx, item in enumerate(raw, start=1):
        if not isinstance(item, dict) or "poly" not in item or "exponent" not in item:
            raise ProblemError(f"{path}: factor {idx} needs \"poly\" and \"exponent\"")
        k = item["exponent"]
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ProblemError(f"{path}: factor {idx}: exponent must be a positive integer")
        if not isinstance(item["poly"], str):
            raise ProblemError(f"{path}: factor {idx}: \"poly\" must be a string")
        try:
            u = bp.parse(item["poly"])
        except ParseError as e:
            raise ProblemError(f"{path}: factor {idx}: {e}") from e
        factors.append((u, k))
    degree = sum(k * bp.total_degree(u) for u, k in factors)
    if degree > bp.MAX_TOTAL_DEGREE:
        raise ProblemError(f"{path}: the integral's total degree sum k_i*deg u_i = {degree} "
                           f"exceeds the budget of {bp.MAX_TOTAL_DEGREE}")
    try:
        F = FactoredIntegral(tuple(factors))
    except ValueError as e:
        raise ProblemError(f"{path}: {e}") from e
    fdoc = doc.get("field")
    X = None
    if fdoc is not None:
        if not isinstance(fdoc, dict) or "p" not in fdoc or "q" not in fdoc:
            raise ProblemError(f"{path}: \"field\" needs \"p\" and \"q\"")
        if not (isinstance(fdoc["p"], str) and isinstance(fdoc["q"], str)):
            raise ProblemError(f"{path}: field: \"p\" and \"q\" must be strings")
        try:
            P = bp.parse(fdoc["p"])
            Q = bp.parse(fdoc["q"])
        except ParseError as e:
            raise ProblemError(f"{path}: field: {e}") from e
        try:
            X = VectorField(P, Q)
        except ValueError as e:
            raise ProblemError(f"{path}: {e}") from e
    return ProblemSpec(name, F, X)


# report plumbing


def _wit(w) -> object:
    """Witness in a JSON-friendly shape."""
    if w is None:
        return None
    if isinstance(w, tuple) and len(w) == 2 and all(isinstance(c, Fraction) for c in w):
        return {"x": str(w[0]), "y": str(w[1])}
    if isinstance(w, dict):
        return bp.to_string(w)
    return str(w)


def _cd(r: CheckResult) -> dict:
    out: dict = {"status": r.status}
    if r.witness is not None:
        out["witness"] = _wit(r.witness)
    if r.reason:
        out["reason"] = r.reason
    return out


def _statuses(obj) -> list[str]:
    found = []
    if isinstance(obj, dict):
        s = obj.get("status")
        if isinstance(s, str):
            found.append(s)
        for v in obj.values():
            found.extend(_statuses(v))
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            found.extend(_statuses(v))
    return found


def _exit_code(results: dict, strict: bool) -> int:
    statuses = _statuses(results)
    if "Fails" in statuses:
        return 1
    if strict and "Inconclusive" in statuses:
        return 3
    return 0


# commands


def cmd_construct(spec: ProblemSpec) -> dict:
    F = spec.integral
    X0 = F.field
    Xr, g = spec.reduced
    coprime = (bp.holds("gcd(P, Q) is constant") if bp.total_degree(g) == 0
               else bp.fails(bp.to_string(g), "P and Q share a factor"))
    out = {
        "field": {"P": bp.to_string(X0.P), "Q": bp.to_string(X0.Q)},
        "reduced_field": {"P": bp.to_string(Xr.P), "Q": bp.to_string(Xr.Q)},
        "common_factor": bp.to_string(g),
        "degree_m": X0.degree,
        "factor_degree_sum_minus_1": sum(bp.total_degree(u) for u, _ in F.factors) - 1,
        "coprime": _cd(coprime),
        "degree_check": _cd(minimal_degree_check(F)) if F.p >= 2
        else _cd(bp.inconclusive("not applicable: single factor")),
    }
    if spec.field_given:
        H = F.H
        ok = is_first_integral(spec.field, H)
        out["given_field"] = {
            "P": bp.to_string(spec.field.P),
            "Q": bp.to_string(spec.field.Q),
            "annihilates_integral": _cd(
                bp.holds("lie derivative is zero") if ok
                else bp.fails(bp.to_string(lie_derivative(spec.field, H)),
                              "nonzero lie derivative")),
        }
    return out


def cmd_analyze(spec: ProblemSpec) -> dict:
    F, X = spec.integral, spec.field
    out: dict = {"integral": bp.to_string(F.H), "degree_m": X.degree}
    if all(k == 1 for _, k in F.factors):
        div = _divergence(X)
        if not bp.is_zero(div):
            out["hamiltonian"] = _cd(bp.fails(bp.to_string(div), "nonzero divergence"))
            return out
        Hp = _potential(X.P, X.Q)
        # Hp_y = P and Hp_x = -Q, so X(Hp) = Hp_x P + Hp_y Q = 0
        branch = {
            "potential": bp.to_string(Hp),
            "annihilates": _cd(bp.holds("lie derivative of the potential is zero")),
        }
        cofs = []
        for i, (u, _) in enumerate(F.factors, start=1):
            K = cofactor(u, X)
            cofs.append({"factor": bp.to_string(u),
                         "cofactor": None if K is None else bp.to_string(K)})
            if K is None:
                branch["annihilates"] = _cd(bp.fails(
                    bp.to_string(u), f"factor {i} is not an invariant curve"))
        branch["cofactors"] = cofs
        out["hamiltonian"] = branch
        return out
    a = analyze(F)
    out["integrating_factor"] = bp.to_string(a.R)
    out["inverse_integrating_factor"] = bp.to_string(a.V)
    out["critical_values"] = [str(c) for c in a.critical_values]
    out["residual"] = None if a.residual is None else upoly.to_string(a.residual, "c")
    out["s"] = a.s
    out["deg_R"] = a.d
    checks: dict = {}
    for key, run in (
        ("single_critical_value",
         lambda: single_critical_value_criterion(F, X, a, spec.multiplier)),
        ("inverse_factor_degree", lambda: inverse_factor_degree_check(a, X.degree)),
        ("integral_degree", lambda: integral_degree_check(F, X)),
    ):
        try:
            checks[key] = _cd(run())
        except ValueError as e:
            checks[key] = _cd(bp.inconclusive(f"not applicable: {e}"))
    out["checks"] = checks
    return out


def cmd_cz(spec: ProblemSpec) -> dict:
    rep = cz_report(spec.integral)
    return {
        "condition_i_nonsingular": _cd(rep.condition_i),
        "condition_ii_leading_squarefree": _cd(rep.condition_ii),
        "condition_iii_transversal_no_triples": _cd(rep.condition_iii),
        "condition_iv_leading_coprime": _cd(rep.condition_iv),
        "overall": _cd(rep.overall),
    }


def cmd_linearize(spec: ProblemSpec, pivot: int | None) -> dict:
    F = spec.integral
    if pivot is not None:
        try:
            F = factor_split(F, pivot)
        except ValueError as e:
            raise ProblemError(str(e)) from e
    try:
        cert = linearize(F, spec.field, spec.multiplier)
    except bp.ExactDivisionError as e:
        return {"certificate": _cd(bp.fails(
            bp.to_string(e.remainder),
            "an exact-division identity left a nonzero remainder"))}
    except ArithmeticError as e:
        return {"certificate": _cd(bp.fails(str(e), "degenerate split"))}
    except ValueError as e:
        raise ProblemError(str(e)) from e
    return {
        "u": bp.to_string(cert.u_expr),
        "v": bp.to_string(cert.v_expr),
        "K": [bp.to_string(k) for k in (cert.K1, cert.K2, cert.K3, cert.K4)],
        "D": bp.to_string(cert.D),
        "G": bp.to_string(cert.G),
        "hamiltonian_input": cert.hamiltonian_input,
        "time_change": cert.time_change,
        "certificate": _cd(bp.holds("all four polynomial identities verified exactly")),
    }


def cmd_simulate(spec: ProblemSpec, args) -> dict:
    if args.steps < 1:
        raise ProblemError("--steps must be a positive integer")
    if not all(map(math.isfinite, (args.x0, args.y0, args.step))):
        raise ProblemError("--x0, --y0 and --step must be finite numbers")
    if args.step <= 0:
        raise ProblemError("--step must be positive")
    H = spec.integral.H
    orbit = numcheck.integrate_orbit(spec.field, args.x0, args.y0, args.step, args.steps)
    drift = numcheck.conservation_drift(H, orbit)
    out = {
        "x0": args.x0,
        "y0": args.y0,
        "step": args.step,
        "steps_requested": args.steps,
        "points": len(orbit.points),
        "truncated": len(orbit.points) < args.steps + 1,
        "drift": drift,
    }
    if args.csv:
        try:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(numcheck.to_csv(orbit, H))
        except OSError as e:
            raise ProblemError(f"cannot write {args.csv}: {e}") from e
        out["csv"] = args.csv
    return out


def cmd_all(spec: ProblemSpec, args) -> dict:
    out = {"construct": cmd_construct(spec), "analyze": cmd_analyze(spec),
           "cz": cmd_cz(spec)}
    if spec.integral.p >= 2:
        out["linearize"] = cmd_linearize(spec, args.pivot)
    else:
        out["linearize"] = {"skipped": "needs at least two factors"}
    out["simulate"] = cmd_simulate(spec, args)
    return out


def _render_text(obj, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v if v or v == 0 or v is False else '(none)'}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{obj}")
    return lines


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="polysaddle",
        description="Construct, analyze and linearize planar polynomial "
                    "fields with factored polynomial first integrals.")
    p.add_argument("command",
                   choices=["construct", "analyze", "cz", "linearize", "simulate", "all"])
    p.add_argument("problem", help="path to a problem JSON file")
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when any verdict is Inconclusive")
    p.add_argument("--pivot", type=int, default=None,
                   help="1-based factor index to move into the pivot slot before linearizing")
    p.add_argument("--x0", type=float, default=1.0)
    p.add_argument("--y0", type=float, default=1.0)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--csv", default=None, help="write the simulated orbit to this file")
    return p


_PARSER = _parser()  # built once per process; main only parses


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        spec = load_problem(args.problem)
        if args.command == "construct":
            results = cmd_construct(spec)
        elif args.command == "analyze":
            results = cmd_analyze(spec)
        elif args.command == "cz":
            results = cmd_cz(spec)
        elif args.command == "linearize":
            results = cmd_linearize(spec, args.pivot)
        elif args.command == "simulate":
            results = cmd_simulate(spec, args)
        else:
            results = cmd_all(spec, args)
    except ProblemError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        # a fault of the program, not a verdict: never let it read as exit 1
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4

    report = {"schema_version": "1", "name": spec.name,
              "command": args.command, "results": results}
    if args.format == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(f"problem: {spec.name}")
        print(f"command: {args.command}")
        for line in _render_text(results):
            print(line)
    return _exit_code(results, args.strict)


if __name__ == "__main__":
    sys.exit(main())
