"""Checks of the program's JSON reports against computations made apart
from it, with sympy over Q and exact rational evaluation.

`check(problem, cmd, report, ...)` returns a list of problems; empty means
the report is right.  Nothing here imports polysaddle, and nothing is
compared with a stored copy of an earlier report.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations

import sympy as sp

from corpus import CZ_KEYS, Instance

x, y, t, c = sp.symbols("x y t c")

# RK4 drift allowed from a start off {V = 0}; the step (see corpus._step)
# makes orbits cover about 0.1 unit, where the drift seen is below 1e-10
DRIFT_BOUND = 1e-8


def poly(s: str) -> sp.Poly:
    return sp.Poly(sp.sympify(s.replace("^", "**")), x, y, domain=sp.QQ)


def _deg(f: sp.Poly) -> int:
    return f.total_degree() if not f.is_zero else -1


def _is_const(f: sp.Poly) -> bool:
    return _deg(f) <= 0


def _prod(polys: list[sp.Poly]) -> sp.Poly:
    out = sp.Poly(1, x, y, domain=sp.QQ)
    for p in polys:
        out *= p
    return out


def _leading_form(f: sp.Poly) -> sp.Poly:
    d = _deg(f)
    return sp.Poly.from_dict({m: v for m, v in f.as_dict().items() if sum(m) == d},
                             x, y, domain=sp.QQ)


def _empty(polys: list[sp.Poly]) -> bool:
    """No common zero in C^2: the reduced Groebner basis is {1}."""
    live = [p.as_expr() for p in polys if not p.is_zero]
    return list(sp.groebner(live, x, y, order="grevlex", domain=sp.QQ).exprs) == [1]


def _statuses(obj) -> list[str]:
    out = []
    if isinstance(obj, dict):
        if isinstance(obj.get("status"), str):
            out.append(obj["status"])
        for v in obj.values():
            out += _statuses(v)
    elif isinstance(obj, list):
        for v in obj:
            out += _statuses(v)
    return out


def expected_exit(report: dict) -> int:
    """The README's contract: 1 when some check fails, else 0."""
    return 1 if "Fails" in _statuses(report) else 0


class Problem:
    """What the oracle derives from an instance's factors alone."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self.u = [poly(s) for s, _ in inst.factors]
        self.k = [k for _, k in inst.factors]
        self.H = _prod([u ** k for u, k in zip(self.u, self.k)])
        self.R = _prod([u ** (k - 1) for u, k in zip(self.u, self.k)])
        self.V = _prod(self.u)
        # the constructed field P0 = sum k_l (prod others) u_l,y, Q0 = -sum ... u_l,x
        self.P0 = self.Q0 = sp.Poly(0, x, y, domain=sp.QQ)
        for l, (u, k) in enumerate(zip(self.u, self.k)):
            others = _prod([v for i, v in enumerate(self.u) if i != l])
            self.P0 += k * others * u.diff(y)
            self.Q0 -= k * others * u.diff(x)
        self.g0 = self.P0.gcd(self.Q0)
        self.m0 = max(_deg(self.P0), _deg(self.Q0))
        self.m = self.m0 - _deg(self.g0)  # degree of the reduced field
        self._critical = None
        self._cz = None

    def critical(self) -> tuple[set[Fraction], list[sp.Poly]]:
        """Rational critical values, and minimal polynomials (in t) of the
        others: the values of -H on the irreducible components of
        gcd(H_x, H_y)."""
        if self._critical is None:
            Hx, Hy = self.H.diff(x), self.H.diff(y)
            G = Hy if Hx.is_zero else Hx if Hy.is_zero else Hx.gcd(Hy)
            rational: set[Fraction] = set()
            irrational: list[sp.Poly] = []
            for f, _ in G.factor_list()[1]:
                # -H is constant on each complex component of f = 0, so the
                # resultant below is a product of (t - value) factors
                main, other = (y, x) if f.degree(y) >= 1 else (x, y)
                lc = sp.Poly(f.as_expr(), main).LC()
                a = next(a for a in range(100) if lc.subs(other, a) != 0)
                fa = f.as_expr().subs(other, a)
                ha = self.H.as_expr().subs(other, a)
                r = sp.Poly(sp.resultant(fa, t + ha, main), t)
                for m, _ in r.factor_list()[1]:
                    if m.degree() == 1:
                        a1, a0 = m.all_coeffs()
                        rational.add(Fraction(str(-a0 / a1)))
                    elif m not in irrational:
                        irrational.append(m)
            self._critical = (rational, irrational)
        return self._critical

    def cz(self) -> dict[str, str]:
        """Verdict of each Christopher-Zoladek condition, decided by
        Groebner bases and gcds."""
        if self._cz is None:
            us = self.u
            i = all(_empty([u, u.diff(x), u.diff(y)]) for u in us)
            leads = [_leading_form(u) for u in us]
            ii = all(_is_const(L.gcd(L.diff(x)).gcd(L.diff(y))) for L in leads)
            iii = all(_empty([u, v, u.diff(x) * v.diff(y) - u.diff(y) * v.diff(x)])
                      for u, v in combinations(us, 2))
            iii = iii and all(_empty(list(tr)) for tr in combinations(us, 3))
            iv = all(_is_const(a.gcd(b)) for a, b in combinations(leads, 2))
            self._cz = {key: "Holds" if ok else "Fails"
                        for key, ok in zip(CZ_KEYS, (i, ii, iii, iv))}
        return self._cz


def _eq(label: str, got: str, want: sp.Poly, errs: list[str]) -> None:
    if poly(got) != want:
        errs.append(f"{label}: {got} is wrong")


def _vanish(polys: list[sp.Poly], w: dict) -> bool:
    px, py = sp.Rational(w["x"]), sp.Rational(w["y"])
    return all(p.eval({x: px, y: py}) == 0 for p in polys)


# ---------------------------------------------------------------------------
# per command


def check_construct(pb: Problem, r: dict, errs: list[str]) -> None:
    _eq("field.P", r["field"]["P"], pb.P0, errs)
    _eq("field.Q", r["field"]["Q"], pb.Q0, errs)
    lie = pb.H.diff(x) * pb.P0 + pb.H.diff(y) * pb.Q0
    if not lie.is_zero:
        errs.append("constructed field does not annihilate H")
    P, Q, g = (poly(s) for s in (r["reduced_field"]["P"], r["reduced_field"]["Q"],
                                  r["common_factor"]))
    if not _is_const(P.gcd(Q)):
        errs.append("reduced field is not coprime")
    if g * P != pb.P0 or g * Q != pb.Q0:
        errs.append("field != common_factor * reduced_field")
    if r["degree_m"] != pb.m0:
        errs.append("degree_m")
    if r["factor_degree_sum_minus_1"] != sum(_deg(u) for u in pb.u) - 1:
        errs.append("factor_degree_sum_minus_1")
    coprime = _is_const(pb.g0)
    if r["coprime"]["status"] != ("Holds" if coprime else "Fails"):
        errs.append("coprime verdict")
    if len(pb.u) >= 2:
        want = "Holds" if coprime and pb.m0 == sum(_deg(u) for u in pb.u) - 1 else "Fails"
        if r["degree_check"]["status"] != want:
            errs.append("degree_check verdict")


def _field(construct: dict | None, errs: list[str]) -> tuple[sp.Poly, sp.Poly] | None:
    """The reduced field from a construct report already checked."""
    if construct is None:
        errs.append("no checked construct report for this instance")
        return None
    return poly(construct["reduced_field"]["P"]), poly(construct["reduced_field"]["Q"])


def check_analyze(pb: Problem, r: dict, construct: dict | None, errs: list[str]) -> None:
    _eq("integral", r["integral"], pb.H, errs)
    if r["degree_m"] != pb.m:
        errs.append("degree_m")
    X = _field(construct, errs)
    if X is None:
        return
    P, Q = X
    if all(k == 1 for k in pb.k):
        hb = r["hamiltonian"]
        div_free = (P.diff(x) + Q.diff(y)).is_zero
        if not div_free:
            if hb["status"] != "Fails":
                errs.append("divergent field not reported")
            return
        Hp = poly(hb["potential"])
        if Hp.diff(y) != P or Hp.diff(x) != -Q:
            errs.append("potential does not generate the field")
        for u, cof in zip(pb.u, hb["cofactors"]):
            if cof["cofactor"] is None or poly(cof["cofactor"]) * u != u.diff(x) * P + u.diff(y) * Q:
                errs.append(f"cofactor of {cof['factor']}")
        if hb["annihilates"]["status"] != "Holds":
            errs.append("hamiltonian annihilation verdict")
        return
    _eq("integrating_factor", r["integrating_factor"], pb.R, errs)
    _eq("inverse_integrating_factor", r["inverse_integrating_factor"], pb.V, errs)
    rational, irrational = pb.critical()
    got = {Fraction(v) for v in r["critical_values"]}
    if got != rational or len(got) != len(r["critical_values"]):
        errs.append(f"critical values {sorted(map(str, got))} != {sorted(map(str, rational))}")
    if irrational:
        if r["residual"] is None:
            errs.append("nonrational critical values but no residual")
        else:
            res = sp.Poly(sp.sympify(r["residual"].replace("^", "**")).subs(c, t), t)
            for m in irrational:
                if not res.rem(m).is_zero:
                    errs.append(f"residual misses the critical values of {m.as_expr()}")
    if pb.inst.line_family and (rational != {Fraction(0)} or irrational):
        errs.append("a line family must have exactly the critical value 0")
    if r["s"] != len(rational) or r["deg_R"] != _deg(pb.R):
        errs.append("s or deg_R")
    checks = r["checks"]
    s, d, m = len(rational), _deg(pb.R), pb.m
    n_true = len(rational) + sum(p.degree() for p in irrational)
    sum_deg = sum(_deg(u) for u in pb.u)
    if r["residual"] is not None and s < 2:
        want = "Inconclusive"
    else:
        want = "Holds" if (sum_deg == m + 1) == (n_true == 1) else "Fails"
    if checks["single_critical_value"]["status"] != want:
        errs.append("single_critical_value verdict")
    want = ("Inconclusive" if s < 1
            else "Holds" if _deg(pb.V) == (s - 1) * d + (m + 1) * s else "Fails")
    if checks["inverse_factor_degree"]["status"] != want:
        errs.append("inverse_factor_degree verdict")
    hamiltonian = (P.diff(x) + Q.diff(y)).is_zero
    want = ("Inconclusive" if hamiltonian
            else "Holds" if _deg(pb.H) == m + 1 + d else "Fails")
    if checks["integral_degree"]["status"] != want:
        errs.append("integral_degree verdict")


_CURVE = re.compile(r"curves? (\d+(?:,\d+)*)")


def _witness_polys(pb: Problem, reason: str) -> list[sp.Poly] | None:
    """The polynomials a point witness must zero, from the curves the
    verdict's reason names."""
    found = _CURVE.findall(reason)
    if not found:
        return None
    idx = [int(n) - 1 for n in found[-1].split(",")]
    us = [pb.u[i] for i in idx]
    if "nonsingular" in reason:
        return [us[0], us[0].diff(x), us[0].diff(y)]
    if "transversal" in reason and len(us) == 2:
        u, v = us
        return [u, v, u.diff(x) * v.diff(y) - u.diff(y) * v.diff(x)]
    return us


def check_cz(pb: Problem, r: dict, errs: list[str]) -> None:
    truth = pb.cz()
    for key in CZ_KEYS:
        got = r[key]["status"]
        if got != truth[key]:
            errs.append(f"{key}: {got}, independent check says {truth[key]}")
        if key in pb.inst.planted and got != pb.inst.planted[key]:
            errs.append(f"{key}: {got}, planted {pb.inst.planted[key]}")
        w = r[key].get("witness")
        if got == "Fails" and isinstance(w, dict):
            polys = _witness_polys(pb, r[key].get("reason", ""))
            if polys is None or not _vanish(polys, w):
                errs.append(f"{key}: witness {w} is not a common zero")
        elif got == "Fails" and key in (CZ_KEYS[1], CZ_KEYS[3]):
            gw = poly(w)
            leads = [_leading_form(u) for u in pb.u]
            if _is_const(gw) or not any(L.rem(gw).is_zero for L in leads):
                errs.append(f"{key}: witness {w} divides no leading form")
    overall = "Fails" if "Fails" in truth.values() else "Holds"
    if r["overall"]["status"] != overall:
        errs.append("overall verdict")
    if pb.inst.rational_witness:
        for key, want in pb.inst.planted.items():
            if want == "Fails" and not isinstance(r[key].get("witness"), dict):
                errs.append(f"{key}: no exact point witness for a rational defect")


def check_linearize(pb: Problem, r: dict, construct: dict | None, errs: list[str]) -> None:
    head_u, head_k = pb.u[:-1], pb.k[:-1]
    up, kp = pb.u[-1], pb.k[-1]
    if r["certificate"]["status"] == "Fails":
        # only a degenerate split may fail: D = K1 K4 - K2 K3 vanishes, and
        # with K3 = k_p u_p,x and K4 = k_p u_p,y that is K1 u_p,y = K2 u_p,x
        K1 = K2 = sp.Poly(0, x, y, domain=sp.QQ)
        for i, (u, k) in enumerate(zip(head_u, head_k)):
            others = _prod([w for j, w in enumerate(head_u) if j != i])
            K1 += k * u.diff(x) * others
            K2 += k * u.diff(y) * others
        if K1 * up.diff(y) != K2 * up.diff(x):
            errs.append("certificate fails but the split is not degenerate")
        return
    X = _field(construct, errs)
    if X is None:
        return
    P, Q = X
    u, v, D, G = (poly(r[k]) for k in ("u", "v", "D", "G"))
    K1, K2, K3, K4 = (poly(s) for s in r["K"])
    want_u = _prod([f ** k for f, k in zip(head_u, head_k)])
    Rt = _prod([f ** (k - 1) for f, k in zip(head_u, head_k)])
    W = _prod(head_u)
    if u != want_u or v != up ** kp or u * v != pb.H:
        errs.append("u, v do not split H")
    # the K are the half-gradients of the split
    if u.diff(x) != Rt * K1 or u.diff(y) != Rt * K2:
        errs.append("K1, K2 are not the half-gradients of u")
    if v.diff(x) != up ** (kp - 1) * K3 or v.diff(y) != up ** (kp - 1) * K4:
        errs.append("K3, K4 are not the half-gradients of v")
    if D != K1 * K4 - K2 * K3:
        errs.append("D != K1 K4 - K2 K3")
    if G * P != K4 * W + K2 * up or G * Q != -(K1 * up + K3 * W):
        errs.append("multiplier identities")
    if G * (u.diff(x) * P + u.diff(y) * Q) != D * u:
        errs.append("u pullback")
    if G * (v.diff(x) * P + v.diff(y) * Q) != -(D * v):
        errs.append("v pullback")


def check_simulate(pb: Problem, r: dict, steps: int, errs: list[str]) -> None:
    inst = pb.inst
    if (r["x0"], r["y0"], r["step"], r["steps_requested"]) != (inst.x0, inst.y0, inst.step, steps):
        errs.append("simulate echoes other arguments")
    if pb.V.eval({x: sp.Rational(Fraction(inst.x0)), y: sp.Rational(Fraction(inst.y0))}) == 0:
        errs.append("start lies on {V = 0}")
    if r["truncated"] != (r["points"] < steps + 1) or r["points"] > steps + 1:
        errs.append("points and truncated disagree")
    if not r["truncated"] and not r["drift"] <= DRIFT_BOUND:
        errs.append(f"drift {r['drift']} above {DRIFT_BOUND}")


def check(pb: Problem, cmd: str, report: dict, construct: dict | None, steps: int) -> list[str]:
    """Problems found in one command's JSON report."""
    errs: list[str] = []
    res = report["results"]
    sections = res if cmd == "all" else {cmd: res}
    if cmd == "all":
        construct = res["construct"]
    try:
        if "construct" in sections:
            check_construct(pb, sections["construct"], errs)
        if "analyze" in sections:
            check_analyze(pb, sections["analyze"], construct, errs)
        if "cz" in sections:
            check_cz(pb, sections["cz"], errs)
        if "linearize" in sections:
            if len(pb.u) < 2:
                if sections["linearize"] != {"skipped": "needs at least two factors"}:
                    errs.append("linearize on one factor")
            else:
                check_linearize(pb, sections["linearize"], construct, errs)
        if "simulate" in sections:
            check_simulate(pb, sections["simulate"], steps, errs)
    except (KeyError, TypeError, ValueError, sp.SympifyError) as e:
        errs.append(f"malformed report: {type(e).__name__}: {e}")
    return errs
