"""Spans around the public functions of each polysaddle layer.

`Tracer.install()` wraps every function in LAYERS at each module that
binds it: `from .field_ops import expand` copies the binding into `cli`,
`remarkable` and `linearize`, so patching `field_ops` alone would miss
their calls.  Spans are kept in flat arrays in memory (name, parent,
request, start, end, self time) and written out by `dump()` when the run
ends.  A span's self time is its duration minus the time its child spans
cover; a function's total time sums only its outermost spans, so
recursion is not counted twice.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from contextlib import contextmanager
from statistics import median
from time import perf_counter

# module -> public functions that get a span; the README says which
# end-to-end metric each should move
LAYERS = {
    "cli": ("load_problem",),
    "field_ops": ("expand", "construct_field", "reduce_field"),
    "remarkable": ("critical_remarkable_values",),
    "bipoly": ("mul", "divmod_lt", "exact_div", "gcd", "det_bareiss", "resultant",
               "parse", "to_string"),
    "upoly": ("gcd", "squarefree_part", "rational_roots"),
    "variety": ("variety_empty",),
    "arith": ("isolate_complex_roots",),
    "cz_check": ("cz_report",),
    "linearize": ("linearize", "k_matrix"),
    "numcheck": ("integrate_orbit", "compile_poly"),
}

# the per-layer metrics reported, as (name, unit)
METRICS = (
    [("cli.load_problem.total_s", "s")]
    + [(f"field_ops.{f}.calls", "count") for f in LAYERS["field_ops"]]
    + [("field_ops.reduce_field.total_s", "s"),
       ("remarkable.critical_remarkable_values.calls", "count"),
       ("remarkable.critical_remarkable_values.total_s", "s"),
       ("bipoly.det_bareiss.calls", "count"), ("bipoly.det_bareiss.self_s", "s"),
       ("bipoly.det_bareiss.dim_max", "count"), ("bipoly.det_bareiss.result_bits_max", "bits"),
       ("bipoly.mul.calls", "count"), ("bipoly.mul.self_s", "s"),
       ("bipoly.divmod_lt.self_s", "s"), ("bipoly.exact_div.self_s", "s"),
       ("bipoly.gcd.calls", "count"), ("bipoly.gcd.self_s", "s"),
       ("bipoly.resultant.calls", "count"), ("bipoly.resultant.self_s", "s"),
       ("bipoly.parse.self_s", "s"), ("bipoly.to_string.self_s", "s"),
       ("upoly.gcd.self_s", "s"), ("upoly.squarefree_part.self_s", "s"),
       ("upoly.rational_roots.calls", "count"), ("upoly.rational_roots.self_s", "s"),
       ("variety.variety_empty.calls", "count"), ("variety.variety_empty.self_s", "s"),
       ("variety.variety_empty.total_s", "s"),
       ("arith.isolate_complex_roots.calls", "count"),
       ("arith.isolate_complex_roots.self_s", "s"),
       ("cz_check.cz_report.total_s", "s"),
       ("linearize.linearize.total_s", "s"), ("linearize.k_matrix.total_s", "s"),
       ("numcheck.integrate_orbit.total_s", "s"), ("numcheck.compile_poly.total_s", "s"),
       ("numcheck.rk4_steps_per_s", "1/s"),
       ("trace.overhead", "ratio")]
)


def _bits(poly) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for v in poly.values()), default=0)


class Tracer:
    """Span store and the wrappers that fill it; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self.outer = array("b")  # no enclosing span of the same name
        self.dims: dict[int, int] = {}  # det_bareiss span -> matrix dimension
        self.bits: dict[int, int] = {}  # det_bareiss span -> result coefficient bits
        self.steps: dict[int, int] = {}  # integrate_orbit span -> RK4 steps taken
        self._stack: list[list] = []  # [span index, child time]
        self._active: list[int] = []
        self._req = -1
        self._undo: list[tuple[object, str, object]] = []

    def _nid(self, name: str) -> int:
        self.names.append(name)
        self._active.append(0)
        return len(self.names) - 1

    def _open(self, nid: int) -> tuple[int, list]:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.request.append(self._req)
        self.outer.append(self._active[nid] == 0)
        self._active[nid] += 1
        self.end.append(0.0)
        self.self_s.append(0.0)
        frame = [i, 0.0]
        self._stack.append(frame)
        self.start.append(perf_counter())
        return i, frame

    def _close(self, nid: int, i: int, frame: list) -> None:
        t1 = perf_counter()
        self._stack.pop()
        self._active[nid] -= 1
        d = t1 - self.start[i]
        self.end[i] = t1
        self.self_s[i] = d - frame[1]
        if self._stack:
            self._stack[-1][1] += d

    @contextmanager
    def request_span(self, label: str):
        """Root span of one cli.main call; the spans under it share its id."""
        self._req = len(self.start)
        nid = self.names.index(label) if label in self.names else self._nid(label)
        i, frame = self._open(nid)
        try:
            yield
        finally:
            self._close(nid, i, frame)

    def _det_bareiss(self, i: int, args, out) -> None:
        self.dims[i] = len(args[0])
        self.bits[i] = _bits(out)

    def _integrate_orbit(self, i: int, args, out) -> None:
        self.steps[i] = len(out.points) - 1

    def _wrap(self, qualname: str, fn):
        nid = self._nid(qualname)
        note = {"bipoly.det_bareiss": self._det_bareiss,
                "numcheck.integrate_orbit": self._integrate_orbit}.get(qualname)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i, frame = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(nid, i, frame)
            if note is not None:
                note(i, args, out)
            return out

        return traced

    def install(self) -> None:
        """Rebind every LAYERS function in every loaded polysaddle module."""
        wrappers = {}
        for mod, funcs in LAYERS.items():
            m = sys.modules[f"polysaddle.{mod}"]
            for f in funcs:
                orig = getattr(m, f)
                wrappers[id(orig)] = self._wrap(f"{mod}.{f}", orig)
        for name, m in list(sys.modules.items()):
            if name != "polysaddle" and not name.startswith("polysaddle."):
                continue
            for attr, val in list(vars(m).items()):
                w = wrappers.get(id(val))
                if w is not None:
                    setattr(m, attr, w)
                    self._undo.append((m, attr, val))

    def uninstall(self) -> None:
        for m, attr, val in reversed(self._undo):
            setattr(m, attr, val)
        self._undo.clear()

    def aggregate(self, lo: int, hi: int) -> dict[str, float]:
        """Layer figures over spans lo..hi-1 (one round)."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        total: dict[str, float] = {}
        for i in range(lo, hi):
            n = self.names[self.name[i]]
            calls[n] = calls.get(n, 0) + 1
            self_s[n] = self_s.get(n, 0.0) + self.self_s[i]
            if self.outer[i]:
                total[n] = total.get(n, 0.0) + self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for mod, funcs in LAYERS.items():
            for f in funcs:
                q = f"{mod}.{f}"
                out[f"{q}.calls"] = calls.get(q, 0)
                out[f"{q}.self_s"] = self_s.get(q, 0.0)
                out[f"{q}.total_s"] = total.get(q, 0.0)
        in_round = range(lo, hi)
        out["bipoly.det_bareiss.dim_max"] = max(
            (v for i, v in self.dims.items() if i in in_round), default=0)
        out["bipoly.det_bareiss.result_bits_max"] = max(
            (v for i, v in self.bits.items() if i in in_round), default=0)
        steps = sum(v for i, v in self.steps.items() if i in in_round)
        t_orbit = out["numcheck.integrate_orbit.total_s"]
        out["numcheck.rk4_steps_per_s"] = steps / t_orbit if t_orbit else 0.0
        return out

    def dump(self, path) -> None:
        """All spans as gzip'd TSV: id, parent, request, name, start, end, self."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\trequest\tname\tstart_s\tend_s\tself_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.request[i]}\t"
                         f"{self.names[self.name[i]]}\t{self.start[i] - t0:.9f}\t"
                         f"{self.end[i] - t0:.9f}\t{self.self_s[i]:.9f}\n")


def per_round_median(tracer: Tracer, bounds: list[tuple[int, int]]) -> dict[str, float]:
    rounds = [tracer.aggregate(lo, hi) for lo, hi in bounds]
    return {k: median(r[k] for r in rounds) for k in rounds[0]}
