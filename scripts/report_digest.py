"""One hash per CLI call, and a total, to check that reports are byte-identical.

Usage (any working directory):

    python3 scripts/report_digest.py                  # the tree in src/
    python3 scripts/report_digest.py --src OTHER/src  # another tree

Every call is `polysaddle.cli.main(argv)`, made in this process with
standard output and standard error captured; a line holds the first 16 hex
digits of the SHA-256 of (exit code, stdout, stderr), with the bytes of
the file a `--csv` call writes, and the call.  The last line hashes them
all: two trees print the same total when every call gives the same exit
code, the same bytes on both streams and the same CSV file.

The calls: all six commands, in json and in text, on every problem of
`problems/` and `tests/fixtures/` (so the error text, column included,
of each fixture the program refuses is compared too), on the perfbench
corpora (the workloads of `perfbench/corpus.py`, seeds 1-3, written to a
temporary directory whose path is masked in the output), and on problems
with a given field; and `linearize` and `all` at every `--pivot` of each problem
with two or more factors.  `simulate` and `all` take the perfbench
instance's start and step, and the CLI defaults elsewhere; each problem
also gets `simulate --csv` (the hash then covers the file's bytes too)
and `simulate --x0 1e300`, a start whose first step overflows.  The given
fields are built with sympy, apart from the program, from the factors of
`problems/` and of the valid fixtures: the constructed field, its coprime
reduction, the reduction perturbed by 1 in P and by x in Q, the reduction
scaled by x, and the reduction rotated to (-Q, P).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("construct", "analyze", "cz", "linearize", "simulate", "all")
FORMATS = ("json", "text")
SEEDS = (1, 2, 3)
STEPS = 1000  # RK4 steps for the perfbench instances, as perfbench/run.py takes
BUDGET = 200  # the program's total-degree budget, bipoly.MAX_TOTAL_DEGREE


def _poly_str(p) -> str:
    """A sympy Poly in x, y in the problem-file grammar."""
    terms = []
    for (i, j), c in p.terms():
        mono = "*".join(m for m in (f"x^{i}" if i else "", f"y^{j}" if j else "") if m)
        terms.append(f"{c}*{mono}" if mono else str(c))
    return " + ".join(terms) or "0"


def given_field_problems(paths: list[Path]) -> list[tuple[str, dict]]:
    """(label, document) for each field variant of each loadable problem."""
    import sympy as sp

    x, y = sp.symbols("x y")
    out = []
    for path in paths:
        doc = json.loads(path.read_text(encoding="utf-8"))
        try:
            fs = [(f["poly"], f["exponent"]) for f in doc["factors"]]
        except (TypeError, KeyError):
            continue
        # only problems within the program's degree budget
        if any(not isinstance(s, str) or type(k) is not int
               or any(int(n) > BUDGET for n in re.findall(r"\^\s*(\d+)", s)) for s, k in fs):
            continue
        try:
            us = [(sp.Poly(sp.sympify(s.replace("^", "**")), x, y, domain=sp.QQ), k)
                  for s, k in fs]
        except (sp.SympifyError, sp.polys.polyerrors.BasePolynomialError):
            continue  # not a polynomial, such as 3/0*x
        if sum(k * u.total_degree() for u, k in us) > BUDGET:
            continue
        P = Q = sp.Poly(0, x, y, domain=sp.QQ)
        for n, (u, k) in enumerate(us):
            rest = sp.Poly(1, x, y, domain=sp.QQ)
            for m, (v, _) in enumerate(us):
                if m != n:
                    rest *= v
            P += rest * u.diff(y) * k
            Q -= rest * u.diff(x) * k
        g = sp.gcd(P, Q)
        Pr, Qr = sp.div(P, g)[0], sp.div(Q, g)[0]
        X = sp.Poly(x, x, y, domain=sp.QQ)
        variants = {"constructed": (P, Q), "reduced": (Pr, Qr),
                    "perturbed": (Pr + 1, Qr + X), "scaled": (Pr * X, Qr * X),
                    "rotated": (-Qr, Pr)}
        for name, (p, q) in variants.items():
            out.append((f"{path.stem}+{name}",
                        {**doc, "name": f"{doc['name']}+{name}",
                         "field": {"p": _poly_str(p), "q": _poly_str(q)}}))
    return out


def perfbench_problems() -> list[tuple[str, dict, list[str]]]:
    """(label, document, simulate flags) for the perfbench corpora."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import corpus

    out = []
    for workload in corpus.WORKLOADS:
        for seed in SEEDS:
            for n, inst in enumerate(corpus.build(workload, seed)):
                flags = ["--x0", repr(inst.x0), "--y0", repr(inst.y0),
                         "--step", repr(inst.step), "--steps", str(STEPS)]
                out.append((f"{workload}:{seed}/{n:02d}-{inst.name}", inst.document(), flags))
    return out


def calls(path: str, flags: list[str], factors: int, csv: str) -> list[list[str]]:
    """The argv lists run on one problem file; csv is where `simulate
    --csv` writes."""
    out = []
    for cmd in COMMANDS:
        extra = flags if cmd in ("simulate", "all") else []
        pivots = [[]] + ([["--pivot", str(k)] for k in range(1, factors + 1)]
                         if cmd in ("linearize", "all") and factors >= 2 else [])
        for fmt in FORMATS:
            for pivot in pivots:
                out.append([cmd, path, "--format", fmt, *extra, *pivot])
    out += [["simulate", path, "--format", "json", *flags, "--csv", csv],
            ["simulate", path, "--format", "json", *flags, "--x0", "1e300"]]
    return out


def digest(cli, argv: list[str], mask: str) -> str:
    """The hash of (exit code, stdout, stderr) of one call, and of the bytes
    of the file that --csv names, if it does (none when it was not written)."""
    csv = Path(argv[argv.index("--csv") + 1]) if "--csv" in argv else None
    if csv is not None:
        csv.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse rejected the flags
            rc = e.code
    data = csv.read_bytes() if csv is not None and csv.exists() else b""
    text = f"{rc}\0{out.getvalue()}\0{err.getvalue()}"
    if mask:
        text = text.replace(mask, "<tmp>")
    payload = text.encode() + (b"\0" + data if csv is not None else b"")
    return hashlib.sha256(payload).hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="the source tree to import (default: src/ of this repository)")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from polysaddle import cli

    os.chdir(ROOT)  # the problem files are named relative to the root, as in error messages

    problems = sorted(ROOT.glob("problems/*.json")) + sorted(ROOT.glob("tests/fixtures/*.json"))
    total = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        jobs = []
        for p in problems:
            doc = json.loads(p.read_text(encoding="utf-8"))
            factors = len(doc.get("factors") or []) if isinstance(doc, dict) else 0
            jobs.append((str(p.relative_to(ROOT)), [], factors))
        for label, doc, flags in ([(lb, d, []) for lb, d in given_field_problems(problems)]
                                  + perfbench_problems()):
            path = Path(tmp) / f"{label.replace('/', '_').replace(':', '_')}.json"
            path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
            jobs.append((str(path), flags, len(doc["factors"])))
        csv = str(Path(tmp) / "orbit.csv")
        for path, flags, factors in jobs:
            for call in calls(path, flags, factors, csv):
                h = digest(cli, call, tmp)
                total.update(h.encode())
                count += 1
                print(h, " ".join(call).replace(tmp, "<tmp>"), flush=True)
    print(f"total {total.hexdigest()[:16]} over {count} calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
