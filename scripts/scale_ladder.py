"""Scale ladder: the wall time of one CLI process per call on growing inputs.

Six families of problems, all but powers drawn from a fixed seed:

- wide-<p>: p lines a x + b y + c drawn by `_wide_lines` of
  scripts/bench_layers.py from Random("wide:<p>"): integers a, b, c
  uniform in +-10^6, each line divided by gcd(a, b, c), pairwise
  nonparallel; the last one squared;
- small-<p>: p lines drawn by `_random_lines` of scripts/bench_layers.py
  from Random("manylines:<p>") (small coefficients, so several lines
  often meet in one point), the last one squared;
- dense-<d>: two curves of total degree d with every monomial and
  coefficients uniform in -5..5 (`_curve` of scripts/bench_layers.py,
  both drawn from Random(d)), each divided by the gcd of its
  coefficients, with exponents 1 and 2;
- dense-sing-<d>: the dense-<d> pair with the monomials 1, x and y
  dropped from the first curve, which makes it singular at the origin,
  and the second curve's constant term set to 1; `cz` Fails condition
  (i) there with the witness (0, 0), by the exact route of
  variety_empty, whose gcd in Q[x] takes two resultants of degree 56
  at d = 8;
- powers-<k>: (x + y + 1)^k (x - y)^k, an integral of degree 2k whose
  expanded form cancels catastrophically in floats;
- circles-<p>: p distinct circles x^2 + y^2 + a x + b y + c, integers a,
  b, c uniform in +-1000 from Random("circles:<p>"), with a^2 + b^2 !=
  4c so that each is irreducible, the last one squared.  Every two share
  their points at infinity, so condition (iii) projects non-linear pairs
  whose Res_y falls below its Bezout bound.

Every (case, command) is one fresh interpreter that runs
`polysaddle.cli.main([command, problem, "--format", "json"])` with
PYTHONPATH set to the tree, so the wall time includes start-up; a call
that runs past --cap seconds is killed and recorded as "timeout".  With
several --src trees, the trees take turns call by call, in alternating
order, so a drift in host speed hits them alike.

    python3 scripts/scale_ladder.py
    python3 scripts/scale_ladder.py --family wide --sizes 20,60,100 --commands cz \\
        --cap 60 --src base=../old/src --src change=src --out ladder.json

The table goes to standard output: per call, the seconds and the exit
code of each tree.  The exit status is 1 when a tree times out on a call
that the first tree finished, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from bench_layers import _curve, _random_lines, _wide_lines, src_trees  # noqa: E402

FAMILIES = ("wide", "small", "dense", "dense-sing", "powers", "circles")
SIZES = {"wide": (20, 40, 60, 100, 150, 199), "small": (20, 40, 60, 100, 150, 199),
         "dense": (6, 8, 12, 16, 20), "dense-sing": (6, 8, 12, 16),
         "powers": (25, 50, 100), "circles": (4, 8, 16)}
COMMANDS = ("construct", "analyze", "cz", "linearize", "simulate")
RUN = "import sys; from polysaddle import cli; sys.exit(cli.main(sys.argv[1:]))"


def _term(c: int, i: int, j: int) -> str:
    mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in (("x", i), ("y", j)) if e)
    return f"{c}*{mono}" if mono else str(c)


def _poly(terms: dict) -> str:
    return " + ".join(_term(c, i, j) for (i, j), c in sorted(terms.items())).replace("+ -", "- ")


def _circles(rng: random.Random, p: int) -> list[dict]:
    """p distinct circles x^2 + y^2 + a x + b y + c with a^2 + b^2 != 4c."""
    seen: list = []
    while len(seen) < p:
        a, b, c = (rng.randint(-1000, 1000) for _ in range(3))
        if a * a + b * b != 4 * c and (a, b, c) not in seen:
            seen.append((a, b, c))
    return [{e: v for e, v in (((2, 0), 1), ((0, 2), 1), ((1, 0), a), ((0, 1), b), ((0, 0), c))
             if v} for a, b, c in seen]


def problem(family: str, size: int) -> dict:
    """The problem document of one case."""
    if family == "powers":
        return {"name": f"powers-{size}",
                "factors": [{"poly": "x + y + 1", "exponent": size},
                            {"poly": "x - y", "exponent": size}]}
    if family in ("dense", "dense-sing"):
        rng = random.Random(size)
        curves = [_curve(rng, size), _curve(rng, size)]
        polys = [{e: c // math.gcd(*u.values()) for e, c in u.items()} for u in curves]
        if family == "dense-sing":
            polys = [{e: c for e, c in polys[0].items() if e not in ((0, 0), (1, 0), (0, 1))},
                     {**polys[1], (0, 0): 1}]
    elif family == "circles":
        polys = _circles(random.Random(f"circles:{size}"), size)
    else:
        if family == "wide":
            lines = _wide_lines(random.Random(f"wide:{size}"), size)
        else:
            lines = _random_lines(random.Random(f"manylines:{size}"), size)
        polys = [{e: v for e, v in (((1, 0), a), ((0, 1), b), ((0, 0), c)) if v}
                 for a, b, c in lines]
    return {"name": f"{family}-{size}",
            "factors": [{"poly": _poly(u), "exponent": 2 if n == len(polys) - 1 else 1}
                        for n, u in enumerate(polys)]}


def run(src: str, command: str, path: str, cap: float) -> dict:
    """{"s": wall seconds, "exit": code} of one CLI process, or
    {"timeout": cap}."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    t0 = perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-c", RUN, command, path, "--format", "json"],
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=cap)
    except subprocess.TimeoutExpired:
        return {"timeout": cap}
    return {"s": round(perf_counter() - t0, 3), "exit": proc.returncode}


def _cell(r: dict) -> str:
    return "timeout" if "timeout" in r else f"{r['s']:.2f} s ({r['exit']})"


def _csv(text: str) -> list[str]:
    return [v for v in text.split(",") if v]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--family", default=",".join(FAMILIES),
                    help=f"comma-separated, from {', '.join(FAMILIES)}")
    ap.add_argument("--sizes", default="",
                    help="comma-separated sizes for every family "
                         "(lines p, degree d, or exponent k)")
    ap.add_argument("--commands", default=",".join(COMMANDS), help="comma-separated")
    ap.add_argument("--cap", type=float, default=60.0, help="seconds per call")
    ap.add_argument("--src", action="append", default=[], metavar="LABEL=DIR",
                    help="a tree to run (repeatable); default change=<repo>/src")
    ap.add_argument("--out", help="JSON file to write")
    args = ap.parse_args(argv)
    families = _csv(args.family)
    for fam in families:
        if fam not in FAMILIES:
            ap.error(f"unknown family {fam!r}")
    commands = _csv(args.commands)
    for cmd in commands:
        if cmd not in COMMANDS:
            ap.error(f"unknown command {cmd!r}")
    trees = list(src_trees(ap, args.src).items())
    labels = [label for label, _ in trees]
    rows = []
    print("case".ljust(12) + "command".ljust(11) + "".join(label.ljust(18) for label in labels))
    with tempfile.TemporaryDirectory() as tmp:
        turn = 0
        for fam in families:
            for size in [int(v) for v in _csv(args.sizes)] or SIZES[fam]:
                doc = problem(fam, size)
                path = os.path.join(tmp, f"{doc['name']}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
                for cmd in commands:
                    order = trees if turn % 2 == 0 else trees[::-1]
                    turn += 1
                    got = {label: run(src, cmd, path, args.cap) for label, src in order}
                    row = {"case": doc["name"], "command": cmd,
                           **{label: got[label] for label in labels}}
                    rows.append(row)
                    print(doc["name"].ljust(11) + " " + cmd.ljust(11)
                          + "".join(_cell(row[label]).ljust(18) for label in labels), flush=True)
    if args.out:
        doc = {"benchmark": "scripts/scale_ladder.py",
               "host": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                       f"Python {platform.python_version()}",
               "cap_s": args.cap, "trees": labels, "rows": rows}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    first = labels[0]
    worse = [f"{label} timed out on {row['case']} {row['command']}"
             for row in rows if "timeout" not in row[first]
             for label in labels[1:] if "timeout" in row[label]]
    for line in worse:
        print(line, file=sys.stderr)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
