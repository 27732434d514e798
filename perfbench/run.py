"""Per-command latency of the polysaddle CLI on seeded corpora.

    python3 perfbench/run.py --workload line-ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selfcheck

One process, one thread, one caller in a closed loop.  Set-up imports
polysaddle from `src/`, writes the workload's problem files and warms up;
it is done SETUP_REPEATS times and the median is reported.  Then whole
rounds run until --seconds is used up: a round calls
`polysaddle.cli.main([cmd, file, "--format", "json", ...])` REPS[cmd]
times for each command on each instance.  Every time is scaled to a
reference host speed by a kernel timed next to it (see HostSpeed and the
README).  After the timed rounds every report is parsed and checked
against computations made apart from the program (see oracle.py); every
later call must repeat the first byte for byte.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one plain round,
then traced rounds (see spans.py), and prints the per-layer metrics plus
the traced/plain round-time ratio.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import sys
import traceback
from collections import deque
from fractions import Fraction
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import corpus  # noqa: E402  (sys.path[0] is this directory)
import spans  # noqa: E402

COMMANDS = ("construct", "analyze", "cz", "linearize", "simulate", "all")
STEPS = 1000  # RK4 steps per simulate; the step size comes with each instance
SETUP_REPEATS = 9
# calls per instance per round: the cheap commands repeat for steadier medians
REPS = {"construct": 3, "analyze": 1, "cz": 3, "linearize": 3, "simulate": 3, "all": 1}
# host speed kernel: its time on a quiet reference host, and how many
# recent kernel times the scale factor takes the median of
KERNEL_REF_S = 0.0025
KERNEL_WINDOW = 15
# the program's one known fault: an x-free or y-free integral makes
# remarkable.critical_remarkable_values raise and cli.main lets it escape
KNOWN_FAULT = "ValueError: degenerate integral"


def _kernel() -> float:
    """Seconds for a fixed pure-Python loop shaped like the program's hot
    path: Fraction products summed into a dict."""
    acc: dict = {}
    a = Fraction(3, 7)
    t0 = perf_counter()
    for i in range(500):
        k = (i % 13, i % 7)
        acc[k] = acc.get(k, Fraction(0)) + a * Fraction(i % 97 + 1, 11)
    return perf_counter() - t0


class HostSpeed:
    """How fast the host runs Python just now.

    The reference host's speed drifts: a fixed loop, and every instance
    of the corpus alike, runs up to 1.5x slower for tens of seconds at a
    time.  `factor()` times the kernel once and returns KERNEL_REF_S over
    the median of the last KERNEL_WINDOW kernel times; a wall time times
    this factor is the time the call would take at the reference speed."""

    def __init__(self):
        self.recent: deque[float] = deque(maxlen=KERNEL_WINDOW)
        self.factors: list[float] = []

    def factor(self) -> float:
        self.recent.append(_kernel())
        f = KERNEL_REF_S / median(self.recent)
        self.factors.append(f)
        return f


class Op:
    """One cli.main call: its time at the reference host speed, exit code,
    output and escaped error."""

    __slots__ = ("scaled", "rc", "out", "exc")

    def __init__(self, scaled, rc, out, exc):
        self.scaled, self.rc, self.out, self.exc = scaled, rc, out, exc

    def same(self, other: "Op") -> bool:
        return (self.rc, self.out, self.exc) == (other.rc, other.out, other.exc)


def _argv(cmd: str, inst: corpus.Instance, path: str) -> list[str]:
    argv = [cmd, path, "--format", "json"]
    if cmd in ("simulate", "all"):
        argv += ["--x0", repr(inst.x0), "--y0", repr(inst.y0),
                 "--step", repr(inst.step), "--steps", str(STEPS)]
    return argv


def call(cli, argv: list[str], speed: HostSpeed) -> Op:
    factor = speed.factor()
    out, err = io.StringIO(), io.StringIO()
    exc = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as e:  # argparse rejected the flags
        rc, exc = e.code, e
    except Exception as e:  # the program let an error escape: a traceback
        rc, exc = None, e
    seconds = perf_counter() - t0
    if exc is not None:
        exc = traceback.format_exception_only(exc)[-1].strip()
    return Op(seconds * factor, rc, out.getvalue(), exc)


def setup(workload: str, seed: int, small: bool, workdir: Path, speed: HostSpeed):
    """Import the program afresh, write the corpus, warm up; timed, and
    scaled to the reference host speed."""
    factor = speed.factor()
    t0 = perf_counter()
    for name in [m for m in sys.modules if m.split(".")[0] in ("polysaddle", "mpmath")]:
        del sys.modules[name]
    cli = importlib.import_module("polysaddle.cli")
    instances = corpus.build(workload, seed, small)
    paths = []
    for n, inst in enumerate(instances):
        p = workdir / f"{n:02d}-{inst.name}.json"
        p.write_text(json.dumps(inst.document(), indent=2), encoding="utf-8")
        paths.append(str(p))
    call(cli, _argv("construct", instances[0], paths[0]), speed)
    return (perf_counter() - t0) * factor, cli, instances, paths


def run_round(cli, instances, paths, speed: HostSpeed, tracer=None) -> tuple[dict, float]:
    ops = {}
    t0 = perf_counter()
    for i, (inst, path) in enumerate(zip(instances, paths)):
        for cmd in COMMANDS:
            argv = _argv(cmd, inst, path)
            ops[(i, cmd)] = []
            for _ in range(REPS[cmd]):
                with (tracer.request_span(f"cli.main.{cmd}") if tracer
                      else contextlib.nullcontext()):
                    ops[(i, cmd)].append(call(cli, argv, speed))
    return ops, perf_counter() - t0


def verify(instances, rounds: list[dict]) -> tuple[dict, list[str]]:
    """Classify every operation: ok, the known fault, or an error.

    The first call of each (instance, command) is checked; every later
    call must repeat it exactly.  Returns {(i, cmd): None | "known" |
    message} and the list of unexpected errors."""
    import oracle  # sympy: imported only once the timed work is over

    status: dict = {}
    errors: list[str] = []
    for i, inst in enumerate(instances):
        pb = oracle.Problem(inst)
        construct = None
        for cmd in COMMANDS:
            op = rounds[0][(i, cmd)][0]
            msg = report = None
            if op.exc is not None:
                known = (inst.degenerate and cmd in ("analyze", "all")
                         and op.exc.startswith(KNOWN_FAULT))
                msg = "known" if known else f"escaped error {op.exc}"
            elif op.rc not in (0, 1):
                msg = f"exit code {op.rc}"
            else:
                try:
                    report = json.loads(op.out)
                except json.JSONDecodeError as e:
                    msg = f"report is not JSON: {e}"
            if report is not None:
                problems = oracle.check(pb, cmd, report, construct, STEPS)
                if op.rc != oracle.expected_exit(report):
                    problems.append(f"exit code {op.rc} does not match the verdicts")
                if problems:
                    msg = "; ".join(problems)
                elif cmd == "construct":
                    construct = report["results"]
            if msg is None or msg == "known":
                if any(not o.same(op) for r in rounds for o in r[(i, cmd)]):
                    msg = "output differs between calls"
            status[(i, cmd)] = msg
            if msg not in (None, "known"):
                errors.append(f"{inst.name} {cmd}: {msg}")
    return status, errors


def measure(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    workdir = HERE / "_work" / f"{workload}-{seed}-{os.getpid()}"
    tracer = None
    speed = HostSpeed()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            dt, cli, instances, paths = setup(workload, seed, small, workdir, speed)
            setups.append(dt)
        rounds, walls, bounds = [], [], []
        t_start = perf_counter()
        while True:
            if trace and len(rounds) == 1:
                tracer = spans.Tracer()
                tracer.install()
            lo = len(tracer.start) if tracer else 0
            ops, wall = run_round(cli, instances, paths, speed, tracer)
            rounds.append(ops)
            walls.append(wall)
            if tracer:
                bounds.append((lo, len(tracer.start)))
            enough = len(rounds) >= (2 if trace else 1)
            if enough and perf_counter() - t_start + wall > seconds:
                break
        if tracer:
            tracer.uninstall()
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    status, errors = verify(instances, rounds)
    per_cmd = {cmd: {"attempted": 0, "failed": 0} for cmd in COMMANDS}
    for (i, cmd), msg in status.items():
        per_cmd[cmd]["attempted"] += len(rounds) * REPS[cmd]
        per_cmd[cmd]["failed"] += len(rounds) * REPS[cmd] if msg is not None else 0

    def per_instance(i, cmd):
        return median(o.scaled for r in rounds for o in r[(i, cmd)])

    table = {inst.name: {cmd: 1000 * per_instance(i, cmd) for cmd in COMMANDS}
             for i, inst in enumerate(instances)}
    if trace:
        metrics = spans.per_round_median(tracer, bounds)
        metrics["trace.overhead"] = median(walls[1:]) / walls[0]
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{workload}-seed{seed}.tsv.gz")
        units = dict(spans.METRICS)
    else:
        metrics = {"setup_s": median(setups),
                   "corpus_s": sum(per_instance(i, "all") for i in range(len(instances)))}
        for cmd in COMMANDS:
            ok = [per_instance(i, cmd) for i in range(len(instances))
                  if status[(i, cmd)] is None]
            # with no call left (correct is then false) fall back to all of them
            ok = ok or [per_instance(i, cmd) for i in range(len(instances))]
            metrics[f"{cmd}_ms"] = 1000 * median(ok)
        metrics["peak_rss_mb"] = peak_mb
        units = {"setup_s": "s", "corpus_s": "s", "peak_rss_mb": "MB",
                 **{f"{cmd}_ms": "ms" for cmd in COMMANDS}}
    return {
        "rounds": len(rounds),
        "instances": len(instances),
        "per_command": per_cmd,
        "per_instance_ms": table,
        "speed": (median(speed.factors), min(speed.factors), max(speed.factors)),
        "errors": errors,
        "result": {
            "correct": not errors,
            "attempted": sum(v["attempted"] for v in per_cmd.values()),
            "failed": sum(v["failed"] for v in per_cmd.values()),
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        },
    }


def report(workload: str, run: dict) -> None:
    print(f"workload {workload}: {run['instances']} instances, {run['rounds']} rounds")
    for cmd, v in run["per_command"].items():
        print(f"  {cmd:<10} attempted {v['attempted']:>4}  failed {v['failed']:>4}")
    print("  host speed factor: median %.3f, range %.3f-%.3f" % run["speed"])
    print("  median ms per call, at reference speed: "
          + " ".join(f"{c:>9}" for c in COMMANDS))
    for name, row in run["per_instance_ms"].items():
        print(f"  {name:<34}" + " ".join(f"{row[c]:9.1f}" for c in COMMANDS))
    for e in run["errors"]:
        print(f"  ERROR {e}")


def selfcheck() -> int:
    """Every workload at its small size, plain and traced, every check."""
    bad = 0
    for workload in corpus.WORKLOADS:
        for trace in (False, True):
            run = measure(workload, 1, 0.0, trace, small=True)
            report(workload + (" (traced)" if trace else ""), run)
            res = run["result"]
            known = (len(corpus.DEGENERATE) * (REPS["analyze"] + REPS["all"]) * run["rounds"]
                     if workload == "random-ladder" else 0)
            if not res["correct"] or res["failed"] != known:
                print(f"  FAILED: correct={res['correct']} failed={res['failed']}, "
                      f"expected {known} known-fault failures")
                bad += 1
    print("selfcheck", "passed" if not bad else f"failed ({bad})")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true",
                    help="run every workload at a small size, with every check")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "polysaddle" / "cli.py").is_file():
        print(f"error: no polysaddle sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.selfcheck:
        return selfcheck()
    if args.workload is None:
        ap.error("--workload is required")
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, run)
    print(json.dumps(run["result"]))
    return 0 if run["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
