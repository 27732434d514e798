"""The root cases of the layer benchmark expect what rational_roots returns,
and its start-up case runs.

`scripts/bench_layers.py` marks a case ok when the program's result equals
the expected value stored with the case, so an expected value that drifts
from the API would only show as a failed benchmark check.  The script is
read, not changed.
"""

import os
import runpy

from polysaddle import upoly

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(os.path.dirname(HERE), "scripts", "bench_layers.py")


def test_root_cases_expect_distinct_rational_roots():
    cases = runpy.run_path(SCRIPT)["cases"]("^roots-")  # compiled from source, no bytecode written
    assert cases
    for name, _, f, _, want in cases:
        assert upoly.rational_roots(upoly.make(f)) == want, name


def test_startup_case_times_fresh_interpreters(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", os.path.join(os.path.dirname(HERE), "src"))
    row = runpy.run_path(SCRIPT)["worker"]("^startup$")["startup"]
    assert row["ok"]
    assert row["us"] > 0 and row["baseline_us"] > 0
