"""The example scripts run end to end on the current API.

Each script is run as `python3 scripts/<name>.py` would run it, with its
output captured; a renamed function or a changed signature of what it calls
fails here rather than in a reader's shell.
"""

import os
import runpy

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


@pytest.mark.parametrize("name,expect", [
    ("worked_examples.py", "all four identities verified exactly"),
    ("rk4_convergence.py", "halving factor"),
])
def test_script_runs(capsys, name, expect):
    runpy.run_path(os.path.join(SCRIPTS, name), run_name="__main__")
    assert expect in capsys.readouterr().out
