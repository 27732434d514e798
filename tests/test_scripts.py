"""The example scripts run end to end on the current API.

Each script is run as `python3 scripts/<name>.py` would run it, with its
output captured; a renamed function or a changed signature of what it calls
fails here rather than in a reader's shell.
"""

import os
import runpy
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")

# command-line arguments of a script that takes some: the scale ladder at
# a tiny size, one CLI process per call
ARGV = {"scale_ladder.py": ["--family", "wide,small,dense,powers,circles", "--sizes", "3",
                            "--commands", "construct,cz", "--cap", "60"]}


@pytest.mark.parametrize("name,expect", [
    ("worked_examples.py", "all four identities verified exactly"),
    ("rk4_convergence.py", "halving factor"),
    ("scale_ladder.py", "dense-3     cz         "),
])
def test_script_runs(capsys, monkeypatch, name, expect):
    monkeypatch.setattr(sys, "argv", [name, *ARGV.get(name, [])])
    try:
        runpy.run_path(os.path.join(SCRIPTS, name), run_name="__main__")
    except SystemExit as e:
        assert not e.code
    out = capsys.readouterr().out
    assert expect in out and "timeout" not in out


@pytest.mark.parametrize("srcs", [["foo"], ["a=x", "a=y"]])
def test_scale_ladder_src_must_be_distinct_label_dir_pairs(capsys, srcs):
    main = runpy.run_path(os.path.join(SCRIPTS, "scale_ladder.py"))["main"]
    with pytest.raises(SystemExit) as e:
        main([a for s in srcs for a in ("--src", s)])
    assert e.value.code == 2 and "--src" in capsys.readouterr().err


def test_scale_ladder_runs_the_singular_dense_pair(capsys):
    # cz Fails condition (i) on dense-sing-6, in one CLI process: exit 1
    main = runpy.run_path(os.path.join(SCRIPTS, "scale_ladder.py"))["main"]
    assert main(["--family", "dense-sing", "--sizes", "6", "--commands", "cz"]) == 0
    row = capsys.readouterr().out.splitlines()[-1].rstrip()
    assert row.startswith("dense-sing-6 cz ") and row.endswith("s (1)"), row
