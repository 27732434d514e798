"""The span table of the benchmark harness names only functions that exist.

`perfbench/run.py --trace 1` wraps every function of `spans.LAYERS` and
looks each one up with getattr on its polysaddle module, so removing or
renaming one of them breaks traced runs.  The table is read, not changed.
"""

import importlib
import os
import runpy

HERE = os.path.dirname(os.path.abspath(__file__))
SPANS = os.path.join(os.path.dirname(HERE), "perfbench", "spans.py")


def test_every_traced_function_resolves():
    layers = runpy.run_path(SPANS)["LAYERS"]  # compiled from source, no bytecode written
    missing = []
    for mod, funcs in layers.items():
        m = importlib.import_module(f"polysaddle.{mod}")
        missing += [f"{mod}.{f}" for f in funcs if not callable(getattr(m, f, None))]
    assert layers and not missing
