"""Every call site the benchmark's child process wraps must resolve.

perfbench/child.py wraps hfoil functions and methods where callers look
them up by name, so a renamed or removed site fails every traced
benchmark sample.  The perfbench suite is slow and runs apart from
these tests; this check keeps its call sites in the quick suite.
"""
import importlib
import runpy
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def test_perfbench_call_sites_resolve():
    # run_path compiles the file without importing it as a package
    # module or caching bytecode beside it; main() stays uncalled
    child = runpy.run_path(str(CHILD), run_name="perfbench_child")
    missing = []
    for mod, attr, name in child["SOLVER_SITES"] + child["FUNCTION_SITES"]:
        if not callable(getattr(importlib.import_module(mod), attr, None)):
            missing.append(f"{mod}.{attr} ({name})")
    for mod, cls, attr, name in child["METHOD_SITES"]:
        owner = getattr(importlib.import_module(mod), cls, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{mod}.{cls}.{attr} ({name})")
    assert not missing, "unresolved call sites: " + ", ".join(missing)
