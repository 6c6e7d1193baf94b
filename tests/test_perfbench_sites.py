"""Every call site the benchmark's child process wraps must resolve.

perfbench/child.py wraps hfoil functions and methods where callers look
them up by name, so a renamed or removed site fails every traced
benchmark sample.  The perfbench suite is slow and runs apart from
these tests; these checks keep its call sites in the quick suite.
"""
import functools
import importlib
import runpy
from collections import Counter
from pathlib import Path

from hfoil import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    # run_path compiles the file without importing it as a package
    # module or caching bytecode beside it; main() stays uncalled
    return runpy.run_path(str(PERFBENCH / name), run_name=f"perfbench_{name}")


def test_perfbench_call_sites_resolve():
    child = _load("child.py")
    missing = []
    for mod, attr, name in child["SOLVER_SITES"] + child["FUNCTION_SITES"]:
        if not callable(getattr(importlib.import_module(mod), attr, None)):
            missing.append(f"{mod}.{attr} ({name})")
    for mod, cls, attr, name in child["METHOD_SITES"]:
        owner = getattr(importlib.import_module(mod), cls, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{mod}.{cls}.{attr} ({name})")
    assert not missing, "unresolved call sites: " + ", ".join(missing)


def test_kg_envelope_enters_every_required_span(monkeypatch, tmp_path):
    # a traced kg-envelope sample is judged incorrect when a span its
    # workload requires records no call; wrap those spans' sites as the
    # child does, by their looked-up names, and run a small
    # linear-kg-bound
    child = _load("child.py")
    required = _load("run.py")["WORKLOADS"]["kg-envelope"]["spans"]
    sites = [(importlib.import_module(mod), attr, name)
             for mod, attr, name in child["SOLVER_SITES"]
             + child["FUNCTION_SITES"]] + [
        (getattr(importlib.import_module(mod), cls), attr, name)
        for mod, cls, attr, name in child["METHOD_SITES"]]
    calls = Counter()

    def counted(fn, name):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return span

    wrapped = set()
    for owner, attr, name in sites:
        if name in required:
            monkeypatch.setattr(owner, attr,
                                counted(getattr(owner, attr), name))
            wrapped.add(name)
    assert wrapped == set(required)
    status = cli.main(["linear-kg-bound", "--resolution", "0.04",
                       "--until-s", "3", "--deterministic",
                       "--out", str(tmp_path / "out")])
    assert status in (0, 1)            # a verdict, not a config error
    assert not [name for name in required if calls[name] == 0], calls
