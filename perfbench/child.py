"""One benchmark sample: a fresh interpreter that runs one hfoil scenario.

Usage (normally started by run.py, never imported):

    python3 perfbench/child.py --src SRC --result FILE [--trace] -- ARGV...

ARGV goes to ``hfoil.cli.main`` unchanged.  The child imports hfoil
from SRC (and refuses any other copy), wraps functions at the module
where each name is looked up, runs the scenario, and writes FILE as
JSON:

* ``t_imported``: ``time.monotonic()`` once ``hfoil.cli`` is imported;
* ``t_solver``: ``time.monotonic()`` at the first entry into a solver,
  or null when no solver ran;
* ``status``: the return value of ``hfoil.cli.main``;
* with ``--trace``, ``spans`` (busy and self seconds and calls per span
  name), ``counts`` (exact work counts) and ``fd_cache`` (the
  ``fd_weights`` lru_cache statistics).

``time.monotonic`` is the system-wide CLOCK_MONOTONIC on Linux, so the
parent subtracts its own spawn timestamp to get set-up and import time.
Without ``--trace`` only the three solver entries are wrapped, and only
to take the one set-up timestamp.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# call site -> span name; a name bound by ``from .x import y`` must be
# wrapped where the caller looks it up, not where it is defined
SOLVER_SITES = (
    ("hfoil.cli", "evolve_model", "solver.evolve_model"),
    ("hfoil.bounds", "solve_linear_kg_curved",
     "solver.solve_linear_kg_curved"),
    ("hfoil.bounds", "solve_linear_wave_sourced",
     "solver.solve_linear_wave_sourced"),
)

FUNCTION_SITES = (
    ("hfoil.analysis", "fd_weights", "util.fd_weights"),
    ("hfoil.util", "fd_weights", "util.fd_weights"),
    ("hfoil.cli", "hierarchy_check", "analysis.hierarchy_check"),
    ("hfoil.cli", "kg_bound_margin", "bounds.kg_bound_margin"),
    ("hfoil.cli", "wave_bound_margin", "bounds.wave_bound_margin"),
    ("hfoil.bounds", "envelope_V", "bounds.envelope_V"),
    ("hfoil.bounds", "accumulate_F", "bounds.accumulate_F"),
    ("hfoil.cli", "emit_series", "cli.emit_series"),
    ("hfoil.cli", "write_json", "cli.write_json"),
)

# methods are looked up on the class at every call
METHOD_SITES = (
    ("hfoil.analysis", "SliceEnergySuite", "__init__",
     "analysis.SliceEnergySuite.init"),
    ("hfoil.analysis", "SliceEnergySuite", "energies",
     "analysis.SliceEnergySuite.energies"),
    ("hfoil.analysis", "SliceEnergySuite", "stage_sups",
     "analysis.SliceEnergySuite.stage_sups"),
    ("hfoil.analysis", "QueryPool", "on_level",
     "analysis.QueryPool.on_level"),
    ("hfoil.analysis", "QueryPool", "add", "analysis.QueryPool.add"),
    ("hfoil.analysis", "SupTracker", "on_level",
     "analysis.SupTracker.on_level"),
)


class Tracer:
    """In-memory spans: per name, inclusive (busy) time, self time
    (busy minus the busy time of spans entered inside it) and calls."""

    def __init__(self):
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []

    def wrap(self, fn, name, after=None):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            inner = [0.0]
            self._stack.append(inner)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self.busy[name] += dt
                self.self_s[name] += dt - inner[0]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][0] += dt
            if after is not None:
                after(name, out)
            return out
        return span

    def count_run(self, name, result):
        """Work counts of one solver call, from its RunResult."""
        self.counts[name + ".steps"] += result.steps
        self.counts[name + ".cells"] += result.grid.n
        self.counts[name + ".cell_updates"] += result.steps * result.grid.n

    def count_queries(self, name, handle):
        self.counts["analysis.QueryPool.queries"] += handle[2]

    def report(self):
        return {"spans": {n: {"busy_s": self.busy[n],
                              "self_s": self.self_s[n],
                              "calls": self.calls[n]}
                          for n in sorted(self.calls)},
                "counts": dict(sorted(self.counts.items()))}


def _import_hfoil(src: Path) -> None:
    sys.path.insert(0, str(src))
    import hfoil.cli
    here = Path(hfoil.cli.__file__).resolve()
    if src.resolve() not in here.parents:
        raise SystemExit(f"hfoil imported from {here}, not from {src}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True, type=Path)
    ap.add_argument("--result", required=True, type=Path)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    _import_hfoil(args.src)
    modules = sys.modules
    marks = {"t_imported": time.monotonic(), "t_solver": None}

    def first_entry(fn):
        @functools.wraps(fn)
        def stamp(*a, **kw):
            if marks["t_solver"] is None:
                marks["t_solver"] = time.monotonic()
            return fn(*a, **kw)
        return stamp

    # getattr without a default: a renamed call site fails the sample
    tracer = Tracer() if args.trace else None
    fd_weights = modules["hfoil.util"].fd_weights
    for mod, attr, name in SOLVER_SITES:
        fn = getattr(modules[mod], attr)
        if tracer is not None:
            fn = tracer.wrap(fn, name, after=tracer.count_run)
        setattr(modules[mod], attr, first_entry(fn))
    if tracer is not None:
        sites = [(modules[m], a, n) for m, a, n in FUNCTION_SITES] + [
            (getattr(modules[m], c), a, n) for m, c, a, n in METHOD_SITES]
        for owner, attr, name in sites:
            after = (tracer.count_queries
                     if name == "analysis.QueryPool.add" else None)
            setattr(owner, attr,
                    tracer.wrap(getattr(owner, attr), name, after=after))

    status = modules["hfoil.cli"].main(argv)

    doc = dict(marks, status=status)
    if tracer is not None:
        doc.update(tracer.report())
        info = fd_weights.cache_info()
        doc["fd_cache"] = {"hits": info.hits, "misses": info.misses}
    args.result.write_text(json.dumps(doc))
    return status


if __name__ == "__main__":
    sys.exit(main())
