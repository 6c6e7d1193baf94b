"""Fresh-process scenario benchmark for hfoil.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Each sample is a fresh child interpreter (perfbench/child.py) that runs
one scenario through ``hfoil.cli.main`` with ``--deterministic``, so the
lru_cached stencil weights, chain-rule expansions and lowpass kernel
start cold, as they do for every CLI user.  Children run one at a time
with BLAS and OpenMP pinned to one thread, on one CPU.  The parent times
each child from spawn to exit and checks its output tree.

``--trace 0`` reports the end-to-end metrics (medians over untraced
samples, rescaled by reference_loop() to a fixed machine speed).  ``--trace 1`` alternates traced and untraced children and
reports the per-layer metrics (see perfbench/README.md).  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; per-sample details, the
environment and the output provenance go to
``.perfbench_out/results/<workload>-seed<seed>-trace<t>.json``.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

RUN_LIMIT_S = 170.0          # a run must end within 180 s
MIN_UNTRACED = 3             # samples per --trace 0 run, whatever the budget
COVERAGE_FLOOR = 0.90        # import + span self times over traced wall
REF_S = 0.25                 # nominal reference_loop() time, see below
REF_SHARE = 0.1              # reference timing after a child, per child second

SOLVERS = ("evolve_model", "solve_linear_kg_curved",
           "solve_linear_wave_sourced")

# Each workload: CLI arguments, the input the seed perturbs (section,
# key, default value; scaled by a factor in [0.95, 1.05]), and the spans
# that must record calls.  Every other span may be silent there.  Why
# each workload was chosen: BENCHMARK.json and README.md.
WORKLOADS = {
    "ladder": {
        "argv": ["model-evolution", "--until-s", "20"],
        "seeded": ("data", "epsilon", 0.01),
        "spans": ("util.fd_weights", "analysis.SliceEnergySuite.init",
                  "analysis.QueryPool.on_level", "analysis.QueryPool.add",
                  "analysis.SupTracker.on_level",
                  "analysis.SliceEnergySuite.energies",
                  "analysis.SliceEnergySuite.stage_sups",
                  "analysis.hierarchy_check", "solver.evolve_model",
                  "cli.emit_series", "cli.write_json"),
    },
    "kg-envelope": {
        "argv": ["linear-kg-bound"],
        "seeded": ("data", "epsilon", 0.01),
        "spans": ("analysis.QueryPool.on_level", "analysis.QueryPool.add",
                  "solver.solve_linear_kg_curved", "bounds.kg_bound_margin",
                  "bounds.envelope_V", "bounds.accumulate_F",
                  "cli.emit_series", "cli.write_json"),
    },
    "wave-march": {
        "argv": ["linear-wave-bound", "--resolution", "0.01"],
        "seeded": ("bounds", "source_amp", 1.0),
        "spans": ("analysis.QueryPool.on_level", "analysis.QueryPool.add",
                  "solver.solve_linear_wave_sourced",
                  "bounds.wave_bound_margin", "cli.emit_series",
                  "cli.write_json"),
    },
}

# name, unit, rescaled to the reference speed
END_TO_END = (("wall_s", "s", True), ("setup_s", "s", True),
              ("peak_rss_mb", "MB", False))

# counts that must repeat exactly between traced runs of one input
EXACT = ["util.fd_weights.calls", "util.fd_weights.misses",
         "analysis.QueryPool.on_level.calls", "analysis.QueryPool.queries",
         "bounds.envelope_V.calls", "cli.out_bytes"] + [
    f"solver.{s}.{k}" for s in SOLVERS
    for k in ("steps", "cells", "cell_updates")]


# === one child ===

def _child_env():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def tree_digest(out: Path):
    """sha256 over (relative path, bytes) of every file, and total bytes."""
    h = hashlib.sha256()
    size = 0
    for p in sorted(q for q in out.rglob("*") if q.is_file()):
        data = p.read_bytes()
        size += len(data)
        h.update(p.relative_to(out).as_posix().encode() + b"\0")
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest(), size


def headline(report: dict) -> dict:
    """Report numbers a perf change must not move."""
    out = {f"exponents.{k}": v for k, v in report.get("exponents", {}).items()}
    for c in report.get("criteria", []):
        for key in ("max_ratio", "rel_change"):
            if key in c["details"]:
                out[f"{c['id']}.{key}"] = c["details"][key]
    return out


def run_child(work: Path, tag: str, argv, trace: bool, limit_s: float):
    """Spawn one sample, wait for it and read what it left behind."""
    cdir = work / tag
    cdir.mkdir(parents=True)
    out, result = cdir / "out", cdir / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC),
           "--result", str(result)] + (["--trace"] if trace else []) + [
        "--", *argv, "--deterministic", "--out", str(out)]
    with open(cdir / "log.txt", "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, env=_child_env(), cwd=str(cdir),
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(max(limit_s, 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)

    s = {"trace": trace, "exit": proc.returncode, "wall_s": t_exit - t_spawn,
         "peak_rss_mb": usage.ru_maxrss / 1024.0,
         "cpu_s": usage.ru_utime + usage.ru_stime}
    doc = json.loads(result.read_text()) if result.is_file() else {}
    if doc:
        s["import_s"] = doc["t_imported"] - t_spawn
        if doc["t_solver"] is not None:
            s["setup_s"] = doc["t_solver"] - t_spawn
        for key in ("spans", "counts", "fd_cache"):
            if key in doc:
                s[key] = doc[key]
    report = out / "report.json"
    if report.is_file():
        rep = json.loads(report.read_text())
        s["pass"] = rep.get("pass") is True
        s["headline"] = headline(rep)
        s["digest"], s["out_bytes"] = tree_digest(out)
    else:
        s["pass"] = False
    if s["exit"] != 0 or not s["pass"]:
        s["log_tail"] = (cdir / "log.txt").read_text(errors="replace")[-2000:]
    shutil.rmtree(cdir)
    return s


# === a run: samples until the budget is spent ===

def reference_loop() -> float:
    """Seconds this process takes for a fixed mix of hfoil-like work:
    exact rationals, a numpy stepping loop and small contractions.

    The host's speed drifts by up to 2x over minutes.  The run pins
    itself and its children to one CPU and times this loop before the
    first child and after every child, for REF_SHARE of the child's
    time, so the timings sample the machine's speed as the children
    met it.  wall_s and setup_s are rescaled by
    REF_S / (median of these timings).  Changing this loop moves every
    rescaled metric, so it is part of the benchmark's definition.
    """
    t0 = time.perf_counter()
    for k in range(1, 9000):
        a = Fraction(k, 7) * Fraction(3, k + 1) - Fraction(k % 5, 11)
        a = a / (a + 1)
    x = np.linspace(0.0, 1.0, 4000)
    y = 0.5 * x
    for _ in range(7500):
        z = 2.0 * y - x
        z[1:-1] += 0.1 * (y[2:] - 2.0 * y[1:-1] + y[:-2])
        x, y = y, z
    g = np.linspace(0.0, 1.0, 10 * 64 * 51).reshape(10, 64, 51)
    w = np.linspace(0.0, 1.0, 64 * 51).reshape(64, 51)
    for _ in range(900):
        np.einsum("ibj,bj->ib", g, w)
    return time.perf_counter() - t0


def reference_timings(budget_s: float) -> list:
    """reference_loop() timings within `budget_s`, at least one."""
    times = [reference_loop()]
    while sum(times) + times[0] <= budget_s:
        times.append(reference_loop())
    return times


def seeded_config(name: str, seed: int) -> str:
    section, key, base = WORKLOADS[name]["seeded"]
    value = base * random.Random(f"{name}/{seed}").uniform(0.95, 1.05)
    return f"[{section}]\n{key} = {value!r}\n"


def collect(name: str, seed: int, seconds: float, trace: bool, work: Path):
    """Run children serially; start another while at least half of it
    (by the last time of its kind) fits in `seconds`.

    --trace 0: untraced children, at least MIN_UNTRACED.
    --trace 1: traced and untraced children alternate, at least two
    traced (so exact counts can be compared) and one untraced (for the
    tracing overhead).
    """
    cfg = work / "config.txt"
    cfg.write_text(seeded_config(name, seed))
    argv = WORKLOADS[name]["argv"] + ["--config", str(cfg)]
    start = time.monotonic()
    samples, last = [], {}
    refs = reference_timings(0.0)

    def need_more():
        kinds = Counter(s["trace"] for s in samples)
        if not trace:
            return kinds[False] < MIN_UNTRACED
        return kinds[True] < 2 or kinds[False] < 1

    while True:
        kind = trace and (len(samples) % 2 == 0)
        elapsed = time.monotonic() - start
        if not need_more() and elapsed + last.get(kind, 0.0) / 2 > seconds:
            break
        s = run_child(work, f"c{len(samples)}", argv, kind,
                      RUN_LIMIT_S - elapsed)
        samples.append(s)
        refs += reference_timings(REF_SHARE * s["wall_s"])
        last[kind] = (1.0 + REF_SHARE) * s["wall_s"]
        if "import_s" not in s:
            break       # hfoil did not even import: every child would fail
    return samples, refs


def mark_failures(samples) -> None:
    """A sample fails on a nonzero exit, "pass": false, or an output tree
    that differs from the other samples of the run."""
    top = Counter(s["digest"] for s in samples
                  if "digest" in s).most_common(2)
    agreed = (top[0][0] if top and (len(top) == 1 or top[0][1] > top[1][1])
              else None)
    for s in samples:
        s["failed"] = (s["exit"] != 0 or not s["pass"]
                       or s.get("digest") != agreed)


# === metrics ===

def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(values)
    if n - 10 <= n / 2:
        return None
    return {"pct": 100.0 * (n - 10) / n, "value": sorted(values)[n - 11]}


def end_to_end(samples, refs):
    good = [s for s in samples if not s["trace"] and not s["failed"]]
    scale = REF_S / median(refs)
    out = {}
    for name, unit, rescaled in END_TO_END:
        vals = [s[name] * (scale if rescaled else 1.0) for s in good]
        out[name] = {"value": median(vals), "unit": unit, "n": len(good),
                     "tail": tail(vals)}
    return out


def layer_values(s) -> dict:
    """Per-layer metrics of one traced sample."""
    spans, counts = s["spans"], s["counts"]

    def sp(name, key="busy_s"):
        return spans.get(name, {}).get(key, 0)

    v = {
        "util.fd_weights.busy_s": sp("util.fd_weights"),
        "util.fd_weights.calls": sp("util.fd_weights", "calls"),
        "util.fd_weights.misses": s["fd_cache"]["misses"],
        "analysis.SliceEnergySuite.init_s":
            sp("analysis.SliceEnergySuite.init"),
        "analysis.QueryPool.on_level.busy_s":
            sp("analysis.QueryPool.on_level"),
        "analysis.QueryPool.on_level.calls":
            sp("analysis.QueryPool.on_level", "calls"),
        "analysis.QueryPool.queries":
            counts.get("analysis.QueryPool.queries", 0),
        "analysis.SupTracker.on_level.busy_s":
            sp("analysis.SupTracker.on_level"),
        "analysis.SliceEnergySuite.energies.busy_s":
            sp("analysis.SliceEnergySuite.energies"),
        "analysis.SliceEnergySuite.stage_sups.busy_s":
            sp("analysis.SliceEnergySuite.stage_sups"),
        "analysis.hierarchy_check.busy_s": sp("analysis.hierarchy_check"),
        "bounds.envelope_V.busy_s": sp("bounds.envelope_V"),
        "bounds.envelope_V.calls": sp("bounds.envelope_V", "calls"),
        "bounds.accumulate_F.busy_s": sp("bounds.accumulate_F"),
        "bounds.kg_bound_margin.self_s":
            sp("bounds.kg_bound_margin", "self_s"),
        "bounds.wave_bound_margin.self_s":
            sp("bounds.wave_bound_margin", "self_s"),
        "cli.emit_series.busy_s": sp("cli.emit_series"),
        "cli.write_json.busy_s": sp("cli.write_json"),
        "cli.out_bytes": s.get("out_bytes", 0),
        "process.import_s": s["import_s"],
        "process.traced_wall_s": s["wall_s"],
        "process.span_coverage": (s["import_s"] + sum(
            x["self_s"] for x in spans.values())) / s["wall_s"],
    }
    qbusy = v["analysis.QueryPool.on_level.busy_s"]
    v["analysis.QueryPool.queries_per_s"] = (
        v["analysis.QueryPool.queries"] / qbusy if qbusy else 0.0)
    for name in SOLVERS:
        key = f"solver.{name}"
        self_s = sp(key, "self_s")
        v[f"{key}.self_s"] = self_s
        for k in ("steps", "cells", "cell_updates"):
            v[f"{key}.{k}"] = counts.get(f"{key}.{k}", 0)
        v[f"{key}.cell_updates_per_s"] = (
            v[f"{key}.cell_updates"] / self_s if self_s else 0.0)
    return v


def per_layer(samples, refs):
    good = [s for s in samples if not s["failed"]]
    traced = [s for s in good if s["trace"]]
    plain = [s for s in good if not s["trace"]]
    if not traced or not plain:
        return {}
    values = [layer_values(s) for s in traced]
    out = {key: values[0][key] if key in EXACT
           else median([v[key] for v in values]) for key in values[0]}
    out["process.cpu_s"] = median([s["cpu_s"] for s in plain])
    out["process.ref_s"] = median(refs)
    out["process.trace_overhead_s"] = (
        median([s["wall_s"] for s in traced])
        - median([s["wall_s"] for s in plain]))
    return out


LAYER_UNITS = {"calls": "count", "misses": "count", "queries": "count",
               "steps": "count", "cells": "count", "cell_updates": "count",
               "out_bytes": "byte", "span_coverage": "ratio",
               "queries_per_s": "1/s", "cell_updates_per_s": "1/s"}


def layer_unit(key: str) -> str:
    return LAYER_UNITS.get(key.rsplit(".", 1)[1], "s")


def trace_problems(name: str, samples) -> list:
    """Checks on the traced samples; each problem makes the run incorrect."""
    problems = []
    traced = [s for s in samples if s["trace"] and not s["failed"]]
    values = [layer_values(s) for s in traced]
    for s, v in zip(traced, values):
        for span in WORKLOADS[name]["spans"]:
            if s["spans"].get(span, {}).get("calls", 0) == 0:
                problems.append(f"span {span} recorded no calls")
        misses = s["fd_cache"]["misses"]
        if (name == "ladder") != (misses > 0):
            problems.append(f"fd_weights cache misses = {misses}: "
                            "the stencil cache did not start cold"
                            if name == "ladder" else
                            f"fd_weights cache misses = {misses} on a "
                            "workload without stencil tables")
        cover = v["process.span_coverage"]
        if cover < COVERAGE_FLOOR:
            problems.append(f"spans and import cover {cover:.1%} of the "
                            f"traced wall time, below {COVERAGE_FLOOR:.0%}")
    for v in values[1:]:
        diff = [k for k in EXACT if v[k] != values[0][k]]
        if diff:
            problems.append("exact counts differ between traced runs: "
                            + ", ".join(diff))
    return sorted(set(problems))


# === environment and output ===

def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "child_blas_threads": 1,
            "pinned_cpus": sorted(os.sched_getaffinity(0))}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = OUT / "work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        samples, refs = collect(name, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    mark_failures(samples)
    failed = sum(s["failed"] for s in samples)
    problems = [f"{failed} of {len(samples)} samples failed"] if failed else []
    if trace:
        metrics = per_layer(samples, refs)
        problems += trace_problems(name, samples)
        shown = {k: {"value": v, "unit": layer_unit(k)}
                 for k, v in sorted(metrics.items())}
    else:
        shown = end_to_end(samples, refs)
    good = [s for s in samples if not s["failed"]]
    plain = [s for s in good if not s["trace"]]
    doc = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "argv": WORKLOADS[name]["argv"],
        "seeded_config": seeded_config(name, seed),
        "environment": environment(),
        "provenance": {"digest": good[0]["digest"] if good else None,
                       "headline": good[0]["headline"] if good else None},
        "metrics": shown, "problems": problems,
        "unscaled": {"wall_s": median([s["wall_s"] for s in plain]),
                     "setup_s": median([s["setup_s"] for s in plain]),
                     "reference_s": refs},
        "attempted": len(samples), "failed": failed,
        "failed_runs": failed / len(samples),
        "samples": samples,
    }
    res = OUT / "results"
    res.mkdir(parents=True, exist_ok=True)
    (res / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return doc


def show(doc: dict) -> None:
    n = doc["attempted"]
    print(f"== {doc['workload']}  seed {doc['seed']}  "
          f"{'traced' if doc['trace'] else 'untraced'}  "
          f"{n} samples  tree sha256 {doc['provenance']['digest']}")
    for k, m in doc["metrics"].items():
        extra = ""
        if "n" in m:
            t = m["tail"]
            extra = (f"  median of n={m['n']}; " + (
                f"p{t['pct']:.0f} {t['value']:.4g}" if t else
                "no tail percentile (needs n > 20)"))
        print(f"  {k:48s} {m['value']:>14.6g} {m['unit']}{extra}")
    print(f"  {'failed_runs':48s} {doc['failed_runs']:>14.6g} "
          f"share ({doc['failed']} of {n})")
    raw = doc["unscaled"]
    print(f"  unscaled medians: wall {raw['wall_s']:.4g} s, setup "
          f"{raw['setup_s']:.4g} s; reference loop median "
          f"{median(raw['reference_s']):.4g} s (REF_S {REF_S} s) over "
          f"{len(raw['reference_s'])} timings")
    for p in doc["problems"]:
        print(f"  PROBLEM: {p}")
    for s in doc["samples"]:
        if "log_tail" in s:
            print(s["log_tail"], file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hfoil" / "cli.py").is_file():
        print(f"hfoil sources not found under {SRC}", file=sys.stderr)
        return 2
    # byte-compile once, outside every timed child
    if not compileall.compile_dir(str(SRC / "hfoil"), quiet=1):
        print("hfoil sources do not compile", file=sys.stderr)
        return 2

    # children inherit the pin, so they and reference_loop share one CPU
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    docs = []
    for name in names:
        doc = run_workload(name, args.seed, args.seconds, bool(args.trace))
        show(doc)
        docs.append(doc)

    def key(doc, k):
        return k if len(docs) == 1 else f"{doc['workload']}.{k}"
    print(json.dumps({
        "correct": all(not d["problems"] for d in docs),
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "metrics": {key(d, k): {"value": m["value"], "unit": m["unit"]}
                    for d in docs for k, m in d["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
