"""The benchmark's own checks, on real traced runs and doctored copies.

Run from the root of a checkout:  python3 -m pytest -q perfbench
(about 90 s: one short traced run per workload, and one more of kg-envelope).
"""
import copy
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402


@pytest.fixture(scope="module")
def traced():
    # the shortest run the schedule allows: two traced samples, one plain
    return {name: bench.run_workload(name, seed=7, seconds=1, trace=True)
            for name in bench.WORKLOADS}


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_traced_run_is_clean(traced, name):
    doc = traced[name]
    assert doc["failed"] == 0
    assert doc["problems"] == []
    assert sum(s["trace"] for s in doc["samples"]) >= 2
    m = doc["metrics"]
    misses = m["util.fd_weights.misses"]["value"]
    assert misses > 0 if name == "ladder" else misses == 0
    assert m["process.span_coverage"]["value"] >= bench.COVERAGE_FLOOR
    for key in bench.EXACT:
        assert key in m
    entry = {"ladder": "evolve_model", "kg-envelope": "solve_linear_kg_curved",
             "wave-march": "solve_linear_wave_sourced"}[name]
    assert m[f"solver.{entry}.cell_updates"]["value"] > 0
    assert m[f"solver.{entry}.cell_updates_per_s"]["value"] > 0


def test_exact_counts_do_not_depend_on_seed(traced):
    # out_bytes is exact per input, but the printed digits vary with it
    other = bench.run_workload("kg-envelope", seed=8, seconds=1, trace=True)
    for key in set(bench.EXACT) - {"cli.out_bytes"}:
        assert (other["metrics"][key]["value"]
                == traced["kg-envelope"]["metrics"][key]["value"]), key


def _problems(name, samples):
    return " | ".join(bench.trace_problems(name, samples))


def test_warm_stencil_cache_is_caught(traced):
    samples = copy.deepcopy(traced["ladder"]["samples"])
    samples[0]["fd_cache"]["misses"] = 0
    assert "did not start cold" in _problems("ladder", samples)
    samples = copy.deepcopy(traced["wave-march"]["samples"])
    samples[0]["fd_cache"]["misses"] = 3
    assert "without stencil tables" in _problems("wave-march", samples)


def test_silent_span_is_caught(traced):
    samples = copy.deepcopy(traced["kg-envelope"]["samples"])
    del samples[0]["spans"]["bounds.envelope_V"]
    assert "span bounds.envelope_V recorded no calls" in _problems(
        "kg-envelope", samples)


def test_count_drift_is_caught(traced):
    samples = copy.deepcopy(traced["wave-march"]["samples"])
    last = [s for s in samples if s["trace"]][-1]
    last["counts"]["solver.solve_linear_wave_sourced.steps"] += 1
    assert "exact counts differ" in _problems("wave-march", samples)


def test_low_coverage_is_caught(traced):
    samples = copy.deepcopy(traced["wave-march"]["samples"])
    for s in samples:
        s["wall_s"] *= 2.0
    assert "cover" in _problems("wave-march", samples)


def test_differing_output_tree_fails_the_sample():
    samples = [{"exit": 0, "pass": True, "digest": d} for d in "aab"]
    bench.mark_failures(samples)
    assert [s["failed"] for s in samples] == [False, False, True]
    samples = [{"exit": 0, "pass": True, "digest": d} for d in "ab"]
    bench.mark_failures(samples)
    assert all(s["failed"] for s in samples)
    samples = [{"exit": 1, "pass": True, "digest": "a"},
               {"exit": 0, "pass": False, "digest": "a"},
               {"exit": 0, "pass": True, "digest": "a"}]
    bench.mark_failures(samples)
    assert [s["failed"] for s in samples] == [True, True, False]


def test_tail_percentile_needs_ten_samples_above():
    assert bench.tail(list(range(20))) is None
    t = bench.tail(list(range(21)))
    assert t["value"] == 10 and abs(t["pct"] - 100 * 11 / 21) < 1e-12
