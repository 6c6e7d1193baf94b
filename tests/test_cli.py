import os

import pytest

from hfoil import cli


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("before", [None, "3"])
@pytest.mark.parametrize("deterministic", [False, True])
def test_run_leaves_thread_setting_alone(monkeypatch, tmp_path, before,
                                         deterministic):
    seen = []

    def stub(cfg, out):
        seen.append(os.environ.get("HFOIL_THREADS"))
        return [cli.CriterionResult("stub", True, {})], {}

    monkeypatch.setitem(cli._SCENARIOS, "model-evolution", stub)
    if before is None:
        monkeypatch.delenv("HFOIL_THREADS", raising=False)
    else:
        monkeypatch.setenv("HFOIL_THREADS", before)
    argv = ["model-evolution", "--out", str(tmp_path)]
    if deterministic:
        argv.append("--deterministic")
    assert cli.main(argv) == 0
    assert seen == ["1" if deterministic else before]
    assert os.environ.get("HFOIL_THREADS") == before


def test_thread_setting_restored_after_failed_run(monkeypatch, tmp_path):
    def stub(cfg, out):
        raise cli.ConfigError("stub failure")

    monkeypatch.setitem(cli._SCENARIOS, "model-evolution", stub)
    monkeypatch.delenv("HFOIL_THREADS", raising=False)
    argv = ["model-evolution", "--out", str(tmp_path), "--deterministic"]
    assert cli.main(argv) == 2
    assert "HFOIL_THREADS" not in os.environ


def deterministic_trees(monkeypatch, tmp_path, argv):
    """Output trees of two --deterministic runs of argv."""
    trees = []
    for name in ("a", "b"):
        work = tmp_path / name
        work.mkdir()
        monkeypatch.chdir(work)
        assert cli.main(argv + ["--deterministic"]) == 0
        trees.append(tree_bytes(work))
    assert "report.json" in {k.rsplit("/", 1)[-1] for k in trees[0]}
    return trees


def test_deterministic_runs_are_byte_identical(monkeypatch, tmp_path):
    # order 8 by default, so this takes the filtered query path
    argv = ["model-evolution", "--until-s", "5", "--resolution", "0.1"]
    trees = deterministic_trees(monkeypatch, tmp_path, argv)
    assert trees[0] == trees[1]


def test_deterministic_envelope_runs_are_byte_identical(monkeypatch,
                                                        tmp_path):
    trees = deterministic_trees(monkeypatch, tmp_path, ["linear-wave-bound"])
    assert any(k.endswith(".csv") for k in trees[0])
    assert trees[0] == trees[1]
