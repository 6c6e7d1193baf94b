import ast
import dataclasses
import json
import os
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfoil import cli
from hfoil.util import ConfigError


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def criterion(summary, cid):
    """The criterion of a run summary with the given id."""
    [c] = [c for c in summary.criteria if c.id == cid]
    return c


# --- the environment belongs to the caller ---

@pytest.mark.parametrize("before", [None, "3"])
@pytest.mark.parametrize("deterministic", [False, True])
def test_run_leaves_thread_setting_alone(monkeypatch, tmp_path, before,
                                         deterministic):
    # a run, deterministic or not, sees the caller's environment as it is
    # (thread settings included) and leaves it unchanged
    seen = []

    def stub(cfg, out):
        seen.append(dict(os.environ))
        return [cli.CriterionResult("stub", True, {})], {}

    monkeypatch.setitem(cli._SCENARIOS, "model-evolution", stub)
    if before is None:
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OMP_NUM_THREADS", before)
    env = dict(os.environ)
    argv = ["model-evolution", "--out", str(tmp_path)]
    if deterministic:
        argv.append("--deterministic")
    assert cli.main(argv) == 0
    assert seen == [env]
    assert dict(os.environ) == env


def test_thread_setting_restored_after_failed_run(monkeypatch, tmp_path):
    def stub(cfg, out):
        raise cli.ConfigError("stub failure")

    monkeypatch.setitem(cli._SCENARIOS, "model-evolution", stub)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    env = dict(os.environ)
    argv = ["model-evolution", "--out", str(tmp_path), "--deterministic"]
    assert cli.main(argv) == 2
    assert dict(os.environ) == env


# --- config errors carry their line and field ---

@pytest.mark.parametrize("text, line, field", [
    ("[run]\n[grid\n", 2, None),                       # unterminated header
    ("# c\n[nope]\n", 2, None),                        # unknown section
    ("[run]\nbogus = 1\n", 2, "bogus"),                # unknown key
    ("[run]\nseed = 0\n", 2, "seed"),                  # nothing is random
    ("[grid]\nmode = radial\n", 2, "mode"),            # every run is radial
    ("[grid]\nbox_half = 1\n", 2, "box_half"),         # every run is radial
    ("\nuntil_s = 5\n", 2, None),                      # key before a section
    ("[run]\njust words\n", 2, None),                  # no '='
    ("[run]\nuntil_s = 5\n\nuntil_s = 6\n", 4, "until_s"),   # duplicate
    ("[grid]\nresolution = fine\n", 2, "resolution"),  # bad float
    ("[grid]\npad_cells = 1.5\n", 2, "pad_cells"),     # bad integer
    ("[run]\ndeterministic = maybe\n", 2, "deterministic"),  # bad bool
    ("[bounds]\nmetric = curved\n", 2, "metric"),      # bad choice
    ("[grid]\nresolution = -0.1\n", 2, "resolution"),  # range check
    ("[hierarchy]\ndelta = 0.1\n", 2, "delta"),        # range check
    ("[bounds]\nmu = 0.5\n", 2, "mu"),                 # mu without nu
    ("[bounds]\n\nnu = 0.5\n", 3, "nu"),               # nu without mu
    ("[run]\nuntil_s = 2\n", 2, "until_s"),            # until_s <= s0
    ("[bounds]\ns0 = 3\n[run]\nuntil_s = 2.5\n", 4, "until_s"),
    ("[grid]\ncfl = 0.95\n", 2, "cfl"),                # above the 0.9 cap
])
def test_config_error_reports_line_and_field(text, line, field):
    with pytest.raises(ConfigError) as ei:
        cli.parse_config(text)
    assert ei.value.line == line
    assert ei.value.field == field


# every float key, set to a non-finite value, on a line below a comment
FLOAT_KEYS = [(f.metadata["section"], f.metadata["key"] or f.name)
              for f in dataclasses.fields(cli.RunConfig)
              if f.metadata and f.metadata["conv"] is cli._to_float]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section, key", FLOAT_KEYS)
def test_non_finite_float_reports_line_and_field(section, key, value):
    with pytest.raises(ConfigError) as ei:
        cli.parse_config(f"# c\n[{section}]\n{key} = {value}\n")
    assert ei.value.line == 3
    assert ei.value.field == key
    assert "finite" in str(ei.value)


def test_float_keys_cover_the_model_couplings():
    assert {"p00", "ps", "rcoef", "h00", "hs", "mass", "mu", "nu",
            "until_s", "resolution", "epsilon"} <= {k for _, k in FLOAT_KEYS}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("scenario, flag, field", [
    ("model-evolution", "--resolution", "resolution"),
    ("linear-kg-bound", "--epsilon", "epsilon"),
    ("sobolev-suite", "--until-s", "until_s"),
])
def test_non_finite_flag_exits_with_config_error(tmp_path, capsys, scenario,
                                                 flag, field, value):
    # the flag=value form; test_negative_flag_value_as_separate_argument
    # passes a value as the next argument
    out = tmp_path / "out"
    assert cli.main([scenario, f"{flag}={value}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: flag for [") and field in err
    assert not out.exists()
    with pytest.raises(ConfigError) as ei:
        cli.build_config([scenario, f"{flag}={value}"])
    assert ei.value.line is None and ei.value.field == field


@pytest.mark.parametrize("scenario, flag, value, field", [
    ("sobolev-suite", "--until-s", "-inf", "until_s"),
    ("linear-kg-bound", "--epsilon", "-1e-3", "epsilon"),
    ("model-evolution", "--resolution", "-1E-2", "resolution"),
])
def test_negative_flag_value_as_separate_argument(tmp_path, capsys, scenario,
                                                  flag, value, field):
    # argparse would take a separate -inf or -1e-3 for an option; it must
    # reach the key's converter and range check like flag=value does
    out = tmp_path / "out"
    assert cli.main([scenario, flag, value, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: flag for [") and field in err
    assert not out.exists()
    with pytest.raises(ConfigError) as ei:
        cli.build_config([scenario, flag, value])
    assert ei.value.line is None and ei.value.field == field


def test_cfl_cap_is_inclusive():
    assert cli.parse_config("[grid]\ncfl = 0.9\n").cfl == 0.9


def test_flag_conflict_reports_field_without_line():
    with pytest.raises(ConfigError) as ei:
        cli.build_config(["linear-kg-bound", "--until-s", "1.5"])
    assert ei.value.line is None
    assert ei.value.field == "until_s"


# --- keys and flags the scenario never reads ---

@pytest.mark.parametrize("scenario, text, line, field", [
    ("model-evolution", "[bounds]\nC = 5\n", 2, "C"),
    ("linear-kg-bound", "[run]\nuntil_s = 6\nuntil_t = 99\n", 3,
     "until_t"),
    ("linear-wave-bound", "# c\n[hierarchy]\norder = 3\n", 3, "order"),
    ("sobolev-suite", "[data]\nradius = 2\n", 2, "radius"),
    ("frame-identity-suite", "[model]\nmass = 2\n", 2, "mass"),
    ("convergence-suite", "[data]\nepsilon = 0.02\neps_v = 0.1\n", 3,
     "eps_v"),
    # the envelope scenarios run at the fixed Courant number 1/2
    ("linear-kg-bound", "[grid]\ncfl = 0.5\n", 2, "cfl"),
    ("linear-wave-bound", "[grid]\nresolution = 0.04\ncfl = 0.25\n", 3,
     "cfl"),
])
def test_unread_key_reports_line_and_field(tmp_path, scenario, text, line,
                                           field):
    path = tmp_path / "config.txt"
    path.write_text(text)
    with pytest.raises(ConfigError) as ei:
        cli.build_config([scenario, "--config", str(path)])
    assert ei.value.line == line
    assert ei.value.field == field


@pytest.mark.parametrize("argv, field", [
    (["linear-wave-bound", "--until-s", "30"], "until_s"),
    (["sobolev-suite", "--resolution", "0.2"], "resolution"),
])
def test_unread_flag_reports_field_without_line(argv, field):
    with pytest.raises(ConfigError) as ei:
        cli.build_config(argv)
    assert ei.value.line is None
    assert ei.value.field == field


# a zero amplitude leaves these scenarios no data: it is refused under
# the key that set it, never replaced by some other amplitude
@pytest.mark.parametrize("scenario, text, line, field", [
    ("linear-kg-bound", "[data]\neps_v = 0\n", 2, "eps_v"),
    ("linear-kg-bound", "[data]\n\nepsilon = 0\n", 3, "epsilon"),
    ("convergence-suite", "[data]\neps_u = 0.0\n", 2, "eps_u"),
    ("convergence-suite", "[data]\nepsilon = 0\n", 2, "epsilon"),
])
def test_zero_amplitude_reports_line_and_field(tmp_path, scenario, text,
                                               line, field):
    path = tmp_path / "config.txt"
    path.write_text(text)
    with pytest.raises(ConfigError) as ei:
        cli.build_config([scenario, "--config", str(path)])
    assert ei.value.line == line
    assert ei.value.field == field


@pytest.mark.parametrize("scenario", ["linear-kg-bound", "convergence-suite"])
def test_zero_epsilon_flag_exits_with_config_error(tmp_path, capsys,
                                                   scenario):
    out = tmp_path / "out"
    assert cli.main([scenario, "--epsilon", "0", "--out", str(out)]) == 2
    assert "epsilon = 0" in capsys.readouterr().err
    assert not out.exists()
    # the epsilon is not read where the field's own key is set
    path = tmp_path / "config.txt"
    key = cli._AMPLITUDE_KEY[scenario]
    path.write_text(f"[data]\nepsilon = 0\n{key} = 0.01\n")
    assert cli.build_config([scenario, "--config", str(path)]).epsilon == 0


def test_model_evolution_edge_configs(tmp_path, capsys):
    # a coarse time step still covers every slice lattice, so the run
    # ends with a report
    out = tmp_path / "coarse"
    assert cli.main(["model-evolution", "--resolution", "0.15", "--out",
                     str(out), "--deterministic"]) in (0, 1)
    assert (out / "report.json").is_file()
    # a first slice before the run starts, and an until_t before the
    # ladder is read, are config errors at the key's line
    for text, line, key in (("[bounds]\ns0 = 1.5\n", 2, "s0"),
                            ("[run]\n\nuntil_t = 30\n", 3, "until_t")):
        path = tmp_path / f"{key}.txt"
        path.write_text(text)
        capsys.readouterr()
        assert cli.main(["model-evolution", "--config", str(path), "--out",
                         str(tmp_path / key), "--deterministic"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: line {line}: {key} = ")


def test_hierarchy_lines_criterion_carries_each_fit_width(tmp_path):
    # report.json holds every hierarchy line's fit width (the rms of its
    # power-law fit), the width column of hierarchy.csv, line for line
    out = tmp_path / "out"
    assert cli.main(["model-evolution", "--until-s", "8", "--resolution",
                     "0.1", "--out", str(out), "--deterministic"]) == 0
    report = json.loads((out / "report.json").read_text())
    [c] = [c for c in report["criteria"] if c["id"] == "hierarchy-lines"]
    rows = [ln.split(",") for ln in
            (out / "hierarchy.csv").read_text().splitlines()[1:]]
    assert len(rows) == c["details"]["lines"] > 0
    assert list(c["details"]["widths"]) == [row[0] for row in rows]
    assert list(c["details"]["widths"].values()) == [float(row[3])
                                                     for row in rows]
    assert any(w > 0 for w in c["details"]["widths"].values())


def test_config_error_in_a_scenario_leaves_no_tree(tmp_path, capsys):
    # until_t is checked against the ladder plan inside the scenario, after
    # the echo is written; the error must not leave that echo behind
    path = tmp_path / "until.txt"
    path.write_text("[run]\nuntil_t = 30\n")
    made = tmp_path / "new" / "out"
    assert cli.main(["model-evolution", "--config", str(path), "--out",
                     str(made)]) == 2
    assert "until_t = 30" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()
    # a directory the run did not create stays, with what it held
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "notes.txt").write_text("mine")
    assert cli.main(["model-evolution", "--config", str(path), "--out",
                     str(kept)]) == 2
    assert tree_bytes(kept) == {"notes.txt": b"mine"}


# windows with nothing to measure: a first slice at or past the last
# slice (the ladder would run backwards, or the lattice start past its
# end; linear-kg-bound's lattice starts on KG_LATTICE_LEAD s0), and an
# end that leaves a margin lattice no point.  Each fails before any
# solve, the margin lattices at both steps included: until_t = 10.3 at
# dx 0.04 leaves the dx lattice times up to 10.06, but the 2 dx lattice
# would end at 9.82, before t_lo = 10
@pytest.mark.parametrize("scenario, text, line, key", [
    ("linear-wave-bound", "[run]\nuntil_t = 5\n", 2, "until_t"),
    ("linear-wave-bound", "[run]\n\nuntil_t = 10.1\n", 3, "until_t"),
    ("linear-wave-bound", "[run]\nuntil_t = 10.3\n[grid]\nresolution = 0.04\n",
     2, "until_t"),
    ("linear-kg-bound", "[bounds]\ns0 = 9\n", 2, "s0"),
    ("linear-kg-bound", "[bounds]\ns0 = 7.5\n", 2, "s0"),   # 8.25 past 8
    ("linear-kg-bound", "[bounds]\ns0 = 3\n[run]\nuntil_s = 3.2\n", 4,
     "until_s"),
    ("linear-kg-bound", "[bounds]\ns0 = 1.05\n[run]\nuntil_s = 1.2\n", 4,
     "until_s"),
    ("model-evolution", "[bounds]\ns0 = 12\n", 2, "s0"),
    ("sobolev-suite", "# c\n[bounds]\ns0 = 25\n", 3, "s0"),
])
def test_empty_window_is_a_config_error_at_its_key(tmp_path, capsys,
                                                   monkeypatch, scenario,
                                                   text, line, key):
    from hfoil import bounds
    calls = []
    for module, name in ((bounds, "solve_linear_kg_curved"),
                         (bounds, "solve_linear_wave_sourced"),
                         (cli, "evolve_model")):
        monkeypatch.setattr(module, name, lambda *a, _name=name, **kw:
                            calls.append(_name))
    path = tmp_path / "config.txt"
    path.write_text(text)
    out = tmp_path / "out"
    assert cli.main([scenario, "--config", str(path), "--out", str(out),
                     "--deterministic"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: line {line}: {key}")
    if "until_t = 10.3" in text:
        assert "to 9.82" in err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("scenario", ["model-evolution", "linear-kg-bound"])
def test_flags_match_the_same_keys_in_a_file(tmp_path, scenario):
    path = tmp_path / "config.txt"
    path.write_text("[run]\nuntil_s = 6.5\n[grid]\nresolution = 0.07\n"
                    "[data]\nepsilon = 0.02\n"
                    f"[output]\ndir = {tmp_path / 'out'}\n")
    from_file = cli.build_config([scenario, "--config", str(path)])
    from_flags = cli.build_config([
        scenario, "--until-s", "6.5", "--resolution", "0.07",
        "--epsilon", "0.02", "--out", str(tmp_path / "out")])
    assert cli.config_text(from_flags) == cli.config_text(from_file)
    assert from_flags.out_dir == from_file.out_dir == str(tmp_path / "out")
    # a flag wins over the file's value of its key
    path.write_text("[grid]\nresolution = 0.1\n")
    both = cli.build_config([scenario, "--config", str(path),
                             "--resolution", "0.07"])
    assert both.resolution == 0.07


# --- config text round trip ---

finite = dict(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, **finite)
nonneg = st.floats(min_value=0.0, **finite)
optional = lambda s: st.none() | s

# one strategy per RunConfig attribute the schema can set (besides
# out_dir, which config_text leaves out)
FIELD_VALUES = {
    "scenario": st.sampled_from(cli.SCENARIOS),
    "deterministic": st.booleans(),
    "until_t": optional(positive),
    "resolution": optional(positive),
    "cfl": st.floats(min_value=0.0, max_value=cli.CFL_CAP, exclude_min=True),
    "pad_cells": st.integers(min_value=0, max_value=10 ** 6),
    "mass": positive,
    "p00": st.floats(**finite),
    "ps": st.floats(**finite),
    "rcoef": st.floats(**finite),
    "h00": st.floats(**finite),
    "hs": st.floats(**finite),
    "epsilon": nonneg,
    "eps_u": optional(nonneg),
    "eps_v": optional(nonneg),
    "radius": positive,
    "order": st.integers(min_value=0, max_value=64),
    "delta": st.floats(min_value=0.0, max_value=0.1, exclude_min=True,
                       exclude_max=True),
    "C": positive,
    "dlam": positive,
    "metric": st.sampled_from(("flat", "pull", "both")),
    "metric_amp": nonneg,
    "source_amp": st.floats(**finite),
}


@st.composite
def run_configs(draw):
    values = {attr: draw(s) for attr, s in FIELD_VALUES.items()}
    values["s0"] = s0 = draw(st.floats(min_value=1.0, max_value=1e6,
                                       exclude_min=True))
    values["until_s"] = draw(optional(st.floats(
        min_value=s0, max_value=1e9, exclude_min=True)))
    if draw(st.booleans()):
        values["mu"] = draw(st.floats(min_value=0.0, max_value=0.5,
                                      exclude_min=True))
        values["nu"] = draw(st.floats(min_value=-0.5, max_value=0.5).filter(
            lambda v: v != 0.0))
    return cli.RunConfig(**values)


KEYS = [f for f in dataclasses.fields(cli.RunConfig) if f.name != "explicit"]


def test_every_config_key_is_read():
    # no dead knobs: each config field but the three every run reads is
    # read by some scenario, and the scenarios read only config fields
    attrs = {f.name for f in KEYS}
    read = set().union(*cli._READS.values())
    assert attrs - {"scenario", "deterministic", "out_dir"} <= read
    assert read <= attrs
    assert set(cli._READS) == set(cli.SCENARIOS)


def test_field_strategies_cover_the_schema():
    drawn = set(FIELD_VALUES) | {"s0", "until_s", "mu", "nu", "out_dir"}
    assert {f.name for f in KEYS} == drawn
    # the schema is read off the fields, each under one (section, key)
    assert [f for sec in cli._SCHEMA.values() for f in sec.values()] == KEYS
    assert cli._SCHEMA["output"]["dir"].name == "out_dir"


# the echo feeds config_sha256 and the default run directory names, so
# its text is pinned: the all-defaults config and one that sets every key
DEFAULT_ECHO = (
    "[run]\nscenario = model-evolution\ndeterministic = false\n\n"
    "[grid]\nresolution = 0.05\ncfl = 0.5\npad_cells = 60\n\n"
    "[model]\nmass = 1.0\np00 = 1.0\nps = 1.0\nrcoef = 1.0\nh00 = 1.0\n"
    "hs = 1.0\n\n"
    "[data]\nepsilon = 0.01\nradius = 1.0\n\n"
    "[hierarchy]\norder = 8\ndelta = 0.02\n\n"
    "[bounds]\nC = 10.0\ndlam = 0.01\ns0 = 2.0\nmetric = both\n"
    "metric_amp = 0.1\nsource_amp = 1.0\n")

EVERY_KEY = """\
[run]
scenario = linear-wave-bound
deterministic = yes
until_s = 12
until_t = 40
[grid]
resolution = 0.03
cfl = 0.9
pad_cells = 7
[model]
mass = 2
p00 = -1
ps = 0.5
rcoef = 0
h00 = 1e-3
hs = -0.25
[data]
epsilon = 0.02
eps_u = 0
eps_v = 0.125
radius = 1.5
[hierarchy]
order = 3
delta = 0.05
[bounds]
C = 100
dlam = 0.005
s0 = 3
mu = 0.25
nu = -0.5
metric = pull
metric_amp = 0.2
source_amp = -2
[output]
dir = runs/every
"""

EVERY_KEY_ECHO = (
    "[run]\nscenario = linear-wave-bound\ndeterministic = true\n"
    "until_s = 12.0\nuntil_t = 40.0\n\n"
    "[grid]\nresolution = 0.03\ncfl = 0.9\npad_cells = 7\n\n"
    "[model]\nmass = 2.0\np00 = -1.0\nps = 0.5\nrcoef = 0.0\n"
    "h00 = 0.001\nhs = -0.25\n\n"
    "[data]\nepsilon = 0.02\neps_u = 0.0\neps_v = 0.125\nradius = 1.5\n\n"
    "[hierarchy]\norder = 3\ndelta = 0.05\n\n"
    "[bounds]\nC = 100.0\ndlam = 0.005\ns0 = 3.0\nmu = 0.25\n"
    "nu = -0.5\nmetric = pull\nmetric_amp = 0.2\nsource_amp = -2.0\n")


def test_config_echo_golden():
    assert cli.config_text(cli.RunConfig()) == DEFAULT_ECHO
    assert cli.config_sha256(cli.RunConfig()) == (
        "13881d3cfd6c84732da6f33a6cb344045d1770b90d63f63e81ad4ef3dd00d7cb")
    cfg = cli.parse_config(EVERY_KEY)
    assert cli.config_text(cfg) == EVERY_KEY_ECHO
    assert cfg.out_dir == "runs/every"
    assert set(cfg.explicit) == {f.name for f in KEYS}


@settings(max_examples=200, deadline=None)
@given(run_configs())
def test_config_text_round_trips(cfg):
    text = cli.config_text(cfg)
    back = cli.parse_config(text)
    assert cli.config_text(back) == text
    for f in dataclasses.fields(cli.RunConfig):
        if f.name in ("explicit", "resolution"):
            continue
        assert getattr(back, f.name) == getattr(cfg, f.name), f.name
    assert back.dx() == cfg.dx()


# --- table round trip ---

def bits(x):
    return struct.pack("<d", x)


def read_series(path):
    """Parse a table written by cli.emit_series: (schema id or None,
    header tuple, rows), numeric cells as floats and the rest as
    strings."""
    header, *lines = Path(path).read_text().splitlines()
    header = tuple(header.split(","))
    schema = next((sid for sid, cols in cli.SERIES_SCHEMAS.items()
                   if cols == header), None)
    rows = []
    for line in lines:
        cells = []
        for cell in line.split(","):
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
        rows.append(tuple(cells))
    return schema, header, rows


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("uv"), st.sampled_from(("-", "t",
                                                                  "rr")),
                          st.integers(0, 9), st.floats(allow_nan=False),
                          st.floats(allow_nan=False)), max_size=20))
def test_emit_series_round_trips_bit_exact(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("series") / "energies.csv"
    cli.emit_series(rows, "energy/v1", path)
    schema, header, back = read_series(path)
    assert schema == "energy/v1"
    assert header == cli.SERIES_SCHEMAS["energy/v1"]
    assert len(back) == len(rows)
    for got, want in zip(back, rows):
        assert got[:2] == want[:2]
        assert got[2] == float(want[2])
        assert bits(got[3]) == bits(want[3])
        assert bits(got[4]) == bits(want[4])


# --- every output format has one owner ---

PACKAGE = Path(cli.__file__).resolve().parent
WRITE_ATTRS = {"open", "write_text", "write_bytes"}


def file_writes(tree):
    """(line, call) of each open, json.dump, write_text or write_bytes
    call in a module's syntax tree."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if isinstance(fn, ast.Name) and fn.id == "open":
            yield node.lineno, "open"
        elif isinstance(fn, ast.Attribute) and (
                fn.attr in WRITE_ATTRS or fn.attr == "dump" and isinstance(
                    fn.value, ast.Name) and fn.value.id == "json"):
            yield node.lineno, ast.unparse(fn)


def test_only_cli_writes_files():
    found = [f"{path.name}:{line} {call}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "cli.py"
             for line, call in file_writes(ast.parse(path.read_text()))]
    assert not found, "file output outside cli.py: " + ", ".join(found)
    # the check sees each form it looks for
    calls = ("open(p)", "json.dump(x, f)", "p.write_text(s)",
             "p.write_bytes(b)", "p.open('w')")
    assert len(list(file_writes(ast.parse("\n".join(calls))))) == len(calls)


# --- every package name is reached from the package ---

REACH_ALLOWED = {"main"}   # the console-script entry point


FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def unreached(modules):
    """Module-level functions and classes of `modules` (name -> syntax
    tree), and the non-dunder methods of those classes, that no code of
    any of them names, as module:name or module:Class.method, outside
    the definition itself.  Imports are not uses, so a name that only
    __init__.py re-exports, or only a test calls, is unreached; a method
    counts as named wherever its name is (any obj.method)."""
    defs, used = [], set()

    def collect(node, own):
        for sub in ast.walk(node):
            name = (sub.id if isinstance(sub, ast.Name) else
                    sub.attr if isinstance(sub, ast.Attribute) else None)
            if name is not None and name not in own:
                used.add(name)

    for mod, tree in modules.items():
        for stmt in tree.body:
            if not isinstance(stmt, FUNCTION_DEFS + (ast.ClassDef,)):
                collect(stmt, ())
                continue
            defs.append((mod, stmt.name, stmt.name))
            if not isinstance(stmt, ast.ClassDef):
                collect(stmt, (stmt.name,))
                continue
            for node in stmt.bases + stmt.keywords + stmt.decorator_list:
                collect(node, (stmt.name,))
            for item in stmt.body:
                if (isinstance(item, FUNCTION_DEFS)
                        and not item.name.startswith("__")):
                    defs.append((mod, f"{stmt.name}.{item.name}", item.name))
                    collect(item, (stmt.name, item.name))
                else:
                    collect(item, (stmt.name,))
    return [f"{mod}:{label}" for mod, label, name in defs
            if name not in used and name not in REACH_ALLOWED]


def test_every_package_name_is_reached_from_the_package():
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    missing = unreached(modules)
    assert not missing, "reached only from outside src/hfoil: " + \
        ", ".join(missing)
    # the check sees an unused name, a self-reference, and an import, and
    # a method named only in its own body; dunder methods are exempt
    probe = {"a": ast.parse("from .b import g\ndef f():\n    return f()\n"
                            "class C:\n    def m(self):\n"
                            "        return self.m()\n"
                            "    def n(self):\n        pass\n"
                            "    def __len__(self):\n        return 0\n"
                            "C().n()\n"),
             "b": ast.parse("def g():\n    pass\ndef main():\n    pass\n")}
    assert unreached(probe) == ["a:f", "a:C.m", "b:g"]


# --- --deterministic output trees ---

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


def test_stacked_wave_pairs_write_their_solo_tables(tmp_path):
    # both default pairs run as one stack; each pair alone is a one-row
    # stack; every table of a pair must be byte-identical between the two
    base = "[run]\nuntil_t = 20\n"
    runs = {"both": base}
    for mu, nu in ((0.5, 0.5), (0.5, -0.25)):
        runs[(mu, nu)] = base + f"[bounds]\nmu = {mu}\nnu = {nu}\n"
    trees = {}
    for key, text in runs.items():
        path = tmp_path / f"{len(trees)}.txt"
        path.write_text(text)
        out = tmp_path / f"out{len(trees)}"
        assert cli.main(["linear-wave-bound", "--config", str(path),
                         "--resolution", "0.05", "--out", str(out),
                         "--deterministic"]) == 0
        trees[key] = tree_bytes(out)
    for mu, nu in ((0.5, 0.5), (0.5, -0.25)):
        tag = cli.pair_tag(mu, nu)
        names = {f"wave_margin_{tag}.json", f"wave_margin_{tag}.csv"}
        solo = trees[(mu, nu)]
        assert names <= set(solo) <= names | {
            "config.echo.txt", "report.json", "report.txt"}
        for name in names:
            assert trees["both"][name] == solo[name]


def test_stacked_kg_metrics_write_their_solo_tables(tmp_path):
    # metric = both steps flat and pull as one stack; each metric alone is
    # a one-row stack; every table and criterion of a metric must be the
    # same in both (at this coarse dx the refinement gates may fail)
    trees = {}
    for metric in ("both", "flat", "pull"):
        path = tmp_path / f"{metric}.txt"
        path.write_text(f"[run]\nuntil_s = 4\n[bounds]\nmetric = {metric}\n")
        out = tmp_path / metric
        assert cli.main(["linear-kg-bound", "--config", str(path),
                         "--resolution", "0.05", "--out", str(out),
                         "--deterministic"]) in (0, 1)
        trees[metric] = tree_bytes(out)
    criteria = {metric: json.loads(tree["report.json"])["criteria"]
                for metric, tree in trees.items()}
    assert "error" not in json.loads(trees["both"]["report.json"])
    for metric in ("flat", "pull"):
        names = {f"kg_margin_{metric}.json", f"kg_margin_{metric}.csv"}
        solo = trees[metric]
        assert names <= set(solo) <= names | {
            "config.echo.txt", "report.json", "report.txt"}
        for name in names:
            assert trees["both"][name] == solo[name]
        assert criteria[metric] == [c for c in criteria["both"]
                                    if c["id"].endswith(f"-{metric}")]


def test_stack_guard_trip_names_its_pair_in_the_report(monkeypatch,
                                                       tmp_path):
    # with the blow-up bar lowered, the (0.5, -0.25) row, whose source
    # decays slowest, trips first; report.json names that row
    monkeypatch.setattr("hfoil.solver.BLOWUP_GUARD", 1e-3)
    assert cli.main(["linear-wave-bound", "--resolution", "0.05", "--out",
                     str(tmp_path), "--deterministic"]) == 1
    error = json.loads((tmp_path / "report.json").read_text())["error"]
    assert error["kind"] == "blowup" and error["row"] == "mup05_num025"
    assert "row=mup05_num025" in (tmp_path / "report.txt").read_text()


# the curved Klein-Gordon solver, and the coupled model with MMS sources
# and free-wave drift runs at the cfl cap
@pytest.mark.parametrize("argv, table", [
    (["linear-kg-bound", "--until-s", "4"], "kg_margin_pull.csv"),
    (["convergence-suite"], "mms_errors.csv"),
])
def test_deterministic_solver_runs_are_byte_identical(monkeypatch, tmp_path,
                                                      argv, table):
    trees = deterministic_trees(monkeypatch, tmp_path, argv)
    assert any(k.endswith(table) for k in trees[0])
    assert trees[0] == trees[1]


def test_convergence_suite_grids_take_pad_cells(monkeypatch, tmp_path):
    # both routes of the suite, the free-wave drift runs and the MMS
    # runs, plan their grids with [grid] pad_cells
    path = tmp_path / "pad.txt"
    path.write_text("[grid]\npad_cells = 7\n")
    cfg = cli.build_config(["convergence-suite", "--config", str(path)])
    seen = []

    class Planned(Exception):
        pass

    def plan(dx, t0, t_end, support_radius=1.0, pad_cells=60):
        seen.append(pad_cells)
        raise Planned

    monkeypatch.setattr("hfoil.analysis.grid_for_run", plan)
    monkeypatch.setattr("hfoil.cli.grid_for_run", plan)
    for route in (cli._energy_drift, cli._mms_error):
        with pytest.raises(Planned):
            route(cfg.dx(), cfg)
    assert seen == [7, 7]


def test_kg_c_sweep_reports_c_dependent_points(tmp_path):
    # the points whose envelope moves with C: none on the flat metric,
    # some but not all on the pull
    assert cli.main(["linear-kg-bound", "--until-s", "4", "--out",
                     str(tmp_path), "--deterministic"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    counts = {}
    for name in ("flat", "pull"):
        margin = json.loads((tmp_path / f"kg_margin_{name}.json").read_text())
        [sweep] = [c for c in report["criteria"]
                   if c["id"] == f"kg-envelope-c-sweep-{name}"]
        counts[name] = margin["c_dependent_points"]
        assert sweep["details"]["c_dependent_points"] == counts[name]
        points = sum(margin["regime_counts"].values())
    assert counts["flat"] == 0 < counts["pull"] < points


# --- smoke runs of the quick scenarios at their defaults ---

@pytest.mark.parametrize("scenario, table, schema, rows", [
    ("sobolev-suite", "sobolev.csv", "sobolev/v1", 100),
    ("frame-identity-suite", "frame_errors.csv", "order/v1", 9),
])
def test_quick_scenarios_pass_at_defaults(tmp_path, capsys, scenario, table,
                                          schema, rows):
    assert cli.main([scenario, "--out", str(tmp_path), "--deterministic"]) \
        == 0
    assert capsys.readouterr().out.startswith(f"{scenario}: PASS")
    got_schema, header, back = read_series(tmp_path / table)
    assert got_schema == schema
    assert header == cli.SERIES_SCHEMAS[schema]
    assert len(back) == rows
    report = (tmp_path / "report.txt").read_text()
    assert "overall: PASS" in report


def test_frame_identity_fails_on_a_wrong_box(monkeypatch, tmp_path):
    # the check compares with each field's stated d'Alembertian, so a
    # wrong one (a constant off in the Gaussian's) must fail the order gate
    # while the two assemblies still agree
    name, u, _ = cli._FRAME_FIELDS[0]
    wrong = lambda t, r: u(t, r) * (0.49 + r * r - 2.9)
    monkeypatch.setattr(cli, "_FRAME_FIELDS",
                        ((name, u, wrong),) + cli._FRAME_FIELDS[1:])
    summary = cli.run_scenario(cli.build_config(
        ["frame-identity-suite", "--out", str(tmp_path), "--deterministic"]))
    assert not summary.passed
    order = criterion(summary, "frame-identity-order")
    assert not order.passed and order.details["min_order"] < 1.0
    assert criterion(summary, "frame-assembly-gap").passed
