"""Batch front end: config files, scenario pipelines, reproducible tables.

Config grammar
--------------
Plain text, sectioned ``key = value`` pairs::

    [run]
    scenario = model-evolution
    until_s = 20
    deterministic = true

    [grid]
    resolution = 0.04

Lines whose first non-blank character is ``#`` or ``;`` are comments.
Section headers are bracketed names; keys live in the section above
them.  Unknown sections or keys, duplicate keys, malformed values and
cross-field conflicts all raise :class:`~hfoil.util.ConfigError` with
the offending line number; a number must be finite (``nan`` and ``inf``
are malformed values).  An empty file is a valid config: every key
has a default.  Each key is declared once, as a field of ``RunConfig``
below whose metadata carries its section, converter and range check;
the parser, the flags and the config echo all read those fields.

Sections and keys:

``[run]``
    scenario, deterministic, until_s, until_t
``[grid]``
    resolution, cfl (at most 0.9), pad_cells
``[model]``
    mass, p00, ps, rcoef, h00, hs
``[data]``
    epsilon, eps_u, eps_v, radius
``[hierarchy]``
    order, delta
``[bounds]``
    C, dlam, s0, mu, nu, metric (flat | pull | both), metric_amp,
    source_amp
``[output]``
    dir

Besides scenario, deterministic and ``[output] dir``, each scenario
reads only these keys (a whole section where one is named):

- model-evolution: until_s, until_t, resolution, cfl, pad_cells, s0,
  ``[model]``, ``[data]``, ``[hierarchy]``
- linear-kg-bound: until_s, resolution, mass, epsilon, eps_v, radius,
  C, dlam, s0, metric, metric_amp
- linear-wave-bound: until_t, resolution, mu, nu, source_amp
- sobolev-suite: until_s, s0
- frame-identity-suite: resolution
- convergence-suite: resolution, cfl, pad_cells, ``[model]``, epsilon,
  eps_u

The two envelope scenarios read no cfl, since their profile tables need
dx/dt to be an integer: linear-wave-bound runs at the Courant number 1,
where its leapfrog is the exact characteristic update of the radial
wave (``bounds._WAVE_CFL``), and linear-kg-bound at 1/2
(``bounds._KG_CFL``).

Command line flags override config fields (``--resolution``,
``--epsilon``, ``--until-s``, ``--deterministic``, ``--out``); a flag's
text, given after ``=`` or as the next argument (``--until-s -inf``
too), is parsed and checked as its key's value in a file, and the
subcommand always wins over the ``scenario`` key.  Once the subcommand
has set the scenario, a key or flag that it does not read is a
ConfigError (with the key's line, or no line for a flag), and so is a
zero data amplitude (eps_v, eps_u or the epsilon that fills them) for
linear-kg-bound and convergence-suite, an s0 below t0 = 2 for
model-evolution, and a first slice at or past the last slice, until_s
or the scenario's default (the first slice is s0, and KG_LATTICE_LEAD
s0 for linear-kg-bound, whose lattice starts there).  until_t can only
lengthen a model-evolution run; one that would cut it short is a
ConfigError, raised once the scenario has planned its ladder, and so is
an until_s or until_t that leaves a margin lattice of linear-kg-bound or
linear-wave-bound no point to measure; a ConfigError raised inside a
scenario leaves no partial tree (the echo is removed, and so is the
output directory if the run made it).  Every run
writes ``config.echo.txt`` (the fully resolved config), ``report.json``
and a human-readable ``report.txt`` next to its data tables, all through
this module: it is the one owner of the output formats.  With
``--deterministic`` the wall-time field is omitted, so two runs of the
same config produce byte-identical trees.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import shutil
import sys
import time
from dataclasses import dataclass, field as dc_field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .analysis import (TINY, QueryPool, SliceDerivativeTable,
                       SliceEnergySuite, SupTracker, chart_nodes,
                       combo_evaluator, fit_power_law, hierarchy_check,
                       lattice_reach, profile_family, slice_cone_margin,
                       sobolev_ratio_profile)
from .bounds import (KG_LATTICE_LEAD, ZERO_METRIC, BoundParams,
                     kg_bound_margin, kg_lattice, metric_pull, pair_tag,
                     wave_bound_margin, wave_lattice)
from .fields import RadialGrid
from .solver import (InitialData, ModelParams, evolve_model, grid_for_run)
from .util import (ConfigError, EmptyLatticeError, FoliationError,
                   StabilityError)

SCENARIOS = ("model-evolution", "linear-kg-bound", "linear-wave-bound",
             "sobolev-suite", "frame-identity-suite", "convergence-suite")

REPORT_SCHEMA = "report/v1"

# columns per table schema; the header row is the version fingerprint
SERIES_SCHEMAS = {
    "energy/v1": ("field", "deriv", "j", "s", "value"),
    "supnorm/v1": ("stage", "p", "q", "s", "value"),
    "series/v1": ("t", "value"),
    "kg-margin/v1": ("s", "max_ratio"),
    "wave-margin/v1": ("t", "max_ratio"),
    "hierarchy/v1": ("line", "target", "fitted", "width", "pass"),
    "order/v1": ("label", "resolution", "error"),
    "sobolev/v1": ("member", "s", "ratio"),
    "drift/v1": ("resolution", "s", "energy"),
}

# the largest cfl a config may set.  The coupled model's signal speed
# moves with u, so it keeps a margin below 1.  The linear wave is stable
# at exactly 1: its step is then the characteristic update W(k+1, j) =
# W(k, j+1) + W(k, j-1) - W(k-1, j), every amplification factor of which
# has |g| = 1 (linear-wave-bound runs there, with no cfl key)
CFL_CAP = 0.9
_T0 = 2.0       # the first time level of a model-evolution run


# === configuration ===

def _to_float(s: str) -> float:
    try:
        v = float(s)
    except ValueError:
        raise ValueError(f"expected a number, got {s!r}")
    if not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {s!r}")
    return v


def _to_int(s: str) -> int:
    try:
        return int(s, 10)
    except ValueError:
        raise ValueError(f"expected an integer, got {s!r}")


def _to_bool(s: str) -> bool:
    low = s.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected true/false, got {s!r}")


def _to_str(s: str) -> str:
    return s


def _choice(*allowed):
    def conv(s: str) -> str:
        if s not in allowed:
            raise ValueError(f"expected one of {', '.join(allowed)}, "
                             f"got {s!r}")
        return s
    return conv


def _positive(v):
    return None if v > 0 else "must be positive"


def _nonneg(v):
    return None if v >= 0 else "must not be negative"


def _check_delta(v):
    return None if 0.0 < v < 0.1 else "must satisfy 0 < delta < 0.1"


def _check_s0(v):
    return None if v > 1.0 else "must be > 1"


def _check_mu(v):
    return None if 0.0 < v <= 0.5 else "must lie in (0, 1/2]"


def _check_nu(v):
    if v == 0.0 or abs(v) > 0.5:
        return "must be nonzero with |nu| <= 1/2"
    return None


def _unchecked(v):
    return None


def _key(default, section: str, conv, check=_unchecked, key=None):
    """A RunConfig field set by `key` (the field name unless given) in
    [section].  conv parses the value text (raising ValueError) and
    check(value) returns an error message or None."""
    return dc_field(default=default, metadata={
        "section": section, "conv": conv, "check": check, "key": key})


@dataclass
class RunConfig:
    """Resolved configuration for one scenario run.

    Each field but ``explicit`` is one config key, declared once here:
    its metadata names the section, the converter, the range check and
    the file key where that differs from the field name.  Built by
    :func:`parse_config`; ``explicit`` maps each attribute the user set
    (file or flag) rather than left at its default to its config line,
    or to None for a flag.  :func:`build_config` reads it to reject what
    the chosen scenario never reads.
    """
    scenario: str = _key("model-evolution", "run", _choice(*SCENARIOS))
    deterministic: bool = _key(False, "run", _to_bool)
    until_s: Optional[float] = _key(None, "run", _to_float, _positive)
    until_t: Optional[float] = _key(None, "run", _to_float, _positive)
    resolution: Optional[float] = _key(None, "grid", _to_float, _positive)
    cfl: float = _key(0.5, "grid", _to_float, _positive)
    pad_cells: int = _key(60, "grid", _to_int, _nonneg)
    mass: float = _key(1.0, "model", _to_float, _positive)
    p00: float = _key(1.0, "model", _to_float)
    ps: float = _key(1.0, "model", _to_float)
    rcoef: float = _key(1.0, "model", _to_float)
    h00: float = _key(1.0, "model", _to_float)
    hs: float = _key(1.0, "model", _to_float)
    epsilon: float = _key(0.01, "data", _to_float, _nonneg)
    eps_u: Optional[float] = _key(None, "data", _to_float, _nonneg)
    eps_v: Optional[float] = _key(None, "data", _to_float, _nonneg)
    radius: float = _key(1.0, "data", _to_float, _positive)
    order: int = _key(8, "hierarchy", _to_int, _nonneg)
    delta: float = _key(0.02, "hierarchy", _to_float, _check_delta)
    C: float = _key(10.0, "bounds", _to_float, _positive)
    dlam: float = _key(0.01, "bounds", _to_float, _positive)
    s0: float = _key(2.0, "bounds", _to_float, _check_s0)
    mu: Optional[float] = _key(None, "bounds", _to_float, _check_mu)
    nu: Optional[float] = _key(None, "bounds", _to_float, _check_nu)
    metric: str = _key("both", "bounds", _choice("flat", "pull", "both"))
    metric_amp: float = _key(0.1, "bounds", _to_float, _nonneg)
    source_amp: float = _key(1.0, "bounds", _to_float)
    out_dir: Optional[str] = _key(None, "output", _to_str, key="dir")
    explicit: dict = dc_field(default_factory=dict)

    def model_params(self) -> ModelParams:
        return ModelParams(self.p00, self.ps, self.rcoef, self.h00, self.hs,
                           self.mass)

    def amplitudes(self):
        """(eps_u, eps_v) with the shared epsilon filling unset fields."""
        eu = self.epsilon if self.eps_u is None else self.eps_u
        ev = self.epsilon if self.eps_v is None else self.eps_v
        return eu, ev

    def dx(self) -> float:
        if self.resolution is not None:
            return self.resolution
        return _DEFAULT_RESOLUTION[self.scenario]

    def first_slice(self) -> float:
        """The first slice s the scenario reads: s0, or for
        linear-kg-bound its lattice's first slice, KG_LATTICE_LEAD s0."""
        if self.scenario == "linear-kg-bound":
            return KG_LATTICE_LEAD * self.s0
        return self.s0

    def last_slice(self) -> float:
        """The last slice s the scenario reads: until_s, or its default."""
        if self.until_s is not None:
            return self.until_s
        return _DEFAULT_LAST_SLICE[self.scenario]

    def bound_params(self) -> BoundParams:
        return BoundParams(C=self.C, mass=self.mass, dlam=self.dlam,
                           s0=self.s0)


# RunConfig field by attribute name, and section -> file key -> field,
# both in declaration order
_FIELDS = {f.name: f for f in fields(RunConfig) if f.metadata}
_SCHEMA = {}
for _f in _FIELDS.values():
    _SCHEMA.setdefault(_f.metadata["section"], {})[
        _f.metadata["key"] or _f.name] = _f


def _attrs(*sections):
    return {f.name for sec in sections for f in _SCHEMA[sec].values()}


# the attributes each scenario reads besides scenario, deterministic
# and out_dir
_READS = {
    "model-evolution": {"until_s", "until_t", "resolution", "cfl",
                        "pad_cells", "s0"} | _attrs("model", "data",
                                                    "hierarchy"),
    "linear-kg-bound": {"until_s", "resolution", "mass", "epsilon",
                        "eps_v", "radius", "C", "dlam", "s0", "metric",
                        "metric_amp"},
    "linear-wave-bound": {"until_t", "resolution", "mu", "nu",
                          "source_amp"},
    "sobolev-suite": {"until_s", "s0"},
    "frame-identity-suite": {"resolution"},
    "convergence-suite": {"resolution", "cfl", "pad_cells", "epsilon",
                          "eps_u"} | _attrs("model"),
}

# resolution default depends on the scenario budget
_DEFAULT_RESOLUTION = {
    "model-evolution": 0.05,
    "linear-kg-bound": 0.01,   # refinement vs 2dx passes the 10% bar here
    "linear-wave-bound": 0.04,
    "sobolev-suite": 0.05,
    "frame-identity-suite": 0.05,
    "convergence-suite": 0.02,
}

# the last slice of the scenarios that read until_s, when it is unset
_DEFAULT_LAST_SLICE = {
    "model-evolution": 10.0,
    "linear-kg-bound": 8.0,
    "sobolev-suite": 20.0,
}


def _cross_validate(cfg: RunConfig) -> None:
    """Checks that need more than one field."""
    lines = cfg.explicit
    if cfg.cfl > CFL_CAP:
        raise ConfigError(
            f"cfl = {cfg.cfl:g} exceeds the stability cap {CFL_CAP:g}",
            line=lines.get("cfl"), field="cfl")
    if (cfg.mu is None) != (cfg.nu is None):
        which = "mu" if cfg.mu is not None else "nu"
        raise ConfigError("mu and nu must be set together",
                          line=lines.get(which), field=which)
    if cfg.until_s is not None and cfg.until_s <= cfg.s0:
        raise ConfigError(
            f"until_s = {cfg.until_s:g} must exceed the first slice "
            f"s0 = {cfg.s0:g}", line=lines.get("until_s"), field="until_s")


def _set(cfg: RunConfig, f, text: str, line: Optional[int]) -> None:
    """Parse text as field f's value, range-check it and set it on cfg,
    recording its config line in cfg.explicit: line None for a flag,
    which its error messages name as such."""
    section, key = f.metadata["section"], f.metadata["key"] or f.name
    where = f"{'flag for ' if line is None else ''}[{section}] {key}"
    try:
        value = f.metadata["conv"](text)
    except ValueError as e:
        raise ConfigError(f"{where}: {e}", line=line, field=key) from None
    msg = f.metadata["check"](value)
    if msg:
        raise ConfigError(f"{where}: {msg}", line=line, field=key)
    setattr(cfg, f.name, value)
    cfg.explicit[f.name] = line


def parse_config(text: str) -> RunConfig:
    """Parse sectioned key=value text into a validated RunConfig.

    Raises ConfigError with the line number and field name on any
    unknown section or key, duplicate, bad value or cross-field
    conflict.  An empty string yields the all-defaults config.
    """
    cfg = RunConfig()
    lines = cfg.explicit
    section = None
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] in "#;":
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("unterminated section header", line=num)
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                raise ConfigError(
                    f"unknown section [{name}]; expected one of "
                    f"{', '.join(sorted(_SCHEMA))}", line=num)
            section = name
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}",
                              line=num)
        if section is None:
            raise ConfigError("key before any [section] header", line=num)
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(
                f"unknown key {key!r} in [{section}]; valid keys: "
                f"{', '.join(sorted(_SCHEMA[section]))}",
                line=num, field=key)
        f = _SCHEMA[section][key]
        if f.name in lines:
            raise ConfigError(
                f"[{section}] {key} already set on line {lines[f.name]}",
                line=num, field=key)
        _set(cfg, f, val, num)
    _cross_validate(cfg)
    return cfg


def _check_read(cfg: RunConfig) -> None:
    """Reject a key or flag that cfg.scenario never reads (each
    attribute but out_dir, which every run reads, is named as its key)."""
    reads = _READS[cfg.scenario] | {"scenario", "deterministic", "out_dir"}
    for attr, line in cfg.explicit.items():
        if attr not in reads:
            raise ConfigError(f"{attr} is not read by {cfg.scenario}",
                              line=line, field=attr)


# the amplitude key of the scenarios whose data is that amplitude times
# a fixed profile, so that 0 leaves nothing to measure
_AMPLITUDE_KEY = {"linear-kg-bound": "eps_v", "convergence-suite": "eps_u"}


def _check_amplitude(cfg: RunConfig) -> None:
    """Reject a zero data amplitude for cfg.scenario, naming the key that
    set it: its own, or the shared epsilon that fills it when unset."""
    key = _AMPLITUDE_KEY.get(cfg.scenario)
    if key is None:
        return
    if getattr(cfg, key) is None:
        key = "epsilon"
    if getattr(cfg, key) == 0.0:
        raise ConfigError(f"{key} = 0 leaves {cfg.scenario} no data to "
                          f"measure", line=cfg.explicit.get(key), field=key)


def _check_first_slice(cfg: RunConfig) -> None:
    """Reject a model-evolution s0 before the run's first level _T0, and
    a first slice at or past the last one: at the s0 line when the last
    slice is the scenario's default, else at the until_s line."""
    if cfg.scenario == "model-evolution" and cfg.s0 < _T0:
        raise ConfigError(f"s0 = {cfg.s0:g} lies before the start t0 = "
                          f"{_T0:g} of a {cfg.scenario} run",
                          line=cfg.explicit.get("s0"), field="s0")
    if cfg.scenario not in _DEFAULT_LAST_SLICE:
        return
    first, last = cfg.first_slice(), cfg.last_slice()
    if first < last:
        return
    key = "s0" if cfg.until_s is None else "until_s"
    where = ("" if first == cfg.s0 else
             f" {KG_LATTICE_LEAD:g} s0 = {first:g}")
    default = " by default" if cfg.until_s is None else ""
    raise ConfigError(f"{key} = {getattr(cfg, key):g}: the first slice"
                      f"{where} must lie before the last slice, {last:g}"
                      f"{default} in {cfg.scenario}",
                      line=cfg.explicit.get(key), field=key)


def config_text(cfg: RunConfig) -> str:
    """Canonical echo of the resolved config, schema order, one key per
    line; unset optional keys are omitted.

    The output directory is deliberately left out: it names where the
    provenance lands, not what ran, and two runs of one config into two
    directories must stay byte-identical.
    """
    out = []
    for section, opts in _SCHEMA.items():
        body = []
        for key, f in opts.items():
            if f.name == "out_dir":
                continue
            value = getattr(cfg, f.name)
            if f.name == "resolution" and value is None:
                value = cfg.dx()
            if value is None:
                continue
            if isinstance(value, bool):
                text = "true" if value else "false"
            elif isinstance(value, int):
                text = str(value)
            elif isinstance(value, float):
                text = repr(value)   # shortest digits that parse back exactly
            else:
                text = str(value)
            body.append(f"{key} = {text}")
        if body:
            out.append(f"[{section}]")
            out.extend(body)
            out.append("")
    return "\n".join(out)


def config_sha256(cfg: RunConfig) -> str:
    return hashlib.sha256(config_text(cfg).encode()).hexdigest()


# === table output ===

def emit_series(records, schema: str, path) -> Path:
    """Write records as a CSV table under a registered schema.

    Records are tuples in column order.  LF endings, floats as %.17g
    (round-trips bit-exactly), bools as 1/0, strings as they are; a cell
    holding a comma or a newline is refused.  An empty record set writes
    the header line alone.
    """
    if schema not in SERIES_SCHEMAS:
        raise ConfigError(f"unknown series schema {schema!r}; registered: "
                          f"{', '.join(sorted(SERIES_SCHEMAS))}")
    cols = SERIES_SCHEMAS[schema]
    lines = [",".join(cols)]
    for i, rec in enumerate(records):
        rec = tuple(rec)
        if len(rec) != len(cols):
            raise ConfigError(
                f"record {i} for schema {schema} has {len(rec)} "
                f"fields, expected {len(cols)}")
        cells = []
        for cell in rec:
            if isinstance(cell, str):
                text = cell
            elif isinstance(cell, (bool, np.bool_)):
                text = "1" if cell else "0"
            elif isinstance(cell, (int, np.integer)):
                text = str(int(cell))
            else:
                text = "%.17g" % float(cell)
            if "," in text or "\n" in text:
                raise ConfigError(f"record {i} for schema {schema}: cell "
                                  f"{text!r} would corrupt the table")
            cells.append(text)
        lines.append(",".join(cells))
    path = Path(path)
    try:
        with open(path, "w", newline="") as f:
            f.write("\n".join(lines) + "\n")
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e}") from e
    return path


def write_json(path, obj) -> None:
    """obj as JSON with sorted keys, two-space indent and a final LF."""
    with open(path, "w", newline="") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


# === report plumbing ===

@dataclass
class CriterionResult:
    id: str
    passed: bool
    details: dict


@dataclass
class ReportSummary:
    scenario: str
    passed: bool
    criteria: list
    exponents: dict
    config_sha256: str
    out_dir: str
    wall_time_s: Optional[float] = None
    error: Optional[dict] = None


def _check_unique(criteria) -> None:
    seen = set()
    for c in criteria:
        if c.id in seen:
            raise FoliationError(f"criterion {c.id} reported twice")
        seen.add(c.id)


def _write_report(out: Path, cfg: RunConfig, summary: ReportSummary,
                  echo: str) -> None:
    doc = {
        "schema": REPORT_SCHEMA,
        "version": __version__,
        "scenario": summary.scenario,
        "pass": summary.passed,
        "criteria": [{"id": c.id, "pass": c.passed, "details": c.details}
                     for c in summary.criteria],
        "exponents": summary.exponents,
        "config_sha256": summary.config_sha256,
        "config_text": echo,
        "deterministic": cfg.deterministic,
    }
    if summary.error is not None:
        doc["error"] = summary.error
    if summary.wall_time_s is not None:
        doc["wall_time_s"] = summary.wall_time_s
    write_json(out / "report.json", doc)

    lines = [f"scenario: {summary.scenario}",
             f"config sha256: {summary.config_sha256}",
             ""]
    for c in summary.criteria:
        mark = "PASS" if c.passed else "FAIL"
        detail = ", ".join(f"{k}={_fmt(v)}" for k, v in sorted(c.details.items())
                           if not isinstance(v, (list, dict)))
        lines.append(f"{mark}  {c.id}" + (f"  ({detail})" if detail else ""))
    if summary.exponents:
        lines.append("")
        lines.append("fitted exponents:")
        for k in sorted(summary.exponents):
            lines.append(f"  {k} = {_fmt(summary.exponents[k])}")
    if summary.error is not None:
        lines.append("")
        lines.append(f"error: {summary.error}")
    if summary.wall_time_s is not None:
        lines.append("")
        lines.append(f"wall time: {summary.wall_time_s:.3f} s")
    lines.append("")
    lines.append("overall: " + ("PASS" if summary.passed else "FAIL"))
    lines.append("")
    lines.append("-- config --")
    lines.append(echo)
    with open(out / "report.txt", "w", newline="") as f:
        f.write("\n".join(lines) + "\n")


def _fmt(v):
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return "%.6g" % v
    return str(v)


def run_scenario(cfg: RunConfig) -> ReportSummary:
    """Execute one scenario pipeline and write its output tree.

    Returns the summary; the process exit status should be nonzero
    exactly when summary.passed is false (criterion failure or an
    evolution error, which lands in summary.error).
    """
    echo = config_text(cfg)
    sha = config_sha256(cfg)
    out = Path(cfg.out_dir if cfg.out_dir else
               f"runs/{cfg.scenario}-{sha[:8]}")
    made = [p for p in (out, *out.parents) if not p.exists()]
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "config.echo.txt", "w", newline="") as f:
        f.write(echo)

    start = time.perf_counter()
    error = None
    try:
        criteria, exponents = _SCENARIOS[cfg.scenario](cfg, out)
    except ConfigError:
        # a config the scenario itself rejects leaves no partial tree
        if made:
            shutil.rmtree(made[-1])
        else:
            (out / "config.echo.txt").unlink()
        raise
    except StabilityError as e:
        error = {"kind": "stability", **e.report}
        criteria = [CriterionResult("evolution-complete", False,
                                    dict(e.report))]
        exponents = {}
    _check_unique(criteria)
    wall = None if cfg.deterministic else time.perf_counter() - start

    summary = ReportSummary(
        scenario=cfg.scenario,
        passed=error is None and all(c.passed for c in criteria),
        criteria=criteria,
        exponents=exponents,
        config_sha256=sha,
        out_dir=str(out),
        wall_time_s=wall,
        error=error)
    _write_report(out, cfg, summary, echo)
    return summary


# === scenario pipelines ===

def _slice_ladder(s_lo: float, s_hi: float, n: int = 12) -> list:
    return [float(s) for s in np.geomspace(s_lo, s_hi, n)]


def _fit_or_none(t, y):
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.size == 0 or float(np.max(y)) <= TINY:
        return None
    try:
        return fit_power_law(t, y)
    except FoliationError:
        return None


def _scn_model_evolution(cfg: RunConfig, out: Path):
    dx = cfg.dx()
    s_top = cfg.last_slice()
    eps_u, eps_v = cfg.amplitudes()
    params = cfg.model_params()
    data = InitialData.bump(eps_u, eps_v, cfg.radius)

    suite, grid, t_end = SliceEnergySuite.plan(
        dx, _slice_ladder(cfg.s0, s_top), order=cfg.order, t0=_T0,
        support_radius=cfg.radius, pad_cells=cfg.pad_cells,
        t_min=cfg.until_t, cfl=cfg.cfl, mass=cfg.mass)
    if cfg.until_t is not None and cfg.until_t < t_end:
        raise ConfigError(
            f"until_t = {cfg.until_t:g} ends the run before the slice "
            f"ladder is read, which takes until t = {t_end:g}",
            line=cfg.explicit.get("until_t"), field="until_t")
    trk_u = SupTracker("u")
    trk_v = SupTracker("v")

    result = evolve_model(params, grid, data, t0=_T0, t_end=t_end,
                          cfl=cfg.cfl, observers=(suite, trk_u, trk_v))

    rows = suite.energies()
    emit_series([(r["field"], "t" * r["it"] + "r" * r["ir"] or "-", r["j"],
                  r["s"], r["value"]) for r in rows],
                "energy/v1", out / "energies.csv")
    emit_series([(r["field"], r["p"], r["q"], r["s"], r["value"])
                 for r in suite.stage_sups(cfg.delta)],
                "supnorm/v1", out / "stage_sups.csv")
    tu, su = trk_u.series()
    tv, sv = trk_v.series()
    emit_series(zip(tu, su), "series/v1", out / "sup_u.csv")
    emit_series(zip(tv, sv), "series/v1", out / "sup_v.csv")

    criteria = [CriterionResult("evolution-complete", True, {
        "steps": result.steps, "t_final": result.t_final,
        "max_abs_u": float(np.max(su)) if su.size else 0.0,
        "max_abs_v": float(np.max(sv)) if sv.size else 0.0})]

    exponents = {}
    fit_u = _fit_or_none(tu, su)
    fit_v = _fit_or_none(tv, sv)
    if fit_u is not None:
        exponents["sup_u_exponent"] = fit_u.exponent
        exponents["sup_u_amplitude"] = fit_u.amplitude
    if fit_v is not None:
        exponents["sup_v_exponent"] = fit_v.exponent
        exponents["sup_v_amplitude"] = fit_v.amplitude

    # growth fits need a real span in s; very short ladders skip them
    if s_top >= 4.0 * cfg.s0:
        lines = hierarchy_check(rows, cfg.delta, cfg.order)
        emit_series([(ln["line"], ln["target"], ln["fitted"], ln["width"],
                      ln["pass"]) for ln in lines],
                    "hierarchy/v1", out / "hierarchy.csv")
        worst = max((ln["fitted"] - ln["target"] for ln in lines
                     if math.isfinite(ln["fitted"])), default=0.0)
        criteria.append(CriterionResult("hierarchy-lines", all(
            ln["pass"] for ln in lines), {
            "lines": len(lines),
            "failing": sum(0 if ln["pass"] else 1 for ln in lines),
            "worst_excess": worst,
            "widths": {ln["line"]: ln["width"] for ln in lines}}))
    else:
        emit_series([], "hierarchy/v1", out / "hierarchy.csv")

    # pointwise rate checks only where the run actually probes them:
    # a long free Klein-Gordon run pins the sharp rate, a long coupled
    # run pins the slow wave rate
    free = not any((params.p00, params.ps, params.rcoef, params.h00,
                    params.hs))
    long_run = t_end >= 100.0
    if long_run and free and eps_v > 0 and fit_v is not None:
        criteria.append(CriterionResult(
            "kg-pointwise-rate", abs(fit_v.exponent + 1.5) <= 0.15,
            {"exponent": fit_v.exponent, "target": -1.5, "band": 0.15}))
    if long_run and not free and eps_u > 0 and fit_u is not None:
        criteria.append(CriterionResult(
            "wave-pointwise-rate", abs(fit_u.exponent + 1.0) <= 0.15,
            {"exponent": fit_u.exponent, "target": -1.0, "band": 0.15}))
    return criteria, exponents


def relative_change(a: float, b: float) -> float:
    """|a - b| / |b| for a coarse value a and a fine value b: 0 when both
    are 0, inf when only b is."""
    if b == 0.0:
        return 0.0 if a == 0.0 else math.inf
    return abs(a - b) / abs(b)


def _refined(cfg: RunConfig, key: str, lattice, margin, *args,
             **kw) -> tuple:
    """(fine, coarse): the reports of margin(lattice(h), *args, **kw) at
    h = dx and at 2 dx, one per row of its stacked run, each fine report
    carrying its refinement record against the coarse one of its row
    under "refinement_deltas".

    Both lattices are built before either solve, and a lattice that
    holds no point is a ConfigError at the line of key, which sets where
    the lattice ends.  The dx solve runs first: the other order raised
    the peak RSS of a linear-kg-bound run by about 0.35 MB.
    """
    dx = cfg.dx()
    try:
        fine_lattice, coarse_lattice = lattice(dx), lattice(2.0 * dx)
    except EmptyLatticeError as e:
        raise ConfigError(f"{key}: {e}", line=cfg.explicit.get(key),
                          field=key) from None
    fine = margin(fine_lattice, *args, **kw)
    coarse = margin(coarse_lattice, *args, **kw)
    for f, c in zip(fine, coarse):
        f["refinement_deltas"] = {
            "coarse_dx": c["params"]["dx"],
            "fine_dx": f["params"]["dx"],
            "max_ratio_rel_change": relative_change(c["max_ratio"],
                                                    f["max_ratio"]),
        }
    return fine, coarse


def _scn_linear_kg_bound(cfg: RunConfig, out: Path):
    dx = cfg.dx()
    s_max = cfg.last_slice()
    params = cfg.bound_params()
    _, eps_v = cfg.amplitudes()
    data = InitialData.bump(0.0, eps_v, cfg.radius)

    metrics = []
    if cfg.metric in ("flat", "both"):
        metrics.append(("flat", ZERO_METRIC))
    if cfg.metric in ("pull", "both"):
        metrics.append(("pull", metric_pull(cfg.metric_amp)))

    # every metric is one row of a stacked run at dx and one at 2 dx; a
    # row's report is bit for bit that of a run of its metric alone
    fines, coarses = _refined(
        cfg, "until_s",
        lambda h: kg_lattice(params, dx=h, s_max=s_max),
        kg_bound_margin, metrics, data, params)
    criteria, exponents = [], {}
    for (name, _), fine, coarse in zip(metrics, fines, coarses):
        ratio = fine["max_ratio"]
        rel = fine["refinement_deltas"]["max_ratio_rel_change"]
        sweep = fine["C_sensitivity"]
        # the margin must hold for every C in the sweep, not just the
        # default, so finiteness and refinement are checked per C
        sweep_rel = {key: relative_change(
            coarse["C_sensitivity"].get(key, 0.0), val)
            for key, val in sweep.items()}
        fine["refinement_deltas"]["per_C_rel_change"] = sweep_rel
        write_json(out / f"kg_margin_{name}.json", fine)
        emit_series([(row["s"], row["max_ratio"])
                     for row in fine["per_s_max_ratio"]],
                    "kg-margin/v1", out / f"kg_margin_{name}.csv")
        criteria.append(CriterionResult(
            f"kg-envelope-finite-{name}",
            math.isfinite(ratio) and ratio > 0.0
            and all(math.isfinite(v) and v > 0.0 for v in sweep.values()),
            {"max_ratio": ratio, "C_sweep": dict(sorted(sweep.items())),
             "samples_skipped": fine["skipped"],
             "zero_envelope": fine["zero_envelope"]["count"]}))
        criteria.append(CriterionResult(
            f"kg-envelope-refinement-{name}", rel < 0.10,
            {"rel_change": rel, "coarse_dx": 2.0 * dx, "fine_dx": dx}))
        criteria.append(CriterionResult(
            f"kg-envelope-c-sweep-{name}",
            all(v < 0.10 for v in sweep_rel.values()),
            {"per_C_rel_change": dict(sorted(sweep_rel.items())),
             "c_dependent_points": fine["c_dependent_points"]}))
        exponents[f"kg_margin_{name}"] = ratio
    return criteria, exponents


def _scn_linear_wave_bound(cfg: RunConfig, out: Path):
    dx = cfg.dx()
    t_hi = cfg.until_t if cfg.until_t is not None else 60.0
    if cfg.mu is not None:
        pairs = [(cfg.mu, cfg.nu)]
    else:
        pairs = [(0.5, 0.5), (0.5, -0.25)]

    # every pair is one row of a stacked run at dx and one at 2 dx; a
    # row's report is bit for bit that of a run of its pair alone
    fines, _ = _refined(
        cfg, "until_t",
        lambda h: wave_lattice(dx=h, t_lo=10.0, t_end=t_hi),
        wave_bound_margin, pairs, amp=cfg.source_amp)
    criteria, exponents = [], {}
    for (mu, nu), fine in zip(pairs, fines):
        tag = pair_tag(mu, nu)
        write_json(out / f"wave_margin_{tag}.json", fine)
        emit_series([(row["t"], row["max_ratio"])
                     for row in fine["per_t_max_ratio"]],
                    "wave-margin/v1", out / f"wave_margin_{tag}.csv")

        ratio = fine["max_ratio"]
        rel = fine["refinement_deltas"]["max_ratio_rel_change"]
        criteria.append(CriterionResult(
            f"wave-envelope-bounded-{tag}",
            math.isfinite(ratio) and ratio > 0.0,
            {"max_ratio": ratio,
             "per_decade": fine["per_decade_max_ratio"]}))
        criteria.append(CriterionResult(
            f"wave-envelope-refinement-{tag}", rel < 0.10,
            {"rel_change": rel, "coarse_dx": 2.0 * dx, "fine_dx": dx}))
        exponents[f"wave_margin_{tag}"] = ratio
    return criteria, exponents


def _scn_sobolev_suite(cfg: RunConfig, out: Path):
    s_top = cfg.last_slice()
    s_vals = _slice_ladder(cfg.s0, s_top, n=10)
    fam = profile_family(10)

    rows, spreads = [], []
    for i, prof in enumerate(fam):
        ratios = [sobolev_ratio_profile(prof, s) for s in s_vals]
        rows.extend((i, s, r) for s, r in zip(s_vals, ratios))
        spreads.append(max(ratios) / min(ratios))
    emit_series(rows, "sobolev/v1", out / "sobolev.csv")

    worst = max(spreads)
    criteria = [CriterionResult(
        "sobolev-ratio-uniform", worst < 1.5,
        {"members": len(fam), "worst_spread": worst,
         "s_range": [s_vals[0], s_vals[-1]]})]
    return criteria, {"sobolev_worst_spread": worst}


# closed-form even radial fields u(t, r), each with its d'Alembertian
# -d_t^2 u + d_r^2 u + (2/r) d_r u in closed form
def _pulse(x):
    return np.exp(-0.5 * (x - 4.0) ** 2)


def _free_wave(t, r):
    """(F(t + r) - F(t - r)) / r, a free wave for any profile F, here the
    pulse F = _pulse; the axis takes the limit 2 F'(t)."""
    r = np.asarray(r, dtype=float)
    axis = r == 0.0
    return np.where(axis, -2.0 * (t - 4.0) * _pulse(t),
                    (_pulse(t + r) - _pulse(t - r)) / np.where(axis, 1.0, r))


def _kg_mode(t, r):
    """cos(t) sin(0.8 r) / (0.8 r), a Klein-Gordon mode of mass 0.6."""
    return np.cos(t) * np.sinc(0.8 * np.asarray(r) / np.pi)


_FRAME_FIELDS = (
    ("gaussian", lambda t, r: np.exp(-0.5 * r * r) * np.cos(0.7 * t),
     lambda t, r: np.exp(-0.5 * r * r) * np.cos(0.7 * t)
     * (0.49 + r * r - 3.0)),
    ("free-wave", _free_wave, lambda t, r: np.zeros_like(r)),
    ("kg-mode", _kg_mode, lambda t, r: 0.36 * _kg_mode(t, r)),
)

_FRAME_S = 3.0          # the slice the identity is checked on
# (it, ir, j, outer) of d_t^2, d_r^2 and d_r, as combo_expansion takes them
_BOX_TERMS = ((2, 0, 0, ""), (0, 2, 0, ""), (0, 1, 0, ""))


def _frame_errors(u, box, h: float, chi, evaluate) -> tuple:
    """(error, gap) of the d'Alembertian of u on the off-axis chart
    nodes chi of slice _FRAME_S, from an order-2 derivative table with
    steps h_s = h_chi = h.

    u streams through a QueryPool at grid step h and time step h/2.  The
    Cartesian assembly -d_t^2 + d_r^2 + (2/r) d_r contracts the table
    with the chain-rule expansions (evaluate, from combo_evaluator of
    _BOX_TERMS, whose rows it reads in that order); the
    hyperboloidal one reads -d_s^2 - (3/s) d_s + s^-2 (d_chi^2
    + 2 coth(chi) d_chi) off the table directly.  error is the largest
    distance of the Cartesian assembly from the exact value, gap the
    largest distance between the two assemblies.
    """
    s, dt = _FRAME_S, 0.5 * h
    # no chi_limit: the fields exist past the chart's wall, so every
    # lattice stays centered on its node, `half` steps to either side
    half, _ = lattice_reach(2)
    pool = QueryPool(RadialGrid.for_extent(h, (s + half * h) * math.sinh(
        chi[-1] + half * h) + 12 * h))      # each query reads 10 columns
    tab = SliceDerivativeTable(pool, "u", s, chi, 2, h_s=h, h_chi=h)
    r, t0 = pool.grid.r(), s - half * h - pool.npts * dt
    for k in range(int(math.ceil((tab.t_peak - t0) / dt)) + pool.npts):
        pool.on_level(t0 + k * dt, k, u(t0 + k * dt, r), None)
    D = tab.tables()
    ch, sh = np.cosh(chi), np.sinh(chi)
    dtt, drr, dr = evaluate([D])[0]
    cart = -dtt + drr + 2.0 / (s * sh) * dr
    hyp = (-D[:, 2, 0] - 3.0 / s * D[:, 1, 0]
           + (D[:, 0, 2] + 2.0 / np.tanh(chi) * D[:, 0, 1]) / (s * s))
    exact = box(s * ch, s * sh)
    return (float(np.max(np.abs(cart - exact))),
            float(np.max(np.abs(cart - hyp))))


def _observed_order(res, errs) -> float:
    """Slope of log(error) against log(resolution), least squares."""
    return float(np.polyfit(np.log(res), np.log(errs), 1)[0])


def _scn_frame_identity(cfg: RunConfig, out: Path):
    dx = cfg.dx()
    res = [4.0 * dx, 2.0 * dx, dx]
    # one chart (at the ladder's chi step) for every resolution, so each
    # measures the same nodes; the axis node is left out, as 1/r is
    chi = chart_nodes(_FRAME_S, slice_cone_margin(dx), 0.04)[0][1:]
    evaluate = combo_evaluator(_BOX_TERMS)(_FRAME_S, chi)

    rows, orders, gap = [], {}, 0.0
    for name, u, box in _FRAME_FIELDS:
        errs = []
        for h in res:
            err, g = _frame_errors(u, box, h, chi, evaluate)
            errs.append(err)
            gap = max(gap, g)
        rows.extend((name, h, e) for h, e in zip(res, errs))
        orders[f"frame_order_{name}"] = _observed_order(res, errs)
    emit_series(rows, "order/v1", out / "frame_errors.csv")

    worst = min(orders.values())
    criteria = [
        CriterionResult("frame-identity-order", worst >= 1.9,
                        {"min_order": worst, "resolutions": res,
                         "fields": len(_FRAME_FIELDS), "slice": _FRAME_S,
                         "nodes": int(chi.size)}),
        CriterionResult("frame-assembly-gap", gap <= 1e-12,
                        {"max_gap": gap, "tolerance": 1e-12})]
    return criteria, orders


def _poly_bump(r, R: float):
    """(1 - (r/R)^2)^4 inside r < R, zero outside."""
    w = np.square(np.asarray(r, dtype=float) / R)
    return np.where(w < 1.0, (1.0 - np.minimum(w, 1.0)) ** 4, 0.0)


def _drift_data(eps: float) -> InitialData:
    """Polynomial bump (1 - (r/R)^2)^4 with R = 0.8, zero velocity.

    Conservation needs two things from the data.  Support strictly
    inside the unit cone (R < 1 at t0 = 2), or energy genuinely
    leaks through the truncation boundary and no scheme can conserve
    it.  A gentle edge layer, because a retarded profile of width d
    appears on the chart with chi-width d / (t - r), and the measurement
    stencils must resolve that; the default C-infinity bump packs its
    variation into a layer too thin for any practical step.
    """
    R = 0.8
    shape = lambda r: eps * _poly_bump(r, R)
    zero = lambda r: np.zeros_like(np.asarray(r, dtype=float))
    return InitialData(u0=shape, u1=zero, v0=zero, v1=zero,
                       support_radius=R)


def _energy_drift(dx: float, cfg: RunConfig) -> tuple:
    """Free-wave run, order-0 slice energies over s in [2, 10].

    Runs at the Courant cap CFL_CAP regardless of cfg.cfl: in W-form
    the free radial wave is exactly the 1d d'Alembert equation and the
    leapfrog truncation scales like dx^2 (1 - lambda^2), so the cap cuts
    the solver error about 4x versus lambda = 0.5.  The suite steps are
    pinned small enough that the measurement floor sits well below the
    solver term at these resolutions.
    """
    s_vals = [float(s) for s in np.linspace(2.0, 10.0, 9)]
    eps_u, _ = cfg.amplitudes()
    data = _drift_data(eps_u)
    suite, grid, t_need = SliceEnergySuite.plan(
        dx, s_vals, order=0, t0=2.0, support_radius=data.support_radius,
        pad_cells=cfg.pad_cells, fields=("u",), mass=cfg.mass, cfl=CFL_CAP,
        chi_step=0.01, h_chi_u=0.02, h_s=0.05)
    evolve_model(ModelParams.free(cfg.mass), grid, data, t0=2.0,
                 t_end=t_need, cfl=CFL_CAP, observers=(suite,))
    E = [row["value"] for row in suite.energies()]
    drift = max(abs(e / E[0] - 1.0) for e in E)
    return drift, list(zip(s_vals, E))


# manufactured fields: u = au(t) phi(r), v = av(t) phi(r) with
# phi = (1 - (r/R)^2)^4 inside r < R, so the exact solution stays
# compactly supported and the radial Laplacian closes in r^2
_MMS_R = 2.0
_MMS_AU = 0.08
_MMS_AV = 0.08
_MMS_WU = 1.3
_MMS_WV = 1.7


def _mms_dphi(r):
    r = np.asarray(r, dtype=float)
    w = np.square(r / _MMS_R)
    inner = (1.0 - np.minimum(w, 1.0)) ** 3
    return np.where(w < 1.0, -8.0 * r / _MMS_R ** 2 * inner, 0.0)


def _mms_lap_phi(r):
    # d_r^2 + (2/r) d_r of (1-w)^4, w = (r/R)^2: 24 (1-w)^2 (3w-1) / R^2
    w = np.square(np.asarray(r, dtype=float) / _MMS_R)
    inner = (1.0 - np.minimum(w, 1.0)) ** 2
    return np.where(w < 1.0,
                    24.0 * inner * (3.0 * w - 1.0) / _MMS_R ** 2, 0.0)


def _mms_exact():
    au = lambda t: _MMS_AU * np.cos(_MMS_WU * t)
    dau = lambda t: -_MMS_AU * _MMS_WU * np.sin(_MMS_WU * t)
    ddau = lambda t: -_MMS_AU * _MMS_WU ** 2 * np.cos(_MMS_WU * t)
    av = lambda t: _MMS_AV * np.sin(_MMS_WV * t)
    dav = lambda t: _MMS_AV * _MMS_WV * np.cos(_MMS_WV * t)
    ddav = lambda t: -_MMS_AV * _MMS_WV ** 2 * np.sin(_MMS_WV * t)
    return au, dau, ddau, av, dav, ddav


def _mms_sources(params: ModelParams):
    p00, ps, rcoef = params.p00, params.ps, params.rcoef
    h00, hs = params.h00, params.hs
    c2 = params.mass ** 2
    au, dau, ddau, av, dav, ddav = _mms_exact()

    def fu(t, r):
        phi = _poly_bump(r, _MMS_R)
        dphi, lap = _mms_dphi(r), _mms_lap_phi(r)
        N = (p00 * (dav(t) * phi) ** 2 + ps * (av(t) * dphi) ** 2
             + rcoef * (av(t) * phi) ** 2)
        return ddau(t) * phi - au(t) * lap - N

    def fv(t, r):
        phi, lap = _poly_bump(r, _MMS_R), _mms_lap_phi(r)
        u = au(t) * phi
        return ((1.0 + u * h00) * ddav(t) * phi
                - (1.0 - u * hs) * av(t) * lap + c2 * av(t) * phi)

    return fu, fv


class _LastLevel:
    """Observer that keeps the time and a copy of u and v of the newest
    level it is shown."""

    def on_level(self, t, step, u, v):
        self.t, self.u, self.v = t, u.copy(), v.copy()


def _mms_error(dx: float, cfg: RunConfig) -> float:
    params = cfg.model_params()
    au, dau, _, av, dav, _ = _mms_exact()
    data = InitialData(
        u0=lambda r: au(2.0) * _poly_bump(r, _MMS_R),
        u1=lambda r: dau(2.0) * _poly_bump(r, _MMS_R),
        v0=lambda r: av(2.0) * _poly_bump(r, _MMS_R),
        v1=lambda r: dav(2.0) * _poly_bump(r, _MMS_R),
        support_radius=_MMS_R)
    grid = grid_for_run(dx, 2.0, 4.2, support_radius=_MMS_R,
                        pad_cells=cfg.pad_cells)
    last = _LastLevel()
    evolve_model(params, grid, data, t0=2.0, t_end=4.0, cfl=cfg.cfl,
                 observers=(last,), sources=_mms_sources(params))
    r = grid.r()
    eu = np.max(np.abs(last.u - au(last.t) * _poly_bump(r, _MMS_R)))
    ev = np.max(np.abs(last.v - av(last.t) * _poly_bump(r, _MMS_R)))
    return float(max(eu, ev))


def _scn_convergence_suite(cfg: RunConfig, out: Path):
    dx = cfg.dx()

    drift_c, table_c = _energy_drift(dx, cfg)
    drift_f, table_f = _energy_drift(0.5 * dx, cfg)
    rows = [(dx, s, e) for s, e in table_c]
    rows += [(0.5 * dx, s, e) for s, e in table_f]
    emit_series(rows, "drift/v1", out / "energy_drift.csv")

    criteria = [
        CriterionResult("energy-drift-coarse", drift_c < 0.01,
                        {"drift": drift_c, "resolution": dx}),
        CriterionResult("energy-drift-fine", drift_f < 0.0025,
                        {"drift": drift_f, "resolution": 0.5 * dx}),
    ]

    res = [4.0 * dx, 2.0 * dx, dx]
    errs = [_mms_error(d, cfg) for d in res]
    emit_series([("coupled", d, e) for d, e in zip(res, errs)],
                "order/v1", out / "mms_errors.csv")
    slope = _observed_order(res, errs)
    criteria.append(CriterionResult(
        "scheme-order", slope >= 1.9,
        {"order": slope, "resolutions": res, "errors": errs}))
    return criteria, {"scheme_order": slope,
                      "energy_drift_coarse": drift_c,
                      "energy_drift_fine": drift_f}


_SCENARIOS = {
    "model-evolution": _scn_model_evolution,
    "linear-kg-bound": _scn_linear_kg_bound,
    "linear-wave-bound": _scn_linear_wave_bound,
    "sobolev-suite": _scn_sobolev_suite,
    "frame-identity-suite": _scn_frame_identity,
    "convergence-suite": _scn_convergence_suite,
}


# === entry point ===

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hfoil",
        description="hyperboloidal foliation laboratory scenarios")
    sub = top.add_subparsers(dest="scenario", required=True,
                             metavar="scenario")
    for name in SCENARIOS:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--config", help="config file path")
        # flags stay text; _set parses them as file values
        p.add_argument("--resolution",
                       help="grid spacing, overrides [grid] resolution")
        p.add_argument("--epsilon",
                       help="data amplitude, overrides [data] epsilon")
        p.add_argument("--until-s", dest="until_s",
                       help="last hyperboloidal slice, overrides [run]")
        p.add_argument("--deterministic", action="store_const",
                       const="true",
                       help="leave out wall-time fields, so repeated "
                       "runs write byte-identical trees")
        p.add_argument("--out", dest="out_dir",
                       help="output directory, overrides [output]")
    return top


# the flags that take a value, as _build_parser declares them
_VALUE_FLAGS = ("--config", "--resolution", "--epsilon", "--until-s",
                "--out")


def _join_values(argv) -> list:
    """argv with every value that starts with a single "-" joined to its
    flag ("--until-s", "-inf" -> "--until-s=-inf"): argparse would take
    a separate -inf or -1e-3 for an option, so the value would never
    reach its key's converter and range check."""
    out = []
    for arg in argv:
        if (out and out[-1] in _VALUE_FLAGS and arg.startswith("-")
                and not arg.startswith("--")):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def build_config(argv) -> RunConfig:
    args = _build_parser().parse_args(_join_values(argv))
    text = ""
    if args.config is not None:
        try:
            text = Path(args.config).read_text()
        except OSError as e:
            raise ConfigError(f"cannot read config {args.config}: {e}")
    cfg = parse_config(text)
    cfg.scenario = args.scenario
    for attr in ("resolution", "epsilon", "until_s", "deterministic",
                 "out_dir"):
        if getattr(args, attr) is not None:
            _set(cfg, _FIELDS[attr], getattr(args, attr), None)
    _check_read(cfg)
    _check_amplitude(cfg)
    _cross_validate(cfg)
    _check_first_slice(cfg)
    return cfg


def main(argv=None) -> int:
    try:
        cfg = build_config(sys.argv[1:] if argv is None else argv)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        summary = run_scenario(cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    status = "PASS" if summary.passed else "FAIL"
    print(f"{summary.scenario}: {status} "
          f"({len(summary.criteria)} criteria, outputs in {summary.out_dir})")
    for c in summary.criteria:
        print(f"  {'PASS' if c.passed else 'FAIL'}  {c.id}")
    return 0 if summary.passed else 1


if __name__ == "__main__":
    sys.exit(main())
