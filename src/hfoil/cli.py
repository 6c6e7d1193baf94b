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
the offending line number.  An empty file is a valid config: every key
has a default (the field defaults of ``RunConfig`` below).

Sections and keys:

``[run]``
    scenario, deterministic, until_s, until_t
``[grid]``
    resolution, cfl (at most 0.9), box_half, pad_cells
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
- linear-kg-bound: until_s, resolution, cfl, mass, epsilon, eps_v,
  radius, C, dlam, s0, metric, metric_amp
- linear-wave-bound: until_t, resolution, cfl, mu, nu, source_amp
- sobolev-suite: until_s, s0
- frame-identity-suite: resolution, box_half
- convergence-suite: resolution, cfl, pad_cells, ``[model]``, epsilon,
  eps_u

Command line flags override config fields (``--resolution``,
``--epsilon``, ``--until-s``, ``--deterministic``, ``--out``), and the
subcommand always wins over the ``scenario`` key.  Once the subcommand
has set the scenario, a key or flag that it does not read is a
ConfigError (with the key's line, or no line for a flag).  Every run writes
``config.echo.txt`` (the fully resolved config), ``report.json`` and a
human-readable ``report.txt`` next to its data tables; with
``--deterministic`` the wall-time field is omitted, so two runs of the
same config produce byte-identical trees.
"""
from __future__ import annotations

import argparse
import hashlib
import math
import sys
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .analysis import (TINY, SliceEnergySuite, SupTracker, chart_nodes,
                       energy_csv_rows, fit_power_law, hierarchy_check,
                       hierarchy_csv_rows, lattice_reach, profile_family,
                       sobolev_ratio_profile, supnorm_csv_rows, write_csv,
                       write_json)
from .bounds import (ZERO_METRIC, BoundParams, attach_refinement,
                     kg_bound_margin, metric_pull, wave_bound_margin)
from .fields import BoxGrid, sample_history
from .geometry import (dalembertian_cartesian, dalembertian_frame,
                       slice_cone_margin)
from .solver import (InitialData, ModelParams, evolve_model, grid_for_run)
from .util import ConfigError, FoliationError, StabilityError

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

CFL_CAP = 0.9   # the radial leapfrog is stable for Courant numbers below 1


# === configuration ===

def _to_float(s: str) -> float:
    try:
        return float(s)
    except ValueError:
        raise ValueError(f"expected a number, got {s!r}")


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


@dataclass(frozen=True)
class _Opt:
    attr: str
    conv: object
    check: object = None


_SCHEMA = {
    "run": {
        "scenario": _Opt("scenario", _choice(*SCENARIOS)),
        "deterministic": _Opt("deterministic", _to_bool),
        "until_s": _Opt("until_s", _to_float, _positive),
        "until_t": _Opt("until_t", _to_float, _positive),
    },
    "grid": {
        "resolution": _Opt("resolution", _to_float, _positive),
        "cfl": _Opt("cfl", _to_float, _positive),
        "box_half": _Opt("box_half", _to_float, _positive),
        "pad_cells": _Opt("pad_cells", _to_int, _nonneg),
    },
    "model": {
        "mass": _Opt("mass", _to_float, _positive),
        "p00": _Opt("p00", _to_float),
        "ps": _Opt("ps", _to_float),
        "rcoef": _Opt("rcoef", _to_float),
        "h00": _Opt("h00", _to_float),
        "hs": _Opt("hs", _to_float),
    },
    "data": {
        "epsilon": _Opt("epsilon", _to_float, _nonneg),
        "eps_u": _Opt("eps_u", _to_float, _nonneg),
        "eps_v": _Opt("eps_v", _to_float, _nonneg),
        "radius": _Opt("radius", _to_float, _positive),
    },
    "hierarchy": {
        "order": _Opt("order", _to_int, _nonneg),
        "delta": _Opt("delta", _to_float, _check_delta),
    },
    "bounds": {
        "C": _Opt("C", _to_float, _positive),
        "dlam": _Opt("dlam", _to_float, _positive),
        "s0": _Opt("s0", _to_float, _check_s0),
        "mu": _Opt("mu", _to_float, _check_mu),
        "nu": _Opt("nu", _to_float, _check_nu),
        "metric": _Opt("metric", _choice("flat", "pull", "both")),
        "metric_amp": _Opt("metric_amp", _to_float, _nonneg),
        "source_amp": _Opt("source_amp", _to_float),
    },
    "output": {
        "dir": _Opt("out_dir", _to_str),
    },
}


def _attrs(*sections):
    return {opt.attr for sec in sections for opt in _SCHEMA[sec].values()}


# the attributes each scenario reads besides scenario, deterministic
# and out_dir
_READS = {
    "model-evolution": {"until_s", "until_t", "resolution", "cfl",
                        "pad_cells", "s0"} | _attrs("model", "data",
                                                    "hierarchy"),
    "linear-kg-bound": {"until_s", "resolution", "cfl", "mass", "epsilon",
                        "eps_v", "radius", "C", "dlam", "s0", "metric",
                        "metric_amp"},
    "linear-wave-bound": {"until_t", "resolution", "cfl", "mu", "nu",
                          "source_amp"},
    "sobolev-suite": {"until_s", "s0"},
    "frame-identity-suite": {"resolution", "box_half"},
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


@dataclass
class RunConfig:
    """Resolved configuration for one scenario run.

    Built by :func:`parse_config`; ``explicit`` maps each attribute the
    user set (file or flag) rather than left at its default to its
    config line, or to None for a flag.  :func:`build_config` reads it to
    reject what the chosen scenario never reads.
    """
    scenario: str = "model-evolution"
    deterministic: bool = False
    until_s: Optional[float] = None
    until_t: Optional[float] = None
    resolution: Optional[float] = None
    cfl: float = 0.5
    box_half: Optional[float] = None
    pad_cells: int = 60
    mass: float = 1.0
    p00: float = 1.0
    ps: float = 1.0
    rcoef: float = 1.0
    h00: float = 1.0
    hs: float = 1.0
    epsilon: float = 0.01
    eps_u: Optional[float] = None
    eps_v: Optional[float] = None
    radius: float = 1.0
    order: int = 8
    delta: float = 0.02
    C: float = 10.0
    dlam: float = 0.01
    s0: float = 2.0
    mu: Optional[float] = None
    nu: Optional[float] = None
    metric: str = "both"
    metric_amp: float = 0.1
    source_amp: float = 1.0
    out_dir: Optional[str] = None
    explicit: dict = dc_field(default_factory=dict)

    def model_params(self) -> ModelParams:
        return ModelParams.isotropic(self.p00, self.ps, self.rcoef,
                                     self.h00, self.hs, mass=self.mass)

    def amplitudes(self):
        """(eps_u, eps_v) with the shared epsilon filling unset fields."""
        eu = self.epsilon if self.eps_u is None else self.eps_u
        ev = self.epsilon if self.eps_v is None else self.eps_v
        return eu, ev

    def dx(self) -> float:
        if self.resolution is not None:
            return self.resolution
        return _DEFAULT_RESOLUTION[self.scenario]

    def bound_params(self) -> BoundParams:
        return BoundParams(C=self.C, mass=self.mass, dlam=self.dlam,
                           s0=self.s0)


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
        opt = _SCHEMA[section][key]
        if opt.attr in lines:
            raise ConfigError(
                f"[{section}] {key} already set on line {lines[opt.attr]}",
                line=num, field=key)
        try:
            value = opt.conv(val)
        except ValueError as e:
            raise ConfigError(f"[{section}] {key}: {e}", line=num,
                              field=key) from None
        if opt.check is not None:
            msg = opt.check(value)
            if msg:
                raise ConfigError(f"[{section}] {key}: {msg}", line=num,
                                  field=key)
        setattr(cfg, opt.attr, value)
        lines[opt.attr] = num
    _cross_validate(cfg)
    return cfg


def _apply_flag(cfg: RunConfig, attr: str, value) -> None:
    """Flag override with the same validation as a file field."""
    for section, opts in _SCHEMA.items():
        for key, opt in opts.items():
            if opt.attr != attr:
                continue
            if opt.check is not None:
                msg = opt.check(value)
                if msg:
                    raise ConfigError(f"flag for [{section}] {key}: {msg}",
                                      field=key)
            setattr(cfg, attr, value)
            cfg.explicit[attr] = None
            return
    raise KeyError(attr)


def _check_read(cfg: RunConfig) -> None:
    """Reject a key or flag that cfg.scenario never reads (each
    attribute but out_dir, which every run reads, is named as its key)."""
    reads = _READS[cfg.scenario] | {"scenario", "deterministic", "out_dir"}
    for attr, line in cfg.explicit.items():
        if attr not in reads:
            raise ConfigError(f"{attr} is not read by {cfg.scenario}",
                              line=line, field=attr)


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
        for key, opt in opts.items():
            if opt.attr == "out_dir":
                continue
            value = getattr(cfg, opt.attr)
            if opt.attr == "resolution" and value is None:
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
    (round-trips bit-exactly).  An empty record set writes the header
    line alone.
    """
    if schema not in SERIES_SCHEMAS:
        raise ConfigError(f"unknown series schema {schema!r}; registered: "
                          f"{', '.join(sorted(SERIES_SCHEMAS))}")
    cols = SERIES_SCHEMAS[schema]
    rows = []
    for i, rec in enumerate(records):
        rec = tuple(rec)
        if len(rec) != len(cols):
            raise ConfigError(
                f"record {i} for schema {schema} has {len(rec)} "
                f"fields, expected {len(cols)}")
        rows.append(rec)
    path = Path(path)
    try:
        write_csv(path, cols, rows)
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e}") from e
    return path


def read_series(path):
    """Parse a table written by emit_series.

    Returns (schema id or None, header tuple, rows); numeric cells come
    back as floats, everything else as strings.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from e
    lines = text.splitlines()
    if not lines:
        raise ConfigError(f"{path} is empty, not even a header")
    header = tuple(lines[0].split(","))
    schema = None
    for sid, cols in SERIES_SCHEMAS.items():
        if cols == header:
            schema = sid
            break
    rows = []
    for line in lines[1:]:
        cells = []
        for cell in line.split(","):
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
        rows.append(tuple(cells))
    return schema, header, rows


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

    def criterion(self, cid: str) -> CriterionResult:
        for c in self.criteria:
            if c.id == cid:
                return c
        raise KeyError(cid)


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
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "config.echo.txt", "w", newline="") as f:
        f.write(echo)

    start = time.perf_counter()
    error = None
    try:
        criteria, exponents = _SCENARIOS[cfg.scenario](cfg, out)
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


def _fit_or_none(t, y, tail=10.0):
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.size == 0 or float(np.max(y)) <= TINY:
        return None
    try:
        return fit_power_law(t, y, tail=tail)
    except FoliationError:
        return None


def _scn_model_evolution(cfg: RunConfig, out: Path):
    dx = cfg.dx()
    s_top = cfg.until_s if cfg.until_s is not None else 10.0
    eps_u, eps_v = cfg.amplitudes()
    params = cfg.model_params()
    data = InitialData.bump(eps_u, eps_v, cfg.radius)

    # slice ladder and the wall time needed to cover it
    s_vals = _slice_ladder(cfg.s0, s_top)
    _, chi_max = chart_nodes(s_top, slice_cone_margin(dx), 1.0)
    h_s = 0.3 if cfg.order >= 4 else 0.08
    _, t_reach = lattice_reach(cfg.order + 1, s_top, h_s, chi_max)
    t_end = max(t_reach + 0.25, cfg.until_t or 0.0)

    grid = grid_for_run(dx, 2.0, t_end, support_radius=cfg.radius,
                        pad_cells=cfg.pad_cells)
    # high-order tables read k-th differences, which amplify the
    # scheme's dispersive ripple by 1/h^k; filter those levels
    suite = SliceEnergySuite(grid, s_vals, order=cfg.order, mass=cfg.mass,
                             h_s=h_s, t_floor=2.0,
                             level_filter=cfg.order >= 4)
    trk_u = SupTracker("u", grid=grid, level_filter=True)
    trk_v = SupTracker("v", grid=grid, level_filter=True)

    result = evolve_model(params, grid, data, t0=2.0, t_end=t_end,
                          cfl=cfg.cfl, observers=(suite, trk_u, trk_v))

    rows = suite.energies()
    emit_series(energy_csv_rows(rows), "energy/v1", out / "energies.csv")
    emit_series(supnorm_csv_rows(suite.stage_sups(cfg.delta)), "supnorm/v1",
                out / "stage_sups.csv")
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
        emit_series(hierarchy_csv_rows(lines), "hierarchy/v1",
                    out / "hierarchy.csv")
        worst = max((ln["fitted"] - ln["target"] for ln in lines
                     if math.isfinite(ln["fitted"])), default=0.0)
        criteria.append(CriterionResult("hierarchy-lines", all(
            ln["pass"] for ln in lines), {
            "lines": len(lines),
            "failing": sum(0 if ln["pass"] else 1 for ln in lines),
            "worst_excess": worst}))
    else:
        emit_series([], "hierarchy/v1", out / "hierarchy.csv")

    # pointwise rate checks only where the run actually probes them:
    # a long free Klein-Gordon run pins the sharp rate, a long coupled
    # run pins the slow wave rate
    free = params.h_norm() == 0.0 and np.all(params.P == 0.0) \
        and params.rcoef == 0.0
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


def _scn_linear_kg_bound(cfg: RunConfig, out: Path):
    dx = cfg.dx()
    s_max = cfg.until_s if cfg.until_s is not None else 8.0
    params = cfg.bound_params()
    _, eps_v = cfg.amplitudes()
    data = InitialData.bump(0.0, eps_v if eps_v > 0 else 0.01, cfg.radius)

    metrics = []
    if cfg.metric in ("flat", "both"):
        metrics.append(("flat", ZERO_METRIC))
    if cfg.metric in ("pull", "both"):
        metrics.append(("pull", metric_pull(cfg.metric_amp)))

    criteria, exponents = [], {}
    for name, h in metrics:
        fine = kg_bound_margin(h, data, params, dx=dx, s_max=s_max,
                               cfl=cfg.cfl)
        coarse = kg_bound_margin(h, data, params, dx=2.0 * dx, s_max=s_max,
                                 cfl=cfg.cfl)
        fine = attach_refinement(fine, coarse)

        ratio = fine["max_ratio"]
        rel = fine["refinement_deltas"]["max_ratio_rel_change"]
        sweep = fine["C_sensitivity"]
        # the margin must hold for every C in the sweep, not just the
        # default, so finiteness and refinement are checked per C
        sweep_rel = {}
        for key, val in sweep.items():
            cv = coarse["C_sensitivity"].get(key, 0.0)
            if val == 0.0:
                sweep_rel[key] = 0.0 if cv == 0.0 else math.inf
            else:
                sweep_rel[key] = abs(cv - val) / abs(val)
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
            {"per_C_rel_change": dict(sorted(sweep_rel.items()))}))
        exponents[f"kg_margin_{name}"] = ratio
    return criteria, exponents


def _pair_tag(mu: float, nu: float) -> str:
    def one(x):
        return ("m" if x < 0 else "p") + ("%g" % abs(x)).replace(".", "")
    return f"mu{one(mu)}_nu{one(nu)}"


def _scn_linear_wave_bound(cfg: RunConfig, out: Path):
    dx = cfg.dx()
    t_hi = cfg.until_t if cfg.until_t is not None else 60.0
    if cfg.mu is not None:
        pairs = [(cfg.mu, cfg.nu)]
    else:
        pairs = [(0.5, 0.5), (0.5, -0.25)]

    criteria, exponents = [], {}
    for mu, nu in pairs:
        tag = _pair_tag(mu, nu)
        fine = wave_bound_margin(mu, nu, amp=cfg.source_amp, dx=dx,
                                 t_lo=10.0, t_end=t_hi, cfl=cfg.cfl)
        coarse = wave_bound_margin(mu, nu, amp=cfg.source_amp, dx=2.0 * dx,
                                   t_lo=10.0, t_end=t_hi, cfl=cfg.cfl)
        fine = attach_refinement(fine, coarse)
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
    s_top = cfg.until_s if cfg.until_s is not None else 20.0
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


# analytic test fields for the frame identity; mixed symmetry on purpose
_FRAME_FIELDS = (
    ("radial", lambda t, x1, x2, x3:
        np.exp(-0.5 * (x1 * x1 + x2 * x2 + x3 * x3)) * np.cos(0.7 * t)),
    ("shifted", lambda t, x1, x2, x3:
        np.exp(-((x1 - 0.3) ** 2 + x2 * x2 + (x3 + 0.2) ** 2))
        * np.sin(0.9 * t)),
    ("anisotropic", lambda t, x1, x2, x3:
        np.exp(-(x1 * x1 / 1.1 + x2 * x2 / 0.8 + x3 * x3 / 1.3))
        * np.cos(0.6 * t + 0.4 * x1)),
)


def _frame_error(fn, dx: float, half: float, t0: float) -> float:
    g = BoxGrid(dx=dx, half=half)
    # center the window so the surviving middle level sits at t0 for
    # every resolution; otherwise the ladder compares different times
    times = t0 + dx * (np.arange(9) - 4)
    h = sample_history(fn, g, times)
    d = dalembertian_cartesian(h) - dalembertian_frame(h)
    vals = d.values
    x = [d.coord(a) for a in range(3)]
    # fixed physical interior so every resolution measures one region;
    # mask carries the leading level axis from coord()
    trim = 0.3
    mask = ((np.abs(x[0]) <= half - trim) & (np.abs(x[1]) <= half - trim)
            & (np.abs(x[2]) <= half - trim))
    mid = vals.shape[0] // 2
    return float(np.max(np.where(mask, np.abs(vals[mid:mid + 1]), 0.0)))


def _scn_frame_identity(cfg: RunConfig, out: Path):
    dx = cfg.dx()
    half = cfg.box_half if cfg.box_half is not None else 1.0
    t0 = 3.0
    res = [4.0 * dx, 2.0 * dx, dx]

    rows, orders = [], {}
    for name, fn in _FRAME_FIELDS:
        errs = [_frame_error(fn, d, half, t0) for d in res]
        rows.extend((name, d, e) for d, e in zip(res, errs))
        slope = np.polyfit(np.log(res), np.log(errs), 1)[0]
        orders[f"frame_order_{name}"] = float(slope)
    emit_series(rows, "order/v1", out / "frame_errors.csv")

    worst = min(orders.values())
    criteria = [CriterionResult(
        "frame-identity-order", worst >= 1.9,
        {"min_order": worst, "resolutions": res,
         "fields": len(_FRAME_FIELDS)})]
    return criteria, orders


def _drift_data(eps: float, radius: float = 0.8) -> InitialData:
    """Polynomial bump (1 - (r/R)^2)^4, zero velocity.

    Conservation needs two things from the data.  Support strictly
    inside the unit cone (radius < 1 at t0 = 2), or energy genuinely
    leaks through the truncation boundary and no scheme can conserve
    it.  A gentle edge layer, because a retarded profile of width d
    appears on the chart with chi-width d / (t - r), and the measurement
    stencils must resolve that; the default C-infinity bump packs its
    variation into a layer too thin for any practical step.
    """
    def shape(r):
        q = np.square(np.asarray(r, dtype=float) / radius)
        return eps * np.where(q < 1.0, (1.0 - np.minimum(q, 1.0)) ** 4, 0.0)
    zero = lambda r: np.zeros_like(np.asarray(r, dtype=float))
    return InitialData(u0=shape, u1=zero, v0=zero, v1=zero,
                       support_radius=radius)


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
    data = _drift_data(eps_u if eps_u > 0 else 0.01)
    suite, grid, t_need = SliceEnergySuite.plan(
        dx, s_vals, order=0, t0=2.0, support_radius=data.support_radius,
        fields=("u",), mass=cfg.mass,
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


def _mms_phi(r):
    w = np.square(np.asarray(r, dtype=float) / _MMS_R)
    return np.where(w < 1.0, (1.0 - np.minimum(w, 1.0)) ** 4, 0.0)


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
    p00, ps, rcoef, h00, hs = params.radial_iso()
    c2 = params.mass ** 2
    au, dau, ddau, av, dav, ddav = _mms_exact()

    def fu(t, r):
        phi, dphi, lap = _mms_phi(r), _mms_dphi(r), _mms_lap_phi(r)
        N = (p00 * (dav(t) * phi) ** 2 + ps * (av(t) * dphi) ** 2
             + rcoef * (av(t) * phi) ** 2)
        return ddau(t) * phi - au(t) * lap - N

    def fv(t, r):
        phi, lap = _mms_phi(r), _mms_lap_phi(r)
        u = au(t) * phi
        return ((1.0 + u * h00) * ddav(t) * phi
                - (1.0 - u * hs) * av(t) * lap + c2 * av(t) * phi)

    return fu, fv


def _mms_error(dx: float, cfg: RunConfig) -> float:
    params = cfg.model_params()
    au, dau, _, av, dav, _ = _mms_exact()
    data = InitialData(
        u0=lambda r: au(2.0) * _mms_phi(r),
        u1=lambda r: dau(2.0) * _mms_phi(r),
        v0=lambda r: av(2.0) * _mms_phi(r),
        v1=lambda r: dav(2.0) * _mms_phi(r),
        support_radius=_MMS_R)
    grid = grid_for_run(dx, 2.0, 4.2, support_radius=_MMS_R,
                        pad_cells=cfg.pad_cells)
    res = evolve_model(params, grid, data, t0=2.0, t_end=4.0, cfl=cfg.cfl,
                       sources=_mms_sources(params),
                       record=(3.9, 4.3, 1))
    r = grid.r()
    t_fin = float(res.u_hist.times[-1])
    eu = np.max(np.abs(res.u_hist.values[-1] - au(t_fin) * _mms_phi(r)))
    ev = np.max(np.abs(res.v_hist.values[-1] - av(t_fin) * _mms_phi(r)))
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
    slope = float(np.polyfit(np.log(res), np.log(errs), 1)[0])
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
        p.add_argument("--resolution", type=float,
                       help="grid spacing, overrides [grid] resolution")
        p.add_argument("--epsilon", type=float,
                       help="data amplitude, overrides [data] epsilon")
        p.add_argument("--until-s", type=float, dest="until_s",
                       help="last hyperboloidal slice, overrides [run]")
        p.add_argument("--deterministic", action="store_true", default=None,
                       help="leave out wall-time fields, so repeated "
                       "runs write byte-identical trees")
        p.add_argument("--out", dest="out_dir",
                       help="output directory, overrides [output]")
    return top


def build_config(argv) -> RunConfig:
    args = _build_parser().parse_args(argv)
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
            _apply_flag(cfg, attr, getattr(args, attr))
    _check_read(cfg)
    _cross_validate(cfg)
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
