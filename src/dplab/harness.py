"""Experiment harness: JSON configs in, CSV/JSON artifacts out.

A run is deterministic given (config, seed): one master seed covers the whole
run and each experiment family owns a disjoint stream-index namespace.
Within it, a Dirichlet-marginal or quantile family draws leg l from stream
base + l, and a stick-breaking family gives replication r of leg l stream
base + l*R + r.
DPLAB_THREADS is read once when a run starts.  Output writing is
single-threaded after reduction, so artifacts are byte-identical for any
value of DPLAB_THREADS.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import verify
from .dp_core import (
    BaseMeasure,
    BorelSet,
    TruncationPolicy,
    check_concentration,
    exponential_base,
    normal_base,
    uniform_base,
)
from .errors import ConfigError, DplabError
from .processes import BivariateGaussianSpec, Grid, QuadratureSpec, bivariate_density_integral

SCHEMA_VERSION = 1

FAMILIES = ("moments", "fidi", "modulus", "gc", "quantile", "density", "posterior")

# Disjoint stream-index namespaces per family.
FAMILY_STREAM_BASE = {name: i << 40 for i, name in enumerate(FAMILIES)}

# A family's built run: (master seed, stream base, worker threads) -> result.
Call = Callable[[int, int, int], verify.McSummary]

_THIRD = 1.0 / 3.0
_TRUNCATION = asdict(TruncationPolicy())

_FAMILY_DEFAULTS: dict[str, dict] = {
    "moments": {
        "base_measure": {"label": "uniform"},
        "a": 10.0,
        "sets": [[[0.0, 0.3]], [[0.3, 0.5]]],
        "replications": 100000,
    },
    "fidi": {
        "a": 10000.0,
        "sets": [[[0.0, 0.25]], [[0.25, 0.5]], [[0.5, 1.0]]],
        "replications": 10000,
    },
    "modulus": {
        "a": 1.0,
        "modulus": {"t1": 0.1, "t": 0.4, "t2": 0.9},
        "replications": 100000,
    },
    "gc": {
        "base_measure": {"label": "uniform"},
        "a_values": [10.0, 100.0, 1000.0, 10000.0],
        "replications": 1000,
        "gc_grid_resolution": 512,
        "truncation": _TRUNCATION,
    },
    "quantile": {
        "base_measure": {"label": "uniform"},
        "a_values": [10000.0, 1000000.0, 100000000.0],
        "u_points": [0.25, 0.5, 0.75],
        "replications": 10000,
        "truncation": _TRUNCATION,
    },
    "density": {
        "density": {"l1": _THIRD, "l2": _THIRD, "grid_lo": -2.5, "grid_hi": 2.5, "grid_points": 11},
        "a_values": [100.0, 1000.0, 10000.0],
        "quadrature": asdict(QuadratureSpec()),
    },
    "posterior": {
        "base_measure": {"label": "uniform"},
        "a": 2.0,
        "data": [0.2, 0.4, 0.6],
        "data_file": None,
        "sets": [[[0.0, 0.3]], [[0.3, 0.6]], [[0.6, 1.0]]],
        "replications": 20000,
    },
}

_FAMILY_KEYS = {name: set(params) for name, params in _FAMILY_DEFAULTS.items()}
_TOP_KEYS = {"schema_version", "experiment", "seed", "output_dir", "families"}


# ---------------------------------------------------------------------------
# Config validation: field types and shapes here; value ranges in the
# constructors and verify argument rules the builders below call
# ---------------------------------------------------------------------------


def _fail(path: str, message: str):
    raise ConfigError(path, message)


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    value = float(value)
    if not np.isfinite(value):
        _fail(path, "must be finite")
    return value


def _as_numbers(value, path: str) -> list[float]:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a non-empty list")
    return [_as_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    return value


def _check_keys(d: dict, allowed: set[str], path: str) -> None:
    for key in d:
        if key not in allowed:
            _fail(f"{path}.{key}" if path else key, "unknown field")


# Base-measure constructors and their numeric fields with defaults.
_BASES = {"uniform": uniform_base, "exponential": exponential_base, "normal": normal_base}
_BASE_FIELDS = {"uniform": {}, "exponential": {"rate": 1.0}, "normal": {"mu": 0.0, "sigma": 1.0}}


def _validate_base_measure(value, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, "expected an object with a 'label'")
    label = value.get("label")
    if label not in _BASES:
        _fail(f"{path}.label", "must be one of uniform | exponential | normal")
    fields = _BASE_FIELDS[label]
    _check_keys(value, {"label", *fields}, path)
    numbers = {k: _as_number(value.get(k, d), f"{path}.{k}") for k, d in fields.items()}
    return {"label": label, **numbers}


def _validate_sets(value, path: str) -> list:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a non-empty list of Borel sets")
    out = []
    for i, s in enumerate(value):
        if not isinstance(s, list) or not s:
            _fail(f"{path}[{i}]", "expected a non-empty list of [lo, hi] intervals")
        intervals = []
        for j, pair in enumerate(s):
            if not isinstance(pair, list) or len(pair) != 2:
                _fail(f"{path}[{i}][{j}]", "expected an interval [lo, hi]")
            intervals.append([_as_number(x, f"{path}[{i}][{j}][{k}]") for k, x in enumerate(pair)])
        out.append(intervals)
    return out


def _validate_family(family: str, raw: dict, path: str, config_dir: Path | None):
    """The family's params with defaults filled in, and its built call."""
    if not isinstance(raw, dict):
        _fail(path, "expected an object")
    _check_keys(raw, _FAMILY_KEYS[family], path)
    params = json.loads(json.dumps(_FAMILY_DEFAULTS[family]))  # deep copy

    def sub(key: str) -> str:
        return f"{path}.{key}" if path else key

    for key, value in raw.items():
        if key == "base_measure":
            params[key] = _validate_base_measure(value, sub(key))
        elif key == "sets":
            params[key] = _validate_sets(value, sub(key))
        elif key == "a":
            params[key] = _as_number(value, sub(key))
            _make(sub(key), check_concentration, params[key])
        elif key in ("a_values", "u_points"):
            params[key] = _as_numbers(value, sub(key))
        elif key in ("replications", "gc_grid_resolution"):
            r = _as_int(value, sub(key))
            if r < 2:
                _fail(sub(key), "must be at least 2")
            params[key] = r
        elif key == "modulus":
            if not isinstance(value, dict):
                _fail(sub(key), "expected an object {t1, t, t2}")
            _check_keys(value, {"t1", "t", "t2"}, sub(key))
            pts = {k: _as_number(value.get(k), f"{sub(key)}.{k}") for k in ("t1", "t", "t2")}
            params[key] = pts
        elif key == "truncation":
            if not isinstance(value, dict):
                _fail(sub(key), "expected an object {epsilon, max_atoms}")
            _check_keys(value, set(_TRUNCATION), sub(key))
            eps = _as_number(value.get("epsilon", _TRUNCATION["epsilon"]), f"{sub(key)}.epsilon")
            cap = value.get("max_atoms")
            if cap is not None:
                cap = _as_int(cap, f"{sub(key)}.max_atoms")
            params[key] = {"epsilon": eps, "max_atoms": cap}
        elif key in ("density", "quadrature"):
            if not isinstance(value, dict):
                _fail(sub(key), "expected an object")
            merged = dict(_FAMILY_DEFAULTS["density"][key])
            _check_keys(value, set(merged), sub(key))
            for k, v in value.items():
                as_type = _as_int if k in ("grid_points", "n_start", "n_max") else _as_number
                merged[k] = as_type(v, f"{sub(key)}.{k}")
            if key == "density" and merged["grid_points"] < 2:
                _fail(sub(key), "grid needs at least 2 points")
            params[key] = merged
        elif key == "data":
            if value is not None and not isinstance(value, list):
                _fail(sub(key), "expected a list of numbers or null")
            params[key] = value and _as_numbers(value, sub(key))  # None or [] as given
        elif key == "data_file":
            if value is not None and not isinstance(value, str):
                _fail(sub(key), "expected a path string or null")
            if value and raw.get("data") is not None:
                _fail(sub(key), "give either data or data_file, not both")
            params[key] = value
            if value:
                params["data"] = None  # the file is the single source
    return params, _FAMILY_BUILDERS[family](params, sub, config_dir)


@dataclass
class ExperimentConfig:
    """A fully resolved, validated experiment configuration, with each
    family's call built from its params."""

    experiment: str
    seed: int
    output_dir: str
    family_params: dict[str, dict]
    calls: dict[str, Call] = field(default_factory=dict, repr=False, compare=False)

    def echo(self) -> dict:
        """The effective config: re-validates to an identical run."""
        out = {
            "schema_version": SCHEMA_VERSION,
            "experiment": self.experiment,
            "seed": self.seed,
            "output_dir": self.output_dir,
        }
        if self.experiment == "all":
            out["families"] = json.loads(json.dumps(self.family_params))
        else:
            out.update(json.loads(json.dumps(self.family_params[self.experiment])))
        return out


def validate_config(raw: dict, config_dir: Path | None = None) -> ExperimentConfig:
    """Validate a raw config dict by building every object a run would;
    raises ConfigError with the field path.  A relative ``data_file`` is
    read from ``config_dir`` (the working directory when None)."""
    if not isinstance(raw, dict):
        _fail("", "config must be a JSON object")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        _fail("schema_version", f"must be {SCHEMA_VERSION}")
    experiment = raw.get("experiment")
    if experiment not in FAMILIES + ("all",):
        _fail("experiment", f"must be one of {', '.join(FAMILIES + ('all',))}")
    if "seed" not in raw:
        _fail("seed", "required")
    seed = _as_int(raw["seed"], "seed")
    output_dir = raw.get("output_dir", "dplab-out")
    if not isinstance(output_dir, str) or not output_dir:
        _fail("output_dir", "expected a non-empty string")

    if experiment == "all":
        _check_keys(raw, _TOP_KEYS, "")
        families_raw = raw.get("families", {})
        if not isinstance(families_raw, dict):
            _fail("families", "expected an object keyed by family name")
        for name in families_raw:
            if name not in FAMILIES:
                _fail(f"families.{name}", "unknown experiment family")
        built = {
            name: _validate_family(name, families_raw.get(name, {}), f"families.{name}", config_dir)
            for name in FAMILIES
        }
    else:
        if "families" in raw:
            _fail("families", "only valid when experiment is 'all'")
        _check_keys(raw, (_TOP_KEYS - {"families"}) | _FAMILY_KEYS[experiment], "")
        flat = {k: v for k, v in raw.items() if k in _FAMILY_KEYS[experiment]}
        built = {experiment: _validate_family(experiment, flat, "", config_dir)}
    family_params = {name: params for name, (params, _) in built.items()}
    calls = {name: call for name, (_, call) in built.items()}
    return ExperimentConfig(experiment, seed, output_dir, family_params, calls)


def load_config(path: str | Path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("", f"not valid JSON: {exc}") from exc
    return validate_config(raw, Path(path).resolve().parent)


# ---------------------------------------------------------------------------
# Builders: validated params -> the family's call
# ---------------------------------------------------------------------------


def _make(path: str, build: Callable, *args, **kwargs):
    """``build(*args, **kwargs)``, with a rejection reported at ``path``."""
    try:
        return build(*args, **kwargs)
    except DplabError as exc:
        raise ConfigError(path, str(exc)) from exc


def _base(p: dict, sub) -> BaseMeasure:
    spec = dict(p["base_measure"])
    return _make(sub("base_measure"), _BASES[spec.pop("label")], **spec)


def _sets(p: dict, sub) -> list[BorelSet]:
    return [_make(f"{sub('sets')}[{i}]", BorelSet, s) for i, s in enumerate(p["sets"])]


def _trunc(p: dict, sub) -> TruncationPolicy:
    return _make(sub("truncation"), TruncationPolicy, **p["truncation"])


def _load_data(p: dict, sub, config_dir: Path | None) -> list[float]:
    if not p.get("data_file"):
        return list(p.get("data") or [])
    path = Path(p["data_file"])
    if config_dir is not None and not path.is_absolute():
        path = config_dir / path
    try:
        lines = path.read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        _fail(sub("data_file"), f"cannot read: {exc}")
    values = []
    for number, line in enumerate(lines, start=1):
        try:
            row = [float(token) for token in line.split()]
        except ValueError:
            row = [np.nan]  # reported below, like a non-finite value
        if not np.all(np.isfinite(row)):
            _fail(sub("data_file"), f"line {number}: expected finite numbers, got {line.strip()!r}")
        values += row
    return values


def _moments(p: dict, sub, config_dir) -> Call:
    _make(sub("replications"), verify.check_moment_replications, p["replications"])
    base, sets = _base(p, sub), _sets(p, sub)
    return lambda seed, stream, threads: verify.moment_check(
        p["a"], base, sets, p["replications"], seed, base_stream=stream
    )


def _fidi(p: dict, sub, config_dir) -> Call:
    sets = _sets(p, sub)
    return lambda seed, stream, threads: verify.fidi_normality_check(
        p["a"], sets, p["replications"], seed, base_stream=stream
    )


def _modulus(p: dict, sub, config_dir) -> Call:
    t = p["modulus"]
    _make(sub("modulus"), verify.check_modulus_points, t["t1"], t["t"], t["t2"])
    return lambda seed, stream, threads: verify.modulus_check(
        p["a"], t["t1"], t["t"], t["t2"], p["replications"], seed, base_stream=stream
    )


def _gc(p: dict, sub, config_dir) -> Call:
    _make(sub("a_values"), verify.check_a_values, p["a_values"], verify.MIN_GC_A_VALUES)
    base, trunc = _base(p, sub), _trunc(p, sub)
    return lambda seed, stream, threads: verify.gc_study(
        p["a_values"], base, p["replications"], p["gc_grid_resolution"], seed,
        trunc=trunc, threads=threads, base_stream=stream,
    )


def _quantile(p: dict, sub, config_dir) -> Call:
    _make(sub("a_values"), verify.check_a_values, p["a_values"])
    _make(sub("u_points"), verify.check_levels, p["u_points"])
    base, trunc = _base(p, sub), _trunc(p, sub)
    _make(sub("truncation"), verify.check_resolution, trunc)
    return lambda seed, stream, threads: verify.quantile_limit_study(
        p["a_values"], base, p["u_points"], p["replications"], seed, trunc=trunc,
        base_stream=stream,
    )


def _density(p: dict, sub, config_dir) -> Call:
    d, a_values = p["density"], p["a_values"]
    _make(sub("a_values"), verify.check_a_values, a_values)
    _make(sub("density"), BivariateGaussianSpec.from_cell_measures, d["l1"], d["l2"])
    grid = _make(sub("density"), Grid, np.linspace(d["grid_lo"], d["grid_hi"], d["grid_points"]))
    quad = _make(sub("quadrature"), QuadratureSpec, **p["quadrature"])

    def run(seed: int, stream: int, threads: int) -> verify.McSummary:
        # Computed here, where bench/tracing.py times them as their own layer.
        integrals = [bivariate_density_integral(d["l1"], d["l2"], a, quad) for a in a_values]
        return verify.density_convergence_study(d["l1"], d["l2"], a_values, grid, integrals, quad)

    return run


def _posterior(p: dict, sub, config_dir) -> Call:
    base, sets = _base(p, sub), _sets(p, sub)
    data = _load_data(p, sub, config_dir)
    return lambda seed, stream, threads: verify.posterior_check(
        p["a"], base, data, sets, p["replications"], seed, base_stream=stream
    )


# One builder per family: (params, field-path function, config directory) ->
# the family's call.  validate_config runs it and keeps the call for the run.
_FAMILY_BUILDERS: dict[str, Callable[..., Call]] = {
    "moments": _moments,
    "fidi": _fidi,
    "modulus": _modulus,
    "gc": _gc,
    "quantile": _quantile,
    "density": _density,
    "posterior": _posterior,
}


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class RunReport:
    """Everything one run produced, ready for emission: one
    ``verify.McSummary`` per family, which carries its verdict (``passed``),
    ``csv_tables()`` and ``to_json()``."""

    config_echo: dict
    results: dict[str, verify.McSummary]
    family_passed: dict[str, bool]
    overall_pass: bool
    wall_clock_seconds: float
    manifest: list[str] = field(default_factory=list)


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Run every configured family's call and collect results (no files
    written)."""
    start = time.perf_counter()
    threads = verify.resolve_threads()
    results = {
        family: call(config.seed, FAMILY_STREAM_BASE[family], threads)
        for family, call in config.calls.items()
    }
    family_passed = {family: result.passed for family, result in results.items()}
    return RunReport(
        config_echo=config.echo(),
        results=results,
        family_passed=family_passed,
        overall_pass=all(family_passed.values()),
        wall_clock_seconds=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def emit_report(report: RunReport, out_dir: str | Path) -> list[str]:
    """Write each result's CSV tables as ``<family>_<table>.csv`` plus the
    JSON summary; returns the manifest of files written (also recorded in
    the report)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest: list[str] = []
    for family, result in report.results.items():
        for table, (header, rows) in result.csv_tables().items():
            _write_csv(out / f"{family}_{table}.csv", header, rows)
            manifest.append(f"{family}_{table}.csv")

    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": report.config_echo,
        "results": {family: result.to_json() for family, result in report.results.items()},
        "family_passed": report.family_passed,
        "pass": report.overall_pass,
        "wall_clock_seconds": report.wall_clock_seconds,
        "manifest": manifest + ["report.json"],
    }
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest.append("report.json")
    report.manifest = manifest
    return manifest
