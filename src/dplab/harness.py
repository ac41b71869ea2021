"""Experiment harness: JSON configs in, CSV/JSON artifacts out.

Each family has one builder, which reads its config fields through
``_Fields`` (a field's default, type and rule sit on the line that reads
it) and returns the family's run.  ``validate_config`` runs the builders, so
it rejects whatever a run would, naming the field's path.
A run is deterministic given (config, seed): one master seed covers the whole
run and each experiment family owns a disjoint stream-index namespace.
Within it, a Dirichlet-marginal or quantile family draws leg l from stream
base + l, and a stick-breaking family gives replication r of leg l stream
base + l*R + r.
DPLAB_THREADS, the one thread setting, is checked when a run starts, so a
bad value exits 2 before any family runs, and is read by each replication
loop (``verify.map_replications``), clamped to the CPU count.  A loop fans
out only when its first replication filled at least
``verify.MIN_PARALLEL_ENTRIES`` doubles of scratch, which the config fixes.
Output writing is single-threaded after reduction, so artifacts are
byte-identical for any value of DPLAB_THREADS.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import verify
from .dp_core import (
    BaseMeasure,
    BorelSet,
    bisection_depth,
    check_concentration,
    check_resolution,
    exponential_base,
    normal_base,
    posterior_mean,
    stick_budget,
    uniform_base,
)
from .errors import ArgumentError, ConfigError, DplabError
from .processes import bivariate_density_integral, check_density_cells, limit_quantile_cov
from .rvgen import check_seed, check_shape

SCHEMA_VERSION = 1

# A family's built run: (master seed, stream base) -> result.
Call = Callable[[int, int], verify.McSummary]

_TOP_KEYS = {"schema_version", "experiment", "seed", "output_dir", "families"}

# Largest count field.  A replication count sizes arrays that are allocated
# whole, so a far larger count cannot run; it is rejected at its field, not
# inside numpy.
MAX_COUNT = 2**24
# Largest draw table of the moments and fidi families: replications x its
# columns (the segments the sets are cut into, or the sets, whichever are
# more), 2^26 doubles or 512 MiB.  MAX_COUNT replications over four fit.
_MAX_TABLE = 2**26


# ---------------------------------------------------------------------------
# Field conversions: (raw value, field path) -> the value echo() records
# ---------------------------------------------------------------------------


def _fail(path: str, message: str):
    raise ConfigError(path, message)


def _make(path: str, build: Callable, *args, **kwargs):
    """``build(*args, **kwargs)``, with a rejection reported at ``path``."""
    try:
        return build(*args, **kwargs)
    except DplabError as exc:
        raise ConfigError(path, str(exc)) from exc


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond float range
        value = np.inf
    if not np.isfinite(value):
        _fail(path, "must be finite")
    return value


def _numbers(value, path: str) -> list[float]:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a non-empty list")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    return value


def _count(value, path: str) -> int:
    if _int(value, path) < 2:
        _fail(path, "must be at least 2")
    if value > MAX_COUNT:
        _fail(path, f"must be at most MAX_COUNT = {MAX_COUNT}")
    return value


def _concentration(value, path: str) -> float:
    value = _number(value, path)
    _make(path, check_concentration, value)
    return value


def _intervals(value, path: str) -> list:
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
            intervals.append([_number(x, f"{path}[{i}][{j}][{k}]") for k, x in enumerate(pair)])
        out.append(intervals)
    return out


# Base-measure constructors and their numeric fields with defaults.
_BASES = {"uniform": uniform_base, "exponential": exponential_base, "normal": normal_base}
_BASE_FIELDS = {"uniform": {}, "exponential": {"rate": 1.0}, "normal": {"mu": 0.0, "sigma": 1.0}}


def _label(value, path: str) -> str:
    if not isinstance(value, str) or value not in _BASES:
        _fail(path, "must be one of uniform | exponential | normal")
    return value


def _data(value, path: str):
    if value is not None and not isinstance(value, list):
        _fail(path, "expected a list of numbers or null")
    return value and _numbers(value, path)  # None or [] as given


# ---------------------------------------------------------------------------
# Reading a config object
# ---------------------------------------------------------------------------


class _Fields:
    """One config object, read field by field.  Each read names the field's
    default and conversion and records the converted value in ``params``,
    which ``echo()`` writes back; ``done`` rejects every field no read asked
    for."""

    def __init__(self, raw, path: str):
        if not isinstance(raw, dict):
            _fail(path, "expected an object")
        self.raw, self.path = raw, path
        self.params: dict = {}
        self._nested: list[_Fields] = []

    def sub(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def read(self, key: str, default, convert: Callable):
        """``convert(value, path)`` of the field, or of ``default`` when it
        is absent."""
        self.params[key] = convert(self.raw.get(key, default), self.sub(key))
        return self.params[key]

    def obj(self, key: str, default: dict | None = None) -> _Fields:
        """A reader for the nested object ``key``; ``default`` (or an empty
        object) stands in when it is absent."""
        nested = _Fields(self.raw.get(key, default or {}), self.sub(key))
        self.params[key] = nested.params
        self._nested.append(nested)
        return nested

    def done(self) -> dict:
        for key in self.raw:
            if key not in self.params:
                _fail(self.sub(key), "unknown field")
        for nested in self._nested:
            nested.done()
        return self.params


def _read_base(f: _Fields) -> BaseMeasure:
    b = f.obj("base_measure", {"label": "uniform"})
    label = b.read("label", None, _label)
    kwargs = {k: b.read(k, d, _number) for k, d in _BASE_FIELDS[label].items()}
    return _make(f.sub("base_measure"), _BASES[label], **kwargs)


def _read_sets(f: _Fields, default: list) -> list[BorelSet]:
    sets = f.read("sets", default, _intervals)
    return [_make(f"{f.sub('sets')}[{i}]", BorelSet, s) for i, s in enumerate(sets)]


def _check_dirichlet(f: _Fields, a: float, measures) -> None:
    """Reject ``a`` when sample_fidi, given ``a`` and these cell measures,
    would draw a Dirichlet parameter a * H(A_j) below rvgen.MIN_SHAPE."""
    positive = [m for m in measures if m > 0.0]
    if len(positive) > 1:  # one positive cell draws nothing
        _make(f.sub("a"), check_shape, "a Dirichlet parameter of the run", a * min(positive))


def _check_cells(f: _Fields, a: float, r: int, sets: list[BorelSet], base: BaseMeasure) -> None:
    """Reject ``replications`` when the draw table would exceed _MAX_TABLE,
    and ``a`` when a Dirichlet parameter of its draws would be too small."""
    cells = np.diff(base.cdf(verify.cut_points(sets, base)))  # refine_to_partition's measures
    width = max(cells.size, len(sets))
    if r * width > _MAX_TABLE:
        _fail(f.sub("replications"), f"replications x {width} columns must be at most {_MAX_TABLE}")
    _check_dirichlet(f, a, cells)


def _read_truncation(f: _Fields) -> float:
    """The ``truncation`` object's epsilon, 0 < epsilon < 1, for both families
    that read it; its ``max_atoms`` stays in the schema, null only."""
    t = f.obj("truncation")
    epsilon = _make(t.sub("epsilon"), check_resolution, t.read("epsilon", 1e-10, _number))
    if t.read("max_atoms", None, lambda v, p: v) is not None:
        _fail(t.sub("max_atoms"), "must be null; truncation stops on epsilon alone")
    return epsilon


# ---------------------------------------------------------------------------
# Builders: one per family, reading its own fields in echo order; value
# ranges are checked by the constructors and verify argument rules they call
# ---------------------------------------------------------------------------


def _moments(f: _Fields) -> Call:
    base, a = _read_base(f), f.read("a", 10.0, _concentration)
    sets = _read_sets(f, [[[0.0, 0.3]], [[0.3, 0.5]]])
    r = f.read("replications", 100000, _count)
    _make(f.sub("replications"), verify.check_moment_replications, r)
    _check_cells(f, a, r, sets, base)
    return lambda seed, stream: verify.moment_check(
        a, base, sets, r, seed, base_stream=stream
    )


def _fidi(f: _Fields) -> Call:
    a = f.read("a", 10000.0, _concentration)
    sets = _read_sets(f, [[[0.0, 0.25]], [[0.25, 0.5]], [[0.5, 1.0]]])
    r = f.read("replications", 10000, _count)
    _check_cells(f, a, r, sets, uniform_base())
    return lambda seed, stream: verify.fidi_normality_check(
        a, sets, r, seed, base_stream=stream
    )


def _modulus(f: _Fields) -> Call:
    a = f.read("a", 1.0, _concentration)
    m = f.obj("modulus")
    t1, t, t2 = (m.read(k, d, _number) for k, d in (("t1", 0.1), ("t", 0.4), ("t2", 0.9)))
    cells = _make(f.sub("modulus"), verify.check_modulus_points, t1, t, t2)
    _check_dirichlet(f, a, cells)
    r = f.read("replications", 100000, _count)
    return lambda seed, stream: verify.modulus_check(
        a, t1, t, t2, r, seed, base_stream=stream
    )


def _gc(f: _Fields) -> Call:
    base = _read_base(f)
    a_values = f.read("a_values", [10.0, 100.0, 1000.0, 10000.0], _numbers)
    _make(f.sub("a_values"), verify.check_a_values, a_values, verify.MIN_GC_A_VALUES)
    r = f.read("replications", 1000, _count)
    f.read("gc_grid_resolution", 512, _count)  # inert; read so existing configs validate and echo
    epsilon = _read_truncation(f)
    for i, a in enumerate(a_values):
        _make(f"{f.sub('a_values')}[{i}]", stick_budget, a, epsilon)
    return lambda seed, stream: verify.gc_study(
        a_values, base, r, seed, epsilon=epsilon, base_stream=stream
    )


def _quantile(f: _Fields) -> Call:
    base = _read_base(f)
    a_values = f.read("a_values", [10000.0, 1000000.0, 100000000.0], _numbers)
    _make(f.sub("a_values"), verify.check_a_values, a_values)
    u_points = f.read("u_points", [0.25, 0.5, 0.75], _numbers)
    _make(f.sub("u_points"), verify.check_levels, u_points)
    # Every limit covariance is finite once each h(H^-1(u))^2 is positive and
    # finite (at the quartiles, which every run uses, a failure is the base's),
    # and verify.mc_var_se's fourth powers of values within 8 limit SDs of each
    # variance target v stay finite while 8^4 v^2 does.
    q1, q2, q3 = (_make(f.sub("base_measure"), limit_quantile_cov, u, u, base)
                  for u in (0.25, 0.5, 0.75))
    variances = [q2, q1 + q3 - 2.0 * limit_quantile_cov(0.25, 0.75, base)]
    for i, u in enumerate(u_points):
        variances.append(_make(f"{f.sub('u_points')}[{i}]", limit_quantile_cov, u, u, base))
    if not all(np.isfinite(8.0**4 * v * v) for v in variances):
        _fail(f.sub("base_measure"), "too wide: its quantile deviations' fourth powers overflow")
    r = f.read("replications", 10000, _count)
    epsilon = _read_truncation(f)
    deepest = 2.0 ** -bisection_depth(epsilon)  # a * deepest: the smallest Beta shape drawn
    for i, a in enumerate(a_values):
        _make(f"{f.sub('a_values')}[{i}]", check_shape, "a deepest split's shape", a * deepest)
    return lambda seed, stream: verify.quantile_limit_study(
        a_values, base, u_points, r, seed, epsilon=epsilon, base_stream=stream
    )


def _density(f: _Fields) -> Call:
    d = f.obj("density")
    l1, l2 = d.read("l1", 1.0 / 3.0, _number), d.read("l2", 1.0 / 3.0, _number)
    _make(f.sub("density"), check_density_cells, l1, l2)
    a_values = f.read("a_values", [100.0, 1000.0, 10000.0], _numbers)
    _make(f.sub("a_values"), verify.check_a_values, a_values)
    for i, a in enumerate(a_values):
        _make(f"{f.sub('a_values')}[{i}]", verify.check_density_concentration, l1, l2, a)

    def run(seed: int, stream: int) -> verify.McSummary:
        # Computed here, where bench/tracing.py times them as their own layer.
        integrals = [bivariate_density_integral(l1, l2, a) for a in a_values]
        return verify.density_convergence_study(l1, l2, a_values, integrals)

    return run


def _posterior(f: _Fields) -> Call:
    base, a = _read_base(f), f.read("a", 2.0, _concentration)
    data = f.read("data", [0.2, 0.4, 0.6], _data)
    if f.read("data_file", None, lambda v, p: v) is not None:  # in the schema, null only
        _fail(f.sub("data_file"), "must be null; give the data inline under data")
    sets = _read_sets(f, [[[0.0, 0.3]], [[0.3, 0.6]], [[0.6, 1.0]]])
    sorted_data = np.sort(data or [])
    for s in sets:  # set S draws Dirichlet((a + n) H*(S), (a + n) (1 - H*(S)))
        m = posterior_mean(a, base, sorted_data, s)
        _check_dirichlet(f, a + sorted_data.size, [m, 1.0 - m])
    r = f.read("replications", 20000, _count)
    return lambda seed, stream: verify.posterior_check(
        a, base, list(data or []), sets, r, seed, base_stream=stream
    )


# One builder per family: the family's fields -> its run.  validate_config
# runs it and keeps the call for the run.
_BUILDERS: dict[str, Callable[[_Fields], Call]] = {
    "moments": _moments,
    "fidi": _fidi,
    "modulus": _modulus,
    "gc": _gc,
    "quantile": _quantile,
    "density": _density,
    "posterior": _posterior,
}

FAMILIES = tuple(_BUILDERS)

# Disjoint stream-index namespaces per family.
FAMILY_STREAM_BASE = {name: i << 40 for i, name in enumerate(FAMILIES)}


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


def check_output_dir(value) -> str:
    """``value`` as an output directory (``output_dir``, ``--out``): a
    non-empty string."""
    if not isinstance(value, str) or not value:
        raise ArgumentError("expected a non-empty string")
    return value


def validate_config(raw: dict) -> ExperimentConfig:
    """Validate a raw config dict by building every object a run would, from
    the dict alone (no file is read); raises ConfigError with the field
    path."""
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
    seed = _make("seed", check_seed, _int(raw["seed"], "seed"), "seed")
    output_dir = _make("output_dir", check_output_dir, raw.get("output_dir", "dplab-out"))

    if experiment == "all":
        for key in raw:
            if key not in _TOP_KEYS:
                _fail(key, "unknown field")
        families_raw = raw.get("families", {})
        if not isinstance(families_raw, dict):
            _fail("families", "expected an object keyed by family name")
        for name in families_raw:
            if name not in FAMILIES:
                _fail(f"families.{name}", "unknown experiment family")
        sources = {name: (families_raw.get(name, {}), f"families.{name}") for name in FAMILIES}
    else:
        if "families" in raw:
            _fail("families", "only valid when experiment is 'all'")
        sources = {experiment: ({k: v for k, v in raw.items() if k not in _TOP_KEYS}, "")}
    config = ExperimentConfig(experiment, seed, output_dir, {})
    for name, (family_raw, path) in sources.items():
        f = _Fields(family_raw, path)
        config.calls[name] = _BUILDERS[name](f)
        config.family_params[name] = f.done()  # with defaults filled in
    return config


def load_config(path: str | Path) -> ExperimentConfig:
    """The validated config at ``path``; an unreadable file is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("", f"cannot read: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError("", f"not valid UTF-8 JSON: {exc}") from exc
    return validate_config(raw)


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


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Run every configured family's call and collect results (no files
    written)."""
    start = time.perf_counter()
    verify.resolve_threads()  # a bad DPLAB_THREADS exits 2 before any family runs
    results = {
        family: call(config.seed, FAMILY_STREAM_BASE[family])
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


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)
    return buf.getvalue()


def _write_text(path: Path, text: str) -> None:
    """Write ``text`` as UTF-8 over ``path`` in place: one write, then a
    truncate at its length.  Opening an existing file with O_TRUNC frees its
    blocks, and ext4 (auto_da_alloc) then starts writeback when it closes, so
    the next rewrite waits on that flush; this one keeps the blocks."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(text.encode("utf-8"))
        fh.truncate()


def emit_report(report: RunReport, out_dir: str | Path) -> list[str]:
    """Write each result's CSV tables as ``<family>_<table>.csv`` plus the
    JSON summary, last; each file is rewritten in place (``_write_text``).
    Returns the manifest of files written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest: list[str] = []
    for family, result in report.results.items():
        for table, (header, rows) in result.csv_tables().items():
            _write_text(out / f"{family}_{table}.csv", _csv_text(header, rows))
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
    _write_text(out / "report.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    manifest.append("report.json")
    return manifest
