"""Harness: config validation, deterministic artifacts, CLI contract."""

import json
import os
import re
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dplab import (
    ConfigError,
    bivariate_density_integral,
    density_convergence_study,
    processes,
    validate_config,
    verify,
)
from dplab.cli import main as cli_main
from dplab.harness import (
    FAMILIES,
    FAMILY_STREAM_BASE,
    MAX_COUNT,
    _MAX_TABLE,
    emit_report,
    load_config,
    run_experiment,
)


def _config(**overrides):
    cfg = {
        "schema_version": 1,
        "experiment": "moments",
        "seed": 42,
        "a": 10.0,
        "replications": 2000,
        "sets": [[[0.0, 0.3]], [[0.3, 0.5]]],
    }
    cfg.update(overrides)
    return cfg


# A config whose run fails on its own: at a = 4.5 each default cell has
# a * l = 1.5, and the TV quadrature stops at N_MAX.
FAILING = {"schema_version": 1, "experiment": "density", "seed": 42, "a_values": [4.5]}


# A density config whose third cell, 1 - 0.05 - 0.9, gives a * l3 <= 1 at
# a = 2 and 10: validation rejects it at a_values[0].
_UNBOUNDED_DENSITY = {"density": {"l1": 0.05, "l2": 0.9}, "a_values": [2.0, 10.0, 100.0]}


def _run_to_dir(cfg, out):
    config = validate_config(cfg)
    report = run_experiment(config)
    emit_report(report, out)
    return report


class TestConfigValidation:
    def test_minimal_config_fills_defaults(self):
        config = validate_config({"schema_version": 1, "experiment": "gc", "seed": 1})
        params = config.family_params["gc"]
        assert params["a_values"] == [10.0, 100.0, 1000.0, 10000.0]
        assert params["truncation"]["epsilon"] == 1e-10
        config = validate_config({"schema_version": 1, "experiment": "quantile", "seed": 1})
        assert config.family_params["quantile"]["a_values"] == [1e4, 1e6, 1e8]

    @pytest.mark.parametrize(
        "bad, path, fixed",
        [
            ({"replications": 500}, "replications", {"replications": 1000}),
            (
                {"experiment": "gc", "a_values": [10.0], "replications": 20},
                "a_values",
                {"a_values": [10.0, 100.0]},
            ),
            ({"sets": [[[0.0, 0.5], [0.3, 0.8]]]}, "sets[0]", {"sets": [[[0.0, 0.3], [0.5, 0.8]]]}),
            (
                {"experiment": "gc", "a_values": [10.0, 100.0], "replications": 20,
                 "truncation": {"epsilon": 2.0}},
                "truncation.epsilon",
                {"truncation": {"epsilon": 1e-10}},
            ),
        ],
    )
    def test_rejects_what_a_run_would(self, bad, path, fixed):
        cfg = _config(**bad)
        if cfg["experiment"] == "gc":
            del cfg["a"], cfg["sets"]
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert err.value.path == path
        cfg.update(fixed)
        report = run_experiment(validate_config(cfg))
        assert list(report.results) == [cfg["experiment"]]

    def test_partial_modulus_takes_field_defaults(self):
        config = validate_config({"schema_version": 1, "seed": 1, "experiment": "modulus",
                                  "modulus": {"t1": 0.2}})
        assert config.echo()["modulus"] == {"t1": 0.2, "t": 0.4, "t2": 0.9}

    def test_settable_fields_per_family(self):
        """Every field path a family's default config echoes: a new knob
        shows up here as a diff."""

        def paths(obj, prefix=""):
            for key, value in obj.items():
                if isinstance(value, dict):
                    yield from paths(value, f"{prefix}{key}.")
                else:
                    yield prefix + key

        echo = validate_config({"schema_version": 1, "experiment": "all", "seed": 1}).echo()
        assert {family: set(paths(params)) for family, params in echo["families"].items()} == {
            "moments": {"base_measure.label", "a", "sets", "replications"},
            "fidi": {"a", "sets", "replications"},
            "modulus": {"a", "modulus.t1", "modulus.t", "modulus.t2", "replications"},
            "gc": {"base_measure.label", "a_values", "replications", "gc_grid_resolution",
                   "truncation.epsilon", "truncation.max_atoms"},
            "quantile": {"base_measure.label", "a_values", "u_points", "replications",
                         "truncation.epsilon", "truncation.max_atoms"},
            "density": {"density.l1", "density.l2", "a_values"},
            "posterior": {"base_measure.label", "a", "data", "data_file", "sets", "replications"},
        }

    def test_echo_revalidates_to_same_params(self):
        for cfg in (_config(), {"schema_version": 1, "experiment": "all", "seed": 3}):
            config = validate_config(cfg)
            again = validate_config(config.echo())
            assert again.family_params == config.family_params
            assert again.seed == config.seed

    def test_largest_seed_validates(self):
        assert validate_config(_config(seed=2**64 - 1)).seed == 2**64 - 1

    def test_readme_configs_validate(self):
        """Every ```json block of README.md is a config that validates."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"^```json\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
        assert blocks
        for block in blocks:
            validate_config(json.loads(block))


def _family(experiment, **fields):
    return {"schema_version": 1, "seed": 1, "experiment": experiment, **fields}


_MIN_SHAPE = "must be finite and at least MIN_SHAPE"
_A_VALUES_RULE = "a_values must be finite, positive, strictly increasing"

# Every config that fails at load, as (config, field, message): the config
# reader names ``field`` and its error text holds ``message``.
CONFIG_FAULTS = [
    pytest.param(_config(bogus=1), "bogus", "unknown field", id="top_level_unknown"),
    pytest.param(_config(truncation={"epsilon": 1e-10}), "truncation", "unknown field",
                 id="nested_unknown"),  # not a moments field
    pytest.param([1, 2], "", "config must be a JSON object", id="not_an_object"),
    pytest.param({"experiment": "moments", "seed": 1}, "schema_version", "must be 1",
                 id="no_schema_version"),
    pytest.param({"schema_version": 1, "experiment": "nope", "seed": 1}, "experiment",
                 "must be one of moments, fidi", id="bad_experiment"),
    pytest.param({"schema_version": 1, "experiment": "moments"}, "seed", "required",
                 id="no_seed"),
    # Seeds that agree modulo 2^64 would run the same streams.
    *(pytest.param(_config(seed=seed), "seed",
                   f"seed must be an integer in [0, 2^64), got {seed}", id=f"seed_{label}")
      for seed, label in ((-1, "-1"), (2**64, "2^64"), (1 + 2**64, "2^64+1"))),
    pytest.param(_config(output_dir=""), "output_dir", "expected a non-empty string",
                 id="output_dir_empty"),
    pytest.param(_config(output_dir=5), "output_dir", "expected a non-empty string",
                 id="output_dir_number"),
    pytest.param(_config(families={}), "families", "only valid when experiment is 'all'",
                 id="families_without_all"),
    pytest.param(_family("all", families=[]), "families", "expected an object",
                 id="families_list"),
    pytest.param(_family("all", families={"bogus": {}}), "families.bogus",
                 "unknown experiment family", id="families_bogus"),
    *(pytest.param(_family("all", families={"gc": value}), "families.gc", "expected an object",
                   id=f"family_value_{value!r}")
      for value in (None, 5, [{}], "x")),
    # No family reads a settable tolerance, quadrature setting or density gap
    # grid: the pass rule is pinned.
    *(pytest.param(_family(experiment, **fields), field, "unknown field",
                   id=f"{experiment}_{field}")
      for experiment, fields, field in [
          ("gc", {"tolerance_overrides": {"moment": 2.0}}, "tolerance_overrides"),
          ("modulus", {"tolerance_overrides": {"mean": 1e-9}}, "tolerance_overrides"),
          ("all", {"families": {"density": {"tolerance_overrides": {}}}},
           "families.density.tolerance_overrides"),
          ("all", {"tolerance_overrides": {"mean": 2.0}}, "tolerance_overrides"),
          ("all", {"families": {"moments": {"tolerance_overrides": {}}}},
           "families.moments.tolerance_overrides"),
          ("density", {"quadrature": {"tol": 1e-9}}, "quadrature"),
          ("all", {"families": {"density": {"quadrature": {}}}}, "families.density.quadrature"),
          *(("density", {"density": {key: 0}}, f"density.{key}")
            for key in ("grid_lo", "grid_hi", "grid_points")),
          *(("all", {"families": {"density": {"density": {key: 0}}}},
             f"families.density.density.{key}")
            for key in ("grid_lo", "grid_hi", "grid_points")),
      ]),
    # JSON integers beyond float range
    pytest.param(_config(a=10**400), "a", "must be finite", id="a_beyond_float"),
    pytest.param(_family("gc", a_values=[10.0, 10**400]), "a_values[1]", "must be finite",
                 id="a_values_beyond_float"),
    pytest.param(_config(base_measure={"label": "exponential", "rate": 10**400}),
                 "base_measure.rate", "must be finite", id="rate_beyond_float"),
    *(pytest.param(_family(family, base_measure={"label": label}), "base_measure.label",
                   "must be one of uniform | exponential | normal", id=f"{family}_label_{kind}")
      for family in ("moments", "gc", "quantile", "posterior")
      for label, kind in (([], "list"), ({}, "object"))),
    pytest.param(_config(base_measure={"label": "exponential", "rate": 0}), "base_measure",
                 "exponential rate must be positive", id="rate_0"),
    pytest.param(_config(base_measure={"label": "normal", "sigma": 0}), "base_measure",
                 "normal base needs finite mu and positive sigma", id="sigma_0"),
    pytest.param(_config(replications=1), "replications", "must be at least 2",
                 id="replications_1"),
    # A count whose arrays could not be allocated.
    *(pytest.param(_family(family, **{key: value}), key, "must be at most MAX_COUNT",
                   id=f"{family}_{key}_over_max_count")
      for family, key, value in [
          ("moments", "replications", 10**21),
          ("gc", "replications", 10**17),
          ("quantile", "replications", 10**14),
          ("posterior", "replications", 10**15),
          ("fidi", "replications", 4 * 10**9),
          ("gc", "gc_grid_resolution", 10**12),
      ]),
    # MAX_COUNT replications over 100 sets (101 cells) would ask numpy for
    # 12.6 GiB per table.
    *(pytest.param(_family(family, sets=[[[i / 200, (i + 1) / 200]] for i in range(100)],
                           replications=MAX_COUNT),
                   "replications", "replications x 101 columns must be at most",
                   id=f"{family}_draw_table")
      for family in ("moments", "fidi")),
    pytest.param(_family("modulus", modulus={"t1": 0.5, "t": 0.4, "t2": 0.9}), "modulus",
                 "need 0 <= t1 <= t <= t2 <= 1", id="modulus_points"),
    pytest.param(_family("posterior", a=0.0), "a", "concentration a must be positive",
                 id="posterior_a_0"),
    # The posterior's data is given inline: data_file stays in the schema,
    # null only, so a config carries everything its run reads.
    pytest.param(_family("posterior", data=None, data_file="x.txt"), "data_file",
                 "must be null; give the data inline under data", id="posterior_data_file"),
    # A gamma shape below rvgen.MIN_SHAPE, whose boosted log draw would
    # overflow to -inf: a Dirichlet parameter a H(A) ...
    *(pytest.param(_family(family, a=a), "a", f"a Dirichlet parameter of the run {_MIN_SHAPE}",
                   id=f"{family}_a_{a!r}")
      for family in ("moments", "fidi", "modulus", "posterior")
      for a in (1e-320, 1e-310)),
    pytest.param(_family("all", families={"posterior": {"a": 1e-320}}), "families.posterior.a",
                 "a Dirichlet parameter", id="all_posterior_a_1e-320"),
    # ... or a deepest bisection split's a 2^-K, K = 34 at epsilon 1e-10 ...
    *(pytest.param(_family("quantile", a_values=a_values), "a_values[0]",
                   f"a deepest split's shape {_MIN_SHAPE}", id=f"quantile_a_{a_values[0]!r}")
      for a_values in ([1e-320, 1e-310], [1e-300, 1e-290])),
    # ... or a stick-breaking concentration, whose sticks' log(U) / a would
    # overflow.
    pytest.param(_family("gc", a_values=[1e-320, 1e-310]), "a_values[0]",
                 f"a stick-breaking concentration {_MIN_SHAPE}", id="gc_a_1e-320"),
    # A gc draw that could not be allocated.
    pytest.param(_family("gc", replications=10, a_values=[10.0, 1e15]), "a_values[1]",
                 "a stick-breaking draw at a = 1e+15 needs more than MAX_STICKS",
                 id="stick_budget_a"),
    pytest.param(_family("gc", replications=10, a_values=[10.0, 1e6],
                         truncation={"epsilon": 1e-300}), "a_values[1]",
                 "a stick-breaking draw at a = 1e+06 needs more than MAX_STICKS",
                 id="stick_budget_epsilon"),
    # Truncation stops on epsilon alone: a max_atoms other than null is
    # rejected by either family that reads it, and epsilon by the one
    # resolution rule, which no max_atoms makes valid.
    *(pytest.param(_family(family, truncation={"epsilon": 1e-10, "max_atoms": 1000}),
                   "truncation.max_atoms", "must be null", id=f"{family}_max_atoms")
      for family in ("gc", "quantile")),
    *(pytest.param(_family(family, truncation={"epsilon": epsilon, "max_atoms": max_atoms}),
                   "truncation.epsilon", "epsilon must satisfy 0 < epsilon < 1",
                   id=f"{family}_epsilon_{epsilon:g}_max_atoms_{max_atoms}")
      for family in ("gc", "quantile")
      for max_atoms in (None, 1000)
      for epsilon in (0.0, -1.0, 1.0)),
    pytest.param(_family("all", families={"gc": {"truncation": {"epsilon": 2.0}}}),
                 "families.gc.truncation.epsilon", "epsilon must satisfy 0 < epsilon < 1",
                 id="all_gc_epsilon"),
    pytest.param(_family("quantile", a_values=[100.0, 10.0]), "a_values", _A_VALUES_RULE,
                 id="quantile_a_values_decreasing"),
    pytest.param(_family("quantile", u_points=[0.5, 1.5]), "u_points",
                 "u_points must lie strictly inside (0, 1)", id="u_points_outside"),
    pytest.param(_family("quantile", u_points=[0.5, 0.5]), "u_points",
                 "u_points must be distinct", id="u_points_repeated"),
    pytest.param(_family("all", families={"quantile": {"u_points": [0.5, 1.0]}}),
                 "families.quantile.u_points", "u_points must lie strictly inside (0, 1)",
                 id="all_quantile_u_points"),
    # A base density product h(H^-1(u)) h(H^-1(v)) that underflows to 0 or
    # overflows to inf leaves no finite limit covariance to compare with ...
    *(pytest.param(_family("quantile", a_values=[100], replications=50, **fields), field,
                   "base density product", id=f"quantile_product_{name}")
      for name, fields, field in [
          ("u_1e-200", {"base_measure": {"label": "normal"}, "u_points": [0.5, 1e-200]},
           "u_points[1]"),
          ("sigma_1e200", {"base_measure": {"label": "normal", "sigma": 1e200}}, "base_measure"),
          ("rate_1e-300", {"base_measure": {"label": "exponential", "rate": 1e-300}},
           "base_measure"),
          ("rate_1e300", {"base_measure": {"label": "exponential", "rate": 1e300}},
           "base_measure"),
      ]),
    # ... and a base so wide that the fourth powers of the variance checks'
    # scaled deviations would overflow (verify.mc_var_se) would warn and fail
    # on inf or NaN standard errors.
    *(pytest.param(_family("quantile", a_values=[100], replications=50, base_measure=base),
                   "base_measure", "too wide", id=f"quantile_{base['label']}_too_wide")
      for base in ({"label": "normal", "sigma": 1e77}, {"label": "exponential", "rate": 1e-77})),
    pytest.param(_family("density", a_values=[0.0, 10.0]), "a_values", _A_VALUES_RULE,
                 id="density_a_values_0"),
    # Beyond a = 1e20 the exact density's rounding, about sqrt(a) 2^-52
    # relative, would decide the verdict.
    *(pytest.param(_family("density", a_values=a_values), f"a_values[{len(a_values) - 1}]",
                   "a must be at most 1e+20", id=f"density_a_{a_values[-1]:g}")
      for a_values in ([1e10, 1e21], [1e30])),
    # At a * l <= 1 for a cell measure l the exact density is unbounded at
    # that cell's edge, and the quadrature could only stop at N_MAX.
    pytest.param(_family("density", **_UNBOUNDED_DENSITY), "a_values[0]",
                 "a * min(l1, l2, 1 - l1 - l2) must exceed 1", id="density_unbounded"),
    pytest.param(_family("all", families={"density": _UNBOUNDED_DENSITY}),
                 "families.density.a_values[0]", "a * min(l1, l2, 1 - l1 - l2) must exceed 1",
                 id="all_density_unbounded"),
]


def _no_stream(*args):
    raise AssertionError("a random stream was opened")


@pytest.mark.parametrize("cfg, field, message", CONFIG_FAULTS)
def test_config_fault_exits_2(tmp_path, capsys, monkeypatch, cfg, field, message):
    """The exit-2 contract: validation raises ConfigError at ``field``;
    ``dplab validate`` and ``dplab run`` exit 2 with ``field: message`` on
    stderr and no traceback; no stream is opened and nothing is written."""
    monkeypatch.setattr(verify, "RngStream", _no_stream)
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert err.value.path == field and message in str(err.value)
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(cfg))
    for argv in (["validate"], ["run", "--out", str(out)]):
        assert cli_main([*argv, "--config", str(path)]) == 2
        stderr = capsys.readouterr().err
        assert str(ConfigError(field, message)) in stderr and "Traceback" not in stderr
    assert not out.exists()


# Arbitrary JSON values.  Integers stay in [-3, 10^4], which straddles every
# integer field's lower bound (2 replications, 1,000 for moments; 1 atom).
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**4) | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


def _field_paths(value, path=()):
    """Every field and list element inside ``value``, as key paths."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _field_paths(child, path + (key,))


class TestValidationProperty:
    @pytest.mark.parametrize("family", FAMILIES)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_only_config_errors_at_the_field(self, family, data):
        """One arbitrary JSON value in one field of a family's default config
        either validates or raises ConfigError at that field's top-level key."""
        cfg = validate_config({"schema_version": 1, "experiment": family, "seed": 1}).echo()
        fields = validate_config(cfg).family_params[family]
        path = data.draw(st.sampled_from(list(_field_paths(fields))))
        holder = cfg
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = data.draw(_json_values)
        try:
            validate_config(cfg)
        except ConfigError as err:
            # The density family's joint rule on a cell measure and a
            # concentration names the concentration, whichever field broke it.
            joint = err.path.startswith("a_values[") and "min(l1, l2, 1 - l1 - l2)" in str(err)
            assert err.path.startswith(path[0]) or joint, (err.path, path)


# A small config per family, for the round trip.
_ROUND_TRIP = {
    "moments": {"replications": 1000},
    "fidi": {"a": 100.0, "replications": 500},
    "modulus": {"replications": 1000},
    "gc": {"a_values": [10.0, 100.0], "replications": 20},
    "quantile": {"a_values": [100.0], "replications": 200},
    "density": {"a_values": [100.0, 1000.0]},
    "posterior": {"data": [0.2, 0.4, 0.6], "replications": 1000},
}


class TestRunAndEmit:
    def test_summary_csv_written(self, tmp_path):
        report = run_experiment(validate_config(_config()))
        manifest = emit_report(report, tmp_path)
        assert report.overall_pass
        text = (tmp_path / "moments_summary.csv").read_text()
        assert text.startswith("kind,name,estimate,se,target,tolerance_se,one_sided,passed")
        assert "report.json" in manifest

    def test_rerun_is_byte_identical(self, tmp_path):
        """A rerun writes the same CSVs.  Into the first run's directory, with
        each file grown with junk meanwhile, it rewrites every file in place:
        each keeps its inode and ends up with the bytes that the same report
        writes into a fresh directory, so no junk is left past its end."""
        out, fresh = tmp_path / "one", tmp_path / "two"
        _run_to_dir(_config(), out)
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        for name, data in first.items():
            (out / name).write_bytes(b"junk," * len(data))
        inodes = {p.name: p.stat().st_ino for p in out.iterdir()}
        report = run_experiment(validate_config(_config()))
        emit_report(report, out)
        emit_report(report, fresh)
        rerun = {p.name: p.read_bytes() for p in out.iterdir()}
        assert rerun == {p.name: p.read_bytes() for p in fresh.iterdir()}
        assert {p.name: p.stat().st_ino for p in out.iterdir()} == inodes
        csvs = [name for name in first if name.endswith(".csv")]
        assert csvs and all(rerun[name] == first[name] for name in csvs)

    def test_thread_count_does_not_change_artifacts(self, tmp_path, monkeypatch):
        """A gc run whose legs both fan out writes the same artifacts on one
        thread and on two."""
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        sampler, ran_on = verify.stick_breaking_sample, {}

        def recording(a, *args):
            ran_on.setdefault(a, set()).add(threading.get_ident())
            return sampler(a, *args)

        monkeypatch.setattr(verify, "stick_breaking_sample", recording)
        cfg = {"schema_version": 1, "experiment": "gc", "seed": 42, "replications": 8,
               "a_values": [1000.0, 10000.0], "gc_grid_resolution": 64}
        path = tmp_path / "gc.json"
        path.write_text(json.dumps(cfg))
        out, caller, runs = tmp_path / "out", threading.get_ident(), []
        for threads in ("1", "2"):
            monkeypatch.setenv("DPLAB_THREADS", threads)
            ran_on.clear()
            rc = cli_main(["run", "--config", str(path), "--out", str(out)])
            fanned = {a: bool(ids - {caller}) for a, ids in ran_on.items()}
            assert fanned == {1000.0: threads == "2", 10000.0: threads == "2"}
            report = json.loads((out / "report.json").read_text())
            del report["wall_clock_seconds"]
            csvs = {p.name: p.read_bytes() for p in out.glob("*.csv")}
            runs.append((rc, report, csvs))
        assert runs[0][2] and runs[0] == runs[1]

    def test_gc_curve_csv_contract(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "experiment": "gc",
            "seed": 42,
            "a_values": [10.0, 100.0],
            "replications": 150,
        }
        report = _run_to_dir(cfg, tmp_path)
        lines = (tmp_path / "gc_curve.csv").read_text().splitlines()
        assert lines[0] == "a,mean_sup,se_sup,mean_cvm,se_cvm"
        assert len(lines) == 3  # header + one row per a
        payload = json.loads((tmp_path / "report.json").read_text())
        assert "fitted_rate" in payload["results"]["gc"]
        assert report.family_passed["gc"]

    def test_density_gap_csv_contract(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "experiment": "density",
            "seed": 42,
            "a_values": [100.0, 1000.0],
        }
        _run_to_dir(cfg, tmp_path)
        lines = (tmp_path / "density_gap.csv").read_text().splitlines()
        assert lines[0] == "a,max_gap,tv_distance,quad_error"
        assert len(lines) == 3

    def test_density_run_matches_criterion_9_numerics(self):
        """dplab run's density family computes exactly what criterion 9 does."""
        cfg = {"schema_version": 1, "experiment": "density", "seed": 1}
        run = run_experiment(validate_config(cfg)).results["density"]
        a_values = [1e2, 1e3, 1e4]
        direct = density_convergence_study(
            1 / 3, 1 / 3, a_values,
            [bivariate_density_integral(1 / 3, 1 / 3, a) for a in a_values],
        )
        assert run.estimates == direct.estimates
        assert run.tables == direct.tables
        assert run.passed and direct.passed

    def test_every_family_reports_seed_info_and_pass(self, tmp_path):
        """gc consumed streams base .. base + n_a*R - 1; density draws nothing."""
        cfg = {
            "schema_version": 1,
            "experiment": "all",
            "seed": 9,
            "families": {
                "gc": {"a_values": [10.0, 100.0, 1000.0], "replications": 20},
                "quantile": {"replications": 200},
                "density": {"a_values": [100.0, 1000.0]},
            },
        }
        _run_to_dir(cfg, tmp_path)
        results = json.loads((tmp_path / "report.json").read_text())["results"]
        for family in FAMILIES:
            assert isinstance(results[family]["pass"], bool), family
            assert "seed_info" in results[family], family
        base = FAMILY_STREAM_BASE["gc"]
        assert results["gc"]["seed_info"] == {
            "master_seed": 9, "stream_range": [base, base + 3 * 20 - 1]
        }
        assert results["density"]["seed_info"] is None

    def test_posterior_report_includes_a_star(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "experiment": "posterior",
            "seed": 42,
            "a": 2.0,
            "data": [0.2, 0.4, 0.6],
            "replications": 2000,
        }
        _run_to_dir(cfg, tmp_path)
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["results"]["posterior"]["estimates"]["a_star"] == [5.0, 0.0]

    def test_unconverged_quadrature_fails_density(self, tmp_path, monkeypatch):
        cfg = {"schema_version": 1, "experiment": "density", "seed": 42, "a_values": [1000.0]}
        _run_to_dir(cfg, tmp_path / "default")
        default = json.loads((tmp_path / "default" / "report.json").read_text())
        assert default["family_passed"]["density"]
        assert "comparison,unconverged_quadratures,0,0,0,0,false,true" in (
            tmp_path / "default" / "density_summary.csv"
        ).read_text()

        # At tol 1e-9 the TV quadrature stops at N_MAX.
        monkeypatch.setattr(processes, "QUAD_TOL", 1e-9)
        report = _run_to_dir(cfg, tmp_path / "strict")
        assert not report.family_passed["density"]
        # the TV quadrature stops at n_max; the integral still converges
        assert "comparison,unconverged_quadratures,1,0,0,0,false,false" in (
            tmp_path / "strict" / "density_summary.csv"
        ).read_text()

    def test_failing_check_fails_run(self, tmp_path):
        report = _run_to_dir(FAILING, tmp_path)
        assert not report.overall_pass
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["pass"] is False

    def test_manifest_matches_written_files(self, tmp_path):
        manifest = emit_report(run_experiment(validate_config(_config())), tmp_path)
        on_disk = sorted(p.name for p in tmp_path.iterdir())
        assert sorted(manifest) == on_disk

    @pytest.mark.parametrize("family", FAMILIES)
    def test_round_trip_reproduces_run(self, tmp_path, monkeypatch, family):
        """report.json's config, saved beside its report, reruns from another
        directory to the same CSVs, byte for byte."""
        fields = _ROUND_TRIP[family]
        path, first, second = tmp_path / "config.json", tmp_path / "first", tmp_path / "second"
        path.write_text(json.dumps({"schema_version": 1, "experiment": family, "seed": 7,
                                    **fields}))
        rc = cli_main(["run", "--config", str(path), "--out", str(first)])
        echo = json.loads((first / "report.json").read_text())["config"]
        (first / "config.json").write_text(json.dumps(echo))
        monkeypatch.chdir(first)
        assert cli_main(["run", "--config", "config.json", "--out", str(second)]) == rc
        csvs = {p.name: p.read_bytes() for p in first.glob("*.csv")}
        assert csvs and csvs == {p.name: p.read_bytes() for p in second.glob("*.csv")}


class TestCli:
    def _write(self, tmp_path, cfg):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "schema_version: 1" in out
        for family in ("moments", "gc", "quantile", "all"):
            assert family in out

    def test_validate_ok(self, tmp_path, capsys):
        path = self._write(tmp_path, _config())
        assert cli_main(["validate", "--config", path]) == 0
        assert "config OK" in capsys.readouterr().out

    def test_run_pass_exit_zero(self, tmp_path, capsys):
        path = self._write(tmp_path, _config())
        rc = cli_main(["run", "--config", path, "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "[PASS] moments" in capsys.readouterr().out

    def test_run_failing_exit_one(self, tmp_path, capsys):
        path = self._write(tmp_path, FAILING)
        rc = cli_main(["run", "--config", path, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "[FAIL] density" in capsys.readouterr().out
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert payload["pass"] is False

    def test_seed_override_changes_results(self, tmp_path):
        path = self._write(tmp_path, _config())
        cli_main(["run", "--config", path, "--out", str(tmp_path / "a"), "--seed", "1"])
        cli_main(["run", "--config", path, "--out", str(tmp_path / "b"), "--seed", "2"])
        a = (tmp_path / "a" / "moments_summary.csv").read_bytes()
        b = (tmp_path / "b" / "moments_summary.csv").read_bytes()
        assert a != b

    def _assert_clean_exit_2(self, capsys, rc, *needles):
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        for needle in needles:
            assert needle in err

    def test_density_at_large_concentration_passes_without_warnings(self, tmp_path, capsys):
        cfg = {"schema_version": 1, "seed": 1, "experiment": "density",
               "a_values": [1e4, 1e8, 1e12, 1e16, 1e20]}
        path = self._write(tmp_path, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli_main(["run", "--config", path, "--out", str(tmp_path / "out")])
        assert rc == 0 and "[PASS] density" in capsys.readouterr().out

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(_config()).encode("utf-16-le"))
        rc = cli_main(["validate", "--config", str(path)])
        self._assert_clean_exit_2(capsys, rc, "not valid UTF-8 JSON")
        rc = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        self._assert_clean_exit_2(capsys, rc, "not valid UTF-8 JSON")

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        """A config path that cannot be opened is a config error."""
        with pytest.raises(ConfigError) as err:
            load_config(tmp_path)
        assert err.value.path == "" and str(err.value).startswith("cannot read: ")
        for argv in (["validate"], ["run", "--out", str(tmp_path / "out")]):
            rc = cli_main([*argv, "--config", str(tmp_path)])
            self._assert_clean_exit_2(capsys, rc, "config error: cannot read: ")
        assert not (tmp_path / "out").exists()

    def test_unwritable_output_dir_exits_2(self, tmp_path, capsys, monkeypatch):
        """An output_dir under a regular file fails the run before it draws."""
        monkeypatch.setattr(verify, "RngStream", _no_stream)
        (tmp_path / "file").write_text("")
        path = self._write(tmp_path, _config(output_dir=str(tmp_path / "file" / "out")))
        rc = cli_main(["run", "--config", path])
        self._assert_clean_exit_2(capsys, rc, "run failed: ")

    def test_max_count_itself_validates(self):
        validate_config(_config(replications=MAX_COUNT))

    def test_many_sets_validate_quickly(self):
        """4,000 sets cut into 4,000 segments: the draw-table rule needs only
        the sorted cut points, so validation takes well under a second (17.5 s
        on a 2-core machine when each set was tested against each cell)."""
        sets = [[[i / 4000, (i + 1) / 4000]] for i in range(4000)]
        cfg = {"schema_version": 1, "seed": 1, "experiment": "fidi", "sets": sets}
        start = time.perf_counter()
        validate_config(cfg)
        assert time.perf_counter() - start < 5.0
        with pytest.raises(ConfigError, match="replications x 4000 columns"):
            validate_config({**cfg, "replications": _MAX_TABLE // 4000 + 1})

    @pytest.mark.parametrize("family", ["moments", "fidi"])
    def test_draw_table_limit_is_inclusive(self, family):
        sets = [[[0.0, 0.2]], [[0.2, 0.4]], [[0.4, 0.6]], [[0.6, 0.8]]]  # five cells
        largest = _MAX_TABLE // 5
        families = {family: {"sets": sets, "replications": largest}}
        validate_config({"schema_version": 1, "seed": 1, "experiment": "all", "families": families})
        families[family]["replications"] += 1
        with pytest.raises(ConfigError, match=f"families.{family}.replications: "):
            validate_config(
                {"schema_version": 1, "seed": 1, "experiment": "all", "families": families}
            )

    @pytest.mark.parametrize(
        "family, fields",
        [
            ("moments", {"a": 1e-300}),
            ("fidi", {"a": 1e-300}),
            ("modulus", {"a": 1e-300}),
            ("posterior", {"a": 1e-300}),
            ("quantile", {"a_values": [1e-290, 1e-280]}),
            ("gc", {"a_values": [1e-305, 1e-300]}),
            # one positive cell draws nothing, so no shape is checked
            ("moments", {"a": 1e-320, "sets": [[[0.0, 1.0]]]}),
        ],
    )
    def test_smallest_drawable_concentrations_run_finite(self, family, fields):
        """Above the floor every estimate is finite."""
        cfg = {"schema_version": 1, "seed": 1, "experiment": family, "replications": 1000,
               **fields}
        report = run_experiment(validate_config(cfg))
        estimates = report.results[family].estimates.values()
        assert all(np.isfinite(v) and np.isfinite(se) for v, se in estimates)

    def test_largest_paper_concentration_is_within_the_stick_budget(self):
        """a = 10^6 at epsilon 1e-10 (about 2.4e7 sticks) still validates."""
        validate_config({"schema_version": 1, "seed": 1, "experiment": "gc",
                         "a_values": [10.0, 1e6]})

    @pytest.mark.parametrize("seed", ["-1", str(1 + 2**64)])
    def test_seed_flag_outside_64_bits_exits_2(self, tmp_path, capsys, seed):
        path = self._write(tmp_path, _config())
        with pytest.raises(SystemExit) as exit_:
            cli_main(["run", "--config", path, "--out", str(tmp_path / "out"), "--seed", seed])
        self._assert_clean_exit_2(capsys, exit_.value.code, "--seed")
        assert not (tmp_path / "out").exists()

    def test_empty_out_flag_exits_2(self, tmp_path, capsys, monkeypatch):
        """--out obeys the output_dir rule: an empty one writes nothing into
        the working directory."""
        path = self._write(tmp_path, _config())
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            cli_main(["run", "--config", path, "--out", ""])
        self._assert_clean_exit_2(capsys, exit_.value.code, "--out", "expected a non-empty string")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_bad_thread_count_exits_2(self, tmp_path, capsys, monkeypatch):
        path = self._write(tmp_path, _config())
        monkeypatch.setenv("DPLAB_THREADS", "abc")
        rc = cli_main(["run", "--config", path, "--out", str(tmp_path / "out")])
        self._assert_clean_exit_2(capsys, rc, "DPLAB_THREADS")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_bad_thread_count_rejected_before_any_family_runs(self, family, monkeypatch):
        """DPLAB_THREADS is read when a run starts, whether or not the family
        fans replications out over threads."""
        config = validate_config({"schema_version": 1, "experiment": family, "seed": 1})
        monkeypatch.setenv("DPLAB_THREADS", "abc")
        with pytest.raises(ConfigError) as err:
            run_experiment(config)
        assert err.value.path == "DPLAB_THREADS"
