"""Harness: config validation, deterministic artifacts, CLI contract."""

import json
import os
import threading
import time
import warnings

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

    def test_unknown_top_level_field(self):
        with pytest.raises(ConfigError) as err:
            validate_config(_config(bogus=1))
        assert "bogus" in str(err.value)

    def test_unknown_nested_field(self):
        with pytest.raises(ConfigError) as err:
            validate_config(_config(truncation={"epsilon": 1e-10}))
        assert "truncation" in str(err.value)  # not a moments field

    def test_field_path_in_error(self):
        with pytest.raises(ConfigError) as err:
            validate_config(
                {
                    "schema_version": 1,
                    "experiment": "quantile",
                    "seed": 1,
                    "u_points": [0.5, 1.5],
                }
            )
        assert err.value.path == "u_points"

    def test_schema_version_required(self):
        with pytest.raises(ConfigError):
            validate_config({"experiment": "moments", "seed": 1})

    def test_bad_experiment_name(self):
        with pytest.raises(ConfigError):
            validate_config({"schema_version": 1, "experiment": "nope", "seed": 1})

    def test_families_only_with_all(self):
        with pytest.raises(ConfigError):
            validate_config(_config(families={}))

    def test_data_and_data_file_conflict(self):
        with pytest.raises(ConfigError):
            validate_config(
                {
                    "schema_version": 1,
                    "experiment": "posterior",
                    "seed": 1,
                    "data": [0.1],
                    "data_file": "x.txt",
                }
            )

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

    @pytest.mark.parametrize(
        "extra, path",
        [
            ({"experiment": "modulus", "modulus": {"t1": 0.5, "t": 0.4, "t2": 0.9}}, "modulus"),
            ({"experiment": "quantile", "a_values": [100.0, 10.0]}, "a_values"),
            ({"experiment": "density", "a_values": [0.0, 10.0]}, "a_values"),
            (
                {"experiment": "all", "families": {"quantile": {"u_points": [0.5, 1.0]}}},
                "families.quantile.u_points",
            ),
            ({"experiment": "posterior", "a": 0.0}, "a"),
            ({"experiment": "quantile", "u_points": [0.5, 0.5]}, "u_points"),
        ],
    )
    def test_verify_argument_rules_name_the_field(self, extra, path):
        with pytest.raises(ConfigError) as err:
            validate_config({"schema_version": 1, "seed": 1, **extra})
        assert err.value.path == path

    @pytest.mark.parametrize("seed", [-1, 1 + 2**64, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        """Seeds that agree modulo 2^64 would run the same streams."""
        with pytest.raises(ConfigError) as err:
            validate_config(_config(seed=seed))
        assert err.value.path == "seed"
        assert validate_config(_config(seed=2**64 - 1)).seed == 2**64 - 1

    def test_partial_modulus_takes_field_defaults(self):
        config = validate_config({"schema_version": 1, "seed": 1, "experiment": "modulus",
                                  "modulus": {"t1": 0.2}})
        assert config.echo()["modulus"] == {"t1": 0.2, "t": 0.4, "t2": 0.9}

    def test_constructor_errors_name_the_family_path(self):
        cfg = {
            "schema_version": 1,
            "experiment": "all",
            "seed": 1,
            "families": {"gc": {"truncation": {"epsilon": 2.0}}},
        }
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert err.value.path == "families.gc.truncation.epsilon"

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
    def test_only_config_errors_at_the_field(self, family, data, tmp_path_factory):
        """One arbitrary JSON value in one field of a family's default config
        either validates or raises ConfigError at that field's top-level key."""
        config_dir = tmp_path_factory.getbasetemp()
        cfg = validate_config({"schema_version": 1, "experiment": family, "seed": 1}).echo()
        fields = validate_config(cfg).family_params[family]
        path = data.draw(st.sampled_from(list(_field_paths(fields))))
        holder = cfg
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = data.draw(_json_values)
        try:
            validate_config(cfg, config_dir)
        except ConfigError as err:
            # The density family's joint rule on a cell measure and a
            # concentration names the concentration, whichever field broke it.
            joint = err.path.startswith("a_values[") and "min(l1, l2, 1 - l1 - l2)" in str(err)
            assert err.path.startswith(path[0]) or joint, (err.path, path)


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

    def test_round_trip_reproduces_run(self, tmp_path):
        _run_to_dir(_config(), tmp_path / "first")
        payload = json.loads((tmp_path / "first" / "report.json").read_text())
        _run_to_dir(payload["config"], tmp_path / "second")
        a = (tmp_path / "first" / "moments_summary.csv").read_bytes()
        b = (tmp_path / "second" / "moments_summary.csv").read_bytes()
        assert a == b


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

    def test_validate_bad_config(self, tmp_path, capsys):
        path = self._write(tmp_path, _config(bogus=1))
        assert cli_main(["validate", "--config", path]) == 2
        assert "bogus" in capsys.readouterr().err

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

    def test_posterior_data_file(self, tmp_path, capsys):
        data = tmp_path / "points.txt"
        data.write_text("0.2\n0.4\n0.6\n")
        cfg = {
            "schema_version": 1,
            "experiment": "posterior",
            "seed": 3,
            "a": 2.0,
            "data": None,
            "data_file": "points.txt",
            "replications": 2000,
        }
        path = self._write(tmp_path, cfg)
        rc = cli_main(["run", "--config", path, "--out", str(tmp_path / "out")])
        assert rc == 0
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert payload["results"]["posterior"]["estimates"]["a_star"][0] == 5.0

    def _assert_clean_exit_2(self, capsys, rc, *needles):
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        for needle in needles:
            assert needle in err

    @pytest.mark.parametrize(
        "cfg, path",
        [
            ({"experiment": "gc", "tolerance_overrides": {"moment": 2.0}}, "tolerance_overrides"),
            (
                {"experiment": "modulus", "tolerance_overrides": {"mean": 1e-9}},
                "tolerance_overrides",
            ),
            (
                {"experiment": "all", "families": {"density": {"tolerance_overrides": {}}}},
                "families.density.tolerance_overrides",
            ),
            ({"experiment": "all", "tolerance_overrides": {"mean": 2.0}}, "tolerance_overrides"),
            (
                {"experiment": "all", "families": {"moments": {"tolerance_overrides": {}}}},
                "families.moments.tolerance_overrides",
            ),
            ({"experiment": "density", "quadrature": {"tol": 1e-9}}, "quadrature"),
            (
                {"experiment": "all", "families": {"density": {"quadrature": {}}}},
                "families.density.quadrature",
            ),
        ]
        + [
            ({"experiment": "density", "density": {key: 0}}, f"density.{key}")
            for key in ("grid_lo", "grid_hi", "grid_points")
        ]
        + [
            (
                {"experiment": "all", "families": {"density": {"density": {key: 0}}}},
                f"families.density.density.{key}",
            )
            for key in ("grid_lo", "grid_hi", "grid_points")
        ],
    )
    def test_tolerance_a_family_does_not_read_exits_2(self, tmp_path, capsys, cfg, path):
        """No family reads a settable tolerance, quadrature setting or density
        gap grid: the pass rule is pinned."""
        path_arg = self._write(tmp_path, {"schema_version": 1, "seed": 1, **cfg})
        rc = cli_main(["validate", "--config", path_arg])
        self._assert_clean_exit_2(capsys, rc, f"{path}: unknown field")
        rc = cli_main(["run", "--config", path_arg, "--out", str(tmp_path / "out")])
        self._assert_clean_exit_2(capsys, rc, f"{path}: unknown field")

    @pytest.mark.parametrize("value", [None, 5, [{}], "x"])
    def test_family_value_not_an_object_exits_2(self, tmp_path, capsys, value):
        cfg = {"schema_version": 1, "seed": 1, "experiment": "all", "families": {"gc": value}}
        path = self._write(tmp_path, cfg)
        rc = cli_main(["validate", "--config", path])
        self._assert_clean_exit_2(capsys, rc, "families.gc: expected an object")
        rc = cli_main(["run", "--config", path, "--out", str(tmp_path / "out")])
        self._assert_clean_exit_2(capsys, rc, "families.gc: expected an object")

    @pytest.mark.parametrize("family", ["moments", "gc", "quantile", "posterior"])
    @pytest.mark.parametrize("label", [[], {}], ids=["list", "object"])
    def test_non_string_base_label_exits_2(self, tmp_path, capsys, family, label):
        cfg = {"schema_version": 1, "seed": 1, "experiment": family,
               "base_measure": {"label": label}}
        path = self._write(tmp_path, cfg)
        needle = "base_measure.label: must be one of uniform | exponential | normal"
        rc = cli_main(["validate", "--config", path])
        self._assert_clean_exit_2(capsys, rc, needle)
        rc = cli_main(["run", "--config", path, "--out", str(tmp_path / "out")])
        self._assert_clean_exit_2(capsys, rc, needle)

    @pytest.mark.parametrize(
        "cfg, field",
        [
            ({"base_measure": {"label": "normal"}, "u_points": [0.5, 1e-200]}, "u_points[1]"),
            ({"base_measure": {"label": "normal", "sigma": 1e200}}, "base_measure"),
            ({"base_measure": {"label": "exponential", "rate": 1e-300}}, "base_measure"),
            ({"base_measure": {"label": "exponential", "rate": 1e300}}, "base_measure"),
        ],
    )
    def test_quantile_target_out_of_range_exits_2(self, tmp_path, capsys, cfg, field):
        """A base density product h(H^-1(u)) h(H^-1(v)) that underflows to 0
        or overflows to inf leaves no finite limit covariance to compare
        with: the config reader rejects it, and the run writes nothing."""
        cfg = {"schema_version": 1, "seed": 1, "experiment": "quantile", "a_values": [100],
               "replications": 50, **cfg}
        path = self._write(tmp_path, cfg)
        needle = f"{field}: base density product"
        rc = cli_main(["validate", "--config", path])
        self._assert_clean_exit_2(capsys, rc, needle)
        rc = cli_main(["run", "--config", path, "--out", str(tmp_path / "out")])
        self._assert_clean_exit_2(capsys, rc, needle)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "base", [{"label": "normal", "sigma": 1e77}, {"label": "exponential", "rate": 1e-77}],
        ids=["normal", "exponential"],
    )
    def test_quantile_base_too_wide_exits_2(self, tmp_path, capsys, base):
        """A base so wide that the fourth powers of the variance checks'
        scaled deviations would overflow (verify.mc_var_se) is a config
        error, not a run that warns and fails on inf or NaN standard errors."""
        cfg = {"schema_version": 1, "seed": 1, "experiment": "quantile", "a_values": [100],
               "replications": 50, "base_measure": base}
        path = self._write(tmp_path, cfg)
        needle = "base_measure: too wide"
        rc = cli_main(["validate", "--config", path])
        self._assert_clean_exit_2(capsys, rc, needle)
        rc = cli_main(["run", "--config", path, "--out", str(tmp_path / "out")])
        self._assert_clean_exit_2(capsys, rc, needle)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("a_values", [[1e10, 1e21], [1e30]])
    def test_density_concentration_beyond_rounding_exits_2(self, tmp_path, capsys, a_values):
        """Beyond a = 1e20 the exact density's rounding, about sqrt(a) 2^-52
        relative, would decide the verdict."""
        cfg = {"schema_version": 1, "seed": 1, "experiment": "density", "a_values": a_values}
        path = self._write(tmp_path, cfg)
        needle = f"a_values[{len(a_values) - 1}]: a must be at most 1e+20"
        rc = cli_main(["validate", "--config", path])
        self._assert_clean_exit_2(capsys, rc, needle)
        rc = cli_main(["run", "--config", path, "--out", str(tmp_path / "out")])
        self._assert_clean_exit_2(capsys, rc, needle)

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

    @pytest.mark.parametrize("seed", [-1, 1 + 2**64])
    def test_config_seed_outside_64_bits_exits_2(self, tmp_path, capsys, seed):
        path = self._write(tmp_path, _config(seed=seed))
        rc = cli_main(["validate", "--config", path])
        self._assert_clean_exit_2(capsys, rc, "seed: ")
        rc = cli_main(["run", "--config", path, "--out", str(tmp_path / "out")])
        self._assert_clean_exit_2(capsys, rc, "seed: ")

    @pytest.mark.parametrize(
        "cfg, path",
        [
            ([1, 2], "config must be a JSON object"),
            ({"schema_version": 1, "experiment": "moments"}, "seed: required"),
            (_config(output_dir=""), "output_dir: expected a non-empty string"),
            (_config(output_dir=5), "output_dir: expected a non-empty string"),
            (
                {"schema_version": 1, "seed": 1, "experiment": "all", "families": []},
                "families: expected an object",
            ),
            (
                {"schema_version": 1, "seed": 1, "experiment": "all", "families": {"bogus": {}}},
                "families.bogus: unknown experiment family",
            ),
            # JSON integers beyond float range
            (_config(a=10**400), "a: must be finite"),
            (
                {"schema_version": 1, "seed": 1, "experiment": "gc", "a_values": [10.0, 10**400]},
                "a_values[1]: must be finite",
            ),
            (
                _config(base_measure={"label": "exponential", "rate": 10**400}),
                "base_measure.rate: must be finite",
            ),
            # a gamma shape below rvgen.MIN_SHAPE, whose boosted log draw
            # would overflow to -inf: a Dirichlet parameter a H(A) ...
            *(
                (
                    {"schema_version": 1, "seed": 1, "experiment": family, "a": a},
                    "a: a Dirichlet parameter of the run must be finite and at least MIN_SHAPE",
                )
                for family in ("moments", "fidi", "modulus", "posterior")
                for a in (1e-320, 1e-310)
            ),
            (
                {"schema_version": 1, "seed": 1, "experiment": "all",
                 "families": {"posterior": {"a": 1e-320}}},
                "families.posterior.a: a Dirichlet parameter",
            ),
            # ... or a deepest bisection split's a 2^-K, K = 34 at epsilon 1e-10
            *(
                (
                    {"schema_version": 1, "seed": 1, "experiment": "quantile", "a_values": a},
                    "a_values[0]: a deepest split's shape must be finite and at least MIN_SHAPE",
                )
                for a in ([1e-320, 1e-310], [1e-300, 1e-290])
            ),
            # ... or a stick-breaking concentration, whose sticks' log(U) / a
            # would overflow
            (
                {"schema_version": 1, "seed": 1, "experiment": "gc", "a_values": [1e-320, 1e-310]},
                "a_values[0]: a stick-breaking concentration must be finite and at least MIN_SHAPE",
            ),
        ],
        ids=["not_an_object", "no_seed", "output_dir_empty", "output_dir_number",
             "families_list", "families_bogus", "a", "a_values", "rate",
             *(f"{family}_a_{a:g}" for family in ("moments", "fidi", "modulus", "posterior")
               for a in (1e-320, 1e-310)),
             "all_posterior_a_1e-320", "quantile_a_1e-320", "quantile_a_1e-300",
             "gc_a_1e-320"],
    )
    def test_config_fault_exits_2(self, tmp_path, capsys, cfg, path):
        path_arg = self._write(tmp_path, cfg)
        rc = cli_main(["validate", "--config", path_arg])
        self._assert_clean_exit_2(capsys, rc, path)
        rc = cli_main(["run", "--config", path_arg, "--out", str(tmp_path / "out")])
        self._assert_clean_exit_2(capsys, rc, path)

    @pytest.mark.parametrize(
        "family, key, value",
        [
            ("moments", "replications", 10**21),
            ("gc", "replications", 10**17),
            ("quantile", "replications", 10**14),
            ("posterior", "replications", 10**15),
            ("fidi", "replications", 4 * 10**9),
            ("gc", "gc_grid_resolution", 10**12),
        ],
    )
    def test_count_over_max_count_exits_2(self, tmp_path, capsys, family, key, value):
        """A count whose arrays could not be allocated is rejected at its
        field before anything runs."""
        cfg = {"schema_version": 1, "seed": 1, "experiment": family, key: value}
        path_arg = self._write(tmp_path, cfg)
        rc = cli_main(["validate", "--config", path_arg])
        self._assert_clean_exit_2(capsys, rc, f"{key}: must be at most MAX_COUNT")
        rc = cli_main(["run", "--config", path_arg, "--out", str(tmp_path / "out")])
        self._assert_clean_exit_2(capsys, rc, f"{key}: must be at most MAX_COUNT")
        assert not (tmp_path / "out").exists()

    def test_max_count_itself_validates(self):
        validate_config(_config(replications=MAX_COUNT))

    @pytest.mark.parametrize("family", ["moments", "fidi"])
    def test_draw_table_over_the_limit_exits_2(self, tmp_path, capsys, family):
        """MAX_COUNT replications over 100 sets (101 cells) would ask numpy
        for 12.6 GiB per table; the config is rejected at ``replications``."""
        sets = [[[i / 200, (i + 1) / 200]] for i in range(100)]
        cfg = {
            "schema_version": 1, "seed": 1, "experiment": family,
            "sets": sets, "replications": MAX_COUNT,
        }
        path_arg = self._write(tmp_path, cfg)
        for argv in (["validate"], ["run", "--out", str(tmp_path / "out")]):
            rc = cli_main([*argv, "--config", path_arg])
            self._assert_clean_exit_2(capsys, rc, "replications: replications x 101 columns")
        assert not (tmp_path / "out").exists()

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
        "cfg, path",
        [
            ({"a_values": [10.0, 1e15]}, "a_values[1]: "),
            ({"a_values": [10.0, 1e6], "truncation": {"epsilon": 1e-300}}, "a_values[1]: "),
        ],
        ids=["a_value", "epsilon"],
    )
    def test_stick_budget_over_the_limit_exits_2(self, tmp_path, capsys, monkeypatch, cfg, path):
        """A gc draw that could not be allocated is rejected at its field, and
        no realization is drawn."""

        def never(*args, **kwargs):
            raise AssertionError("a stick-breaking draw was attempted")

        monkeypatch.setattr(verify, "stick_breaking_sample", never)
        path_arg = self._write(
            tmp_path, {"schema_version": 1, "seed": 1, "experiment": "gc", "replications": 10, **cfg}
        )
        rc = cli_main(["validate", "--config", path_arg])
        self._assert_clean_exit_2(capsys, rc, path, "MAX_STICKS")
        rc = cli_main(["run", "--config", path_arg, "--out", str(tmp_path / "out")])
        self._assert_clean_exit_2(capsys, rc, path, "MAX_STICKS")
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize(
        "cfg, path",
        [
            ({"experiment": "density", **_UNBOUNDED_DENSITY}, "a_values[0]: "),
            (
                {"experiment": "all", "families": {"density": _UNBOUNDED_DENSITY}},
                "families.density.a_values[0]: ",
            ),
        ],
        ids=["density", "all"],
    )
    def test_unbounded_density_exits_2(self, tmp_path, capsys, cfg, path):
        """At a * l <= 1 for a cell measure l the exact density is unbounded
        at that cell's edge, and the quadrature could only stop at N_MAX."""
        path_arg = self._write(tmp_path, {"schema_version": 1, "seed": 1, **cfg})
        for argv in (["validate"], ["run", "--out", str(tmp_path / "out")]):
            rc = cli_main([*argv, "--config", path_arg])
            self._assert_clean_exit_2(capsys, rc, path, "must exceed 1")
        assert not (tmp_path / "out").exists()

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

    def test_bad_thread_count_exits_2(self, tmp_path, capsys, monkeypatch):
        path = self._write(tmp_path, _config())
        monkeypatch.setenv("DPLAB_THREADS", "abc")
        rc = cli_main(["run", "--config", path, "--out", str(tmp_path / "out")])
        self._assert_clean_exit_2(capsys, rc, "DPLAB_THREADS")

    @pytest.mark.parametrize("family", ["gc", "quantile"])
    def test_quantile_atom_cap_exits_2(self, tmp_path, capsys, family):
        """Truncation stops on epsilon alone: a max_atoms other than null is
        rejected by either family that reads it."""
        cfg = {
            "schema_version": 1,
            "experiment": family,
            "seed": 1,
            "truncation": {"epsilon": 1e-10, "max_atoms": 1000},
        }
        rc = cli_main(["validate", "--config", self._write(tmp_path, cfg)])
        self._assert_clean_exit_2(capsys, rc, "truncation.max_atoms: must be null")

    @pytest.mark.parametrize("family", ["gc", "quantile"])
    @pytest.mark.parametrize("max_atoms", [None, 1000])
    @pytest.mark.parametrize("epsilon", [0.0, -1.0, 1.0])
    def test_quantile_resolution_outside_unit_interval_exits_2(
        self, tmp_path, capsys, epsilon, max_atoms, family
    ):
        """epsilon is rejected at its own path by the one resolution rule,
        with or without a max_atoms, which no epsilon makes valid."""
        cfg = {
            "schema_version": 1,
            "experiment": family,
            "seed": 1,
            "truncation": {"epsilon": epsilon, "max_atoms": max_atoms},
        }
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert err.value.path == "truncation.epsilon"
        rc = cli_main(["validate", "--config", self._write(tmp_path, cfg)])
        self._assert_clean_exit_2(
            capsys, rc, "truncation.epsilon: epsilon must satisfy 0 < epsilon < 1"
        )

    @pytest.mark.parametrize("family", FAMILIES)
    def test_bad_thread_count_rejected_before_any_family_runs(self, family, monkeypatch):
        """DPLAB_THREADS is read when a run starts, whether or not the family
        fans replications out over threads."""
        config = validate_config({"schema_version": 1, "experiment": family, "seed": 1})
        monkeypatch.setenv("DPLAB_THREADS", "abc")
        with pytest.raises(ConfigError) as err:
            run_experiment(config)
        assert err.value.path == "DPLAB_THREADS"

    @pytest.mark.parametrize("contents, needle", [("0.2\nabc\n0.6\n", "line 2"), (None, "")])
    def test_bad_or_missing_data_file_exits_2(self, tmp_path, capsys, contents, needle):
        if contents is not None:
            (tmp_path / "points.txt").write_text(contents)
        cfg = {
            "schema_version": 1,
            "experiment": "posterior",
            "seed": 3,
            "data": None,
            "data_file": "points.txt",
        }
        path = self._write(tmp_path, cfg)
        rc = cli_main(["run", "--config", path, "--out", str(tmp_path / "out")])
        self._assert_clean_exit_2(capsys, rc, "data_file", needle)
        assert cli_main(["validate", "--config", path]) == 2
