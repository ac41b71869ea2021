"""Start-up cost: importing dplab, validating a config and running every
family load no scipy module; only a normal base loads scipy.special.  Nor do
they load ``concurrent.futures``, which only a replication loop that fans
out over worker threads imports.  None of it makes numpy warn: the
interpreter treats a RuntimeWarning as an error.

scipy takes longer to import than most runs take.  The KS checks take their
p-values from ``dplab.kolmogorov`` and their normal cdf, the Beta draws their
logistic function and the density family its log-gamma from
``dplab.special``.  A normal base imports scipy.special itself, because its
atoms come from scipy's ``ndtri``.  These tests run a fresh interpreter,
where ``sys.modules`` shows exactly what each step loaded; one module-level
``import scipy...`` anywhere in the package, or one scipy call on a run
path, fails them.

``CLI_CONFIGS`` go through ``dplab.cli.main`` as ``dplab run`` and ``dplab
validate`` take them, each with its exit code: passing runs of every family
with a KS check or a kernel near numpy's edges, a density run that FAILs at
N_MAX, and configs that the reader rejects with exit 2.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# name: (config fields past schema_version and seed 1, exit code).  A config
# that exits 0 or 1 goes through ``dplab run``, one that exits 2 through
# ``dplab validate``.
CLI_CONFIGS = {
    # KS checks that must pass; quantile at R = 200 and 400 lies on either
    # side of the bisection's one-call draw layout
    "fidi": ({"experiment": "fidi", "a": 100, "replications": 500}, 0),
    "quantile": ({"experiment": "quantile", "a_values": [100], "replications": 200}, 0),
    "quantile-400": ({"experiment": "quantile", "a_values": [100], "replications": 400}, 0),
    # sets that overlap, have two intervals, reach past the uniform support
    # and lie wholly outside it
    "moments": (
        {"experiment": "moments", "replications": 2000,
         "sets": [[[0.0, 0.3]], [[0.2, 0.5], [0.7, 1.5]], [[-0.5, 0.25]], [[1.5, 2.0]]]},
        0,
    ),
    # kernels that keep arguments at or below -1 and infinities out of
    # numpy's log1p and exp
    "density-ok": (
        {"experiment": "density", "density": {"l1": 0.3, "l2": 0.4}, "a_values": [10, 100]}, 0
    ),
    # quadratures that stop at N_MAX (a l = 1.5) FAIL the verdict
    "density-n-max": ({"experiment": "density", "a_values": [4.5]}, 1),
    "density-a-l3": (
        {"experiment": "density", "density": {"l1": 0.05, "l2": 0.9}, "a_values": [2, 10, 100]},
        2,
    ),
    "quantile-eps-0": ({"experiment": "quantile", "truncation": {"epsilon": 0}}, 2),
    "moments-a": ({"experiment": "moments", "a": -1}, 2),
    "gc-eps-0": ({"experiment": "gc", "truncation": {"epsilon": 0}}, 2),
    "gc-max-atoms": ({"experiment": "gc", "truncation": {"max_atoms": 1000}}, 2),
    # the exponential base's density product at the quartiles overflows
    "quantile-steep": (
        {"experiment": "quantile", "base_measure": {"label": "exponential", "rate": 1e300}}, 2
    ),
    # a gamma or stick shape below rvgen.MIN_SHAPE
    "moments-a-tiny": ({"experiment": "moments", "a": 1e-320}, 2),
    "quantile-a-tiny": ({"experiment": "quantile", "a_values": [1e-320, 1e-310]}, 2),
    "gc-a-tiny": ({"experiment": "gc", "a_values": [1e-320, 1e-310]}, 2),
}

# Each stage prints the scipy modules loaded so far.  The configs are small
# but run their families end to end; the normal base comes last, since
# sys.modules only grows.  The CLI's own output is kept off stdout, which
# carries the stages.
SCRIPT = """
import contextlib, io, json, os, sys, tempfile

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def run(cfg):
    return run_experiment(validate_config({"schema_version": 1, "seed": 3, **cfg})).results

stages, level_checks = {}, {}
import dplab, dplab.cli
from dplab import BorelSet, normal_base, run_experiment, uniform_base, validate_config
from dplab.kolmogorov import kolmogorov_sf
from dplab.verify import quantile_sampler_check, representation_check
stages["import"] = scipy_modules()
validate_config({"schema_version": 1, "experiment": "all", "seed": 1})
stages["validate"] = scipy_modules()
run({"experiment": "gc", "a_values": [10.0, 100.0], "replications": 20})
run({"experiment": "moments", "replications": 1000})
cells = [BorelSet.interval(0.0, 0.4), BorelSet.interval(0.4, 1.0)]
level_checks["representation"] = representation_check(10.0, uniform_base(), cells, 200, 3).level_checks
stages["gc_moments_representation"] = scipy_modules()
level_checks["fidi"] = run({"experiment": "fidi", "a": 100.0, "replications": 500})["fidi"].level_checks
level_checks["quantile"] = run(
    {"experiment": "quantile", "a_values": [100.0], "replications": 100}
)["quantile"].level_checks
level_checks["quantile_sampler"] = quantile_sampler_check(10.0, 100, 3).level_checks
stages["fidi_quantile_samplers"] = scipy_modules()
stages["density_passed"] = run({"experiment": "density", "a_values": [10.0, 100.0]})["density"].passed
stages["far_tail_p"] = kolmogorov_sf(3000, 0.03)
stages["density_far_tail"] = scipy_modules()
stages["cli"] = {}
with tempfile.TemporaryDirectory() as tmp:
    for name, (cfg, code) in json.loads(sys.argv[1]).items():
        path, out = os.path.join(tmp, name + ".json"), os.path.join(tmp, name)
        with open(path, "w") as fh:
            json.dump({"schema_version": 1, "seed": 1, **cfg}, fh)
        argv = ["run", "--config", path, "--out", out] if code < 2 else ["validate", "--config", path]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = dplab.cli.main(argv)
        report = os.path.join(out, "report.json")
        wrote = os.path.isfile(report) and os.path.getsize(report) > 0
        stages["cli"][name] = [rc, wrote, err.getvalue()]
stages["cli_runs"] = scipy_modules()
stages["thread_pool_loaded"] = "concurrent.futures" in sys.modules
normal_base()
stages["normal_base"] = scipy_modules()
stages["level_checks"] = {k: [c.name for c in v] for k, v in level_checks.items()}
print(json.dumps(stages))
"""


@pytest.fixture(scope="module")
def stages():
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    argv = [sys.executable, "-W", "error::RuntimeWarning", "-c", SCRIPT, json.dumps(CLI_CONFIGS)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_and_validate_load_no_scipy(stages):
    assert stages["import"] == []
    assert stages["validate"] == []


def test_gc_moments_and_representation_check_run_without_scipy(stages):
    assert stages["level_checks"]["representation"]
    assert stages["gc_moments_representation"] == []


def test_ks_checks_run_without_scipy(stages):
    """Every family and check with a KS test ran one, and none loaded any
    scipy module."""
    assert all(stages["level_checks"].values()), stages["level_checks"]
    assert stages["fidi_quantile_samplers"] == []


def test_density_and_far_tail_p_value_run_without_scipy(stages):
    """The density family's log-gamma and the Smirnov far tail of the KS
    p-values (n d^2 = 2.7 at n = 3000, d = 0.03) are dplab's own."""
    assert stages["density_passed"]
    assert 0.0 < stages["far_tail_p"] < 0.01
    assert stages["density_far_tail"] == []


def test_cli_configs_exit_with_their_codes_without_scipy(stages):
    """Each run writes report.json, and each rejection is the config
    reader's."""
    for name, (_, code) in CLI_CONFIGS.items():
        rc, wrote, err = stages["cli"][name]
        assert rc == code, (name, err)
        if code < 2:
            assert wrote, name
        else:
            assert err.startswith("config error: "), (name, err)
    assert stages["cli_runs"] == []


def test_runs_that_do_not_fan_out_load_no_thread_pool(stages):
    """No replication loop above fans out: each fills less scratch than
    verify.MIN_PARALLEL_ENTRIES.  ``concurrent.futures`` and the logging it
    imports cost every process about 3 ms and 0.6 MiB, so it is imported
    only where a loop starts its pool.  sys.modules only grows, so absence
    here covers the import and validate stages too."""
    assert stages["thread_pool_loaded"] is False


def test_normal_base_loads_scipy_special_only(stages):
    loaded = stages["normal_base"]
    assert "scipy.special" in loaded
    assert not [m for m in loaded if m == "scipy.stats" or m.startswith("scipy.stats.")], loaded
