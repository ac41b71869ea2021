"""Start-up cost: importing dplab and validating a config load numpy only.

scipy takes longer to import than most runs take, so each scipy function is
imported by the dplab function that calls it.  These tests run a fresh
interpreter, where ``sys.modules`` shows exactly what each step loaded; one
module-level ``import scipy...`` anywhere in the package fails them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Each stage prints the scipy modules loaded so far; the gc and moments
# configs are small but run their families end to end.
SCRIPT = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

stages = {}
import dplab, dplab.cli
from dplab import run_experiment, validate_config
stages["import"] = scipy_modules()
validate_config({"schema_version": 1, "experiment": "all", "seed": 1})
stages["validate"] = scipy_modules()
for cfg in (
    {"experiment": "gc", "a_values": [10.0, 100.0], "replications": 20},
    {"experiment": "moments", "replications": 1000},
):
    run_experiment(validate_config({"schema_version": 1, "seed": 3, **cfg}))
stages["gc_moments"] = scipy_modules()
fidi = run_experiment(validate_config(
    {"schema_version": 1, "seed": 3, "experiment": "fidi", "a": 100.0, "replications": 500}
)).results["fidi"]
stages["fidi_level_checks"] = [c.name for c in fidi.level_checks]
stages["fidi"] = scipy_modules()
print(json.dumps(stages))
"""


@pytest.fixture(scope="module")
def stages():
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_and_validate_load_no_scipy(stages):
    assert stages["import"] == []
    assert stages["validate"] == []


def test_gc_and_moments_run_without_scipy(stages):
    assert stages["gc_moments"] == []


def test_fidi_loads_scipy_stats_for_its_ks_checks(stages):
    assert stages["fidi_level_checks"]
    assert "scipy.stats" in stages["fidi"]
