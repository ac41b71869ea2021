"""The benchmark's contract with the package: every attribute the span
tracer in ``bench/tracing.py`` patches exists, is what dplab calls, and is
restored afterwards; and ``emit_report`` takes a result keyed by a name that
is not a harness family, as the benchmark's representation operation does."""

import json
import sys
from pathlib import Path

from dplab import BorelSet, TruncationPolicy, harness, uniform_base, verify

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402

THIRD = 1.0 / 3.0


def _representation_summary(seed: int) -> verify.McSummary:
    cells = [BorelSet.interval(0.0, THIRD), BorelSet.interval(THIRD, 1.0)]
    return verify.representation_check(
        10.0, uniform_base(), cells, 50, seed, trunc=TruncationPolicy(1e-10)
    )


def _small_run(tmp_path):
    configs = [
        {"experiment": "moments", "replications": 1000},
        {"experiment": "gc", "a_values": [10.0, 100.0], "replications": 20},
        {"experiment": "quantile", "a_values": [100.0], "replications": 20},
        {"experiment": "density", "a_values": [100.0]},
    ]
    for i, extra in enumerate(configs):
        config = harness.validate_config({"schema_version": 1, "seed": 5, **extra})
        harness.emit_report(harness.run_experiment(config), tmp_path / str(i))
    _representation_summary(5)
    verify.quantile_sampler_check(10.0, 20, 5)


def test_tracer_patches_what_dplab_calls_and_restores_it(tmp_path):
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._saved)
        _small_run(tmp_path)
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner}.{attr} not restored"
    names = {span[2] for span in tracer.spans}
    # rvgen.permutation is patched but not called: stick-breaking pairs
    # weights with atoms by RngStream.shuffle, which the tracer does not wrap.
    expected = {
        "rvgen.stream_open",
        "rvgen.uniform",
        "rvgen.dirichlet",
        "dp_core.stick_breaking",
        "dp_core.dpsample_init",
        "dp_core.quantile",
        "dp_core.cdf",
        "processes.tv",
        "processes.density_integral",
        "processes.density",
        "verify.family",
        "verify.map_replications",
        "verify.rep",
        "harness.run",
        "harness.emit",
    }
    assert expected <= names, f"no spans for {sorted(expected - names)}"


def test_emit_report_takes_a_representation_result(tmp_path):
    summary = _representation_summary(8804)
    report = harness.RunReport(
        config_echo={"a": 10.0},
        results={"representation": summary},
        family_passed={"representation": summary.passed},
        overall_pass=summary.passed,
        wall_clock_seconds=0.0,
    )
    manifest = harness.emit_report(report, tmp_path)
    assert manifest == ["representation_summary.csv", "report.json"]
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["results"]["representation"]["type"] == "mc_summary"
    assert payload["family_passed"] == {"representation": summary.passed}
