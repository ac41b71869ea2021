"""The benchmark's own tests: its closed forms give the known values, and its
checks fail on known-wrong targets (negative controls, at small sizes).

    PYTHONPATH=src python -m pytest -q bench/test_checks.py
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from dplab import (  # noqa: E402
    RngStream,
    TruncationPolicy,
    harness,
    stick_breaking_sample,
    uniform_base,
    verify,
)


def run_family(op: wl.Op, tmp_path) -> dict:
    report = harness.run_experiment(harness.validate_config(op.config))
    harness.emit_report(report, tmp_path)
    return json.loads((tmp_path / "report.json").read_text())


def small(op: wl.Op, **params) -> wl.Op:
    return wl.Op(op.name, op.family, {**op.config, **params})


def comparison(report: dict, family: str, name: str) -> dict:
    return next(c for c in report["results"][family]["comparisons"] if c["name"] == name)


def test_closed_forms_match_known_values():
    for a in (1.0, 10.0, 100.0):
        assert checks.dp_variance(a, 0.3) == pytest.approx(0.21 / (1.0 + a))
        disjoint = checks.dp_cross(a, [[0.0, 0.3]], [[0.3, 0.5]])
        assert disjoint == pytest.approx(a / (1.0 + a) * 0.3 * 0.2)
        overlap = checks.dp_cross(a, [[0.0, 0.3]], [[0.2, 0.5]])
        assert overlap == pytest.approx((0.1 + a * 0.09) / (1.0 + a))
    assert checks.modulus_product(1.0, 0.1, 0.4, 0.9) == pytest.approx(0.5 * 0.3 * 0.5)
    assert checks.bridge_cov([[0.0, 0.25]], [[0.25, 0.5]]) == pytest.approx(-0.0625)
    post = [checks.posterior_mean(2.0, wl.POSTERIOR_DATA, s) for s in wl.POSTERIOR_SETS]
    assert post == pytest.approx([0.32, 0.52, 0.16])
    assert checks.median_variance("uniform") == pytest.approx(0.25)
    assert checks.median_variance("exponential") == pytest.approx(1.0)
    assert checks.iqr_variance("uniform") == pytest.approx(0.25)
    origin = checks.limit_density_at_origin(wl.THIRD, wl.THIRD)
    assert origin == pytest.approx(math.sqrt(27.0) / (2.0 * math.pi))


def test_pinned_moments_pass_and_variance_over_a_fails(tmp_path):
    op = small(wl.build_ops("marginals", None)[0], replications=1000)  # moments at a = 1
    report = run_family(op, tmp_path)
    assert checks.check_op(op, report, pinned=True) == []

    var = comparison(report, "moments", "var[S1]")
    right = checks.dp_variance(1.0, 0.3)
    wrong = 0.3 * 0.7 / 1.0  # 1/a in place of 1/(1+a)
    assert checks.within(var["estimate"], var["se"], right, checks.MOMENT_SE, False)
    assert not checks.within(var["estimate"], var["se"], wrong, checks.MOMENT_SE, False)

    targets = checks.comparison_targets(op)
    targets["var[S1]"] = (wrong, checks.MOMENT_SE, False)
    errors = checks.check_summary(op, report["results"]["moments"], True, targets)
    assert any("var[S1]" in e and "not within" in e for e in errors)


def test_circulating_iqr_coefficients_fail(tmp_path):
    op = small(
        wl.build_ops("quantile_limit", None)[0], a_values=[1000.0], replications=400
    )
    report = run_family(op, tmp_path)
    iqr = comparison(report, "quantile", "a=1000/iqr_var")
    h1 = h3 = 1.0  # uniform base density at its quartiles
    circulating = 3.0 / h3**2 + 3.0 / (16.0 * h1**2) - 2.0 / (h1 * h3)
    assert checks.within(
        iqr["estimate"], iqr["se"], checks.iqr_variance("uniform"), checks.VARIANCE_SE, False
    )
    assert not checks.within(iqr["estimate"], iqr["se"], circulating, checks.VARIANCE_SE, False)


def test_cubic_bound_with_exponent_three_halves_fails():
    base = uniform_base()
    failures = 0
    for a in (10.0, 100.0):
        for r in range(3):
            sample = stick_breaking_sample(a, base, TruncationPolicy(1e-10), RngStream(8808, r))
            sup, cvm = verify.sup_deviation(sample, base), verify.cvm_deviation(sample, base)
            assert checks.check_realization(a, sample.atoms, sample.weights, sup, cvm) == []
            failures += bool(
                checks.check_realization(a, sample.atoms, sample.weights, sup, cvm, exponent=1.5)
            )
    assert failures == 6


def test_grid_sup_never_exceeds_exact_sup():
    rng = np.random.default_rng(0)
    atoms = np.sort(rng.random(50))
    weights = rng.dirichlet(np.ones(50))
    sup, _ = checks.sample_deviation(atoms, weights)
    assert checks.grid_sup(atoms, weights) <= sup + 1e-12
    assert checks.check_realization(1.0, atoms, weights, sup * 0.9, 0.0) != []
