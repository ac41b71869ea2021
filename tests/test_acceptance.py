"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Tolerances are pinned here and never
loosened: equality-in-expectation checks run at 3 Monte Carlo standard errors
for headline means and 4 otherwise, variance targets at 5 standard errors of
the variance estimator, KS checks at level 0.01.
"""

import json

import numpy as np
import pytest

from dplab import (
    BorelSet,
    TruncationPolicy,
    bivariate_density_integral,
    density_convergence_study,
    exponential_base,
    fidi_normality_check,
    gc_study,
    limit_bivariate_density,
    moment_check,
    modulus_check,
    posterior_check,
    quantile_limit_study,
    representation_check,
    uniform_base,
)
from dplab.cli import main as cli_main

THIRD = 1.0 / 3.0

CELLS_025_05_1 = [
    BorelSet.interval(0.0, 0.25),
    BorelSet.interval(0.25, 0.5),
    BorelSet.interval(0.5, 1.0),
]


def _criterion(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def test_criterion_1_moments():
    """Mean of P_a(0, 0.3] within 3 SE of 0.3 and variance within 4 SE of
    0.21/(1+a), for a in {1, 10, 100} at R = 10^5."""
    base = uniform_base()
    sets = [BorelSet.interval(0.0, 0.3)]
    ok = True
    details = []
    for a in (1.0, 10.0, 100.0):
        out = moment_check(a, base, sets, 100_000, 8801)
        by_name = {c.name: c for c in out.comparisons}
        assert by_name["var[S1]"].target == pytest.approx(0.21 / (1.0 + a))
        ok &= out.passed
        details.append(f"a={a:g}:{'ok' if out.passed else 'FAIL'}")
    _criterion(1, "first and second moments of cell masses", ok, ", ".join(details))


def test_criterion_2_cross_moments():
    """Disjoint cells at a=1: cross moment within 4 SE of a/(1+a) H(A)H(B);
    overlapping cells match the intersection-corrected formula."""
    base = uniform_base()
    disjoint = moment_check(
        1.0,
        base,
        [BorelSet.interval(0.0, 0.3), BorelSet.interval(0.3, 0.5)],
        100_000,
        8802,
    )
    cross_d = next(c for c in disjoint.comparisons if c.name.startswith("cross"))
    assert cross_d.target == pytest.approx(0.5 * 0.3 * 0.2)

    overlap = moment_check(
        1.0,
        base,
        [BorelSet.interval(0.0, 0.3), BorelSet.interval(0.2, 0.5)],
        100_000,
        8803,
    )
    cross_o = next(c for c in overlap.comparisons if c.name.startswith("cross"))
    assert cross_o.target == pytest.approx((0.1 + 1.0 * 0.3 * 0.3) / 2.0)

    _criterion(
        2,
        "cross moments, disjoint and overlapping cells",
        cross_d.passed and cross_o.passed,
        f"disjoint est {cross_d.estimate:.5f}, overlap est {cross_o.estimate:.5f}",
    )


def test_criterion_3_representation_equivalence():
    """Stick-breaking (epsilon 1e-10) vs Dirichlet marginals over a 3-cell
    partition at a=10: per-coordinate two-sample KS at level 0.01 plus
    first/second moments within 4 SE."""
    cells = [
        BorelSet.interval(0.0, THIRD),
        BorelSet.interval(THIRD, 2 * THIRD),
        BorelSet.interval(2 * THIRD, 1.0),
    ]
    out = representation_check(
        10.0, uniform_base(), cells, 5000, 8804, trunc=TruncationPolicy(1e-10)
    )
    pvals = ", ".join(f"p={c.p_value:.3f}" for c in out.level_checks)
    _criterion(3, "representation equivalence", out.passed, pvals)


def test_criterion_4_conjugacy():
    """Posterior concentration is exactly a + n = 5 and posterior cell-mass
    means match the mixture base within 4 SE on three test sets."""
    sets = [
        BorelSet.interval(0.0, 0.3),
        BorelSet.interval(0.3, 0.6),
        BorelSet.interval(0.6, 1.0),
    ]
    out = posterior_check(2.0, uniform_base(), [0.2, 0.4, 0.6], sets, 20_000, 8805)
    assert out.estimates["a_star"] == (5.0, 0.0)
    _criterion(4, "posterior conjugacy", out.passed, "a_star=5 exact")


def test_criterion_5_fidi_normality():
    """At a = 10^4 with R = 10^4 over {(0,.25], (.25,.5], (.5,1]}: empirical
    covariance entrywise within 4 SE of the bridge covariance and
    standardized-marginal KS p > 0.01."""
    out = fidi_normality_check(1e4, CELLS_025_05_1, 10_000, 8806)
    pvals = ", ".join(f"p={c.p_value:.3f}" for c in out.level_checks)
    _criterion(5, "finite-dimensional normality", out.passed, pvals)


def test_criterion_6_modulus_bound():
    """Increment product at (t1,t,t2)=(0.1,0.4,0.9), a in {1,10}, R=10^5:
    within 4 SE of a/(a+1)(t-t1)(t2-t) and below a/(a+1)(t2-t1)^2 + 4 SE."""
    ok = True
    details = []
    for a in (1.0, 10.0):
        out = modulus_check(a, 0.1, 0.4, 0.9, 100_000, 8807)
        exact = next(c for c in out.comparisons if c.name == "increment_product")
        assert exact.target == pytest.approx(a / (a + 1.0) * 0.3 * 0.5)
        ok &= out.passed
        details.append(f"a={a:g}:{'ok' if out.passed else 'FAIL'}")
    _criterion(6, "increment-product modulus bound", ok, ", ".join(details))


def test_criterion_7_glivenko_cantelli():
    """Mean sup-norm strictly decreasing over a in {10,...,10^4} at R=10^3,
    fitted log-log rate inside [-0.6, -0.4], and the cubic deviation bound
    holding on every one of the >= 4*10^3 generated samples."""
    result = gc_study([10.0, 100.0, 1000.0, 10000.0], uniform_base(), 1000, 8808)
    curve = result.details
    _criterion(
        7,
        "uniform-distance decay",
        result.passed and curve["dl_checked"] >= 4000,
        f"rate={curve['fitted_rate']:.3f}, bound checked on {curve['dl_checked']} samples",
    )


def test_criterion_8_quantile_limits():
    """At a = 10^4 with R = 10^4, uniform and unit-rate exponential bases:
    scaled-median variance within 5 SE of 1/(4 h^2(m)), uniform-base
    interquartile-range variance within 5 SE of the limit-covariance value
    0.25, and the quantile-process covariance at {.25, .5, .75} entrywise
    within 5 SE of the limit covariance."""
    u_points = [0.25, 0.5, 0.75]
    uni = quantile_limit_study([1e4], uniform_base(), u_points, 10_000, 8809, epsilon=1e-10)
    expo = quantile_limit_study([1e4], exponential_base(), u_points, 10_000, 8810, epsilon=1e-10)
    printed = uni.estimates["iqr_var_printed_reference"][0]
    adjudicated = uni.estimates["a=10000/iqr_var"][0]
    print(
        "  interquartile-range adjudication: alternative reference variance "
        f"{printed:.4f}; limit-covariance target 0.25; Monte Carlo estimate "
        f"{adjudicated:.4f}"
    )
    _criterion(
        8,
        "quantile-process limits (uniform and exponential bases)",
        uni.passed and expo.passed,
        f"uniform median var {uni.estimates['a=10000/median_var'][0]:.4f}, "
        f"exponential median var {expo.estimates['a=10000/median_var'][0]:.4f}",
    )


def test_criterion_9_density_convergence():
    """Cells (1/3, 1/3), a in {10^2, 10^3, 10^4}: the TV column strictly
    decreasing, the limit density at the origin equal to sqrt(27)/(2 pi)
    within 1e-6, and the exact density integrating to one within 1e-3."""
    a_values = [100.0, 1000.0, 10000.0]
    quadratures = [bivariate_density_integral(THIRD, THIRD, a) for a in a_values]
    table = density_convergence_study(THIRD, THIRD, a_values, quadratures)
    tvs = [table.estimates[f"tv[a={a:g}]"][0] for a in a_values]
    tv_ok = all(b < a for a, b in zip(tvs, tvs[1:]))

    origin = limit_bivariate_density(0.0, 0.0, THIRD, THIRD)
    origin_ok = abs(origin - np.sqrt(27.0) / (2.0 * np.pi)) <= 1e-6

    integrals = [est.value for est in quadratures]
    integral_ok = all(abs(v - 1.0) <= 1e-3 for v in integrals)

    _criterion(
        9,
        "bivariate density convergence",
        tv_ok and origin_ok and integral_ok,
        f"tv={', '.join(f'{v:.4f}' for v in tvs)}; "
        f"integrals within {max(abs(v - 1.0) for v in integrals):.1e} of 1",
    )


def test_criterion_10_determinism(tmp_path):
    """Rerunning any experiment with identical config and seed produces
    byte-identical CSV artifacts, for any thread count."""
    import os

    cfg = {
        "schema_version": 1,
        "experiment": "gc",
        "seed": 4242,
        "a_values": [10.0, 100.0],
        "replications": 200,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))

    outputs = {}
    before = os.environ.get("DPLAB_THREADS")
    try:
        for tag, threads in (("one", "1"), ("two", "1"), ("threaded", "4")):
            os.environ["DPLAB_THREADS"] = threads
            out = tmp_path / tag
            rc = cli_main(["run", "--config", str(path), "--out", str(out)])
            assert rc == 0
            outputs[tag] = {
                f.name: f.read_bytes() for f in out.iterdir() if f.suffix == ".csv"
            }
    finally:
        if before is None:
            os.environ.pop("DPLAB_THREADS", None)
        else:
            os.environ["DPLAB_THREADS"] = before

    identical = outputs["one"] == outputs["two"] == outputs["threaded"]
    _criterion(10, "byte-identical reruns across thread counts", identical)
