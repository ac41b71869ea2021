"""Known-wrong models against the family verdicts: one test per (family,
mutant).

Each test patches a mutant into ``dplab.verify`` (and, for the density
kernel, into ``dplab.processes``), runs the family as ``dplab run`` does at
seed 1, and asserts that the verdict FAILs.  A mutant that today's verdict
passes is a strict ``xfail`` whose reason names the ROADMAP item that closes
the gap: once that item lands the test XPASSes, strict mode fails it, and the
mark goes.  The assertion message lists every check's margin (a
comparison's gap in standard errors, or a level check's p-value).
"""

import numpy as np
import pytest

from dplab import processes, verify
from dplab.harness import run_experiment, validate_config

# gc at R = 200 over a = 10, 100, 1000: 0.4-0.5 s a run.  Every other
# family runs its default config.
_GC = {"a_values": [10.0, 100.0, 1000.0], "replications": 200}


def _scaled(factor):
    """A sampler patch: the sampler at ``factor`` times its concentration,
    its first argument."""
    return lambda fn: lambda a, *args, **kwargs: fn(factor * a, *args, **kwargs)


def _shifted(delta):
    """A sampler patch: the sampler at its concentration plus ``delta``."""
    return lambda fn: lambda a, *args, **kwargs: fn(a + delta, *args, **kwargs)


def _gaussian_cells(fn):
    """Gaussian cell masses with the Dirichlet mean m and covariance
    (diag(m) - m m^T) / (a + 1), drawn from the sampler's stream."""

    def draw(a, measures, rng, size):
        m = np.asarray(measures, dtype=float)
        y = np.sqrt(m) * rng.normal(size * m.size).reshape(size, m.size)
        return m + (y - np.outer(y.sum(axis=1), m)) / np.sqrt(a + 1.0)

    return draw


def _kernel_at_a_plus_1(fn):
    return lambda y1, y2, l1, l2, a: fn(y1, y2, l1, l2, a + 1.0)


def _prior_mean(fn):
    return lambda a, base, data, s: base.measure(s)


def _half_mean(fn):
    return lambda *args: 0.5 * fn(*args)


def _uncaught(item: str, why: str):
    reason = f"ROADMAP item {item}: {why}"
    return pytest.mark.xfail(raises=AssertionError, strict=True, reason=reason)


_GC_GAP = _uncaught("1", "gc judges a rate window, not the exact mean CvM 1/(6(1 + a))")
_POSTERIOR_GAP = _uncaught("2", "posterior draws and judges at the same mean, right or wrong")
_DENSITY_GAP = _uncaught("4", "density compares a + 1's kernel with the same Gaussian limit")
_A_STAR_GAP = _uncaught("2", "the a_star row compares a + n with itself, whatever a draw used")
_MODULUS_GAP = _uncaught("12", "modulus checks a second moment, which Gaussian cells match")

# (family, config fields, [(module, name, patch of the original)])
_MUTANTS = [
    pytest.param("gc", _GC, [(verify, "stick_breaking_sample", _scaled(1.25))],
                 marks=_GC_GAP, id="gc-1.25a"),
    pytest.param("gc", _GC, [(verify, "stick_breaking_sample", _scaled(2.0))],
                 marks=_GC_GAP, id="gc-2a"),
    pytest.param("posterior", {}, [(verify, "posterior_mean", _prior_mean)],
                 marks=_POSTERIOR_GAP, id="posterior-prior-mean"),
    pytest.param("posterior", {}, [(verify, "posterior_mean", _half_mean)],
                 marks=_POSTERIOR_GAP, id="posterior-half-mean"),
    # the default data holds n = 3 points, so this draws at a, not a + n
    pytest.param("posterior", {}, [(verify, "sample_fidi", _shifted(-3.0))],
                 marks=_A_STAR_GAP, id="posterior-at-a"),
    pytest.param("modulus", {}, [(verify, "sample_fidi", _gaussian_cells)],
                 marks=_MODULUS_GAP, id="modulus-gaussian"),
    pytest.param("density", {}, [(processes, "scaled_bivariate_density", _kernel_at_a_plus_1),
                                 (verify, "scaled_bivariate_density", _kernel_at_a_plus_1)],
                 marks=_DENSITY_GAP, id="density-kernel-a+1"),
    pytest.param("quantile", {}, [(verify, "bisection_quantiles", _scaled(1.25))],
                 id="quantile-1.25a"),
    pytest.param("moments", {}, [(verify, "sample_fidi", _scaled(1.25))], id="moments-1.25a"),
    pytest.param("fidi", {}, [(verify, "sample_fidi", _scaled(1.25))], id="fidi-1.25a"),
    pytest.param("modulus", {}, [(verify, "sample_fidi", _scaled(1.25))], id="modulus-1.25a"),
]


def _margins(result: verify.McSummary) -> dict[str, float]:
    out = {c.name: (c.estimate - c.target) / c.standard_error if c.standard_error
           else c.estimate - c.target for c in result.comparisons}
    out.update({c.name: c.p_value for c in result.level_checks})
    return out


@pytest.mark.parametrize("family, fields, patches", _MUTANTS)
def test_verdict_fails_on_a_known_wrong_model(monkeypatch, family, fields, patches):
    config = validate_config({"schema_version": 1, "seed": 1, "experiment": family, **fields})
    for module, name, patch in patches:
        monkeypatch.setattr(module, name, patch(getattr(module, name)))
    result = run_experiment(config).results[family]
    assert not result.passed, _margins(result)
