"""Correctness checks, with every target derived here from closed forms.

Nothing in this module takes a target from dplab. Each check reads an
operation's ``report.json`` (what a user of ``dplab run`` gets) and returns
a list of failure messages; an empty list means the output is correct.

Two kinds of checks run:

* exact checks hold for every seed on correct code: the reported target
  equals the closed form, the reported tolerance is the pinned multiple,
  the reported verdict follows from estimate, SE, target and tolerance, and
  the method's deterministic properties hold (conjugate concentration, the
  cubic deviation bound on every sample, density quadrature, TV range);
* statistical checks compare each estimate with its closed-form target at
  the pinned multiples (means 3 SE, other moments 4 SE, variances of the
  quantile family 5 SE, KS at level 0.01). They are taken on the pinned
  seeds of the warm-up round. On benchmark-seeded rounds the same
  comparisons run at ``GROSS_SE`` and ``GROSS_LEVEL``, whose false-fail
  rate on correct code is at most 1e-8 per check, so only gross errors fail
  there.
"""

from __future__ import annotations

import math

import numpy as np

import workloads as wl

MEAN_SE = 3.0
MOMENT_SE = 4.0
VARIANCE_SE = 5.0
KS_LEVEL = 0.01
INTEGRAL_TOL = 1e-3
GC_RATE_WINDOW = (-0.6, -0.4)

GROSS_SE = 8.0
GROSS_LEVEL = 1e-8


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def lebesgue(s) -> float:
    """Uniform measure of a union of [lo, hi] intervals inside [0, 1]."""
    return sum(max(0.0, min(hi, 1.0) - max(lo, 0.0)) for lo, hi in s)


def intersect(s, t) -> list:
    return [
        [max(a, c), min(b, d)] for a, b in s for c, d in t if max(a, c) < min(b, d)
    ]


def dp_variance(a: float, m: float) -> float:
    """Var P_a(S) = H(S)(1 - H(S)) / (1 + a); 0.21/(1+a) for H(S) = 0.3."""
    return m * (1.0 - m) / (1.0 + a)


def dp_cross(a: float, s, t) -> float:
    """E[P_a(S) P_a(T)] = (H(S and T) + a H(S) H(T)) / (1 + a)."""
    return (lebesgue(intersect(s, t)) + a * lebesgue(s) * lebesgue(t)) / (1.0 + a)


def bridge_cov(s, t) -> float:
    """Brownian-bridge covariance lam(S and T) - lam(S) lam(T)."""
    return lebesgue(intersect(s, t)) - lebesgue(s) * lebesgue(t)


def modulus_product(a: float, t1: float, t: float, t2: float) -> float:
    return a / (a + 1.0) * (t - t1) * (t2 - t)


def modulus_bound(a: float, t1: float, t2: float) -> float:
    return a / (a + 1.0) * (t2 - t1) ** 2


def posterior_mean(a: float, data, s) -> float:
    """H*(S) = (a lam(S) + #{X_k in S}) / (a + n) for half-open cells (lo, hi]."""
    hits = sum(1 for x in data for lo, hi in s if lo < x <= hi)
    return (a * lebesgue(s) + hits) / (a + len(data))


def base_quantile_density(label: str, u: float) -> float:
    """h(H^-1(u)): 1 for the uniform base, 1 - u for the unit exponential."""
    return 1.0 if label == "uniform" else 1.0 - u


def quantile_cov(label: str, u: float, v: float) -> float:
    """Limit quantile-process covariance (min(u,v) - uv) / (h(q_u) h(q_v))."""
    return (min(u, v) - u * v) / (base_quantile_density(label, u) * base_quantile_density(label, v))


def median_variance(label: str) -> float:
    """1 / (4 h^2(m)): 0.25 for the uniform base, 1.0 for the exponential."""
    return 1.0 / (4.0 * base_quantile_density(label, 0.5) ** 2)


def iqr_variance(label: str) -> float:
    """Variance of the scaled Q(.75) - Q(.25) limit; 0.25 for the uniform base."""
    return (
        quantile_cov(label, 0.75, 0.75)
        + quantile_cov(label, 0.25, 0.25)
        - 2.0 * quantile_cov(label, 0.25, 0.75)
    )


def limit_density_at_origin(l1: float, l2: float) -> float:
    """Bivariate normal density at 0 with the bridge covariance of two cells;
    sqrt(27) / (2 pi) for l1 = l2 = 1/3."""
    det = l1 * (1 - l1) * l2 * (1 - l2) - (l1 * l2) ** 2
    return 1.0 / (2.0 * math.pi * math.sqrt(det))


def cubic_bound_holds(sup: float, cvm: float, exponent: float = 3.0) -> bool:
    """The deviation bound d^3 / 3 <= integral of (P_a - H)^2 dH."""
    return sup**exponent / 3.0 <= cvm + 1e-12


# ---------------------------------------------------------------------------
# Targets per operation: name -> (target, pinned multiple, one-sided)
# ---------------------------------------------------------------------------


def comparison_targets(op: wl.Op) -> dict[str, tuple[float, float, bool]]:
    c = op.config
    out: dict[str, tuple[float, float, bool]] = {}
    if op.family == "moments":
        a, sets = c["a"], c["sets"]
        for i, s in enumerate(sets):
            out[f"mean[S{i + 1}]"] = (lebesgue(s), MEAN_SE, False)
            out[f"var[S{i + 1}]"] = (dp_variance(a, lebesgue(s)), MOMENT_SE, False)
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                out[f"cross[S{i + 1},S{j + 1}]"] = (dp_cross(a, sets[i], sets[j]), MOMENT_SE, False)
    elif op.family == "fidi":
        sets = c["sets"]
        for i in range(len(sets)):
            out[f"mean[S{i + 1}]"] = (0.0, MOMENT_SE, False)
            for j in range(i, len(sets)):
                out[f"cov[S{i + 1},S{j + 1}]"] = (bridge_cov(sets[i], sets[j]), MOMENT_SE, False)
    elif op.family == "modulus":
        a, p = c["a"], c["modulus"]
        out["increment_product"] = (modulus_product(a, p["t1"], p["t"], p["t2"]), MOMENT_SE, False)
        out["increment_product_bound"] = (modulus_bound(a, p["t1"], p["t2"]), MOMENT_SE, True)
    elif op.family == "posterior":
        out["a_star"] = (c["a"] + len(c["data"]), 0.0, False)
        for i, s in enumerate(c["sets"]):
            out[f"posterior_mean[S{i + 1}]"] = (posterior_mean(c["a"], c["data"], s), MOMENT_SE, False)
    elif op.family == "quantile":
        label = c["base_measure"]["label"]
        us = c["u_points"]
        for a in c["a_values"]:
            tag = f"a={a:g}"
            for i, u in enumerate(us):
                for v in us[i:]:
                    out[f"{tag}/qcov[{u:g},{v:g}]"] = (quantile_cov(label, u, v), VARIANCE_SE, False)
            out[f"{tag}/median_var"] = (median_variance(label), VARIANCE_SE, False)
            out[f"{tag}/iqr_var"] = (iqr_variance(label), VARIANCE_SE, False)
    elif op.family == "representation":
        a = c["a"]
        cells = [[cell] for cell in c["cells"]]
        for route in ("stick", "fidi"):
            for i, s in enumerate(cells):
                out[f"{route}_mean[S{i + 1}]"] = (lebesgue(s), MOMENT_SE, False)
                out[f"{route}_var[S{i + 1}]"] = (dp_variance(a, lebesgue(s)), MOMENT_SE, False)
            for i in range(len(cells)):
                for j in range(i + 1, len(cells)):
                    out[f"{route}_cross[S{i + 1},S{j + 1}]"] = (
                        dp_cross(a, cells[i], cells[j]), MOMENT_SE, False
                    )
    return out


def level_check_count(op: wl.Op) -> int:
    """How many KS checks the operation must report."""
    c = op.config
    if op.family == "fidi":
        return len(c["sets"])
    if op.family == "quantile":
        return len(c["a_values"])
    if op.family == "representation":
        return len(c["cells"])
    return 0


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def within(estimate: float, se: float, target: float, k: float, one_sided: bool) -> bool:
    gap = estimate - target
    return gap <= k * se if one_sided else abs(gap) <= k * se


def close(x: float, y: float) -> bool:
    return abs(x - y) <= 1e-12 + 1e-9 * abs(y)


def check_op(op: wl.Op, report: dict, pinned: bool) -> list[str]:
    """All checks of one operation's report; ``pinned`` selects the pinned
    multiples (warm-up round) or the gross-error screen (seeded rounds)."""
    result = report["results"][op.family]
    if op.family == "gc":
        return check_gc(op, result)
    if op.family == "density":
        return check_density(result)
    return check_summary(op, result, pinned)


def check_summary(op: wl.Op, result: dict, pinned: bool, targets=None) -> list[str]:
    targets = comparison_targets(op) if targets is None else targets
    errors = []
    seen = set()
    for c in result["comparisons"]:
        name = c["name"]
        if name not in targets:
            errors.append(f"{op.name}: unexpected comparison {name}")
            continue
        seen.add(name)
        target, k, one_sided = targets[name]
        if not close(c["target"], target):
            errors.append(f"{op.name}: {name} target {c['target']!r}, closed form {target!r}")
        if c["tolerance_se"] != k or c["one_sided"] != one_sided:
            errors.append(f"{op.name}: {name} tolerance {c['tolerance_se']} SE, pinned {k} SE")
        if c["pass"] != within(c["estimate"], c["se"], c["target"], c["tolerance_se"], c["one_sided"]):
            errors.append(f"{op.name}: {name} verdict does not follow from its numbers")
        k_used = k if pinned or k == 0.0 else GROSS_SE
        if not within(c["estimate"], c["se"], target, k_used, one_sided):
            errors.append(
                f"{op.name}: {name} = {c['estimate']:.6g} (se {c['se']:.3g}) "
                f"not within {k_used:g} SE of {target:.6g}"
            )
    errors += [f"{op.name}: comparison {n} missing" for n in sorted(set(targets) - seen)]
    levels = result["level_checks"]
    if len(levels) != level_check_count(op):
        errors.append(f"{op.name}: {len(levels)} KS checks, expected {level_check_count(op)}")
    for c in levels:
        if c["level"] != KS_LEVEL or c["pass"] != (c["p_value"] > c["level"]):
            errors.append(f"{op.name}: {c['name']} level or verdict inconsistent")
        level = KS_LEVEL if pinned else GROSS_LEVEL
        if not c["p_value"] > level:
            errors.append(f"{op.name}: {c['name']} p = {c['p_value']:.3g} <= {level:g}")
    return errors


def check_gc(op: wl.Op, result: dict) -> list[str]:
    a = np.array(result["a_values"])
    sup = np.array(result["mean_sup"])
    errors = []
    if not np.all(np.diff(sup) < 0.0):
        errors.append(f"gc: mean sup not strictly decreasing: {sup.tolist()}")
    rate = float(np.polyfit(np.log(a), np.log(sup), 1)[0])
    if not close(result["fitted_rate"], rate):
        errors.append(f"gc: reported rate {result['fitted_rate']!r}, refit {rate!r}")
    if not GC_RATE_WINDOW[0] <= rate <= GC_RATE_WINDOW[1]:
        errors.append(f"gc: fitted rate {rate:.4f} outside {GC_RATE_WINDOW}")
    expected = op.config["replications"] * len(op.config["a_values"])
    if result["dl_checked"] != expected or result["dl_violations"] != 0:
        errors.append(
            f"gc: cubic bound checked on {result['dl_checked']} of {expected} samples, "
            f"{result['dl_violations']} violations"
        )
    return errors


def check_density(result: dict) -> list[str]:
    d = wl.THIRD
    errors = []
    if abs(result["limit_density_at_origin"] - limit_density_at_origin(d, d)) > 1e-9:
        errors.append(f"density: limit at origin {result['limit_density_at_origin']!r}")
    if abs(limit_density_at_origin(d, d) - math.sqrt(27.0) / (2.0 * math.pi)) > 1e-12:
        errors.append("density: closed form of the limit at origin disagrees with sqrt(27)/(2 pi)")
    for tag, (value, _) in result["integrals"].items():
        if abs(value - 1.0) > INTEGRAL_TOL:
            errors.append(f"density: integral {tag} = {value!r}, not within {INTEGRAL_TOL} of 1")
    tvs = [row["tv_distance"] for row in result["rows"]]
    if any(not 0.0 <= tv <= 1.0 for tv in tvs):
        errors.append(f"density: TV outside [0, 1]: {tvs}")
    if any(b > a for a, b in zip(tvs, tvs[1:])):
        errors.append(f"density: TV increases with a: {tvs}")
    return errors


def sample_deviation(atoms: np.ndarray, weights: np.ndarray) -> tuple[float, float]:
    """Exact sup |F - x| and integral of (F - x)^2 dx on [0, 1] for the step
    cdf F of atoms in [0, 1] with the given weights (uniform base)."""
    order = np.argsort(atoms, kind="stable")
    s = atoms[order]
    cum = np.cumsum(weights[order])
    before = np.concatenate(([0.0], cum[:-1]))
    sup = max(float(np.max(np.abs(cum - s))), float(np.max(np.abs(before - s))), 1.0 - cum[-1])
    edges = np.concatenate(([0.0], s, [1.0]))
    level = np.concatenate(([0.0], cum))
    cvm = float(np.sum(((level - edges[:-1]) ** 3 - (level - edges[1:]) ** 3) / 3.0))
    return sup, cvm


def grid_sup(atoms: np.ndarray, weights: np.ndarray, points: int = 1 << 16) -> float:
    """Brute-force sup |F - x| over a dense grid on [0, 1]."""
    order = np.argsort(atoms, kind="stable")
    cum = np.concatenate(([0.0], np.cumsum(weights[order])))
    x = np.linspace(0.0, 1.0, points)
    return float(np.max(np.abs(cum[np.searchsorted(atoms[order], x, side="right")] - x)))


def check_realization(a: float, atoms, weights, dplab_sup: float, dplab_cvm: float,
                      exponent: float = 3.0) -> list[str]:
    """The exact sup-norm of one realization against a recomputation and a
    dense-grid brute force, and the cubic deviation bound."""
    atoms, weights = np.asarray(atoms), np.asarray(weights)
    sup, cvm = sample_deviation(atoms, weights)
    brute = grid_sup(atoms, weights)
    errors = []
    if not (close(dplab_sup, sup) and abs(dplab_cvm - cvm) <= 1e-12 + 1e-9 * cvm):
        errors.append(f"a={a:g}: sup/cvm {dplab_sup!r}/{dplab_cvm!r}, recomputed {sup!r}/{cvm!r}")
    if dplab_sup < brute - 1e-12:
        errors.append(f"a={a:g}: exact sup {dplab_sup!r} below grid sup {brute!r}")
    if not cubic_bound_holds(dplab_sup, dplab_cvm, exponent):
        errors.append(f"a={a:g}: sup^{exponent:g}/3 > cvm ({dplab_sup!r}, {dplab_cvm!r})")
    return errors
