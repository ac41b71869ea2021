"""Workload definitions: which dplab operations one round of a workload runs.

An operation is one family config taken through ``validate_config`` ->
``run_experiment`` -> ``emit_report`` (what ``dplab run`` does), or one
``verify.representation_check`` call. Families, a-values and bases mirror
the acceptance criteria; replication counts are the benchmark's own, sized
so that one round takes a few seconds on a 2-core machine.

This module imports nothing from dplab, so the set-up probe can build the
configs before it times the dplab import.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

THIRD = 1.0 / 3.0

WORKLOADS = ("marginals", "gc_curve", "quantile_limit")

# Replications per call. Moments needs at least 10^3 (verify.moment_check).
MARGINAL_REPS = 3000
GC_REPS = 80
REPRESENTATION_REPS = 1000
QUANTILE_REPS = 100

MOMENT_A = (1.0, 10.0, 100.0)
MODULUS_A = (1.0, 10.0)
GC_A = (10.0, 100.0, 1000.0, 10000.0)
QUANTILE_A = 10000.0
U_POINTS = (0.25, 0.5, 0.75)

# Criterion 1's set (0, .3] and criterion 2's partners: (.3, .5] is disjoint
# from it, (.2, .5] overlaps it. One moment_check over the three sets checks
# both criteria's means, variances and cross moments at each a.
MOMENT_SETS = [[[0.0, 0.3]], [[0.3, 0.5]], [[0.2, 0.5]]]
FIDI_SETS = [[[0.0, 0.25]], [[0.25, 0.5]], [[0.5, 1.0]]]
MODULUS_POINTS = {"t1": 0.1, "t": 0.4, "t2": 0.9}
POSTERIOR_A = 2.0
POSTERIOR_DATA = [0.2, 0.4, 0.6]
POSTERIOR_SETS = [[[0.0, 0.3]], [[0.3, 0.6]], [[0.6, 1.0]]]
REPRESENTATION_A = 10.0
REPRESENTATION_CELLS = [[0.0, THIRD], [THIRD, 2 * THIRD], [2 * THIRD, 1.0]]
EPSILON = 1e-10

UNIFORM = {"label": "uniform"}
EXPONENTIAL = {"label": "exponential", "rate": 1.0}

# Master seeds of the acceptance suite (tests/test_acceptance.py), one per
# operation. The warm-up round runs on these, and the statistical checks at
# the pinned SE multiples are taken on its output: a level-0.01 test would
# otherwise fail by chance on some benchmark seeds and not on others.
PINNED_SEEDS = {
    "moments_a1": 8801,
    "moments_a10": 8801,
    "moments_a100": 8801,
    "fidi": 8806,
    "modulus_a1": 8807,
    "modulus_a10": 8807,
    "posterior": 8805,
    "density": 8809,
    "gc": 8808,
    "representation": 8804,
    "quantile_uniform": 8809,
    "quantile_exponential": 8810,
}


@dataclass(frozen=True)
class Op:
    """One operation of a round. ``config`` is a dplab config for a harness
    family; for ``representation`` it holds the check's arguments."""

    name: str
    family: str
    config: dict

    @property
    def seed(self) -> int:
        return self.config["seed"]


def _family(name: str, family: str, seed: int, **params) -> Op:
    return Op(name, family, {"schema_version": 1, "experiment": family, "seed": seed, **params})


def _op_specs(workload: str) -> list[tuple[str, str, dict]]:
    """(name, family, params) of every operation of the workload, in order."""
    if workload == "marginals":
        specs = [
            (f"moments_a{a:g}", "moments", {
                "a": a, "base_measure": UNIFORM, "sets": MOMENT_SETS,
                "replications": MARGINAL_REPS,
            })
            for a in MOMENT_A
        ]
        specs.append(("fidi", "fidi", {
            "a": 1e4, "sets": FIDI_SETS, "replications": MARGINAL_REPS,
        }))
        specs += [
            (f"modulus_a{a:g}", "modulus", {
                "a": a, "modulus": MODULUS_POINTS, "replications": MARGINAL_REPS,
            })
            for a in MODULUS_A
        ]
        specs.append(("posterior", "posterior", {
            "a": POSTERIOR_A, "base_measure": UNIFORM, "data": POSTERIOR_DATA,
            "sets": POSTERIOR_SETS, "replications": MARGINAL_REPS,
        }))
        specs.append(("density", "density", {}))
        return specs
    if workload == "gc_curve":
        return [
            ("gc", "gc", {
                "base_measure": UNIFORM, "a_values": list(GC_A),
                "replications": GC_REPS, "gc_grid_resolution": 512,
                "truncation": {"epsilon": EPSILON, "max_atoms": None},
            }),
            ("representation", "representation", {
                "a": REPRESENTATION_A, "cells": REPRESENTATION_CELLS,
                "replications": REPRESENTATION_REPS, "epsilon": EPSILON,
            }),
        ]
    if workload == "quantile_limit":
        return [
            (f"quantile_{base['label']}", "quantile", {
                "base_measure": base, "a_values": [QUANTILE_A],
                "u_points": list(U_POINTS), "replications": QUANTILE_REPS,
                "truncation": {"epsilon": EPSILON, "max_atoms": None},
            })
            for base in (UNIFORM, EXPONENTIAL)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def build_ops(workload: str, seed: int | None) -> list[Op]:
    """The workload's operations, with master seeds drawn from ``seed``, or
    the acceptance suite's pinned seeds when ``seed`` is None."""
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for name, family, params in _op_specs(workload):
        master = PINNED_SEEDS[name] if seed is None else rng.randrange(1, 2**31)
        ops.append(_family(name, family, master, **params))
    return ops


def harness_configs(ops: list[Op]) -> list[dict]:
    """The configs that go through ``harness.validate_config``."""
    return [op.config for op in ops if op.family != "representation"]
