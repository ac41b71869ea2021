"""Span tracing around dplab's public functions, from outside the package.

``Tracer.install`` replaces each traced function in the module namespace
where dplab looks it up at call time, and ``uninstall`` restores the
originals, so untraced rounds run the unmodified code. Spans are kept in
memory (one tuple each) and turned into per-layer metrics after the round;
``dump`` writes them out once at the end.

A span's self time is its duration minus the durations of its direct
children. Children are found through a per-thread stack, so a replication
callback running on a pool thread is the parent of the sampler calls it
makes on that thread. Times are busy time summed over threads.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

import numpy as np

from dplab import dp_core, harness, processes, rvgen, verify

# Family functions harness (and the benchmark) call as ``verify.<name>``.
FAMILY_FUNCTIONS = (
    "moment_check",
    "fidi_normality_check",
    "modulus_check",
    "gc_study",
    "quantile_limit_study",
    "density_convergence_study",
    "posterior_check",
    "representation_check",
)


def _size_arg(arg_index):
    """Work count of a call: the size requested by argument ``arg_index``."""

    def count(args, kwargs, result):
        size = args[arg_index] if len(args) > arg_index else kwargs.get("size", kwargs.get("n"))
        return 1 if size is None else int(size)

    return count


def _atoms(args, kwargs, result):
    return result.n_atoms


def _points(args, kwargs, result):
    return int(np.broadcast(np.asarray(args[0]), np.asarray(args[1])).size)


class Tracer:
    """Records spans ``(id, parent, name, start, end, count)``."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, count=None):
        """``fn`` with a span named ``name`` around each call; ``count``
        maps (args, kwargs, result) to a work count."""
        spans, next_id, stack_of = self.spans, self._ids.__next__, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next_id()
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            n = count(args, kwargs, result) if count else 1
            spans.append((span_id, parent, name, start, end, n))
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap dplab's layer boundaries where dplab looks them up."""
        w = self.wrap
        stream_cls = rvgen.RngStream
        self._patch(verify, "RngStream", w("rvgen.stream_open", stream_cls))
        self._patch(stream_cls, "uniform", w("rvgen.uniform", stream_cls.uniform, _size_arg(1)))
        self._patch(
            stream_cls, "permutation", w("rvgen.permutation", stream_cls.permutation, _size_arg(1))
        )
        for module in (verify, dp_core):
            self._patch(module, "sample_dirichlet", w("rvgen.dirichlet", module.sample_dirichlet))
        self._patch(
            verify,
            "stick_breaking_sample",
            w("dp_core.stick_breaking", verify.stick_breaking_sample, _atoms),
        )
        self._patch(
            dp_core.DpSample,
            "__post_init__",
            w("dp_core.dpsample_init", dp_core.DpSample.__post_init__),
        )
        self._patch(verify, "dp_quantile", w("dp_core.quantile", verify.dp_quantile))
        self._patch(verify, "dp_cdf", w("dp_core.cdf", verify.dp_cdf))
        self._patch(verify, "tv_distance_bivariate", w("processes.tv", verify.tv_distance_bivariate))
        self._patch(
            harness,
            "bivariate_density_integral",
            w("processes.density_integral", harness.bivariate_density_integral),
        )
        for module in (verify, processes):
            self._patch(
                module,
                "scaled_bivariate_density",
                w("processes.density", module.scaled_bivariate_density, _points),
            )
        for name in FAMILY_FUNCTIONS:
            self._patch(verify, name, w("verify.family", getattr(verify, name)))
        self._patch(verify, "map_replications", self._traced_map(verify.map_replications))
        self._patch(harness, "run_experiment", w("harness.run", harness.run_experiment))
        self._patch(harness, "emit_report", w("harness.emit", harness.emit_report))

    def _traced_map(self, map_replications):
        wrap = self.wrap

        def traced_map(fn, *args, **kwargs):
            return map_replications(wrap("verify.rep", fn), *args, **kwargs)

        return wrap("verify.map_replications", functools.wraps(map_replications)(traced_map))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write every recorded span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, n in self.spans:
                fh.write(json.dumps([span_id, parent, name, start, end, n]) + "\n")


def tail_percentile(values: np.ndarray) -> float:
    """The 99th percentile, or with fewer than 1000 samples the highest
    percentile that still has ten samples beyond it."""
    q = min(0.99, 1.0 - 10.0 / values.size) if values.size > 10 else 0.5
    return float(np.quantile(values, q))


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer counts and busy times of one traced round."""
    total = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(int)
    child_time = defaultdict(float)
    names = {}
    for span_id, parent, name, start, end, n in spans:
        names[span_id] = name
        total[name] += end - start
        calls[name] += 1
        work[name] += n
    for span_id, parent, name, start, end, n in spans:
        if parent in names:  # a parent that raised recorded no span
            child_time[names[parent]] += end - start

    def self_time(name: str) -> float:
        return total[name] - child_time[name]

    rep = np.array([end - start for _, _, name, start, end, _ in spans if name == "verify.rep"])
    return {
        "rvgen.stream_open.calls": calls["rvgen.stream_open"],
        "rvgen.stream_open.s": total["rvgen.stream_open"],
        "rvgen.dirichlet.calls": calls["rvgen.dirichlet"],
        "rvgen.dirichlet.s": total["rvgen.dirichlet"],
        "rvgen.uniform.values": work["rvgen.uniform"],
        "rvgen.uniform.s": total["rvgen.uniform"],
        "rvgen.permutation.values": work["rvgen.permutation"],
        "rvgen.permutation.s": total["rvgen.permutation"],
        "dp_core.stick_breaking.calls": calls["dp_core.stick_breaking"],
        "dp_core.stick_breaking.atoms": work["dp_core.stick_breaking"],
        "dp_core.stick_breaking.self_s": self_time("dp_core.stick_breaking"),
        "dp_core.dpsample_init.s": total["dp_core.dpsample_init"],
        "dp_core.quantile.calls": calls["dp_core.quantile"],
        "dp_core.quantile.s": total["dp_core.quantile"],
        "dp_core.cdf.s": total["dp_core.cdf"],
        "processes.tv.calls": calls["processes.tv"],
        "processes.tv.s": total["processes.tv"],
        "processes.density_integral.s": total["processes.density_integral"],
        "processes.density_evals": work["processes.density"],
        "verify.map_replications.calls": calls["verify.map_replications"],
        "verify.map_replications.s": total["verify.map_replications"],
        "verify.rep.calls": calls["verify.rep"],
        "verify.rep.p50_us": float(np.median(rep)) * 1e6 if rep.size else 0.0,
        "verify.rep.p99_us": tail_percentile(rep) * 1e6 if rep.size else 0.0,
        "verify.rep.self_s": self_time("verify.rep"),
        "verify.reduce.s": self_time("verify.family"),
        "harness.run.s": total["harness.run"],
        "harness.emit.s": total["harness.emit"],
    }
