"""dplab benchmark: one workload, timed end to end or traced layer by layer.

    python3 bench/run.py --workload marginals --seed 1 --seconds 15 --trace 0

Run from a checkout of the repository; dplab is imported from its ``src/``.
Each run:

1. times ``SETUP_PROBES`` fresh interpreters that import dplab and validate
   the workload's configs (``setup_probe.py``);
2. runs one warm-up round on the acceptance suite's pinned seeds and checks
   it at the pinned SE multiples (``checks.py``);
3. repeats whole rounds of the workload, seeded from ``--seed``, for
   ``--seconds``; every round must write byte-identical CSVs. With
   ``--trace 1`` rounds alternate untraced and traced (``tracing.py``);
4. checks the last round's artifacts against the benchmark's own closed
   forms and prints one JSON line: end-to-end metrics with ``--trace 0``,
   per-layer metrics with ``--trace 1``.

Exits 1 if any check fails, 2 if the checkout has no dplab sources.
DPLAB_THREADS is pinned to 2 and one process runs one workload at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
THREADS = "2"
SETUP_PROBES = 5
# Realizations per a-value re-drawn for the dense-grid sup-norm check.
GRID_CHECK_SAMPLES = 2

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}


@dataclass
class Round:
    wall_s: float
    cpu_s: float
    failed: int
    manifests: dict[str, list[str]]
    errors: list[str] = field(default_factory=list)
    layers: dict[str, float] | None = None


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def measure_setup(workload: str, seed: int) -> dict[str, float]:
    """Median wall time of fresh interpreters importing dplab and validating
    the configs, with the medians of their own import and validate times."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), "--workload", workload,
           "--seed", str(seed)]
    walls, imports, validates = [], [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        imports.append(probe["import_s"])
        validates.append(probe["validate_s"])
    return {
        "setup_s": statistics.median(walls),
        "cli.import.s": statistics.median(imports),
        "harness.validate.s": statistics.median(validates),
    }


def run_op(op: wl.Op, out_dir: Path) -> list[str]:
    """One operation the way ``dplab run`` does it; returns the manifest."""
    # dplab is importable only once main() has put the checkout's src/ on sys.path.
    from dplab import BorelSet, TruncationPolicy, harness, uniform_base, verify

    if op.family == "representation":
        c = op.config
        start = time.perf_counter()
        summary = verify.representation_check(
            c["a"],
            uniform_base(),
            [BorelSet.interval(lo, hi) for lo, hi in c["cells"]],
            c["replications"],
            c["seed"],
            trunc=TruncationPolicy(c["epsilon"]),
        )
        report = harness.RunReport(
            config_echo=c,
            results={"representation": summary},
            family_passed={"representation": summary.passed},
            overall_pass=summary.passed,
            wall_clock_seconds=time.perf_counter() - start,
        )
    else:
        report = harness.run_experiment(harness.validate_config(op.config))
    return harness.emit_report(report, out_dir)


def run_round(ops: list[wl.Op], out_dir: Path) -> Round:
    failed = 0
    manifests: dict[str, list[str]] = {}
    errors: list[str] = []
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    for op in ops:
        try:
            manifests[op.name] = run_op(op, out_dir / op.name)
        except Exception:  # an operation that raises counts as failed; the round goes on
            failed += 1
            errors.append(f"{op.name} raised:\n{traceback.format_exc()}")
    return Round(time.perf_counter() - wall0, cpu_seconds() - cpu0, failed, manifests, errors)


def csv_digest(out_dir: Path, manifests: dict[str, list[str]]) -> str:
    h = hashlib.sha256()
    for name in sorted(manifests):
        for artifact in sorted(manifests[name]):
            if artifact.endswith(".csv"):
                h.update(f"{name}/{artifact}\n".encode())
                h.update((out_dir / name / artifact).read_bytes())
    return h.hexdigest()


def artifact_bytes(out_dir: Path, manifests: dict[str, list[str]]) -> int:
    return sum(
        (out_dir / name / artifact).stat().st_size
        for name, files in manifests.items()
        for artifact in files
    )


def check_reports(ops: list[wl.Op], out_dir: Path, manifests, pinned: bool) -> list[str]:
    errors = []
    for op in ops:
        if op.name not in manifests:
            continue
        report = json.loads((out_dir / op.name / "report.json").read_text())
        errors += checks.check_op(op, report, pinned)
        if pinned and not report["pass"]:
            errors.append(f"{op.name}: dplab reports FAIL on its pinned seed")
    return errors


def check_realizations(ops: list[wl.Op]) -> list[str]:
    """Exact sup-norm against a dense grid on a few fresh realizations."""
    from dplab import RngStream, TruncationPolicy, stick_breaking_sample, uniform_base, verify

    errors = []
    for op in ops:
        if op.family != "gc":
            continue
        base = uniform_base()
        trunc = TruncationPolicy(op.config["truncation"]["epsilon"])
        for a in op.config["a_values"]:
            for r in range(GRID_CHECK_SAMPLES):
                sample = stick_breaking_sample(a, base, trunc, RngStream(op.seed, r))
                errors += checks.check_realization(
                    a,
                    sample.atoms,
                    sample.weights,
                    verify.sup_deviation(sample, base),
                    verify.cvm_deviation(sample, base),
                )
    return errors


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    setup = measure_setup(workload, seed)
    import tracing

    ops = wl.build_ops(workload, seed)
    pinned_ops = wl.build_ops(workload, None)
    out_dir = OUT / workload

    warm = run_round(pinned_ops, out_dir / "pinned")
    errors = warm.errors + check_reports(pinned_ops, out_dir / "pinned", warm.manifests, True)

    tracer = tracing.Tracer()
    seeded = out_dir / "seeded"
    rounds: list[Round] = []
    digests = set()
    start = time.perf_counter()
    while len(rounds) < (2 if trace else 1) or time.perf_counter() - start < seconds:
        traced = trace and len(rounds) % 2 == 1
        first_span = len(tracer.spans)
        if traced:
            tracer.install()
        try:
            r = run_round(ops, seeded)
        finally:
            tracer.uninstall()
        if traced:
            r.layers = tracing.layer_metrics(tracer.spans[first_span:])
        rounds.append(r)
        errors += r.errors
        if not r.failed:
            digests.add(csv_digest(seeded, r.manifests))
    if len(digests) > 1:
        errors.append(f"CSV artifacts differ between rounds of one seed ({len(digests)} versions)")
    last = rounds[-1]
    errors += check_reports(ops, seeded, last.manifests, False)
    errors += check_realizations(ops)

    if trace:
        timed = [r for r in rounds if r.layers is None]
        traced_rounds = [r for r in rounds if r.layers is not None]
        metrics = {
            name: statistics.median(r.layers[name] for r in traced_rounds)
            for name in traced_rounds[0].layers
        }
        metrics["harness.validate.s"] = setup["harness.validate.s"]
        metrics["cli.import.s"] = setup["cli.import.s"]
        metrics["harness.artifact_bytes"] = artifact_bytes(seeded, last.manifests)
        metrics["trace.overhead_s"] = statistics.median(
            r.wall_s for r in traced_rounds
        ) - statistics.median(r.wall_s for r in timed)
        tracer.dump(out_dir / "trace.jsonl")
    else:
        metrics = {
            "setup_s": setup["setup_s"],
            "run_s": statistics.median(r.wall_s for r in rounds),
            "cpu_s": statistics.median(r.cpu_s for r in rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    result = {
        "correct": not errors,
        "attempted": len(ops) * len(rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    return result, errors


def layer_unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dplab" / "__init__.py").is_file():
        print(f"error: no dplab sources under {SRC}", file=sys.stderr)
        return 2
    os.environ["DPLAB_THREADS"] = THREADS
    sys.path.insert(0, str(SRC))

    result, errors = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for message in errors:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    units = END_TO_END_UNITS if not args.trace else {}
    result["metrics"] = {
        name: {"value": value, "unit": units.get(name) or layer_unit(name)}
        for name, value in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
