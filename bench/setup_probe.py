"""Set-up probe: run in a fresh interpreter by ``run.py``.

Builds the workload's configs, imports ``dplab.cli`` (which imports the whole
package, scipy.stats included) and validates every config through
``harness.validate_config``. Prints one JSON line with the import and
validation times; the parent process times the whole interpreter.
"""

import argparse
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))

    import workloads

    configs = workloads.harness_configs(workloads.build_ops(args.workload, args.seed))
    t0 = time.perf_counter()
    import dplab.cli  # noqa: F401
    from dplab import harness

    t1 = time.perf_counter()
    for config in configs:
        harness.validate_config(config)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "validate_s": t2 - t1}))


if __name__ == "__main__":
    main()
