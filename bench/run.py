"""qcrb-lab benchmark entry point.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints a report (environment, every metric with its unit, sample counts,
fail ratio) and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The same result with
its details is written to ``.bench_results/``. Exit codes: 0 when a result
was printed, 2 for bad arguments or a missing source tree, 3 when the
memory guard refuses the workload or set-up cannot be measured.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def _pin_threads() -> None:
    """Cap BLAS at the cores this process may use and keep the package's
    worker pool at its default of 1; must run before numpy is imported."""
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = nproc
    os.environ.pop("QCRB_LAB_THREADS", None)


def main(argv: list[str] | None = None) -> int:
    _pin_threads()
    import harness

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(harness.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "qcrb_lab" / "cli.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result = harness.run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    except (harness.MemoryBudgetError, harness.SetupProbeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    harness.RESULTS_DIR.mkdir(exist_ok=True)
    out = harness.RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(harness.report(result))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
