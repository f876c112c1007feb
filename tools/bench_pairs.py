"""Run the benchmark in alternating pairs on a git ref and on this tree.

Usage, from anywhere inside the repository::

    python tools/bench_pairs.py BASE_REF --workloads W [W ...] --seeds S [S ...] \
        --out BENCH_<n>.json [--seconds SECONDS]

BASE_REF is exported with ``git archive`` into a temporary directory; the
other side is this checkout (HEAD plus any uncommitted edits). For each
workload and seed, ``python3 bench/run.py --workload W --seed S --seconds T
--trace 0`` runs once on each side, one process at a time, the parent first
for the first seed and the sides alternating which runs first from seed to
seed. ``--seconds`` defaults to the ``run_seconds`` of ``BENCHMARK.json``.

The output file holds every result line (``runs``), and per workload and
end-to-end metric of ``BENCHMARK.json`` each side's median and quartiles
(``statistics.quantiles``, exclusive method), the number of pairs in which
the change reads lower, and each side's failed and attempted invocations
(``summary``), with the environment block of the change's first run.

Exit codes: 0 when every run printed a result, 2 when BASE_REF cannot be
exported or a run fails.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _export(ref: str, dest: Path) -> str:
    """Extract the tree of ``ref`` into ``dest``; return its short commit id."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", ref],
                             capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return subprocess.run(["git", "-C", str(REPO), "rev-parse", "--short", ref],
                          capture_output=True, check=True, text=True).stdout.strip()


def _run(root: Path, workload: str, seed: int, seconds: str) -> tuple[dict, dict]:
    """One ``bench/run.py`` run under ``root``: its result line and the
    environment block of the result file it wrote."""
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} under {root} exited "
                           f"{done.returncode}:\n{done.stderr}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    written = root / ".bench_results" / f"{workload}-seed{seed}-trace0.json"
    return line, json.loads(written.read_text(encoding="utf-8"))["details"]["environment"]


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": len(values)}


def summarize(runs: list[dict], metrics: list[str]) -> dict:
    """Per workload: each metric's spread per side and the pairs in which the
    change is lower, and each side's failed / attempted invocations."""
    summary: dict = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        pairs = {}
        for run in mine:
            pairs.setdefault(run["seed"], {})[run["side"]] = run
        entry: dict = {}
        for metric in metrics:
            sides = {side: [run["metrics"][metric]["value"] for run in mine
                            if run["side"] == side] for side in ("parent", "change")}
            lower = sum(pair["change"]["metrics"][metric]["value"]
                        < pair["parent"]["metrics"][metric]["value"]
                        for pair in pairs.values())
            entry[metric] = {side: _spread(values) for side, values in sides.items()}
            entry[metric]["change_lower_pairs"] = f"{lower}/{len(pairs)}"
        entry["failed"] = {side: "{}/{}".format(
            sum(run["failed"] for run in mine if run["side"] == side),
            sum(run["attempted"] for run in mine if run["side"] == side))
            for side in ("parent", "change")}
        summary[workload] = entry
    return summary


def main(argv: list[str]) -> int:
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_ref")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    seconds = f"{args.seconds:g}"
    metrics = [metric["name"] for metric in benchmark["end_to_end"]]
    runs: list[dict] = []
    environment: dict = {}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        base = Path(tmp)
        try:
            base_id = _export(args.base_ref, base)
        except subprocess.CalledProcessError as exc:
            print(f"cannot export {args.base_ref!r}: {exc.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        for workload in args.workloads:
            for k, seed in enumerate(args.seeds):
                order = [("parent", base), ("change", REPO)]
                for side, root in (order if k % 2 == 0 else order[::-1]):
                    try:
                        line, env = _run(root, workload, seed, seconds)
                    except RuntimeError as exc:
                        print(exc, file=sys.stderr)
                        return 2
                    if side == "change" and not environment:
                        environment = {key: value for key, value in env.items()
                                       if key not in ("seed", "n_qubits", "specs")}
                    runs.append({"workload": workload, "seed": seed, "side": side, **line})
                    print(f"{workload} seed {seed} {side}: "
                          + ", ".join(f"{name} {line['metrics'][name]['value']:.6g}"
                                      for name in metrics), flush=True)
    result = {
        "description": f"bench/run.py result lines, parent ({base_id}) and change, "
                       "alternating which side runs first per seed",
        "command": f"python3 bench/run.py --workload W --seed S --seconds {seconds} --trace 0",
        "seeds": {workload: list(args.seeds) for workload in args.workloads},
        "environment": environment,
        "summary": summarize(runs, metrics),
        "runs": runs,
    }
    args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
