"""Runs one benchmark workload through the qcrb-lab CLI and measures it.

The CLI is driven in-process with ``qcrb_lab.cli.main(argv,
standalone_mode=False)``. An untraced run reports the end-to-end metrics; a
traced run alternates untraced and traced invocations and reports the
per-layer metrics. Every invocation's output is checked; a wrong output or
an unexpected exit code counts as a failed invocation, never as an abort.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np
import scipy

from tracing import ROOT_SPAN, Tracer
from workloads import PHI_ATOL, WORKLOADS, Case, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
RESULTS_DIR = ROOT / ".bench_results"

# Fresh processes timed per run for setup_s; their median is reported.
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
# Share of the available memory a workload's estimated footprint may use.
MEMORY_SHARE = 0.5
# Distinct failure messages kept for the report.
MAX_FAILURE_MESSAGES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("cmd_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Metric names are <layer>.<function>.<stat>. Stats: calls, s (span total),
# self_s (span minus child spans), per_row / per_regular_row /
# per_singular_row (calls at a grid phase per row), per_trial (calls per
# Monte Carlo trial). All are per CLI invocation. Layer "concurrency" is
# the module _concurrency; a metric name may not start with "_".
PER_LAYER = (
    ("cli.self_s", "s"),
    ("modelspec.load_model_spec.calls", "count"),
    ("modelspec.load_model_spec.s", "s"),
    ("core.Povm.s", "s"),
    ("core.eigvalsh.calls", "count"),
    ("core.eigvalsh.s", "s"),
    ("core.collective_spin.s", "s"),
    ("core.eigh.calls", "count"),
    ("core.eigh.s", "s"),
    ("core.matrix_sqrt_psd.calls", "count"),
    ("core.matrix_sqrt_psd.self_s", "s"),
    ("fisher.sld.calls", "count"),
    ("fisher.sld.self_s", "s"),
    ("fisher.sld.per_row", "calls/row"),
    ("fisher.sld.per_regular_row", "calls/row"),
    ("fisher.sld.per_singular_row", "calls/row"),
    ("fisher.density.calls", "count"),
    ("fisher.density.self_s", "s"),
    ("fisher.density.per_row", "calls/row"),
    ("fisher.state_derivative.calls", "count"),
    ("fisher.state_derivative.self_s", "s"),
    ("fisher.second_state_derivative.calls", "count"),
    ("fisher.second_state_derivative.self_s", "s"),
    ("fisher.outcome_distribution.calls", "count"),
    ("fisher.outcome_distribution.self_s", "s"),
    ("fisher.outcome_distribution.per_trial", "calls/trial"),
    ("fisher.cfi.calls", "count"),
    ("fisher.cfi.self_s", "s"),
    ("optimality.error_propagation.calls", "count"),
    ("optimality.error_propagation.self_s", "s"),
    ("optimality.error_propagation.per_trial", "calls/trial"),
    ("optimality.check_observable_optimality.calls", "count"),
    ("optimality.check_observable_optimality.self_s", "s"),
    ("optimality.observable_expectations.calls", "count"),
    ("optimality.observable_expectations.self_s", "s"),
    ("simulate.sample_shots.calls", "count"),
    ("simulate.sample_shots.self_s", "s"),
    ("simulate.estimate_phi_sample_mean.calls", "count"),
    ("simulate.estimate_phi_sample_mean.self_s", "s"),
    ("simulate.estimate_phi_mle.calls", "count"),
    ("simulate.estimate_phi_mle.self_s", "s"),
    ("concurrency.parallel_map.s", "s"),
    ("concurrency.workers", "count"),
    ("trace.overhead_s", "s"),
)


class MemoryBudgetError(RuntimeError):
    """The workload's estimated dense footprint exceeds the memory budget."""


class SetupProbeError(RuntimeError):
    """A set-up probe process failed or imported the wrong package."""


# --- memory guard ----------------------------------------------------------

def _read_int(path: str) -> int | None:
    try:
        return int(Path(path).read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def available_memory() -> int:
    """Bytes available to this process: free system memory, further capped
    by the cgroup limit when one is set."""
    available = None
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemAvailable:"):
                available = int(line.split()[1]) * 1024
    except OSError:
        pass
    if available is None:
        available = os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    limit = _read_int("/sys/fs/cgroup/memory.max")
    used = _read_int("/sys/fs/cgroup/memory.current")
    if limit is not None and used is not None:
        available = min(available, limit - used)
    return available


def check_memory(workload: Workload, n_qubits: int) -> int:
    """Refuse sizes whose dense footprint exceeds the budget; return it."""
    need = workload.footprint(n_qubits)
    budget = int(MEMORY_SHARE * available_memory())
    if need > budget:
        raise MemoryBudgetError(
            f"{workload.name} at N={n_qubits} needs about {need / 2**20:.0f} MiB "
            f"of dense matrices; the budget is {budget / 2**20:.0f} MiB "
            f"({MEMORY_SHARE:.0%} of available memory)")
    return need


# --- environment -----------------------------------------------------------

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_libraries() -> dict[str, dict]:
    """Configuration and live thread count of each loaded OpenBLAS."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    paths = sorted({line.split()[-1] for line in maps.splitlines()
                    if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    found = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                found[Path(path).name] = {"config": get_config().decode(),
                                          "threads": get_threads()}
                break
    return found


def environment(seed: int, case: Case) -> dict:
    from qcrb_lab._concurrency import ENV_THREADS, worker_cap

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_libraries(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "qcrb_lab_threads_env": os.environ.get(ENV_THREADS),
        "qcrb_lab_workers": worker_cap(),
        "seed": seed,
        "n_qubits": case.n_qubits,
        "specs": {case.spec_path.name: case.spec_sha256()},
    }


# --- invocations -----------------------------------------------------------

@dataclass
class Runner:
    """Invokes the CLI on one case and checks every output."""

    cli_main: Callable
    workload: Workload
    case: Case
    reference: dict
    out_path: Path
    attempted: int = 0
    failed: int = 0
    first_output: str | None = None
    failures: list[str] = field(default_factory=list)

    def invoke(self, tracer: Tracer | None = None) -> float:
        """Run one invocation; return its wall seconds."""
        argv = [*self.case.args, "--out", str(self.out_path)]
        self.out_path.unlink(missing_ok=True)
        stderr = io.StringIO()
        code, crash = 0, None
        start = perf_counter()
        try:
            with contextlib.redirect_stderr(stderr):
                if tracer is None:
                    self.cli_main(argv, standalone_mode=False)
                else:
                    tracer.call(ROOT_SPAN, self.cli_main, (argv,),
                                {"standalone_mode": False})
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crashing command is one failed invocation
            crash = traceback.format_exc(limit=3)
        elapsed = perf_counter() - start
        self.attempted += 1
        self._record(self._problems(code, crash, stderr.getvalue()))
        return elapsed

    def _problems(self, code: int, crash: str | None, stderr: str) -> list[str]:
        if crash is not None:
            return [f"raised: {crash}"]
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[:300]}"]
        try:
            text = self.out_path.read_text(encoding="utf-8")
        except OSError as exc:
            return [f"no output file: {exc}"]
        problems = self.workload.check(self.case, text, self.reference)
        if self.first_output is None:
            self.first_output = text
        elif text != self.first_output:
            problems.append("output differs from the first invocation's")
        return problems

    def _record(self, problems: list[str]) -> None:
        if not problems:
            return
        self.failed += 1
        message = "; ".join(problems)
        if len(self.failures) < MAX_FAILURE_MESSAGES and message not in self.failures:
            self.failures.append(message)


def _probe_setup(case: Case) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(case.spec_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise SetupProbeError(f"set-up probe exited {proc.returncode}: {proc.stderr[-500:]}")
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(sample["package"]).resolve().is_relative_to(SRC.resolve()):
        raise SetupProbeError(f"set-up probe imported {sample['package']}, not {SRC}")
    return sample


# --- metrics ---------------------------------------------------------------

def _span_and_stat(metric: str) -> tuple[str, str]:
    span, stat = metric.rsplit(".", 1)
    if span.startswith("concurrency."):
        span = "_" + span
    return span, stat


def _per_row(tracer: Tracer, span: str, case: Case, singular: bool | None) -> float:
    rows = [phi for phi, flag in zip(case.phis, case.singular)
            if singular is None or flag == singular]
    if not rows:
        return 0.0
    counts = tracer.phase_calls[span]
    total = sum(n for phi, n in counts.items()
                if any(abs(phi - row) <= PHI_ATOL for row in rows))
    return total / len(rows)


def layer_values(tracer: Tracer, case: Case) -> dict[str, float]:
    """Per-layer metrics of the one invocation the tracer has recorded."""
    values = {}
    for metric, _unit in PER_LAYER:
        span, stat = _span_and_stat(metric)
        if metric == "concurrency.workers":
            value = float(len(tracer.parallel_threads))
        elif metric == "trace.overhead_s":
            continue
        elif stat == "calls":
            value = float(tracer.calls[span])
        elif stat == "s":
            value = tracer.total[span]
        elif stat == "self_s":
            value = tracer.self_time[span]
        elif stat == "per_row":
            value = _per_row(tracer, span, case, None)
        elif stat == "per_regular_row":
            value = _per_row(tracer, span, case, False)
        elif stat == "per_singular_row":
            value = _per_row(tracer, span, case, True)
        elif stat == "per_trial":
            value = tracer.calls[span] / case.trials if case.trials else 0.0
        else:
            raise ValueError(f"unknown statistic in metric {metric!r}")
        values[metric] = value
    return values


def _measure_untraced(runner: Runner, case: Case, seconds: float,
                      setup_repeats: int) -> tuple[dict, dict]:
    # The set-up probes are spread over the run, so that the invocations
    # sample the machine's speed over a longer stretch of time.
    setup, times = [], []
    while not times or sum(times) < seconds or len(setup) < setup_repeats:
        if len(setup) < setup_repeats and sum(times) >= len(setup) * seconds / setup_repeats:
            setup.append(_probe_setup(case))
        else:
            times.append(runner.invoke())
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "cmd_s": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {"cmd_samples": times,
               "setup_samples": setup}
    return values, details


def _measure_traced(runner: Runner, case: Case, seconds: float) -> tuple[dict, dict]:
    tracer = Tracer()
    plain, traced, snapshots = [], [], []
    start = perf_counter()
    while len(traced) < 1 or perf_counter() - start < seconds:
        if len(plain) <= len(traced):
            plain.append(runner.invoke())
            continue
        tracer.reset()
        with tracer:
            traced.append(runner.invoke(tracer))
        snapshots.append(layer_values(tracer, case))
    values = {metric: statistics.median(s[metric] for s in snapshots)
              for metric in snapshots[0]}
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    details = {"cmd_samples": plain, "traced_cmd_samples": traced}
    return values, details


def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 n_qubits: int | None = None, trials: int | None = None,
                 setup_repeats: int = SETUP_REPEATS,
                 reference_overrides: dict | None = None) -> dict:
    """Run one workload for ``seconds`` and return its result.

    The result holds ``correct``, ``attempted``, ``failed`` and
    ``metrics`` (end-to-end metrics when ``trace`` is false, per-layer
    metrics when it is true), plus ``details`` for the report.
    ``reference_overrides`` replaces reference values the checks compare
    against; the self-test uses it to inject a wrong one.
    """
    from qcrb_lab import cli

    workload = WORKLOADS[name]
    n = workload.default_n if n_qubits is None else n_qubits
    footprint = check_memory(workload, n)
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        case = workload.make(seed, Path(tmp), n, trials)
        runner = Runner(cli.main, workload, case,
                        {**case.reference, **(reference_overrides or {})},
                        Path(tmp) / "out.json")
        if trace:
            values, details = _measure_traced(runner, case, seconds)
            units = dict(PER_LAYER)
        else:
            values, details = _measure_untraced(runner, case, seconds, setup_repeats)
            units = dict(END_TO_END)
        env = environment(seed, case)
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {metric: {"value": values[metric], "unit": units[metric]}
                    for metric in units},
        "details": {"workload": name, "seconds": seconds, "trace": trace,
                    "footprint_bytes": footprint, "environment": env,
                    "failures": runner.failures, **details},
    }


def report(result: dict) -> str:
    """Human-readable summary: environment, every metric with its unit,
    sample counts and fail ratio."""
    details = result["details"]
    lines = [f"workload {details['workload']}  seed {details['environment']['seed']}  "
             f"seconds {details['seconds']}  trace {int(details['trace'])}",
             "environment " + json.dumps(details["environment"], sort_keys=True)]
    samples = {"cmd_s": details["cmd_samples"],
               "setup_s": [s["setup_s"] for s in details.get("setup_samples", ())]}
    for metric, entry in result["metrics"].items():
        line = f"  {metric:<48} {entry['value']:>14.6g} {entry['unit']}"
        if samples.get(metric):
            values = samples[metric]
            line += (f"   median of {len(values)} (min {min(values):.4g}, "
                     f"max {max(values):.4g})")
        lines.append(line)
    ratio = result["failed"] / result["attempted"]
    lines.append(f"  {'fail_ratio':<48} {ratio:>14.6g}   "
                 f"{result['failed']} failed of {result['attempted']} attempted")
    lines.extend(f"  failure: {message}" for message in details["failures"])
    return "\n".join(lines)
