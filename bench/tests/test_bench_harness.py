"""Self-test of the benchmark harness at small sizes (N = 2-3).

Run from the repository root:  python -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL_N = {"scan-pure": 3, "scan-mixed": 3, "cfi-povm": 3, "simulate-mle": 2}


def _run_small(name: str, trace: bool, **kwargs) -> dict:
    return harness.run_workload(name, seed=7, seconds=0.0, trace=trace,
                                n_qubits=SMALL_N[name], trials=20,
                                setup_repeats=1, **kwargs)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_emitted(name, trace):
    result = _run_small(name, trace)
    expected = harness.PER_LAYER if trace else harness.END_TO_END
    assert [(m, e["unit"]) for m, e in result["metrics"].items()] == list(expected)
    assert all(isinstance(e["value"], float) for e in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["failed"] == 0, result["details"]["failures"]
    assert result["correct"] is True


def test_benchmark_json_lists_exactly_the_emitted_metrics():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]}.items() <= {
        name: w.why for name, w in WORKLOADS.items()}.items()
    for key, emitted in (("end_to_end", harness.END_TO_END),
                         ("per_layer", harness.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in spec[key]] == list(emitted)


def test_wrong_reference_raises_fail_ratio_instead_of_crashing():
    result = _run_small("cfi-povm", False, reference_overrides={"cfi": 10.0})
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False
    assert "cfi" in result["details"]["failures"][0]
    assert set(result["metrics"]) == {m for m, _ in harness.END_TO_END}


def test_memory_guard_refuses_oversized_povm():
    # 2^12 elements of 4096x4096 complex: about 3 TiB, refused before any allocation.
    with pytest.raises(harness.MemoryBudgetError):
        harness.check_memory(WORKLOADS["cfi-povm"], 12)
    assert harness.check_memory(WORKLOADS["cfi-povm"], 3) > 0


def test_missing_source_tree_exits_nonzero_without_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan-pure", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_skips_functions_the_package_no_longer_defines(monkeypatch):
    import tracing

    monkeypatch.setattr(tracing, "TRACED_FUNCTIONS", tracing.TRACED_FUNCTIONS + (
        ("fisher", "no_such_function"), ("no_such_module", "anything")))
    monkeypatch.setattr(tracing, "TRACED_METHODS", tracing.TRACED_METHODS + (
        ("core", "NoSuchClass", "__init__", "core.NoSuchClass"),))
    tracer = tracing.Tracer()
    with tracer:
        from qcrb_lab import fisher

        assert fisher.sld.__wrapped__ is not None
    assert not hasattr(fisher.sld, "__wrapped__")
