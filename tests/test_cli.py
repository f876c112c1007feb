"""End-to-end tests of the command-line interface."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import threading
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import yaml
from click.testing import CliRunner

import qcrb_lab
from qcrb_lab import cli, fisher, modelspec, optimality, simulate
from qcrb_lab.cli import SCAN_COLUMNS, main
from qcrb_lab.errors import NotPositiveError

SCHEMA = json.loads(
    resources.files("qcrb_lab").joinpath("schemas/output.schema.json")
    .read_text(encoding="utf-8"))
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def ghz2_spec(tmp_path):
    path = tmp_path / "ghz2.yaml"
    path.write_text(
        "state:\n  ghz: {n: 2}\n"
        "observable:\n  pauli_product: {a1: 1}\n"
        "povm: x_basis_product\n"
        "phi: pi/8\nnu: 100000\nseed: 5\ntrials: 40\n",
        encoding="utf-8")
    return str(path)


@pytest.fixture
def range_spec(tmp_path):
    path = tmp_path / "range.yaml"
    path.write_text("state:\n  ghz: {n: 2}\nobservable:\n  parity: true\n"
                    "phi: {start: 0.1, stop: 0.5, steps: 3}\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def not_optimal_spec(tmp_path):
    path = tmp_path / "not-optimal.yaml"
    path.write_text("state:\n  ghz: {n: 2}\n"
                    "observable:\n  pauli_product: {a1: 1, a3: 0.5}\n"
                    "phi: {start: 0.3, stop: 0.5, steps: 2}\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def sld_phases(monkeypatch):
    """Phases of every ``sld`` call, counted at each module that binds it."""
    phases = []
    solve = fisher.sld

    def counting_sld(model, phi, **kwargs):
        phases.append(float(phi))
        return solve(model, phi, **kwargs)

    for module in (fisher, optimality, cli, simulate):
        monkeypatch.setattr(module, "sld", counting_sld)
    return phases


@pytest.fixture
def pure_density_spec(tmp_path):
    """The GHZ N=2 spec with the state given as a pure density matrix, so
    that no amplitudes are available."""
    pairs = [[0.5 if (i in (0, 3) and j in (0, 3)) else 0.0, 0.0]
             for i in range(4) for j in range(4)]
    path = tmp_path / "ghz2-density.yaml"
    path.write_text(
        f"state:\n  custom: {{density: {json.dumps(pairs)}}}\n"
        "observable:\n  pauli_product: {a1: 1}\n"
        "povm: x_basis_product\n"
        "phi: pi/8\nnu: 100000\n",
        encoding="utf-8")
    return str(path)


@pytest.fixture
def rank2_generator_spec(tmp_path):
    """A rank-2 two-qubit density under a non-diagonal generator matrix."""
    rng = np.random.default_rng(17)
    basis = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    rho = 0.7 * np.outer(basis[:, 0], basis[:, 0].conj()) + 0.3 * np.outer(
        basis[:, 1], basis[:, 1].conj())
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))

    def pairs(matrix):
        return [[float(z.real), float(z.imag)] for z in matrix.reshape(-1)]

    path = tmp_path / "rank2-generator.yaml"
    path.write_text(
        f"state:\n  custom: {{density: {json.dumps(pairs(rho))}}}\n"
        f"parametrization:\n  generator: {{matrix: {json.dumps(pairs(raw + raw.conj().T))}}}\n"
        "observable:\n  pauli_product: {a1: 1}\npovm: x_basis_product\n",
        encoding="utf-8")
    return str(path)


@pytest.fixture
def rho_eighs(monkeypatch):
    """Every ``np.linalg.eigh`` call on a unit-trace matrix, i.e. on a state."""
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(matrix, *args, **kwargs):
        if abs(np.trace(matrix) - 1.0) < 1e-9:
            calls.append(matrix)
        return eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls


def run_json(runner, args):
    result = runner.invoke(main, args + ["--output", "json"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    VALIDATOR.validate(payload)
    return payload


class TestQfiCommand:
    def test_value_and_schema(self, runner, ghz2_spec):
        payload = run_json(runner, ["qfi", "--model", ghz2_spec])
        assert payload["command"] == "qfi"
        assert payload["rows"][0]["qfi"] == pytest.approx(4.0, abs=1e-9)

    def test_show_sld_includes_matrix(self, runner, ghz2_spec):
        payload = run_json(runner, ["qfi", "--model", ghz2_spec, "--show-sld"])
        matrix = payload["rows"][0]["sld_matrix"]
        assert len(matrix) == 16
        phi = math.pi / 8
        corner = complex(*matrix[3])
        assert corner == pytest.approx(-2j * np.exp(-2j * phi), abs=1e-9)

    def test_single_qubit(self, runner, tmp_path):
        path = tmp_path / "one.yaml"
        path.write_text("state:\n  ghz: {n: 1}\n", encoding="utf-8")
        payload = run_json(runner, ["qfi", "--model", str(path), "--phi", "0.3"])
        assert payload["rows"][0]["qfi"] == pytest.approx(1.0, abs=1e-9)

    def test_phase_independent_state(self, runner, tmp_path):
        path = tmp_path / "still.yaml"
        path.write_text(
            "state:\n  custom: {amplitudes: [[1, 0], [0, 0]]}\n"
            "parametrization:\n"
            "  generator: {matrix: [[0, 0], [0, 0], [0, 0], [0, 0]]}\n",
            encoding="utf-8")
        payload = run_json(runner, ["qfi", "--model", str(path), "--phi", "0.9"])
        assert payload["rows"][0]["qfi"] == pytest.approx(0.0, abs=1e-12)


class TestSldCommand:
    def test_diagnostics(self, runner, ghz2_spec):
        payload = run_json(runner, ["sld", "--model", ghz2_spec])
        row = payload["rows"][0]
        assert row["residual"] <= 1e-9
        assert row["kernel_dim"] == 3

    def test_matrix_pairs_are_the_entries_floats(self):
        """Row-major ``[re, im]`` pairs whose floats print exactly as each
        entry's own parts, signed zeros and subnormals included."""
        matrix = np.random.default_rng(3).normal(size=(8, 8, 2)) @ [1.0, 1j]
        matrix[0, :3] = [complex(-0.0, 5e-324), complex(2.2e-310, -0.0), -1e308j]
        expected = [[float(z.real), float(z.imag)] for z in matrix.reshape(-1)]
        pairs = cli._matrix_pairs(matrix)
        assert json.dumps(pairs) == json.dumps(expected)
        assert repr(pairs) == repr(expected)


class TestErrpropCommand:
    def test_report_fields(self, runner, ghz2_spec):
        payload = run_json(runner, ["errprop", "--model", ghz2_spec])
        row = payload["rows"][0]
        assert row["delta_phi_sq"] == pytest.approx(2.5e-6, rel=1e-9)
        assert row["qcrb"] == pytest.approx(2.5e-6, rel=1e-9)
        assert row["nu"] == 100000

    def test_singular_point_is_runtime_error(self, runner, ghz2_spec):
        result = runner.invoke(main, ["errprop", "--model", ghz2_spec,
                                      "--phi", "pi/2"])
        assert result.exit_code == 4


class TestCheckOptimalCommand:
    def test_optimal_exits_zero(self, runner, ghz2_spec):
        payload = run_json(runner, ["check-optimal", "--model", ghz2_spec])
        row = payload["rows"][0]
        assert row["is_optimal"] is True
        assert row["alpha"] == pytest.approx(-math.sqrt(2) / 4, abs=1e-9)

    def test_not_optimal_exits_three(self, runner, tmp_path):
        path = tmp_path / "sz.yaml"
        path.write_text(
            "state:\n  ghz: {n: 3}\nobservable:\n  pauli_product: {a3: 1}\n"
            "phi: 0.3\n", encoding="utf-8")
        result = runner.invoke(main, ["check-optimal", "--model", str(path)])
        assert result.exit_code == 3

    def test_singular_point_flagged_not_optimal(self, runner, ghz2_spec):
        result = runner.invoke(main, ["check-optimal", "--model", ghz2_spec,
                                      "--phi", "pi/2", "--output", "json"])
        assert result.exit_code == 3
        payload = json.loads(result.output)
        VALIDATOR.validate(payload)
        row = payload["rows"][0]
        assert row["singular_flag"] is True
        assert row["is_optimal"] is False

    @pytest.mark.parametrize("command", ["check-optimal", "scan"])
    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_tol_must_be_positive_and_finite(self, runner, ghz2_spec,
                                             not_optimal_spec, command, tol):
        """Rejected on the optimal x-parity, which a NaN would refute, and on
        a non-optimal observable, which an infinite tolerance would certify."""
        for spec in (ghz2_spec, not_optimal_spec):
            result = runner.invoke(main, [command, "--model", spec, "--tol", tol,
                                          "--phi-range", "0.3:0.5:2"])
            assert result.exit_code == 2, result.output
            assert "specification error: --tol: must be a positive finite number" \
                in result.output

    @pytest.mark.parametrize("value", [".nan", ".inf", "-1", "0"])
    def test_spec_tolerance_must_be_positive_and_finite(self, runner, tmp_path, value):
        path = tmp_path / "tol.yaml"
        path.write_text("state:\n  ghz: {n: 2}\n"
                        "observable:\n  pauli_product: {a1: 1, a3: 0.5}\n"
                        f"tolerances: {{optimality: {value}}}\n", encoding="utf-8")
        result = runner.invoke(main, ["check-optimal", "--model", str(path)])
        assert result.exit_code == 2, result.output
        assert "tolerances.optimality: must be a positive finite number" in result.output

    def test_finite_tol_is_applied(self, runner, not_optimal_spec):
        """``residual_rel`` of the a1 + a3/2 product is 0.46-0.50 on the grid."""
        for tol, exit_code in (("1e-3", 3), ("0.9", 0)):
            result = runner.invoke(main, ["check-optimal", "--model", not_optimal_spec,
                                          "--tol", tol, "--output", "json"])
            assert result.exit_code == exit_code, result.output
            rows = json.loads(result.output)["rows"]
            assert [row["is_optimal"] for row in rows] == [exit_code == 0] * 2
        rows = run_json(runner, ["scan", "--model", not_optimal_spec,
                                 "--tol", "1e-3"])["rows"]
        assert [row["is_optimal"] for row in rows] == [False] * 2

    @pytest.mark.parametrize("variant", ["pure", "pure_unitary"])
    def test_variants_available(self, runner, ghz2_spec, variant):
        payload = run_json(runner, ["check-optimal", "--model", ghz2_spec,
                                    "--variant", variant])
        assert payload["rows"][0]["condition_variant"] == variant
        assert payload["rows"][0]["is_optimal"] is True


class TestScanCommand:
    def test_csv_header_and_singular_rows(self, runner, ghz2_spec):
        result = runner.invoke(main, ["scan", "--model", ghz2_spec,
                                      "--phi-range", "0:pi:9",
                                      "--output", "csv"])
        assert result.exit_code == 0, result.output
        rows = list(csv.DictReader(io.StringIO(result.output)))
        header = result.output.splitlines()[0]
        assert header == ",".join(SCAN_COLUMNS)
        assert len(rows) == 9
        phis = [float(r["phi"]) for r in rows]
        assert phis == sorted(phis)
        singular = [r["singular_flag"] == "true" for r in rows]
        assert singular == [k in (0, 4, 8) for k in range(9)]
        for k, row in enumerate(rows):
            if singular[k]:
                assert row["delta_phi_ep"] == ""
                continue
            product = float(row["delta_phi_ep"]) * 100000 * 4
            assert product == pytest.approx(1.0, abs=1e-8)
            assert float(row["qcrb"]) == pytest.approx(2.5e-6, rel=1e-9)
            assert float(row["delta_phi_ep"]) >= float(row["qcrb"]) - 1e-9
            assert float(row["cfi"]) == pytest.approx(4.0, abs=1e-9)

    def test_json_schema_and_determinism(self, runner, ghz2_spec, tmp_path):
        args = ["scan", "--model", ghz2_spec, "--phi-range", "0:pi:5",
                "--output", "json"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0
        assert first.output == second.output
        VALIDATOR.validate(json.loads(first.output))

    def test_out_file_byte_identical(self, runner, ghz2_spec, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for out in (out_a, out_b):
            result = runner.invoke(main, ["scan", "--model", ghz2_spec,
                                          "--phi-range", "0:pi:5",
                                          "--output", "csv", "--out", str(out)])
            assert result.exit_code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_thread_cap_does_not_change_output(self, runner, ghz2_spec,
                                               monkeypatch):
        args = ["scan", "--model", ghz2_spec, "--phi-range", "0:pi:7",
                "--output", "json"]
        serial = runner.invoke(main, args)
        monkeypatch.setenv("QCRB_LAB_THREADS", "4")
        threaded = runner.invoke(main, args)
        assert serial.output == threaded.output

    def test_requires_range(self, runner, ghz2_spec):
        result = runner.invoke(main, ["scan", "--model", ghz2_spec])
        assert result.exit_code == 2

    @pytest.mark.parametrize("target,error,spec", [
        ("qcrb_lab.fisher.psd_spectrum",
         NotPositiveError("matrix has negative eigenvalue -1.0e-03"), "pure_density_spec"),
        ("qcrb_lab.fisher._check_totals",
         ValueError("probabilities sum to 1.5, expected 1"), "pure_density_spec"),
        ("qcrb_lab.fisher._check_totals",
         ValueError("probabilities sum to 1.5, expected 1"), "ghz2_spec"),
    ])
    def test_derived_matrix_errors_exit_four(self, runner, request, monkeypatch,
                                             target, error, spec):
        """Checks failing on computed matrices are runtime errors, not spec
        errors, even where the error type is a ValueError. Only a density
        matrix state solves its SLD through ``psd_spectrum``; either state's
        POVM row reaches ``_check_totals`` through its moved carrier."""
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(target, fail)
        result = runner.invoke(main, ["scan", "--model", request.getfixturevalue(spec),
                                      "--phi-range", "0.1:1:3"])
        assert result.exit_code == 4
        assert str(error) in result.output
        assert "specification error" not in result.output


class TestOneSolvePerPhase:
    """Each phase solves the SLD once; every per-phase quantity reads it."""

    def test_scan_row(self, runner, ghz2_spec, sld_phases):
        payload = run_json(runner, ["scan", "--model", ghz2_spec,
                                    "--phi-range", "0:pi:9"])
        singular = [row["singular_flag"] for row in payload["rows"]]
        assert singular == [k in (0, 4, 8) for k in range(9)]
        assert sorted(sld_phases) == [row["phi"] for row in payload["rows"]]

    @pytest.mark.parametrize("variant", ["mixed", "pure", "pure_unitary"])
    def test_check_optimal_phase(self, runner, ghz2_spec, sld_phases, variant):
        result = runner.invoke(main, ["check-optimal", "--model", ghz2_spec,
                                      "--phi-range", "0:pi:5", "--variant", variant,
                                      "--output", "json"])
        assert result.exit_code == 3, result.output
        rows = json.loads(result.output)["rows"]
        assert [row["singular_flag"] for row in rows] == [True, False, True,
                                                          False, True]
        assert sorted(sld_phases) == [row["phi"] for row in rows]

    def test_simulate_solves_at_the_true_phase_only(self, runner, ghz2_spec, sld_phases):
        """The sample-mean estimator reads its mean curve from the ``phi = 0``
        solve: a run of both estimators solves once for the error propagation
        at the branch centre and once for the QFI of the MLE summary."""
        result = runner.invoke(main, ["simulate", "--model", ghz2_spec,
                                      "--output", "json"])
        assert result.exit_code == 0, result.output
        assert sld_phases == [math.pi / 8] * 2

    @pytest.mark.parametrize("args", [["scan"], ["check-optimal", "--variant", "pure"]])
    def test_one_moment_set_per_phase(self, runner, ghz2_spec, monkeypatch, args):
        """Every observable moment of a phase, and check-optimal's singular
        flag, come from one ``_moments`` call."""
        solves = []
        moments = optimality._moments

        def counting_moments(model, obs, sld_result):
            solves.append(sld_result)
            return moments(model, obs, sld_result)

        monkeypatch.setattr(cli, "_moments", counting_moments)
        if args[0] == "check-optimal":
            monkeypatch.setattr(cli, "_error_propagation", None)
        result = runner.invoke(main, args + ["--model", ghz2_spec, "--phi-range",
                                             "0:pi:5", "--output", "json"])
        assert result.exit_code == (3 if args[0] == "check-optimal" else 0), \
            result.output
        rows = json.loads(result.output)["rows"]
        assert [row["singular_flag"] for row in rows] == [True, False, True,
                                                          False, True]
        assert len({id(solve) for solve in solves}) == len(solves) == len(rows)


# rho eigendecompositions per command: none for state vectors, one for a
# density, whose SLD is solved once at phi = 0 and moved to every phase
RHO_EIGHS_PER_COMMAND = {"ghz2_spec": 0, "pure_density_spec": 1}


class TestOneEigendecompositionPerCommand:
    """Each command diagonalises rho at most once: L, the carrier and the
    outcome arrays of every phase come from the model's ``phi = 0`` solve,
    a pure unitary family never diagonalises it, and a scan row builds no
    dense state."""

    @pytest.mark.parametrize("spec", ["ghz2_spec", "pure_density_spec"])
    def test_scan_row(self, runner, request, spec, rho_eighs):
        payload = run_json(runner, ["scan", "--model", request.getfixturevalue(spec),
                                    "--phi-range", "0:pi:9"])
        assert len(payload["rows"]) == 9
        assert len(rho_eighs) == RHO_EIGHS_PER_COMMAND[spec]

    @pytest.mark.parametrize("spec", ["ghz2_spec", "pure_density_spec"])
    @pytest.mark.parametrize("variant", ["mixed", "pure", "pure_unitary"])
    def test_check_optimal_phase(self, runner, request, spec, variant, rho_eighs):
        result = runner.invoke(main, ["check-optimal", "--model",
                                      request.getfixturevalue(spec),
                                      "--phi-range", "0:pi:5", "--variant", variant,
                                      "--output", "json"])
        assert result.exit_code == 3, result.output
        assert len(json.loads(result.output)["rows"]) == 5
        assert len(rho_eighs) == RHO_EIGHS_PER_COMMAND[spec]

    @pytest.mark.parametrize("spec", ["ghz2_spec", "pure_density_spec",
                                      "rank2_generator_spec"])
    def test_qfi_and_kernel_dim_equal_across_rows(self, runner, request, spec):
        """Every row reads the one solve, so the QFI of a ``scan`` and the
        QFI and ``kernel_dim`` of an ``sld`` table are equal bit for bit."""
        path = request.getfixturevalue(spec)
        scan = run_json(runner, ["scan", "--model", path, "--phi-range", "0.1:3:7"])
        solves = run_json(runner, ["sld", "--model", path, "--phi-range", "0.1:3:7"])
        assert len(scan["rows"]) == len(solves["rows"]) == 7
        assert len({repr(row["qfi"]) for row in scan["rows"]}) == 1
        assert len({(repr(row["qfi"]), row["kernel_dim"]) for row in solves["rows"]}) == 1

    @pytest.mark.parametrize("spec", ["ghz2_spec", "pure_density_spec"])
    def test_no_dense_state_per_povm_scan_row(self, runner, request, spec, monkeypatch):
        """A POVM row reads p, p' and p'' from the moved carrier its SLD
        reads, so the dense state builder never runs."""
        orders = []
        build = fisher.ParametricModel._rho_derivatives

        def counting_build(model, phis, order=0):
            orders.append(order)
            return build(model, phis, order)

        monkeypatch.setattr(fisher.ParametricModel, "_rho_derivatives", counting_build)
        payload = run_json(runner, ["scan", "--model", request.getfixturevalue(spec),
                                    "--phi-range", "0:pi:9"])
        assert len(payload["rows"]) == 9
        assert orders == []


@pytest.fixture
def ghz20_spec(tmp_path):
    """GHZ N=20 with the saturating family 0.6 sx + 0.8 sy on every site: one
    dense 2^20 x 2^20 complex matrix takes 16 TiB, its state vector 16 MiB."""
    path = tmp_path / "ghz20.yaml"
    path.write_text("state:\n  ghz: {n: 20}\n"
                    "observable:\n  pauli_product: {a1: 0.6, a2: 0.8}\n"
                    "phi: {start: 0.01, stop: 0.1, steps: 3}\n", encoding="utf-8")
    return str(path)


class TestOperatorsOnDemand:
    """A pure GHZ spec loads as vectors: its generator is a diagonal and its
    observable a product form, so the commands that read only ``O C`` run at
    sizes where one dense operator would exceed physical memory, and the
    commands that read dense operators are refused (exit 2) before they
    allocate."""

    def test_ghz20_scan_reaches_the_heisenberg_limit(self, runner, ghz20_spec):
        payload = run_json(runner, ["scan", "--model", ghz20_spec])
        assert len(payload["rows"]) == 3
        for row in payload["rows"]:
            assert abs(row["qfi"] - 400.0) <= 1e-9 * 400.0
            assert abs(row["delta_phi_ep"] * 400.0 - 1.0) <= 1e-8
            assert row["is_optimal"] is True and row["singular_flag"] is False

    @pytest.mark.parametrize("args", [["sld", "--phi", "0.1"],
                                      ["qfi", "--phi", "0.1", "--show-sld"]])
    def test_dense_commands_refused_before_allocation(self, runner, ghz20_spec,
                                                      monkeypatch, args):
        def allocate(*args, **kwargs):
            raise AssertionError("no phase may be evaluated")

        for name in ("sld", "run_sample_mean_trials", "run_mle_trials"):
            monkeypatch.setattr(cli, name, allocate)
        result = runner.invoke(main, [args[0], "--model", ghz20_spec, *args[1:]])
        assert result.exit_code == cli.EXIT_SPEC_ERROR == 2
        assert "state:" in result.output
        assert "1048576 x 1048576 matrix" in result.output
        assert "physical memory" in result.output

    def test_ghz20_simulate_reaches_the_heisenberg_limit(self, runner, ghz20_spec):
        """The sample-mean estimator measures the product observable's
        eigenprojectors on the carrier's two support rows, with no dense
        operator: its MSE over 200 trials lies within 5 standard errors,
        ``5 sqrt(2 / trials)`` of itself, of ``1 / (nu N^2)``."""
        payload = run_json(runner, ["simulate", "--model", ghz20_spec, "--phi", "0.01",
                                    "--nu", "1000", "--trials", "200", "--seed", "7"])
        (result,) = payload["results"]
        expected = 1.0 / (1000 * 400)
        assert result["method"] == "sample_mean_inversion" and result["n_clipped"] == 0
        assert abs(result["mse"] - expected) <= 5.0 * expected * math.sqrt(2.0 / 200)

    def test_qfi_without_the_sld_runs_on_vectors(self, runner, ghz20_spec):
        payload = run_json(runner, ["qfi", "--model", ghz20_spec, "--phi", "0.1"])
        assert abs(payload["rows"][0]["qfi"] - 400.0) <= 1e-9 * 400.0


class TestCfiCommand:
    def test_value(self, runner, ghz2_spec):
        payload = run_json(runner, ["cfi", "--model", ghz2_spec])
        assert payload["rows"][0]["cfi"] == pytest.approx(4.0, abs=1e-9)

    def test_singular_phase_exits_four(self, runner, ghz2_spec):
        result = runner.invoke(main, ["cfi", "--model", ghz2_spec, "--phi", "0"])
        assert result.exit_code == 4

    @pytest.mark.parametrize("command", ["cfi", "scan"])
    def test_one_outcome_call_per_chunk(self, runner, ghz2_spec, monkeypatch, command):
        """A grid's outcome arrays come from one kernel call per chunk of
        phases: one call for 9 phases, three once a chunk holds 3, with the
        same output."""
        calls = []
        kernel = fisher._OutcomeRows._chunk

        def counting(self, phis, order, out=None):
            calls.append(len(phis))
            return kernel(self, phis, order, out)

        monkeypatch.setattr(fisher._OutcomeRows, "_chunk", counting)
        args = [command, "--model", ghz2_spec, "--phi-range", "0.1:3:9", "--output", "json"]
        whole = runner.invoke(main, args)
        assert whole.exit_code == 0, whole.output
        assert calls == [9]
        monkeypatch.setattr(fisher, "_BATCH_ENTRIES", 3 * 4)
        chunked = runner.invoke(main, args)
        assert calls == [9, 3, 3, 3]
        assert chunked.output == whole.output

    @pytest.mark.parametrize("command", ["cfi", "scan"])
    def test_one_outcome_setup_per_grid(self, runner, ghz2_spec, monkeypatch, command):
        """A grid pass sets up its outcome rows once, even where each chunk
        holds one phase."""
        setups = []
        init = fisher._OutcomeRows.__init__

        def counting(self, *args, **kwargs):
            setups.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(fisher._OutcomeRows, "__init__", counting)
        monkeypatch.setattr(fisher, "_BATCH_ENTRIES", 1)
        result = runner.invoke(main, [command, "--model", ghz2_spec, "--phi-range",
                                      "0.1:3:9", "--output", "json"])
        assert result.exit_code == 0, result.output
        assert len(json.loads(result.output)["rows"]) == 9
        assert len(setups) == 1

    def test_singular_middle_row_names_its_outcome(self, runner, ghz2_spec):
        """The middle phase pi/2 of the grid is singular: the command exits 4
        with that phase's own error."""
        result = runner.invoke(main, ["cfi", "--model", ghz2_spec,
                                      "--phi-range", "pi/4:3*pi/4:3"])
        assert result.exit_code == 4
        with pytest.raises(qcrb_lab.SingularOutcomeError) as expected:
            qcrb_lab.cfi(qcrb_lab.outcome_distribution(
                qcrb_lab.ghz_model(2), math.pi / 2, qcrb_lab.product_basis_povm("x", 2)))
        assert result.output == f"error: {expected.value}\n"


class TestLambdaCommand:
    def test_quarter_pi_values(self, runner):
        payload = run_json(runner, ["lambda", "--phi", "pi/4"])
        assert payload["singular"] is False
        assert payload["lambda_pp"] == pytest.approx(-2.0, abs=1e-9)
        assert payload["lambda_pm"] == pytest.approx(2.0, abs=1e-9)
        assert payload["lambda_mp"] == pytest.approx(2.0, abs=1e-9)
        assert payload["lambda_mm"] == pytest.approx(-2.0, abs=1e-9)

    def test_zero_phase_is_singular(self, runner):
        payload = run_json(runner, ["lambda", "--phi", "0"])
        assert payload["singular"] is True
        assert payload["lambda_pp"] is None

    def test_y_basis(self, runner):
        payload = run_json(runner, ["lambda", "--phi", "pi/4",
                                    "--basis", "y_basis"])
        assert payload["basis"] == "y_basis"
        assert payload["lambda_pp"] == pytest.approx(2.0, abs=1e-9)
        assert payload["lambda_pm"] == pytest.approx(-2.0, abs=1e-9)

    def test_phi_range_spec_is_exit_two(self, runner, range_spec):
        result = runner.invoke(main, ["lambda", "--model", range_spec])
        assert result.exit_code == 2
        assert "specification error: phi:" in result.output

    def test_model_is_loaded_with_phi_overriding_its_phase(self, runner, ghz2_spec,
                                                            tmp_path):
        assert run_json(runner, ["lambda", "--model", ghz2_spec])["phi"] == \
            pytest.approx(math.pi / 8)
        assert run_json(runner, ["lambda", "--model", ghz2_spec, "--phi", "pi/4"]) \
            == run_json(runner, ["lambda", "--phi", "pi/4"])
        invalid = tmp_path / "bad.yaml"
        invalid.write_text("state:\n  ghz: {n: 0}\n", encoding="utf-8")
        for path in (str(tmp_path / "missing.yaml"), str(invalid)):
            result = runner.invoke(main, ["lambda", "--phi", "pi/4", "--model", path])
            assert result.exit_code == 2, result.output
            assert "specification error" in result.output

    @pytest.mark.parametrize("state,parametrization,field", [
        ("ghz: {n: 3}", "", "state"),
        ("ghz: {n: 2}", "parametrization:\n  generator:\n    matrix: [[2, 0], "
         + "[0, 0], " * 14 + "[-2, 0]]\n", "parametrization.generator"),
    ], ids=["ghz3", "generator-2jz"])
    def test_model_other_than_two_qubit_ghz_is_exit_two(self, runner, tmp_path,
                                                         state, parametrization,
                                                         field):
        path = tmp_path / "other.yaml"
        path.write_text(f"state:\n  {state}\n{parametrization}"
                        "observable:\n  pauli_product: {a3: 1}\nphi: 0.3\n",
                        encoding="utf-8")
        result = runner.invoke(main, ["lambda", "--model", str(path)])
        assert result.exit_code == 2, result.output
        assert f"specification error: {field}: lambda solves only" in result.output


class TestSerialExecution:
    @pytest.mark.parametrize("args", [["scan", "--phi-range", "0:pi:7"],
                                      ["simulate", "--nu", "2000", "--trials", "6"]])
    def test_no_thread_is_started(self, runner, ghz2_spec, monkeypatch, args):
        """QCRB_LAB_THREADS is ignored: rows and trials run in the calling thread."""
        args = [args[0], "--model", ghz2_spec, *args[1:], "--output", "json"]
        serial = runner.invoke(main, args)

        def refuse(thread):
            raise RuntimeError("the package must not start a thread")

        monkeypatch.setenv("QCRB_LAB_THREADS", "4")
        monkeypatch.setattr(threading.Thread, "start", refuse)
        result = runner.invoke(main, args)
        assert result.exit_code == 0, repr(result.exception)
        assert result.output == serial.output


class TestImports:
    def test_loading_a_spec_does_not_import_scipy_optimize(self, ghz2_spec):
        code = ("import sys\nimport qcrb_lab.cli\n"
                "from qcrb_lab.modelspec import load_model_spec\n"
                f"load_model_spec({ghz2_spec!r})\n"
                "assert 'scipy.optimize' not in sys.modules\n")
        self._run(code)

    def test_simulating_does_not_import_scipy_optimize(self, ghz2_spec):
        """Both estimators run without scipy, which only the tests need."""
        code = ("import json, sys\nfrom click.testing import CliRunner\n"
                "from qcrb_lab.cli import main\n"
                f"result = CliRunner().invoke(main, ['simulate', '--model', {ghz2_spec!r},"
                " '--trials', '4', '--output', 'json'])\n"
                "results = json.loads(result.output)['results']\n"
                "assert len(results) == 2, result.output\n"
                "assert 'scipy.optimize' not in sys.modules\n")
        self._run(code)

    def test_importing_the_cli_does_not_import_numpy_random(self):
        """``numpy.random`` loads on the first draw only, so that it costs
        no command but ``simulate``."""
        self._run("import sys\nimport qcrb_lab.cli\n"
                  "assert 'numpy.random' not in sys.modules\n")

    @staticmethod
    def _run(code):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr


class TestSimulateCommand:
    def test_deterministic_json(self, runner, ghz2_spec):
        args = ["simulate", "--model", ghz2_spec, "--nu", "2000",
                "--trials", "10", "--output", "json"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0, first.output
        assert first.output == second.output
        payload = json.loads(first.output)
        VALIDATOR.validate(payload)
        methods = {entry["method"] for entry in payload["results"]}
        assert methods == {"sample_mean_inversion", "maximum_likelihood"}
        for entry in payload["results"]:
            assert len(entry["estimates"]) == 10

    def test_thread_cap_does_not_change_output(self, runner, ghz2_spec,
                                               monkeypatch):
        args = ["simulate", "--model", ghz2_spec, "--nu", "2000",
                "--trials", "6", "--output", "json"]
        serial = runner.invoke(main, args)
        monkeypatch.setenv("QCRB_LAB_THREADS", "2")
        threaded = runner.invoke(main, args)
        assert serial.exit_code == 0, serial.output
        assert serial.output == threaded.output

    def test_seed_changes_estimates(self, runner, ghz2_spec):
        base = ["simulate", "--model", ghz2_spec, "--nu", "2000",
                "--trials", "8", "--output", "json"]
        a = json.loads(runner.invoke(main, base).output)
        b = json.loads(runner.invoke(main, base + ["--seed", "99"]).output)
        assert a["results"][0]["estimates"] != b["results"][0]["estimates"]

    def test_single_trial_spec_is_exit_two(self, runner, tmp_path):
        path = tmp_path / "one-trial.yaml"
        path.write_text("state:\n  ghz: {n: 2}\nobservable:\n  parity: true\n"
                        "trials: 1\n", encoding="utf-8")
        result = runner.invoke(main, ["simulate", "--model", str(path)])
        assert result.exit_code == 2
        assert "trials" in result.output

    def test_phi_range_spec_is_exit_two(self, runner, range_spec):
        result = runner.invoke(main, ["simulate", "--model", range_spec])
        assert result.exit_code == 2
        assert "specification error: phi:" in result.output

    def test_flat_likelihood_exits_four(self, runner, tmp_path):
        path = tmp_path / "flat.yaml"
        path.write_text(
            "state:\n  ghz: {n: 1}\n"
            "povm:\n  custom:\n    elements:\n"
            "      - [[1, 0], [0, 0], [0, 0], [0, 0]]\n"
            "      - [[0, 0], [0, 0], [0, 0], [1, 0]]\n"
            "phi: 0.4\nnu: 100\ntrials: 5\n",
            encoding="utf-8")
        result = runner.invoke(main, ["simulate", "--model", str(path)])
        assert result.exit_code == 4


class TestSpecValidation:
    """Every key a nested spec mapping holds either takes effect or exits 2
    naming it, and so does a negative seed."""

    @pytest.mark.parametrize("text,field", [
        ("state:\n  ghz: {n: 2, phi: 0.7}\n", "state.ghz.phi"),
        ("state:\n  ghz: {n: 2}\n"
         "parametrization: {generator: half_sigma_z_sum, scale: 3}\n",
         "parametrization.scale"),
        ("state:\n  ghz: {n: 1}\n"
         "povm:\n  custom:\n    elements:\n"
         "      - [[1, 0], [0, 0], [0, 0], [0, 0]]\n"
         "      - [[0, 0], [0, 0], [0, 0], [1, 0]]\n"
         "    weights: [1, 2]\n", "povm.custom.weights"),
        ("state:\n  custom:\n    amplitudes: [[1, 0], [0, 0]]\n"
         "    density: [[0, 0], [0, 0], [0, 0], [1, 0]]\n", "state.custom"),
    ], ids=["state.ghz", "parametrization", "povm.custom", "state.custom"])
    def test_unknown_nested_key_exits_two(self, runner, tmp_path, text, field):
        path = tmp_path / "spec.yaml"
        path.write_text(text + "phi: 0.3\n", encoding="utf-8")
        result = runner.invoke(main, ["qfi", "--model", str(path)])
        assert result.exit_code == 2, result.output
        assert f"specification error: {field}" in result.output

    def test_negative_spec_seed_exits_two(self, runner, tmp_path):
        path = tmp_path / "seed.yaml"
        path.write_text("state:\n  ghz: {n: 2}\nobservable:\n  parity: true\n"
                        "phi: 0.3\nseed: -1\n", encoding="utf-8")
        result = runner.invoke(main, ["simulate", "--model", str(path),
                                      "--trials", "4"])
        assert result.exit_code == 2, result.output
        assert "specification error: seed:" in result.output

    def test_negative_seed_flag_exits_two(self, runner, ghz2_spec):
        result = runner.invoke(main, ["simulate", "--model", ghz2_spec,
                                      "--seed", "-5", "--trials", "4"])
        assert result.exit_code == 2, result.output
        assert "specification error: --seed" in result.output

    @pytest.mark.parametrize("command", ["qfi", "sld", "errprop", "check-optimal",
                                         "scan", "cfi", "lambda", "simulate"])
    def test_single_trial_spec_exits_two_for_every_command(self, runner, tmp_path,
                                                           command):
        """``trials`` is validated with the spec, whether or not the command
        reads it."""
        path = tmp_path / "one-trial.yaml"
        path.write_text("state:\n  ghz: {n: 2}\nobservable:\n  pauli_product: {a1: 1}\n"
                        "povm: x_basis_product\nphi: 0.3\ntrials: 1\n",
                        encoding="utf-8")
        args = ["--phi-range", "0.1:0.3:2"] if command == "scan" else []
        result = runner.invoke(main, [command, "--model", str(path)] + args)
        assert result.exit_code == 2, result.output
        assert result.output == ("specification error: trials: "
                                 "must be an integer >= 2, got 1\n")

    @pytest.mark.parametrize("args,message", [
        (["errprop", "--nu", "0"], "--nu: must be an integer >= 1, got 0"),
        (["simulate", "--trials", "1"], "--trials: must be an integer >= 2, got 1"),
        (["simulate", "--seed", "-1"], "--seed: must be an integer >= 0, got -1"),
        (["qfi", "--phi-range", "0:1:1"],
         "--phi-range STEPS: must be an integer >= 2, got 1"),
        (["qfi", "--phi-range", "0:1:x"],
         "--phi-range STEPS: must be an integer >= 2, got 'x'"),
    ])
    def test_integer_flag_minimums(self, runner, ghz2_spec, args, message):
        result = runner.invoke(main, args + ["--model", ghz2_spec])
        assert result.exit_code == 2, result.output
        assert result.output == f"specification error: {message}\n"

    @pytest.mark.parametrize("command", ["simulate", "errprop"])
    def test_nu_flag_beyond_int64_is_exit_two(self, runner, ghz2_spec, command):
        result = runner.invoke(main, [command, "--model", ghz2_spec,
                                      "--nu", "100000000000000000000"])
        assert result.exit_code == 2, result.output
        assert result.output == ("specification error: --nu: must be an integer "
                                 f"<= {2 ** 63 - 1}, got 100000000000000000000\n")

    def test_tolerance_read_as_a_string_takes_effect(self, runner, tmp_path):
        """YAML reads ``9e-1`` as a string; it is the number 0.9, which
        certifies the a1 + a3/2 product (``residual_rel`` 0.46-0.50)."""
        path = tmp_path / "tol.yaml"
        for tol, exit_code in (("", 3), ("tolerances: {optimality: 9e-1}\n", 0)):
            path.write_text("state:\n  ghz: {n: 2}\n"
                            "observable:\n  pauli_product: {a1: 1, a3: 0.5}\n"
                            "phi: 0.3\n" + tol, encoding="utf-8")
            result = runner.invoke(main, ["check-optimal", "--model", str(path)])
            assert result.exit_code == exit_code, result.output

    @pytest.mark.parametrize("value,shown", [("true", "True"), ("abc", "'abc'")])
    def test_tolerance_not_a_number_exits_two(self, runner, tmp_path, value, shown):
        path = tmp_path / "tol.yaml"
        path.write_text("state:\n  ghz: {n: 2}\n"
                        "observable:\n  pauli_product: {a1: 1}\n"
                        f"tolerances: {{optimality: {value}}}\n", encoding="utf-8")
        result = runner.invoke(main, ["check-optimal", "--model", str(path)])
        assert result.exit_code == 2, result.output
        assert result.output == ("specification error: tolerances.optimality: "
                                 f"expected a number, got {shown}\n")

    @pytest.mark.parametrize("value,exit_code,shown", [
        ("1e-1", 0, None), ("true", 2, "True"), ("abc", 2, "'abc'")])
    def test_matrix_entry_read_as_a_string(self, runner, tmp_path, value, exit_code,
                                           shown):
        """YAML reads ``1e-1`` as a string; as a matrix component it is the
        number 0.1, and a component that is no number names its entry."""
        path = tmp_path / "entry.yaml"
        path.write_text(f"state:\n  custom: {{density: [[{value}, 0], [0, 0], [0, 0], "
                        "[0.9, 0]]}\nphi: 0.3\n", encoding="utf-8")
        result = runner.invoke(main, ["qfi", "--model", str(path)])
        assert result.exit_code == exit_code, result.output
        if shown is not None:
            assert result.output == ("specification error: state.custom.density: "
                                     f"entry 0 is not an [re, im] pair: [{shown}, 0]\n")


class TestCliContract:
    def test_version(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0, result.output
        assert result.output == f"qcrb-lab, version {qcrb_lab.__version__}\n"

    def test_missing_model_is_spec_error(self, runner):
        result = runner.invoke(main, ["qfi"])
        assert result.exit_code == 2

    def test_invalid_spec_is_exit_two(self, runner, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("state:\n  ghz: {n: 0}\n", encoding="utf-8")
        result = runner.invoke(main, ["qfi", "--model", str(path)])
        assert result.exit_code == 2
        assert "state.ghz.n" in result.output

    @pytest.mark.parametrize("libyaml", [True, False])
    def test_malformed_yaml_is_exit_two(self, runner, tmp_path, monkeypatch, libyaml):
        if not libyaml:
            monkeypatch.setattr(modelspec, "_Loader", yaml.SafeLoader)
        path = tmp_path / "broken.yaml"
        path.write_text("state: [unbalanced", encoding="utf-8")
        result = runner.invoke(main, ["qfi", "--model", str(path)])
        assert result.exit_code == 2
        assert "invalid YAML" in result.output

    def test_non_numeric_coefficient_is_exit_two(self, runner, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("state:\n  ghz: {n: 2}\n"
                        "observable:\n  pauli_product: {a1: abc}\n",
                        encoding="utf-8")
        result = runner.invoke(main, ["errprop", "--model", str(path)])
        assert result.exit_code == 2
        assert "observable.pauli_product" in result.output

    def test_oversized_phi_range_is_exit_two(self, runner, ghz2_spec, monkeypatch):
        def allocate(*args, **kwargs):
            raise AssertionError("np.linspace must not be called")

        monkeypatch.setattr(np, "linspace", allocate)
        result = runner.invoke(main, ["qfi", "--model", ghz2_spec,
                                      "--phi-range", f"0:1:{10 ** 18}"])
        assert result.exit_code == 2
        assert "phi-range" in result.output
        assert "physical memory" in result.output

    def test_csv_limited_to_scan(self, runner, ghz2_spec):
        result = runner.invoke(main, ["qfi", "--model", ghz2_spec,
                                      "--output", "csv"])
        assert result.exit_code == 2

    def test_phi_option_overrides_file(self, runner, ghz2_spec):
        payload = run_json(runner, ["qfi", "--model", ghz2_spec, "--phi", "1.0"])
        assert payload["rows"][0]["phi"] == pytest.approx(1.0)

    def test_phi_range_option(self, runner, ghz2_spec):
        payload = run_json(runner, ["qfi", "--model", ghz2_spec,
                                    "--phi-range", "0:pi:3"])
        phis = [row["phi"] for row in payload["rows"]]
        assert phis == pytest.approx([0.0, math.pi / 2, math.pi])


# Every flag each command takes, with its --output formats; any other flag is
# a usage error.
OPTION_TABLE = {
    "qfi": ({"--model", "--phi", "--phi-range", "--show-sld", "--output", "--out"},
            ("text", "json")),
    "sld": ({"--model", "--phi", "--phi-range", "--output", "--out"}, ("text", "json")),
    "cfi": ({"--model", "--phi", "--phi-range", "--output", "--out"}, ("text", "json")),
    "errprop": ({"--model", "--phi", "--phi-range", "--nu", "--output", "--out"},
                ("text", "json")),
    "check-optimal": ({"--model", "--phi", "--phi-range", "--tol", "--variant",
                       "--output", "--out"}, ("text", "json")),
    "scan": ({"--model", "--phi-range", "--nu", "--tol", "--output", "--out"},
             ("text", "json", "csv")),
    "lambda": ({"--model", "--phi", "--basis", "--output", "--out"}, ("text", "json")),
    "simulate": ({"--model", "--phi", "--nu", "--seed", "--trials", "--output",
                  "--out"}, ("text", "json")),
}
# a valid value for each flag, so that only a command's not taking the flag
# can make it fail
FLAG_VALUES = {"--phi": ["0.3"], "--phi-range": ["0.1:0.5:3"], "--nu": ["5"],
               "--seed": ["4"], "--trials": ["5"], "--tol": ["1e-3"],
               "--show-sld": [], "--variant": ["pure"], "--basis": ["y_basis"]}


class TestOptionTable:
    @pytest.mark.parametrize("name", sorted(OPTION_TABLE))
    def test_command_takes_exactly_its_flags(self, name):
        command = main.commands[name]
        flags, formats = OPTION_TABLE[name]
        assert {opt for param in command.params for opt in param.opts} == flags
        output = next(p for p in command.params if "--output" in p.opts)
        assert tuple(output.type.choices) == formats

    @pytest.mark.parametrize("name,flag", [
        (name, flag) for name in sorted(OPTION_TABLE) for flag in sorted(FLAG_VALUES)
        if flag not in OPTION_TABLE[name][0]])
    def test_other_flags_are_usage_errors(self, runner, ghz2_spec, name, flag):
        result = runner.invoke(main, [name, "--model", ghz2_spec, flag]
                               + FLAG_VALUES[flag])
        assert result.exit_code == 2
        assert f"No such option '{flag}'" in result.output
