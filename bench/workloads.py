"""Benchmark workloads: generated model specs, CLI arguments and output checks.

Every input is generated from the benchmark seed, so one seed always gives
the same spec files. Each check compares the CLI's JSON output against the
paper's closed forms and returns a list of problems (empty when correct).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

_Dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

# A grid phase counts as the expected one when it agrees to this absolute
# tolerance; phases on the singular set kπ/N are written as expressions, so
# they parse to the same float the reference computes.
PHI_ATOL = 1e-12
# Relative tolerance on QFI, CFI and Δφ² against their closed forms. The
# acceptance suite pins these quantities to 1e-9 or tighter.
REL_TOL = 1e-9
# delta_phi_ep·ν·N² = 1 on pure GHZ regular rows, pinned to 1e-8.
EP_REL_TOL = 1e-8
# Monte Carlo MSE may deviate from 1/(νN²) by this many standard errors of a
# `trials`-sample MSE; a fixed 15% band fails on some seeds by chance.
MSE_STANDARD_ERRORS = 5.0
MIXED_EPSILON = 0.1

COMPLEX_BYTES = 16
# Dense d×d complex matrices alive at once while one phase is evaluated
# (ρ, ∂ρ, ∂²ρ, eigenbasis, SLD, √ρ, products and their temporaries).
LIVE_MATRICES = 32
# Memory the pure-Python YAML parser holds per [re, im] pair (nodes, marks
# and the resulting lists), measured generously.
YAML_BYTES_PER_PAIR = 4096
# Each POVM element exists as built and as the owned copy Povm validates.
POVM_COPIES = 2


@dataclass(frozen=True)
class Case:
    """One generated input of a workload."""

    spec_path: Path
    args: tuple[str, ...]
    n_qubits: int
    phis: tuple[float, ...] = ()
    singular: tuple[bool, ...] = ()
    trials: int = 0
    reference: dict = field(default_factory=dict)

    def spec_sha256(self) -> str:
        return hashlib.sha256(self.spec_path.read_bytes()).hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    default_n: int
    make: Callable[..., Case]
    check: Callable[[Case, str, dict], list[str]]
    footprint: Callable[[int], int]


def _write_spec(path: Path, spec: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        yaml.dump(spec, handle, Dumper=_Dumper, sort_keys=True)


def _rel_err(value, reference: float) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return math.inf
    return abs(value - reference) / abs(reference)


def _rows(text: str, command: str, case: Case) -> tuple[list[dict], list[str]]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return [], [f"output is not JSON: {exc}"]
    if payload.get("command") != command:
        return [], [f"command is {payload.get('command')!r}, expected {command!r}"]
    rows = payload.get("rows")
    if not isinstance(rows, list) or len(rows) != len(case.phis):
        return [], [f"expected {len(case.phis)} rows"]
    problems = []
    for row, phi in zip(rows, case.phis):
        if not isinstance(row.get("phi"), float) or abs(row["phi"] - phi) > PHI_ATOL:
            problems.append(f"row phi {row.get('phi')!r} != grid phi {phi!r}")
    return rows, problems


def _grid(start: float, stop: float, steps: int) -> tuple[float, ...]:
    return tuple(float(x) for x in np.linspace(start, stop, steps))


def _regular_grid(rng: random.Random, n: int, steps: int) -> dict:
    """Grid inside one cell (kπ/N, (k+1)π/N) that keeps 0.15·π/N away from
    the singular set, so every row is regular."""
    k = rng.randrange(n)
    lo = (k + rng.uniform(0.15, 0.35)) * math.pi / n
    hi = (k + rng.uniform(0.65, 0.85)) * math.pi / n
    return {"start": lo, "stop": hi, "steps": steps}


# --- scan-pure -------------------------------------------------------------

def make_scan_pure(seed: int, workdir: Path, n: int, trials: int | None = None) -> Case:
    # One cell [kπ/N, (k+1)π/N] in 3 steps: singular, regular, singular.
    k = random.Random(seed).randrange(n)
    spec = {"state": {"ghz": {"n": n}},
            "observable": {"pauli_product": {"a1": 1.0}},
            "nu": 1,
            "phi": {"start": f"{k}*pi/{n}", "stop": f"{k + 1}*pi/{n}", "steps": 3}}
    path = workdir / "scan-pure.yaml"
    _write_spec(path, spec)
    return Case(spec_path=path,
                args=("scan", "--model", str(path), "--output", "json"),
                n_qubits=n, phis=_grid(k * math.pi / n, (k + 1) * math.pi / n, 3),
                singular=(True, False, True),
                reference={"qfi": float(n * n), "delta_phi_ep": 1.0 / (n * n)})


def check_scan_pure(case: Case, text: str, reference: dict) -> list[str]:
    rows, problems = _rows(text, "scan", case)
    for row, singular in zip(rows, case.singular):
        where = f"phi={row.get('phi')!r}"
        if row.get("singular_flag") is not singular:
            problems.append(f"{where}: singular_flag {row.get('singular_flag')!r}, "
                            f"expected {singular}")
        if _rel_err(row.get("qfi"), reference["qfi"]) > REL_TOL:
            problems.append(f"{where}: qfi {row.get('qfi')!r} != {reference['qfi']!r}")
        if singular:
            continue
        if _rel_err(row.get("delta_phi_ep"), reference["delta_phi_ep"]) > EP_REL_TOL:
            problems.append(f"{where}: delta_phi_ep {row.get('delta_phi_ep')!r} "
                            f"!= {reference['delta_phi_ep']!r}")
        if row.get("is_optimal") is not True:
            problems.append(f"{where}: is_optimal {row.get('is_optimal')!r}")
    return problems


def footprint_dense(n: int) -> int:
    return LIVE_MATRICES * COMPLEX_BYTES * 4 ** n


# --- scan-mixed ------------------------------------------------------------

def mixed_ghz_density(n: int, epsilon: float) -> np.ndarray:
    """ρ = (1-ε)|GHZ⟩⟨GHZ| + ε·I/d, with |GHZ⟩ = (|0..0⟩ + |1..1⟩)/√2."""
    d = 2 ** n
    psi = np.zeros(d)
    psi[0] = psi[-1] = 1.0 / math.sqrt(2.0)
    return (1.0 - epsilon) * np.outer(psi, psi) + epsilon * np.eye(d) / d


def make_scan_mixed(seed: int, workdir: Path, n: int, trials: int | None = None) -> Case:
    eps = MIXED_EPSILON
    d = 2 ** n
    grid = _regular_grid(random.Random(seed), n, 2)
    rho = mixed_ghz_density(n, eps)
    spec = {"state": {"custom": {"density": [[float(z), 0.0] for z in rho.reshape(-1)]}},
            "observable": {"pauli_product": {"a1": 1.0}},
            "nu": 1,
            "phi": grid}
    path = workdir / "scan-mixed.yaml"
    _write_spec(path, spec)
    phis = _grid(grid["start"], grid["stop"], grid["steps"])
    visibility = 1.0 - eps
    qfi = visibility ** 2 * n * n / (visibility + 2.0 * eps / d)
    delta_phi_ep = [(1.0 - visibility ** 2 * math.cos(n * phi) ** 2)
                    / (visibility ** 2 * n * n * math.sin(n * phi) ** 2) for phi in phis]
    return Case(spec_path=path,
                args=("scan", "--model", str(path), "--output", "json"),
                n_qubits=n, phis=phis, singular=(False,) * len(phis),
                reference={"qfi": qfi, "delta_phi_ep": delta_phi_ep})


def check_scan_mixed(case: Case, text: str, reference: dict) -> list[str]:
    rows, problems = _rows(text, "scan", case)
    for row, expected_ep in zip(rows, reference["delta_phi_ep"]):
        where = f"phi={row.get('phi')!r}"
        if row.get("singular_flag") is not False:
            problems.append(f"{where}: singular_flag {row.get('singular_flag')!r}")
        if _rel_err(row.get("qfi"), reference["qfi"]) > REL_TOL:
            problems.append(f"{where}: qfi {row.get('qfi')!r} != {reference['qfi']!r}")
        if _rel_err(row.get("delta_phi_ep"), expected_ep) > REL_TOL:
            problems.append(f"{where}: delta_phi_ep {row.get('delta_phi_ep')!r} "
                            f"!= {expected_ep!r}")
    return problems


def footprint_mixed(n: int) -> int:
    return footprint_dense(n) + YAML_BYTES_PER_PAIR * 4 ** n


# --- cfi-povm --------------------------------------------------------------

def make_cfi_povm(seed: int, workdir: Path, n: int, trials: int | None = None) -> Case:
    grid = _regular_grid(random.Random(seed), n, 5)
    spec = {"state": {"ghz": {"n": n}}, "povm": "x_basis_product", "phi": grid}
    path = workdir / "cfi-povm.yaml"
    _write_spec(path, spec)
    phis = _grid(grid["start"], grid["stop"], grid["steps"])
    return Case(spec_path=path,
                args=("cfi", "--model", str(path), "--output", "json"),
                n_qubits=n, phis=phis, singular=(False,) * len(phis),
                reference={"cfi": float(n * n)})


def check_cfi_povm(case: Case, text: str, reference: dict) -> list[str]:
    rows, problems = _rows(text, "cfi", case)
    for row in rows:
        if _rel_err(row.get("cfi"), reference["cfi"]) > REL_TOL:
            problems.append(f"phi={row.get('phi')!r}: cfi {row.get('cfi')!r} "
                            f"!= {reference['cfi']!r}")
    return problems


def footprint_povm(n: int) -> int:
    return footprint_dense(n) + POVM_COPIES * COMPLEX_BYTES * 2 ** n * 4 ** n


# --- simulate-mle ----------------------------------------------------------

SIMULATE_NU = 100_000
SIMULATE_TRIALS = 200


def make_simulate_mle(seed: int, workdir: Path, n: int, trials: int | None = None) -> Case:
    trials = SIMULATE_TRIALS if trials is None else trials
    spec = {"state": {"ghz": {"n": n}},
            "observable": {"pauli_product": {"a1": 1.0}},
            "povm": "x_basis_product",
            "phi": "pi/8", "nu": SIMULATE_NU, "trials": trials, "seed": seed}
    path = workdir / "simulate-mle.yaml"
    _write_spec(path, spec)
    return Case(spec_path=path,
                args=("simulate", "--model", str(path), "--output", "json"),
                n_qubits=n, trials=trials,
                reference={"mse": 1.0 / (SIMULATE_NU * n * n), "seed": seed})


def check_simulate_mle(case: Case, text: str, reference: dict) -> list[str]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    problems = []
    if payload.get("seed") != reference["seed"] or payload.get("trials") != case.trials:
        problems.append(f"seed/trials {payload.get('seed')!r}/{payload.get('trials')!r}")
    results = payload.get("results") or []
    methods = sorted(entry.get("method") for entry in results)
    if methods != ["maximum_likelihood", "sample_mean_inversion"]:
        problems.append(f"estimators {methods!r}")
    expected = reference["mse"]
    band = MSE_STANDARD_ERRORS * expected * math.sqrt(2.0 / case.trials)
    for entry in results:
        mse = entry.get("mse")
        if not isinstance(mse, float) or abs(mse - expected) > band:
            problems.append(f"{entry.get('method')}: mse {mse!r} outside "
                            f"{expected!r} ± {band!r}")
    return problems


WORKLOADS = {w.name: w for w in (
    Workload("scan-pure",
             "pure GHZ N=9: SLD solves, dense eigh and the optimality check dominate",
             9, make_scan_pure, check_scan_pure, footprint_dense),
    Workload("scan-mixed",
             "full-rank mixed GHZ N=7 from a 16,384-pair density: YAML parse, "
             "full-rank eigh and matrix_sqrt_psd",
             7, make_scan_mixed, check_scan_mixed, footprint_mixed),
    Workload("cfi-povm",
             "pure GHZ N=7 with 128 product-basis POVM elements: POVM build and "
             "O(d^4) outcome probabilities",
             7, make_cfi_povm, check_cfi_povm, footprint_povm),
    Workload("simulate-mle",
             "two-qubit Monte Carlo, 200 trials, both estimators: per-call Python "
             "overhead of the fisher functions at d=4",
             2, make_simulate_mle, check_simulate_mle, footprint_povm),
)}
