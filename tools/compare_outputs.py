"""Check that the CLI output of this tree is byte-identical to a git ref's.

Usage, from anywhere inside the repository::

    python tools/compare_outputs.py BASE_REF

BASE_REF's ``src/`` is exported with ``git archive`` into a temporary
directory; the other side is the ``src/`` of this checkout (HEAD plus any
uncommitted edits). Both run the same fixed list of CLI invocations on the
same generated spec files, each side in one fresh interpreter, and every
invocation's exit code and output (stdout and stderr, as click's test runner
interleaves them) are compared byte for byte.

The list covers ``scan``, ``cfi``, ``check-optimal``, ``errprop``, ``sld``,
``qfi`` and ``simulate`` on GHZ N=1-3 specs with x- and y-product
measurements, a full-rank mixed-density spec and a low-nu spec whose
sample-mean estimates clip at the branch ends; ``check-optimal`` also runs on
the grid 0:pi:9, whose phases k*pi/N are singular for the GHZ specs, in every
variant and with ``--tol 1e-3``; ``cfi``, ``scan`` and ``simulate`` on GHZ
N=2 and N=3 specs measured with the eigenprojectors of the x-parity
observable; ``cfi`` on the GHZ N=3 x spec over ``pi/12:pi:4``, which
exits 4 at its singular last phase naming ``'+++'``, and a text ``scan`` of
it over ``0:pi:9``; ``cfi`` on a GHZ N=8 x-product spec over 9 phases,
``simulate`` (both estimators) on a GHZ N=8 x-product spec and ``cfi`` on a
GHZ N=10 x-product spec over 3 phases, which read the outcome rows on the
carrier's two support rows at d = 256 and 1024; ``cfi`` on GHZ N=14 and
N=20 x-product specs at one phase, whose support rows are formed site by
site and whose dense factors do not fit in memory, and on the N=20 one over
the 8 phases ``0.02:0.14:8``, one phase per chunk on one setup of those
rows; ``simulate`` (200 trials, both estimators) on GHZ N=10, N=14 and
N=16 x-product specs measuring the x product, on a GHZ N=9 y-product spec
at ``pi/18 - 0.05``, near the turning point ``pi/18`` of its likelihood,
and on a GHZ N=6 spec measured with the eigenprojectors of the ``0.6 sx +
0.8 sy`` product, whose two outcomes split by parity; ``simulate`` (both
estimators) on a three-qubit ``custom`` state on ``|000>``, ``|011>`` and
``|111>``, whose three generator levels give no one-fringe likelihood; the
sample-mean ``simulate`` of GHZ N=20 with the ``0.6 sx + 0.8 sy`` product,
whose eigenprojectors are read on the support rows; ``cfi`` and
``simulate`` on a GHZ N=3 spec
measured with the eigenprojectors of a per-site ``pauli_product`` list of
distinct, non-axis coefficients; a ``scan`` of a GHZ N=8
y-product spec over ``0:pi:9``; ``cfi`` on a full-support three-qubit
``custom`` density measured with ``x_basis_product``, which reads the
dense factor; ``lambda`` at pi/4 in both
bases, at the singular phase 0 and from the GHZ N=2 spec; ``qfi --show-sld``,
``sld``, ``errprop``, ``scan`` and ``check-optimal`` (every variant) on a
two-qubit ``custom`` amplitudes spec whose generator matrix is not diagonal;
``cfi``, ``scan`` and ``simulate`` on the same state measured with a
``povm.custom`` whose elements are ``diag(1, 0, 0, 1)`` (rank 2), the
projectors onto ``(|01> +- |10>)/sqrt(2)`` and the zero matrix;
``qfi``, ``errprop``, ``scan`` and ``check-optimal`` (every variant) on a
two-qubit rank-2 ``custom`` density spec and a pure ``custom`` density spec,
whose SLD carriers have two columns and one; ``qfi --show-sld``, ``sld``,
``scan``, ``cfi``, ``simulate`` (both estimators, over carriers of two and
four columns moved through the generator's eigenbasis) and ``check-optimal``
(every variant) on a rank-2 and a full-rank ``custom`` density under the
non-diagonal generator matrix of the amplitudes spec, and ``simulate`` at
nu=20 on the full-rank one, where most sample-mean trials clip at the
branch ends; the invocations of
the GHZ specs on a GHZ N=2 spec whose diagonal ``generator.matrix`` has a
non-zero trace; ``scan``, ``errprop`` and ``check-optimal`` (every variant)
on GHZ N=9 specs whose observable is a per-site ``pauli_product`` list of
``0.6 sx + 0.8 sy`` (once with its last site ``0.3 I + 0.6 sx + 0.8 sy -
0.4 sz``) or ``parity: true``, where a product observable acts one site at
a time and its rounding differs from a Kronecker product's; ``sld --output
json`` and ``qfi --show-sld`` on a GHZ N=6 spec, whose 64 x 64 SLD renders
4,096 ``[re, im]`` pairs; plus the ``scan-pure``,
``cfi-povm`` and ``simulate-mle`` benchmark specs at seeds 1-5. Because
BLAS switches kernels with the matrix size, it also runs ``check-optimal``
(every variant) and ``errprop`` on the N=9 ``scan-pure`` spec of seed 1 and
a ``scan`` of a full-rank mixed GHZ N=4 density whose grid has singular rows.

It also runs invocations on the error paths of spec and flag validation and
of the commands, so that error messages are compared too: ``--nu 0``,
``--trials 1``, ``--seed -1`` and ``--phi-range 0:1:1``; specs with
``trials: 1``, ``ghz: {n: 0}``, an unknown top-level key, an unknown ``phi``
range key, a coefficient ``a4``, a ``true`` coefficient and the tolerance
``1e-6`` that YAML reads as a string; specs with two ``state`` forms, an
unknown ``state``, ``observable`` or ``povm`` form, an empty ``povm``
mapping, a qutrit without a ``parametrization``, a generator of the wrong
dimension, and a ``custom`` density whose entries are strings such as
``1e-1``; ``errprop`` without an observable, ``cfi`` without a POVM,
``errprop`` at a singular phase, and a spec whose per-site ``pauli_product``
list reuses its first site through a YAML alias.

Each differing invocation is listed with every output field that moved and,
for numeric fields, the largest absolute and relative difference over the
field's values. Fields are the keys of JSON output, the columns of CSV and
text tables, and the ``key: value`` lines of other text output; a
``simulate`` result's fields are keyed ``<method>.<field>`` in both forms. Where either
side exits 2 or 4, both outputs are printed whole instead (``-`` lines the
base's, ``+`` lines this tree's).

Exit codes: 0 when every invocation matches, 1 when any differs, 2 when
BASE_REF cannot be exported or a side fails to run.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from collections import defaultdict
from pathlib import Path

import numpy as np
import yaml

REPO = Path(__file__).resolve().parent.parent
BENCH_SEEDS = range(1, 6)

# Runs a JSON list of argv lists (stdin) through the CLI in-process and
# prints one {"exit_code", "output"} record per invocation.
RUNNER_SCRIPT = """
import json, sys
from click.testing import CliRunner
from qcrb_lab.cli import main
runner = CliRunner()
out = []
for argv in json.load(sys.stdin):
    result = runner.invoke(main, argv)
    out.append({"exit_code": result.exit_code, "output": result.output})
json.dump(out, sys.stdout)
"""


def _pairs(matrix: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in matrix.reshape(-1)]


def _mixed_ghz_density(n: int, epsilon: float = 0.1) -> np.ndarray:
    dim = 2 ** n
    ghz = np.zeros(dim, dtype=complex)
    ghz[0] = ghz[-1] = 1.0 / np.sqrt(2.0)
    return (1.0 - epsilon) * np.outer(ghz, ghz.conj()) + epsilon * np.eye(dim) / dim


def _write(path: Path, spec: dict) -> str:
    path.write_text(yaml.safe_dump(spec, sort_keys=True), encoding="utf-8")
    return str(path)


def _spec_invocations(spec: str, *, pure: bool) -> list[list[str]]:
    runs = [
        ["scan", "--model", spec, "--phi-range", "0:pi:9", "--output", "json"],
        ["scan", "--model", spec, "--phi-range", "0.1:3:4", "--output", "csv"],
        ["scan", "--model", spec, "--phi-range", "0.1:3:4"],
        ["cfi", "--model", spec, "--phi-range", "0.1:3:5", "--output", "json"],
        ["cfi", "--model", spec, "--phi", "0"],
        ["check-optimal", "--model", spec, "--phi-range", "0.1:3:5",
         "--output", "json"],
        ["check-optimal", "--model", spec, "--phi-range", "0:pi:9", "--output", "json"],
        ["check-optimal", "--model", spec, "--phi-range", "0:pi:9", "--tol", "1e-3"],
        ["errprop", "--model", spec, "--phi", "pi/8", "--output", "json"],
        ["errprop", "--model", spec, "--phi-range", "0.1:3:4"],
        ["sld", "--model", spec, "--phi", "0.3", "--output", "json"],
        ["qfi", "--model", spec, "--phi-range", "0:pi:5", "--show-sld",
         "--output", "json"],
        ["simulate", "--model", spec, "--nu", "2000", "--trials", "20",
         "--seed", "3", "--output", "json"],
    ]
    if pure:
        runs += [["check-optimal", "--model", spec, phi_flag, phi,
                  "--variant", variant, "--output", "json"]
                 for phi_flag, phi in (("--phi", "pi/8"), ("--phi-range", "0:pi:9"))
                 for variant in ("pure", "pure_unitary")]
    return runs


def _error_invocations(workdir: Path) -> list[list[str]]:
    """Error-path invocations on the GHZ N=2 x spec or variants of it."""
    spec = str(workdir / "ghz2-x.yaml")
    runs = [["errprop", "--model", spec, "--nu", "0"],
            ["simulate", "--model", spec, "--trials", "1"],
            ["simulate", "--model", spec, "--seed", "-1", "--trials", "4"],
            ["qfi", "--model", spec, "--phi-range", "0:1:1"],
            ["errprop", "--model", spec, "--phi", "0"]]
    base = {"state": {"ghz": {"n": 2}}, "observable": {"pauli_product": {"a1": 1.0}},
            "povm": "x_basis_product", "phi": 0.3}
    variants = {
        "trials-1": {**base, "trials": 1},
        "ghz-n-0": {**base, "state": {"ghz": {"n": 0}}},
        "unknown-top-level": {**base, "foo": 1},
        "unknown-range-key": {**base, "phi": {"start": 0, "stop": 1, "steps": 3,
                                              "foo": 1}},
        "coefficient-a4": {**base, "observable": {"pauli_product": {"a4": 1.0}}},
        "coefficient-true": {**base, "observable": {"pauli_product": {"a1": True}}},
        "tolerance-string": {**base, "tolerances": {"optimality": "1e-6"}},
        "two-state-forms": {**base, "state": {"ghz": {"n": 2},
                                              "custom": {"amplitudes": [[1.0, 0.0]]}}},
        "unknown-state-form": {**base, "state": {"foo": 1}},
        "unknown-observable-form": {**base, "observable": {"foo": 1}},
        "unknown-povm-form": {**base, "povm": {"foo": 1}},
        "empty-povm": {**base, "povm": {}},
        "qutrit-default-parametrization": {
            **base, "state": {"custom": {"amplitudes": _pairs(np.eye(3)[0])}}},
        "generator-dimension": {**base, "parametrization": {
            "generator": {"matrix": _pairs(np.diag([1.0, 0.0, -1.0]))}}},
        "entries-1e-1": {**base, "state": {"custom": {"density": [
            [f"{p}e-1", "0"] if i == j else ["0", "0"]
            for i, p in enumerate((1, 2, 3, 4)) for j in range(4)]}}},
    }
    for name, data in variants.items():
        command = "qfi" if name in ("trials-1", "entries-1e-1") else "check-optimal"
        runs.append([command, "--model", _write(workdir / f"error-{name}.yaml", data)])
    runs.append(["errprop", "--model", _write(workdir / "error-no-observable.yaml",
                                              {**base, "observable": None})])
    runs.append(["cfi", "--model", _write(workdir / "error-no-povm.yaml",
                                          {**base, "povm": None})])
    alias = workdir / "error-alias.yaml"
    alias.write_text("state: {ghz: {n: 2}}\n"
                     "observable: {pauli_product: [&site {a1: 1.0}, *site]}\n"
                     "povm: x_basis_product\nphi: 0.3\n", encoding="utf-8")
    runs.append(["check-optimal", "--model", str(alias)])
    return runs


def invocations(workdir: Path) -> list[list[str]]:
    """The fixed list, with its spec files written into ``workdir``."""
    runs: list[list[str]] = []
    for n in (1, 2, 3):
        for axis, coefficient in (("x", "a1"), ("y", "a2")):
            spec = _write(workdir / f"ghz{n}-{axis}.yaml", {
                "state": {"ghz": {"n": n}},
                "observable": {"pauli_product": {coefficient: 1.0}},
                "povm": f"{axis}_basis_product", "phi": "pi/8", "nu": 1000})
            runs += _spec_invocations(spec, pure=True)
    ghz3 = str(workdir / "ghz3-x.yaml")
    runs += [["cfi", "--model", ghz3, "--phi-range", "pi/12:pi:4", "--output", "json"],
             ["scan", "--model", ghz3, "--phi-range", "0:pi:9"]]
    ghz8 = _write(workdir / "ghz8-x.yaml", {
        "state": {"ghz": {"n": 8}}, "povm": "x_basis_product", "phi": "pi/8"})
    runs.append(["cfi", "--model", ghz8, "--phi-range", "0.1:3:9", "--output", "json"])
    ghz8_simulate = _write(workdir / "ghz8-x-simulate.yaml", {
        "state": {"ghz": {"n": 8}}, "observable": {"pauli_product": {"a1": 1.0}},
        "povm": "x_basis_product", "phi": "pi/32", "nu": 1000})
    runs.append(["simulate", "--model", ghz8_simulate, "--trials", "20", "--seed", "3",
                 "--output", "json"])
    ghz10 = _write(workdir / "ghz10-x.yaml", {
        "state": {"ghz": {"n": 10}}, "povm": "x_basis_product", "phi": "pi/8"})
    runs.append(["cfi", "--model", ghz10, "--phi-range", "0.1:3:3", "--output", "json"])
    for n in (14, 20):
        spec = _write(workdir / f"ghz{n}-x.yaml", {
            "state": {"ghz": {"n": n}}, "povm": "x_basis_product", "phi": "pi/8"})
        runs.append(["cfi", "--model", spec, "--output", "json"])
    runs.append(["cfi", "--model", spec, "--phi-range", "0.02:0.14:8", "--output", "json"])
    for n in (10, 14, 16):
        spec = _write(workdir / f"ghz{n}-x-simulate.yaml", {
            "state": {"ghz": {"n": n}}, "observable": {"pauli_product": {"a1": 1.0}},
            "povm": "x_basis_product", "phi": 0.05, "nu": 1000, "trials": 200, "seed": 7})
        runs.append(["simulate", "--model", spec])
    ghz9_y = _write(workdir / "ghz9-y-simulate.yaml", {
        "state": {"ghz": {"n": 9}}, "observable": {"pauli_product": {"a2": 1.0}},
        "povm": "y_basis_product", "phi": np.pi / 18 - 0.05, "nu": 1000, "trials": 200,
        "seed": 7})
    ghz6_eigen = _write(workdir / "ghz6-eigenprojectors-simulate.yaml", {
        "state": {"ghz": {"n": 6}}, "observable": {"pauli_product": {"a1": 0.6, "a2": 0.8}},
        "povm": "eigenprojectors_of_observable", "phi": 0.05, "nu": 1000, "trials": 200,
        "seed": 7})
    amps = np.zeros(8, dtype=complex)
    amps[[0, 3, 7]] = 0.7, 0.3 + 0.2j, 0.6
    three_levels = _write(workdir / "three-levels.yaml", {
        "state": {"custom": {"amplitudes": _pairs(amps / np.linalg.norm(amps))}},
        "observable": {"pauli_product": {"a1": 1.0}}, "povm": "x_basis_product",
        "phi": 0.1, "nu": 1000})
    runs += [["simulate", "--model", ghz9_y], ["simulate", "--model", ghz6_eigen],
             ["simulate", "--model", three_levels, "--trials", "20", "--seed", "3",
              "--output", "json"]]
    ghz20_mean = _write(workdir / "ghz20-sample-mean.yaml", {
        "state": {"ghz": {"n": 20}}, "observable": {"pauli_product": {"a1": 0.6, "a2": 0.8}},
        "phi": 0.01, "nu": 1000, "trials": 200, "seed": 7})
    runs.append(["simulate", "--model", ghz20_mean, "--output", "json"])
    sites3 = _write(workdir / "ghz3-sites-eigenprojectors.yaml", {
        "state": {"ghz": {"n": 3}},
        "observable": {"pauli_product": [{"a0": 0.1, "a1": 0.6, "a2": 0.8},
                                         {"a1": 0.3, "a2": -0.5, "a3": 0.7},
                                         {"a0": -0.2, "a1": 0.9, "a2": 0.2, "a3": -0.4}]},
        "povm": "eigenprojectors_of_observable", "phi": 0.3, "nu": 1000})
    runs += [["cfi", "--model", sites3, "--phi-range", "0.1:3:5", "--output", "json"],
             ["simulate", "--model", sites3, "--trials", "20", "--seed", "3",
              "--output", "json"]]
    ghz8_y = _write(workdir / "ghz8-y.yaml", {
        "state": {"ghz": {"n": 8}}, "observable": {"pauli_product": {"a2": 1.0}},
        "povm": "y_basis_product", "nu": 1000})
    runs.append(["scan", "--model", ghz8_y, "--phi-range", "0:pi:9", "--output", "json"])
    rng = np.random.default_rng(2027)
    raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    full_support = raw @ raw.conj().T
    full_support = _write(workdir / "custom-full-support-x.yaml", {
        "state": {"custom": {"density": _pairs(full_support / np.trace(full_support).real)}},
        "povm": "x_basis_product"})
    runs.append(["cfi", "--model", full_support, "--phi-range", "0.1:3:5", "--output", "json"])
    for n in (2, 3):
        spec = _write(workdir / f"ghz{n}-x-eigenprojectors.yaml", {
            "state": {"ghz": {"n": n}},
            "observable": {"pauli_product": {"a1": 1.0}},
            "povm": "eigenprojectors_of_observable", "phi": "pi/8", "nu": 1000})
        runs += [["cfi", "--model", spec, "--phi-range", "0.1:3:5", "--output", "json"],
                 ["scan", "--model", spec, "--phi-range", "0:pi:9", "--output", "json"],
                 ["simulate", "--model", spec, "--nu", "2000", "--trials", "20",
                  "--seed", "3", "--output", "json"]]
    runs += [["lambda", "--phi", "pi/4", "--output", "json"],
             ["lambda", "--phi", "pi/4"],
             ["lambda", "--phi", "pi/4", "--basis", "y_basis", "--output", "json"],
             ["lambda", "--phi", "0", "--output", "json"],
             ["lambda", "--phi", "0"],
             ["lambda", "--model", str(workdir / "ghz2-x.yaml"), "--output", "json"]]
    mixed = _write(workdir / "mixed.yaml", {
        "state": {"custom": {"density": _pairs(_mixed_ghz_density(2))}},
        "observable": {"pauli_product": {"a1": 1.0}},
        "povm": "x_basis_product", "phi": "pi/8", "nu": 1000})
    runs += _spec_invocations(mixed, pure=False)
    mixed4 = _write(workdir / "mixed-ghz4.yaml", {
        "state": {"custom": {"density": _pairs(_mixed_ghz_density(4))}},
        "observable": {"pauli_product": {"a1": 1.0}},
        "povm": "x_basis_product", "nu": 1000})
    runs.append(["scan", "--model", mixed4, "--phi-range", "0:pi:9",
                 "--output", "json"])
    rng = np.random.default_rng(2013)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    custom = _write(workdir / "custom-amplitudes.yaml", {
        "state": {"custom": {"amplitudes": _pairs(amps / np.linalg.norm(amps))}},
        "parametrization": {"generator": {"matrix": _pairs((raw + raw.conj().T) / 2)}},
        "observable": {"pauli_product": [{"a1": 1.0}, {"a2": 0.5, "a3": 0.5}]},
        "povm": "x_basis_product", "phi": 0.4, "nu": 1000})
    runs += [["qfi", "--model", custom, "--phi-range", "0:pi:5", "--show-sld",
              "--output", "json"],
             ["sld", "--model", custom, "--phi-range", "0:pi:5", "--output", "json"],
             ["errprop", "--model", custom, "--phi-range", "0:pi:5", "--output", "json"],
             ["scan", "--model", custom, "--phi-range", "0:pi:9", "--output", "json"]]
    runs += [["check-optimal", "--model", custom, "--phi-range", "0:pi:9",
              "--variant", variant, "--output", "json"]
             for variant in ("mixed", "pure", "pure_unitary")]
    psi_plus, psi_minus = (np.array([0.0, 1.0, sign, 0.0]) / np.sqrt(2.0)
                           for sign in (1.0, -1.0))
    custom_povm = _write(workdir / "custom-povm.yaml", {
        "state": {"custom": {"amplitudes": _pairs(amps / np.linalg.norm(amps))}},
        "parametrization": {"generator": {"matrix": _pairs((raw + raw.conj().T) / 2)}},
        "povm": {"custom": {"elements": [
            _pairs(np.diag([1.0, 0.0, 0.0, 1.0])), _pairs(np.outer(psi_plus, psi_plus)),
            _pairs(np.outer(psi_minus, psi_minus)), _pairs(np.zeros((4, 4)))]}},
        "phi": 0.4, "nu": 1000})
    runs += [["cfi", "--model", custom_povm, "--phi-range", "0.1:3:5", "--output", "json"],
             ["scan", "--model", custom_povm, "--phi-range", "0:pi:9", "--output", "json"],
             ["simulate", "--model", custom_povm, "--nu", "2000", "--trials", "20",
              "--seed", "3", "--output", "json"]]
    rng = np.random.default_rng(2014)
    basis = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    rank2 = 0.7 * np.outer(basis[:, 0], basis[:, 0].conj()) + 0.3 * np.outer(
        basis[:, 1], basis[:, 1].conj())
    for name, density in (("rank2", rank2),
                          ("pure", np.outer(basis[:, 2], basis[:, 2].conj()))):
        spec = _write(workdir / f"custom-{name}-density.yaml", {
            "state": {"custom": {"density": _pairs(density)}},
            "observable": {"pauli_product": {"a1": 1.0}},
            "povm": "x_basis_product", "phi": 0.4, "nu": 1000})
        runs += [[command, "--model", spec, "--phi-range", "0:pi:5", "--output", "json"]
                 for command in ("qfi", "errprop")]
        runs.append(["scan", "--model", spec, "--phi-range", "0:pi:9", "--output", "json"])
        runs += [["check-optimal", "--model", spec, "--phi-range", "0:pi:9",
                  "--variant", variant, "--output", "json"]
                 for variant in ("mixed", "pure", "pure_unitary")]
    full_rank = sum(weight * np.outer(basis[:, k], basis[:, k].conj())
                    for k, weight in enumerate((0.4, 0.3, 0.2, 0.1)))
    for name, density in (("rank2", rank2), ("full-rank", full_rank)):
        spec = _write(workdir / f"custom-generator-{name}-density.yaml", {
            "state": {"custom": {"density": _pairs(density)}},
            "parametrization": {"generator": {"matrix": _pairs((raw + raw.conj().T) / 2)}},
            "observable": {"pauli_product": {"a1": 1.0}},
            "povm": "x_basis_product", "phi": 0.4, "nu": 1000})
        runs += [["qfi", "--model", spec, "--phi-range", "0:pi:5", "--show-sld",
                  "--output", "json"],
                 ["sld", "--model", spec, "--phi-range", "0:pi:5", "--output", "json"],
                 ["scan", "--model", spec, "--phi-range", "0:pi:9", "--output", "json"],
                 ["cfi", "--model", spec, "--phi-range", "0.1:3:5", "--output", "json"],
                 ["simulate", "--model", spec, "--nu", "2000", "--trials", "20",
                  "--seed", "3", "--output", "json"]]
        runs += [["check-optimal", "--model", spec, "--phi-range", "0:pi:9",
                  "--variant", variant, "--output", "json"]
                 for variant in ("mixed", "pure", "pure_unitary")]
    runs.append(["simulate", "--model", spec, "--nu", "20", "--trials", "20",
                 "--seed", "3", "--output", "json"])
    offset = _write(workdir / "ghz2-diagonal-generator-with-trace.yaml", {
        "state": {"ghz": {"n": 2}},
        "parametrization": {"generator": {"matrix": _pairs(np.diag([1.5, 0.25, -0.5, 2.0]))}},
        "observable": {"pauli_product": {"a1": 1.0}},
        "povm": "x_basis_product", "phi": "pi/8", "nu": 1000})
    runs += _spec_invocations(offset, pure=True)
    sites = [{"a1": 0.6, "a2": 0.8} for _ in range(9)]
    for name, observable in (
            ("general", {"pauli_product": sites[:8] + [{"a0": 0.3, "a1": 0.6,
                                                        "a2": 0.8, "a3": -0.4}]}),
            ("saturating", {"pauli_product": sites}),
            ("parity", {"parity": True})):
        spec = _write(workdir / f"ghz9-{name}.yaml", {
            "state": {"ghz": {"n": 9}}, "observable": observable, "nu": 1000})
        runs += [["scan", "--model", spec, "--phi-range", "0:pi:9", "--output", "json"],
                 ["errprop", "--model", spec, "--phi-range", "0.1:3:5",
                  "--output", "json"]]
        runs += [["check-optimal", "--model", spec, "--phi-range", "0.1:3:5",
                  "--variant", variant, "--output", "json"]
                 for variant in ("mixed", "pure", "pure_unitary")]
    ghz6 = _write(workdir / "ghz6.yaml", {"state": {"ghz": {"n": 6}}, "phi": "pi/8"})
    runs += [["sld", "--model", ghz6, "--output", "json"],
             ["qfi", "--model", ghz6, "--show-sld"]]
    runs += _error_invocations(workdir)
    low_nu = _write(workdir / "low-nu.yaml", {
        "state": {"ghz": {"n": 2}},
        "observable": {"pauli_product": {"a1": 1.0}},
        "povm": "x_basis_product", "phi": 0.1, "nu": 20, "trials": 20})
    runs.append(["simulate", "--model", low_nu, "--output", "json"])
    runs.append(["simulate", "--model", low_nu])

    sys.path.insert(0, str(REPO / "bench"))
    from workloads import WORKLOADS

    for name in ("scan-pure", "cfi-povm", "simulate-mle"):
        workload = WORKLOADS[name]
        for seed in BENCH_SEEDS:
            casedir = workdir / f"{name}-seed{seed}"
            casedir.mkdir()
            case = workload.make(seed, casedir, workload.default_n)
            runs.append(list(case.args))
            if name == "scan-pure" and seed == BENCH_SEEDS[0]:
                spec = str(case.spec_path)
                runs += [["check-optimal", "--model", spec, "--variant", variant,
                          "--output", "json"]
                         for variant in ("mixed", "pure", "pure_unitary")]
                runs.append(["errprop", "--model", spec, "--phi", "pi/8",
                             "--output", "json"])
    return runs


def _export(ref: str, dest: Path) -> Path:
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar",
                              ref, "src"], capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def _run_side(src: Path, runs: list[list[str]], cwd: Path) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", RUNNER_SCRIPT],
                          input=json.dumps(runs), capture_output=True, text=True,
                          cwd=cwd, env=env)
    if done.returncode != 0:
        raise RuntimeError(f"runner failed under {src}:\n{done.stderr}")
    return json.loads(done.stdout)


def _number(value) -> float | None:
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _fields(output: str) -> dict[str, list]:
    """Values of each named field of one CLI output, in output order."""
    fields: dict[str, list] = defaultdict(list)

    def walk(node, key: str) -> None:
        if isinstance(node, dict):
            # a simulate result's fields are keyed by its method, as in text
            prefix = f"{node['method']}." if "method" in node else ""
            for name, value in node.items():
                walk(value, prefix + name)
        elif isinstance(node, list):
            for value in node:
                walk(value, key)
        else:
            fields[key].append(node)

    lines = output.splitlines()
    try:
        walk(json.loads(output), "output")
    except ValueError:
        if lines and "," in lines[0]:
            rows = list(csv.reader(lines))
            for row in rows[1:]:
                for name, value in zip(rows[0], row):
                    fields[name].append(value)
        elif lines and all(": " in line or line.startswith("[") for line in lines):
            section = ""
            for line in lines:
                if line.startswith("["):
                    section = line.strip("[]") + "."
                else:
                    name, value = line.split(": ", 1)
                    fields[(section if line[0] == " " else "") + name.strip()].append(value)
        elif lines:
            starts = [m.start() for m in re.finditer(r"\S+", lines[0])]
            for line in lines[1:]:
                for name, lo, hi in zip(lines[0].split(), starts, starts[1:] + [None]):
                    fields[name].append(line[lo:hi].strip())
    return fields


def describe(old: str, new: str) -> list[str]:
    """One line per field whose values differ between two outputs."""
    before, after = _fields(old), _fields(new)
    report = []
    for name in sorted(set(before) | set(after)):
        old_values, new_values = before.get(name, []), after.get(name, [])
        if len(old_values) != len(new_values):
            report.append(f"{name}: {len(old_values)} values -> {len(new_values)}")
            continue
        moved = [(a, b) for a, b in zip(old_values, new_values) if repr(a) != repr(b)]
        if not moved:
            continue
        numbers = [(_number(a), _number(b)) for a, b in moved]
        if any(a is None or b is None for a, b in numbers):
            a, b = moved[0]
            report.append(f"{name}: {len(moved)} values changed, e.g. {a!r} -> {b!r}")
            continue
        # 0.0 and -0.0 differ in text but not in value
        gaps = [(abs(a - b), abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0)
                for a, b in numbers]
        report.append(f"{name}: {len(moved)} values changed, max abs diff "
                      f"{max(g[0] for g in gaps):.3g}, max rel diff "
                      f"{max(g[1] for g in gaps):.3g}")
    return report


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    base_ref = argv[0]
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        tmp_path = Path(tmp)
        try:
            base_src = _export(base_ref, tmp_path / "base")
        except subprocess.CalledProcessError as exc:
            print(f"cannot export {base_ref!r}: {exc.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        specs = tmp_path / "specs"
        specs.mkdir()
        runs = invocations(specs)
        try:
            base = _run_side(base_src, runs, tmp_path)
            head = _run_side(REPO / "src", runs, tmp_path)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 2
        differing = 0
        for argv_run, old, new in zip(runs, base, head):
            if old != new:
                differing += 1
                fields = [key for key in old if old[key] != new[key]]
                print(f"DIFF ({', '.join(fields)}): {' '.join(argv_run)}")
                if old["exit_code"] != new["exit_code"]:
                    print(f"    exit_code: {old['exit_code']} -> {new['exit_code']}")
                if {old["exit_code"], new["exit_code"]} <= {0, 3}:
                    report = describe(old["output"], new["output"])
                else:  # an error message is shown whole, old then new
                    report = ([f"- {line}" for line in old["output"].splitlines()]
                              + [f"+ {line}" for line in new["output"].splitlines()])
                for line in report:
                    print(f"    {line}")
        print(f"{len(runs) - differing} of {len(runs)} invocations byte-identical "
              f"to {base_ref}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
