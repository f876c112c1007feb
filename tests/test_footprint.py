"""The footprint rule: one estimate of the bytes a command holds at once,
bracketing its tracemalloc peak and admitting every command before its
first phase."""

import importlib.util
import itertools
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from qcrb_lab import cli, core, modelspec
from qcrb_lab.cli import main
from qcrb_lab.modelspec import Sizes, footprint

REPO = Path(__file__).resolve().parent.parent
#: the footprint may exceed the measured peak by this factor (see
#: test_footprint_brackets_the_peak)
K = 4.0
PAGE = 4096


def _memory(monkeypatch, total: int) -> None:
    """Make ``os.sysconf`` report ``total`` bytes of physical memory."""
    sysconf = os.sysconf
    pages = {"SC_PAGE_SIZE": PAGE, "SC_PHYS_PAGES": total // PAGE}
    monkeypatch.setattr(os, "sysconf", lambda name: pages.get(name) or sysconf(name))


def _ghz(n, *, povm=None, observable=True):
    data = {"state": {"ghz": {"n": n}}, "phi": 0.1}
    if observable:
        data["observable"] = {"pauli_product": {"a1": 0.6, "a2": 0.8}}
    if povm:
        data["povm"] = povm
    return data


def _full_support(n, *, povm=None):
    """A state vector with every amplitude nonzero, written as custom
    ``amplitudes`` (d pairs), with the GHZ specs' observable: no row of its
    carrier is zero, so each route reads the d x d operator or factor."""
    amps = np.linspace(1.0, 2.0, 2 ** n)
    data = {"state": {"custom": {"amplitudes": [[float(x), 0.0]
                                                for x in amps / np.linalg.norm(amps)]}},
            "observable": {"pauli_product": {"a1": 0.6, "a2": 0.8}}, "phi": 0.1}
    if povm:
        data["povm"] = povm
    return data


def _mixed_ghz(n, epsilon=0.1):
    """A full-rank mixed GHZ density written as a custom ``density``."""
    dim = 2 ** n
    ghz = np.zeros(dim)
    ghz[0] = ghz[-1] = 2 ** -0.5
    rho = (1 - epsilon) * np.outer(ghz, ghz) + epsilon * np.eye(dim) / dim
    return {"state": {"custom": {"density": [[float(x), 0.0] for x in rho.ravel()]}},
            "observable": {"pauli_product": {"a1": 1.0}}, "phi": 0.1}


def _mixed_ghz_povm(n):
    """The mixed GHZ density measured in the x-product basis."""
    return {**_mixed_ghz(n), "povm": X_PRODUCT}


def _spec(tmp_path, data) -> str:
    path = tmp_path / "spec.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return str(path)


def _forbid(monkeypatch, data) -> None:
    """Make every phase evaluator of the CLI and every read of a dense POVM
    factor raise, and the POVM builders too unless ``data`` is a GHZ N=2 or
    a custom state spec, whose POVM is built at load."""
    def allocate(*args, **kwargs):
        raise AssertionError("no phase may be evaluated")

    for name in ("sld", "_cfi_values", "error_propagation", "_scan_row",
                 "_check_optimal_row", "run_sample_mean_trials", "run_mle_trials"):
        monkeypatch.setattr(cli, name, allocate)
    monkeypatch.setattr(core.Povm, "factor", property(allocate))
    if data["state"].get("ghz", {}).get("n", 2) > 2:
        for name in ("product_basis_povm", "eigenprojector_povm"):
            monkeypatch.setattr(modelspec, name, allocate)


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """Run every command once, so that no first-call import or cache is
    counted in a measured peak."""
    path = _spec(tmp_path_factory.mktemp("warm"), _ghz(2, povm="x_basis_product"))
    runner = CliRunner()
    for args in (["qfi", "--show-sld"], ["sld"], ["errprop"], ["check-optimal"],
                 ["scan", "--phi-range", "0:1:3"], ["cfi"], ["lambda"],
                 ["simulate", "--trials", "4"]):
        for output in ("text", "json"):
            runner.invoke(main, [*args, "--model", path, "--output", output])
    return runner


X_PRODUCT = "x_basis_product"
JSON = ["--output", "json"]
# (command, spec, arguments): every command and output format at a size where
# its size terms dominate
BRACKETED = [
    # the POVM factor and the dense work of d = 512 on a full support, where
    # a d = 1024 run takes 0.5-1.3 s (the likelihood solve), and the two
    # support rows of the product basis at d = 1024 (and d = 16384, below)
    ("cfi", _full_support(9, povm="eigenprojectors_of_observable"), []),
    ("cfi", _ghz(10, povm=X_PRODUCT), []),
    ("cfi", _ghz(10, povm=X_PRODUCT), JSON),
    ("scan", _ghz(10, povm=X_PRODUCT), ["--phi-range", "0.1:1:3", "--output", "csv"]),
    ("simulate", _full_support(9), []),
    ("simulate", _ghz(9, povm=X_PRODUCT, observable=False), ["--trials", "2", *JSON]),
    # the SLD matrix of each row, at d = 64: at d = 1024 its million pairs
    # take 20-40 s to render under tracemalloc
    ("sld", _ghz(6), []),
    ("sld", _ghz(6), JSON),
    ("qfi", _ghz(6), ["--show-sld"]),
    ("qfi", _ghz(6), ["--show-sld", *JSON]),
    # the vector route of d = 65536
    ("scan", _ghz(16), ["--phi-range", "0.1:1:3"]),
    ("scan", _ghz(16), ["--phi-range", "0.1:1:3", *JSON]),
    ("errprop", _ghz(16), []),
    ("errprop", _ghz(16), JSON),
    ("check-optimal", _ghz(16), []),
    ("check-optimal", _ghz(16), JSON),
    # output rows and trials
    ("qfi", _ghz(2), ["--phi-range", "0:1:3000"]),
    ("qfi", _ghz(2), ["--phi-range", "0:1:10000", *JSON]),
    ("simulate", _ghz(2, povm=X_PRODUCT), ["--trials", "2000", *JSON]),
    ("lambda", _ghz(2), []),
    ("lambda", _ghz(2), JSON),
    # the YAML parse of a 32 x 32 custom density
    ("qfi", _mixed_ghz(5), []),
    # the phase chunks of a grid pass over the outcomes: a full 1024-phase
    # chunk of a 16 x 16 carrier, and of a state vector
    ("cfi", _mixed_ghz_povm(4), ["--phi-range", "0.1:1:2000"]),
    ("scan", _mixed_ghz_povm(4), ["--phi-range", "0.1:1:1100", *JSON]),
    ("cfi", _ghz(4, povm=X_PRODUCT), ["--phi-range", "0.1:1:3000", *JSON]),
    # ... and of 40 phases over the support rows at d = 4096, which no
    # larger term covers
    ("cfi", _ghz(12, povm=X_PRODUCT, observable=False), ["--phi-range", "0.1:1:40"]),
    ("cfi", _ghz(14, povm=X_PRODUCT, observable=False), []),
    # the eigenprojector support rows of a product observable: simulate's
    # sample-mean run and cfi on a GHZ state, with no d x d operator
    ("simulate", _ghz(14), []),
    ("cfi", _ghz(12, povm="eigenprojectors_of_observable"), []),
]


@pytest.mark.parametrize("command,data,args", BRACKETED)
def test_footprint_brackets_the_peak(warm, tmp_path, monkeypatch, command, data, args):
    """``peak <= footprint <= K peak``, the footprint the largest sum of
    terms the command admits: its load's, as the YAML parse, or its route's.

    Each constant of ``modelspec._BYTES`` and ``_ROW_BYTES`` is at least the
    largest per-unit peak of the routes it covers, so the footprint is an
    upper bound. It overshoots where one constant covers routes of
    different cost: a POVM factor entry costs 70 B, above the 65 B peak of
    ``cfi`` with the eigenprojector POVM; a support-row entry of a product
    basis costs 24 B per derivative order, the peak of the two orders
    ``simulate`` once built, while the three that ``cfi`` and ``simulate``
    now build take 21.3 B each; a phase chunk entry costs 112 B, the peak
    of an order-2 chunk of ``fisher._OutcomeRows``; a spec file costs 32 B per character, a long string of 4-byte
    characters, and 540 B per mark (``modelspec._YAML_MARKS``), a compact
    flow list ``[[0],[0],...]``, while full-precision floats in
    ``safe_dump``'s block layout parse to 2.6x less; the other terms
    (carrier, rows, trials) stay within 1.9x of their peaks. The largest
    of these with the fixed 64 KiB base on top stays below K = 4; the cases
    below measure 1.04-3.0, the most for ``lambda``, whose peak of some 24
    KB lies under the base, and the least for 40 phases over the support
    rows.
    """
    admitted = []

    def admit(terms, what, field=None):
        admitted.append(sum(terms.values()))
        return check(terms, what, field)

    check = modelspec._admit

    monkeypatch.setattr(cli, "_admit", admit)
    monkeypatch.setattr(modelspec, "_admit", admit)
    path = _spec(tmp_path, data)
    argv = [command, "--model", path, *args, "--out", str(tmp_path / "out")]
    tracemalloc.start()
    try:
        result = warm.invoke(main, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0, result.output
    estimate = max(admitted)
    assert peak <= estimate <= K * peak, (peak, estimate)


EIGENPROJECTORS = "eigenprojectors_of_observable"
# per command: a d = 1024 route that reads a dense d x d operator or factor,
# and the field it is refused for (the eigenprojectors of a product
# observable are read densely only on a full support)
DENSE_ROUTES = {
    "qfi": (_ghz(10), ["--show-sld"], "state"),
    "sld": (_ghz(10), [], "state"),
    "simulate": (_full_support(10), [], "state"),
    "cfi": (_full_support(10, povm=EIGENPROJECTORS), [], "povm"),
    "scan": (_full_support(10, povm=EIGENPROJECTORS), ["--phi-range", "0:1:3"], "povm"),
    "errprop": None,
    "check-optimal": None,
    "lambda": None,
}
# per command: a route that runs on state vectors, a small factor or the
# support rows of a product basis
VECTOR_ROUTES = {
    "qfi": (_ghz(10), []),
    "errprop": (_ghz(10), []),
    "check-optimal": (_ghz(10), []),
    "scan": (_ghz(10, povm=X_PRODUCT), ["--phi-range", "0.1:1:3"]),
    "sld": (_ghz(2), []),
    "cfi": (_ghz(10, povm=X_PRODUCT), []),
    "simulate": (_ghz(2, povm=X_PRODUCT), ["--trials", "4"]),
    "lambda": (_ghz(2), []),
}


@pytest.mark.parametrize("command", sorted(main.commands))
def test_no_command_escapes_the_rule(tmp_path, monkeypatch, command):
    """On a machine of 4 MiB, every vector route runs (GHZ N=10 ``cfi`` and
    ``scan`` on the x-product basis's two support rows) and every dense
    route at d = 1024 exits 2 naming its field before any phase runs or
    any dense POVM factor is read. A command added without a footprint
    entry fails here."""
    footprint(Sizes(), command)
    _memory(monkeypatch, 1 << 22)
    runner = CliRunner()
    data, args = VECTOR_ROUTES[command]
    result = runner.invoke(main, [command, "--model", _spec(tmp_path, data), *args])
    assert result.exit_code == 0, result.output
    if DENSE_ROUTES[command] is None:
        return
    data, args, field = DENSE_ROUTES[command]
    _forbid(monkeypatch, data)
    result = runner.invoke(main, [command, "--model", _spec(tmp_path, data), *args])
    assert result.exit_code == 2, result.output
    assert result.output.startswith(f"specification error: {field}: ")
    assert "physical memory" in result.output


# 7.84 GiB of physical memory
BOX = int(7.84 * 2 ** 30)


@pytest.mark.parametrize("data,args,field", [
    (_ghz(13), ["sld"], "state"),
    (_full_support(14, povm=EIGENPROJECTORS), ["cfi"], "povm"),
    (_ghz(2, povm=X_PRODUCT), ["scan", "--phi-range", "0:1:3000000", *JSON], "phi"),
    (_ghz(2, povm=X_PRODUCT), ["simulate", "--trials", "5000000"], "trials"),
])
def test_runs_that_passed_every_old_guard_are_refused(tmp_path, monkeypatch, data,
                                                     args, field):
    """Each of these passed the four earlier rules on a 7.84 GiB machine and
    would hold 9-16 GiB; each is now refused, naming its field, before its
    first phase. The eigenprojectors of a product observable are read as a
    16384 x 16384 factor only on a full support: on GHZ N=14 they fit."""
    _memory(monkeypatch, BOX)
    _forbid(monkeypatch, data)
    result = CliRunner().invoke(main, [args[0], "--model", _spec(tmp_path, data),
                                       *args[1:]])
    assert result.exit_code == 2, result.output
    assert result.output.startswith(f"specification error: {field}: ")
    assert f"the {BOX // PAGE * PAGE} bytes of physical memory" in result.output


@pytest.mark.parametrize("data,args", [
    (_ghz(14, povm=X_PRODUCT, observable=False), ["cfi"]),
    (_ghz(14, povm="y_basis_product"), ["scan", "--phi-range", "0.1:1:3"]),
    (_ghz(14, povm=EIGENPROJECTORS), ["cfi"]),
])
def test_support_rows_admit_what_the_factor_could_not(tmp_path, monkeypatch, data, args):
    """On a 7.84 GiB machine, GHZ N=14 on a product basis or on the
    eigenprojectors of a product observable, whose dense 16384 x 16384
    factor would need 1.9e10 bytes, runs on its two support rows without
    building the factor or any Kronecker product: CFI = N^2."""
    _memory(monkeypatch, BOX)

    def build(*args, **kwargs):
        raise AssertionError("no dense factor may be built")

    monkeypatch.setattr(core, "tensor_product", build)
    monkeypatch.setattr(core.Povm, "factor", property(build))
    result = CliRunner().invoke(main, [args[0], "--model", _spec(tmp_path, data),
                                       *args[1:], *JSON])
    assert result.exit_code == 0, result.output
    for row in yaml.safe_load(result.output)["rows"]:
        assert abs(row["cfi"] - 196.0) <= 1e-9 * 196.0


def test_spec_file_is_refused_before_it_is_parsed(tmp_path, monkeypatch):
    """A custom density file larger than physical memory / 52 is refused
    before YAML parses it."""
    def parse(*args, **kwargs):
        raise AssertionError("yaml.load must not be called")

    path = _spec(tmp_path, _mixed_ghz(5))
    memory = 1 << 20
    assert os.path.getsize(path) > memory / 52
    _memory(monkeypatch, memory)
    monkeypatch.setattr(modelspec.yaml, "load", parse)
    result = CliRunner().invoke(main, ["qfi", "--model", path])
    assert result.exit_code == 2, result.output
    assert result.output.startswith(f"specification error: parsing {path!r} needs ")
    assert "physical memory" in result.output


def test_compact_flow_file_is_refused_by_its_marks(tmp_path, monkeypatch):
    """A 32 x 32 density of compact ``[0,0]`` pairs parses to some 240 B per
    byte, past the 72 B per byte by which a rule of the file size alone
    admitted it: where its parse exceeds physical memory, its marks refuse
    it before YAML parses it."""
    path = tmp_path / "compact.yaml"
    path.write_text("state: {custom: {density: [" + ",".join(["[0,0]"] * 1024) + "]}}\n",
                    encoding="utf-8")
    tracemalloc.start()
    try:
        with open(path, encoding="utf-8") as handle:
            yaml.load(handle, Loader=modelspec._Loader)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    memory = peak * 3 // 4
    assert 72 * os.path.getsize(path) + (1 << 16) < memory
    _memory(monkeypatch, memory)

    def parse(*args, **kwargs):
        raise AssertionError("yaml.load must not be called")

    monkeypatch.setattr(modelspec.yaml, "load", parse)
    result = CliRunner().invoke(main, ["qfi", "--model", str(path)])
    assert result.exit_code == 2, result.output
    assert result.output.startswith(f"specification error: parsing {str(path)!r} needs ")
    assert "physical memory" in result.output


def test_a_huge_size_is_refused_not_expanded():
    """Sizes are capped at 2^64 and read as floats, so a spec value of
    2^2000 gives a finite footprint instead of an overflow or a NaN."""
    huge = 2 ** 2000
    for command in ("load", "sld", "simulate"):
        terms = footprint(Sizes(dim=huge, columns=huge, outcomes=huge, phases=huge,
                                trials=huge, file=huge, observable=True),
                          command, show_sld=True, output="json")
        total = sum(terms.values())
        assert np.isfinite(total) and total > 2.0 ** 128


# the single-qubit + and - vectors the two loops below were built from
OLD_SINGLE = {
    "x": {"+": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
          "-": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)},
    "y": {"+": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
          "-": np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0)},
}


def _old_product_basis_vectors(axis, n_qubits):
    """The per-outcome Kronecker loop that built the vectors before."""
    out = []
    for signs in itertools.product("+-", repeat=n_qubits):
        vec = np.array([1.0], dtype=complex)
        for sign in signs:
            vec = np.kron(vec, OLD_SINGLE[axis][sign])
        out.append(("".join(signs), vec))
    return tuple(out)


def _old_product_basis_factor(axis, n_qubits):
    """The Kronecker loop that built the POVM factor before."""
    basis = np.stack([OLD_SINGLE[axis]["+"], OLD_SINGLE[axis]["-"]], axis=1)
    factor = basis
    for _ in range(n_qubits - 1):
        factor = np.kron(factor, basis)
    return factor


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("n_qubits", range(1, 9))
def test_one_build_of_the_product_basis(axis, n_qubits):
    """The factor and the vectors are bit for bit the two loops they
    replace, and the vectors are owned copies of the factor's columns."""
    povm = core.product_basis_povm(axis, n_qubits)
    vectors = core.product_basis_vectors(axis, n_qubits)
    old = _old_product_basis_vectors(axis, n_qubits)
    assert np.array_equal(povm.factor, _old_product_basis_factor(axis, n_qubits))
    assert [label for label, _ in vectors] == [label for label, _ in old]
    assert povm.labels == tuple(label for label, _ in old)
    for (_, vec), (_, ref) in zip(vectors, old):
        assert np.array_equal(vec, ref) and vec.flags.owndata


def _compare_tool():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", REPO / "tools" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_tool_keys_simulate_fields_by_method(tmp_path):
    """The JSON and text outputs of one ``simulate`` run give each
    estimator's fields the same ``<method>.<field>`` keys."""
    fields = _compare_tool()._fields
    path = _spec(tmp_path, _ghz(2, povm=X_PRODUCT))
    runner = CliRunner()
    outputs = [runner.invoke(main, ["simulate", "--model", path, "--trials", "4", *fmt])
               for fmt in ([], JSON)]
    assert all(result.exit_code == 0 for result in outputs)
    text, json_fields = (fields(result.output) for result in outputs)
    methods = ("sample_mean_inversion", "maximum_likelihood")
    per_method = {key for key in text if key.startswith(methods)}
    assert len(per_method) == 14
    assert per_method == {key for key in json_fields if key.startswith(methods)
                          and key.split(".", 1)[1] not in ("method", "estimates")}
    assert set(text) <= set(json_fields)
    for method in methods:
        assert len(json_fields[f"{method}.mse"]) == 1
        assert len(json_fields[f"{method}.estimates"]) == 4
