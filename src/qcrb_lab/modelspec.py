"""Model specification files for the command-line interface.

One YAML document describes the state, its parametrization, the measurement
(observable and/or POVM), the phase point or grid, and run parameters.
Angles accept arithmetic expressions over ``pi`` (e.g. ``pi/8``); matrices
are row-major flat lists of ``[re, im]`` pairs.
"""

from __future__ import annotations

import ast
import functools
import io
import math
import numbers
import operator
import os
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np
import yaml

from .core import (
    DensityMatrix,
    HermitianObservable,
    Povm,
    PureState,
    collective_spin,
    eigenprojector_povm,
    product_basis_povm,
    product_observable,
)
from .errors import SpecFileError
from .fisher import ParametricModel, _phase_chunk, unitary_model
from .ghz import ghz_state, parity_observable
from .simulate import _MLE_GRID_POINTS

__all__ = [
    "ModelSpec",
    "parse_angle",
    "parse_matrix",
    "parse_vector",
    "load_model_spec",
    "build_model_spec",
    "footprint",
    "Sizes",
    "KNOWN_TOLERANCES",
]

KNOWN_TOLERANCES = ("optimality",)
# least and greatest value of each integer run parameter (nu is an int64 shot count)
_RUN_BOUNDS = {"nu": (1, 2 ** 63 - 1), "seed": (0, math.inf), "trials": (2, math.inf)}
# libyaml's parser when PyYAML was built with it; it builds the same data
_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class _ConstructOnce:
    """A loader mixin that refuses to construct a node twice: every alias,
    and so every merge key ``<<: *anchor``, which copies the anchored
    mapping into each mapping that merges it, is refused at its first reuse,
    before any merged entry is constructed."""

    def construct_object(self, node, deep=False):
        if node in self.constructed_objects:
            raise yaml.constructor.ConstructorError(
                None, None, "an alias or merge key reuses the anchored node",
                node.start_mark)
        return super().construct_object(node, deep)


@functools.cache
def _constructing_once(loader: type) -> type:
    """``loader`` with :class:`_ConstructOnce` mixed in."""
    return type(loader.__name__, (_ConstructOnce, loader), {})


_ANGLE_CONSTANTS = {"pi": math.pi, "tau": math.tau, "e": math.e}
_BIN_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}
_UNARY_OPS = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def parse_angle(value, *, fieldname: str = "phi") -> float:
    """Parse a number or a constant arithmetic expression over pi/tau/e."""
    if isinstance(value, bool):
        raise SpecFileError("expected a number or expression", field=fieldname)
    if isinstance(value, (int, float)):
        return float(value)
    if not isinstance(value, str):
        raise SpecFileError(f"expected a number or expression, got {value!r}",
                            field=fieldname)
    try:
        tree = ast.parse(value, mode="eval")
    except SyntaxError as exc:
        raise SpecFileError(f"invalid expression {value!r}", field=fieldname) from exc

    def evaluate(node: ast.AST) -> float:
        if isinstance(node, ast.Expression):
            return evaluate(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id in _ANGLE_CONSTANTS:
            return _ANGLE_CONSTANTS[node.id]
        if isinstance(node, ast.BinOp) and type(node.op) in _BIN_OPS:
            return _BIN_OPS[type(node.op)](evaluate(node.left), evaluate(node.right))
        if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY_OPS:
            return _UNARY_OPS[type(node.op)](evaluate(node.operand))
        raise SpecFileError(
            f"unsupported syntax in expression {value!r}", field=fieldname)

    try:
        result = evaluate(tree)
    except (ZeroDivisionError, OverflowError) as exc:
        raise SpecFileError(f"cannot evaluate expression {value!r}: {exc}",
                            field=fieldname) from exc
    if not math.isfinite(result):
        raise SpecFileError(f"expression {value!r} is not finite", field=fieldname)
    return float(result)


_PAIR_TYPES, _PLAIN_NUMBERS = (list, tuple), (int, float)


def parse_vector(entries, *, fieldname: str) -> np.ndarray:
    """Complex vector from a list of ``[re, im]`` pairs, each component a
    number by the rule of every number field. One pass checks the pairs,
    converting only those that are not two plain ints or floats, and one
    ``np.array`` builds the vector."""
    if not isinstance(entries, (list, tuple)) or not entries:
        raise SpecFileError("expected a non-empty list of [re, im] pairs",
                            field=fieldname)
    pairs = entries
    for k, pair in enumerate(entries):
        if (type(pair) in _PAIR_TYPES and len(pair) == 2
                and type(pair[0]) in _PLAIN_NUMBERS and type(pair[1]) in _PLAIN_NUMBERS):
            continue
        if pairs is entries:
            pairs = list(entries)
        pairs[k] = _pair(pair, k, fieldname=fieldname)
    # rows of (re, im) float64 are complex128 values, read in place
    return np.array(pairs, dtype=float).view(complex).reshape(-1)


def _pair(pair, k: int, *, fieldname: str) -> list[float]:
    """``pair`` as ``[re, im]`` floats, or the error naming entry ``k``."""
    if isinstance(pair, (list, tuple)) and len(pair) == 2:
        try:
            return [_number(x, fieldname=fieldname) for x in pair]
        except SpecFileError:
            pass
    raise SpecFileError(f"entry {k} is not an [re, im] pair: {pair!r}", field=fieldname)


def parse_matrix(entries, *, fieldname: str) -> np.ndarray:
    """Square complex matrix from a row-major flat list of ``[re, im]``
    pairs."""
    flat = parse_vector(entries, fieldname=fieldname)
    dim = math.isqrt(flat.shape[0])
    if dim * dim != flat.shape[0]:
        raise SpecFileError(
            f"{flat.shape[0]} entries do not form a square matrix",
            field=fieldname)
    return flat.reshape(dim, dim)


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Parsed and validated model specification."""

    model: ParametricModel
    observable: HermitianObservable | None
    povm: Povm | None
    phis: np.ndarray
    phi_is_range: bool
    nu: int
    seed: int
    trials: int
    n_qubits: int | None
    tolerances: dict[str, float] = field(default_factory=dict)


#: the sizes :func:`footprint` reads; rank is the carrier's columns (1, or d for a
#: density), file and marks a spec file's characters and its :data:`_YAML_MARKS`,
#: rows the frame rows of the POVM's ``columns`` held: ``None`` (the default) for
#: a d x R factor, ``|S|`` for a product form's support rows, 0 where a product
#: form is not read; observable_rows the same for the eigenprojectors that
#: simulate measures an observable with: ``None`` where it reads the d x d operator;
#: classes whether simulate's likelihood runs on two outcome classes (:func:`_two_classes`)
Sizes = namedtuple("Sizes",
                   "dim rank columns outcomes phases trials file marks observable rows "
                   "observable_rows classes",
                   defaults=(1, 1, 0, 0, 1, 0, 0, 0, False, None, None, False))
#: the spec file characters that open or separate YAML nodes
_YAML_MARKS = "[{,-:\n"
# Bytes held per unit of size, fitted to tracemalloc peaks (tests/test_footprint.py)
_BYTES = {"base": 1 << 16,  # the smallest spec
          "char": 32,       # spec file character (up to 4 UTF-8 bytes), read and parsed
          "mark": 540,      # spec file mark: YAML nodes it opens or separates, while parsed
          "carrier": 176,   # d x r carrier entry: the state, its moved copies, O C, L C
          "factor": 70,     # d x R POVM factor entry: its build, F^dagger V (-i g)^k
          "rows": 24,       # |S| x R support-row entry per derivative order 0-2 (all three
                            # are stacked): its per-site build, conjugate, (-i g)^k multiples
          "matrix": 96,     # d x d entry of the SLD, or of simulate's eigh eigenprojectors
          "mean_trial": 640, "mle_trial": 1664,  # a trial's record, result, grid rows
          "outcome": 112,   # maximum-likelihood trial and outcome: counts and scores
          "count": 16,      # the same on two outcome classes: its int64 count, twice over
          "batch": 112}     # entry of a phase chunk of fisher._OutcomeRows
# per output row, cell and SLD entry of a row by format; cells per row ("load" has none)
_ROW_BYTES = {"text": (300, 110, 200), "csv": (300, 110, 200), "json": (450, 240, 450)}
_CELLS = {"load": 0, "qfi": 2, "sld": 4, "errprop": 10, "check-optimal": 9, "scan": 11,
          "cfi": 2, "lambda": 8, "simulate": 0}


def footprint(spec, command: str, *, show_sld: bool = False,
              output: str = "text") -> dict[tuple[str | None, str], float]:
    """The bytes ``command`` (a CLI command, or ``"load"``) holds at once on ``spec``
    (a :class:`ModelSpec`, or the :class:`Sizes` of forms about to be built), keyed
    by field and content; sizes are capped at 2^64, so that every term is finite."""
    cells, (row, cell, entry) = _CELLS[command], _ROW_BYTES[output]
    if not isinstance(spec, Sizes):  # a ModelSpec: the sizes of its stored forms
        model, povm = spec.model, spec.povm
        rows = observable_rows = None
        if povm is not None and povm._site_bases is not None:  # no factor until read
            rows = _support_rows(model) if command in ("cfi", "scan", "simulate") else 0
        if command == "simulate" and spec.observable is not None \
                and spec.observable.product_form is not None:  # its eigenprojectors' rows
            observable_rows = _support_rows(model)
        spec = Sizes(model.dim, 1 if isinstance(model.initial_state, PureState) else model.dim,
                     *((0, 0) if povm is None else (int(povm.block_bounds[-1]), len(povm))),
                     len(spec.phis), spec.trials, 0, 0, spec.observable is not None, rows,
                     None if observable_rows == model.dim else observable_rows,
                     command == "simulate" and _two_classes(model, povm))
    *sizes, observable, rows, observable_rows, classes = spec
    dim, rank, columns, outcomes, phases, trials, file, marks = (
        float(min(size, 2 ** 64)) for size in sizes)
    sld_rows, simulate = command == "sld" or show_sld, command == "simulate"
    mean_rows = float(simulate and observable and observable_rows or 0)
    dense, mle = sld_rows or simulate and observable and not mean_rows, float(columns > 0)
    matrix = f"{dim:.0f} x {dim:.0f} matrix"
    width = max(dim, columns)
    # phases per chunk of fisher._OutcomeRows: the likelihood's, or a grid pass's;
    # max(d, R) >= max(|S|, R), equal for a POVM with F F^dagger = I. On two
    # classes the likelihood is two columns wide, and the outcomes are read at the
    # drawn phase alone
    chunk = 1.0 if classes else min(2.0 * trials + _MLE_GRID_POINTS if simulate
                                    else phases * (command in ("cfi", "scan")),
                                    _phase_chunk(rank, width))
    return {(None, "the YAML parse"): _BYTES["char"] * file + _BYTES["mark"] * marks,
            ("state", f"the {dim:.0f} x {rank:.0f} carrier"):
                _BYTES["base"] + _BYTES["carrier"] * dim * rank,
            **({("povm", f"the {dim:.0f} x {columns:.0f} factor"):
                _BYTES["factor"] * dim * columns} if rows is None or rows == dim else
               {("povm", f"the {rows:.0f} x {columns:.0f} support rows"):
                _BYTES["rows"] * 3 * rows * columns}),
            ("observable", f"the {mean_rows:.0f} x {dim:.0f} eigenprojector support rows"):
                _BYTES["rows"] * 3 * mean_rows * dim,
            ("phi", f"{phases:.0f} phases"): phases * (8 + (cells and row + cells * cell)),
            ("state", f"{matrix} work"): _BYTES["matrix"] * dim * dim * dense,
            ("state", f"the {matrix} of each row"): entry * dim * dim * phases * sld_rows,
            ("trials", f"{trials:.0f} trials"): simulate * trials * (
                _BYTES["mean_trial"] * observable
                + mle * (_BYTES["mle_trial"]
                         + _BYTES["count" if classes else "outcome"] * outcomes)),
            ("povm", "outcome phase chunks"): mle * _BYTES["batch"] * chunk * rank * width}


def _support_rows(model: ParametricModel) -> int:
    """The frame rows a product form's outcome rows are formed on, as
    ``fisher._OutcomeRows`` forms them: the support ``|S|`` of a state
    vector under a diagonal generator, where ``model._support`` takes it,
    else every row, read from the dense factor (a density's support is
    known only once its SLD is solved, so it counts the factor)."""
    if (isinstance(model.initial_state, PureState) and model.generator.diagonal is not None
            and model._support is not None):
        return model._support.size
    return model.dim


def _two_classes(model: ParametricModel, povm) -> bool:
    """Whether every outcome of ``povm`` on ``model`` takes one of two
    fringes, as ``simulate``'s likelihood finds them: a state vector with two
    nonzero amplitudes on two levels of a diagonal generator, measured in a
    product basis (whose outcomes split by parity) or with two outcomes."""
    state = model.initial_state
    if povm is None or not isinstance(state, PureState) or model.generator.diagonal is None:
        return False
    rows = np.flatnonzero(state.amplitudes)
    levels = model.generator.diagonal[rows]
    return (rows.size == 2 and levels[0] != levels[1]
            and (len(povm) == 2 or povm._site_bases is not None and povm._order is None))


def _admit(terms: dict, what: str, field: str | None = None) -> None:
    """Reject ``what`` before it allocates when its :func:`footprint` ``terms``
    exceed physical memory, naming ``field`` or else the largest term's."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if (need := sum(terms.values())) > memory:
        (name, part), largest = max(terms.items(), key=lambda item: item[1])
        raise SpecFileError(f"{what} needs {need:.4g} bytes, {largest:.4g} of them for "
                            f"{part}, which exceeds the {memory} bytes of physical memory",
                            field=field or name)


def _phase_grid(start: float, stop: float, steps: int, *, fieldname: str) -> np.ndarray:
    """``np.linspace(start, stop, steps)``, once :func:`footprint` admits it."""
    _admit(footprint(Sizes(phases=steps), "load"), f"a grid of {steps} phases", fieldname)
    return np.linspace(start, stop, steps)


def _require_mapping(data, *, fieldname: str) -> dict:
    if not isinstance(data, dict):
        raise SpecFileError(f"expected a mapping, got {type(data).__name__}",
                            field=fieldname)
    return data


def _require_known_keys(data: dict, known, *, fieldname: str) -> None:
    """Reject keys of the mapping ``data`` outside ``known``, naming the
    first such key's dotted path (the key alone in the top-level mapping,
    whose ``fieldname`` is empty)."""
    unknown = sorted(str(key) for key in data if key not in known)
    if unknown:
        raise SpecFileError(f"unknown keys {unknown}; known: {sorted(known)}",
                            field=f"{fieldname}.{unknown[0]}" if fieldname else unknown[0])


def _integer(value, minimum: int, maximum: float = math.inf, *, fieldname: str) -> int:
    """``value`` if it is an integer (not a bool) from ``minimum`` to ``maximum``;
    the error names the bound it breaks."""
    integer = isinstance(value, int) and not isinstance(value, bool)
    if not integer or not minimum <= value <= maximum:
        bound = f"<= {maximum}" if integer and value > maximum else f">= {minimum}"
        raise SpecFileError(f"must be an integer {bound}, got {value!r}", field=fieldname)
    return value


def _number(value, *, fieldname: str) -> float:
    """``value`` as a float: a number, or a string ``float()`` parses (YAML
    1.1 reads ``1e-6``, without a dot, as a string). A bool is not a number."""
    if not isinstance(value, bool) and isinstance(value, (numbers.Real, str)):
        try:
            return float(value)
        except ValueError:
            pass
    raise SpecFileError(f"expected a number, got {value!r}", field=fieldname)


def _positive_float(value, *, fieldname: str) -> float:
    number = _number(value, fieldname=fieldname)
    if not 0 < number < math.inf:
        raise SpecFileError("must be a positive finite number", field=fieldname)
    return number


def _one_of(data, names, *, fieldname: str):
    """The one form key of the section mapping ``data`` and its value; an
    unknown key is rejected by name, and zero or two keys are rejected."""
    data = _require_mapping(data, fieldname=fieldname)
    _require_known_keys(data, names, fieldname=fieldname)
    if len(data) != 1:
        raise SpecFileError(f"expected exactly one of {list(names)}", field=fieldname)
    return next(iter(data.items()))


def _qubits(n_qubits, what: str, *, fieldname: str) -> int:
    """``n_qubits``, or an error that ``what`` needs a qubit system."""
    if n_qubits is None:
        raise SpecFileError(f"{what} needs a qubit system", field=fieldname)
    return n_qubits


def _checked(build, *args, fieldname: str):
    """``build(*args)``, its ``ValueError`` reported against ``fieldname``."""
    try:
        return build(*args)
    except ValueError as exc:
        raise SpecFileError(str(exc), field=fieldname) from exc


def _build_state(data, *, fieldname: str = "state"):
    form, body = _one_of(data, ("ghz", "custom"), fieldname=fieldname)
    fieldname = f"{fieldname}.{form}"
    if form == "ghz":
        body = _require_mapping(body, fieldname=fieldname)
        _require_known_keys(body, ("n",), fieldname=fieldname)
        n = _integer(body.get("n"), 1, fieldname=f"{fieldname}.n")
        _admit(footprint(Sizes(dim=2 ** min(n, 64)), "load"),
               f"a GHZ state of {n} qubits", f"{fieldname}.n")
        return ghz_state(n, 0.0), n
    form, entries = _one_of(body, ("amplitudes", "density"), fieldname=fieldname)
    fieldname = f"{fieldname}.{form}"
    parse, build = ((parse_vector, PureState) if form == "amplitudes"
                    else (parse_matrix, DensityMatrix))
    state = _checked(build, parse(entries, fieldname=fieldname), fieldname=fieldname)
    n = state.dim.bit_length() - 1
    return state, (n if 2 ** n == state.dim else None)


def _build_generator(data, n_qubits, *, fieldname: str = "parametrization"):
    if data is None:
        return collective_spin("z", _qubits(n_qubits, "a default parametrization",
                                            fieldname=fieldname))
    if isinstance(data, dict) and "blackbox" in data:
        raise SpecFileError("blackbox parametrization is not supported in files",
                            field=f"{fieldname}.blackbox")
    _, gen = _one_of(data, ("generator",), fieldname=fieldname)
    fieldname = f"{fieldname}.generator"
    if gen == "half_sigma_z_sum":
        return collective_spin("z", _qubits(
            n_qubits, "named generator 'half_sigma_z_sum'", fieldname=fieldname))
    if not isinstance(gen, dict):
        raise SpecFileError(
            f"expected 'half_sigma_z_sum' or a matrix mapping, got {gen!r}",
            field=fieldname)
    _, entries = _one_of(gen, ("matrix",), fieldname=fieldname)
    fieldname = f"{fieldname}.matrix"
    return _checked(HermitianObservable, parse_matrix(entries, fieldname=fieldname),
                    fieldname=fieldname)


def _coefficient_quadruple(data, *, fieldname: str) -> tuple[float, float, float, float]:
    if isinstance(data, dict):
        _require_known_keys(data, ("a0", "a1", "a2", "a3"), fieldname=fieldname)
        values = [data.get(key, 0.0) for key in ("a0", "a1", "a2", "a3")]
    elif isinstance(data, (list, tuple)) and len(data) == 4:
        values = data
    else:
        raise SpecFileError(
            "expected {a0, a1, a2, a3} or a 4-element list", field=fieldname)
    quad = tuple(_number(x, fieldname=fieldname) for x in values)
    if not all(map(math.isfinite, quad)):
        raise SpecFileError(f"must be finite, got {quad}", field=fieldname)
    return quad


def _build_observable(data, n_qubits, *, fieldname: str = "observable"):
    if data is None:
        return None
    form, entry = _one_of(data, ("pauli_product", "parity", "custom"),
                          fieldname=fieldname)
    fieldname = f"{fieldname}.{form}"
    if form == "custom":
        return _checked(HermitianObservable, parse_matrix(entry, fieldname=fieldname),
                        fieldname=fieldname)
    if form == "parity":
        if entry is not True:
            raise SpecFileError("expected 'parity: true'", field=fieldname)
        return parity_observable(_qubits(n_qubits, "parity", fieldname=fieldname))
    n_qubits = _qubits(n_qubits, "pauli_product", fieldname=fieldname)
    if isinstance(entry, list) and entry and isinstance(entry[0], (list, dict)):
        if len(entry) != n_qubits:
            raise SpecFileError(f"{len(entry)} site quadruples for {n_qubits} qubits",
                                field=fieldname)
        return product_observable([
            _coefficient_quadruple(q, fieldname=f"{fieldname}[{k}]")
            for k, q in enumerate(entry)])
    return product_observable(
        [_coefficient_quadruple(entry, fieldname=fieldname)] * n_qubits)


def _build_povm(data, n_qubits, observable, dim, *, fieldname: str = "povm"):
    if data is None:
        return None
    if isinstance(data, str):
        if data in ("x_basis_product", "y_basis_product"):  # builds no factor here
            return product_basis_povm(data[0], _qubits(n_qubits, data, fieldname=fieldname))
        if data == "eigenprojectors_of_observable":
            if observable is None:
                raise SpecFileError(
                    "eigenprojectors_of_observable needs an observable",
                    field=fieldname)
            if observable.product_form is None:  # eigh of the dense observable
                _admit(footprint(Sizes(dim, columns=dim), "load"), data, fieldname)
            return eigenprojector_povm(observable)
        raise SpecFileError(f"unknown POVM name {data!r}", field=fieldname)
    _, custom = _one_of(data, ("custom",), fieldname=fieldname)
    fieldname = f"{fieldname}.custom"
    custom = _require_mapping(custom, fieldname=fieldname)
    _require_known_keys(custom, ("elements", "labels"), fieldname=fieldname)
    raw_elements = custom.get("elements")
    if not isinstance(raw_elements, list) or not raw_elements:
        raise SpecFileError("expected a non-empty 'elements' list",
                            field=f"{fieldname}.elements")
    elements = tuple(parse_matrix(m, fieldname=f"{fieldname}.elements[{k}]")
                     for k, m in enumerate(raw_elements))
    labels = custom.get("labels", [])
    if not isinstance(labels, list):
        raise SpecFileError(f"expected a list of labels, got {type(labels).__name__}",
                            field=f"{fieldname}.labels")
    return _checked(Povm, elements, tuple(labels), fieldname=fieldname)


def _build_phis(data, *, fieldname: str = "phi") -> tuple[np.ndarray, bool]:
    if data is None:
        return np.array([0.0]), False
    if isinstance(data, dict):
        _require_known_keys(data, ("start", "stop", "steps"), fieldname=fieldname)
        for key in ("start", "stop", "steps"):
            if key not in data:
                raise SpecFileError(f"range needs '{key}'",
                                    field=f"{fieldname}.{key}")
        steps = _integer(data["steps"], 2, fieldname=f"{fieldname}.steps")
        start = parse_angle(data["start"], fieldname=f"{fieldname}.start")
        stop = parse_angle(data["stop"], fieldname=f"{fieldname}.stop")
        return _phase_grid(start, stop, steps, fieldname=f"{fieldname}.steps"), True
    return np.array([parse_angle(data, fieldname=fieldname)]), False


def _same_dim(what: str, operator, state, *, fieldname: str):
    """``operator`` (``None`` passes) after checking that its dimension is
    the state's."""
    if operator is not None and operator.dim != state.dim:
        raise SpecFileError(
            f"{what} dimension {operator.dim} != state dimension {state.dim}",
            field=fieldname)
    return operator


def _build_tolerances(data, *, fieldname: str = "tolerances") -> dict[str, float]:
    if data is None:
        return {}
    data = _require_mapping(data, fieldname=fieldname)
    _require_known_keys(data, KNOWN_TOLERANCES, fieldname=fieldname)
    return {key: _positive_float(value, fieldname=f"{fieldname}.{key}")
            for key, value in data.items()}


def build_model_spec(data: dict) -> ModelSpec:
    """Build a validated :class:`ModelSpec` from a parsed mapping."""
    data = _require_mapping(data, fieldname="<document>")
    _require_known_keys(data, ("state", "parametrization", "observable", "povm", "phi",
                               "nu", "seed", "trials", "tolerances"), fieldname="")
    if "state" not in data:
        raise SpecFileError("missing required 'state' section", field="state")
    state, n_qubits = _build_state(data["state"])
    generator = _same_dim("generator", _build_generator(data.get("parametrization"),
                                                        n_qubits),
                          state, fieldname="parametrization.generator")
    observable = _same_dim("observable", _build_observable(data.get("observable"),
                                                           n_qubits),
                           state, fieldname="observable")
    povm = _same_dim("POVM", _build_povm(data.get("povm"), n_qubits, observable, state.dim),
                     state, fieldname="povm")
    phis, phi_is_range = _build_phis(data.get("phi"))
    # a null nu or trials takes the default, as a missing one does
    nu, trials = data.get("nu"), data.get("trials")
    return ModelSpec(
        model=unitary_model(state, generator), observable=observable, povm=povm,
        phis=phis, phi_is_range=phi_is_range,
        nu=1 if nu is None else _integer(nu, *_RUN_BOUNDS["nu"], fieldname="nu"),
        seed=_integer(data.get("seed", 0), *_RUN_BOUNDS["seed"], fieldname="seed"),
        trials=(100 if trials is None
                else _integer(trials, *_RUN_BOUNDS["trials"], fieldname="trials")),
        n_qubits=n_qubits,
        tolerances=_build_tolerances(data.get("tolerances")))


def load_model_spec(path: str) -> ModelSpec:
    """Parse a model specification file (YAML), once :func:`footprint` admits
    its size in bytes (before it is read) and its characters and marks."""
    what = f"parsing {path!r}"
    try:
        with open(path, "r", encoding="utf-8") as handle:
            _admit(footprint(Sizes(file=os.fstat(handle.fileno()).st_size), "load"), what)
            text = handle.read()
        marks = sum(map(text.count, _YAML_MARKS))
        _admit(footprint(Sizes(file=len(text), marks=marks), "load"), what)
        stream = io.StringIO(text)
        stream.name = path  # YAML's error marks name the file, as when parsing the handle
        data = yaml.load(stream, Loader=_constructing_once(_Loader))
    except OSError as exc:
        raise SpecFileError(f"cannot read {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise SpecFileError(f"invalid YAML in {path!r}: {exc}") from exc
    if data is None:
        raise SpecFileError(f"{path!r} is empty")
    return build_model_spec(data)
