"""Complex linear algebra and quantum state/observable primitives.

Conventions used throughout the package:

* states and density matrices are dense complex ``numpy`` arrays, and so
  is a POVM's column factor, except that a product basis, and the
  eigenprojector POVM of a product observable, keep one 2x2 basis per site
  and a column order, form the rows of their factor that a computation
  reads site by site and build the dense factor (and a product basis its
  labels) only when they are read; an observable keeps the form it was
  built from (a real diagonal, per-qubit product coefficients or a dense
  matrix), acts on vectors and gives its entries on a set of rows through
  that form, and builds its dense matrix only when one is read;
* qubit site 0 is the leftmost (most significant) Kronecker factor, so the
  computational-basis index of ``|b_0 b_1 ... b_{N-1}>`` is the integer with
  binary digits ``b_0 b_1 ... b_{N-1}``;
* all values are immutable after construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotHermitianError,
    NotPositiveError,
)

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "IDENTITY_2",
    "PAULIS",
    "VALIDATION_ATOL",
    "ALGORITHMIC_ATOL",
    "as_complex_matrix",
    "require_hermitian",
    "tensor_product",
    "tensor_power",
    "hermitian_eigendecomposition",
    "PsdSpectrum",
    "psd_spectrum",
    "collective_spin",
    "single_site_observable",
    "product_observable",
    "PureState",
    "DensityMatrix",
    "HermitianObservable",
    "Povm",
    "eigenprojector_povm",
    "product_basis_povm",
    "product_basis_vectors",
]

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = {"i": IDENTITY_2, "x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}
for _m in PAULIS.values():
    _m.setflags(write=False)

#: tolerance for validating user-supplied states/observables
VALIDATION_ATOL = 1e-10
#: tolerance for Hermiticity gates inside algorithms
ALGORITHMIC_ATOL = 1e-8
#: relative eigenvalue cutoff classifying the support of a PSD matrix
SUPPORT_CUTOFF_REL = 1e-12
# relative eigenvalue gap below which eigenprojector_povm merges outcomes
_DEGENERACY_TOL = 1e-8


# ---------------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------------

def as_complex_matrix(value, *, name: str = "matrix") -> np.ndarray:
    """Coerce ``value`` to an owned 2-D complex array with finite entries."""
    arr = np.array(value, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _require_square(arr: np.ndarray, *, name: str = "matrix") -> None:
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")


def require_hermitian(value, *, atol: float = VALIDATION_ATOL,
                      name: str = "matrix") -> np.ndarray:
    """Validate Hermiticity within ``atol`` and return the symmetrized matrix."""
    arr = as_complex_matrix(value, name=name)
    _require_square(arr, name=name)
    defect = float(np.linalg.norm(arr - arr.conj().T))
    if defect > atol:
        raise NotHermitianError(
            f"{name} is not Hermitian: defect {defect:.3e} > {atol:.1e}")
    return (arr + arr.conj().T) / 2.0


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron(a, b)`` of two 1-D or two 2-D arrays, bit for bit: each
    entry is the same one product ``a[i, j] * b[k, l]``. The output is
    written as one scaled copy of ``a`` per entry of ``b``, or of ``b`` per
    entry of ``a`` where ``a`` is the smaller; ``np.kron``'s one broadcast
    product over interleaved axes runs an inner loop per entry of ``b``
    instead, some 8 times slower for a 64 x 64 ``a`` and a 2 x 2 ``b``."""
    out = np.empty([n for pair in zip(a.shape, b.shape) for n in pair],
                   dtype=np.result_type(a, b))
    if b.size <= a.size:
        for index, value in np.ndenumerate(b):
            np.multiply(a, value, out=out[tuple(x for k in index for x in (slice(None), k))])
    else:
        for index, value in np.ndenumerate(a):
            np.multiply(value, b, out=out[tuple(x for i in index for x in (i, slice(None)))])
    return out.reshape([m * n for m, n in zip(a.shape, b.shape)])


def tensor_product(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of square matrices, in list order (site 0 leftmost)."""
    if len(factors) == 0:
        raise ValueError("tensor_product requires at least one factor")
    out: np.ndarray | None = None
    for k, factor in enumerate(factors):
        arr = as_complex_matrix(factor, name=f"factor {k}")
        if arr.shape[0] != arr.shape[1]:
            raise ValueError(f"factor {k} is not square: shape {arr.shape}")
        out = arr if out is None else _kron(out, arr)
    return out


def tensor_power(factor: np.ndarray, n: int) -> np.ndarray:
    """Kronecker product of ``n`` copies of ``factor``."""
    if n < 1:
        raise ValueError("tensor_power requires n >= 1")
    return tensor_product([factor] * n)


def hermitian_eigendecomposition(matrix):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as the columns of a unitary matrix, so that
    ``matrix = V diag(w) V^dagger``.
    """
    return np.linalg.eigh(require_hermitian(matrix, atol=ALGORITHMIC_ATOL))


class PsdSpectrum(NamedTuple):
    """Eigendecomposition of a PSD matrix (see :func:`psd_spectrum`)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    cutoff: float

    @property
    def kernel(self) -> np.ndarray:
        return self.eigenvalues <= self.cutoff

    def carrier(self) -> np.ndarray:
        """``V sqrt(p)`` over the support: a ``d x r`` factor ``C`` with
        ``C C^dagger`` the matrix without its kernel part."""
        support = ~self.kernel
        return self.eigenvectors[:, support] * np.sqrt(self.eigenvalues[support])


def psd_spectrum(matrix) -> PsdSpectrum:
    """Eigendecomposition of a Hermitian PSD matrix with its support classified.

    Eigenvalues are ascending and clipped at zero: those in ``[-1e-8, 0)`` are
    rounding noise, anything more negative raises :class:`NotPositiveError`.
    Eigenvalues at or below ``cutoff``, ``SUPPORT_CUTOFF_REL`` times the
    trace, span the kernel; leaving them out of the carrier keeps O(eps)
    eigenvalue noise from becoming O(sqrt(eps)) noise in its columns.
    """
    eigenvalues, eigenvectors = hermitian_eigendecomposition(matrix)
    if eigenvalues[0] < -1e-8:
        raise NotPositiveError(
            f"matrix has negative eigenvalue {float(eigenvalues[0]):.3e} < -1.0e-08")
    return _support(eigenvalues, eigenvectors)


def _support(eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> PsdSpectrum:
    """The spectrum with its eigenvalues clipped at zero and its cutoff."""
    clipped = np.clip(eigenvalues, 0.0, None)
    return PsdSpectrum(clipped, eigenvectors, SUPPORT_CUTOFF_REL * float(np.sum(clipped)))


def collective_spin(axis: str, n_qubits: int) -> "HermitianObservable":
    """Collective spin component ``J_axis = (1/2) sum_i sigma_axis^(i)``.

    ``J_z`` is its diagonal ``(N - 2 popcount(k)) / 2``, whose dense matrix
    is bit for bit the Kronecker sum that builds ``J_x`` and ``J_y``. The
    popcounts of ``0 .. 2^N - 1`` are built by doubling: those of the upper
    half are the lower half's plus one.
    """
    if axis not in ("x", "y", "z"):
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    dim = 2 ** n_qubits
    if axis == "z":
        ones = np.zeros(1, dtype=int)
        for _ in range(n_qubits):
            ones = np.concatenate([ones, ones + 1])
        return HermitianObservable(diagonal=(n_qubits - 2.0 * ones) / 2.0)
    sigma = PAULIS[axis]
    total = np.zeros((dim, dim), dtype=complex)
    for site in range(n_qubits):
        factors = [IDENTITY_2] * n_qubits
        factors[site] = sigma
        total += tensor_product(factors)
    return HermitianObservable(total / 2.0, check=False)


def single_site_observable(coeffs: Sequence[float]) -> np.ndarray:
    """2x2 Hermitian matrix ``a0*I + a1*sx + a2*sy + a3*sz``."""
    a0, a1, a2, a3 = (float(c) for c in coeffs)
    return a0 * IDENTITY_2 + a1 * SIGMA_X + a2 * SIGMA_Y + a3 * SIGMA_Z


def product_observable(site_coeffs: Sequence[Sequence[float]]) -> "HermitianObservable":
    """Tensor product of per-site ``a0*I + a.sigma`` factors, kept as its
    ``product_form`` of coefficient quadruples."""
    return HermitianObservable(product_form=site_coeffs)


def _product_form(site_coeffs) -> tuple[tuple[float, float, float, float], ...]:
    """``site_coeffs`` as a non-empty tuple of finite float quadruples."""
    sites = tuple(tuple(float(c) for c in quad) for quad in site_coeffs)
    if not sites:
        raise ValueError("product_observable requires at least one site")
    for k, quad in enumerate(sites):
        if len(quad) != 4:
            raise ValueError(f"site {k} must have 4 coefficients, got {len(quad)}")
        if not all(map(np.isfinite, quad)):
            raise ValueError(f"site {k} coefficients are not finite: {quad}")
    return sites


def _apply_product(factors: Sequence[np.ndarray], x: np.ndarray) -> np.ndarray:
    """``(F_0 kron ... kron F_{N-1}) x`` for a ``2^N x k`` array ``x``, one
    2x2 factor at a time.

    The array is viewed as ``(2, rest)`` with the leading axis the site
    being contracted; each step multiplies that axis by its factor and
    rotates it to the end, so after N steps the axes are back in order
    behind the column axis: N products of a 2x2 by a ``2 x 2^(N-1) k``
    array and N transposed copies, O(N 2^N k) in all. The result is
    C-contiguous, so that reductions over it sum in the order they sum a
    matrix product's.
    """
    dim, columns = x.shape
    y = x.reshape(2, -1)
    for factor in factors:
        y = (factor @ y).T.reshape(2, -1)
    return np.ascontiguousarray(y.reshape(columns, dim).T)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector of a d-dimensional system."""

    amplitudes: np.ndarray
    check: InitVar[bool] = True

    def __post_init__(self, check: bool) -> None:
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if check:
            if not np.all(np.isfinite(amps)):
                raise ValueError("amplitudes contain non-finite entries")
            norm = float(np.linalg.norm(amps))
            if abs(norm - 1.0) > VALIDATION_ATOL:
                raise ValueError(
                    f"state vector not normalized: ||psi|| = {norm!r}")
        object.__setattr__(self, "amplitudes", _freeze(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def density(self) -> "DensityMatrix":
        """Rank-one density matrix ``|psi><psi|``."""
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()),
                             check=False)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, PSD matrix describing a quantum state."""

    matrix: np.ndarray
    check: InitVar[bool] = True

    def __post_init__(self, check: bool) -> None:
        arr = as_complex_matrix(self.matrix, name="density matrix")
        _require_square(arr, name="density matrix")
        if check:
            arr = require_hermitian(arr, atol=VALIDATION_ATOL, name="density matrix")
            trace = complex(np.trace(arr))
            if abs(trace - 1.0) > VALIDATION_ATOL:
                raise ValueError(f"density matrix trace {trace!r} != 1")
            smallest = float(np.linalg.eigvalsh(arr)[0])
            if smallest < -VALIDATION_ATOL:
                raise NotPositiveError(
                    f"density matrix has negative eigenvalue {smallest:.3e}")
        object.__setattr__(self, "matrix", _freeze(arr))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def is_pure(self) -> bool:
        return abs(self.purity() - 1.0) <= ALGORITHMIC_ATOL


@dataclass(frozen=True, eq=False, init=False)
class HermitianObservable:
    """Measurement observable, kept in the form it was built from.

    Exactly one form is given: ``diagonal``, a real vector ``g`` (the
    operator ``diag(g)``); ``product_form``, a tuple of per-site coefficient
    quadruples ``(a0, a1, a2, a3)`` (the tensor product of the single-qubit
    factors ``a0 I + a1 sx + a2 sy + a3 sz``, site 0 leftmost); or
    ``matrix``, a dense Hermitian matrix (validated under ``check``).
    :meth:`apply` acts through the form, and a diagonal or product form
    builds ``matrix`` only when it is first read.
    """

    product_form: tuple[tuple[float, float, float, float], ...] | None
    dim: int
    _form: str

    def __init__(self, matrix=None, product_form=None, check: bool = True, *,
                 diagonal=None) -> None:
        if sum(given is not None for given in (matrix, product_form, diagonal)) != 1:
            raise ValueError(
                "an observable needs exactly one of a matrix, a product_form or a diagonal")
        if product_form is not None:
            product_form = _product_form(product_form)
            form, dim = "product", 2 ** len(product_form)
        elif diagonal is not None:
            values = np.array(diagonal, dtype=float)
            if values.ndim != 1 or not np.all(np.isfinite(values)):
                raise ValueError("diagonal must be a finite real vector")
            self.__dict__["diagonal"] = _freeze(values)
            form, dim = "diagonal", values.shape[0]
        else:
            if check:
                arr = require_hermitian(matrix, atol=VALIDATION_ATOL, name="observable")
            else:
                arr = as_complex_matrix(matrix, name="observable")
                _require_square(arr, name="observable")
            self.__dict__["matrix"] = _freeze(arr)
            form, dim = "matrix", arr.shape[0]
        object.__setattr__(self, "product_form", product_form)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_form", form)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense matrix, read-only: the given one, or built from the form
        on first read (``diag(g)``, or the Kronecker product of the factors)."""
        if self.product_form is not None:
            return _freeze(tensor_product(self._factors))
        return _freeze(np.diag(self.diagonal.astype(complex)))

    @cached_property
    def diagonal(self) -> np.ndarray | None:
        """The real diagonal, read-only, when the operator is diagonal;
        ``None`` otherwise. A given matrix is diagonal when every
        off-diagonal entry is exactly zero and the diagonal is real; a
        product form when every site has ``a1 = a2 = 0``, its diagonal then
        the Kronecker product of the sites' ``(a0 + a3, a0 - a3)``."""
        if self._form == "product":
            if any(a1 or a2 for _, a1, a2, _ in self.product_form):
                return None
            diag = np.ones(1)
            for a0, _, _, a3 in self.product_form:
                diag = _kron(diag, np.array([a0 + a3, a0 - a3]))
            return _freeze(diag)
        diag = np.diagonal(self.matrix)
        if np.count_nonzero(self.matrix) != np.count_nonzero(diag) or np.any(diag.imag):
            return None
        return _freeze(diag.real.copy())

    @cached_property
    def _factors(self) -> tuple[np.ndarray, ...]:
        """The 2x2 factor of each site of the product form."""
        return tuple(single_site_observable(quad) for quad in self.product_form)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``O x`` for a ``d x k`` array ``x``, through the stored form:
        ``g[:, None] * x`` for a diagonal, one 2x2 contraction per site for
        a product form (O(N 2^N k)), ``matrix @ x`` for a matrix."""
        if self._form == "diagonal":
            return self.diagonal[:, None] * x
        if self._form == "product":
            return _apply_product(self._factors, x)
        return self.matrix @ x

    def _block(self, rows: np.ndarray) -> np.ndarray:
        """``matrix[rows][:, rows]`` for an integer array ``rows``, through
        the stored form: ``diag(g[rows])`` for a diagonal, the product of
        the sites' entries for a product form, each entry the left-to-right
        product that the Kronecker product holds, in ``O(N |rows|^2)``."""
        if self._form == "diagonal":
            return np.diag(self.diagonal[rows].astype(complex))
        if self._form == "matrix":
            return self.matrix[np.ix_(rows, rows)]
        sites = len(self.product_form)
        bits = rows[:, None] >> np.arange(sites - 1, -1, -1) & 1
        out = self._factors[0][bits[:, 0, None], bits[None, :, 0]]
        for k in range(1, sites):
            out = out * self._factors[k][bits[:, k, None], bits[None, :, k]]
        return out


@dataclass(frozen=True, eq=False, init=False)
class Povm:
    """Positive-operator-valued measure: PSD elements summing to identity.

    A POVM is a ``d x R`` column factor ``F``: outcome ``x`` owns the
    contiguous, non-empty block of columns ``F_x = F[:,
    block_bounds[x]:block_bounds[x + 1]]``, and its element is ``M_x = F_x
    F_x^dagger``. A probability ``Re Tr(A M_x)`` is then ``Re sum conj(F_x) *
    (A F_x)``, so no element needs to exist as a ``d x d`` matrix.

    ``Povm(elements, labels, check)`` takes dense elements and factors each
    once by its eigendecomposition, over the eigenvalues above
    ``SUPPORT_CUTOFF_REL`` times its trace (an element with none keeps one
    zero column); ``check`` validates each element and the sum to identity
    on the given matrices. ``Povm(labels=..., factor=F, block_sizes=...)``
    takes a copy of the factor itself, and ``check`` then validates ``F
    F^dagger = I``; the package's builders hand over the factor they have
    just built, without a copy (``Povm._adopt``). A product form keeps only
    its ``N`` site bases ``_site_bases`` (``N x 2 x 2``) and the order
    ``_order`` of the columns of their Kronecker product (``None`` for
    their own order): the factor is ``(B_0 kron ... kron B_{N-1})[:,
    _order]``. A product basis (:func:`product_basis_povm`) is N equal
    bases in their own order, one column per outcome; the eigenprojector
    POVM of a product observable (:func:`eigenprojector_povm`) keeps each
    site's eigenbasis and the columns sorted by eigenvalue. ``block_bounds``,
    ``dim`` and ``len`` need no build, ``factor`` and a product basis's sign
    ``labels`` are built on first read, and :meth:`_factor_rows` forms any
    rows of the factor site by site. ``elements`` are the given matrices,
    or ``F_x F_x^dagger`` built on first read.
    """

    block_bounds: np.ndarray
    dim: int
    _site_bases: np.ndarray | None
    _order: np.ndarray | None

    def __init__(self, elements: Sequence = (), labels: Sequence = (),
                 check: bool = True, *, factor: np.ndarray | None = None,
                 block_sizes: Sequence[int] = ()) -> None:
        if factor is None:
            given = _dense_elements(elements)
            blocks = [_element_factor(element, k, check)
                      for k, element in enumerate(given)]
            if check:
                _require_identity(sum(given), "POVM elements do not sum to identity")
            factor = np.concatenate(blocks, axis=1)
            block_sizes = [block.shape[1] for block in blocks]
            self.__dict__["elements"] = tuple(_freeze(e) for e in given)
            check = False  # the elements were checked, not their factor
        else:
            factor = as_complex_matrix(factor, name="POVM factor")
        self._store(factor, block_sizes, labels, check)

    @classmethod
    def _adopt(cls, factor: np.ndarray, block_sizes: Sequence[int],
               labels: Sequence) -> Povm:
        """A POVM that owns ``factor``, a complex array its caller has just
        built and hands over: it is frozen in place, not copied or checked."""
        povm = cls.__new__(cls)
        povm._store(factor, block_sizes, labels, False)
        return povm

    def _store(self, factor: np.ndarray, block_sizes: Sequence[int], labels: Sequence,
               check: bool) -> None:
        block_sizes = [int(size) for size in block_sizes]
        if min(block_sizes, default=0) < 1 or sum(block_sizes) != factor.shape[1]:
            raise ValueError(f"block sizes {block_sizes} do not split the "
                             f"{factor.shape[1]} columns of the POVM factor")
        if check:
            _require_identity(factor @ factor.conj().T,
                              "POVM factor F does not give F F^dagger = I")
        labels = tuple(labels) or tuple(range(len(block_sizes)))
        if len(labels) != len(block_sizes):
            raise ValueError(
                f"{len(labels)} labels for {len(block_sizes)} POVM elements")
        self.__dict__.update(factor=_freeze(factor), labels=labels)
        self._set(np.cumsum([0, *block_sizes]), factor.shape[0])

    def _set(self, block_bounds: np.ndarray, dim: int, site_bases: np.ndarray | None = None,
             order: np.ndarray | None = None) -> None:
        """Store the fields every POVM has."""
        object.__setattr__(self, "block_bounds", _freeze(block_bounds))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_site_bases", site_bases)
        object.__setattr__(self, "_order", order)

    @cached_property
    def factor(self) -> np.ndarray:
        """The ``d x R`` factor, read-only: the given one, or a product
        form's, built on first read by :meth:`_factor_rows`, an eighth of
        the rows (at least 64) at a time, so that its work arrays stay below
        a quarter of the factor."""
        out = np.empty((self.dim, int(self.block_bounds[-1])), dtype=complex)
        step = max(64, self.dim // 8)
        for start in range(0, self.dim, step):
            out[start:start + step] = self._factor_rows(np.arange(start, min(start + step,
                                                                             self.dim)))
        return _freeze(out)

    @cached_property
    def labels(self) -> tuple:
        """One label per outcome: the given ones, or a product basis's sign
        strings ``++..+, ++..-, ..., --..-``, built on first read."""
        return tuple("".join(signs) for signs in
                     itertools.product("+-", repeat=self.dim.bit_length() - 1))

    def _factor_rows(self, rows: np.ndarray) -> np.ndarray:
        """``factor[rows]`` for an integer array ``rows``. A product form
        forms each row as successive outer products of its per-site rows
        ``B_k[b_k, :]``, ``b_k`` the row's binary digits from site 0, then
        takes the column order: each entry is the same left-to-right
        product that the Kronecker product holds, in ``O(|rows| R)`` and
        with no ``d x d`` factor."""
        if self._site_bases is None:
            return self.factor[rows]
        sites = len(self._site_bases)
        # (|rows|, N, 2): the per-site row B_k[b_k, :] of each row
        site_rows = self._site_bases[np.arange(sites),
                                     rows[:, None] >> np.arange(sites - 1, -1, -1) & 1]
        out = site_rows[:, 0]
        for k in range(1, sites):
            out = (out[:, :, None] * site_rows[:, k, None, :]).reshape(rows.size, -1)
        return out if self._order is None else out[:, self._order]

    @cached_property
    def elements(self) -> tuple[np.ndarray, ...]:
        """``M_x = F_x F_x^dagger`` for each outcome, built on first read."""
        bounds = self.block_bounds.tolist()
        return tuple(_freeze(block @ block.conj().T)
                     for block in (self.factor[:, lo:hi]
                                   for lo, hi in zip(bounds, bounds[1:])))

    def __len__(self) -> int:
        return self.block_bounds.size - 1


def _dense_elements(elements: Sequence) -> tuple[np.ndarray, ...]:
    """Owned square complex copies of ``elements``, all of one dimension."""
    given = tuple(as_complex_matrix(e, name=f"POVM element {k}")
                  for k, e in enumerate(elements))
    if not given:
        raise ValueError("POVM requires at least one element")
    dim = given[0].shape[0]
    for k, element in enumerate(given):
        _require_square(element, name=f"POVM element {k}")
        if element.shape[0] != dim:
            raise DimensionMismatchError(
                f"POVM element {k} has dimension {element.shape[0]} != {dim}")
    return given


def _element_factor(element: np.ndarray, k: int, check: bool) -> np.ndarray:
    """``F_k`` with ``F_k F_k^dagger`` the support part of the Hermitian part
    of ``element``; under ``check`` the element must be Hermitian and PSD."""
    if check:
        herm = require_hermitian(element, atol=VALIDATION_ATOL,
                                 name=f"POVM element {k}")
    else:
        herm = (element + element.conj().T) / 2.0
    eigenvalues, eigenvectors = np.linalg.eigh(herm)
    if check and eigenvalues[0] < -VALIDATION_ATOL:
        raise NotPositiveError(
            f"POVM element {k} has negative eigenvalue {float(eigenvalues[0]):.3e}")
    block = _support(eigenvalues, eigenvectors).carrier()
    return block if block.shape[1] else np.zeros((element.shape[0], 1), dtype=complex)


def _require_identity(total: np.ndarray, message: str) -> None:
    dim = total.shape[0]
    gap = float(np.linalg.norm(total - np.eye(dim)))
    if gap > VALIDATION_ATOL * max(1.0, dim):
        raise ValueError(f"{message}: gap {gap:.3e}")


def eigenprojector_povm(obs: HermitianObservable) -> Povm:
    """Projective measurement of an observable, one outcome per distinct
    eigenvalue.

    Eigenvalues closer than ``_DEGENERACY_TOL`` (relative to the spectral
    spread) are merged into one outcome; labels are the merged eigenvalues'
    means. The factor is an eigenvector matrix, eigenvalues ascending, with
    one block of columns per merged group. A matrix or diagonal
    observable's comes from ``eigh`` of its dense matrix. A product form's
    is the Kronecker product of each site's closed-form eigenbasis
    (:func:`_site_eigenpairs`), its eigenvalues the Kronecker product of the
    sites' and its columns in their stable ascending order: it is kept in
    that product form, so that neither ``eigh`` nor a ``d x d`` matrix is
    formed.
    """
    if obs.product_form is None:
        eigenvalues, eigenvectors = hermitian_eigendecomposition(obs.matrix)
        block_sizes, labels = _merged(eigenvalues)
        return Povm._adopt(eigenvectors, block_sizes, labels)
    values, bases = zip(*map(_site_eigenpairs, obs.product_form))
    eigenvalues = np.ones(1)
    for site_values in values:
        eigenvalues = _kron(eigenvalues, site_values)
    order = np.argsort(eigenvalues, kind="stable")
    block_sizes, labels = _merged(eigenvalues[order])
    povm = Povm.__new__(Povm)
    povm._set(np.cumsum([0, *block_sizes]), eigenvalues.size, _freeze(np.stack(bases)), order)
    povm.__dict__["labels"] = labels
    return povm


def _merged(eigenvalues: np.ndarray) -> tuple[np.ndarray, tuple[float, ...]]:
    """The sizes and mean values of the groups of ascending ``eigenvalues``
    that no gap above ``_DEGENERACY_TOL`` times the spread (at least 1)
    separates."""
    spread = max(1.0, float(eigenvalues[-1] - eigenvalues[0]))
    starts = np.flatnonzero(np.diff(eigenvalues) > _DEGENERACY_TOL * spread) + 1
    bounds = [0, *starts.tolist(), eigenvalues.size]
    return np.diff(bounds), tuple(float(np.mean(eigenvalues[lo:hi]))
                                  for lo, hi in zip(bounds, bounds[1:]))


def _site_eigenpairs(quad: tuple[float, float, float, float]
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues ``a0 -+ |a|`` of ``a0 I + a.sigma`` and a unitary
    whose columns are their eigenvectors, in closed form. With ``r = |a|``,
    ``(r + a3, a1 + i a2)`` and ``(a1 - i a2, r - a3)`` are both ``+``
    vectors; the one with the larger first entry (by the sign of ``a3``)
    is normalised, and ``(-conj(y), conj(x))`` is the ``-`` vector of a ``+``
    vector ``(x, y)``; adding 0 turns any negative zero positive. A site
    with ``a = 0`` keeps the identity basis."""
    a0, a1, a2, a3 = quad
    r = math.hypot(a1, a2, a3)
    if r == 0.0:
        return np.array([a0, a0]), IDENTITY_2
    x, y = (r + a3, complex(a1, a2)) if a3 >= 0.0 else (complex(a1, -a2), r - a3)
    norm = math.hypot(abs(x), abs(y))
    x, y = x / norm, y / norm
    return (np.array([a0 - r, a0 + r]),
            np.array([[-y.conjugate(), x], [complex(x).conjugate(), y]], dtype=complex) + 0.0)


# columns: the single-qubit + and - eigenvectors of sigma_x and of sigma_y
_XY_BASES = {"x": np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0),
             "y": np.array([[1.0, 1.0], [1.0j, -1.0j]], dtype=complex) / np.sqrt(2.0)}
for _m in _XY_BASES.values():
    _m.setflags(write=False)


def product_basis_vectors(axis: str, n_qubits: int) -> tuple[tuple[str, np.ndarray], ...]:
    """Per-outcome product vectors of the single-qubit ``axis`` eigenbasis.

    Outcomes are ordered ``++..+, ++..-, ..., --..-`` and labelled by their
    sign strings; each is a copied column of the :func:`product_basis_povm` factor.
    """
    povm = product_basis_povm(axis, n_qubits)
    return tuple((label, povm.factor[:, k].copy()) for k, label in enumerate(povm.labels))


def product_basis_povm(axis: str, n_qubits: int) -> Povm:
    """Projective POVM onto the product ``axis in {x, y}`` eigenbasis.

    Its factor is ``B^{tensor N}``, where the columns of ``B`` are the
    single-qubit ``+`` and ``-`` vectors; each column is one outcome, in the
    order and with the labels of :func:`product_basis_vectors`. The POVM
    keeps ``B`` once per site and builds the factor and the labels only
    when they are read.
    """
    if axis not in _XY_BASES:
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    if n_qubits < 1:
        raise ValueError("tensor_power requires n >= 1")
    povm = Povm.__new__(Povm)
    povm._set(np.arange(2 ** n_qubits + 1), 2 ** n_qubits,
              np.broadcast_to(_XY_BASES[axis], (n_qubits, 2, 2)))
    return povm
