"""Closed-form results for phase-accumulating GHZ states.

Provides the parametric GHZ family, its closed-form SLD operator, the
family of separable product observables that saturate the Heisenberg-limit
sensitivity, the Ramsey rotation mapping them onto parity-type readouts,
and the diagonal-projector SLD coefficients for the two-qubit product-basis
measurement (including the phases where they blow up).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    HermitianObservable,
    PureState,
    collective_spin,
    product_basis_vectors,
    product_observable,
    tensor_power,
)
from .errors import DimensionMismatchError, InvalidCoefficientsError
from .fisher import ParametricModel, unitary_model

__all__ = [
    "ghz_state",
    "ghz_model",
    "ghz_sld_closed_form",
    "SeparableObservableCoeffs",
    "optimal_separable_observable",
    "ghz_closed_form_expectations",
    "SingularPhiSet",
    "singular_points",
    "rotation_about_y",
    "ramsey_rotate",
    "parity_observable",
    "parity_from_collective_spin",
    "LambdaSolution",
    "two_qubit_lambda_solution",
    "X_BASIS",
    "Y_BASIS",
]

X_BASIS = "x_basis"
Y_BASIS = "y_basis"

#: half-width of the window around the singular phase grid
SINGULAR_WINDOW = 1e-10


def ghz_state(n_qubits: int, phi: float) -> PureState:
    """GHZ state after phase accumulation:
    ``(|0..0> + e^{i N phi} |1..1>) / sqrt(2)``."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    dim = 2 ** n_qubits
    amps = np.zeros(dim, dtype=complex)
    amps[0] = 1.0 / math.sqrt(2.0)
    amps[dim - 1] = np.exp(1j * n_qubits * phi) / math.sqrt(2.0)
    return PureState(amps, check=False)


def ghz_model(n_qubits: int) -> ParametricModel:
    """GHZ frequency-estimation family: collective z generator acting on the
    zero-phase GHZ state, ``phi = omega * t``."""
    return unitary_model(ghz_state(n_qubits, 0.0), collective_spin("z", n_qubits))


def ghz_sld_closed_form(n_qubits: int, phi: float) -> HermitianObservable:
    """Closed-form SLD for the GHZ family: the only nonzero entries couple
    ``|0..0>`` and ``|1..1>`` with weight ``N e^{+-i N phi}``."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    dim = 2 ** n_qubits
    matrix = np.zeros((dim, dim), dtype=complex)
    matrix[0, dim - 1] = -1j * n_qubits * np.exp(-1j * n_qubits * phi)
    matrix[dim - 1, 0] = 1j * n_qubits * np.exp(1j * n_qubits * phi)
    return HermitianObservable(matrix, check=False)


@dataclass(frozen=True)
class SeparableObservableCoeffs:
    """Per-site coefficients of a product observable ``(a0 I + a1 sx + a2 sy
    + a3 sz)^{tensor N}``."""

    a0: float
    a1: float
    a2: float
    a3: float

    def __post_init__(self) -> None:
        for name in ("a0", "a1", "a2", "a3"):
            object.__setattr__(self, name, float(getattr(self, name)))

    def require_optimal_family(self) -> None:
        """The saturating family needs a0 = a3 = 0 and (a1, a2) != (0, 0)."""
        if self.a0 != 0.0 or self.a3 != 0.0:
            raise InvalidCoefficientsError(
                f"a0 and a3 must vanish, got a0={self.a0!r}, a3={self.a3!r}")
        if self.a1 == 0.0 and self.a2 == 0.0:
            raise InvalidCoefficientsError("a1 and a2 must not both vanish")

    def quadruple(self) -> tuple[float, float, float, float]:
        return (self.a0, self.a1, self.a2, self.a3)


def optimal_separable_observable(n_qubits: int,
                                 coeffs: SeparableObservableCoeffs) -> HermitianObservable:
    """Member ``(a1 sx + a2 sy)^{tensor N}`` of the saturating separable
    family."""
    coeffs.require_optimal_family()
    return product_observable([coeffs.quadruple()] * n_qubits)


def ghz_closed_form_expectations(n_qubits: int, phi: float,
                                 coeffs: SeparableObservableCoeffs) -> tuple[float, float]:
    """Closed-form moments of the saturating family on the GHZ state:
    ``mean = Re[e^{-i N phi} (a1 + i a2)^N]``, ``second = (a1^2 + a2^2)^N``."""
    coeffs.require_optimal_family()
    w = (coeffs.a1 + 1j * coeffs.a2) ** n_qubits
    mean = float((np.exp(-1j * n_qubits * phi) * w).real)
    second = float((coeffs.a1 ** 2 + coeffs.a2 ** 2) ** n_qubits)
    return mean, second


@dataclass(frozen=True)
class SingularPhiSet:
    """Arithmetic progression ``{offset + k * spacing, k integer}`` of phases
    where an observable's mean has zero slope."""

    offset: float
    spacing: float

    def nearest(self, phi: float) -> float:
        k = round((phi - self.offset) / self.spacing)
        return self.offset + k * self.spacing

    def distance(self, phi: float) -> float:
        return abs(phi - self.nearest(phi))

    def contains(self, phi: float, *, tol: float = 1e-9) -> bool:
        return self.distance(phi) <= tol

    def points_in(self, lo: float, hi: float) -> np.ndarray:
        k_lo = math.ceil((lo - self.offset) / self.spacing - 1e-12)
        k_hi = math.floor((hi - self.offset) / self.spacing + 1e-12)
        return self.offset + self.spacing * np.arange(k_lo, k_hi + 1)


def singular_points(n_qubits: int, coeffs: SeparableObservableCoeffs) -> SingularPhiSet:
    """Phases where the mean of ``(a1 sx + a2 sy)^{tensor N}`` on the GHZ
    state is stationary and the error-propagation estimate breaks down.

    The mean is ``r^N cos(N(theta - phi))`` with ``theta = atan2(a2, a1)``,
    so the singular set is ``{theta + k pi / N}``.
    """
    coeffs.require_optimal_family()
    return SingularPhiSet(offset=math.atan2(coeffs.a2, coeffs.a1),
                          spacing=math.pi / n_qubits)


def rotation_about_y(n_qubits: int, angle: float = math.pi / 2.0) -> np.ndarray:
    """Collective rotation ``exp(-i * angle * J_y)`` as a product of exact
    single-qubit rotations."""
    half = angle / 2.0
    single = np.array([[math.cos(half), -math.sin(half)],
                       [math.sin(half), math.cos(half)]], dtype=complex)
    return tensor_power(single, n_qubits)


def ramsey_rotate(obs: HermitianObservable, n_qubits: int) -> HermitianObservable:
    """Conjugate an observable by the Ramsey pi/2 pulse about y.

    With the convention ``R = exp(-i (pi/2) J_y)`` the map on product forms
    is ``(a0, a1, a2, a3) -> (a0, -a3, a2, a1)`` per site, so the saturating
    family ``(a1 sx + a2 sy)^{tensor N}`` becomes ``(a1 sz + a2 sy)^{tensor
    N}``, the generalized parity readout. A product form is rotated by that
    map alone; any other observable is conjugated densely by
    :func:`rotation_about_y`.
    """
    if obs.dim != 2 ** n_qubits:
        raise DimensionMismatchError(
            f"observable dimension {obs.dim} != 2^{n_qubits}")
    if obs.product_form is not None:
        return HermitianObservable(product_form=[(a0, -a3, a2, a1)
                                                 for a0, a1, a2, a3 in obs.product_form])
    r = rotation_about_y(n_qubits)
    rotated = r.conj().T @ obs.matrix @ r
    return HermitianObservable((rotated + rotated.conj().T) / 2.0, check=False)


def parity_observable(n_qubits: int) -> HermitianObservable:
    """Parity readout ``sz^{tensor N}``: diagonal +-1 by excitation number."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    return product_observable([(0.0, 0.0, 0.0, 1.0)] * n_qubits)


def parity_from_collective_spin(n_qubits: int) -> HermitianObservable:
    """Independent parity construction ``(-1)^(j - J_z)`` with ``j = N/2``.

    ``J_z`` is diagonal with half-integer entries, so ``j - J_z`` is a
    nonnegative integer per basis state and the sign is exact.
    """
    jz_diag = collective_spin("z", n_qubits).diagonal
    exponents = np.rint(n_qubits / 2.0 - jz_diag).astype(int)
    return HermitianObservable(diagonal=np.where(exponents % 2 == 0, 1.0, -1.0))


@dataclass(frozen=True)
class LambdaSolution:
    """Coefficients of the diagonal-projector SLD ansatz
    ``K = sum_s lambda_s |s><s|`` over a two-qubit product basis.

    ``singular`` marks the phases (multiples of pi/2) where no finite
    solution exists; the lambda values are ``None`` there.
    """

    lambda_pp: float | None
    lambda_pm: float | None
    lambda_mp: float | None
    lambda_mm: float | None
    basis: str
    singular: bool
    phi: float

    def values(self) -> tuple[float | None, float | None, float | None, float | None]:
        return (self.lambda_pp, self.lambda_pm, self.lambda_mp, self.lambda_mm)

    def to_operator(self) -> HermitianObservable:
        """Assemble ``K`` from the solved coefficients."""
        if self.singular:
            raise ValueError("no operator exists at a singular phase")
        axis = "x" if self.basis == X_BASIS else "y"
        entries = product_basis_vectors(axis, 2)
        matrix = np.zeros((4, 4), dtype=complex)
        for lam, (_, vec) in zip(self.values(), entries):
            matrix += lam * np.outer(vec, vec.conj())
        return HermitianObservable(matrix, check=False)


def _lambda_closed_form(phi: float, basis: str) -> tuple[float, float, float, float]:
    tan = math.tan(phi)
    cot = math.cos(phi) / math.sin(phi)
    if basis == X_BASIS:
        return (-2.0 * tan, 2.0 * cot, 2.0 * cot, -2.0 * tan)
    # in the y product basis the same solution set appears with the
    # diagonal and off-diagonal outcome pairs interchanged
    return (2.0 * cot, -2.0 * tan, -2.0 * tan, 2.0 * cot)


def two_qubit_lambda_solution(phi: float, basis: str = X_BASIS) -> LambdaSolution:
    """Solve ``K |psi_phi> = L |psi_phi>`` for the diagonal ansatz over the
    two-qubit ``x`` or ``y`` product basis.

    The linear system is solved numerically (real least squares in the
    computational basis) and cross-checked against the closed form
    ``-2 tan(phi)`` / ``2 cot(phi)``. Phases within ``1e-10`` of a multiple
    of pi/2 are flagged singular: there the projective measurement cannot
    reproduce the SLD and the coefficients diverge.
    """
    if basis not in (X_BASIS, Y_BASIS):
        raise ValueError(f"basis must be {X_BASIS!r} or {Y_BASIS!r}, got {basis!r}")
    half_pi = math.pi / 2.0
    if abs(phi - round(phi / half_pi) * half_pi) <= SINGULAR_WINDOW:
        return LambdaSolution(None, None, None, None, basis=basis,
                              singular=True, phi=phi)
    axis = "x" if basis == X_BASIS else "y"
    entries = product_basis_vectors(axis, 2)
    psi = ghz_state(2, phi).amplitudes
    rhs = ghz_sld_closed_form(2, phi).matrix @ psi
    columns = np.stack([vec * np.vdot(vec, psi) for _, vec in entries], axis=1)
    system = np.vstack([columns.real, columns.imag])
    target = np.concatenate([rhs.real, rhs.imag])
    lam, *_ = np.linalg.lstsq(system, target, rcond=None)
    expected = np.array(_lambda_closed_form(phi, basis))
    if not np.allclose(lam, expected, rtol=1e-7, atol=1e-9):
        raise ArithmeticError(
            f"numeric solution {lam!r} disagrees with closed form {expected!r} "
            f"at phi={phi!r}")
    return LambdaSolution(float(lam[0]), float(lam[1]), float(lam[2]),
                          float(lam[3]), basis=basis, singular=False, phi=phi)
