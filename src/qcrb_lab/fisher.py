"""Parametric state families, SLD operators, and Fisher information.

A :class:`ParametricModel` maps a real phase (radians) to a density matrix,
either through a fixed Hermitian generator (``rho_phi = e^{-iG phi} rho_in
e^{iG phi}``) or through an arbitrary user-supplied function differentiated
by central finite differences.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Callable, Literal

import numpy as np

from .core import (
    ALGORITHMIC_ATOL,
    SUPPORT_CUTOFF_REL,
    DensityMatrix,
    HermitianObservable,
    Povm,
    PureState,
    psd_spectrum,
)
from .errors import (
    DimensionMismatchError,
    EvaluationFailureError,
    SingularOutcomeError,
    SldUnsolvableError,
    VariantInapplicableError,
)

__all__ = [
    "ParametricModel",
    "unitary_model",
    "blackbox_model",
    "SldResult",
    "OutcomeDistribution",
    "state_derivative",
    "second_state_derivative",
    "sld",
    "qfi",
    "qfi_from_generator_variance",
    "outcome_distribution",
    "cfi",
    "SUPPORT_CUTOFF_REL",
]

_EPS = float(np.finfo(float).eps)
_PROB_FLOOR, _DERIVATIVE_FLOOR, _CURVATURE_FLOOR = 1e-12, 1e-9, 1e-6


def _dagger(stack: np.ndarray) -> np.ndarray:
    return stack.conj().transpose(0, 2, 1)


@dataclass(frozen=True, eq=False)
class ParametricModel:
    """One-parameter family of density matrices ``phi -> rho_phi``.

    ``unitary_generator`` kind evolves ``initial_state`` with
    ``exp(-i * generator * phi)``; ``blackbox`` kind delegates to
    ``state_fn`` and differentiates numerically.
    """

    kind: Literal["unitary_generator", "blackbox"]
    initial_state: DensityMatrix | PureState | None = None
    generator: HermitianObservable | None = None
    state_fn: Callable[[float], DensityMatrix] | None = None
    blackbox_dim: InitVar[int | None] = None

    def __post_init__(self, blackbox_dim: int | None) -> None:
        if self.kind == "unitary_generator":
            if self.initial_state is None or self.generator is None:
                raise ValueError(
                    "unitary_generator models need initial_state and generator")
            if self.initial_state.dim != self.generator.dim:
                raise DimensionMismatchError(
                    f"state dimension {self.initial_state.dim} != "
                    f"generator dimension {self.generator.dim}")
            object.__setattr__(self, "_dim", self.initial_state.dim)
        elif self.kind == "blackbox":
            if self.state_fn is None:
                raise ValueError("blackbox models need state_fn")
            if blackbox_dim is None or blackbox_dim < 1:
                raise ValueError("blackbox models need a positive dimension")
            object.__setattr__(self, "_dim", int(blackbox_dim))
        else:
            raise ValueError(f"unknown model kind {self.kind!r}")

    @property
    def dim(self) -> int:
        return self._dim  # type: ignore[attr-defined]

    @cached_property
    def _generator_basis(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(self.generator.matrix)

    @cached_property
    def _initial_coefficients(self) -> np.ndarray:
        """``V^dagger psi_0``: the pure initial state in the generator's
        eigenbasis, as a ``(d, 1)`` column."""
        return self._generator_basis[1].conj().T @ self.initial_state.amplitudes[:, None]

    @cached_property
    def _centred_generator(self) -> np.ndarray:
        """``G - (tr G / d) I``, which has the commutators of G with
        rounding that does not grow with a multiple of the identity in G."""
        g = self.generator.matrix
        return g - (np.trace(g).real / self.dim) * np.eye(self.dim)

    def _states(self, phis: np.ndarray, *, vectors: bool = False) -> np.ndarray:
        """``rho_phi`` of a generator model for each phase, shape ``(B, d, d)``;
        with ``vectors``, the amplitudes ``(B, d)`` of a pure initial state.

        A diagonal generator ``g`` multiplies by ``e_j = exp(-i g_j phi)``:
        ``e * psi_0``, or ``e_j rho_jk e_k^*``. Otherwise, with ``G = V
        diag(lambda) V^dagger``, a state vector is ``V (e * V^dagger psi_0)``,
        O(d^2) per phase, and a density matrix is ``U rho U^dagger`` with the
        propagator ``U = V diag(e) V^dagger``."""
        pure = isinstance(self.initial_state, PureState)
        g = self.generator.diagonal
        if g is not None:
            phases = np.exp(-1j * g * phis[:, None])
            if pure:
                amps = phases * self.initial_state.amplitudes
            else:
                rho = (phases[:, :, None] * self.initial_state.matrix
                       * phases.conj()[:, None, :])
        else:
            eigenvalues, eigenvectors = self._generator_basis
            phases = np.exp(-1j * eigenvalues * phis[:, None])
            if pure:
                amps = (eigenvectors @ (phases[:, :, None] * self._initial_coefficients))[:, :, 0]
            else:
                u = (eigenvectors * phases[:, None, :]) @ eigenvectors.conj().T
                rho = u @ self.initial_state.matrix @ _dagger(u)
        if pure:
            return amps if vectors else amps[:, :, None] * amps.conj()[:, None, :]
        return (rho + _dagger(rho)) / 2.0

    def pure_amplitudes(self, phi: float) -> np.ndarray | None:
        """Evolved state vector, or ``None`` if the model is not a pure
        unitary family."""
        if self.kind != "unitary_generator" or not isinstance(self.initial_state,
                                                              PureState):
            return None
        return self._states(np.array([phi], dtype=float), vectors=True)[0]

    def density(self, phi: float) -> DensityMatrix:
        """Evaluate ``rho_phi``; a blackbox state must be Hermitian within 1e-8."""
        if self.kind == "unitary_generator":
            return DensityMatrix(self._states(np.array([phi], dtype=float))[0],
                                 check=False)
        try:
            out = self.state_fn(float(phi))
        except Exception as exc:  # noqa: BLE001 - user callables may fail arbitrarily
            raise EvaluationFailureError(
                f"state_fn failed at phi={phi!r}: {exc}") from exc
        state = out if isinstance(out, DensityMatrix) else DensityMatrix(out)
        if state.dim != self.dim:
            raise EvaluationFailureError(
                f"state_fn returned dimension {state.dim}, expected {self.dim}")
        defect = float(np.linalg.norm(state.matrix - state.matrix.conj().T))
        if defect > ALGORITHMIC_ATOL:
            raise EvaluationFailureError(
                f"state_fn returned a non-Hermitian matrix at phi={phi!r}: {defect:.3e}")
        return state


def unitary_model(initial_state: DensityMatrix | PureState,
                  generator: HermitianObservable) -> ParametricModel:
    """Family ``rho_phi = e^{-iG phi} rho_in e^{iG phi}``."""
    return ParametricModel(kind="unitary_generator", initial_state=initial_state,
                           generator=generator)


def blackbox_model(state_fn: Callable[[float], DensityMatrix],
                   dim: int) -> ParametricModel:
    """Family given by an arbitrary callable, differentiated numerically."""
    return ParametricModel(kind="blackbox", state_fn=state_fn, blackbox_dim=dim)


def _apply_generator(generator: HermitianObservable, x: np.ndarray) -> np.ndarray:
    """``G x`` for a ``d x k`` array ``x``: a row scaling when G is diagonal."""
    g = generator.diagonal
    return generator.matrix @ x if g is None else g[:, None] * x


def _diagonal_gaps(generator: HermitianObservable) -> np.ndarray | None:
    """``g_j - g_k`` of a diagonal generator ``g``, or ``None``."""
    g = generator.diagonal
    return None if g is None else g[:, None] - g[None, :]


def _fd_step(phi: float, order: int) -> float:
    # standard optimal steps for 2nd-order central differences
    base = _EPS ** (1.0 / 3.0) if order == 1 else _EPS ** 0.25
    return base * max(1.0, abs(phi))


def _state_derivatives(model: ParametricModel, phi: float | None,
                       rho: np.ndarray | None = None) -> np.ndarray:
    """``d rho_phi / d phi`` for stacked states ``rho`` ``(B, d, d)``, each
    checked Hermitian: ``-i[G, rho]`` for generator models (``rho`` is built
    at ``phi`` when not given), entrywise ``-i (g_j - g_k) rho_jk`` for a
    diagonal ``g`` and with the centred generator otherwise; a central
    difference at the single phase ``phi`` for blackbox models."""
    if model.kind == "unitary_generator":
        if rho is None:
            rho = model.density(phi).matrix[None]
        gaps = _diagonal_gaps(model.generator)
        if gaps is not None:
            deriv = -1j * gaps * rho
        else:
            g = model._centred_generator
            deriv = -1j * (g @ rho - rho @ g)
    else:
        h = _fd_step(phi, order=1)
        deriv = ((model.density(phi + h).matrix
                  - model.density(phi - h).matrix) / (2.0 * h))[None]
    defect = np.linalg.norm(deriv - _dagger(deriv), axis=(1, 2))
    bad = defect > 1e-9 * np.maximum(1.0, np.linalg.norm(deriv, axis=(1, 2)))
    if bad.any():
        raise EvaluationFailureError(
            f"state derivative is not Hermitian: defect {defect[bad][0]:.3e}")
    return (deriv + _dagger(deriv)) / 2.0


def _second_state_derivatives(model: ParametricModel, phi: float | None,
                              rho: np.ndarray) -> np.ndarray:
    """``d^2 rho_phi / d phi^2`` (Hermitian part) for stacked states ``rho``
    ``(B, d, d)`` of a generator model, or for ``rho = rho_phi`` stacked as
    ``(1, d, d)`` at the single phase ``phi`` of a blackbox model."""
    if model.kind == "unitary_generator":
        gaps = _diagonal_gaps(model.generator)
        if gaps is not None:
            deriv2 = -(gaps * gaps) * rho
        else:
            g = model._centred_generator
            deriv2 = -(g @ g @ rho - 2.0 * (g @ rho @ g) + rho @ g @ g)
    else:
        h = _fd_step(phi, order=2)
        deriv2 = (model.density(phi + h).matrix - 2.0 * rho
                  + model.density(phi - h).matrix) / (h * h)
    return (deriv2 + _dagger(deriv2)) / 2.0


def state_derivative(model: ParametricModel, phi: float) -> np.ndarray:
    """Derivative ``d rho_phi / d phi`` as a Hermitian matrix.

    Exact commutator ``-i[G, rho]`` for generator models, central finite
    difference for blackbox models.
    """
    return _state_derivatives(model, phi)[0]


def second_state_derivative(model: ParametricModel, phi: float) -> np.ndarray:
    """Second derivative ``d^2 rho_phi / d phi^2`` (Hermitian)."""
    return _second_state_derivatives(model, phi, model.density(phi).matrix[None])[0]


@dataclass(frozen=True, eq=False)
class SldResult:
    """SLD of ``model`` at ``phi`` with its quantum Fisher information.

    ``carrier`` is a ``d x r`` factor ``C`` of ``rho = C C^dagger`` and
    ``l_carrier = L C``, so that ``QFI = ||L C||^2``. ``kernel_dim`` counts
    eigenvalues of ``rho`` at or below the support cutoff, where the
    zero-block gauge was applied. A pure unitary family carries ``C = psi``
    with ``dcarrier = -iG psi``; nothing dense is solved for it, and
    ``rho = psi psi^dagger``, ``drho`` and ``L = 2 drho`` are built on first
    read. Any other family carries ``C = V sqrt(p)`` over the support of
    ``rho``'s eigendecomposition, and :func:`sld` stores the ``rho``,
    ``drho`` and ``L`` of its solve as their values. On either route
    ``residual``, the Frobenius norm of ``drho - (rho L + L rho) / 2``, is
    computed on first read.
    """

    model: ParametricModel
    phi: float
    qfi: float
    kernel_dim: int
    carrier: np.ndarray
    l_carrier: np.ndarray
    dcarrier: np.ndarray | None = None

    @cached_property
    def rho(self) -> np.ndarray:
        # the elementwise outer product of _states, bit for bit
        return self.carrier * self.carrier.conj().T

    @cached_property
    def drho(self) -> np.ndarray:
        return _state_derivatives(self.model, self.phi, self.rho[None])[0]

    @cached_property
    def L(self) -> HermitianObservable:
        return HermitianObservable(2.0 * self.drho, check=False)

    @cached_property
    def residual(self) -> float:
        l_matrix = self.L.matrix
        return float(np.linalg.norm(
            self.drho - (self.rho @ l_matrix + l_matrix @ self.rho) / 2.0))

    def slope(self, o: np.ndarray, o_carrier: np.ndarray) -> float:
        """``d<O>/dphi`` from ``o_carrier = O C``: ``2 Re<dC|O C>`` with a
        state vector, else ``Re Tr(drho O)``; independent of ``l_carrier``,
        so it checks ``Re<O C|L C>``."""
        if self.dcarrier is not None:
            return 2.0 * float(np.vdot(self.dcarrier, o_carrier).real)
        return float(np.vdot(o, self.drho).real)


def sld(model: ParametricModel, phi: float) -> SldResult:
    """Solve ``drho = (rho L + L rho) / 2`` for the Hermitian operator L.

    A pure unitary family needs no solve: with ``dpsi = -iG psi``, ``L = 2
    drho`` acts as ``L psi = 2(dpsi + <dpsi|psi> psi)``, and ``QFI = <psi|L^2
    |psi> = ||L psi||^2``, which equals ``4(<dpsi|dpsi> - |<psi|dpsi>|^2)``
    without its cancellation when ``<G>^2`` dwarfs ``Var(G)``. Otherwise
    ``sld`` works in the eigenbasis of ``rho``: ``L_jk = 2 drho_jk / (p_j +
    p_k)``. On the kernel-kernel block (``p_j + p_k`` below the cutoff) L is
    gauged to zero, the minimal-norm choice among the valid solutions.
    """
    psi = model.pure_amplitudes(phi)
    if psi is not None:
        carrier = psi[:, None]
        dpsi = -1j * _apply_generator(model.generator, carrier)
        l_psi = 2.0 * (dpsi + np.vdot(dpsi, psi) * carrier)
        return SldResult(model=model, phi=phi, qfi=float(np.vdot(l_psi, l_psi).real),
                         kernel_dim=model.dim - 1, carrier=carrier,
                         l_carrier=l_psi, dcarrier=dpsi)
    rho = model.density(phi).matrix
    drho = _state_derivatives(model, phi, rho[None])[0]
    spectrum = psd_spectrum(rho)
    eigenvalues, eigenvectors, cutoff = spectrum
    drho_eig = eigenvectors.conj().T @ drho @ eigenvectors
    kernel = spectrum.kernel
    if kernel.any():
        block_norm = float(np.linalg.norm(drho_eig[np.ix_(kernel, kernel)]))
        if block_norm > 1e-8 * max(1.0, float(np.linalg.norm(drho))):
            raise SldUnsolvableError(
                "state derivative has weight on the kernel of rho "
                f"(block norm {block_norm:.3e}); the SLD equation has no solution")
    denom = eigenvalues[:, None] + eigenvalues[None, :]
    solvable = denom > cutoff
    l_eig = np.where(solvable, 2.0 * drho_eig / np.where(solvable, denom, 1.0), 0.0)
    l_matrix = eigenvectors @ l_eig @ eigenvectors.conj().T
    l_matrix = (l_matrix + l_matrix.conj().T) / 2.0
    carrier = spectrum.carrier()
    l_carrier = l_matrix @ carrier
    result = SldResult(model=model, phi=phi,
                       qfi=float(np.vdot(l_carrier, l_carrier).real),
                       kernel_dim=int(np.count_nonzero(kernel)),
                       carrier=carrier, l_carrier=l_carrier)
    # the values of the cached properties, which read the instance dict first
    result.__dict__.update(rho=rho, drho=drho,
                           L=HermitianObservable(l_matrix, check=False))
    return result


def qfi(model: ParametricModel, phi: float) -> float:
    """Quantum Fisher information ``Tr(rho L^2)``."""
    return sld(model, phi).qfi


def qfi_from_generator_variance(model: ParametricModel, phi: float = 0.0) -> float:
    """Independent QFI route for pure unitary families: ``4 Var(G)``.

    Raises :class:`VariantInapplicableError` for mixed states or blackbox
    models, where this closed form does not hold.
    """
    if model.kind != "unitary_generator":
        raise VariantInapplicableError(
            "generator-variance QFI needs a unitary_generator model")
    amps = model.pure_amplitudes(phi)
    if amps is None:
        raise VariantInapplicableError(
            "generator-variance QFI needs a pure initial state")
    amps = amps[:, None]
    g_amps = _apply_generator(model.generator, amps)
    mean = float(np.vdot(amps, g_amps).real)
    second = float(np.vdot(g_amps, g_amps).real)
    return 4.0 * max(second - mean * mean, 0.0)


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Outcome probabilities of a POVM measurement and their phase
    derivatives.

    ``second_derivatives`` is optional extra information used to detect
    outcomes whose probability vanishes to first but not second order (the
    0/0 points where the classical Fisher information exists only as a
    limit).
    """

    labels: tuple
    probabilities: np.ndarray
    derivatives: np.ndarray
    second_derivatives: np.ndarray | None = None

    def __post_init__(self) -> None:
        probs = np.asarray(self.probabilities, dtype=float)
        derivs = np.asarray(self.derivatives, dtype=float)
        labels = tuple(self.labels)
        if not (len(labels) == probs.shape[0] == derivs.shape[0]):
            raise ValueError("labels, probabilities, derivatives must align")
        _check_totals(probs[None], derivs[None])
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "derivatives", derivs)
        if self.second_derivatives is not None:
            object.__setattr__(self, "second_derivatives",
                               np.asarray(self.second_derivatives, dtype=float))


def _check_totals(probs: np.ndarray, derivs: np.ndarray) -> None:
    """Require each row of ``probs`` to sum to 1 and of ``derivs`` to 0."""
    totals = probs.sum(axis=1)
    bad = np.abs(totals - 1.0) > 1e-10
    if bad.any():
        raise ValueError(f"probabilities sum to {float(totals[bad][0])!r}, expected 1")
    deriv_totals = derivs.sum(axis=1)
    bad = np.abs(deriv_totals) > 1e-8
    if bad.any():
        raise ValueError(f"probability derivatives sum to "
                         f"{float(deriv_totals[bad][0])!r}, expected 0")


def _traces(stack: np.ndarray, povm: Povm) -> np.ndarray:
    """``Re Tr(A_b M_x)``, shape ``(B, K)``: with ``M_x = F_x F_x^dagger`` it
    is ``Re sum conj(F_x) * (A_b F_x)``, summed over the rows of the POVM
    factor and then over each outcome's block of columns; one ``d x d @ d x
    R`` product per stacked matrix."""
    f = povm.factor
    af = stack @ f
    columns = (f.real * af.real + f.imag * af.imag).sum(axis=1)
    return np.add.reduceat(columns, povm.block_bounds[:-1], axis=1)


def _probabilities(rho: np.ndarray, drho: np.ndarray, povm: Povm):
    """Clipped ``Tr(rho M_x)`` and ``Tr(drho M_x)`` of stacked states."""
    if povm.dim != rho.shape[-1]:
        raise DimensionMismatchError(
            f"POVM dimension {povm.dim} != model dimension {rho.shape[-1]}")
    return np.clip(_traces(rho, povm), 0.0, 1.0), _traces(drho, povm)


def outcome_distribution(model: ParametricModel, phi: float, povm: Povm, *,
                         second_order: bool = True) -> OutcomeDistribution:
    """Outcome distribution ``p(x) = Tr(rho_phi M_x)`` with derivatives."""
    rho = model.density(phi).matrix[None]
    return _outcome_distribution(model, phi, povm, rho,
                                 _state_derivatives(model, phi, rho), second_order)


def _outcome_distribution(model: ParametricModel, phi: float, povm: Povm,
                          rho: np.ndarray, drho: np.ndarray,
                          second_order: bool = True) -> OutcomeDistribution:
    """:func:`outcome_distribution` from ``rho_phi`` and its derivative,
    each stacked as ``(1, d, d)``."""
    probs, derivs = _probabilities(rho, drho, povm)
    second = None
    if second_order:
        second = _traces(_second_state_derivatives(model, phi, rho), povm)[0]
    return OutcomeDistribution(labels=povm.labels, probabilities=probs[0],
                               derivatives=derivs[0], second_derivatives=second)


# complex entries per stacked array in one chunk of _outcome_arrays
_BATCH_ENTRIES = 1 << 18


def _outcome_probabilities(model: ParametricModel, phis, povm: Povm) -> np.ndarray:
    """Outcome probabilities for a batch of phases, shape ``(len(phis), len(povm))``.

    Row ``b`` equals ``outcome_distribution(model, phis[b], povm,
    second_order=False).probabilities`` bit for bit.
    """
    return _outcome_arrays(model, phis, povm, second_order=False)[0]


def _outcome_arrays(model: ParametricModel, phis, povm: Povm, *,
                    second_order: bool) -> np.ndarray:
    """Probabilities, their derivatives and, with ``second_order``, their
    second derivatives for a batch of phases, stacked as ``(2 or 3,
    len(phis), len(povm))``; row ``b`` of each equals the field of
    ``outcome_distribution(model, phis[b], povm, second_order=second_order)``
    bit for bit.

    Generator models run through the same stacked builders and checks, in
    chunks of at most ``_BATCH_ENTRIES / (d * max(d, R))`` phases for a
    ``d x R`` POVM factor, so that memory does not grow with the batch;
    blackbox models fall back to one ``outcome_distribution`` per phase.
    """
    phis = np.asarray(phis, dtype=float).reshape(-1)
    out = np.empty((3 if second_order else 2, phis.size, len(povm)))
    if model.kind != "unitary_generator":
        for b, phi in enumerate(phis.tolist()):
            dist = outcome_distribution(model, phi, povm, second_order=second_order)
            out[0, b], out[1, b] = dist.probabilities, dist.derivatives
            if second_order:
                out[2, b] = dist.second_derivatives
        return out
    chunk = max(1, _BATCH_ENTRIES // (model.dim * max(model.dim, povm.factor.shape[1])))
    for start in range(0, phis.size, chunk):
        rows = slice(start, start + chunk)
        rho = model._states(phis[rows])
        out[0, rows], out[1, rows] = _probabilities(
            rho, _state_derivatives(model, None, rho), povm)
        _check_totals(out[0, rows], out[1, rows])
        if second_order:
            out[2, rows] = _traces(_second_state_derivatives(model, None, rho), povm)
    return out


def cfi(dist: OutcomeDistribution) -> float:
    """Classical Fisher information ``sum_x (dp)^2 / p`` of a distribution.

    Outcomes with ``p <= 1e-12`` are skipped only when both their first
    derivative (``|dp| <= 1e-9``) and, when available, second derivative
    (``|d2p| <= 1e-6``) vanish, i.e. when the outcome never fires near this phase. A vanishing probability with a
    nonzero derivative means a divergent or limit-only Fisher information
    and raises :class:`SingularOutcomeError` instead of being dropped.
    """
    second = dist.second_derivatives
    total = 0.0
    for idx, label in enumerate(dist.labels):
        p = float(dist.probabilities[idx])
        dp = float(dist.derivatives[idx])
        if p > _PROB_FLOOR:
            total += dp * dp / p
            continue
        if abs(dp) > _DERIVATIVE_FLOOR:
            raise SingularOutcomeError(
                f"outcome {label!r} has p <= {_PROB_FLOOR:.1e} but dp = {dp:.3e}: "
                "classical Fisher information diverges at this phase")
        if second is not None and abs(float(second[idx])) > _CURVATURE_FLOOR:
            raise SingularOutcomeError(
                f"outcome {label!r} has p and dp ~ 0 but d2p = "
                f"{float(second[idx]):.3e}: classical Fisher information is "
                "defined only as a limit at this phase")
    return total
