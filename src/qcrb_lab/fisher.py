"""Parametric state families, SLD operators, and Fisher information.

A :class:`ParametricModel` maps a real phase (radians) to a density matrix,
either through a fixed Hermitian generator (``rho_phi = e^{-iG phi} rho_in
e^{iG phi}``) or through an arbitrary user-supplied function differentiated
by central finite differences. A generator model evolves and differentiates
its state in the eigenframe of the centred generator ``G - (tr G / d) I =
V diag(g) V^dagger``, where every phase derivative is an entrywise product;
``V`` is never formed for a diagonal G. ``_rho_derivatives`` builds rho and
its first two phase derivatives for every model kind, and
``_outcome_arrays`` alone takes their POVM traces.
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
    def _frame(self) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
        """``(g, V, x0)`` with ``G - (tr G / d) I = V diag(g) V^dagger``, ``V``
        ``None`` when G is diagonal, and the initial state in that basis:
        ``x0 = V^dagger psi_0`` or ``V^dagger rho_0 V``. Centring keeps the
        rounding of the phases and of every derivative from growing with a
        multiple of the identity in G."""
        state = self.initial_state
        x0 = state.amplitudes if isinstance(state, PureState) else state.matrix
        g = self.generator.diagonal
        if g is not None:
            return g - np.mean(g), None, x0
        matrix = self.generator.matrix
        centred = matrix - (np.trace(matrix).real / self.dim) * np.eye(self.dim)
        g, basis = np.linalg.eigh(centred)
        x0 = basis.conj().T @ x0
        return g, basis, (x0 if x0.ndim == 1 else x0 @ basis)

    def _generator_times(self, x: np.ndarray) -> np.ndarray:
        """``(G - tr G / d) x`` for a ``d x k`` array: ``V (g * V^dagger x)``."""
        g, basis, _ = self._frame
        if basis is None:
            return g[:, None] * x
        return basis @ (g[:, None] * (basis.conj().T @ x))

    def _rho_derivatives(self, phis: np.ndarray, order: int = 0,
                         rho: np.ndarray | None = None) -> np.ndarray:
        """The ``order``-th phase derivative of rho (order 0, 1 or 2) at each
        phase, shape ``(B, d, d)``; order 1 is checked Hermitian and orders 1
        and 2 are symmetrised.

        A generator model works in its frame: ``rho'_jl = e_j x0_jl e_l^*``
        (symmetrised), or ``psi'_j psi'_l^*`` with ``psi' = e * x0``, and the
        k-th derivative is ``(-i (g_j - g_l))^k rho'_jl``, rotated back by V
        when G is not diagonal. A state vector's rho is the outer product of
        its amplitudes, O(d^2) per phase. A blackbox model takes central
        differences of ``density``. ``rho``, the order-0 stack when the caller
        has it, is reused where it is the state the derivative needs: as
        ``rho'`` of a diagonal G, and as the middle point of a blackbox
        model's second difference.
        """
        if self.kind != "unitary_generator":
            def states(at: np.ndarray) -> np.ndarray:
                return np.stack([self.density(p).matrix for p in at.tolist()])

            if order == 0:
                return states(phis)
            step = ((_EPS ** (1.0 / 3.0) if order == 1 else _EPS ** 0.25)
                    * np.maximum(1.0, np.abs(phis)))
            h = step[:, None, None]
            upper, lower = states(phis + step), states(phis - step)
            if order == 1:
                deriv = (upper - lower) / (2.0 * h)
            else:
                deriv = (upper - 2.0 * (states(phis) if rho is None else rho)
                         + lower) / (h * h)
        else:
            g, basis, x0 = self._frame
            if rho is not None and basis is None:
                deriv = rho
            elif x0.ndim == 1:
                amps = np.exp(-1j * g * phis[:, None]) * x0
                if order == 0 and basis is not None:
                    amps = amps @ basis.T
                deriv = amps[:, :, None] * amps.conj()[:, None, :]
                if order == 0:
                    return deriv
            else:
                phases = np.exp(-1j * g * phis[:, None])
                deriv = phases[:, :, None] * x0 * phases.conj()[:, None, :]
                deriv = (deriv + _dagger(deriv)) / 2.0
                if order == 0 and basis is None:
                    return deriv
            if order:
                gaps = g[:, None] - g[None, :]
                deriv = (-1j * gaps if order == 1 else -(gaps * gaps)) * deriv
            if basis is not None:
                deriv = basis @ deriv @ basis.conj().T
        if order == 1:
            defect = np.linalg.norm(deriv - _dagger(deriv), axis=(1, 2))
            bad = defect > 1e-9 * np.maximum(1.0, np.linalg.norm(deriv, axis=(1, 2)))
            if bad.any():
                raise EvaluationFailureError(
                    f"state derivative is not Hermitian: defect {defect[bad][0]:.3e}")
        return (deriv + _dagger(deriv)) / 2.0

    def pure_amplitudes(self, phi: float) -> np.ndarray | None:
        """Evolved state vector ``e^{-i(G - tr G / d) phi} psi_0``, or ``None``
        if the model is not a pure unitary family. It differs from
        ``e^{-iG phi} psi_0`` by a global phase, which no quantity reads."""
        if self.kind != "unitary_generator" or not isinstance(self.initial_state,
                                                              PureState):
            return None
        g, basis, x0 = self._frame
        amps = np.exp(-1j * g * phi) * x0
        return amps if basis is None else amps @ basis.T

    def density(self, phi: float) -> DensityMatrix:
        """Evaluate ``rho_phi``; a blackbox state must be Hermitian within 1e-8."""
        if self.kind == "unitary_generator":
            return DensityMatrix(self._rho_derivatives(np.array([phi], dtype=float))[0],
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


def state_derivative(model: ParametricModel, phi: float) -> np.ndarray:
    """Derivative ``d rho_phi / d phi`` as a Hermitian matrix.

    Exact for generator models, ``-i (g_j - g_l) rho_jl`` in the generator's
    eigenframe; a central finite difference for blackbox models.
    """
    return model._rho_derivatives(np.array([phi], dtype=float), 1)[0]


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
    ``d2rho``, the second phase derivative a POVM's curvature needs, and
    ``residual``, the Frobenius norm of ``drho - (rho L + L rho) / 2``, are
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
        # the elementwise outer product of ParametricModel.density, bit for bit
        return self.carrier * self.carrier.conj().T

    @cached_property
    def drho(self) -> np.ndarray:
        return self.model._rho_derivatives(np.array([self.phi], dtype=float), 1,
                                           self.rho[None])[0]

    @cached_property
    def d2rho(self) -> np.ndarray:
        return self.model._rho_derivatives(np.array([self.phi], dtype=float), 2,
                                           self.rho[None])[0]

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
        dpsi = -1j * model._generator_times(carrier)
        l_psi = 2.0 * (dpsi + np.vdot(dpsi, psi) * carrier)
        return SldResult(model=model, phi=phi, qfi=float(np.vdot(l_psi, l_psi).real),
                         kernel_dim=model.dim - 1, carrier=carrier,
                         l_carrier=l_psi, dcarrier=dpsi)
    rho = model.density(phi).matrix
    drho = model._rho_derivatives(np.array([phi], dtype=float), 1, rho[None])[0]
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
    g_amps = model._generator_times(amps)
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


def outcome_distribution(model: ParametricModel, phi: float, povm: Povm, *,
                         second_order: bool = True) -> OutcomeDistribution:
    """Outcome distribution ``p(x) = Tr(rho_phi M_x)`` with derivatives."""
    arrays = _outcome_arrays(model, [phi], povm, second_order=second_order)
    return OutcomeDistribution(povm.labels, *arrays[:, 0])


# complex entries per stacked array in one chunk of _outcome_arrays
_BATCH_ENTRIES = 1 << 18


def _outcome_arrays(model: ParametricModel, phis, povm: Povm, *,
                    second_order: bool,
                    states: tuple[np.ndarray, ...] | None = None) -> np.ndarray:
    """Clipped probabilities, their derivatives and, with ``second_order``,
    their second derivatives for a batch of phases, stacked as ``(2 or 3,
    len(phis), len(povm))``; row ``b`` holds the fields of
    ``outcome_distribution(model, phis[b], povm, second_order=second_order)``.

    The phases run in chunks of at most ``_BATCH_ENTRIES / (d * max(d, R))``
    for a ``d x R`` POVM factor, so that memory does not grow with the
    batch; each chunk's rows must sum to 1 and 0. ``states``, the stacks
    ``(rho, drho, d2rho)`` at ``phis`` when the caller holds them (a scan
    row's SLD solve), stand in for :meth:`ParametricModel._rho_derivatives`.
    """
    phis = np.asarray(phis, dtype=float).reshape(-1)
    if povm.dim != model.dim:
        raise DimensionMismatchError(
            f"POVM dimension {povm.dim} != model dimension {model.dim}")
    out = np.empty((3 if second_order else 2, phis.size, len(povm)))
    chunk = max(1, _BATCH_ENTRIES // (model.dim * max(model.dim, povm.factor.shape[1])))
    for start in range(0, phis.size, chunk):
        rows = slice(start, start + chunk)
        rho = None
        for order in range(out.shape[0]):
            stack = (model._rho_derivatives(phis[rows], order, rho) if states is None
                     else states[order][rows])
            out[order, rows] = _traces(stack, povm)
            if order == 0:
                rho = stack
        np.clip(out[0, rows], 0.0, 1.0, out=out[0, rows])
        _check_totals(out[0, rows], out[1, rows])
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
