"""Parametric state families, SLD operators, and Fisher information.

A :class:`ParametricModel` maps a real phase (radians) to a density matrix,
either through a fixed Hermitian generator (``rho_phi = e^{-iG phi} rho_in
e^{iG phi}``) or through an arbitrary user-supplied function differentiated
by central finite differences. A generator model works in the eigenframe of
``G - (tr G / d) I = V diag(g) V^dagger`` (no ``V`` for a diagonal G). Its
SLD is covariant, ``L(phi) = U L_0 U^dagger``: it is solved once, at ``phi
= 0``, for a carrier ``C_0'`` with ``C_0' C_0'^dagger = rho_0'`` and ``L_0'
C_0'``. Every per-phase quantity of this module and of ``optimality`` is
read from that pair moved by ``e = exp(-i g phi)`` and ``V``; the
sample-mean estimator of ``simulate`` reads ``C_0'`` once per run, as the
coefficients of its mean curve. POVM outcome probabilities and their
first two derivatives are read from one setup (``_OutcomeRows``) per model
and POVM, made once per grid pass or maximum-likelihood run, which keeps
``F^dagger V`` only on the support rows of ``C_0'`` (two rows of ``2^N``
for GHZ), those of a product basis or of a product observable's
eigenprojectors formed site by site with no ``2^N x 2^N`` factor; ``cfi``,
``scan`` and ``simulate`` share it, and a grid's CFI (``_cfi_values``) is
read from its arrays. A blackbox model solves dense ``rho`` and ``d rho``
per phase, the dense reference.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Callable, Literal, NamedTuple

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
    MetrologyError,
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
        """``(g, V, x0)`` with ``G - (tr G / d) I = V diag(g) V^dagger`` (``V``
        ``None`` for a diagonal G; centring keeps an identity in G out of the
        rounding) and ``x0 = V^dagger psi_0`` or ``V^dagger rho_0 V``."""
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

    @cached_property
    def _solution(self) -> _Solution:
        """The SLD at ``phi = 0`` in the frame, solved on first use. A state
        vector needs no solve: ``C_0' = psi_0'`` and ``L_0' C_0' = 2(dC +
        <dC|C_0'> C_0')`` with ``dC = -i g * C_0'``; a density runs
        :func:`_solve_sld` on ``rho_0'`` and ``-i (g_j - g_l) rho_0'_jl``."""
        g, _, x0 = self._frame
        if x0.ndim == 1:
            carrier = x0[:, None]
            dcarrier = -1j * g[:, None] * carrier
            l_carrier = 2.0 * (dcarrier + np.vdot(dcarrier, carrier) * carrier)
            return _Solution(carrier, l_carrier, float(np.vdot(l_carrier, l_carrier).real),
                             self.dim - 1, None)
        rho = (x0 + x0.conj().T) / 2.0
        return _solve_sld(rho, -1j * (g[:, None] - g[None, :]) * rho)

    @cached_property
    def _support(self) -> np.ndarray | None:
        """The frame rows where the carrier ``C_0'`` is nonzero, or ``None``
        (every row) where they are more than a quarter of them: there the
        products would shrink less than 4 times, and their rounding would
        change (at d = 4, GHZ's two rows round otherwise than the matrix
        product over all four)."""
        support = np.flatnonzero(self._solution.carrier.any(axis=1))
        return support if 4 * support.size <= self.dim else None

    def _rho_derivatives(self, phis: np.ndarray, order: int = 0, *,
                         rho: np.ndarray | None = None) -> np.ndarray:
        """The dense rho (order 0) or its ``order``-th phase derivative at
        each phase, shape ``(B, d, d)``; order 1 is checked Hermitian, and
        every order but a blackbox rho is symmetrised. A generator model
        (order 0 or 1) works in its frame: ``rho'_jl = e_j rho_0'_jl e_l^*``
        and ``drho'_jl = -i (g_j - g_l) rho'_jl``, rotated back by V. A
        blackbox model (order 0, 1 or 2) takes central differences of
        ``density``; its second difference reuses ``rho``, the order-0
        stack at ``phis``, when given."""
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
                centre = states(phis) if rho is None else rho
                deriv = (upper - 2.0 * centre + lower) / (h * h)
        else:
            g, basis, x0 = self._frame
            rho = np.outer(x0, x0.conj()) if x0.ndim == 1 else x0
            phases = np.exp(-1j * g * phis[:, None])
            deriv = phases[:, :, None] * rho * phases.conj()[:, None, :]
            if order:
                deriv = -1j * (g[:, None] - g[None, :]) * deriv
            if basis is not None:
                deriv = basis @ deriv @ basis.conj().T
        adjoint = deriv.conj().transpose(0, 2, 1)
        if order == 1:
            defect = np.linalg.norm(deriv - adjoint, axis=(1, 2))
            bad = defect > 1e-9 * np.maximum(1.0, np.linalg.norm(deriv, axis=(1, 2)))
            if bad.any():
                raise EvaluationFailureError(
                    f"state derivative is not Hermitian: defect {defect[bad][0]:.3e}")
        return (deriv + adjoint) / 2.0

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
    """Derivative ``d rho_phi / d phi`` as a Hermitian matrix: exact for
    generator models, a central finite difference for blackbox models."""
    return model._rho_derivatives(np.array([phi], dtype=float), 1)[0]


class _Solution(NamedTuple):
    """An SLD solve: the carrier ``C`` with ``C C^dagger = rho``, ``L C``, the
    QFI ``||L C||^2``, ``kernel_dim`` and L (``None`` where it is not formed)."""

    carrier: np.ndarray
    l_carrier: np.ndarray
    qfi: float
    kernel_dim: int
    l_matrix: np.ndarray | None


def _solve_sld(rho: np.ndarray, drho: np.ndarray) -> _Solution:
    """Solve ``drho = (rho L + L rho) / 2`` in the eigenbasis of ``rho``:
    ``L_jk = 2 drho_jk / (p_j + p_k)``. On the kernel-kernel block (``p_j +
    p_k`` below the cutoff) L is gauged to zero, the minimal-norm choice
    among the valid solutions; the carrier is ``V sqrt(p)`` over the support."""
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
    return _Solution(carrier, l_carrier, float(np.vdot(l_carrier, l_carrier).real),
                     int(np.count_nonzero(kernel)), l_matrix)


@dataclass(frozen=True, eq=False)
class SldResult:
    """SLD of ``model`` at ``phi`` with its quantum Fisher information.

    ``carrier`` is a ``d x r`` factor ``C`` of ``rho = C C^dagger`` and
    ``l_carrier = L C``, so that ``QFI = ||L C||^2``. ``kernel_dim`` counts
    eigenvalues of ``rho`` at or below the support cutoff, where the
    zero-block gauge was applied. A generator model's pair is its ``phi =
    0`` solve moved by ``U = e^{-i(G - tr G / d) phi}``, with ``dcarrier =
    -iG C``; ``rho = C C^dagger``, ``drho = dC C^dagger + C dC^dagger``, ``L
    = U L_0 U^dagger`` (``2 drho`` for a state vector) and ``residual`` of
    the SLD equation are built on first read. A blackbox model has no
    ``dcarrier``; :func:`sld` stores its dense ``rho``, ``drho`` and ``L``.
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
        product = self.carrier @ self.carrier.conj().T
        return (product + product.conj().T) / 2.0

    @cached_property
    def drho(self) -> np.ndarray:
        product = self.dcarrier @ self.carrier.conj().T
        return product + product.conj().T

    @cached_property
    def L(self) -> HermitianObservable:
        l_matrix = self.model._solution.l_matrix
        if l_matrix is None:  # a state vector's L = 2 drho
            return HermitianObservable(2.0 * self.drho, check=False)
        g, basis, _ = self.model._frame
        e = np.exp(-1j * g * self.phi)
        moved = e[:, None] * l_matrix * e.conj()[None, :]
        if basis is not None:
            moved = basis @ moved @ basis.conj().T
        return HermitianObservable((moved + moved.conj().T) / 2.0, check=False)

    @cached_property
    def residual(self) -> float:
        l_matrix = self.L.matrix
        return float(np.linalg.norm(
            self.drho - (self.rho @ l_matrix + l_matrix @ self.rho) / 2.0))

    def slope(self, obs: HermitianObservable, o_carrier: np.ndarray) -> float:
        """``d<O>/dphi`` from ``o_carrier = O C``: ``2 Re<dC|O C>`` on a
        generator model, else ``Re Tr(drho O)``, the one read of
        ``obs.matrix``; independent of ``l_carrier``, so it checks ``Re<O
        C|L C>``."""
        if self.dcarrier is not None:
            return 2.0 * float(np.vdot(self.dcarrier, o_carrier).real)
        return float(np.vdot(obs.matrix, self.drho).real)


def sld(model: ParametricModel, phi: float) -> SldResult:
    """Solve ``drho = (rho L + L rho) / 2`` for the Hermitian operator L.

    A generator model moves its ``phi = 0`` solve, whose QFI and
    ``kernel_dim`` hold at every phase: with ``e = exp(-i g phi)``, ``C = V
    (e * C_0')``, ``L C = V (e * L_0' C_0')`` and ``dC = V (-i g * e *
    C_0')``. A blackbox model runs :func:`_solve_sld` on its dense ``rho``
    and ``drho`` at ``phi``.
    """
    if model.kind == "unitary_generator":
        g, basis, _ = model._frame
        solution = model._solution
        e = np.exp(-1j * g * phi)[:, None]
        carrier = e * solution.carrier
        moved = [carrier, e * solution.l_carrier, -1j * g[:, None] * carrier]
        if basis is not None:
            moved = [basis @ x for x in moved]
        return SldResult(model, phi, solution.qfi, solution.kernel_dim, *moved)
    phis = np.array([phi], dtype=float)
    rho, drho = (model._rho_derivatives(phis, order)[0] for order in (0, 1))
    solution = _solve_sld(rho, drho)
    result = SldResult(model=model, phi=phi, qfi=solution.qfi,
                       kernel_dim=solution.kernel_dim, carrier=solution.carrier,
                       l_carrier=solution.l_carrier)
    # the values of the cached properties, which read the instance dict first
    result.__dict__.update(rho=rho, drho=drho,
                           L=HermitianObservable(solution.l_matrix, check=False))
    return result


def qfi(model: ParametricModel, phi: float) -> float:
    """Quantum Fisher information ``Tr(rho L^2)``."""
    return sld(model, phi).qfi


def qfi_from_generator_variance(model: ParametricModel, phi: float = 0.0) -> float:
    """Independent QFI route for pure unitary families: ``4 Var(G)`` in the
    initial state, ``4 (sum g^2 w - (sum g w)^2)`` with ``w = |psi_0'|^2`` in
    the generator's frame, whatever ``phi``. Raises
    :class:`VariantInapplicableError` for mixed states or blackbox models."""
    if model.kind != "unitary_generator":
        raise VariantInapplicableError(
            "generator-variance QFI needs a unitary_generator model")
    if not isinstance(model.initial_state, PureState):
        raise VariantInapplicableError(
            "generator-variance QFI needs a pure initial state")
    g, _, amps = model._frame
    weights = amps.real * amps.real + amps.imag * amps.imag
    return 4.0 * max(float(weights @ (g * g)) - float(weights @ g) ** 2, 0.0)


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


def _check_totals(probs: np.ndarray, derivs: np.ndarray | None = None) -> None:
    """Require each row of ``probs`` to sum to 1 and of ``derivs`` to 0."""
    totals = probs.sum(axis=1)
    bad = np.abs(totals - 1.0) > 1e-10
    if bad.any():
        raise ValueError(f"probabilities sum to {float(totals[bad][0])!r}, expected 1")
    if derivs is None:
        return
    deriv_totals = derivs.sum(axis=1)
    bad = np.abs(deriv_totals) > 1e-8
    if bad.any():
        raise ValueError(f"probability derivatives sum to "
                         f"{float(deriv_totals[bad][0])!r}, expected 0")


def _block_sums(columns: np.ndarray, povm: Povm) -> np.ndarray:
    """Sum the ``(B, R)`` per-column values over each outcome's block: the
    values themselves where every outcome owns one column."""
    if len(povm) == povm.block_bounds[-1]:
        return columns
    return np.add.reduceat(columns, povm.block_bounds[:-1], axis=1)


def _re_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``Re sum_k conj(a) b`` over the last axis."""
    return (a.real * b.real + a.imag * b.imag).sum(axis=-1)


def outcome_distribution(model: ParametricModel, phi: float, povm: Povm, *,
                         second_order: bool = True) -> OutcomeDistribution:
    """Outcome distribution ``p(x) = Tr(rho_phi M_x)`` with derivatives."""
    return _OutcomeRows(model, povm).distribution(phi, 2 if second_order else 1)


# complex entries per stacked array in one phase chunk of _OutcomeRows
_BATCH_ENTRIES = 1 << 18


def _phase_chunk(r: int, width: int) -> int:
    """Phases per chunk of :class:`_OutcomeRows` whose stacked arrays hold
    ``r x width`` complex entries a phase."""
    return max(1, _BATCH_ENTRIES // (r * width))


def _cfi_values(model: ParametricModel, phis, povm: Povm):
    """Yield ``cfi(outcome_distribution(model, phi, povm))`` at each phase of
    ``phis``, bit for bit, or the :class:`SingularOutcomeError` it raises
    there, from one :class:`_OutcomeRows` setup, made when the first phase
    is read: each chunk's rows are read once, as arrays, with no
    distribution formed."""
    rows = _OutcomeRows(model, povm)
    for _, arrays in rows.chunks(phis):
        totals, offending = _fisher_sums(*arrays)
        singular = offending.any(axis=1)
        for k, total in enumerate(totals.tolist()):
            yield (_singular_outcome(povm.labels, offending[k], *arrays[1:, k])
                   if singular[k] else total)


class _OutcomeRows:
    """The outcome arrays of one model and POVM, set up once and evaluated
    on any batch of phases up to a derivative order 0, 1 or 2.

    A generator model reads them from its moved carrier ``C``, with ``dC =
    -iG C`` and ``d^2 C = -G^2 C``: ``p = ||F_x^dagger C||^2``, ``p' = 2
    Re<F_x^dagger C, F_x^dagger dC>`` and ``p'' = 2 (||F_x^dagger dC||^2 +
    Re<F_x^dagger C, F_x^dagger d^2 C>)``. A moved carrier ``e^{-i g phi}
    C_0'`` is zero wherever ``C_0'`` is, so the setup keeps only the rows
    ``(F^dagger V)[:, S] (-i g_S)^k`` (``k <= 2``, order 2 formed when it is
    first read) on the support S of
    ``C_0'`` (``model._support``), and the products sum over S: they cost
    ``O(R |S| r)`` a phase, and the terms left out are exact zeros. Under a
    diagonal generator (no ``V``) the rows ``F[S]`` come from
    ``Povm._factor_rows``, which forms those of a product form (a product
    basis, or a product observable's eigenprojectors) site by site, so that
    no ``d x R`` factor is built; a non-diagonal frame, or a support of
    every row, reads the dense ``factor``. The
    carrier is moved on every row, ``O(d r)`` with ``d <= R``, as the
    full-row route moves it: a vectorised complex product can round
    otherwise than a lone one. Where ``|S| <= 2``, ``F^dagger d^k C`` is
    one product or a sum of two, formed elementwise, so it is the
    left-to-right sum over every row bit for bit; a larger support is one
    matrix product. A blackbox model traces its dense stacks. Phases run in
    chunks of ``chunk`` (:func:`_phase_chunk` of the ``r x max(R, |S|)``
    carrier products, or a blackbox model's ``d x max(d, R)`` stacks); each
    chunk's probabilities must sum to 1 and, if formed, their derivatives
    to 0. Where the carrier's rows hold two generator levels,
    :meth:`fringes` reads every outcome's probability as one fringe from
    the same rows.
    """

    def __init__(self, model: ParametricModel, povm: Povm) -> None:
        if povm.dim != model.dim:
            raise DimensionMismatchError(
                f"POVM dimension {povm.dim} != model dimension {model.dim}")
        self.model, self.povm = model, povm
        columns = int(povm.block_bounds[-1])
        if model.kind != "unitary_generator":
            self.chunk = _phase_chunk(model.dim, max(model.dim, columns))
            return
        g, basis, _ = model._frame
        self.g, self.carrier, self.support = g, model._solution.carrier, model._support
        if basis is not None:
            frame = basis.conj().T @ povm.factor
            frame = frame if self.support is None else frame[self.support]
        else:
            frame = povm.factor if self.support is None else povm._factor_rows(self.support)
        g_s = g if self.support is None else g[self.support]
        # (F^dagger V)[:, S] (-i g_S)^k, so that rows[k] @ C_0'[S] moved is F^dagger d^k C;
        # order 2 is formed on its first read
        self._step = -1j * g_s
        self.rows = [frame.conj().T]
        self.rows.append(self.rows[0] * self._step)
        self.chunk = _phase_chunk(self.carrier.shape[1], max(columns, len(g_s)))

    def fringes(self) -> tuple[float, np.ndarray] | None:
        """``(w, table)`` where the carrier's nonzero rows hold exactly two
        levels ``g_lo < g_hi`` of the generator, else ``None``: every
        outcome's probability is then one fringe ``a + c cos(w phi) + s
        sin(w phi)`` with ``w = g_hi - g_lo``, and ``table`` holds ``(a, c,
        s)`` per outcome, shape ``(3, K)``. With ``A`` and ``B`` the rows'
        ``F^dagger C_0'`` summed over the rows of each level, ``|A e^{-i g_lo
        phi} + B e^{-i g_hi phi}|^2`` gives ``a = |A|^2 + |B|^2``, ``c = 2 Re(A
        conj(B))`` and ``s = -2 Im(A conj(B))``, summed over the carrier's
        columns and each outcome's block."""
        if self.model.kind != "unitary_generator":
            return None
        nonzero = self.carrier.any(axis=1) if self.support is None else self.support
        carrier, g = self.carrier[nonzero], self.g[nonzero]
        low = g == g.min()
        if low.all() or not (low | (g == g.max())).all():
            return None
        rows = self.rows[0] if self.support is not None else self.rows[0][:, nonzero]
        a, b = rows[:, low] @ carrier[low], rows[:, ~low] @ carrier[~low]
        cross = a * b.conj()
        table = np.stack([_re_inner(a, a) + _re_inner(b, b), 2.0 * cross.real.sum(axis=1),
                          -2.0 * cross.imag.sum(axis=1)])
        return float(g.max() - g.min()), _block_sums(table, self.povm)

    def _products(self, moved: np.ndarray, order: int) -> list[np.ndarray]:
        """``F^dagger d^k C`` for ``k <= order`` from the moved carrier rows."""
        if order == 2 and len(self.rows) == 2:
            self.rows.append(self.rows[1] * self._step)
        rows = self.rows[:order + 1]
        if self.support is None or self.support.size > 2:
            return [f @ moved for f in rows]
        products = []
        for f in rows:
            a = f[None, :, 0, None] * moved[:, None, 0, :]
            if self.support.size == 2:
                a += f[None, :, 1, None] * moved[:, None, 1, :]
            products.append(a)
        return products

    def _chunk(self, phis: np.ndarray, order: int,
               out: np.ndarray | None = None) -> np.ndarray:
        """The arrays at one chunk of phases ``phis`` up to ``order``, shape
        ``(order + 1, len(phis), K)``, written into ``out`` (a new array if
        ``None``)."""
        model, povm = self.model, self.povm
        if out is None:
            out = np.empty((order + 1, phis.size, len(povm)))
        if model.kind == "unitary_generator":
            moved = np.exp(-1j * self.g * phis[:, None])[:, :, None] * self.carrier
            a = self._products(moved if self.support is None else moved[:, self.support],
                               order)
            out[0] = _block_sums(_re_inner(a[0], a[0]), povm)
            if order >= 1:
                out[1] = 2.0 * _block_sums(_re_inner(a[0], a[1]), povm)
            if order == 2:
                out[2] = 2.0 * _block_sums(_re_inner(a[1], a[1]) + _re_inner(a[0], a[2]),
                                           povm)
        else:  # Re Tr(A M_x) = Re sum conj(F_x) * (A F_x) over the rows of F
            f = povm.factor
            rho = model._rho_derivatives(phis)
            for k in range(order + 1):
                af = (rho if k == 0 else model._rho_derivatives(phis, k, rho=rho)) @ f
                out[k] = _block_sums((f.real * af.real + f.imag * af.imag).sum(axis=1), povm)
        np.clip(out[0], 0.0, 1.0, out=out[0])
        _check_totals(out[0], out[1] if order else None)
        return out

    def __call__(self, phis, order: int) -> np.ndarray:
        """Clipped probabilities and their first ``order`` phase derivatives
        at ``phis``, shape ``(order + 1, len(phis), K)``."""
        phis = np.asarray(phis, dtype=float).reshape(-1)
        out = np.empty((order + 1, phis.size, len(self.povm)))
        for start in range(0, phis.size, self.chunk):
            at = slice(start, start + self.chunk)
            self._chunk(phis[at], order, out[:, at])
        return out

    def chunks(self, phis):
        """Yield each chunk of phases of ``phis`` with its arrays up to order
        2, formed when the chunk is read. A chunk that raises a package,
        value or arithmetic error is formed again one phase at a time, so
        that the error is the first offending phase's, raised when that
        phase is read, after the phases before it."""
        phis = np.asarray(phis, dtype=float).reshape(-1)
        for start in range(0, phis.size, self.chunk):
            at = phis[start:start + self.chunk]
            try:
                arrays = self._chunk(at, 2)
            except (MetrologyError, ValueError, ArithmeticError):  # raised again by its phase
                for k in range(at.size):
                    yield at[k:k + 1], self._chunk(at[k:k + 1], 2)
                continue
            yield at, arrays

    def distribution(self, phi: float, order: int = 2) -> OutcomeDistribution:
        """The :class:`OutcomeDistribution` at ``phi`` up to ``order`` (1 or 2)."""
        return OutcomeDistribution(self.povm.labels, *self([phi], order)[:, 0])


def cfi(dist: OutcomeDistribution) -> float:
    """Classical Fisher information ``sum_x (dp)^2 / p`` of a distribution.

    Outcomes with ``p <= 1e-12`` are skipped only when both their first
    derivative (``|dp| <= 1e-9``) and, when available, second derivative
    (``|d2p| <= 1e-6``) vanish, i.e. when the outcome never fires near this
    phase. A vanishing probability with a nonzero derivative means a
    divergent or limit-only Fisher information and raises
    :class:`SingularOutcomeError` instead of being dropped; the first such
    outcome in POVM order is named. The terms are summed left to right.
    """
    second = dist.second_derivatives
    total, offending = _fisher_sums(dist.probabilities, dist.derivatives, second)
    if offending.any():
        raise _singular_outcome(dist.labels, offending, dist.derivatives, second)
    return float(total)


def _fisher_sums(probs: np.ndarray, derivs: np.ndarray,
                 second: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``sum_x (dp)^2 / p`` over the last axis of the arrays, summed left to
    right over the outcomes above the probability floor, and the mask of
    the outcomes :func:`cfi` rejects: at or below the floor, with a first
    or second derivative above its own."""
    regular = probs > _PROB_FLOOR
    moving = np.abs(derivs) > _DERIVATIVE_FLOOR
    if second is not None:
        moving |= np.abs(second) > _CURVATURE_FLOOR
    terms = np.where(regular, derivs * derivs / np.where(regular, probs, 1.0), 0.0)
    # a cumulative sum adds in order, as a scalar loop does; np.sum pairs terms
    return np.cumsum(terms, axis=-1)[..., -1], ~regular & moving


def _singular_outcome(labels, offending: np.ndarray, derivs: np.ndarray,
                      second: np.ndarray | None) -> SingularOutcomeError:
    """The error that names the first ``offending`` outcome of a distribution."""
    idx = int(np.argmax(offending))
    label, dp = labels[idx], float(derivs[idx])
    if abs(dp) > _DERIVATIVE_FLOOR:
        return SingularOutcomeError(
            f"outcome {label!r} has p <= {_PROB_FLOOR:.1e} but dp = {dp:.3e}: "
            "classical Fisher information diverges at this phase")
    return SingularOutcomeError(
        f"outcome {label!r} has p and dp ~ 0 but d2p = "
        f"{float(second[idx]):.3e}: classical Fisher information is "
        "defined only as a limit at this phase")
