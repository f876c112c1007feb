"""Error-propagation bounds and optimal-measurement certification.

The central check: an observable saturates the quantum Cramér-Rao bound via
error propagation if and only if ``(O - <O>) sqrt(rho) = alpha L sqrt(rho)``
for some nonzero real ``alpha``, where ``L`` is the SLD operator. The
analogous per-outcome condition ``sqrt(M_x) sqrt(rho) = u_x sqrt(M_x) L
sqrt(rho)`` certifies a POVM as attaining the quantum Fisher information.

Both conditions are checked on the carrier ``C`` of :func:`~.fisher.sld`,
a factor with ``C C^dagger = rho``: ``sqrt(rho)`` and ``C`` differ by a
partial isometry on the right, so ``(O - <O>) C = alpha L C`` has the same
Frobenius residual and the same least-squares ``alpha``. For a generator
model ``C`` and ``L C`` are its one ``phi = 0`` solve moved by
``e^{-iG phi}``, and ``dC = -iG C``. Every moment is a product of ``O C``
with ``C``, ``dC`` or ``L C``: ``<O> = <C, O C>``, ``<O^2> = ||O C||^2``,
the slope ``2 Re<dC, O C>`` and ``Tr(rho O L) = <O C, L C>``. ``O C`` is
``obs.apply(C)``, so a diagonal or product-form observable is never formed
as a matrix here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, NamedTuple

import numpy as np

from .core import ALGORITHMIC_ATOL, HermitianObservable, Povm
from .errors import (
    DimensionMismatchError,
    InsufficientSamplesError,
    SingularSensitivityError,
    VariantInapplicableError,
)
from .fisher import ParametricModel, SldResult, sld

__all__ = [
    "ErrorPropagationReport",
    "OptimalityReport",
    "PovmOptimalityReport",
    "ErrorDecomposition",
    "observable_expectations",
    "error_propagation",
    "check_observable_optimality",
    "check_povm_optimality",
    "estimator_error_decomposition",
    "OPTIMALITY_RTOL",
    "SLOPE_RTOL",
    "EIGENSTATE_RTOL",
    "NO_INFORMATION",
    "EIGENSTATE",
]

#: relative residual below which the saturation condition counts as satisfied
OPTIMALITY_RTOL = 1e-8
#: slope magnitudes below this fraction of sqrt(<O^2> * QFI) are singular
SLOPE_RTOL = 1e-10
#: diagnostic value reported when the state carries no phase information
NO_INFORMATION = "no_information"
#: diagnostic value reported when the state is an eigenvector of the observable
EIGENSTATE = "eigenstate_of_observable"
#: ``||(O - <O>) C||`` at or below this fraction of ``sqrt(<O^2>)`` is rounding
EIGENSTATE_RTOL = 1e-12

ConditionVariant = Literal["mixed", "pure", "pure_unitary"]


def _require_same_dim(model: ParametricModel, operator_dim: int) -> None:
    if operator_dim != model.dim:
        raise DimensionMismatchError(
            f"operator dimension {operator_dim} != model dimension {model.dim}")


@dataclass(frozen=True)
class ErrorPropagationReport:
    """Error-propagation variance analysis of one observable at one phase.

    ``delta_phi_sq`` is the squared phase error ``Var(O) / (nu * slope^2)``;
    ``intermediate_bound`` is the observable-specific lower bound
    ``(1/(nu*F)) * (1 + |<[O,L]>|^2 / <[O,L]_+>^2)`` sitting between it and
    the Cramér-Rao bound ``qcrb = 1/(nu*F)``.
    """

    variance: float
    slope: float
    nu: int
    delta_phi_sq: float
    intermediate_bound: float
    qcrb: float
    qfi: float
    mean: float
    second_moment: float


def observable_expectations(model: ParametricModel, phi: float,
                            obs: HermitianObservable) -> tuple[float, float]:
    """First and second moments ``(Tr(rho O), Tr(rho O^2))``."""
    _require_same_dim(model, obs.dim)
    ro = model.density(phi).matrix @ obs.matrix
    return _real_moments(complex(np.trace(ro)), complex(np.trace(ro @ obs.matrix)))


def _real_moments(mean: complex, second: complex) -> tuple[float, float]:
    """Real parts of ``<O>`` and ``<O^2>``; raises :class:`ArithmeticError`
    if either has an imaginary part beyond rounding."""
    scale = max(1.0, abs(mean), abs(second))
    if max(abs(mean.imag), abs(second.imag)) > 1e-10 * scale:
        raise ArithmeticError(
            f"expectation values are not real: {mean!r}, {second!r}")
    return mean.real, second.real


def error_propagation(model: ParametricModel, phi: float,
                      obs: HermitianObservable, nu: int = 1) -> ErrorPropagationReport:
    """Evaluate the phase error obtained by measuring the mean of ``obs``.

    Raises :class:`SingularSensitivityError` where the mean has zero slope
    (relative to the natural scale ``sqrt(<O^2> * QFI)``), i.e. at the phases
    where this observable carries no first-order information.
    """
    sld_result = sld(model, phi)
    return _error_propagation(phi, obs, nu, sld_result,
                              _moments(model, obs, sld_result))


class Moments(NamedTuple):
    """What one observable needs of one phase, with ``o_carrier = O C``."""

    mean: float
    second: float
    slope: float
    cross: complex
    singular: bool
    o_carrier: np.ndarray


def _moments(model: ParametricModel, obs: HermitianObservable,
             sld_result: SldResult) -> Moments:
    """``<O> = <C, O C>``, ``<O^2> = ||O C||^2``, the slope ``d<O>/dphi``,
    ``Tr(rho O L) = <O C, L C>`` and whether the slope is singular; raises
    :class:`ArithmeticError` if the slope is not ``<[O,L]+>/2``."""
    _require_same_dim(model, obs.dim)
    carrier = sld_result.carrier
    o_carrier = obs.apply(carrier)
    mean, second = _real_moments(complex(np.vdot(carrier, o_carrier)),
                                 complex(np.vdot(o_carrier, o_carrier)))
    slope = sld_result.slope(obs, o_carrier)
    cross = complex(np.vdot(o_carrier, sld_result.l_carrier))
    slope_scale = float(np.sqrt(max(second, 0.0) * sld_result.qfi))
    if abs(slope - cross.real) > 1e-7 * max(1.0, abs(slope), slope_scale):
        raise ArithmeticError(
            f"slope identity violated: Tr(drho O) = {slope!r} but "
            f"<[O,L]+>/2 = {cross.real!r}")
    singular = abs(slope) <= SLOPE_RTOL * slope_scale or slope_scale == 0.0
    return Moments(mean, second, slope, cross, singular, o_carrier)


def _error_propagation(phi: float, obs: HermitianObservable, nu: int,
                       sld_result: SldResult, moments: Moments) -> ErrorPropagationReport:
    """:func:`error_propagation` from ``sld_result`` and its ``_moments``."""
    if nu < 1:
        raise ValueError("nu must be a positive integer")
    mean, second, slope, cross, singular, _ = moments
    if singular:
        raise SingularSensitivityError(
            f"observable mean has zero slope at phi={phi!r}; "
            "the error-propagation estimate is undefined here")
    variance = max(second - mean * mean, 0.0)
    delta_phi_sq = variance / (nu * slope * slope)
    qcrb = 1.0 / (nu * sld_result.qfi)
    # |Tr(rho [O,L])| = 2 |Im<O C, L C>| and Tr(rho {O,L}) = 2 Re<O C, L C>
    intermediate = qcrb * (1.0 + (2.0 * cross.imag) ** 2 / ((2.0 * cross.real) ** 2))
    return ErrorPropagationReport(
        variance=variance, slope=slope, nu=nu, delta_phi_sq=delta_phi_sq,
        intermediate_bound=intermediate, qcrb=qcrb, qfi=sld_result.qfi,
        mean=mean, second_moment=second)


@dataclass(frozen=True)
class OptimalityReport:
    """Verdict of the saturation condition for one observable.

    ``alpha`` is the real least-squares coefficient projecting
    ``(O - <O>) sqrt(rho)`` onto ``L sqrt(rho)``; ``residual_rel`` the
    relative norm left over; ``im_part`` the imaginary part of ``<O L>``
    (must vanish for saturation). ``diagnostic`` is :data:`NO_INFORMATION`
    where ``L sqrt(rho)`` vanishes and :data:`EIGENSTATE` where ``(O - <O>)
    sqrt(rho)`` is rounding noise; both report ``alpha = 0`` and fail, and
    ``residual_rel`` is 0 at an eigenvector of O and 1 elsewhere.
    """

    alpha: float
    residual_rel: float
    im_part: float
    anticommutator_mean: float
    is_optimal: bool
    condition_variant: ConditionVariant
    diagnostic: str | None = None


def check_observable_optimality(model: ParametricModel, phi: float,
                                obs: HermitianObservable,
                                variant: ConditionVariant = "mixed", *,
                                tol: float = OPTIMALITY_RTOL) -> OptimalityReport:
    """Test whether measuring ``obs`` saturates the quantum Cramér-Rao bound.

    Variants express the same condition on different carriers and agree
    wherever they all apply:

    * ``"mixed"``: ``(O - <O>) sqrt(rho) = alpha L sqrt(rho)`` (any state);
    * ``"pure"``: ``(O - <O>) |psi> = alpha L |psi>`` (pure states);
    * ``"pure_unitary"``: ``(O - <O>) |psi> = -2i alpha (G - <G>) |psi>``
      (pure states under a unitary generator).
    """
    sld_result = sld(model, phi)
    return _check_observable_optimality(model, obs, variant, sld_result,
                                        _moments(model, obs, sld_result), tol=tol)


def _check_observable_optimality(model: ParametricModel,
                                 obs: HermitianObservable, variant: ConditionVariant,
                                 sld_result: SldResult, moments: Moments, *,
                                 tol: float = OPTIMALITY_RTOL) -> OptimalityReport:
    """:func:`check_observable_optimality` from ``sld_result`` and its ``_moments``."""
    mean, second, _, cross, _, o_carrier = moments
    im_part = cross.imag
    anticommutator_mean = 2.0 * cross.real
    if variant not in ("mixed", "pure", "pure_unitary"):
        raise VariantInapplicableError(f"unknown condition variant {variant!r}")
    if variant == "pure_unitary" and model.kind != "unitary_generator":
        raise VariantInapplicableError(
            "pure_unitary variant needs a unitary_generator model")

    carrier = sld_result.carrier
    if variant != "mixed" and carrier.shape[1] > 1:
        # Tr(rho^2) = ||C^dagger C||_F^2, O(d r^2) with no d x d product
        gram = carrier.conj().T @ carrier
        purity = float(np.vdot(gram, gram).real)
        if abs(purity - 1.0) > ALGORITHMIC_ATOL:
            raise VariantInapplicableError(
                f"state at phi={sld_result.phi!r} is mixed (purity {purity!r})")
    lhs, rhs = o_carrier - mean * carrier, sld_result.l_carrier
    if variant == "pure_unitary":
        g_carrier = 1j * sld_result.dcarrier  # (G - tr G / d) C
        rhs = -2.0j * (g_carrier - float(np.vdot(carrier, g_carrier).real) * carrier)

    lhs_norm = float(np.linalg.norm(lhs))
    rhs_norm = float(np.linalg.norm(rhs))
    # an eigenvector of O: (O - <O>) sqrt(rho) is rounding
    eigenstate = lhs_norm <= EIGENSTATE_RTOL * np.sqrt(max(second, 0.0))
    # L sqrt(rho) ~ 0 means QFI ~ 0: the state carries no information
    no_information = rhs_norm * rhs_norm <= 1e-14
    if no_information or eigenstate:
        # the residual ratio would divide rounding by rounding
        return OptimalityReport(
            alpha=0.0, residual_rel=(0.0 if eigenstate else 1.0), im_part=im_part,
            anticommutator_mean=anticommutator_mean, is_optimal=False,
            condition_variant=variant,
            diagnostic=NO_INFORMATION if no_information else EIGENSTATE)
    alpha, residual, scale = _fit(lhs, rhs, lhs_norm, rhs_norm)
    residual_rel = residual / scale
    variance = max(second - mean * mean, 0.0)
    im_scale = max(1.0, float(np.sqrt(variance * sld_result.qfi)))
    alpha_ok = abs(alpha) * rhs_norm > 1e-10 * lhs_norm
    is_optimal = (residual_rel <= tol) and alpha_ok and (abs(im_part) <= tol * im_scale)
    return OptimalityReport(
        alpha=alpha, residual_rel=residual_rel, im_part=im_part,
        anticommutator_mean=anticommutator_mean, is_optimal=is_optimal,
        condition_variant=variant)


def _fit(lhs: np.ndarray, rhs: np.ndarray, lhs_norm: float,
         rhs_norm: float) -> tuple[float, float, float]:
    """The real least-squares ``coef`` of ``lhs ~ coef * rhs``, the residual
    norm ``||lhs - coef * rhs||`` and the scale ``max(||lhs||, |coef| ||rhs||)``
    it is relative to; ``rhs`` must not vanish."""
    coef = float(np.vdot(rhs, lhs).real) / (rhs_norm * rhs_norm)
    residual = float(np.linalg.norm(lhs - coef * rhs))
    return coef, residual, max(lhs_norm, abs(coef) * rhs_norm)


@dataclass(frozen=True, eq=False)
class PovmOptimalityReport:
    """Per-outcome verdict of the QFI-attainment condition for a POVM."""

    per_outcome_u: np.ndarray
    per_outcome_residual: np.ndarray
    is_optimal: bool


def check_povm_optimality(model: ParametricModel, phi: float, povm: Povm, *,
                          tol: float = OPTIMALITY_RTOL) -> PovmOptimalityReport:
    """Test whether a POVM attains the quantum Fisher information.

    Fits, for each outcome, the real ``u_x`` minimizing
    ``|| sqrt(M_x) sqrt(rho) - u_x sqrt(M_x) L sqrt(rho) ||``, on the
    carrier as ``|| sqrt(M_x) C - u_x sqrt(M_x) L C ||``, and requires every
    relative residual to vanish. Outcomes where both sides vanish (the
    outcome never fires) are trivially satisfied with ``u_x = 0``. With
    ``M_x = F_x F_x^dagger``, ``||sqrt(M_x) X|| = ||F_x^dagger X||`` and
    ``<sqrt(M_x) Y, sqrt(M_x) X> = <F_x^dagger Y, F_x^dagger X>``, so the fit
    runs on ``F_x^dagger C`` and ``F_x^dagger L C`` and needs no square root.
    """
    _require_same_dim(model, povm.dim)
    sld_result = sld(model, phi)
    f_dagger = povm.factor.conj().T
    lhs_rows = f_dagger @ sld_result.carrier
    rhs_rows = f_dagger @ sld_result.l_carrier
    u_values = np.zeros(len(povm))
    residuals = np.zeros(len(povm))
    bounds = povm.block_bounds.tolist()
    for idx, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        lhs, rhs = lhs_rows[lo:hi], rhs_rows[lo:hi]
        lhs_norm = float(np.linalg.norm(lhs))
        rhs_norm = float(np.linalg.norm(rhs))
        if rhs_norm * rhs_norm <= 1e-14 * max(1.0, lhs_norm):
            u = 0.0
            residual = 0.0 if lhs_norm <= 1e-14 else 1.0
        else:
            u, residual, scale = _fit(lhs, rhs, lhs_norm, rhs_norm)
            residual = residual / scale if scale > 0.0 else 0.0
        u_values[idx] = u
        residuals[idx] = residual
    return PovmOptimalityReport(per_outcome_u=u_values,
                                per_outcome_residual=residuals,
                                is_optimal=bool(np.all(residuals <= tol)))


class ErrorDecomposition(NamedTuple):
    total: float
    variance_term: float
    bias_term: float


def estimator_error_decomposition(samples, phi_true: float, *,
                                  slope_normalizer: float = 1.0) -> ErrorDecomposition:
    """Split the units-corrected mean-square estimator error into spread
    plus squared bias.

    ``slope_normalizer`` is ``|d<phi_est>/d phi|``; the default 1 applies to
    already-calibrated estimators. The identity ``total = variance_term +
    bias_term`` is exact up to rounding.
    """
    values = np.asarray(samples, dtype=float).reshape(-1)
    if values.shape[0] < 2:
        raise InsufficientSamplesError(
            f"need at least 2 samples, got {values.shape[0]}")
    norm = abs(float(slope_normalizer))
    if norm == 0.0:
        raise SingularSensitivityError("slope normalizer must be nonzero")
    scaled = values / norm
    total = float(np.mean((scaled - phi_true) ** 2))
    variance_term = float(np.mean((scaled - np.mean(scaled)) ** 2))
    bias_term = float((np.mean(scaled) - phi_true) ** 2)
    return ErrorDecomposition(total, variance_term, bias_term)
