"""Monte Carlo shot sampling and phase estimators.

Shots are multinomial draws from a measurement's outcome distribution using
numpy's PCG64 generator; per-trial streams are derived from ``(seed, trial
index)`` via ``SeedSequence`` spawn keys, so trial results are reproducible
and independent of execution order. Each run does its shared work once (the
sample-mean branch, the likelihood grid) and estimates all maximum-likelihood
trials in one batched pass that matches the single-record estimators bit for
bit.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .core import HermitianObservable, Povm, eigenprojector_povm
from .errors import FlatLikelihoodError, InsufficientTrialsError, SingularOutcomeError
from .fisher import (
    OutcomeDistribution,
    ParametricModel,
    _outcome_arrays,
    cfi,
    outcome_distribution,
    qfi,
    sld,
)
from .optimality import (
    ErrorDecomposition,
    ErrorPropagationReport,
    error_propagation,
    _moments,
    estimator_error_decomposition,
)

__all__ = [
    "ShotRecord",
    "EstimatorResult",
    "CltReport",
    "SimulationSummary",
    "sample_shots",
    "exact_record",
    "estimate_phi_sample_mean",
    "estimate_phi_mle",
    "verify_clt_link",
    "default_mle_interval",
    "run_sample_mean_trials",
    "run_mle_trials",
    "RNG_ALGORITHM",
]

#: algorithm behind every random draw in this module
RNG_ALGORITHM = "numpy PCG64 (default_rng), per-trial SeedSequence spawn keys"

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_MLE_GRID_POINTS = 65
_MIN_CLT_TRIALS = 100


@dataclass(frozen=True, eq=False)
class ShotRecord:
    """Outcome counts of ``nu`` repeated measurements.

    ``stream`` distinguishes independent draws sharing one base seed (the
    trial index in multi-trial runs).
    """

    labels: tuple
    counts: np.ndarray
    nu: int
    seed: int
    stream: int | None = None

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape[0] != len(self.labels):
            raise ValueError("counts and labels must align")
        if int(counts.sum()) != self.nu:
            raise ValueError(
                f"counts sum to {int(counts.sum())}, expected nu = {self.nu}")
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "counts", counts)

    def frequencies(self) -> np.ndarray:
        return self.counts / self.nu


def _rng(seed: int, stream: int | None) -> np.random.Generator:
    if stream is None:
        return np.random.default_rng(seed)
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def sample_shots(dist: OutcomeDistribution, nu: int, seed: int, *,
                 stream: int | None = None) -> ShotRecord:
    """Multinomial draw of ``nu`` shots from an outcome distribution."""
    if nu < 1:
        raise ValueError("nu must be a positive integer")
    probs = np.clip(dist.probabilities, 0.0, None)
    probs = probs / probs.sum()
    counts = _rng(seed, stream).multinomial(nu, probs)
    return ShotRecord(labels=dist.labels, counts=counts, nu=nu, seed=seed,
                      stream=stream)


def exact_record(dist: OutcomeDistribution, nu: int) -> ShotRecord:
    """Noiseless record with counts proportional to the exact probabilities.

    Counts are rounded to integers; the largest outcome absorbs the rounding
    remainder. Intended for noiseless sanity checks, not statistics.
    """
    probs = np.clip(dist.probabilities, 0.0, None)
    counts = np.rint(probs * nu).astype(np.int64)
    counts[int(np.argmax(counts))] += nu - int(counts.sum())
    return ShotRecord(labels=dist.labels, counts=counts, nu=nu, seed=-1)


@dataclass(frozen=True)
class EstimatorResult:
    """A single phase estimate with its predicted standard error.

    ``branch`` is the monotone inversion interval (sample-mean method) or
    the search interval (MLE); ``phi_hat`` always lies inside it.
    ``out_of_branch`` marks sample means outside the branch image, where the
    estimate was clipped to the branch endpoint.
    """

    phi_hat: float
    method: str
    se_predicted: float | None
    se_empirical: float | None = None
    out_of_branch: bool = False
    branch: tuple[float, float] | None = None


def _root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of ``f`` bracketed by ``[lo, hi]``, to 1e-12."""
    # scipy.optimize costs most of the package's import time; only estimators need it
    from scipy.optimize import brentq
    return brentq(f, lo, hi, xtol=1e-12)


def _branch_interval(model: ParametricModel, obs: HermitianObservable,
                     center: float, step: float) -> tuple[float, float]:
    """Monotone interval of the mean curve around ``center``: walk outward
    until the slope changes sign, then bisect for the stationary point."""
    def slope(phi: float) -> float:
        return _moments(model, obs, sld(model, phi)).slope

    sign_center = math.copysign(1.0, slope(center))

    def boundary(direction: float) -> float:
        prev = center
        for k in range(1, int(2.0 * math.pi / step) + 2):
            here = center + direction * k * step
            value = slope(here)
            if value == 0.0:
                return here
            if math.copysign(1.0, value) != sign_center:
                return _root(slope, min(prev, here), max(prev, here))
            prev = here
        return prev

    return boundary(-1.0), boundary(+1.0)


def _outcome_values(labels) -> np.ndarray:
    try:
        return np.array([float(label) for label in labels])
    except (TypeError, ValueError) as exc:
        raise ValueError("record labels must be numeric outcome values") from exc


def _mean_inverter(model: ParametricModel, obs: HermitianObservable,
                   values: np.ndarray, report: ErrorPropagationReport,
                   branch_center: float) -> Callable[[ShotRecord], EstimatorResult]:
    """Set up the sample-mean inversion once per run: the predicted error,
    the monotone branch around ``branch_center`` and its endpoint means.
    Returns the per-record estimator."""
    se_predicted = math.sqrt(report.delta_phi_sq)
    n_sites = max(1, math.ceil(math.log2(model.dim)))
    lo, hi = _branch_interval(model, obs, branch_center, math.pi / (8.0 * n_sites))
    mean_lo, mean_hi = (_moments(model, obs, sld(model, x)).mean for x in (lo, hi))
    low_value, high_value = sorted((mean_lo, mean_hi))

    def invert(record: ShotRecord) -> EstimatorResult:
        empirical_mean = float(values @ record.frequencies())
        out_of_branch = not low_value <= empirical_mean <= high_value
        if out_of_branch:
            phi_hat = (lo if abs(mean_lo - empirical_mean) <= abs(mean_hi - empirical_mean)
                       else hi)
        elif empirical_mean == mean_lo:
            phi_hat = lo
        elif empirical_mean == mean_hi:
            phi_hat = hi
        else:
            phi_hat = _root(
                lambda x: _moments(model, obs, sld(model, x)).mean - empirical_mean,
                lo, hi)
        return EstimatorResult(phi_hat=float(phi_hat), method="sample_mean_inversion",
                               se_predicted=se_predicted, out_of_branch=out_of_branch,
                               branch=(lo, hi))

    return invert


def estimate_phi_sample_mean(record: ShotRecord, obs: HermitianObservable,
                             model: ParametricModel,
                             branch_center: float) -> EstimatorResult:
    """Invert the observable's mean curve at the empirical sample mean.

    The record's labels must be the numeric outcome values of ``obs`` (as
    produced by measuring its eigenprojector POVM). Inversion is local to
    the monotone branch containing ``branch_center``, which must not be a
    stationary point of the mean.
    """
    values = _outcome_values(record.labels)
    # raises SingularSensitivityError when branch_center carries no slope
    report = error_propagation(model, branch_center, obs, record.nu)
    return _mean_inverter(model, obs, values, report, branch_center)(record)


def _log_probabilities(probs: np.ndarray, floor: float = 1e-300) -> np.ndarray:
    """``math.log`` of each probability; ``-inf`` marks ``p <= floor``."""
    logs = [math.log(p) if p > floor else -math.inf for p in probs.ravel().tolist()]
    return np.array(logs).reshape(probs.shape)


def _log_likelihoods(counts: np.ndarray, log_p: np.ndarray) -> np.ndarray:
    """Multinomial log-likelihoods, broadcasting count rows against
    log-probability rows.

    Terms are added left to right over outcomes, skipping zero counts, so
    each value is bitwise the scalar sum ``sum_x n_x log p_x``; a counted
    outcome with ``p <= floor`` makes the value ``-inf``.
    """
    if counts.shape[-1] != log_p.shape[-1]:
        raise ValueError(f"{counts.shape[-1]} outcome counts but "
                         f"{log_p.shape[-1]} outcome probabilities")
    total = np.zeros(np.broadcast_shapes(counts.shape[:-1], log_p.shape[:-1]))
    with np.errstate(invalid="ignore"):  # 0 * -inf is discarded below
        for k in range(counts.shape[-1]):
            count = counts[..., k]
            total = total + np.where(count > 0, count * log_p[..., k], 0.0)
    return total


def _golden_max(loglik: Callable[[np.ndarray, np.ndarray], np.ndarray],
                lo: np.ndarray, hi: np.ndarray, xtol: float) -> np.ndarray:
    """Golden-section maximisation of many brackets in lockstep.

    ``loglik(phis, rows)`` evaluates the objective of trial ``rows[i]`` at
    ``phis[i]``. Each bracket keeps its own state and stop condition; each
    iteration evaluates the new point of every still-active bracket in one
    call.
    """
    lo, hi = lo.copy(), hi.copy()
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    rows = np.arange(lo.size)
    fc, fd = np.split(loglik(np.concatenate([c, d]), np.concatenate([rows, rows])), 2)
    active = rows[hi - lo > xtol]
    while active.size:
        left = fc[active] >= fd[active]
        lower, upper = active[left], active[~left]
        hi[lower], d[lower], fd[lower] = d[lower], c[lower], fc[lower]
        c[lower] = hi[lower] - _GOLDEN * (hi[lower] - lo[lower])
        lo[upper], c[upper], fc[upper] = c[upper], d[upper], fd[upper]
        d[upper] = lo[upper] + _GOLDEN * (hi[upper] - lo[upper])
        values = loglik(np.where(left, c[active], d[active]), active)
        fc[lower], fd[upper] = values[left], values[~left]
        active = active[hi[active] - lo[active] > xtol]
    return (lo + hi) / 2.0


def _positive_cfi(dist: OutcomeDistribution) -> float | None:
    """Classical Fisher information of ``dist``; ``None`` where it is zero or
    singular, so that no pointwise error prediction exists."""
    try:
        info = cfi(dist)
    except SingularOutcomeError:
        return None
    return info if info > 0.0 else None


def _mle_estimates(records: list[ShotRecord], model: ParametricModel, povm: Povm,
                   search_interval: tuple[float, float]) -> list[EstimatorResult]:
    """Maximum-likelihood estimates of many records in one batched pass.

    The grid's outcome probabilities are computed once and shared by every
    record; each record's best grid cell is then refined by a lockstep
    golden-section search and one Newton step on its score. ``se_predicted``
    is left ``None``.
    """
    lo, hi = (float(search_interval[0]), float(search_interval[1]))
    if not hi > lo:
        raise ValueError("search interval must have positive length")
    counts = np.array([record.counts for record in records], dtype=float)

    def log_probs(phis: np.ndarray) -> np.ndarray:
        return _log_probabilities(_outcome_arrays(model, phis, povm, order=0)[0])

    def loglik(phis: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return _log_likelihoods(counts[rows], log_probs(phis))

    grid = np.linspace(lo, hi, _MLE_GRID_POINTS)
    values = _log_likelihoods(counts[:, None, :], log_probs(grid)[None, :, :])
    finite = np.isfinite(values)
    best = np.where(finite, values, -np.inf).max(axis=1)
    spread = best - np.where(finite, values, np.inf).min(axis=1)
    flat = spread <= 1e-12 * np.maximum(1.0, np.abs(best))
    if flat.any():
        first = int(np.argmax(flat))
        if not finite[first].any():
            raise FlatLikelihoodError(
                "log-likelihood is -inf over the whole search interval")
        raise FlatLikelihoodError(
            "likelihood does not depend on the phase over the search interval")
    # grid ties are broken toward the interval center, then the lower index
    center = (lo + hi) / 2.0
    tie_tol = 1e-9 * np.maximum(1.0, np.abs(best))
    candidates = finite & (values >= (best - tie_tol)[:, None])
    best_idx = np.where(candidates, np.abs(grid - center), np.inf).argmin(axis=1)
    bracket_lo = grid[np.maximum(best_idx - 1, 0)]
    bracket_hi = grid[np.minimum(best_idx + 1, _MLE_GRID_POINTS - 1)]
    phi_hat = _golden_max(loglik, bracket_lo, bracket_hi, 1e-10)
    return [EstimatorResult(phi_hat=phi, method="maximum_likelihood",
                            se_predicted=None, branch=(lo, hi))
            for phi in _newton_step(model, povm, counts, phi_hat,
                                    bracket_lo, bracket_hi).tolist()]


def _newton_step(model: ParametricModel, povm: Povm, counts: np.ndarray,
                 phis: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """One Newton step on each record's score from ``phis``.

    A golden-section search compares log-likelihood values, so it cannot
    resolve the maximum beyond about ``sqrt(eps |l| / I)``. The score ``s =
    sum_x n_x p'_x / p_x`` and curvature ``c = sum_x n_x (p''_x / p_x -
    (p'_x / p_x)^2)`` (terms added left to right over outcomes, skipping
    zero counts) resolve it to rounding. A record keeps ``phis`` unless its
    step ``phi - s / c`` is finite, ``c < 0`` and the new point lies in its
    bracket ``[lo, hi]``. All records are evaluated in one stacked pass.
    """
    probs, derivs, second = _outcome_arrays(model, phis, povm, order=2)
    score = np.zeros(phis.size)
    curvature = np.zeros(phis.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(counts.shape[1]):
            count, ratio = counts[:, k], derivs[:, k] / probs[:, k]
            fired = count > 0
            score = score + np.where(fired, count * ratio, 0.0)
            curvature = curvature + np.where(
                fired, count * (second[:, k] / probs[:, k] - ratio * ratio), 0.0)
        stepped = phis - score / curvature
    accept = np.isfinite(stepped) & (curvature < 0.0) & (lo <= stepped) & (stepped <= hi)
    return np.where(accept, stepped, phis)


def estimate_phi_mle(record: ShotRecord, model: ParametricModel, povm: Povm,
                     search_interval: tuple[float, float]) -> EstimatorResult:
    """Maximum-likelihood phase estimate over a search interval.

    Coarse scan of a 65-point grid, golden-section search of the best cell
    down to a 1e-10 bracket, then one Newton step on the score, which
    resolves the maximum below the rounding floor of the likelihood values
    (about 1e-8 for a thousand shots); grid ties are broken toward the
    interval center. Raises :class:`FlatLikelihoodError` when the
    likelihood carries no phase dependence over the interval.
    """
    result = _mle_estimates([record], model, povm, search_interval)[0]
    info = _positive_cfi(outcome_distribution(model, result.phi_hat, povm))
    return replace(result, se_predicted=(None if info is None
                                         else 1.0 / math.sqrt(record.nu * info)))


@dataclass(frozen=True)
class CltReport:
    """Comparison of the spread of sample means against ``Var(O)/nu``."""

    n_trials: int
    empirical_variance: float
    predicted_variance: float
    stderr: float
    within_three_se: bool


def verify_clt_link(means, observable_variance: float, nu: int) -> CltReport:
    """Check that sample means fluctuate with variance ``Var(O)/nu``.

    The tolerance is three standard errors of a variance estimate from
    ``n_trials`` approximately Gaussian samples.
    """
    values = np.asarray(means, dtype=float).reshape(-1)
    n_trials = values.shape[0]
    if n_trials < _MIN_CLT_TRIALS:
        raise InsufficientTrialsError(
            f"need at least {_MIN_CLT_TRIALS} trials, got {n_trials}")
    empirical = float(np.var(values, ddof=1))
    predicted = float(observable_variance) / nu
    stderr = predicted * math.sqrt(2.0 / (n_trials - 1))
    return CltReport(n_trials=n_trials, empirical_variance=empirical,
                     predicted_variance=predicted, stderr=stderr,
                     within_three_se=abs(empirical - predicted) <= 3.0 * stderr)


def default_mle_interval(model: ParametricModel, branch_center: float) -> tuple[float, float]:
    """Search interval staying inside one monotone branch of a GHZ-type
    likelihood: ``branch_center +- 0.9 * pi / (2 N)``."""
    n_sites = max(1, math.ceil(math.log2(model.dim)))
    half_width = 0.9 * math.pi / (2.0 * n_sites)
    return branch_center - half_width, branch_center + half_width


@dataclass(frozen=True, eq=False)
class SimulationSummary:
    """Aggregate of repeated independent estimation trials."""

    method: str
    phi_true: float
    nu: int
    trials: int
    seed: int
    estimates: np.ndarray
    mse: float
    decomposition: ErrorDecomposition
    se_empirical: float
    predicted_delta_phi_sq: float | None
    qcrb: float
    n_clipped: int
    rng_algorithm: str = RNG_ALGORITHM


def _summarize(method: str, phi_true: float, nu: int, seed: int,
               results: list[EstimatorResult],
               predicted_delta_phi_sq: float | None,
               qcrb: float) -> SimulationSummary:
    estimates = np.array([r.phi_hat for r in results])
    decomposition = estimator_error_decomposition(estimates, phi_true)
    return SimulationSummary(
        method=method, phi_true=phi_true, nu=nu, trials=len(results), seed=seed,
        estimates=estimates, mse=decomposition.total, decomposition=decomposition,
        se_empirical=float(np.std(estimates, ddof=1)),
        predicted_delta_phi_sq=predicted_delta_phi_sq, qcrb=qcrb,
        n_clipped=sum(1 for r in results if r.out_of_branch))


def run_sample_mean_trials(model: ParametricModel, obs: HermitianObservable,
                           phi_true: float, nu: int, trials: int, seed: int, *,
                           branch_center: float | None = None) -> SimulationSummary:
    """Repeat (sample nu shots of obs, invert the mean curve) ``trials``
    times with independent RNG streams."""
    if trials < 2:
        raise InsufficientTrialsError("need at least 2 trials")
    center = phi_true if branch_center is None else branch_center
    report = error_propagation(model, center, obs, nu)
    povm = eigenprojector_povm(obs)
    dist = outcome_distribution(model, phi_true, povm, second_order=False)
    invert = _mean_inverter(model, obs, _outcome_values(povm.labels), report, center)
    results = [invert(sample_shots(dist, nu, seed, stream=index))
               for index in range(trials)]
    return _summarize("sample_mean_inversion", phi_true, nu, seed, results,
                      predicted_delta_phi_sq=report.delta_phi_sq,
                      qcrb=report.qcrb)


def run_mle_trials(model: ParametricModel, povm: Povm, phi_true: float,
                   nu: int, trials: int, seed: int, *,
                   search_interval: tuple[float, float] | None = None) -> SimulationSummary:
    """Repeat (sample nu shots of the POVM, maximize the likelihood)
    ``trials`` times with independent RNG streams; trials carry no
    ``se_predicted``."""
    if trials < 2:
        raise InsufficientTrialsError("need at least 2 trials")
    interval = (default_mle_interval(model, phi_true)
                if search_interval is None else search_interval)
    dist = outcome_distribution(model, phi_true, povm)
    info = _positive_cfi(dist)
    predicted = None if info is None else 1.0 / (nu * info)
    qcrb = 1.0 / (nu * qfi(model, phi_true))
    records = [sample_shots(dist, nu, seed, stream=index) for index in range(trials)]
    results = _mle_estimates(records, model, povm, interval)
    return _summarize("maximum_likelihood", phi_true, nu, seed, results,
                      predicted_delta_phi_sq=predicted, qcrb=qcrb)
