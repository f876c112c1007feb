"""Monte Carlo shot sampling and phase estimators.

Shots are multinomial draws from a measurement's outcome distribution using
numpy's PCG64 generator; per-trial streams are derived from ``(seed, trial
index)`` via ``SeedSequence`` spawn keys, so trial results are reproducible
and independent of execution order. A run does its shared work once, draws
one ``(trials, outcomes)`` count array and estimates on arrays; the
single-record estimators run the same functions on one row, bit for bit.
The sample-mean estimator draws from the observable's eigenprojectors,
which a product observable keeps as per-site eigenbases read on the
carrier's support rows, solves the mean curve once, as a trigonometric
polynomial in the generator's gaps formed from ``O[S, S]`` on that support,
so that a product observable needs neither ``eigh`` nor a ``d x d`` matrix,
and inverts every trial's sample mean on its monotone branch by one
lockstep ITP solve (:func:`_itp`, which reads the values at a bracket's
ends to interpolate and their signs to bracket); the
maximum-likelihood estimator sets up its outcome rows once per run
(``fisher._OutcomeRows``, on the carrier's support rows), which also give
the distribution the shots are drawn from and its CFI, shares one
likelihood grid between all trials and solves each trial's score on its
best cell, searched on the branch of the interval centre, in the same
lockstep.

Where the carrier holds two generator levels ``g_lo < g_hi`` (every GHZ
state), both estimators read one fringe ``a + R cos(w phi - theta)``, ``w =
g_hi - g_lo``, and take no ITP step: a one-gap mean curve has its branch
and its inverse in closed form (:func:`_fringe_phases`, the parity
estimator of Bollinger et al., PRA 54, R4649, 1996), and where every
outcome's fringe is one of two (parity, on a product basis), the
likelihood runs on the two class counts, a sufficient statistic, with its
root ``P_1 = N_1 / (m_1 nu)`` in closed form wherever the bracket holds no
turning point of ``P_1``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from . import fisher
from .core import HermitianObservable, Povm, eigenprojector_povm
from .errors import FlatLikelihoodError, InsufficientTrialsError, SingularOutcomeError
from .fisher import (
    OutcomeDistribution,
    ParametricModel,
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

_EPS = float(np.finfo(float).eps)
#: the mean curve may differ from the centre's moments by this many of its
#: rounding bounds (see _MeanCurve.check)
_CURVE_NOISE = 8.0
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


# numpy's SeedSequence: its hash and mix constants on a pool of 4 words of 32 bits
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _spawned_states(seed: int, streams: Sequence[int]) -> np.ndarray:
    """``SeedSequence(entropy=seed, spawn_key=(k,)).generate_state(4,
    np.uint64)`` for every ``k`` of the sequence ``streams`` (each from 0 to
    2^64 - 1), shape ``(len(streams), 4)``.

    numpy's mixing is run on Python ints for the seed's words, which every
    stream shares, and on uint64 arrays holding 32-bit values for the
    stream's one or two words: a product of two such values fits in 64
    bits, and its low 32 bits are the uint32 product. The hash constant
    advances by one fixed step per call, whatever the words."""
    seed = operator.index(seed)
    if seed < 0 or min(streams, default=0) < 0:
        raise ValueError("expected non-negative integer")
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = (const * _MULT_A) & _MASK32
        value = (value * const) & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        value = (_MIX_L * x - _MIX_R * y) & _MASK32
        return value ^ (value >> 16)

    words = [(seed >> shift) & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = words + [0] * (4 - len(words))  # a spawned sequence pads its seed to 4 words
    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        pool = [mix(value, hashmix(word)) for value in pool]
    keys = np.asarray(streams, dtype=np.uint64).reshape(-1)
    for shift in (0, 32):  # the stream's words; a key below 2^32 has one
        high = keys >> shift
        present = high > 0 if shift else True
        pool = [np.where(present, mix(value, hashmix(high & _MASK32)), value)
                for value in pool]
    const, state = _INIT_B, []
    for k in range(8):
        value = pool[k % 4] ^ const
        const = (const * _MULT_B) & _MASK32
        value = (value * const) & _MASK32
        state.append(value ^ (value >> 16))
    return np.stack([state[k] | (state[k + 1] << 32) for k in range(0, 8, 2)], axis=1)


class _SpawnedState:
    """A seed sequence that hands ``PCG64`` its one precomputed state row."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("only PCG64's generate_state(4, np.uint64) is precomputed")
        return self.words


def _draw_counts(dist: OutcomeDistribution, nu: int, seed: int,
                 streams: Iterable[int | None]) -> np.ndarray:
    """Counts of ``nu`` shots drawn from ``dist``, one row per stream in turn,
    each from ``default_rng(SeedSequence(entropy=seed, spawn_key=(stream,)))``
    bit for bit, or from ``default_rng(seed)`` for a ``None`` stream; the
    probabilities are clipped at zero and renormalised once for all."""
    if nu < 1:
        raise ValueError("nu must be a positive integer")
    # numpy.random loads here, so that importing the package does not load it
    from numpy.random import PCG64, Generator, default_rng
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_SpawnedState)
    probs = np.clip(dist.probabilities, 0.0, None)
    probs = probs / probs.sum()
    streams = list(streams)
    states = iter(_spawned_states(seed, [k for k in streams if k is not None]))
    counts = np.empty((len(streams), probs.size), dtype=np.int64)
    for row, k in zip(counts, streams):
        row[:] = (default_rng(seed) if k is None
                  else Generator(PCG64(_SpawnedState(next(states))))).multinomial(nu, probs)
    return counts


def sample_shots(dist: OutcomeDistribution, nu: int, seed: int, *,
                 stream: int | None = None) -> ShotRecord:
    """Multinomial draw of ``nu`` shots from an outcome distribution."""
    return ShotRecord(labels=dist.labels, counts=_draw_counts(dist, nu, seed, [stream])[0],
                      nu=nu, seed=seed, stream=stream)


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


class _MeanCurve:
    """The mean ``<O>(phi)`` of an observable and its slope over arrays of
    phases; a phase's value does not depend on the other phases of its batch.

    A generator model's curve is a trigonometric polynomial in the gaps of
    its centred generator. With ``M_jk = O'_jk rho_0'_kj`` in the frame (``O'
    = V^dagger O V``, ``rho_0' = C_0' C_0'^dagger``), ``<O>(phi) = sum_jk M_jk
    exp(i (g_j - g_k) phi) = a_0 + sum_w (c_w cos(w phi) + s_w sin(w phi))``
    over the distinct positive gaps ``w`` (pairs grouped where ``g_j - g_k``
    are exactly equal): ``a_0`` sums ``Re M`` over the zero gaps, ``c_w = 2
    Re sum M_jk`` and ``s_w = -2 Im sum M_jk`` over the pairs of gap ``w``;
    gaps whose two coefficients are zero are dropped. Under a diagonal
    generator (no ``V``) whose carrier has a support S (``model._support``),
    ``M`` is zero off ``S x S``, so the table is formed from ``O[S, S]``
    (``HermitianObservable._block``, which reads a product form site by
    site), ``C_0'[S]`` and ``g[S]``: the terms left out are exact zeros, and
    no ``d x d`` matrix is formed. The sums over the pairs of S round as
    the full table's wherever each holds at most two nonzero terms, as a
    GHZ carrier's do. A full support or a non-diagonal frame forms the
    table from the dense ``O'``. The coefficients are formed once, so a
    phase costs O(#gaps); phases run in chunks of at most ``_BATCH_ENTRIES
    / #gaps``. A curve of one gap ``w`` (any carrier of two generator
    levels) is the fringe ``a_0 + R cos(w phi - theta)`` of :meth:`fringe`,
    whose branches and inverse the estimator takes in closed form. A
    blackbox model's curve reads :func:`~.optimality._moments` of
    :func:`~.fisher.sld` at each phase, the dense reference.
    """

    def __init__(self, model: ParametricModel, obs: HermitianObservable) -> None:
        self._model, self._obs = model, obs
        self.gaps: np.ndarray | None = None
        if model.kind != "unitary_generator":
            return
        g, basis, _ = model._frame
        self._spread = float(np.abs(g).max())
        carrier = model._solution.carrier
        support = model._support if basis is None else None
        if support is not None:
            g, carrier, o = g[support], carrier[support], obs._block(support)
        else:
            o = obs.matrix if basis is None else basis.conj().T @ obs.matrix @ basis
        m = o * (carrier.conj() @ carrier.T)
        gaps = g[:, None] - g[None, :]
        constant = float(m.real[gaps == 0.0].sum())
        positive = gaps > 0.0
        gaps, index = np.unique(gaps[positive], return_inverse=True)
        cos = 2.0 * np.bincount(index, m.real[positive], gaps.size)
        sin = -2.0 * np.bincount(index, m.imag[positive], gaps.size)
        keep = (cos != 0.0) | (sin != 0.0)
        self.gaps, cos, sin = gaps[keep], cos[keep], sin[keep]
        # (constant, cos, sin) coefficients of the mean and of its derivative
        self._terms = ((constant, cos, sin), (0.0, self.gaps * sin, -self.gaps * cos))

    def _evaluate(self, phis, order: int) -> np.ndarray:
        phis = np.asarray(phis, dtype=float).reshape(-1)
        if self.gaps is None:
            moments = [_moments(self._model, self._obs, sld(self._model, phi))
                       for phi in phis.tolist()]
            return np.array([m.slope if order else m.mean for m in moments])
        constant, cos, sin = self._terms[order]
        out = np.empty(phis.size)
        chunk = max(1, fisher._BATCH_ENTRIES // max(1, self.gaps.size))
        for start in range(0, phis.size, chunk):
            angles = phis[start:start + chunk, None] * self.gaps
            out[start:start + chunk] = constant + (np.cos(angles) * cos
                                                   + np.sin(angles) * sin).sum(axis=1)
        return out

    def fringe(self) -> tuple[float, float, float, float] | None:
        """``(a, R, theta, w)`` with ``<O>(phi) = a + R cos(w phi - theta)``
        where the curve has one gap ``w``, else ``None``."""
        if self.gaps is None or self.gaps.size != 1:
            return None
        constant, cos, sin = self._terms[0]
        return (constant, math.hypot(cos[0], sin[0]), math.atan2(sin[0], cos[0]),
                float(self.gaps[0]))

    def mean(self, phis) -> np.ndarray:
        return self._evaluate(phis, 0)

    def slope(self, phis) -> np.ndarray:
        return self._evaluate(phis, 1)

    def check(self, phi: float, report: ErrorPropagationReport) -> None:
        """Raise :class:`ArithmeticError` where the curve's mean or slope at
        ``phi`` is farther from ``report``'s than their rounding allows.

        Both routes are exact functions of ``g``, ``V``, ``C_0'`` and O. A
        phase factor ``exp(-i g phi)``, ``cos(w phi)`` or ``sin(w phi)``
        carries ``eps |phi| s`` per entry, with ``s = max |g|``, and each
        product or sum of d terms ``c d eps``; ``sum |M_jk| <= ||O||_F
        ||rho_0'||_F <= ||O||_F``. So the means differ by at most ``u = K eps
        d (1 + |phi| s) ||O||_F`` with ``K = _CURVE_NOISE``, and the slopes,
        whose terms carry a gap of at most ``2 s``, by ``2 s u``. A product
        form's ``||O||_F`` is the product of its sites', ``sqrt(2 (a0^2 +
        |a|^2))``. A blackbox curve is the report's own route.
        """
        if self.gaps is None:
            return
        mean, slope = float(self.mean([phi])[0]), float(self.slope([phi])[0])
        sites = self._obs.product_form
        norm = (float(np.linalg.norm(self._obs.matrix)) if sites is None else
                math.prod(math.sqrt(2.0 * sum(c * c for c in quad)) for quad in sites))
        unit = _CURVE_NOISE * _EPS * self._model.dim * (1.0 + abs(phi) * self._spread) * norm
        if (abs(mean - report.mean) > unit
                or abs(slope - report.slope) > 2.0 * self._spread * unit):
            raise ArithmeticError(
                f"mean curve disagrees with the moments at phi={phi!r}: mean "
                f"{mean!r} vs {report.mean!r}, slope {slope!r} vs {report.slope!r}")


#: ITP constants (Oliveira & Takahashi, ACM TOMS 47(1), 2020): the truncation
#: ``delta = kappa_1 w^2`` has ``kappa_1 = _ITP_KAPPA1 / w_0``, and a bracket
#: may take ``_ITP_SLACK`` (their ``n_0``) steps more than bisection would
_ITP_KAPPA1, _ITP_SLACK = 0.1, 1


def _itp(f: Callable[[np.ndarray, np.ndarray], np.ndarray], lo: np.ndarray,
         hi: np.ndarray, f_lo: np.ndarray, f_hi: np.ndarray, target: np.ndarray,
         xtol: float = 1e-12) -> np.ndarray:
    """Solve ``f_i(phi) = target[i]`` on each bracket ``[lo[i], hi[i]]``,
    where ``f_lo[i] = f_i(lo[i])`` and ``f_hi[i] = f_i(hi[i])`` lie on either
    side of the target, by ITP steps (interpolate, truncate, project) on
    every bracket in lockstep.

    ``f(phis, rows)`` evaluates ``f_{rows[j]}`` at ``phis[j]``; each step
    calls it once, on one point of each open bracket ``[a, b]`` and the
    brackets' indices. The point starts at the regula falsi root ``x_f`` of
    the values at the ends, is moved ``delta = kappa_1 w^2`` toward the
    midpoint (``w = b - a``, never past it), and is then projected into
    ``r`` of the midpoint, the room that keeps the bracket on bisection's
    schedule. A point that rounds to an end moves one float inward (the
    truncation below an ulp), and one still not strictly inside ``(a, b)``,
    or not a number, is replaced by the midpoint: no end is evaluated, so
    no bracket closes on an end it already had. The point's value replaces
    the end on its side of the target: the values interpolate and their
    signs bracket. A bracket closes when it is at most ``xtol`` wide, when
    its point rounds to one of its ends, or when ``f`` there is exactly the
    target; its root is then the middle of what is left of it.

    Steps: with ``n_half = ceil(log2(w_0 / xtol))`` bisection's count and
    ``n_max = n_half + n_0``, step ``j`` (from 0) allows ``r_j = eps 2^(n_max
    - j) - w_j / 2``, so that the bracket after it is at most ``2 eps
    2^(n_max - j - 1)`` wide; after ``n_max`` steps it is at most ``2 eps``.
    The rounding of one step (its midpoint, its projected point and the
    width) adds at most ``2 ulp`` of the largest end ``m``, and a bracket
    that overshoots its schedule is halved, so the overshoot stays below
    ``2 eps_64 m``; planning with ``2 eps = xtol - 8 eps_64 m`` therefore
    closes every bracket within ``n_max`` steps (a zero ``xtol`` leaves no
    room and bisects).

    The constants. ``n_0 = 1`` gives the first step a room of at least ``w_0
    / 2``, the whole bracket, whatever ``w_0 / xtol``; with ``n_0 = 0`` it
    would depend on how far ``w_0 / xtol`` falls below a power of 2.
    ``kappa_2 = 2`` lies in ``[1, 1 + golden ratio)``, where the truncation
    keeps the interpolation's superlinear convergence near a simple root; it
    shrinks like the regula falsi error of a smooth ``f``. ``kappa_1 =
    0.1 / w_0`` makes the truncation scale-free, a tenth of the bracket at
    the start. The solver serves the curves and likelihoods that are no one
    fringe (more than two generator levels or outcome classes, a blackbox
    model) and the likelihood brackets that hold a turning point.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    roots = (lo + hi) / 2.0
    rows = np.flatnonzero(hi - lo > xtol)
    a, b, goal = lo[rows], hi[rows], target[rows]
    ya, yb = f_lo[rows] - goal, f_hi[rows] - goal
    width = b - a
    kappa = _ITP_KAPPA1 / width
    plan = np.maximum(xtol / 2.0 - 4.0 * _EPS * np.maximum(np.abs(a), np.abs(b)), 0.0)
    if xtol > 0.0:
        steps = np.ceil(np.log2(width / xtol)).astype(int)
        steps += np.ldexp(xtol, steps) < width
        steps -= np.ldexp(xtol, steps - 1) >= width
        plan = np.ldexp(plan, steps + _ITP_SLACK)
    while rows.size:
        mid = (a + b) / 2.0
        interpolated = a - ya * (width / (yb - ya))
        sigma = np.sign(mid - interpolated)
        projected = mid - sigma * (plan - width / 2.0)
        x = np.minimum(np.maximum(interpolated + sigma * (kappa * width * width),
                                  np.minimum(mid, projected)), np.maximum(mid, projected))
        # a point that rounds to an end moves one float inward; else the midpoint
        x = np.minimum(np.maximum(x, np.nextafter(a, b)), np.nextafter(b, a))
        x = np.where((a < x) & (x < b), x, mid)
        y = f(x, rows) - goal
        hit = y == 0.0
        low = (y < 0.0) == (ya < 0.0)
        edge = (x == a) | (x == b)
        a, b = np.where(low | hit, x, a), np.where(low & ~hit, b, x)
        ya, yb = np.where(low, y, ya), np.where(low, yb, y)
        width = b - a
        plan = plan / 2.0
        done = (width <= xtol) | edge
        if done.any():
            roots[rows[done]] = (a[done] + b[done]) / 2.0
            keep = ~done
            rows, a, b, ya, yb, goal, width, kappa, plan = (
                v[keep] for v in (rows, a, b, ya, yb, goal, width, kappa, plan))
    return roots


def _fringe_branch(fringe, phis):
    """The index ``k`` of the monotone branch ``[(theta + k pi) / w, (theta +
    (k + 1) pi) / w]`` of the fringe ``a + R cos(w phi - theta)`` that holds
    each phase (the upper one at a turning point)."""
    _, _, theta, w = fringe
    return np.floor((w * np.asarray(phis) - theta) / math.pi).astype(int)


def _fringe_phases(fringe, values, k):
    """The phases on branch ``k`` where the fringe ``(a, R, theta, w)``
    takes ``values``: ``(theta + k pi + arccos((-1)^k (v - a) / R)) / w``,
    the argument clipped into ``[-1, 1]``.

    Against an ITP solve on the same branch to ``xtol``, which stops within
    ``xtol / 2`` of a root of the fringe as its route evaluates it, within
    ``u`` of the exact one: ``a``, ``R``, ``theta``, the argument ``x`` and
    the sum carry a few ulps, and a change ``delta`` of ``x`` moves arccos
    by at most ``min(delta / sqrt(1 - (|x| + delta)^2), sqrt(2 delta))``, so
    the two differ by at most ``xtol / 2 + 2 min(...) / w + 4 eps (|theta| +
    (|k| + 1) pi) / w`` with ``delta = (u + 4 eps (|a| + |v| + R)) / R``:
    the conditioning grows like ``1 / sqrt(1 - x^2)`` toward a turning
    point, where the square root takes over."""
    a, radius, theta, w = fringe
    x = np.where(k % 2, a - values, values - a) / radius
    return (theta + k * math.pi + np.arccos(np.clip(x, -1.0, 1.0))) / w


def _branch_interval(curve: _MeanCurve, center: float, step: float) -> tuple[float, float]:
    """Monotone interval of the mean curve around ``center``. Each side
    walks outward in ``step``s up to ``2 pi``; its end is the first walk
    phase where the slope is 0, the stationary point solved between the
    walk phases where the slope's sign changes, or the last walk phase. A
    one-gap curve takes its branch in closed form, cut at the last walk
    phases."""
    fringe = curve.fringe()
    if fringe is not None:
        _, _, theta, w = fringe
        reach = (int(2.0 * math.pi / step) + 1) * step
        k = int(_fringe_branch(fringe, center))
        return (max((theta + k * math.pi) / w, center - reach),
                min((theta + (k + 1) * math.pi) / w, center + reach))
    center_slope = float(curve.slope([center])[0])
    sign_center = math.copysign(1.0, center_slope)
    # row 0 walks down, row 1 up
    walks = center + np.array([[-1.0], [1.0]]) * (np.arange(1, int(2.0 * math.pi / step) + 2)
                                                 * step)
    all_slopes = curve.slope(walks).reshape(walks.shape)
    ends, lo, hi, f_lo, f_hi = (np.empty(2) for _ in range(5))
    stationary = np.zeros(2, dtype=bool)
    for side, (phis, slopes) in enumerate(zip(walks, all_slopes)):
        changed = (slopes == 0.0) | (np.copysign(1.0, slopes) != sign_center)
        k = int(np.argmax(changed))
        if not changed[k] or slopes[k] == 0.0:
            ends[side] = phis[k] if changed[k] else phis[-1]
            continue
        stationary[side] = True
        prev = (center, center_slope) if k == 0 else (phis[k - 1], slopes[k - 1])
        (lo[side], f_lo[side]), (hi[side], f_hi[side]) = sorted((prev, (phis[k], slopes[k])))
    ends[stationary] = _itp(lambda phis, _: curve.slope(phis), lo[stationary],
                            hi[stationary], f_lo[stationary], f_hi[stationary],
                            np.zeros(int(stationary.sum())))
    return float(ends[0]), float(ends[1])


def _outcome_values(labels) -> np.ndarray:
    try:
        return np.array([float(label) for label in labels])
    except (TypeError, ValueError) as exc:
        raise ValueError("record labels must be numeric outcome values") from exc


def _sample_mean_estimates(counts: np.ndarray, model: ParametricModel,
                           obs: HermitianObservable, values: np.ndarray,
                           report: ErrorPropagationReport, branch_center: float
                           ) -> tuple[np.ndarray, np.ndarray, tuple[float, float]]:
    """Sample-mean estimates of count rows of ``report.nu`` shots whose
    outcomes have the numeric ``values``: the mean curve (checked against
    ``report`` at ``branch_center``), the monotone branch around it and its
    end means are set up once, then every in-branch sample mean is inverted
    in one lockstep :func:`_itp` solve, or in closed form on a one-gap
    curve. Returns the estimates, the mask of the means outside the branch
    image (estimated by the nearer end) and the branch."""
    curve = _MeanCurve(model, obs)
    curve.check(branch_center, report)
    n_sites = max(1, math.ceil(math.log2(model.dim)))
    lo, hi = _branch_interval(curve, branch_center, math.pi / (8.0 * n_sites))
    mean_lo, mean_hi = curve.mean([lo, hi]).tolist()
    low_value, high_value = sorted((mean_lo, mean_hi))
    means = (counts / report.nu * values).sum(axis=1)
    out_of_branch = ~((low_value <= means) & (means <= high_value))
    # outside the branch, the end whose mean is nearer (lo on a tie)
    phi_hat = np.where(np.abs(mean_lo - means) <= np.abs(mean_hi - means), lo, hi)
    phi_hat[means == mean_hi] = hi
    phi_hat[means == mean_lo] = lo
    inside = ~out_of_branch & (means != mean_lo) & (means != mean_hi)
    fringe = curve.fringe()
    if fringe is not None:
        phi_hat[inside] = np.clip(_fringe_phases(fringe, means[inside],
                                                 _fringe_branch(fringe, branch_center)), lo, hi)
    else:
        count = int(inside.sum())
        phi_hat[inside] = _itp(lambda phis, _: curve.mean(phis), np.full(count, lo),
                               np.full(count, hi), np.full(count, mean_lo),
                               np.full(count, mean_hi), means[inside])
    return phi_hat, out_of_branch, (lo, hi)


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
    phi_hat, out_of_branch, branch = _sample_mean_estimates(
        record.counts[None], model, obs, values, report, branch_center)
    return EstimatorResult(phi_hat=float(phi_hat[0]), method="sample_mean_inversion",
                           se_predicted=math.sqrt(report.delta_phi_sq),
                           out_of_branch=bool(out_of_branch[0]), branch=branch)


def _log_probabilities(probs: np.ndarray, floor: float = 1e-300) -> np.ndarray:
    """``np.log`` of each probability; ``-inf`` marks ``p <= floor``."""
    return np.log(probs, out=np.full(probs.shape, -np.inf), where=probs > floor)


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


def _positive_cfi(dist: OutcomeDistribution) -> float | None:
    """Classical Fisher information of ``dist``; ``None`` where it is zero or
    singular, so that no pointwise error prediction exists."""
    try:
        info = cfi(dist)
    except SingularOutcomeError:
        return None
    return info if info > 0.0 else None


def _mle_estimates(counts: np.ndarray, arrays: fisher._OutcomeRows,
                   search_interval: tuple[float, float]
                   ) -> tuple[np.ndarray, np.ndarray, tuple[float, float]]:
    """Maximum-likelihood estimates of the count rows ``counts`` in one pass.

    ``arrays`` is the run's outcome setup of the model and POVM: the grid's
    outcome probabilities and their slopes are computed once and shared by
    every row, and every score step reads the same rows. A row's best grid
    index ``b`` is searched only on the branch of the centre
    (:func:`_branch_cells`), so that a mirror image of the phase about a
    turning point of the likelihood is never taken. Where a row's score
    ``sum_x n_x p'_x / p_x`` (zero counts skipped) falls through zero
    across the bracket ``[grid[b - 1], grid[b + 1]]``,
    its estimate is the root, solved in lockstep with the other rows' by
    :func:`_itp` from the scores at the bracket's ends; otherwise the
    maximum sits at a bracket end, the one with the larger grid
    log-likelihood. Where the outcomes fall into two classes
    (:func:`_outcome_classes`), the counts, the grid, the branch and the
    scores are the classes', ``N_1 log P_1 + N_2 log P_2`` being the
    likelihood up to a constant, and a root whose bracket holds no turning
    point of ``P_1`` is ``P_1 = N_1 / (m_1 nu)`` on its branch, clipped into
    the bracket. Returns the estimates, an all-false clipped mask and the
    search interval, the estimates' branch.
    """
    lo, hi = (float(search_interval[0]), float(search_interval[1]))
    if not hi > lo:
        raise ValueError("search interval must have positive length")
    classes = _outcome_classes(arrays)
    if classes is not None:
        member, arrays, fringe, multiplicity = classes
        first = np.sum(counts, axis=1, where=member)
        counts = np.stack([first, counts.sum(axis=1) - first], axis=1)
    counts = counts.astype(float)

    def score(phis: np.ndarray, rows: np.ndarray) -> np.ndarray:
        probs, derivs = arrays(phis, 1)
        n = counts[rows]
        with np.errstate(divide="ignore", invalid="ignore"):  # zero counts are skipped
            return np.where(n > 0, n * derivs / probs, 0.0).sum(axis=1)

    grid = np.linspace(lo, hi, _MLE_GRID_POINTS)
    probs, derivs = arrays(grid, 1)
    values = _log_likelihoods(counts[:, None, :], _log_probabilities(probs)[None, :, :])
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
    # the branch's finite cells, or every finite cell of a row with none there
    pool = finite & _branch_cells(derivs)
    pool = np.where(pool.any(axis=1)[:, None], pool, finite)
    best = np.where(pool, values, -np.inf).max(axis=1)
    # grid ties are broken toward the interval center, then the lower index
    center = (lo + hi) / 2.0
    tie_tol = 1e-9 * np.maximum(1.0, np.abs(best))
    candidates = pool & (values >= (best - tie_tol)[:, None])
    best_idx = np.where(candidates, np.abs(grid - center), np.inf).argmin(axis=1)
    ends = np.stack([np.maximum(best_idx - 1, 0),
                     np.minimum(best_idx + 1, _MLE_GRID_POINTS - 1)])
    rows = np.arange(len(counts))
    s_lo, s_hi = score(grid[ends].ravel(), np.tile(rows, 2)).reshape(2, -1)
    # the bracket end with the larger grid value, the lower end on a tie
    phi_hat = grid[ends[values[rows, ends].argmax(axis=0), rows]]
    falls = np.flatnonzero((s_lo > 0.0) & (s_hi < 0.0))
    if classes is not None:  # the root P_1 = N_1 / (m_1 nu) where P_1 is monotone
        bracket = grid[ends[:, falls]]
        k = _fringe_branch(fringe, bracket)
        closed = k[0] == k[1]
        solved, n = falls[closed], counts[falls[closed]]
        phi_hat[solved] = np.clip(
            _fringe_phases(fringe, n[:, 0] / (multiplicity * n.sum(axis=1)), k[0, closed]),
            *bracket[:, closed])
        falls = falls[~closed]
    if falls.size:
        phi_hat[falls] = _itp(lambda phis, open_rows: score(phis, falls[open_rows]),
                              *grid[ends[:, falls]], s_lo[falls], s_hi[falls],
                              np.zeros(falls.size))
    return phi_hat, np.zeros(len(counts), dtype=bool), (lo, hi)


def _outcome_classes(arrays: fisher._OutcomeRows):
    """Where every outcome's fringe (``arrays.fringes()``) is one of exactly
    two, compared by value so that signed zeros do not split them: the mask
    of class 1 (the outcomes of outcome 0's fringe), an evaluator of the
    classes' clipped probabilities ``P_c`` and slopes, shaped as ``arrays``'
    order-1 output with one column per class and checked to give ``m_1 P_1 +
    m_2 P_2 = 1``, class 1's fringe ``(a, R, theta, w)`` and its
    multiplicity ``m_1``; else ``None``."""
    found = arrays.fringes()
    if found is None:
        return None
    w, table = found
    member = (table == table[:, :1]).all(axis=0)
    other = table[:, int(np.argmin(member))]
    if member.all() or not (member | (table == other[:, None]).all(axis=0)).all():
        return None
    a, c, s = np.stack([table[:, 0], other], axis=1)
    weights = np.array([member.sum(), member.size - member.sum()], dtype=float)

    def evaluate(phis, order: int) -> np.ndarray:
        angles = w * np.asarray(phis, dtype=float).reshape(-1, 1)
        cos, sin = np.cos(angles), np.sin(angles)
        out = np.stack([a + c * cos + s * sin, w * (s * cos - c * sin)])
        np.clip(out[0], 0.0, 1.0, out=out[0])
        fisher._check_totals(out[0] * weights, out[1] * weights)
        return out

    fringe = (a[0], math.hypot(c[0], s[0]), math.atan2(s[0], c[0]), w)
    return member, evaluate, fringe, weights[0]


def _branch_cells(derivs: np.ndarray) -> np.ndarray:
    """The mask of the grid cells between the nearest sign changes, on each
    side of the centre cell, of ``p'`` of the outcome whose ``|p'|`` is the
    largest at the centre (``derivs`` holds ``p'`` per grid phase and
    outcome); every cell where that ``p'`` is zero at the centre. A zero
    ``p'`` counts as a change."""
    mid = derivs.shape[0] // 2
    signs = np.sign(derivs[:, np.argmax(np.abs(derivs[mid]))])
    if signs[mid] == 0.0:
        return np.ones(signs.size, dtype=bool)
    changed = np.flatnonzero(signs != signs[mid])
    cells = np.arange(signs.size)
    return ((cells > changed[changed < mid].max(initial=-1))
            & (cells < changed[changed > mid].min(initial=signs.size)))


def estimate_phi_mle(record: ShotRecord, model: ParametricModel, povm: Povm,
                     search_interval: tuple[float, float]) -> EstimatorResult:
    """Maximum-likelihood phase estimate over a search interval.

    Coarse scan of a 65-point grid on the branch of the interval center,
    whose ties are broken toward the center, then an ITP solve of the score
    ``sum_x n_x p'_x / p_x`` down to a 1e-12 bracket where it falls through
    zero across the best cell's neighbours (reading its values to
    interpolate and its signs to bracket, on outcome rows set up once), or
    else the neighbour with the larger grid log-likelihood; on two outcome
    classes, the root in closed form (:func:`_mle_estimates`). Raises
    :class:`FlatLikelihoodError` when the likelihood carries no phase
    dependence over the interval.
    """
    arrays = fisher._OutcomeRows(model, povm)
    phi_hat, _, branch = _mle_estimates(record.counts[None], arrays, search_interval)
    info = _positive_cfi(arrays.distribution(float(phi_hat[0])))
    se_predicted = None if info is None else 1.0 / math.sqrt(record.nu * info)
    return EstimatorResult(phi_hat=float(phi_hat[0]), method="maximum_likelihood",
                           se_predicted=se_predicted, branch=branch)


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
    """Search interval ``branch_center +- 0.9 * pi / (2 N)``, nine tenths of
    the width of a monotone branch of a GHZ-type likelihood. It is centred
    on the phase, not on the branch, so it may hold a turning point and the
    phase's mirror image about it; the search keeps to the center's branch
    (:func:`_branch_cells`)."""
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
               estimates: np.ndarray, n_clipped: int,
               predicted_delta_phi_sq: float | None, qcrb: float) -> SimulationSummary:
    decomposition = estimator_error_decomposition(estimates, phi_true)
    return SimulationSummary(
        method=method, phi_true=phi_true, nu=nu, trials=estimates.size, seed=seed,
        estimates=estimates, mse=decomposition.total, decomposition=decomposition,
        se_empirical=float(np.std(estimates, ddof=1)),
        predicted_delta_phi_sq=predicted_delta_phi_sq, qcrb=qcrb, n_clipped=n_clipped)


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
    estimates, clipped, _ = _sample_mean_estimates(
        _draw_counts(dist, nu, seed, range(trials)), model, obs,
        _outcome_values(povm.labels), report, center)
    return _summarize("sample_mean_inversion", phi_true, nu, seed, estimates,
                      int(clipped.sum()), predicted_delta_phi_sq=report.delta_phi_sq,
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
    arrays = fisher._OutcomeRows(model, povm)
    dist = arrays.distribution(phi_true)
    info = _positive_cfi(dist)
    predicted = None if info is None else 1.0 / (nu * info)
    qcrb = 1.0 / (nu * qfi(model, phi_true))
    estimates, clipped, _ = _mle_estimates(_draw_counts(dist, nu, seed, range(trials)),
                                           arrays, interval)
    return _summarize("maximum_likelihood", phi_true, nu, seed, estimates,
                      int(clipped.sum()), predicted_delta_phi_sq=predicted, qcrb=qcrb)
