"""Tests for shot sampling, estimators, and Monte Carlo aggregation."""

import math
from dataclasses import replace
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from qcrb_lab import (
    DensityMatrix,
    DimensionMismatchError,
    FlatLikelihoodError,
    HermitianObservable,
    InsufficientTrialsError,
    OutcomeDistribution,
    Povm,
    PureState,
    ShotRecord,
    SingularOutcomeError,
    SingularSensitivityError,
    blackbox_model,
    cfi,
    collective_spin,
    default_mle_interval,
    eigenprojector_povm,
    error_propagation,
    estimate_phi_mle,
    estimate_phi_sample_mean,
    exact_record,
    ghz_model,
    outcome_distribution,
    product_basis_povm,
    product_observable,
    run_mle_trials,
    run_sample_mean_trials,
    sample_shots,
    sld,
    unitary_model,
    verify_clt_link,
)
from qcrb_lab import fisher, simulate
from qcrb_lab.fisher import _OutcomeRows
from qcrb_lab.optimality import _moments

from conftest import random_density, random_hermitian, ref_frame, ref_frame_solution

SX2 = product_observable([(0.0, 1.0, 0.0, 0.0)] * 2)
PHI_RATIONAL = math.pi / 6  # eigenvalue probabilities (0.25, 0.75): exact counts


def sx2_distribution(phi, nu_basis="eig"):
    model = ghz_model(2)
    povm = eigenprojector_povm(SX2)
    return outcome_distribution(model, phi, povm, second_order=False)


def computational_povm(dim):
    elements = tuple(np.diag([1.0 if i == k else 0.0 for i in range(dim)])
                     .astype(complex) for k in range(dim))
    return Povm(elements)


class TestSampleShots:
    def test_deterministic_for_fixed_seed(self):
        dist = sx2_distribution(0.4)
        first = sample_shots(dist, 1000, 42)
        second = sample_shots(dist, 1000, 42)
        assert np.array_equal(first.counts, second.counts)
        assert first.labels == second.labels

    def test_streams_differ(self):
        dist = sx2_distribution(0.4)
        a = sample_shots(dist, 1000, 42, stream=0)
        b = sample_shots(dist, 1000, 42, stream=1)
        assert not np.array_equal(a.counts, b.counts)

    def test_deterministic_distribution(self):
        dist = OutcomeDistribution(labels=(1.0, -1.0),
                                   probabilities=np.array([1.0, 0.0]),
                                   derivatives=np.array([0.0, 0.0]))
        record = sample_shots(dist, 500, 7)
        assert record.counts[0] == 500
        assert record.counts[1] == 0

    def test_binomial_concentration(self):
        dist = OutcomeDistribution(labels=(1.0, -1.0),
                                   probabilities=np.array([0.5, 0.5]),
                                   derivatives=np.array([0.0, 0.0]))
        nu = 10 ** 6
        record = sample_shots(dist, nu, 3)
        sigma = math.sqrt(nu / 4.0)
        assert abs(record.counts[0] - nu / 2.0) <= 5.0 * sigma

    def test_single_draws_are_rows_of_the_count_array(self):
        dist = outcome_distribution(ghz_model(2), 0.4, product_basis_povm("x", 2))
        counts = simulate._draw_counts(dist, 1000, 42, range(8))
        assert counts.shape == (8, 4) and counts.dtype == np.int64
        for k, row in enumerate(counts):
            assert np.array_equal(sample_shots(dist, 1000, 42, stream=k).counts, row)
        unstreamed = simulate._draw_counts(dist, 1000, 42, [None])[0]
        assert np.array_equal(sample_shots(dist, 1000, 42).counts, unstreamed)

    def test_counts_must_sum_to_nu(self):
        with pytest.raises(ValueError, match="sum"):
            ShotRecord(labels=(0, 1), counts=np.array([3, 3]), nu=7, seed=0)


SPAWN_SEEDS = (0, 1, 5, 12345, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 17, 2 ** 64 + 3, 2 ** 127 + 99)


class TestSpawnedStreams:
    """All trial streams are seeded at once, with numpy's bits."""

    @pytest.mark.parametrize("seed", SPAWN_SEEDS)
    def test_states_are_numpys(self, seed):
        """Seeds of one to five 32-bit words, streams 0-299 and streams of
        two words."""
        streams = [*range(300), 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 5, 2 ** 50 + 3, 2 ** 64 - 1]
        expected = np.stack([
            np.random.SeedSequence(entropy=seed, spawn_key=(k,)).generate_state(4, np.uint64)
            for k in streams])
        got = simulate._spawned_states(seed, streams)
        assert got.dtype == np.uint64 and np.array_equal(got, expected)

    @pytest.mark.parametrize("seed", [0, 3, 2 ** 40 + 17])
    def test_draws_are_the_per_trial_generators(self, seed):
        """Each row is the draw of ``default_rng(SeedSequence(entropy=seed,
        spawn_key=(k,)))``, the per-trial construction the streams replace."""
        dist = outcome_distribution(ghz_model(3), 0.3, product_basis_povm("x", 3))
        probs = np.clip(dist.probabilities, 0.0, None)
        probs = probs / probs.sum()
        expected = [np.random.default_rng(np.random.SeedSequence(
            entropy=seed, spawn_key=(k,))).multinomial(700, probs) for k in range(50)]
        assert np.array_equal(simulate._draw_counts(dist, 700, seed, range(50)), expected)

    def test_only_pcg64s_request_is_answered(self):
        state = simulate._SpawnedState(simulate._spawned_states(1, [0])[0])
        assert np.array_equal(state.generate_state(4, np.uint64),
                              np.random.SeedSequence(1, spawn_key=(0,)).generate_state(
                                  4, np.uint64))
        for args in ((4, np.uint32), (2, np.uint64), (8,)):
            with pytest.raises(ValueError, match="precomputed"):
                state.generate_state(*args)

    @pytest.mark.parametrize("seed,streams", [(-1, [0]), (3, [0, -2])])
    def test_negative_seed_or_stream_is_refused(self, seed, streams):
        """As ``SeedSequence`` refuses them, with its message."""
        with pytest.raises(ValueError, match="expected non-negative integer"):
            simulate._spawned_states(seed, streams)


class TestSampleMeanEstimator:
    def test_exact_record_inverts_to_truth(self):
        dist = sx2_distribution(PHI_RATIONAL)
        record = exact_record(dist, 1000)
        assert tuple(record.counts) == (250, 750)
        result = estimate_phi_sample_mean(record, SX2, ghz_model(2), PHI_RATIONAL)
        assert abs(result.phi_hat - PHI_RATIONAL) <= 1e-9
        assert not result.out_of_branch

    def test_se_predicted_matches_error_propagation(self):
        phi = math.pi / 8
        record = exact_record(sx2_distribution(phi), 10 ** 5)
        result = estimate_phi_sample_mean(record, SX2, ghz_model(2), phi)
        assert result.se_predicted == pytest.approx(
            1.0 / (math.sqrt(10 ** 5) * 2.0), rel=1e-9)

    def test_phi_hat_within_branch(self):
        rng_record = sample_shots(sx2_distribution(0.5), 2000, 11)
        result = estimate_phi_sample_mean(rng_record, SX2, ghz_model(2), 0.5)
        lo, hi = result.branch
        assert lo <= result.phi_hat <= hi

    def test_out_of_branch_mean_is_clipped_and_flagged(self):
        record = ShotRecord(labels=(2.0, -2.0), counts=np.array([1000, 0]),
                            nu=1000, seed=-1)
        result = estimate_phi_sample_mean(record, SX2, ghz_model(2), 0.5)
        assert result.out_of_branch
        lo, hi = result.branch
        assert result.phi_hat in (lo, hi)

    def test_singular_branch_center_rejected(self):
        record = exact_record(sx2_distribution(PHI_RATIONAL), 1000)
        with pytest.raises(SingularSensitivityError):
            estimate_phi_sample_mean(record, SX2, ghz_model(2), 0.0)


class TestMleEstimator:
    def test_flat_likelihood_on_computational_basis(self):
        model = ghz_model(2)
        povm = computational_povm(4)
        record = sample_shots(outcome_distribution(model, 0.4, povm,
                                                   second_order=False), 1000, 9)
        with pytest.raises(FlatLikelihoodError):
            estimate_phi_mle(record, model, povm, default_mle_interval(model, 0.4))

    def test_exact_record_recovers_truth(self):
        model = ghz_model(2)
        povm = product_basis_povm("x", 2)
        dist = outcome_distribution(model, PHI_RATIONAL, povm, second_order=False)
        record = exact_record(dist, 1000)
        assert tuple(record.counts) == (375, 125, 125, 375)
        result = estimate_phi_mle(record, model, povm,
                                  default_mle_interval(model, PHI_RATIONAL))
        assert abs(result.phi_hat - PHI_RATIONAL) <= 1e-8

    def test_estimate_stays_in_interval(self):
        model = ghz_model(2)
        povm = product_basis_povm("x", 2)
        record = sample_shots(outcome_distribution(model, 0.6, povm,
                                                   second_order=False), 5000, 21)
        interval = (0.2, 1.0)
        result = estimate_phi_mle(record, model, povm, interval)
        assert interval[0] <= result.phi_hat <= interval[1]

    @pytest.mark.parametrize("n, axis, phi", [(10, "x", 0.05), (9, "y", math.pi / 18 - 0.05)])
    def test_search_keeps_to_the_branch_of_the_phase(self, n, axis, phi):
        """The default interval ``phi +- 0.45 pi / N`` holds a turning point
        of the GHZ likelihood, 0 for the x product and ``pi / 2N`` for the y
        product at odd N, and so the phase's mirror image about it, which
        has the same likelihood; searching only the branch of the phase
        brings the MSE of 200 trials within 5 standard errors, ``5 sqrt(2 /
        trials)`` of itself, of ``1 / (nu N^2)``."""
        nu, trials = 1000, 200
        summary = run_mle_trials(ghz_model(n), product_basis_povm(axis, n), phi, nu,
                                 trials, 7)
        expected = 1.0 / (nu * n * n)
        assert abs(summary.mse - expected) <= 5.0 * expected * math.sqrt(2.0 / trials)


class TestCltLink:
    def test_fair_coin_means(self):
        dist = OutcomeDistribution(labels=(1.0, -1.0),
                                   probabilities=np.array([0.5, 0.5]),
                                   derivatives=np.array([0.0, 0.0]))
        nu = 10 ** 4
        values = np.array([1.0, -1.0])
        means = []
        for i in range(500):
            record = sample_shots(dist, nu, 13, stream=i)
            means.append(float(values @ record.frequencies()))
        report = verify_clt_link(means, 1.0, nu)
        assert report.within_three_se
        assert report.empirical_variance == pytest.approx(1.0 / nu, rel=0.2)

    def test_ghz_observable_means(self):
        phi = math.pi / 8
        dist = sx2_distribution(phi)
        variance = 1.0 - math.cos(2 * phi) ** 2
        nu = 10 ** 4
        values = np.array([float(l) for l in dist.labels])
        means = []
        for i in range(400):
            record = sample_shots(dist, nu, 17, stream=i)
            means.append(float(values @ record.frequencies()))
        report = verify_clt_link(means, variance, nu)
        assert report.within_three_se
        assert report.empirical_variance == pytest.approx(variance / nu, rel=0.2)

    def test_deterministic_distribution_has_zero_spread(self):
        dist = OutcomeDistribution(labels=(1.0, -1.0),
                                   probabilities=np.array([1.0, 0.0]),
                                   derivatives=np.array([0.0, 0.0]))
        means = []
        for i in range(150):
            record = sample_shots(dist, 100, 1, stream=i)
            means.append(float(np.array([1.0, -1.0]) @ record.frequencies()))
        report = verify_clt_link(means, 0.0, 100)
        assert report.empirical_variance == 0.0

    def test_too_few_trials(self):
        with pytest.raises(InsufficientTrialsError):
            verify_clt_link(np.zeros(50), 1.0, 100)


class TestTrialRuns:
    def test_sample_mean_determinism(self):
        model = ghz_model(2)
        a = run_sample_mean_trials(model, SX2, math.pi / 8, 2000, 20, seed=4)
        b = run_sample_mean_trials(model, SX2, math.pi / 8, 2000, 20, seed=4)
        assert np.array_equal(a.estimates, b.estimates)
        assert a.mse == b.mse

    def test_decomposition_identity_on_trials(self):
        model = ghz_model(2)
        summary = run_sample_mean_trials(model, SX2, math.pi / 8, 2000, 40, seed=4)
        dec = summary.decomposition
        assert summary.mse == pytest.approx(
            dec.variance_term + dec.bias_term, abs=1e-9)

    def test_error_ordering_with_statistical_slack(self):
        """Empirical MSE >= predicted >= QCRB within 3 standard errors."""
        model = ghz_model(2)
        summary = run_sample_mean_trials(model, SX2, math.pi / 8, 10 ** 4, 150,
                                         seed=8)
        spread = summary.mse * math.sqrt(2.0 / (summary.trials - 1))
        assert summary.mse >= summary.predicted_delta_phi_sq - 3.0 * spread
        assert summary.predicted_delta_phi_sq >= summary.qcrb - 1e-12

    def test_mse_scales_inversely_with_nu(self):
        """log-log slope of MSE vs nu is -1 within +-0.1, and the end-to-end
        ratio over two decades is ~100."""
        model = ghz_model(2)
        nus = [10 ** 3, 10 ** 4, 10 ** 5]
        mses = [run_sample_mean_trials(model, SX2, math.pi / 8, nu, 150,
                                       seed=6).mse for nu in nus]
        slope = np.polyfit(np.log10(nus), np.log10(mses), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.1)
        assert mses[0] / mses[2] == pytest.approx(100.0, rel=0.3)

    def test_mle_trials_close_to_crb(self):
        model = ghz_model(2)
        povm = product_basis_povm("x", 2)
        summary = run_mle_trials(model, povm, math.pi / 8, 10 ** 4, 100, seed=4)
        assert summary.mse == pytest.approx(1.0 / (10 ** 4 * 4.0), rel=0.5)
        assert summary.predicted_delta_phi_sq == pytest.approx(
            1.0 / (10 ** 4 * 4.0), rel=1e-6)


class TestEstimatorErrors:
    def test_unrelated_cfi_error_propagates(self, monkeypatch):
        model = ghz_model(2)
        povm = product_basis_povm("x", 2)
        record = exact_record(outcome_distribution(model, PHI_RATIONAL, povm), 1000)

        def broken(dist):
            raise RuntimeError("cfi is broken")

        monkeypatch.setattr(simulate, "cfi", broken)
        with pytest.raises(RuntimeError, match="cfi is broken"):
            estimate_phi_mle(record, model, povm,
                             default_mle_interval(model, PHI_RATIONAL))
        with pytest.raises(RuntimeError, match="cfi is broken"):
            run_mle_trials(model, povm, PHI_RATIONAL, 1000, 3, seed=1)

    def test_singular_cfi_leaves_se_undefined(self, monkeypatch):
        model = ghz_model(2)
        povm = product_basis_povm("x", 2)
        record = exact_record(outcome_distribution(model, PHI_RATIONAL, povm), 1000)

        def singular(dist):
            raise SingularOutcomeError("diverges")

        monkeypatch.setattr(simulate, "cfi", singular)
        result = estimate_phi_mle(record, model, povm,
                                  default_mle_interval(model, PHI_RATIONAL))
        assert result.se_predicted is None
        summary = run_mle_trials(model, povm, PHI_RATIONAL, 1000, 3, seed=1)
        assert summary.predicted_delta_phi_sq is None

    def test_flat_error_comes_from_lowest_index_trial(self):
        model = ghz_model(2)
        arrays = _OutcomeRows(model, computational_povm(4))
        interval = default_mle_interval(model, 0.4)
        # outcomes |01>, |10> never fire; |00>, |11> fire with phase-free odds
        flat, impossible = [5, 0, 0, 5], [5, 5, 0, 0]
        with pytest.raises(FlatLikelihoodError, match="does not depend"):
            simulate._mle_estimates(np.array([flat, impossible]), arrays, interval)
        with pytest.raises(FlatLikelihoodError, match="-inf over the whole"):
            simulate._mle_estimates(np.array([impossible, flat]), arrays, interval)


# --- reference: the per-trial estimators, one record and one phase at a time --

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _reference_log_probabilities(probs, floor=1e-300):
    """``np.log`` of each probability; ``-inf`` marks ``p <= floor``."""
    return np.log(probs, out=np.full(probs.shape, -np.inf), where=probs > floor)


def _reference_log_likelihood(counts, probs, floor=1e-300):
    logs = _reference_log_probabilities(probs, floor)
    total = 0.0
    for count, p, log_p in zip(counts, probs, logs):
        if count == 0:
            continue
        if p <= floor:
            return -math.inf
        total += float(count) * float(log_p)
    return total


def _reference_golden_max(fn, lo, hi, xtol):
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = fn(c), fn(d)
    while hi - lo > xtol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = fn(d)
    return (lo + hi) / 2.0


def _reference_newton_step(record, model, povm, phi, lo, hi):
    """One Newton step on the score from ``phi``, kept where it is finite,
    the curvature negative and the new point in ``[lo, hi]``."""
    dist = outcome_distribution(model, phi, povm)
    score, curvature = 0.0, 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for count, p, dp, d2p in zip(record.counts, dist.probabilities,
                                     dist.derivatives, dist.second_derivatives):
            if count == 0:
                continue
            ratio = dp / p
            score += count * ratio
            curvature += count * (d2p / p - ratio * ratio)
        stepped = phi - score / curvature
    if np.isfinite(stepped) and curvature < 0.0 and lo <= stepped <= hi:
        return float(stepped)
    return phi


def _reference_branch(slopes):
    """The grid indices from the centre index outward until ``p'`` of the
    outcome with the largest ``|p'|`` at the centre changes sign or
    vanishes, from ``slopes``, ``p'`` per grid phase (one at a time) and
    outcome; every index where it vanishes there."""
    mid = len(slopes) // 2
    column = slopes[:, int(np.argmax(np.abs(slopes[mid])))]
    sign = np.sign(column[mid])
    if sign == 0.0:
        return set(range(len(slopes)))
    branch = {mid}
    for step in (-1, 1):
        i = mid + step
        while 0 <= i < len(slopes) and np.sign(column[i]) == sign:
            branch.add(i)
            i += step
    return branch


def _reference_bracket(arrays, counts, search_interval, grid_points=65):
    """The grid, its log-likelihoods and the grid indices of the bracket
    ``[grid[b - 1], grid[b + 1]]`` around the best index ``b`` on the
    centre's branch (every finite index where the branch has none; ties
    broken toward the interval centre, then the lower index), one phase at
    a time; ``arrays(phi)`` gives ``(p, p')`` per outcome (or class) whose
    ``counts`` a record holds."""
    lo, hi = (float(search_interval[0]), float(search_interval[1]))
    grid = np.linspace(lo, hi, grid_points)
    at = [arrays(p) for p in grid]
    values = np.array([_reference_log_likelihood(counts, probs) for probs, _ in at])
    finite = np.isfinite(values)
    branch = _reference_branch(np.array([derivs for _, derivs in at]))
    pool = [i for i in range(grid_points) if finite[i] and i in branch] or \
        [i for i in range(grid_points) if finite[i]]
    best = float(max(values[i] for i in pool))
    center = (lo + hi) / 2.0
    tie_tol = 1e-9 * max(1.0, abs(best))
    candidates = [i for i in pool if values[i] >= best - tie_tol]
    best_idx = min(candidates, key=lambda i: (abs(grid[i] - center), i))
    return grid, values, max(best_idx - 1, 0), min(best_idx + 1, grid_points - 1)


def reference_log_likelihood(record, model, povm, phi):
    return _reference_log_likelihood(
        record.counts, outcome_distribution(model, phi, povm, second_order=False).probabilities)


def _outcome_arrays(model, povm):
    """``phi -> (p, p')`` per outcome, one phase at a time."""
    def at(phi):
        dist = outcome_distribution(model, phi, povm, second_order=False)
        return dist.probabilities, dist.derivatives
    return at


def _reference_score(counts, probs, derivs):
    """``sum n p' / p`` over the counted outcomes (or classes)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.where(counts > 0, counts * derivs / probs, 0.0).sum())


def reference_score(record, model, povm, phi):
    """``sum_x n_x p'_x / p_x`` over the counted outcomes of one record."""
    return _reference_score(record.counts, *_outcome_arrays(model, povm)(phi))


def reference_classes(model, povm):
    """``(member, fringes, w)`` where the outcome fringes ``(a, c, s)`` of
    the setup (``_OutcomeRows.fringes``), compared as Python floats (so
    that ``-0.0 == 0.0``), take exactly two values: ``member[x]`` marks the
    outcomes of outcome 0's fringe (class 1), ``fringes`` holds class 1's
    and class 2's; else ``None``."""
    found = _OutcomeRows(model, povm).fringes()
    if found is None:
        return None
    w, table = found
    fringes = [tuple(column) for column in table.T.tolist()]
    if len(set(fringes)) != 2:
        return None
    member = [f == fringes[0] for f in fringes]
    return member, (fringes[0], fringes[member.index(False)]), w


def _class_arrays(classes):
    """``phi -> (P, P')`` of the two classes, one phase at a time: ``P_c = a
    + c cos(w phi) + s sin(w phi)`` clipped into [0, 1], ``P'_c = w (s
    cos(w phi) - c sin(w phi))``."""
    _, fringes, w = classes

    def at(phi):
        angle = w * phi
        cos, sin = np.cos(angle), np.sin(angle)
        return (np.array([min(max(a + c * cos + s * sin, 0.0), 1.0) for a, c, s in fringes]),
                np.array([w * (s * cos - c * sin) for a, c, s in fringes]))
    return at


def _reference_fringe_phase(fringe, value, k):
    """The phase on branch ``k`` of ``a + R cos(w phi - theta)`` where it
    takes ``value``, one value at a time."""
    a, radius, theta, w = fringe
    x = ((a - value) if k % 2 else (value - a)) / radius
    return (theta + k * math.pi + float(np.arccos(np.clip(x, -1.0, 1.0)))) / w


def _reference_class_mle(record, classes, search_interval, closed=True):
    """The class route of one record: class counts ``(N_1, N_2)``, the grid
    and bracket on the two class columns, then, where the class score falls
    through zero across the bracket, the root ``P_1 = N_1 / (m_1 nu)`` in
    closed form on class 1's branch if both ends lie on it (and ``closed``),
    else a scalar ITP solve of the class score; otherwise the bracket end
    with the larger grid log-likelihood. Returns the estimate and its route:
    ``"end"``, ``"closed"``, ``"itp"`` (not ``closed``) or ``"turning"``
    (a bracket that holds a turning point)."""
    member, fringes, w = classes
    first = sum(int(n) for n, m in zip(record.counts, member) if m)
    counts = np.array([first, record.nu - first], dtype=float)
    arrays = _class_arrays(classes)
    grid, values, lo_i, hi_i = _reference_bracket(arrays, counts, search_interval)

    def score(phi):
        return _reference_score(counts, *arrays(phi))

    lo, hi = grid[lo_i], grid[hi_i]
    if not score(lo) > 0.0 > score(hi):
        return (grid[hi_i] if values[hi_i] > values[lo_i] else grid[lo_i]), "end"
    a, c, s = fringes[0]
    fringe = (a, math.hypot(c, s), math.atan2(s, c), w)
    k_lo, k_hi = (math.floor((w * x - fringe[2]) / math.pi) for x in (lo, hi))
    if k_lo != k_hi:
        return reference_itp(score, float(lo), float(hi), 0.0), "turning"
    if closed:
        target = counts[0] / (sum(member) * (counts[0] + counts[1]))
        return min(max(_reference_fringe_phase(fringe, target, k_lo), lo), hi), "closed"
    return reference_itp(score, float(lo), float(hi), 0.0), "itp"


def _mle_result(record, model, povm, search_interval, phi_hat):
    try:
        info = cfi(outcome_distribution(model, phi_hat, povm))
        se_predicted = 1.0 / math.sqrt(record.nu * info) if info > 0.0 else None
    except SingularOutcomeError:
        se_predicted = None
    return simulate.EstimatorResult(
        phi_hat=float(phi_hat), method="maximum_likelihood", se_predicted=se_predicted,
        branch=tuple(float(end) for end in search_interval))


def reference_mle(record, model, povm, search_interval):
    """Grid, bracket, then a scalar ITP solve of the record's score where it
    falls through zero across the bracket; else the bracket end with the
    larger grid log-likelihood, the lower end on a tie. Where the outcomes
    fall into two classes (``reference_classes``), the class route of
    ``_reference_class_mle``."""
    classes = reference_classes(model, povm)
    if classes is not None:
        phi_hat, _ = _reference_class_mle(record, classes, search_interval)
        return _mle_result(record, model, povm, search_interval, phi_hat)
    grid, values, lo_i, hi_i = _reference_bracket(_outcome_arrays(model, povm), record.counts,
                                                  search_interval)

    def score(phi):
        return reference_score(record, model, povm, phi)

    if score(grid[lo_i]) > 0.0 > score(grid[hi_i]):
        phi_hat = reference_itp(score, float(grid[lo_i]), float(grid[hi_i]), 0.0)
    else:
        phi_hat = grid[hi_i] if values[hi_i] > values[lo_i] else grid[lo_i]
    return _mle_result(record, model, povm, search_interval, phi_hat)


def golden_newton_mle(record, model, povm, search_interval):
    """The earlier refinement, kept as an independent cross-check: a
    golden-section search of the bracket on log-likelihood values down to
    1e-10, then one Newton step on the score."""
    grid, _, lo_i, hi_i = _reference_bracket(_outcome_arrays(model, povm), record.counts,
                                             search_interval)
    bracket = (float(grid[lo_i]), float(grid[hi_i]))
    phi_hat = _reference_newton_step(
        record, model, povm,
        _reference_golden_max(lambda phi: reference_log_likelihood(record, model, povm, phi),
                              *bracket, 1e-10),
        *bracket)
    return _mle_result(record, model, povm, search_interval, phi_hat)


def moments_curve(model, obs):
    """``phi -> (<O>, d<O>/dphi)`` from ``_moments`` of ``sld`` at ``phi``."""
    def at(phi):
        moments = _moments(model, obs, sld(model, phi))
        return moments.mean, moments.slope
    return at


def harmonic_curve(model, obs):
    """``phi -> (<O>, d<O>/dphi)`` of a generator model from the harmonic
    sum of ``harmonic_terms``, one phase at a time. A blackbox model's curve
    is ``moments_curve``."""
    if model.kind != "unitary_generator":
        return moments_curve(model, obs)
    constant, gaps, cos, sin = harmonic_terms(model, obs)

    def at(phi):
        angles = phi * gaps
        mean = constant + (np.cos(angles) * cos + np.sin(angles) * sin).sum()
        slope = 0.0 + (np.cos(angles) * (gaps * sin) + np.sin(angles) * (-gaps * cos)).sum()
        return float(mean), float(slope)
    return at


def harmonic_terms(model, obs):
    """``(a_0, gaps, c_w, s_w)`` of a generator model's mean curve over the
    gaps of its centred generator: ``M_jk = O'_jk rho_0'_kj`` in the frame,
    ``Re M`` summed over the zero gaps, and ``c_w = 2 Re sum M_jk``, ``s_w =
    -2 Im sum M_jk`` accumulated in row-major order over the pairs with
    ``g_j - g_k = w > 0``, sorted by ``w``; gaps with ``c_w = s_w = 0`` are
    dropped."""
    g, basis = ref_frame(model.generator)
    o = obs.matrix if basis is None else basis.conj().T @ obs.matrix @ basis
    carrier = ref_frame_solution(model)[0]
    m = o * (carrier.conj() @ carrier.T)
    constant, sums = [], {}
    for j in range(model.dim):
        for k in range(model.dim):
            gap = g[j] - g[k]
            if gap == 0.0:
                constant.append(m[j, k].real)
            if gap > 0.0:
                re, im = sums.get(gap, (0.0, 0.0))
                sums[gap] = (re + m[j, k].real, im + m[j, k].imag)
    terms = [(gap, 2.0 * re, -2.0 * im) for gap, (re, im) in sorted(sums.items())
             if re != 0.0 or im != 0.0]
    return (float(np.sum(constant)),
            *(np.array([term[i] for term in terms]) for i in range(3)))


def reference_fringe(model, obs):
    """``(a, R, theta, w)`` of a generator model's mean curve where
    ``harmonic_terms`` hold one gap, else ``None``."""
    if model.kind != "unitary_generator":
        return None
    constant, gaps, cos, sin = harmonic_terms(model, obs)
    if gaps.size != 1:
        return None
    return constant, math.hypot(cos[0], sin[0]), math.atan2(sin[0], cos[0]), float(gaps[0])


def _sign(x):
    """``np.sign`` of one float: -1, 0 or 1, and nan for nan."""
    return x if x != x else float((x > 0.0) - (x < 0.0))


def reference_itp(f, lo, hi, target, xtol=1e-12):
    """Solve ``f(phi) = target`` on ``[lo, hi]`` by ITP steps, one scalar
    step at a time: the regula falsi point of the end values, moved ``0.1
    w^2 / w_0`` toward the midpoint (not past it), projected into ``r_j =
    eps 2^(n_max - j) - w / 2`` of the midpoint with ``n_max = ceil(log2(w_0
    / xtol)) + 1`` and ``2 eps = xtol - 8 eps_64 max(|lo|, |hi|)``, moved
    one float inward where it rounds to an end, else the midpoint where it
    is not strictly inside. Stops where the bracket is at most ``xtol``
    wide, where the point is an end, or where it hits the target."""
    y_lo, y_hi = f(lo) - target, f(hi) - target
    width = hi - lo
    if not width > xtol:
        return (lo + hi) / 2.0
    kappa = 0.1 / width
    steps = math.ceil(math.log2(width / xtol))
    steps += math.ldexp(xtol, steps) < width
    steps -= math.ldexp(xtol, steps - 1) >= width
    plan = math.ldexp(max(xtol / 2.0 - 4.0 * _EPS * max(abs(lo), abs(hi)), 0.0), steps + 1)
    while True:
        mid = (lo + hi) / 2.0
        interpolated = lo - y_lo * (width / (y_hi - y_lo))
        sigma = _sign(mid - interpolated)
        projected = mid - sigma * (plan - width / 2.0)
        point = interpolated + sigma * (kappa * width * width)
        x = float(np.minimum(np.maximum(point, np.minimum(mid, projected)),
                             np.maximum(mid, projected)))
        x = float(np.minimum(np.maximum(x, math.nextafter(lo, hi)), math.nextafter(hi, lo)))
        if not lo < x < hi:
            x = mid
        y, edge = f(x) - target, x in (lo, hi)
        if y == 0.0:
            return x
        if (y < 0.0) == (y_lo < 0.0):
            lo, y_lo = x, y
        else:
            hi, y_hi = x, y
        width, plan = hi - lo, plan / 2.0
        if width <= xtol or edge:
            return (lo + hi) / 2.0


def brentq_root(f, lo, hi, target):
    """The root finder of the per-trial estimator: scipy's ``brentq``."""
    return brentq(lambda x: f(x) - target, lo, hi, xtol=1e-12)


def _reference_branch_interval(slope, center, step, root):
    """Walk outward in ``step``s from ``center`` until the slope is 0 or
    changes sign, then find the stationary point with ``root``."""
    sign_center = math.copysign(1.0, slope(center))

    def boundary(direction):
        prev = center
        for k in range(1, int(2.0 * math.pi / step) + 2):
            here = center + direction * k * step
            value = slope(here)
            if value == 0.0:
                return here
            if math.copysign(1.0, value) != sign_center:
                return root(slope, min(prev, here), max(prev, here), 0.0)
            prev = here
        return prev

    return boundary(-1.0), boundary(+1.0)


def reference_sample_mean(record, obs, model, branch_center, curve=harmonic_curve,
                          root=reference_itp, closed=True):
    """The sample-mean estimate of one record, evaluating the mean curve
    ``curve(model, obs)`` one phase at a time and solving with ``root``; if
    ``closed``, a one-gap harmonic curve (``reference_fringe``) takes its
    branch and its inversion in closed form, one value at a time."""
    values = np.array([float(label) for label in record.labels])
    empirical_mean = float((record.frequencies() * values).sum())
    report = error_propagation(model, branch_center, obs, record.nu)
    se_predicted = math.sqrt(report.delta_phi_sq)
    at = curve(model, obs)

    def mean(x):
        return at(x)[0]

    def slope(x):
        return at(x)[1]

    n_sites = max(1, math.ceil(math.log2(model.dim)))
    step = math.pi / (8.0 * n_sites)
    fringe = reference_fringe(model, obs) if curve is harmonic_curve and closed else None
    if fringe is not None:
        _, _, theta, w = fringe
        k = math.floor((w * branch_center - theta) / math.pi)
        reach = (int(2.0 * math.pi / step) + 1) * step
        lo = max((theta + k * math.pi) / w, branch_center - reach)
        hi = min((theta + (k + 1) * math.pi) / w, branch_center + reach)
    else:
        lo, hi = _reference_branch_interval(slope, branch_center, step, root)
    mean_lo, mean_hi = mean(lo), mean(hi)
    low_value, high_value = sorted((mean_lo, mean_hi))
    if empirical_mean < low_value or empirical_mean > high_value:
        phi_hat = lo if abs(mean_lo - empirical_mean) <= abs(mean_hi - empirical_mean) else hi
        return simulate.EstimatorResult(
            phi_hat=float(phi_hat), method="sample_mean_inversion",
            se_predicted=se_predicted, out_of_branch=True, branch=(lo, hi))
    if empirical_mean == mean_lo:
        phi_hat = lo
    elif empirical_mean == mean_hi:
        phi_hat = hi
    elif fringe is not None:
        phi_hat = min(max(_reference_fringe_phase(fringe, empirical_mean, k), lo), hi)
    else:
        phi_hat = root(mean, lo, hi, empirical_mean)
    return simulate.EstimatorResult(phi_hat=float(phi_hat), method="sample_mean_inversion",
                                    se_predicted=se_predicted, branch=(lo, hi))


def reference_records(model, povm, phi, nu, trials, seed):
    dist = outcome_distribution(model, phi, povm, second_order=False)
    return [sample_shots(dist, nu, seed, stream=i) for i in range(trials)]


def _pauli_product(axis, n):
    quad = (0.0, 1.0, 0.0, 0.0) if axis == "x" else (0.0, 0.0, 1.0, 0.0)
    return product_observable([quad] * n)


def _mixed_ghz2(weight=0.8):
    """GHZ mixed with a fixed random full-rank state (complex coherences)."""
    rng = np.random.default_rng(5)
    w = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    noise = w @ w.conj().T
    ghz = np.zeros((4, 4), dtype=complex)
    ghz[np.ix_([0, 3], [0, 3])] = 0.5
    rho = weight * ghz + (1.0 - weight) * noise / np.trace(noise).real
    return unitary_model(DensityMatrix((rho + rho.conj().T) / 2.0),
                         collective_spin("z", 2))


def _blackbox_ghz2():
    pure = ghz_model(2)
    return blackbox_model(pure.density, 4)


def _three_levels():
    """Amplitudes on |000>, |011> and |111> under J_z: three generator
    levels, so that the outcome probabilities are no one fringe."""
    amps = np.zeros(8, dtype=complex)
    amps[[0, 3, 7]] = 0.7, 0.3 + 0.2j, 0.6
    return unitary_model(PureState(amps / np.linalg.norm(amps)), collective_spin("z", 3))


@cache
def equivalence_case(name):
    """(model, product POVM, observable, phase) for each cross-checked model."""
    if name.startswith("ghz"):
        n, axis = int(name[3]), name[-1]
        model = ghz_model(n)
    elif name == "three-level":
        n, axis, model = 3, "x", _three_levels()
    else:
        n, axis = 2, "x"
        model = _mixed_ghz2() if name == "mixed" else _blackbox_ghz2()
    return model, product_basis_povm(axis, n), _pauli_product(axis, n), 0.3 / n


EQUIVALENCE_CASES = ("ghz1-x", "ghz1-y", "ghz2-x", "ghz2-y", "ghz3-x", "ghz3-y",
                     "mixed", "blackbox", "three-level")
NU, TRIALS, SEED = 2000, 6, 13


@pytest.fixture
def trial_results(monkeypatch):
    """Per-trial results of every batched estimate made during the test, in
    the form of the single-record estimators: a sample-mean trial's
    ``se_predicted`` is that of the report its run inverts with, and an MLE
    trial's is ``None`` (only ``estimate_phi_mle`` computes one)."""
    captured = []

    def spy(name, method, se_predicted):
        estimate = getattr(simulate, name)

        def wrapped(counts, *args):
            phi_hat, clipped, branch = estimate(counts, *args)
            captured.append([
                simulate.EstimatorResult(phi_hat=phi, method=method,
                                         se_predicted=se_predicted(*args),
                                         out_of_branch=flag, branch=branch)
                for phi, flag in zip(phi_hat.tolist(), clipped.tolist())])
            return phi_hat, clipped, branch

        monkeypatch.setattr(simulate, name, wrapped)

    spy("_sample_mean_estimates", "sample_mean_inversion",
        lambda model, obs, values, report, center: math.sqrt(report.delta_phi_sq))
    spy("_mle_estimates", "maximum_likelihood", lambda *args: None)
    return captured


def _trial_fields(results):
    """What a multi-trial MLE run keeps of each trial: its ``se_predicted``
    is computed only by the single-record ``estimate_phi_mle``."""
    return [(r.phi_hat, r.branch, r.out_of_branch) for r in results]


class TestBatchedEquivalence:
    """The batched estimators reproduce the per-trial loop bit for bit."""

    @pytest.mark.parametrize("name", EQUIVALENCE_CASES)
    def test_mle(self, name, trial_results):
        model, povm, _, phi = equivalence_case(name)
        interval = default_mle_interval(model, phi)
        records = reference_records(model, povm, phi, NU, TRIALS, SEED)
        expected = [reference_mle(r, model, povm, interval) for r in records]
        summary = run_mle_trials(model, povm, phi, NU, TRIALS, SEED)
        assert _trial_fields(trial_results[0]) == _trial_fields(expected)
        assert summary.estimates.tolist() == [r.phi_hat for r in expected]
        assert summary.n_clipped == 0
        assert estimate_phi_mle(records[0], model, povm, interval) == expected[0]

    def test_mle_explicit_search_interval(self, trial_results):
        model, povm, _, phi = equivalence_case("ghz2-x")
        interval = (0.1, 0.7)
        records = reference_records(model, povm, phi, NU, TRIALS, SEED)
        expected = [reference_mle(r, model, povm, interval) for r in records]
        run_mle_trials(model, povm, phi, NU, TRIALS, SEED, search_interval=interval)
        assert _trial_fields(trial_results[0]) == _trial_fields(expected)

    @pytest.mark.parametrize("name", EQUIVALENCE_CASES)
    def test_sample_mean(self, name, trial_results):
        model, _, obs, phi = equivalence_case(name)
        records = reference_records(model, eigenprojector_povm(obs), phi, NU,
                                    TRIALS, SEED)
        expected = [reference_sample_mean(r, obs, model, phi) for r in records]
        summary = run_sample_mean_trials(model, obs, phi, NU, TRIALS, SEED)
        assert trial_results[0] == expected
        assert summary.estimates.tolist() == [r.phi_hat for r in expected]
        assert [estimate_phi_sample_mean(r, obs, model, phi) for r in records] == expected

    @pytest.mark.parametrize("name", EQUIVALENCE_CASES)
    @pytest.mark.parametrize("nu, trials, shift", [(NU, TRIALS, 0.0), (20, 20, -0.7)])
    def test_sample_mean_against_brentq(self, name, nu, trials, shift, trial_results):
        """The lockstep ITP solve on the harmonic curve lands within ``2
        xtol`` of scipy's ``brentq`` on the per-phase moments, plus the
        curves' difference (``curve_bounds``; for a blackbox model the noise
        of the one curve both read) divided by the slope at an estimate, or
        the slopes' difference divided by the curvature at a branch end."""
        model, _, obs, phi = equivalence_case(name)
        phi = phi * (1.0 + shift)
        records = reference_records(model, eigenprojector_povm(obs), phi, nu, trials,
                                    SEED)
        old = [reference_sample_mean(r, obs, model, phi, curve=moments_curve,
                                     root=brentq_root) for r in records]
        run_sample_mean_trials(model, obs, phi, nu, trials, SEED)
        curve = simulate._MeanCurve(model, obs)

        def noise(x):
            if model.kind == "unitary_generator":
                return curve_bounds(model, obs, x)
            # one curve sampled at other points: the mean's rounding, and the
            # slope's central difference with step eps^(1/3) of that rounding
            unit = CURVE_NOISE * _EPS * model.dim * float(np.linalg.norm(obs.matrix))
            return unit, unit * _EPS ** (-1.0 / 3.0)

        def end_tolerance(x):
            h = 1e-6
            curvature = (curve.slope([x + h])[0] - curve.slope([x - h])[0]) / (2.0 * h)
            return 2e-12 + noise(x)[1] / abs(curvature)

        new = trial_results[0]
        ends = new[0].branch
        for end, old_end in zip(ends, old[0].branch):
            assert abs(end - old_end) <= end_tolerance(end)
        for result, reference in zip(new, old):
            assert result.out_of_branch == reference.out_of_branch
            if result.phi_hat in ends:
                tolerance = end_tolerance(result.phi_hat)
            else:
                tolerance = (2e-12 + noise(result.phi_hat)[0]
                             / abs(curve.slope([result.phi_hat])[0]))
            assert abs(result.phi_hat - reference.phi_hat) <= tolerance

    def test_sample_mean_low_nu_clips(self, trial_results):
        model, _, obs, _ = equivalence_case("ghz2-x")
        phi, nu, trials = 0.1, 20, 20
        records = reference_records(model, eigenprojector_povm(obs), phi, nu,
                                    trials, SEED)
        expected = [reference_sample_mean(r, obs, model, phi) for r in records]
        summary = run_sample_mean_trials(model, obs, phi, nu, trials, SEED)
        assert trial_results[0] == expected
        assert summary.n_clipped == sum(r.out_of_branch for r in expected) > 0

    @given(name=st.sampled_from(EQUIVALENCE_CASES),
           phis=st.lists(st.floats(-2.0 * math.pi, 2.0 * math.pi), min_size=1,
                         max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_batched_probabilities_bitwise(self, name, phis):
        model, povm, _, _ = equivalence_case(name)
        batch = _OutcomeRows(model, povm)(phis, 0)[0]
        assert batch.shape == (len(phis), len(povm))
        for phi, row in zip(phis, batch):
            single = outcome_distribution(model, phi, povm, second_order=False)
            assert row.tobytes() == single.probabilities.tobytes()

    def test_batched_probabilities_check_dimension(self):
        with pytest.raises(DimensionMismatchError):
            _OutcomeRows(ghz_model(2), product_basis_povm("x", 3))

    @pytest.mark.parametrize("name", EQUIVALENCE_CASES)
    def test_chunked_probabilities_bitwise(self, name, monkeypatch):
        model, povm, _, _ = equivalence_case(name)
        phis = np.linspace(-3.0, 3.0, 11)
        whole = _OutcomeRows(model, povm)(phis, 0)[0]
        monkeypatch.setattr(fisher, "_BATCH_ENTRIES", 3 * model.dim ** 2)
        chunked = _OutcomeRows(model, povm)(phis, 0)[0]
        assert chunked.tobytes() == whole.tobytes()

    def test_chunked_mle_run_unchanged(self, monkeypatch):
        model, povm, _, phi = equivalence_case("ghz2-x")
        whole = run_mle_trials(model, povm, phi, NU, TRIALS, SEED)
        monkeypatch.setattr(fisher, "_BATCH_ENTRIES", 2 * model.dim ** 2)
        chunked = run_mle_trials(model, povm, phi, NU, TRIALS, SEED)
        assert chunked.estimates.tobytes() == whole.estimates.tobytes()

    def test_one_outcome_setup_per_mle_run(self, monkeypatch):
        """A maximum-likelihood run, or one record's estimate, sets up its
        outcome rows once: they give the draw distribution, its CFI, the
        grid and every score step, even where each chunk holds one phase."""
        model, povm, _, phi = equivalence_case("ghz2-x")
        setups = []
        init = _OutcomeRows.__init__

        def counting(self, *args, **kwargs):
            setups.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(_OutcomeRows, "__init__", counting)
        monkeypatch.setattr(fisher, "_BATCH_ENTRIES", 1)
        summary = run_mle_trials(model, povm, phi, NU, TRIALS, SEED)
        assert summary.predicted_delta_phi_sq is not None and len(setups) == 1
        record = exact_record(outcome_distribution(model, phi, povm), NU)
        setups.clear()
        result = estimate_phi_mle(record, model, povm, default_mle_interval(model, phi))
        assert result.se_predicted is not None and len(setups) == 1

    def test_log_likelihoods_reject_mismatched_outcomes(self):
        with pytest.raises(ValueError, match="3 outcome counts but 4"):
            simulate._log_likelihoods(np.ones((2, 3)), np.zeros((2, 4)))


class TestRunsOnCountArrays:
    """A multi-trial run builds no per-trial record or result object."""

    @pytest.fixture(autouse=True)
    def no_trial_objects(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a run built a per-trial object")

        monkeypatch.setattr(simulate, "ShotRecord", refuse)
        monkeypatch.setattr(simulate, "EstimatorResult", refuse)

    def test_sample_mean(self):
        model, _, obs, phi = equivalence_case("ghz2-x")
        summary = run_sample_mean_trials(model, obs, phi, NU, TRIALS, SEED)
        assert summary.estimates.shape == (TRIALS,)

    def test_mle(self):
        model, povm, _, phi = equivalence_case("ghz2-x")
        summary = run_mle_trials(model, povm, phi, NU, TRIALS, SEED)
        assert summary.estimates.shape == (TRIALS,)


class TestMleRefinement:
    """Each trial's best grid cell is refined by an ITP solve of its score."""

    @pytest.mark.parametrize("name", EQUIVALENCE_CASES)
    def test_close_to_golden_section_and_newton(self, name, trial_results):
        """Within ``1e-10 + 0.5e-12`` of a golden-section search of the same
        bracket on log-likelihood values followed by one Newton step on the
        score. Where the score falls through zero, the solve stops within
        ``0.5e-12`` of its root, and a Newton step from golden's point lands
        on the root to rounding (its error is quadratic in golden's, about
        1e-16); where the maximum sits at a bracket end, the solve returns
        the end, and golden's last bracket, at most ``1e-10`` wide, still
        holds it, the Newton step being refused for leaving the bracket."""
        model, povm, _, phi = equivalence_case(name)
        interval = default_mle_interval(model, phi)
        records = reference_records(model, povm, phi, NU, TRIALS, SEED)
        run_mle_trials(model, povm, phi, NU, TRIALS, SEED)
        for result, record in zip(trial_results[0], records):
            old = golden_newton_mle(record, model, povm, interval)
            assert abs(result.phi_hat - old.phi_hat) <= 1e-10 + 0.5e-12

    @pytest.mark.parametrize("name", [n for n in EQUIVALENCE_CASES if n != "blackbox"])
    def test_score_changes_sign_across_interior_estimates(self, name, trial_results):
        """An estimate off the grid is a root of its record's score: the score
        is positive ``1e-12`` below it and negative ``1e-12`` above it.

        A blackbox model is left out: its ``p'`` is a central difference with
        step ``eps^(1/3)``, whose rounding of about ``eps^(2/3)`` puts some
        1e-8 on a score of ``nu = 2000`` shots, more than the score's change
        of about ``nu I 1e-12`` over the width."""
        model, povm, _, phi = equivalence_case(name)
        grid = np.linspace(*default_mle_interval(model, phi), 65)
        records = reference_records(model, povm, phi, NU, TRIALS, SEED)
        run_mle_trials(model, povm, phi, NU, TRIALS, SEED)
        interior = [(result.phi_hat, record)
                    for result, record in zip(trial_results[0], records)
                    if result.phi_hat not in grid]
        assert interior
        for phi_hat, record in interior:
            assert reference_score(record, model, povm, phi_hat - 1e-12) > 0.0
            assert reference_score(record, model, povm, phi_hat + 1e-12) < 0.0

    @pytest.mark.parametrize("phi, interval, end", [(0.15, (0.3, 0.7), 0.3),
                                                    (0.5, (0.1, 0.35), 0.35)])
    def test_interval_excluding_the_truth_returns_its_end(self, phi, interval, end):
        """The GHZ N=2 x-product likelihood depends on ``cos 2 phi``, so it
        falls monotonically away from a maximum near the truth on ``[0, pi /
        2]``: over an interval on one side of the truth, every estimate is
        the interval end nearer the truth, exactly."""
        model, povm, _, _ = equivalence_case("ghz2-x")
        summary = run_mle_trials(model, povm, phi, NU, TRIALS, SEED,
                                 search_interval=interval)
        assert summary.estimates.tolist() == [end] * TRIALS


_EPS = float(np.finfo(float).eps)

#: the curve and the moments may differ by this many of their rounding
#: bounds (see TestMeanCurve)
CURVE_NOISE = 8.0

CURVE_STATES = ("pure", "rank", "full")
CURVE_GENERATORS = ("diagonal", "offset", "dense")


def curve_case(state_kind, generator_kind, seed):
    """``(model, observable)`` of dimension 2-6 whose generator eigenvalues
    are a scale of 0.1-10 times integers in [-3, 3], so that gaps repeat: a
    pure, rank-deficient or full-rank state under a diagonal G, a diagonal
    (even seeds) or dense (odd seeds) G plus ``c I`` with ``|c|`` 1e2-1e4
    times the scale, or a dense G with a random eigenbasis."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 7))
    levels = rng.integers(-3, 4, size=dim) * 10.0 ** rng.uniform(-1.0, 1.0)
    if generator_kind == "dense" or (generator_kind == "offset" and seed % 2):
        basis = np.linalg.qr(rng.normal(size=(dim, dim))
                             + 1j * rng.normal(size=(dim, dim)))[0]
        matrix = (basis * levels) @ basis.conj().T
        matrix = (matrix + matrix.conj().T) / 2.0
    else:
        matrix = np.diag(levels).astype(complex)
    if generator_kind == "offset":
        scale = max(float(np.abs(levels).max()), 0.1)
        matrix = matrix + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(2.0, 4.0) * scale \
            * np.eye(dim)
    if state_kind == "pure":
        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        state = PureState(amps / np.linalg.norm(amps))
    else:
        rank = dim if state_kind == "full" else int(rng.integers(1, dim))
        state = random_density(rng, dim, rank)
    return unitary_model(state, HermitianObservable(matrix)), random_hermitian(rng, dim)


def curve_bounds(model, obs, phi):
    """``(mean bound, slope bound)`` of ``TestMeanCurve`` at ``phi``."""
    spread = float(np.abs(model._frame[0]).max())
    unit = (CURVE_NOISE * _EPS * model.dim * (1.0 + abs(phi) * spread)
            * float(np.linalg.norm(obs.matrix)))
    return unit, 2.0 * spread * unit


class TestMeanCurve:
    """The mean curve of a generator model, ``a_0 + sum_w (c_w cos(w phi) +
    s_w sin(w phi))`` over the gaps of its centred generator, agrees with
    ``_moments`` of ``sld`` at every phase.

    The bounds, with ``s = max |g|`` over the centred eigenvalues and ``K =
    CURVE_NOISE``. Both routes are exact functions of ``g``, ``V``, ``C_0'``
    and O: the curve forms ``O' = V^dagger O V`` and ``M_jk = O'_jk
    rho_0'_kj`` once and sums ``cos(w phi)`` and ``sin(w phi)`` over the
    gaps, ``_moments`` moves ``C_0'`` by ``exp(-i g phi)`` and V and takes
    ``<C, O C>`` and ``2 Re<dC, O C>``. Each phase factor carries ``eps
    |phi| s`` per entry and each product or sum of d terms ``c d eps``, and
    ``sum |M_jk| <= ||O||_F ||rho_0'||_F <= ||O||_F``, so the means differ by
    at most ``u = K eps d (1 + |phi| s) ||O||_F``; each term of the slope
    carries a gap of at most ``2 s``, so the slopes differ by ``2 s u``. An
    offset in G changes nothing, since both routes read the same centred
    frame. Over 20,000 draws of three phases each, the largest ratio of a
    gap to its bound with ``K = 1`` was 1.22 on the mean (under a dense G)
    and 0.70 on the slope; ``K = 8`` leaves a factor of about 6.5 above it.
    """

    @given(state_kind=st.sampled_from(CURVE_STATES),
           generator_kind=st.sampled_from(CURVE_GENERATORS),
           seed=st.integers(0, 2 ** 32 - 1),
           phis=st.lists(st.floats(-2.0 * math.pi, 2.0 * math.pi), min_size=1,
                         max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_matches_moments_of_sld(self, state_kind, generator_kind, seed, phis):
        model, obs = curve_case(state_kind, generator_kind, seed)
        curve = simulate._MeanCurve(model, obs)
        for phi, mean, slope in zip(phis, curve.mean(phis), curve.slope(phis)):
            moments = _moments(model, obs, sld(model, phi))
            mean_bound, slope_bound = curve_bounds(model, obs, phi)
            assert abs(mean - moments.mean) <= mean_bound, (phi, mean, moments.mean)
            assert abs(slope - moments.slope) <= slope_bound, (phi, slope, moments.slope)

    @given(state_kind=st.sampled_from(CURVE_STATES),
           generator_kind=st.sampled_from(CURVE_GENERATORS),
           seed=st.integers(0, 2 ** 32 - 1),
           phis=st.lists(st.floats(-2.0 * math.pi, 2.0 * math.pi), min_size=1,
                         max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_batch_and_chunks_do_not_change_a_value(self, state_kind, generator_kind,
                                                    seed, phis):
        """Each phase's mean and slope are bitwise those of the one-phase
        test-local ``harmonic_curve``, evaluated alone, in a batch, or in
        chunks of one phase."""
        model, obs = curve_case(state_kind, generator_kind, seed)
        curve = simulate._MeanCurve(model, obs)
        at = harmonic_curve(model, obs)
        whole = curve.mean(phis), curve.slope(phis)
        assert whole[0].tolist() == [at(phi)[0] for phi in phis]
        assert whole[1].tolist() == [at(phi)[1] for phi in phis]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fisher, "_BATCH_ENTRIES", 1)
            assert curve.mean(phis).tobytes() == whole[0].tobytes()
            assert curve.slope(phis).tobytes() == whole[1].tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_ghz_parity_curve_is_one_harmonic(self, n):
        """The x-product mean of GHZ N is ``cos(N phi)``: the pairs of the
        N + 1 distinct J_z levels fall into N gaps, and only the gap N between
        |0...0> and |1...1> carries a coefficient."""
        curve = simulate._MeanCurve(ghz_model(n), _pauli_product("x", n))
        assert curve.gaps.tolist() == [float(n)]
        phis = np.linspace(-3.0, 3.0, 13)
        assert np.allclose(curve.mean(phis), np.cos(n * phis), rtol=0.0, atol=1e-14)
        assert np.allclose(curve.slope(phis), -n * np.sin(n * phis), rtol=0.0, atol=1e-14)

    def test_blackbox_curve_is_the_moments(self):
        model, _, obs, _ = equivalence_case("blackbox")
        curve = simulate._MeanCurve(model, obs)
        phis = [0.1, 0.7]
        expected = [moments_curve(model, obs)(phi) for phi in phis]
        assert curve.mean(phis).tolist() == [e[0] for e in expected]
        assert curve.slope(phis).tolist() == [e[1] for e in expected]

    def test_disagreement_with_the_centre_is_an_arithmetic_error(self):
        model, _, obs, phi = equivalence_case("ghz2-x")
        report = error_propagation(model, phi, obs)
        curve = simulate._MeanCurve(model, obs)
        curve.check(phi, report)
        mean_bound, slope_bound = (bound / CURVE_NOISE * simulate._CURVE_NOISE
                                   for bound in curve_bounds(model, obs, phi))
        for field, bound in (("mean", mean_bound), ("slope", slope_bound)):
            moved = replace(report, **{field: getattr(report, field) + 2.0 * bound})
            with pytest.raises(ArithmeticError, match="mean curve disagrees"):
                curve.check(phi, moved)


def full_row_table(model, obs):
    """``(gaps, a_0, c_w, s_w)`` of a diagonal-generator model's mean curve
    over every frame row, as ``_MeanCurve`` formed it from the dense
    observable before it read the carrier's support rows."""
    g = model._frame[0]
    carrier = model._solution.carrier
    m = obs.matrix * (carrier.conj() @ carrier.T)
    gaps = g[:, None] - g[None, :]
    constant = float(m.real[gaps == 0.0].sum())
    positive = gaps > 0.0
    gaps, index = np.unique(gaps[positive], return_inverse=True)
    cos = 2.0 * np.bincount(index, m.real[positive], gaps.size)
    sin = -2.0 * np.bincount(index, m.imag[positive], gaps.size)
    keep = (cos != 0.0) | (sin != 0.0)
    return gaps[keep], constant, cos[keep], sin[keep]


def _site_list(rng, n):
    """``n`` random per-site quadruples with nonzero, non-axis coefficients."""
    return product_observable([tuple(rng.uniform(-1.0, 1.0, size=4)) for _ in range(n)])


class TestSupportCurve:
    """The mean curve of a state vector under a diagonal generator is formed
    on the carrier's support rows S, with ``O[S, S]`` read from the
    observable's stored form, and agrees with the table over every row."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_ghz_table_is_the_full_row_table(self, n):
        """On GHZ N=3-8, S holds two rows: each coefficient is one product or
        a sum of two, so the table is bit for bit the full-row one, for the
        x product, the saturating ``0.6 sx + 0.8 sy`` product, a per-site
        list of random coefficients and parity; no dense observable is
        built."""
        model = ghz_model(n)
        rng = np.random.default_rng(n)
        for obs in (_pauli_product("x", n), product_observable([(0.0, 0.6, 0.8, 0.0)] * n),
                    _site_list(rng, n), product_observable([(0.0, 0.0, 0.0, 1.0)] * n)):
            curve = simulate._MeanCurve(model, obs)
            assert "matrix" not in obs.__dict__
            gaps, constant, cos, sin = full_row_table(model, obs)
            assert curve.gaps.tobytes() == gaps.tobytes()
            assert curve._terms[0][0] == constant
            assert curve._terms[0][1].tobytes() == cos.tobytes()
            assert curve._terms[0][2].tobytes() == sin.tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_planted_three_rows_agree_within_rounding(self, seed):
        """A random state on 3 of 16 rows (two of them of one popcount, so a
        zero gap pairs distinct rows) under J_z, with a random per-site
        observable. Each term ``M_jk`` is one complex product of
        ``O_jk`` and ``conj(c_j) c_k``, which the two routes may round once
        otherwise each (a fused multiply-add in the outer product): at most
        ``2 eps |M_jk|``. Each coefficient sums at most ``|S|^2`` terms in
        another order, which adds at most ``(|S|^2 - 1) eps sum |M_jk|``,
        and is doubled. So the tables differ by at most ``2 (|S|^2 + 1) eps
        sum |M_jk|``, with the sum over S x S; their gaps are equal."""
        rng = np.random.default_rng(seed)
        rows = np.sort(np.concatenate([rng.choice([1, 2, 4, 8], size=2, replace=False),
                                       rng.choice([3, 7, 12, 15], size=1)]))
        amps = np.zeros(16, dtype=complex)
        amps[rows] = rng.normal(size=3) + 1j * rng.normal(size=3)
        model = unitary_model(PureState(amps / np.linalg.norm(amps)), collective_spin("z", 4))
        obs = _site_list(rng, 4)
        assert model._support.tolist() == rows.tolist()
        curve = simulate._MeanCurve(model, obs)
        gaps, *expected = full_row_table(model, obs)
        carrier = model._solution.carrier[rows]
        total = float(np.sum(np.abs(obs.matrix[np.ix_(rows, rows)]
                                    * (carrier.conj() @ carrier.T))))
        bound = 2.0 * (rows.size ** 2 + 1) * _EPS * total
        assert curve.gaps.tobytes() == gaps.tobytes()
        for got, want in zip(curve._terms[0], expected):
            assert np.all(np.abs(np.asarray(got) - want) <= bound)


class TestBisect:
    """The lockstep ITP solver ``simulate._itp``."""

    @staticmethod
    def hill(phis):
        """``x (2 - x)``: rising on [0, 1], falling on [1, 2]."""
        return phis * (2.0 - phis)

    def test_rising_and_falling_brackets_in_lockstep(self):
        """Each bracket closes within ``xtol / 2`` of its root, on either
        side of the hill; a point that hits its target exactly is the
        root."""
        lo, hi = np.array([0.0, 1.0, 0.0]), np.array([1.0, 2.0, 1.0])
        roots = simulate._itp(lambda phis, _: self.hill(phis), lo, hi, self.hill(lo),
                              self.hill(hi), np.array([0.19, 0.36, 0.75]))
        assert abs(roots[0] - 0.1) <= 0.5e-12
        assert abs(roots[1] - 1.8) <= 0.5e-12
        assert roots[2] == 0.5

    def test_a_bracket_of_adjacent_floats_closes(self):
        """With ``xtol = 0`` only a point that rounds to an end stops the
        bracket ``[1, 1 + ulp]``."""
        lo, hi = np.array([1.0]), np.array([np.nextafter(1.0, 2.0)])
        root = simulate._itp(lambda x, _: x - 1.0, lo, hi, lo - 1.0, hi - 1.0,
                             np.array([1e-17]), xtol=0.0)
        assert root[0] in (lo[0], hi[0])

    def test_rows_index_the_open_brackets(self):
        """``f`` receives the indices of the brackets still open, so that a
        bracket's function may depend on its row: row ``i`` solves ``x =
        i``; the bracket of row 1 is closed from the start."""
        seen = []

        def f(phis, rows):
            seen.append(rows.tolist())
            return phis - rows

        lo, hi = np.array([-1.0, 1.0, 1.0]), np.array([1.0, 1.0, 3.0])
        roots = simulate._itp(f, lo, hi, lo - np.arange(3), hi - np.arange(3), np.zeros(3))
        assert seen[0] == [0, 2]
        assert abs(roots[0]) <= 0.5e-12 and abs(roots[2] - 2.0) <= 0.5e-12
        assert roots[1] == 1.0

    FAMILIES = {
        "linear": lambda x, c: x - c,
        "flat": lambda x, c: (x - c) * np.abs(x - c) ** 14,
        "convex": lambda x, c: np.expm1(50.0 * (x - c)),
        "step": lambda x, c: np.where(x < c, -1.0, 1.0),
        "cliff": lambda x, c: np.where(x < c, -1.0, 1e300),
        "infinite": lambda x, c: np.where(x < c, -1.0, np.inf),
    }
    brackets = st.tuples(st.sampled_from(sorted(FAMILIES)), st.floats(-8.0, 8.0),
                         st.floats(-10.0, 1.0), st.floats(1e-3, 1.0 - 1e-3), st.booleans())

    @staticmethod
    def worst_steps(width, xtol):
        """``ceil(log2(width / xtol)) + 1``, in exact arithmetic."""
        ratio, steps = Fraction(width) / Fraction(xtol), 0
        while 2 ** steps < ratio:
            steps += 1
        return steps + simulate._ITP_SLACK

    @given(cases=st.lists(brackets, min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_steps_stay_within_bisection_plus_slack(self, cases):
        """On functions that defeat interpolation (steep, flat, convex,
        discontinuous, ``1e300`` or infinite on one side, rising or
        falling) every bracket closes around its root within
        ``ceil(log2(w_0 / xtol)) + n_0`` steps, and every point it evaluates
        lies strictly inside its bracket of the moment."""
        xtol = 1e-12
        lo = np.array([start for _, start, _, _, _ in cases])
        hi = lo + np.array([10.0 ** scale for _, _, scale, _, _ in cases])
        roots = lo + np.array([frac for *_, frac, _ in cases]) * (hi - lo)
        signs = np.array([-1.0 if flip else 1.0 for *_, flip in cases])

        def value(x, i):
            return signs[i] * self.FAMILIES[cases[i][0]](x, roots[i])

        a, b = lo.copy(), hi.copy()
        steps = np.zeros(len(cases), dtype=int)

        def f(phis, rows):
            out = np.array([value(x, i) for x, i in zip(phis.tolist(), rows.tolist())])
            for x, i, y in zip(phis.tolist(), rows.tolist(), out.tolist()):
                assert a[i] < x < b[i], (cases[i], x, a[i], b[i])
                steps[i] += 1
                if (y < 0.0) == (value(a[i], i) < 0.0):
                    a[i] = x
                else:
                    b[i] = x
            return out

        f_lo = np.array([value(x, i) for i, x in enumerate(lo.tolist())])
        f_hi = np.array([value(x, i) for i, x in enumerate(hi.tolist())])
        found = simulate._itp(f, lo, hi, f_lo, f_hi, np.zeros(len(cases)), xtol)
        for i, case in enumerate(cases):
            assert steps[i] <= self.worst_steps(hi[i] - lo[i], xtol), (case, steps[i])
            assert abs(found[i] - roots[i]) <= xtol, (case, found[i], roots[i])

    def test_a_point_rounding_to_an_end_moves_inward(self):
        """Where regula falsi rounds onto an end (a ``1e300`` cliff just past
        the lower end), the solver evaluates the next float inward, not the
        end: a solver that took the end as its point would close the
        bracket there, ``1e-3`` from the root."""
        lo, hi, root = 0.0, 1e-3, 1e-3 - 1e-9
        seen = []

        def f(phis, _):
            seen.extend(phis.tolist())
            return np.where(phis < root, -1.0, 1e300)

        found = simulate._itp(f, np.array([lo]), np.array([hi]), np.array([-1.0]),
                              np.array([1e300]), np.zeros(1))
        assert lo not in seen and hi not in seen
        assert abs(found[0] - root) <= 1e-12


def closed_form_bound(fringe, value, k, u, xtol=1e-12):
    """The bound of ``simulate._fringe_phases`` on the distance between the
    closed-form phase of ``value`` on branch ``k`` of ``fringe = (a, R,
    theta, w)`` and an ITP root to ``xtol`` of the fringe evaluated within
    ``u``."""
    a, radius, theta, w = fringe
    x = abs(value - a) / radius
    delta = (u + 4.0 * _EPS * (abs(a) + abs(value) + radius)) / radius
    room = 1.0 - (x + delta) ** 2
    move = math.sqrt(2.0 * delta)
    if room > 0.0:
        move = min(move, delta / math.sqrt(room))
    return xtol / 2.0 + 2.0 * move / w + 4.0 * _EPS * (abs(theta) + (abs(k) + 1) * math.pi) / w


@st.composite
def two_level_cases(draw):
    """``(model, povm, observable)``: N = 1-6 qubits under J_z with a pure
    or rank-1/2 density carrier on 1-3 rows of each of two popcounts (two
    generator levels), measured in the x or y product basis or with the
    eigenprojectors of a random product observable (one of +-1 sites, whose
    product has two eigenvalues, or of random quadruples)."""
    n = draw(st.integers(1, 6))
    popcounts = [bin(i).count("1") for i in range(2 ** n)]
    levels = draw(st.lists(st.integers(0, n), min_size=2, max_size=2, unique=True))
    rows = [draw(st.lists(st.sampled_from([i for i, p in enumerate(popcounts) if p == level]),
                          min_size=1, max_size=3, unique=True)) for level in levels]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rank = draw(st.sampled_from([0, 1, 2]))  # 0: a state vector
    vectors = np.zeros((2 ** n, max(rank, 1)), dtype=complex)
    picked = rows[0] + rows[1]
    vectors[picked] = (rng.normal(size=(len(picked), max(rank, 1)))
                       + 1j * rng.normal(size=(len(picked), max(rank, 1))))
    if rank:
        rho = vectors @ vectors.conj().T
        state = DensityMatrix(rho / np.trace(rho).real)
    else:
        state = PureState(vectors[:, 0] / np.linalg.norm(vectors))
    model = unitary_model(state, collective_spin("z", n))
    kind = draw(st.sampled_from(["x", "y", "signs", "sites"]))
    if kind == "signs":
        directions = rng.normal(size=(n, 3))
        sites = [(0.0, *(v / np.linalg.norm(v))) for v in directions]
    else:
        sites = [tuple(rng.uniform(-1.0, 1.0, size=4)) for _ in range(n)]
    obs = product_observable(sites)
    povm = product_basis_povm(kind, n) if kind in ("x", "y") else eigenprojector_povm(obs)
    return model, povm, obs


class TestFringeRoute:
    """Where the carrier holds two generator levels, the outcome fringes,
    the closed-form sample-mean inversion and the closed-form likelihood
    root agree with the per-outcome probabilities and with ITP solves
    within the bound of ``simulate._fringe_phases``; a likelihood bracket
    that holds a turning point of class 1's fringe takes ``_itp``.

    Rounding. The fringe table and the per-outcome route both sum
    ``F_x^dagger C`` over the support rows S (at most ``|S| + 1`` roundings
    of ``sum_s |F_xs| |C_s|`` each) and square it, so they differ by at most
    ``4 (|S| + 2) eps`` of ``sum (sum_s |F_xs| |C_s|)^2`` over the block and
    the carrier's columns, plus the fringe's evaluation, ``4 eps (|a| + (|c|
    + |s|)(1 + |w phi|))``. The likelihood's ITP solves the class score,
    whose root is ``N_1 P_2 m_2 = m_1 N_2 P_1``: errors ``e_c`` of ``P_c``
    move it as ``e_1 + (m_2 / m_1) e_2`` moves ``P_1``, with ``e_c = 4 eps
    (|a_c| + (|c_c| + |s_c|)(1 + |w phi|))`` and the table's defect from
    ``m_1 P_1 + m_2 P_2 = 1`` over ``m_1``. The sample mean's ITP reads the
    harmonic curve, within ``curve_bounds``' mean bound of the exact one; its
    branch ends are roots of the slope, within ``xtol / 2`` plus the slope
    bound over ``w^2 R`` plus the rounding of ``(theta + k pi) / w``. Over
    two runs of 2,000 examples (some 2,950 closed-form likelihood roots,
    1,260 turning-point brackets and 6,500 sample means each) the largest
    ratio of a distance to its bound was 0.18 (table), 0.97 (likelihood)
    and 0.47 (sample mean). ``xtol / 2`` is most of the last two bounds:
    the likelihood's largest distance, 4.95e-13, is an ITP midpoint's."""

    @given(case=two_level_cases(), phi=st.floats(-math.pi, math.pi),
           near_turn=st.booleans(), nu=st.sampled_from([20, 200, 2000]),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=300, deadline=None)
    def test_closed_forms_against_itp(self, case, phi, near_turn, nu, seed):
        model, povm, obs = case
        arrays = _OutcomeRows(model, povm)
        found = arrays.fringes()
        carrier = model._solution.carrier
        support = np.flatnonzero(carrier.any(axis=1))
        levels = model._frame[0][support]
        assert (found is not None) == (np.unique(levels).size == 2)
        if found is None:
            return
        w, table = found
        # the table against the per-outcome probabilities
        rows = povm.factor.conj().T[:, support]
        scale = fisher._block_sums(((np.abs(rows) @ np.abs(carrier[support])) ** 2)
                                   .sum(axis=1)[None], povm)[0]
        phis = np.array([phi, phi + 0.5, -phi / 3.0])
        probs = arrays(phis, 0)[0]
        angles = w * phis[:, None]
        fringe_probs = table[0] + table[1] * np.cos(angles) + table[2] * np.sin(angles)
        bound = (4 * (support.size + 2) * _EPS * scale + 4 * _EPS * (
            np.abs(table[0]) + (np.abs(table[1]) + np.abs(table[2])) * (1 + np.abs(angles))))
        assert np.all(np.abs(fringe_probs - probs) <= bound)

        classes = reference_classes(model, povm)
        if classes is not None:
            member, fringes, _ = classes
            a, c, s = fringes[0]
            fringe = (a, math.hypot(c, s), math.atan2(s, c), w)
            if near_turn:  # a turning point of class 1, within a grid cell or two
                k = round((w * phi - fringe[2]) / math.pi)
                phi = (fringe[2] + k * math.pi) / w + phi * 1e-3
            self._likelihood(model, povm, classes, fringe, phi, nu, seed)
        self._sample_mean(model, obs, phi, nu, seed)

    @staticmethod
    def _likelihood(model, povm, classes, fringe, phi, nu, seed):
        member, fringes, w = classes
        m1 = sum(member)
        m2 = len(member) - m1
        records = reference_records(model, povm, phi, nu, 4, seed)
        interval = default_mle_interval(model, phi)
        solved = []

        def spy(f, lo, hi, *args, **kwargs):
            solved.append(len(lo))
            return itp(f, lo, hi, *args, **kwargs)

        itp = simulate._itp
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulate, "_itp", spy)
            try:
                got = simulate._mle_estimates(np.array([r.counts for r in records]),
                                              _OutcomeRows(model, povm), interval)[0]
            except FlatLikelihoodError:
                return
        defect = (abs(m1 * fringes[0][0] + m2 * fringes[1][0] - 1.0)
                  + abs(m1 * fringes[0][1] + m2 * fringes[1][1])
                  + abs(m1 * fringes[0][2] + m2 * fringes[1][2]))
        turning = 0
        for phi_hat, record in zip(got.tolist(), records):
            closed, route = _reference_class_mle(record, classes, interval)
            assert phi_hat == closed
            turning += route == "turning"
            if route != "closed":
                continue
            by_itp, _ = _reference_class_mle(record, classes, interval, closed=False)
            stretch = 1.0 + abs(w * phi_hat)
            u = 4.0 * _EPS * stretch * sum(
                (abs(a) + (abs(c) + abs(s))) * weight
                for (a, c, s), weight in zip(fringes, (1.0, m2 / m1))) + defect / m1
            first = sum(int(n) for n, m in zip(record.counts, member) if m)
            k = math.floor((w * phi_hat - fringe[2]) / math.pi)
            bound = closed_form_bound(fringe, first / (m1 * nu), k, u)
            assert abs(phi_hat - by_itp) <= bound, (phi_hat, by_itp, bound)
        # a bracket that holds a turning point is solved by _itp, bit for bit
        assert sum(solved) == turning

    @staticmethod
    def _sample_mean(model, obs, phi, nu, seed):
        curve = simulate._MeanCurve(model, obs)
        fringe = curve.fringe()
        if fringe is None:
            return
        try:
            report = error_propagation(model, phi, obs, nu)
        except SingularSensitivityError:
            return
        povm = eigenprojector_povm(obs)
        records = reference_records(model, povm, phi, nu, 4, seed)
        got, _, (lo, hi) = simulate._sample_mean_estimates(
            np.array([r.counts for r in records]), model, obs,
            simulate._outcome_values(povm.labels), report, phi)
        _, radius, theta, w = fringe
        k = math.floor((w * phi - theta) / math.pi)
        mean_bound, slope_bound = curve_bounds(model, obs, max(abs(lo), abs(hi)))
        end = (0.5e-12 + slope_bound / (w * w * radius)
               + 4.0 * _EPS * (abs(theta) + (abs(k) + 1) * math.pi) / w)
        values = simulate._outcome_values(povm.labels)
        for phi_hat, record in zip(got.tolist(), records):
            by_itp = reference_sample_mean(record, obs, model, phi, closed=False)
            mean = float((record.frequencies() * values).sum())
            bound = end + closed_form_bound(fringe, mean, k, mean_bound)
            assert abs(phi_hat - by_itp.phi_hat) <= bound, (phi_hat, by_itp.phi_hat, bound)


class TestWithoutItp:
    """A one-fringe spec's estimates take no ITP step."""

    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("axis", "xy")
    def test_ghz_runs_take_no_itp_step(self, n, axis, monkeypatch):
        """GHZ N=2-10 with the x or y product and its product basis: both
        estimators run with ``_itp`` patched to raise."""
        def refuse(*args, **kwargs):
            raise AssertionError("_itp must not be called")

        monkeypatch.setattr(simulate, "_itp", refuse)
        model, obs = ghz_model(n), _pauli_product(axis, n)
        run_sample_mean_trials(model, obs, 0.3 / n, 1000, 50, 7)
        run_mle_trials(model, product_basis_povm(axis, n), 0.3 / n, 1000, 50, 7)

    def test_three_levels_take_itp(self, monkeypatch):
        """The three-level carrier's likelihood has no fringe: its solve is
        ``_itp``'s."""
        calls = []
        itp = simulate._itp

        def spy(*args, **kwargs):
            calls.append(args[1].size)
            return itp(*args, **kwargs)

        monkeypatch.setattr(simulate, "_itp", spy)
        model, povm, _, phi = equivalence_case("three-level")
        run_mle_trials(model, povm, phi, NU, TRIALS, SEED)
        assert sum(calls) > 0


def test_sample_mean_run_forms_no_second_order_rows(monkeypatch):
    """The sample-mean run reads its outcome rows to order 1: on GHZ N=10
    the setup holds the rows and their first multiple, not the second."""
    setups = []
    init = _OutcomeRows.__init__

    def keep(self, *args, **kwargs):
        init(self, *args, **kwargs)
        setups.append(self)

    monkeypatch.setattr(_OutcomeRows, "__init__", keep)
    run_sample_mean_trials(ghz_model(10), _pauli_product("x", 10), 0.03, 1000, 20, 7)
    assert [len(setup.rows) for setup in setups] == [2]
