"""Tests for shot sampling, estimators, and Monte Carlo aggregation."""

import math
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
    InsufficientTrialsError,
    OutcomeDistribution,
    Povm,
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
from qcrb_lab.fisher import _outcome_arrays
from qcrb_lab.optimality import _moments

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

    def test_counts_must_sum_to_nu(self):
        with pytest.raises(ValueError, match="sum"):
            ShotRecord(labels=(0, 1), counts=np.array([3, 3]), nu=7, seed=0)


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
        povm = computational_povm(4)
        interval = default_mle_interval(model, 0.4)
        # outcomes |01>, |10> never fire; |00>, |11> fire with phase-free odds
        flat = ShotRecord(labels=povm.labels, counts=np.array([5, 0, 0, 5]),
                          nu=10, seed=-1)
        impossible = ShotRecord(labels=povm.labels, counts=np.array([5, 5, 0, 0]),
                                nu=10, seed=-1)
        with pytest.raises(FlatLikelihoodError, match="does not depend"):
            simulate._mle_estimates([flat, impossible], model, povm, interval)
        with pytest.raises(FlatLikelihoodError, match="-inf over the whole"):
            simulate._mle_estimates([impossible, flat], model, povm, interval)


# --- reference: the per-trial estimators as they were before batching -------

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _reference_log_likelihood(record, dist, floor=1e-300):
    total = 0.0
    for count, p in zip(record.counts, dist.probabilities):
        if count == 0:
            continue
        if p <= floor:
            return -math.inf
        total += float(count) * math.log(float(p))
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


def reference_mle(record, model, povm, search_interval, grid_points=65, xtol=1e-10):
    lo, hi = (float(search_interval[0]), float(search_interval[1]))

    def loglik(phi):
        return _reference_log_likelihood(
            record, outcome_distribution(model, phi, povm, second_order=False))

    grid = np.linspace(lo, hi, grid_points)
    values = np.array([loglik(p) for p in grid])
    finite = np.isfinite(values)
    best = float(values[finite].max())
    center = (lo + hi) / 2.0
    tie_tol = 1e-9 * max(1.0, abs(best))
    candidates = [i for i in range(grid_points)
                  if finite[i] and values[i] >= best - tie_tol]
    best_idx = min(candidates, key=lambda i: (abs(grid[i] - center), i))
    bracket = (float(grid[max(best_idx - 1, 0)]),
               float(grid[min(best_idx + 1, grid_points - 1)]))
    phi_hat = _reference_newton_step(
        record, model, povm, _reference_golden_max(loglik, *bracket, xtol), *bracket)
    try:
        info = cfi(outcome_distribution(model, phi_hat, povm))
        se_predicted = 1.0 / math.sqrt(record.nu * info) if info > 0.0 else None
    except SingularOutcomeError:
        se_predicted = None
    return simulate.EstimatorResult(phi_hat=float(phi_hat), method="maximum_likelihood",
                                    se_predicted=se_predicted, branch=(lo, hi))


def reference_sample_mean(record, obs, model, branch_center):
    values = np.array([float(label) for label in record.labels])
    empirical_mean = float(values @ record.frequencies())
    report = error_propagation(model, branch_center, obs, record.nu)
    se_predicted = math.sqrt(report.delta_phi_sq)
    n_sites = max(1, math.ceil(math.log2(model.dim)))
    lo, hi = simulate._branch_interval(model, obs, branch_center,
                                       math.pi / (8.0 * n_sites))
    mean_lo = _moments(model, obs, sld(model, lo)).mean
    mean_hi = _moments(model, obs, sld(model, hi)).mean
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
    else:
        phi_hat = brentq(
            lambda x: _moments(model, obs, sld(model, x)).mean - empirical_mean,
            lo, hi, xtol=1e-12)
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


@cache
def equivalence_case(name):
    """(model, product POVM, observable, phase) for each cross-checked model."""
    if name.startswith("ghz"):
        n, axis = int(name[3]), name[-1]
        model = ghz_model(n)
    else:
        n, axis = 2, "x"
        model = _mixed_ghz2() if name == "mixed" else _blackbox_ghz2()
    return model, product_basis_povm(axis, n), _pauli_product(axis, n), 0.3 / n


EQUIVALENCE_CASES = ("ghz1-x", "ghz1-y", "ghz2-x", "ghz2-y", "ghz3-x", "ghz3-y",
                     "mixed", "blackbox")
NU, TRIALS, SEED = 2000, 6, 13


@pytest.fixture
def trial_results(monkeypatch):
    """Per-trial estimator results of every run made during the test."""
    captured = []
    summarize = simulate._summarize

    def spy(method, phi_true, nu, seed, results, **kwargs):
        captured.append(list(results))
        return summarize(method, phi_true, nu, seed, results, **kwargs)

    monkeypatch.setattr(simulate, "_summarize", spy)
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
        assert estimate_phi_sample_mean(records[0], obs, model, phi) == expected[0]

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
        batch = _outcome_arrays(model, phis, povm, order=0)[0]
        assert batch.shape == (len(phis), len(povm))
        for phi, row in zip(phis, batch):
            single = outcome_distribution(model, phi, povm, second_order=False)
            assert row.tobytes() == single.probabilities.tobytes()

    def test_batched_probabilities_check_dimension(self):
        with pytest.raises(DimensionMismatchError):
            _outcome_arrays(ghz_model(2), [0.1], product_basis_povm("x", 3), order=0)

    @pytest.mark.parametrize("name", EQUIVALENCE_CASES)
    def test_chunked_probabilities_bitwise(self, name, monkeypatch):
        model, povm, _, _ = equivalence_case(name)
        phis = np.linspace(-3.0, 3.0, 11)
        whole = _outcome_arrays(model, phis, povm, order=0)[0]
        monkeypatch.setattr(fisher, "_BATCH_ENTRIES", 3 * model.dim ** 2)
        chunked = _outcome_arrays(model, phis, povm, order=0)[0]
        assert chunked.tobytes() == whole.tobytes()

    def test_chunked_mle_run_unchanged(self, monkeypatch):
        model, povm, _, phi = equivalence_case("ghz2-x")
        whole = run_mle_trials(model, povm, phi, NU, TRIALS, SEED)
        monkeypatch.setattr(fisher, "_BATCH_ENTRIES", 2 * model.dim ** 2)
        chunked = run_mle_trials(model, povm, phi, NU, TRIALS, SEED)
        assert chunked.estimates.tobytes() == whole.estimates.tobytes()

    def test_log_likelihoods_reject_mismatched_outcomes(self):
        with pytest.raises(ValueError, match="3 outcome counts but 4"):
            simulate._log_likelihoods(np.ones((2, 3)), np.zeros((2, 4)))
