"""Tests for the GHZ closed forms, Ramsey rotation, and the two-qubit
diagonal-SLD solution."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qcrb_lab import (
    InvalidCoefficientsError,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    collective_spin,
    ghz_closed_form_expectations,
    ghz_model,
    ghz_sld_closed_form,
    ghz_state,
    observable_expectations,
    optimal_separable_observable,
    parity_from_collective_spin,
    parity_observable,
    product_observable,
    ramsey_rotate,
    rotation_about_y,
    single_site_observable,
    singular_points,
    tensor_power,
    two_qubit_lambda_solution,
)
from qcrb_lab.ghz import SeparableObservableCoeffs, X_BASIS, Y_BASIS


class TestGhzState:
    def test_two_qubit_zero_phase(self):
        amps = ghz_state(2, 0.0).amplitudes
        expected = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        assert np.allclose(amps, expected, atol=1e-15)

    def test_single_qubit_pi(self):
        amps = ghz_state(1, math.pi).amplitudes
        assert amps[0] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert amps[1] == pytest.approx(-1 / math.sqrt(2), abs=1e-12)

    def test_three_qubit_third_of_pi(self):
        amps = ghz_state(3, math.pi / 3).amplitudes
        assert amps[-1] == pytest.approx(-1 / math.sqrt(2), abs=1e-12)

    def test_model_reproduces_state_family(self):
        """Unitary evolution equals the closed-form state up to global phase."""
        for n in (1, 2, 4):
            model = ghz_model(n)
            for phi in (0.0, 0.31, -1.7):
                evolved = model.density(phi).matrix
                direct = ghz_state(n, phi).density().matrix
                assert np.linalg.norm(evolved - direct) <= 1e-12

    def test_model_matches_expm_oracle(self):
        n, phi = 3, 0.83
        model = ghz_model(n)
        u = expm(-1j * phi * collective_spin("z", n).matrix)
        psi0 = ghz_state(n, 0.0).amplitudes
        oracle = np.outer(u @ psi0, (u @ psi0).conj())
        assert np.linalg.norm(model.density(phi).matrix - oracle) <= 1e-12


class TestClosedFormSld:
    def test_two_qubit_entries(self):
        phi = 0.37
        matrix = ghz_sld_closed_form(2, phi).matrix
        assert matrix[0, 3] == pytest.approx(-2j * np.exp(-2j * phi), abs=1e-14)
        assert matrix[3, 0] == pytest.approx(2j * np.exp(2j * phi), abs=1e-14)
        assert np.count_nonzero(matrix) == 2

    def test_single_qubit_zero_phase_is_sigma_y(self):
        assert np.allclose(ghz_sld_closed_form(1, 0.0).matrix, SIGMA_Y, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_qfi_exactly_n_squared(self, n):
        phi = 0.61
        rho = ghz_state(n, phi).density().matrix
        l_matrix = ghz_sld_closed_form(n, phi).matrix
        value = np.trace(rho @ l_matrix @ l_matrix).real
        assert abs(value - n * n) <= 1e-10


class TestSeparableFamily:
    def test_sigma_x_member(self):
        obs = optimal_separable_observable(3, SeparableObservableCoeffs(0, 1, 0, 0))
        assert np.array_equal(obs.matrix, tensor_power(SIGMA_X, 3))

    def test_sigma_y_member(self):
        obs = optimal_separable_observable(2, SeparableObservableCoeffs(0, 0, 1, 0))
        assert np.allclose(obs.matrix, tensor_power(SIGMA_Y, 2), atol=1e-15)

    @pytest.mark.parametrize("bad", [
        SeparableObservableCoeffs(0.1, 1, 0, 0),
        SeparableObservableCoeffs(0, 1, 0, -0.2),
        SeparableObservableCoeffs(0, 0, 0, 0),
    ])
    def test_invalid_coefficients_rejected(self, bad):
        with pytest.raises(InvalidCoefficientsError):
            optimal_separable_observable(2, bad)

    def test_second_moment_scales_with_coefficient_norm(self):
        coeffs = SeparableObservableCoeffs(0, 1, 1, 0)
        for n in (1, 2, 3):
            _, second = ghz_closed_form_expectations(n, 0.4, coeffs)
            assert second == pytest.approx(2.0 ** n, rel=1e-12)


class TestClosedFormExpectations:
    def test_mean_examples(self):
        mean, _ = ghz_closed_form_expectations(
            3, 0.0, SeparableObservableCoeffs(0, 1, 0, 0))
        assert mean == pytest.approx(1.0, abs=1e-12)
        mean, _ = ghz_closed_form_expectations(
            2, 0.0, SeparableObservableCoeffs(0, 0, 1, 0))
        assert mean == pytest.approx(-1.0, abs=1e-12)

    def test_unit_norm_second_moment(self):
        coeffs = SeparableObservableCoeffs(0, 0.6, 0.8, 0)
        for n in (1, 2, 5):
            _, second = ghz_closed_form_expectations(n, 0.9, coeffs)
            assert second == pytest.approx(1.0, abs=1e-12)

    def test_matches_generic_trace_route(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 7))
            a1, a2 = rng.uniform(-1.5, 1.5, 2)
            if a1 * a1 + a2 * a2 < 1e-2:
                a1 = 1.0
            coeffs = SeparableObservableCoeffs(0.0, float(a1), float(a2), 0.0)
            phi = float(rng.uniform(-math.pi, math.pi))
            closed = ghz_closed_form_expectations(n, phi, coeffs)
            generic = observable_expectations(
                ghz_model(n), phi, optimal_separable_observable(n, coeffs))
            assert closed[0] == pytest.approx(generic[0], abs=1e-10)
            assert closed[1] == pytest.approx(generic[1], abs=1e-10)


class TestSingularPoints:
    def test_sigma_x_grid(self):
        points = singular_points(4, SeparableObservableCoeffs(0, 1, 0, 0))
        for k in range(-4, 5):
            assert points.contains(k * math.pi / 4, tol=1e-12)
        assert not points.contains(0.3)

    def test_sigma_y_odd_n(self):
        n = 3
        points = singular_points(n, SeparableObservableCoeffs(0, 0, 1, 0))
        for k in range(-3, 4):
            assert points.contains((2 * k + 1) * math.pi / (2 * n), tol=1e-12)
        assert not points.contains(math.pi / n)

    def test_sigma_y_even_n_includes_k_pi_over_n(self):
        n = 2
        points = singular_points(n, SeparableObservableCoeffs(0, 0, 1, 0))
        for k in range(-2, 3):
            assert points.contains(k * math.pi / n, tol=1e-12)

    def test_points_in_window(self):
        points = singular_points(2, SeparableObservableCoeffs(0, 1, 0, 0))
        inside = points.points_in(0.0, math.pi)
        assert np.allclose(inside, [0.0, math.pi / 2, math.pi], atol=1e-12)

    def test_slope_vanishes_exactly_on_grid(self):
        """Oracle: the analytic slope is zero at the reported points."""
        coeffs = SeparableObservableCoeffs(0.0, 0.8, -0.5, 0.0)
        n = 3
        points = singular_points(n, coeffs)
        r = math.hypot(coeffs.a1, coeffs.a2)
        theta = math.atan2(coeffs.a2, coeffs.a1)
        for k in range(-2, 3):
            phi = points.offset + k * points.spacing
            slope = n * r ** n * math.sin(n * (theta - phi))
            assert abs(slope) <= 1e-9


class TestRamseyRotation:
    def test_sigma_x_maps_to_parity(self):
        for n in (1, 2, 4):
            obs = optimal_separable_observable(
                n, SeparableObservableCoeffs(0, 1, 0, 0))
            rotated = ramsey_rotate(obs, n)
            assert np.allclose(rotated.matrix, tensor_power(SIGMA_Z, n), atol=1e-10)

    def test_sigma_y_is_invariant(self):
        obs = optimal_separable_observable(3, SeparableObservableCoeffs(0, 0, 1, 0))
        rotated = ramsey_rotate(obs, 3)
        assert np.allclose(rotated.matrix, obs.matrix, atol=1e-10)

    def test_identity_is_fixed(self):
        obs = product_observable([(1.0, 0.0, 0.0, 0.0)] * 2)
        rotated = ramsey_rotate(obs, 2)
        assert np.allclose(rotated.matrix, np.eye(4), atol=1e-12)

    def test_general_family_image(self, rng):
        """(a1 sx + a2 sy)^N -> (a1 sz + a2 sy)^N under the pi/2 pulse."""
        for n in (1, 2, 3):
            a1, a2 = rng.uniform(-1, 1, 2)
            obs = product_observable([(0.0, float(a1), float(a2), 0.0)] * n)
            rotated = ramsey_rotate(obs, n)
            target = product_observable([(0.0, 0.0, float(a2), float(a1))] * n)
            assert np.allclose(rotated.matrix, target.matrix, atol=1e-10)

    def test_spectrum_preserved(self, rng):
        from conftest import random_hermitian
        obs = random_hermitian(rng, 8)
        rotated = ramsey_rotate(obs, 3)
        before = np.linalg.eigvalsh(obs.matrix)
        after = np.linalg.eigvalsh(rotated.matrix)
        assert np.allclose(before, after, atol=1e-10)

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_product_form_matches_dense_conjugation(self, seed, n):
        """The rotated product form's matrix against ``R^dagger O R`` with
        ``R = rotation_about_y(n)``, for random sites with ``a0, a3 != 0``.

        Bound, first order in ``eps``, per entry, with ``m_s`` the sum of the
        moduli of site s's 2x2 factor and ``M = 2^-N prod_s m_s``. Every entry
        of R is ``+-2^(-N/2)`` and ``|O| = kron_s |F_s|``, so ``(|R^dagger|
        |O| |R|)_ij = M``; an entry of the rotated factor ``r^dagger F_s r``
        is at most ``m_s / 2``, so the form's Kronecker product is at most M
        per entry too. The dense route carries R's ``N`` roundings (kron
        products and ``cos``, ``sin`` of ``pi / 4``), O's ``(sqrt(5) + 1)
        N`` and two products summing ``d = 2^N`` terms each, ``(2 d + 6 N)
        u`` of M with ``u = eps / 2``; the form's matrix carries ``(sqrt(5)
        + 1) N u`` of M. Their difference is within ``(d + 5 N) eps M``.
        """
        rng = np.random.default_rng(seed)
        sites = []
        for _ in range(n):
            a0, a3 = rng.choice((-1.0, 1.0), 2) * rng.uniform(0.1, 2.0, 2)
            a1, a2 = rng.normal(size=2)
            sites.append((float(a0), float(a1), float(a2), float(a3)))
        obs = product_observable(sites)
        rotated = ramsey_rotate(obs, n)
        assert rotated.product_form == tuple((a0, -a3, a2, a1)
                                             for a0, a1, a2, a3 in sites)
        assert "matrix" not in obs.__dict__
        r = rotation_about_y(n)
        dense = r.conj().T @ obs.matrix @ r
        scale = 2.0 ** -n * math.prod(float(np.abs(single_site_observable(q)).sum())
                                      for q in sites)
        bound = (2 ** n + 5 * n) * np.finfo(float).eps * scale
        assert np.abs(rotated.matrix - dense).max() <= bound

    def test_rotation_matches_expm_oracle(self):
        for n in (1, 2, 3):
            oracle = expm(-1j * (math.pi / 2) * collective_spin("y", n).matrix)
            assert np.allclose(rotation_about_y(n), oracle, atol=1e-12)


class TestParity:
    def test_single_qubit(self):
        assert np.array_equal(parity_observable(1).matrix, SIGMA_Z)

    def test_two_qubit_diagonal(self):
        expected = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
        assert np.array_equal(parity_observable(2).matrix, expected)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_identity_with_collective_spin_form(self, n):
        assert np.array_equal(parity_observable(n).matrix,
                              parity_from_collective_spin(n).matrix)


class TestTwoQubitLambdaSolution:
    def test_quarter_pi(self):
        sol = two_qubit_lambda_solution(math.pi / 4)
        assert sol.values() == pytest.approx((-2.0, 2.0, 2.0, -2.0), abs=1e-10)
        assert not sol.singular

    def test_sixth_pi(self):
        sol = two_qubit_lambda_solution(math.pi / 6)
        assert sol.lambda_pp == pytest.approx(-2.0 / math.sqrt(3.0), abs=1e-10)
        assert sol.lambda_pm == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-10)
        assert sol.lambda_mp == pytest.approx(sol.lambda_pm, abs=1e-12)
        assert sol.lambda_mm == pytest.approx(sol.lambda_pp, abs=1e-12)

    @pytest.mark.parametrize("k", range(-2, 3))
    def test_singular_grid(self, k):
        sol = two_qubit_lambda_solution(k * math.pi / 2)
        assert sol.singular
        assert sol.values() == (None, None, None, None)

    def test_singular_window(self):
        assert two_qubit_lambda_solution(math.pi / 2 + 5e-11).singular
        assert not two_qubit_lambda_solution(math.pi / 2 + 1e-6).singular

    def test_y_basis_swaps_outcome_pairs(self):
        """In the y product basis the tan/cot roles interchange; at pi/4 the
        values are (2, -2, -2, 2)."""
        sol = two_qubit_lambda_solution(math.pi / 4, Y_BASIS)
        assert sol.values() == pytest.approx((2.0, -2.0, -2.0, 2.0), abs=1e-10)
        phi = 0.53
        x_sol = two_qubit_lambda_solution(phi, X_BASIS)
        y_sol = two_qubit_lambda_solution(phi, Y_BASIS)
        assert y_sol.lambda_pp == pytest.approx(x_sol.lambda_pm, abs=1e-10)
        assert y_sol.lambda_pm == pytest.approx(x_sol.lambda_pp, abs=1e-10)

    @pytest.mark.parametrize("basis", [X_BASIS, Y_BASIS])
    def test_operator_reproduces_sld_action(self, basis):
        phi = 0.82
        sol = two_qubit_lambda_solution(phi, basis)
        k_matrix = sol.to_operator().matrix
        psi = ghz_state(2, phi).amplitudes
        l_matrix = ghz_sld_closed_form(2, phi).matrix
        assert np.linalg.norm(k_matrix @ psi - l_matrix @ psi) <= 1e-9

    def test_operator_unavailable_when_singular(self):
        with pytest.raises(ValueError):
            two_qubit_lambda_solution(0.0).to_operator()
