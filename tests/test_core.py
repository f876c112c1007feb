"""Tests for the linear-algebra and quantum-primitive layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcrb_lab import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    HermitianObservable,
    NotHermitianError,
    NotPositiveError,
    Povm,
    PureState,
    collective_spin,
    eigenprojector_povm,
    ghz_state,
    hermitian_eigendecomposition,
    product_basis_povm,
    product_observable,
    single_site_observable,
    tensor_power,
    tensor_product,
)
from qcrb_lab.core import psd_spectrum

from conftest import random_hermitian


class TestTensorProduct:
    def test_identity_pair(self):
        assert np.array_equal(tensor_product([IDENTITY_2, IDENTITY_2]), np.eye(4))

    def test_basis_flip(self):
        """sigma_x tensor sigma_x maps |00> to |11>."""
        amps = np.zeros(4, dtype=complex)
        amps[0] = 1.0
        flipped = tensor_product([SIGMA_X, SIGMA_X]) @ amps
        expected = np.zeros(4, dtype=complex)
        expected[3] = 1.0
        assert np.array_equal(flipped, expected)

    def test_triple_sigma_z_diagonal(self):
        # brute-force Kronecker expansion: sign = parity of set bits
        result = tensor_product([SIGMA_Z, SIGMA_Z, SIGMA_Z])
        expected = np.diag([1, -1, -1, 1, -1, 1, 1, -1]).astype(complex)
        assert np.array_equal(result, expected)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one factor"):
            tensor_product([])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="not square"):
            tensor_product([np.ones((2, 3))])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_associativity(self, seed):
        rng = np.random.default_rng(seed)
        mats = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                for _ in range(3)]
        left = tensor_product([tensor_product(mats[:2]), mats[2]])
        flat = tensor_product(mats)
        assert np.array_equal(left, flat)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_equals_a_kron_chain(self, seed):
        """The broadcast build is bit for bit ``np.kron`` applied left to
        right, over chains of square factors of sizes 1-3, and so is a
        diagonal product form's diagonal over its sites' ``(a0 + a3, a0 -
        a3)``."""
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 4, size=int(rng.integers(1, 6)))
        mats = [rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)) for m in sizes]
        chain = mats[0]
        for mat in mats[1:]:
            chain = np.kron(chain, mat)
        assert tensor_product(mats).tobytes() == chain.tobytes()
        quads = rng.normal(size=(int(rng.integers(1, 9)), 4))
        quads[:, 1:3] = 0.0
        diagonal = np.ones(1)
        for a0, _, _, a3 in quads:
            diagonal = np.kron(diagonal, [a0 + a3, a0 - a3])
        assert product_observable(quads).diagonal.tobytes() == diagonal.tobytes()


class TestEigendecomposition:
    def test_sigma_z_spectrum(self):
        eigenvalues, _ = hermitian_eigendecomposition(SIGMA_Z)
        assert np.allclose(eigenvalues, [-1.0, 1.0])

    def test_sigma_x_eigenvectors(self):
        """Eigenvectors of sigma_x are (|0> +- |1>)/sqrt(2) up to phase."""
        eigenvalues, eigenvectors = hermitian_eigendecomposition(SIGMA_X)
        assert np.allclose(eigenvalues, [-1.0, 1.0])
        minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert abs(np.vdot(eigenvectors[:, 0], minus)) == pytest.approx(1.0)
        assert abs(np.vdot(eigenvectors[:, 1], plus)) == pytest.approx(1.0)

    def test_ghz_projector_spectrum(self):
        rho = ghz_state(2, 0.3).density().matrix
        eigenvalues, _ = hermitian_eigendecomposition(rho)
        assert np.allclose(eigenvalues, [0.0, 0.0, 0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 17, 64, 256])
    def test_reconstruction(self, rng, dim):
        matrix = random_hermitian(rng, dim).matrix
        eigenvalues, eigenvectors = hermitian_eigendecomposition(matrix)
        rebuilt = (eigenvectors * eigenvalues) @ eigenvectors.conj().T
        scale = np.linalg.norm(matrix)
        assert np.linalg.norm(rebuilt - matrix) <= 1e-9 * scale
        assert np.all(np.diff(eigenvalues) >= 0)
        gram = eigenvectors.conj().T @ eigenvectors
        assert np.linalg.norm(gram - np.eye(dim)) <= 1e-9

    def test_not_hermitian_rejected(self):
        with pytest.raises(NotHermitianError):
            hermitian_eigendecomposition(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestCollectiveSpin:
    def test_single_site_z(self):
        assert np.array_equal(collective_spin("z", 1).matrix, SIGMA_Z / 2.0)

    def test_two_site_z_diagonal(self):
        expected = np.diag([1.0, 0.0, 0.0, -1.0]).astype(complex)
        assert np.allclose(collective_spin("z", 2).matrix, expected, atol=1e-15)

    def test_two_site_y_spectrum(self):
        jy = collective_spin("y", 2).matrix
        assert abs(np.trace(jy)) <= 1e-15
        eigenvalues = np.linalg.eigvalsh(jy)
        assert np.allclose(eigenvalues, [-1.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            collective_spin("q", 2)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_z_diagonal_is_the_kronecker_sum_bit_for_bit(self, n):
        total = np.zeros((2 ** n, 2 ** n), dtype=complex)
        for site in range(n):
            factors = [IDENTITY_2] * n
            factors[site] = SIGMA_Z
            total += tensor_product(factors)
        assert collective_spin("z", n).matrix.tobytes() == (total / 2.0).tobytes()


class TestDiagonal:
    def test_collective_z_is_diagonal(self):
        jz = collective_spin("z", 3)
        assert jz.diagonal.tolist() == [1.5, 0.5, 0.5, -0.5, 0.5, -0.5, -0.5, -1.5]
        assert jz.diagonal is jz.diagonal
        with pytest.raises(ValueError):
            jz.diagonal[0] = 0.0

    @pytest.mark.parametrize("matrix", [
        collective_spin("x", 2).matrix,
        np.diag([1.0, 2.0]) + np.diag([1e-300], 1) + np.diag([1e-300], -1),
        np.diag([1.0, 1j]),
    ])
    def test_anything_else_is_not(self, matrix):
        """A nonzero off-diagonal entry, however small, or an imaginary
        diagonal entry (accepted unchecked) gives ``None``."""
        assert HermitianObservable(matrix, check=False).diagonal is None


_EPS = float(np.finfo(float).eps)


class TestObservableForms:
    """An observable acts through the form it was built from and builds its
    dense matrix only when ``matrix`` is read."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.sampled_from([1, 3]))
    @settings(max_examples=60, deadline=None)
    def test_apply_product_form_matches_kronecker_product(self, seed, n, columns):
        """``apply`` of a random product form, ``a0`` and ``a3`` non-zero
        included, against ``K x`` with ``K = F_0 kron ... kron F_{N-1}``.

        Bound, first order in the unit roundoff ``u = eps / 2``, for each
        entry, with ``|K| = |F_0| kron ... kron |F_{N-1}|`` (entrywise
        moduli): a complex product is exact to ``sqrt(5) u`` and a complex
        sum to ``u`` relative to the moduli of its terms. ``apply`` builds
        each of the ``2^N`` path terms ``f_{N-1} ... f_0 x_j`` of an entry
        with N products and adds two terms per site, ``(sqrt(5) + 1) N u <=
        1.7 N eps`` of ``(|K| |x|)_i``. The dense route forms an entry of
        ``K`` with ``N - 1`` products and ``K x`` with one more product and
        a sum of ``d = 2^N`` terms, ``(1.2 N + d / 2) eps``. Their
        difference is within ``(3 N + d) eps (|K| |x|)_i``.
        """
        rng = np.random.default_rng(seed)
        sites = [tuple(rng.normal(size=4)) for _ in range(n)]
        obs = product_observable(sites)
        dim = 2 ** n
        x = rng.normal(size=(dim, columns)) + 1j * rng.normal(size=(dim, columns))
        applied = obs.apply(x)
        assert "matrix" not in obs.__dict__
        dense = tensor_product([single_site_observable(q) for q in sites])
        moduli = tensor_product([np.abs(single_site_observable(q)) for q in sites]).real
        bound = (3 * n + dim) * _EPS * (moduli @ np.abs(x))
        assert applied.shape == (dim, columns)
        assert np.all(np.abs(applied - dense @ x) <= bound)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.sampled_from([1, 3]))
    @settings(max_examples=60, deadline=None)
    def test_apply_diagonal_matches_dense_diagonal(self, seed, n, columns):
        """``apply`` of a random real diagonal ``g`` against ``np.diag(g) @
        x``: each entry of ``g x`` is one real product per component, exact
        to ``u``; the dense route adds ``d - 1`` exact zeros to the same
        products, so the two agree to ``eps |g_i| |x_ij|``."""
        rng = np.random.default_rng(seed)
        dim = 2 ** n
        g = rng.normal(size=dim)
        obs = HermitianObservable(diagonal=g)
        x = rng.normal(size=(dim, columns)) + 1j * rng.normal(size=(dim, columns))
        applied = obs.apply(x)
        assert "matrix" not in obs.__dict__
        bound = _EPS * np.abs(g)[:, None] * np.abs(x)
        assert np.all(np.abs(applied - np.diag(g) @ x) <= bound)

    def test_matrix_is_built_on_first_read(self):
        obs = product_observable([(0.5, 0.6, 0.8, -0.25)] * 3)
        assert obs.dim == 8 and "matrix" not in obs.__dict__
        assert obs.matrix is obs.matrix
        with pytest.raises(ValueError):
            obs.matrix[0, 0] = 0.0
        assert np.array_equal(obs.matrix, tensor_power(
            single_site_observable((0.5, 0.6, 0.8, -0.25)), 3))

    def test_given_matrix_is_applied_densely(self):
        rng = np.random.default_rng(3)
        obs = random_hermitian(rng, 4)
        x = rng.normal(size=(4, 2)) + 0j
        assert obs.apply(x).tobytes() == (obs.matrix @ x).tobytes()

    def test_diagonal_of_a_product_form(self):
        """A product form with ``a1 = a2 = 0`` on every site reads its
        diagonal without the matrix, bit for bit the dense one's."""
        sites = [(0.3, 0.0, 0.0, 1.1), (-0.7, 0.0, 0.0, 0.2), (0.0, 0.0, 0.0, 1.0)]
        obs = product_observable(sites)
        diagonal = obs.diagonal
        assert "matrix" not in obs.__dict__
        assert diagonal.tobytes() == np.diag(obs.matrix).real.tobytes()
        assert product_observable([(0.0, 1.0, 0.0, 0.0)] * 2).diagonal is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficients_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            product_observable([(0.0, 1.0, 0.0, 0.0), (0.0, bad, 0.0, 0.0)])

    def test_non_finite_diagonal_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            HermitianObservable(diagonal=[1.0, np.nan])

    def test_a_form_is_required(self):
        with pytest.raises(ValueError):
            HermitianObservable()
        with pytest.raises(ValueError):
            HermitianObservable(np.eye(2), diagonal=[1.0, 1.0])


class TestPsdCarrier:
    """``psd_spectrum(rho).carrier()`` is a ``d x r`` factor ``C`` with ``C
    C^dagger = rho`` over the support of ``rho``."""

    def test_projector_has_one_column(self):
        rho = ghz_state(3, 0.7).density().matrix
        carrier = psd_spectrum(rho).carrier()
        assert carrier.shape == (8, 1)
        assert np.allclose(carrier @ carrier.conj().T, rho, atol=1e-12)

    def test_maximally_mixed(self):
        dim = 4
        carrier = psd_spectrum(np.eye(dim) / dim).carrier()
        assert np.allclose(carrier.conj().T @ carrier, np.eye(dim) / dim, atol=1e-12)

    def test_diagonal(self):
        carrier = psd_spectrum(np.diag([0.75, 0.25]).astype(complex)).carrier()
        assert np.allclose(np.abs(carrier), [[0.0, np.sqrt(0.75)], [0.5, 0.0]], atol=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(NotPositiveError):
            psd_spectrum(np.diag([1.0, -0.5]).astype(complex))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_factor_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 9))
        w = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = w @ w.conj().T
        rho = rho / np.trace(rho).real
        carrier = psd_spectrum(rho).carrier()
        assert np.linalg.norm(carrier @ carrier.conj().T - rho) <= 1e-9


class TestDomainTypes:
    def test_pure_state_norm_checked(self):
        with pytest.raises(ValueError, match="not normalized"):
            PureState(np.array([1.0, 1.0]))

    def test_density_trace_checked(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_density_hermiticity_checked(self):
        bad = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(NotHermitianError):
            DensityMatrix(bad)

    def test_density_psd_checked(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(NotPositiveError):
            DensityMatrix(bad)

    def test_observable_product_form_checked(self):
        """An observable takes exactly one form; a matrix cannot come with a
        product_form or a diagonal."""
        with pytest.raises(ValueError, match="exactly one"):
            HermitianObservable(np.eye(4, dtype=complex),
                                product_form=((0.0, 1.0, 0.0, 0.0),) * 2)
        with pytest.raises(ValueError, match="exactly one"):
            HermitianObservable(np.eye(2, dtype=complex), diagonal=[1.0, 1.0])
        with pytest.raises(ValueError, match="exactly one"):
            HermitianObservable()

    def test_product_observable_records_form(self):
        obs = product_observable([(0.0, 1.0, 0.0, 0.0)] * 2)
        assert obs.product_form == ((0.0, 1.0, 0.0, 0.0),) * 2
        assert np.array_equal(obs.matrix, np.kron(SIGMA_X, SIGMA_X))
        # a matrix cannot carry the recorded form as well
        with pytest.raises(ValueError, match="exactly one"):
            HermitianObservable(obs.matrix, product_form=obs.product_form)

    def test_povm_takes_array_labels(self):
        projectors = (np.diag([1.0, 0.0]).astype(complex),
                      np.diag([0.0, 1.0]).astype(complex))
        povm = Povm(projectors, labels=np.array([1.0, -1.0]))
        assert povm.labels == (1.0, -1.0)
        assert Povm(projectors).labels == (0, 1)

    def test_povm_completeness_checked(self):
        half = np.eye(2, dtype=complex) / 2.0
        with pytest.raises(ValueError, match="identity"):
            Povm((half, half / 2.0))

    def test_povm_psd_checked(self):
        up = np.diag([1.5, 0.0]).astype(complex)
        down = np.diag([-0.5, 1.0]).astype(complex)
        with pytest.raises(NotPositiveError):
            Povm((up, down))

    def test_values_immutable(self):
        state = ghz_state(2, 0.0)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0
        obs = product_observable([(0.0, 0.0, 1.0, 0.0)])
        with pytest.raises(ValueError):
            obs.matrix[0, 0] = 5.0


class TestMeasurementBuilders:
    def test_eigenprojector_groups_degenerate(self):
        obs = product_observable([(0.0, 1.0, 0.0, 0.0)] * 2)
        povm = eigenprojector_povm(obs)
        assert povm.labels == (-1.0, 1.0)
        total = sum(povm.elements)
        assert np.allclose(total, np.eye(4), atol=1e-12)
        # reconstructs the observable from labels and projectors
        rebuilt = sum(l * e for l, e in zip(povm.labels, povm.elements))
        assert np.allclose(rebuilt, obs.matrix, atol=1e-12)

    def test_product_basis_ordering(self):
        povm = product_basis_povm("x", 2)
        assert povm.labels == ("++", "+-", "-+", "--")
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        pp = np.kron(plus, plus)
        assert np.allclose(povm.elements[0], np.outer(pp, pp.conj()), atol=1e-12)

    def test_product_basis_y_is_complete(self):
        povm = product_basis_povm("y", 3)
        assert np.allclose(sum(povm.elements), np.eye(8), atol=1e-12)

    def test_builders_skip_per_element_validation(self, monkeypatch):
        """Their elements are orthonormal projectors by construction; the
        per-element eigensolver is left to POVMs given from outside."""
        def forbidden(*args, **kwargs):
            raise AssertionError("np.linalg.eigvalsh must not be called")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        built = (product_basis_povm("x", 3), product_basis_povm("y", 2),
                 eigenprojector_povm(collective_spin("x", 3)))
        monkeypatch.undo()
        for povm in built:
            checked = Povm(povm.elements, povm.labels)
            assert all(a.tobytes() == b.tobytes()
                       for a, b in zip(checked.elements, povm.elements))


class TestParityIdentity:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_sigma_z_power_equals_parity_of_jz(self, n):
        """sigma_z^{tensor N} and (-1)^(N/2 - J_z) are the same +-1 diagonal."""
        left = tensor_power(SIGMA_Z, n)
        jz = np.diag(collective_spin("z", n).matrix).real
        right = np.diag((-1.0) ** np.rint(n / 2.0 - jz))
        assert np.array_equal(left, right.astype(complex))

    def test_sigma_y_squares_to_identity(self):
        assert np.array_equal(SIGMA_Y @ SIGMA_Y, IDENTITY_2)
