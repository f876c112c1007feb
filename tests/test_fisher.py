"""Tests for parametric derivatives, SLD solving, and Fisher information."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcrb_lab import (
    DensityMatrix,
    DimensionMismatchError,
    HermitianObservable,
    OutcomeDistribution,
    Povm,
    PureState,
    SingularOutcomeError,
    SldUnsolvableError,
    VariantInapplicableError,
    blackbox_model,
    cfi,
    collective_spin,
    eigenprojector_povm,
    ghz_model,
    ghz_sld_closed_form,
    ghz_state,
    outcome_distribution,
    product_basis_povm,
    qfi,
    qfi_from_generator_variance,
    sld,
    state_derivative,
    unitary_model,
)
from conftest import (degenerate_observable, random_density, random_hermitian, random_povm,
                      ref_carrier_outcome_arrays, ref_frame,
                      ref_moved_solution, support_carrier)


def computational_povm(dim):
    elements = tuple(np.diag([1.0 if i == k else 0.0 for i in range(dim)])
                     .astype(complex) for k in range(dim))
    return Povm(elements)


def plus_state():
    return PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))


class TestStateDerivative:
    def test_half_sigma_z_on_plus(self):
        """-i[G, rho] for G = sigma_z/2, rho = |+><+| at phi = 0."""
        model = unitary_model(plus_state(), collective_spin("z", 1))
        deriv = state_derivative(model, 0.0)
        expected = np.array([[0.0, -0.5j], [0.5j, 0.0]])
        assert np.allclose(deriv, expected, atol=1e-12)

    def test_constant_family_has_zero_derivative(self):
        zero_gen = HermitianObservable(np.zeros((2, 2), dtype=complex))
        model = unitary_model(plus_state(), zero_gen)
        assert np.allclose(state_derivative(model, 1.3), 0.0, atol=1e-15)

    def test_two_qubit_ghz_corner_entry(self):
        """d rho has the |00><11| entry -i e^{-2i phi}, magnitude 1."""
        model = ghz_model(2)
        deriv = state_derivative(model, 0.0)
        assert deriv[0, 3] == pytest.approx(-1j, abs=1e-12)
        assert deriv[3, 0] == pytest.approx(1j, abs=1e-12)
        phi = 0.37
        deriv = state_derivative(model, phi)
        assert deriv[0, 3] == pytest.approx(-1j * np.exp(-2j * phi), abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_blackbox_matches_analytic(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        model = unitary_model(random_density(rng, dim), random_hermitian(rng, dim))
        boxed = blackbox_model(model.density, dim)
        phi = float(rng.uniform(-2, 2))
        gap = np.linalg.norm(state_derivative(model, phi)
                             - state_derivative(boxed, phi))
        assert gap <= 1e-6


class TestSld:
    def test_ghz_action_closed_form(self):
        """L|psi> = (N/sqrt(2)) (-i|0..0> + i e^{iN phi}|1..1>)."""
        n, phi = 3, 0.51
        result = sld(ghz_model(n), phi)
        psi = ghz_state(n, phi).amplitudes
        action = result.L.matrix @ psi
        expected = np.zeros(2 ** n, dtype=complex)
        expected[0] = -1j * n / np.sqrt(2.0)
        expected[-1] = 1j * n * np.exp(1j * n * phi) / np.sqrt(2.0)
        assert np.allclose(action, expected, atol=1e-9)

    def test_constant_family_gives_zero(self):
        zero_gen = HermitianObservable(np.zeros((2, 2), dtype=complex))
        result = sld(unitary_model(plus_state(), zero_gen), 0.9)
        assert np.allclose(result.L.matrix, 0.0, atol=1e-12)
        assert result.qfi == pytest.approx(0.0, abs=1e-12)

    def test_two_qubit_matrix_matches_closed_form(self):
        phi = 0.61
        solved = sld(ghz_model(2), phi).L.matrix
        closed = ghz_sld_closed_form(2, phi).matrix
        assert np.allclose(solved, closed, atol=1e-9)
        assert solved[0, 3] == pytest.approx(-2j * np.exp(-2j * phi), abs=1e-9)

    def test_kernel_dim_reported(self):
        result = sld(ghz_model(3), 0.2)
        assert result.kernel_dim == 7

    def test_trace_rho_l_vanishes(self, rng):
        model = unitary_model(random_density(rng, 6), random_hermitian(rng, 6))
        result = sld(model, 0.8)
        rho = model.density(0.8).matrix
        assert abs(np.trace(rho @ result.L.matrix).real) <= 1e-8

    def test_residual_invariant_random_full_rank(self, rng):
        for _ in range(100):
            dim = int(rng.integers(2, 17))
            model = unitary_model(random_density(rng, dim),
                                  random_hermitian(rng, dim))
            phi = float(rng.uniform(-3, 3))
            result = sld(model, phi)
            bound = 1e-8 * max(1.0, np.linalg.norm(result.drho))
            assert result.residual <= bound

    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_identity_offset_in_generator_is_solvable(self, seed):
        """``G + 1e9 I`` evolves a state as G does. Formed with G itself,
        ``-i[G, rho]`` carries rounding of ``eps ||G||`` onto the kernel of a
        pure rho, beyond the 1e-8 solvability cut; the frame of the centred
        generator carries none, so both routes agree within 1e-6 and each
        is close to the QFI of G without the offset.

        The bound: each diagonal entry ``G_jj + 1e9`` is rounded by at most
        half an ulp of 1e9, ``2^-24``; subtracting the mean ``tr / d`` is
        then exact (both are within a factor 2 of 1e9), and the mean's own
        rounding shifts every entry alike, a multiple of I that changes
        nothing. So the frame diagonalises ``G - (tr G / d) I + D`` with a
        diagonal ``D``, ``||D|| <= 2^-24``. A unitary family's QFI is ``4
        Var(G)`` in the initial state at every phase, and ``|Var(G + D) -
        Var(G)| <= 2 sigma ||D|| + ||D||^2`` with ``sigma = sqrt(QFI) / 2``,
        so each route is within ``4 sqrt(QFI) 2^-24 + 4 * 2^-48`` of the
        offset-free QFI, plus its own rounding, a few ``eps ||G||^2``, taken
        as ``1e-12 QFI``. Over 3,000 seeds the largest ratio of the error to
        the first two terms was 0.61 on either route."""
        rng = np.random.default_rng(seed)
        offset_free = random_hermitian(rng, 4)
        generator = HermitianObservable(offset_free.matrix + 1e9 * np.eye(4))
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = PureState(amps / np.linalg.norm(amps))
        dense = sld(unitary_model(state.density(), generator), 0.3)
        vector = sld(unitary_model(state, generator), 0.3)
        assert dense.kernel_dim == vector.kernel_dim == 3
        assert abs(dense.qfi - vector.qfi) <= 1e-6 * vector.qfi
        free = qfi(unitary_model(state, offset_free), 0.3)
        rounding = 2.0 ** -24
        bound = 4.0 * math.sqrt(free) * rounding + 4.0 * rounding ** 2 + 1e-12 * free
        for route in (dense, vector):
            assert abs(route.qfi - free) <= bound

    def test_unsolvable_derivative_raises(self):
        # support shrinks linearly: the derivative keeps weight on the kernel
        def family(phi):
            return DensityMatrix(
                np.diag([1.0 - phi, phi, 0.0]).astype(complex), check=False)

        model = blackbox_model(family, 3)
        with pytest.raises(SldUnsolvableError):
            sld(model, 0.0)

    def test_failing_state_fn_is_wrapped(self):
        def broken(phi):
            raise RuntimeError("backend down")

        from qcrb_lab import EvaluationFailureError
        model = blackbox_model(broken, 2)
        with pytest.raises(EvaluationFailureError, match="backend down"):
            state_derivative(model, 0.1)

    def test_wrong_dimension_state_fn_is_wrapped(self):
        from qcrb_lab import EvaluationFailureError
        model = blackbox_model(ghz_model(2).density, 8)
        with pytest.raises(EvaluationFailureError, match="dimension"):
            model.density(0.2)

    def test_non_hermitian_state_fn_is_rejected_on_every_path(self):
        """An unchecked non-Hermitian state (defect 7.07e-2) is rejected by the
        SLD, the outcome distribution and the batched probabilities alike."""
        from qcrb_lab import EvaluationFailureError
        from qcrb_lab.fisher import _OutcomeRows

        def skewed(phi):
            coherence = 0.4 * np.exp(1j * phi)
            return DensityMatrix(np.array([[0.5, coherence.conjugate() + 0.05],
                                           [coherence, 0.5]]), check=False)

        model, povm = blackbox_model(skewed, 2), product_basis_povm("x", 1)
        for evaluate in (lambda: sld(model, 0.3),
                         lambda: outcome_distribution(model, 0.3, povm),
                         lambda: _OutcomeRows(model, povm)([0.3], 0)):
            with pytest.raises(EvaluationFailureError, match="non-Hermitian"):
                evaluate()


class TestQfi:
    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_ghz_scaling(self, n):
        assert qfi(ghz_model(n), 0.4) == pytest.approx(n * n, abs=1e-9)

    def test_plus_state_single_qubit(self):
        model = unitary_model(plus_state(), collective_spin("z", 1))
        assert qfi(model, 0.0) == pytest.approx(1.0, abs=1e-10)

    def test_maximally_mixed_has_none(self, rng):
        dim = 4
        mixed = DensityMatrix(np.eye(dim, dtype=complex) / dim)
        model = unitary_model(mixed, random_hermitian(rng, dim))
        assert qfi(model, 0.7) == pytest.approx(0.0, abs=1e-10)

    def test_phase_independence_for_pure_unitary(self, rng):
        for _ in range(5):
            dim = int(rng.integers(2, 8))
            amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            state = PureState(amps / np.linalg.norm(amps))
            model = unitary_model(state, random_hermitian(rng, dim))
            phi_a, phi_b = rng.uniform(-3, 3, 2)
            assert qfi(model, float(phi_a)) == pytest.approx(
                qfi(model, float(phi_b)), abs=1e-8)

    def test_generator_variance_route_matches_solver(self, rng):
        for n in (1, 3, 5):
            model = ghz_model(n)
            assert qfi_from_generator_variance(model) == pytest.approx(
                qfi(model, 0.9), abs=1e-9)

    def test_generator_variance_needs_pure_state(self, rng):
        model = unitary_model(random_density(rng, 4, rank=3),
                              random_hermitian(rng, 4))
        with pytest.raises(VariantInapplicableError):
            qfi_from_generator_variance(model)

    def test_generator_variance_needs_unitary_kind(self):
        model = blackbox_model(ghz_model(2).density, 4)
        with pytest.raises(VariantInapplicableError):
            qfi_from_generator_variance(model)


class TestOutcomeDistribution:
    def test_plus_minus_basis_probabilities(self):
        """p(++) = p(--) = (1 + cos 2phi)/4, p(+-) = p(-+) = (1 - cos 2phi)/4."""
        phi = 0.44
        dist = outcome_distribution(ghz_model(2), phi, product_basis_povm("x", 2))
        same = (1.0 + np.cos(2.0 * phi)) / 4.0
        diff = (1.0 - np.cos(2.0 * phi)) / 4.0
        assert np.allclose(dist.probabilities, [same, diff, diff, same], atol=1e-12)
        assert np.allclose(dist.derivatives,
                           [-np.sin(2 * phi) / 2, np.sin(2 * phi) / 2,
                            np.sin(2 * phi) / 2, -np.sin(2 * phi) / 2], atol=1e-12)

    def test_identity_povm(self):
        povm = Povm((np.eye(4, dtype=complex),))
        dist = outcome_distribution(ghz_model(2), 0.3, povm)
        assert dist.probabilities[0] == pytest.approx(1.0, abs=1e-12)
        assert dist.derivatives[0] == pytest.approx(0.0, abs=1e-12)

    def test_computational_basis_is_phase_blind(self):
        dist = outcome_distribution(ghz_model(3), 0.9, computational_povm(8))
        assert dist.probabilities[0] == pytest.approx(0.5, abs=1e-12)
        assert dist.probabilities[-1] == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(dist.derivatives, 0.0, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            outcome_distribution(ghz_model(2), 0.1, computational_povm(8))

    def test_probability_sum_validated(self):
        with pytest.raises(ValueError, match="sum"):
            OutcomeDistribution(labels=(0, 1),
                                probabilities=np.array([0.6, 0.6]),
                                derivatives=np.array([0.0, 0.0]))

    def test_derivative_sum_validated(self):
        with pytest.raises(ValueError, match="derivatives sum"):
            OutcomeDistribution(labels=(0, 1),
                                probabilities=np.array([0.5, 0.5]),
                                derivatives=np.array([0.1, 0.0]))


class TestCfi:
    def test_plus_minus_basis_attains_qfi(self):
        dist = outcome_distribution(ghz_model(2), np.pi / 8, product_basis_povm("x", 2))
        assert cfi(dist) == pytest.approx(4.0, abs=1e-9)

    def test_computational_basis_gives_zero(self):
        dist = outcome_distribution(ghz_model(2), 0.7, computational_povm(4))
        assert cfi(dist) == 0.0

    def test_singular_at_zero_phase(self):
        """At phi = 0 two outcomes vanish to first but not second order."""
        dist = outcome_distribution(ghz_model(2), 0.0, product_basis_povm("x", 2))
        with pytest.raises(SingularOutcomeError, match="limit"):
            cfi(dist)

    def test_divergent_outcome_raises(self):
        dist = OutcomeDistribution(labels=("a", "b"),
                                   probabilities=np.array([0.0, 1.0]),
                                   derivatives=np.array([0.1, -0.1]))
        with pytest.raises(SingularOutcomeError, match="diverges"):
            cfi(dist)

    def test_dead_outcome_skipped_without_second_derivatives(self):
        dist = OutcomeDistribution(labels=("a", "b", "c"),
                                   probabilities=np.array([0.5, 0.5, 0.0]),
                                   derivatives=np.array([0.2, -0.2, 0.0]))
        assert cfi(dist) == pytest.approx(0.04 / 0.5 * 2.0)

    def test_quantum_bound_over_random_povms(self, rng):
        for _ in range(25):
            dim = int(rng.integers(2, 7))
            model = unitary_model(random_density(rng, dim),
                                  random_hermitian(rng, dim))
            povm = random_povm(rng, dim, int(rng.integers(2, 6)))
            phi = float(rng.uniform(-2, 2))
            dist = outcome_distribution(model, phi, povm)
            try:
                value = cfi(dist)
            except SingularOutcomeError:
                continue
            assert value <= qfi(model, phi) + 1e-7


# --- scalar reference: the one-phase formulas of the generator's centred
# eigenframe G - (tr G / d) I = V diag(g) V^dagger (no V for a diagonal G),
# where rho'_jl = e_j rho0'_jl e_l^* with e = exp(-i g phi) and its
# derivative is -i (g_j - g_l) rho'_jl, rotated back by V ----------------------

_EPS = float(np.finfo(float).eps)


def _ref_fd_step(phi, order):
    base = _EPS ** (1.0 / 3.0) if order == 1 else _EPS ** 0.25
    return base * max(1.0, abs(phi))


def _ref_unitary(model, phi):
    """The propagator ``exp(-i (G - tr G / d) phi)`` as ``V diag(e)
    V^dagger``, from ``eigh`` of the centred G even when G is diagonal."""
    g = model.generator.matrix
    eigenvalues, eigenvectors = np.linalg.eigh(
        g - (np.trace(g).real / model.dim) * np.eye(model.dim))
    return (eigenvectors * np.exp(-1j * eigenvalues * phi)) @ eigenvectors.conj().T


def _ref_frame_derivative(model, phi, order):
    """rho (order 0) or its derivative (order 1) in the frame, rotated back:
    ``e_j rho_0'_jl e_l^*`` with ``rho_0' = psi_0' psi_0'^dagger`` for a state
    vector, times ``-i (g_j - g_l)`` for order 1."""
    g, basis = ref_frame(model.generator)
    e = np.exp(-1j * g * phi)
    if isinstance(model.initial_state, PureState):
        psi = model.initial_state.amplitudes
        psi = psi if basis is None else basis.conj().T @ psi
        rho0 = np.outer(psi, psi.conj())
    else:
        rho0 = model.initial_state.matrix
        if basis is not None:
            rho0 = (basis.conj().T @ rho0) @ basis
    rho = e[:, None] * rho0 * e.conj()[None, :]
    if order:
        rho = -1j * (g[:, None] - g[None, :]) * rho
    if basis is not None:
        rho = basis @ rho @ basis.conj().T
    return rho


def _ref_density(model, phi):
    if model.kind != "unitary_generator":
        return model.density(phi).matrix
    rho = _ref_frame_derivative(model, phi, 0)
    return (rho + rho.conj().T) / 2.0


def _ref_state_derivative(model, phi):
    if model.kind == "unitary_generator":
        deriv = _ref_frame_derivative(model, phi, 1)
    else:
        h = _ref_fd_step(phi, order=1)
        deriv = (_ref_density(model, phi + h) - _ref_density(model, phi - h)) / (2.0 * h)
    defect = float(np.linalg.norm(deriv - deriv.conj().T))
    assert defect <= 1e-9 * max(1.0, float(np.linalg.norm(deriv)))
    return (deriv + deriv.conj().T) / 2.0


def _ref_second_state_derivative(model, phi):
    """A blackbox model's second central difference."""
    h = _ref_fd_step(phi, order=2)
    deriv2 = (_ref_density(model, phi + h) - 2.0 * _ref_density(model, phi)
              + _ref_density(model, phi - h)) / (h * h)
    return (deriv2 + deriv2.conj().T) / 2.0


def _ref_factor_traces(a, povm):
    """``Re Tr(A M_x)`` as ``Re sum conj(F_x) * (A F_x)`` for one matrix:
    the column sums of the elementwise product, then each outcome's block of
    columns."""
    f = povm.factor
    af = a @ f
    columns = (f.real * af.real + f.imag * af.imag).sum(axis=0)
    return np.add.reduceat(columns, povm.block_bounds[:-1])


def _ref_outcome_arrays(model, phi, povm, second_order):
    """A blackbox model's outcome arrays: the traces of its dense stacks."""
    probs = np.clip(_ref_factor_traces(_ref_density(model, phi), povm), 0.0, 1.0)
    derivs = _ref_factor_traces(_ref_state_derivative(model, phi), povm)
    second = None
    if second_order:
        second = _ref_factor_traces(_ref_second_state_derivative(model, phi), povm)
    return probs, derivs, second


REFERENCE_CASES = ("ghz1", "ghz2", "ghz3", "pure", "mixed", "blackbox")


def reference_case(name, seed):
    """(model, POVM) for a GHZ state or a random unitary family, measured
    with a random POVM or, on odd seeds, the eigenprojectors of a degenerate
    observable."""
    if name.startswith("ghz"):
        n = int(name[3:])
        return ghz_model(n), product_basis_povm("xy"[seed % 2], n)
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 7))
    if name == "pure":
        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        state = PureState(amps / np.linalg.norm(amps))
    else:
        state = random_density(rng, dim)
    model = unitary_model(state, random_hermitian(rng, dim))
    if name == "blackbox":
        model = blackbox_model(model.density, dim)
    if seed % 2:
        return model, eigenprojector_povm(degenerate_observable(rng, dim))
    return model, random_povm(rng, dim, int(rng.integers(2, 6)))


class TestScalarReference:
    """The stacked builder, run with one phase, reproduces the scalar code
    bit for bit: a generator model's outcome arrays are those of its moved
    carrier, a blackbox model's the traces of its dense stacks."""

    @given(name=st.sampled_from(REFERENCE_CASES),
           seed=st.integers(0, 2 ** 32 - 1),
           phi=st.floats(-2.0 * math.pi, 2.0 * math.pi),
           second_order=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_bitwise_equal_to_scalar_code(self, name, seed, phi, second_order):
        model, povm = reference_case(name, seed)
        rho = model.density(phi).matrix
        assert rho.tobytes() == _ref_density(model, phi).tobytes()
        assert (state_derivative(model, phi).tobytes()
                == _ref_state_derivative(model, phi).tobytes())
        dist = outcome_distribution(model, phi, povm, second_order=second_order)
        if name == "blackbox":
            assert (model._rho_derivatives(np.array([phi]), 2)[0].tobytes()
                    == _ref_second_state_derivative(model, phi).tobytes())
            probs, derivs, second = _ref_outcome_arrays(model, phi, povm, second_order)
        else:
            carrier = ref_moved_solution(model, phi)[0]
            assert sld(model, phi).carrier.tobytes() == carrier.tobytes()
            probs, derivs, second = ref_carrier_outcome_arrays(
                model, phi, povm, 2 if second_order else 1)
        assert dist.probabilities.tobytes() == probs.tobytes()
        assert dist.derivatives.tobytes() == derivs.tobytes()
        if second_order:
            assert dist.second_derivatives.tobytes() == second.tobytes()
        else:
            assert dist.second_derivatives is None

    @pytest.mark.parametrize("name", ["ghz3", "mixed", "blackbox"])
    def test_sld_reuses_the_state_it_solves_for(self, name):
        """A blackbox model's ``rho`` and ``drho`` are the stacks it solved
        for; a generator model's are built from its moved carrier, ``C
        C^dagger`` and ``dC C^dagger + C dC^dagger``."""
        model, _ = reference_case(name, 7)
        result = sld(model, 0.4)
        if name == "blackbox":
            rho, drho = _ref_density(model, 0.4), _ref_state_derivative(model, 0.4)
        else:
            carrier, dcarrier = ref_moved_solution(model, 0.4)[:2]
            rho = carrier @ carrier.conj().T
            rho = (rho + rho.conj().T) / 2.0
            drho = dcarrier @ carrier.conj().T
            drho = drho + drho.conj().T
        assert result.rho.tobytes() == rho.tobytes()
        assert result.drho.tobytes() == drho.tobytes()

    @pytest.mark.parametrize("order, calls", [(0, 1), (1, 3), (2, 5)])
    def test_blackbox_state_calls_per_phase(self, order, calls):
        """A blackbox model's outcome arrays evaluate ``state_fn`` once at
        each phase and twice per derivative order: the second difference
        reuses the order-0 stack."""
        from qcrb_lab.fisher import _OutcomeRows

        phases = []
        density = ghz_model(2).density

        def state_fn(phi):
            phases.append(phi)
            return density(phi)

        model = blackbox_model(state_fn, 4)
        _OutcomeRows(model, product_basis_povm("x", 2))([0.1, 0.4, 0.9], order)
        assert len(phases) == 3 * calls


def _ref_sld(model, phi):
    """``(L, QFI, kernel_dim)`` as ``sld`` computed them when it ran its own
    ``eigh`` of the unsymmetrised rho and its own support cutoff."""
    rho = model.density(phi).matrix
    drho = state_derivative(model, phi)
    eigenvalues, eigenvectors = np.linalg.eigh(rho)
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    cutoff = 1e-12 * float(np.sum(eigenvalues))
    drho_eig = eigenvectors.conj().T @ drho @ eigenvectors
    denom = eigenvalues[:, None] + eigenvalues[None, :]
    solvable = denom > cutoff
    l_eig = np.where(solvable, 2.0 * drho_eig / np.where(solvable, denom, 1.0), 0.0)
    l_matrix = eigenvectors @ l_eig @ eigenvectors.conj().T
    l_matrix = (l_matrix + l_matrix.conj().T) / 2.0
    qfi_value = max(float(np.trace(rho @ l_matrix @ l_matrix).real), 0.0)
    return l_matrix, qfi_value, int(np.count_nonzero(eigenvalues <= cutoff))


def spectrum_case(name, seed):
    """A reference model, a rank-deficient mixed family, or a blackbox family
    returning unsymmetrised pure states."""
    if name == "rank":
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(3, 7))
        state = random_density(rng, dim, int(rng.integers(1, dim)))
        return unitary_model(state, random_hermitian(rng, dim))
    if name == "pure-blackbox":
        model, _ = reference_case("pure", seed)
        return blackbox_model(lambda phi: DensityMatrix(
            model.density(phi).matrix, check=False), model.dim)
    return reference_case(name, seed)[0]


class TestOneEigendecomposition:
    """``sld`` diagonalises rho at most once: a blackbox model's carrier is
    the factor of rho that the support rule gives, a generator model's its
    ``phi = 0`` solve moved to ``phi``; the QFI is ``||L C||^2``, and L and
    the trace-formula QFI are the ones an unsymmetrised ``eigh`` of rho at
    ``phi`` gives, within 1e-12 for a blackbox model and within the bounds
    of TestFrameRoute for a generator model."""

    @given(name=st.sampled_from(REFERENCE_CASES + ("rank", "pure-blackbox")),
           seed=st.integers(0, 2 ** 32 - 1),
           phi=st.floats(-2.0 * math.pi, 2.0 * math.pi))
    @settings(max_examples=120, deadline=None)
    def test_matches_separate_decompositions(self, name, seed, phi):
        model = spectrum_case(name, seed)
        result = sld(model, phi)
        if model.kind == "unitary_generator":
            carrier, _, l_carrier, qfi_carrier, _ = ref_moved_solution(model, phi)
        else:
            carrier = support_carrier(model.density(phi).matrix)
            l_carrier = result.L.matrix @ carrier
            qfi_carrier = float(np.vdot(l_carrier, l_carrier).real)
        assert result.carrier.tobytes() == carrier.tobytes()
        assert result.l_carrier.tobytes() == l_carrier.tobytes()
        assert repr(result.qfi) == repr(qfi_carrier)
        assert np.linalg.norm(carrier @ carrier.conj().T - result.rho) <= 1e-11
        l_matrix, qfi_value, kernel_dim = _ref_sld(model, phi)
        l_norm = float(np.linalg.norm(l_matrix))
        l_bound, qfi_bound = 1e-12 * max(1.0, l_norm), 1e-12 * max(1.0, qfi_value)
        if model.kind == "unitary_generator":
            # a phi = 0 solve moved to phi against a solve at phi: the
            # bounds of TestFrameRoute
            s = float(np.abs(np.linalg.eigvalsh(model.generator.matrix)).max())
            unit = ROUTE_NOISE * _EPS * model.dim * (1.0 + abs(phi) * s)
            if model.generator.diagonal is None:
                unit *= DENSE_PRODUCTS
            p_min = _propagator_sld(model, phi)[3]
            moved = unit * (s + l_norm) / p_min
            l_bound = max(l_bound, moved)
            qfi_bound = max(qfi_bound, l_norm * l_norm * unit + (2.0 * l_norm + moved) * moved)
        assert np.linalg.norm(result.L.matrix - l_matrix) <= l_bound
        assert abs(result.qfi - qfi_value) <= qfi_bound
        assert result.kernel_dim == kernel_dim


class TestInformationInvariants:
    @given(seed=st.integers(0, 2 ** 32 - 1), p=st.floats(0.0, 1.0),
           phi=st.floats(-2.0 * math.pi, 2.0 * math.pi))
    @settings(max_examples=100, deadline=None)
    def test_qfi_is_convex_under_mixing(self, seed, p, phi):
        """``F(p rho1 + (1-p) rho2) <= p F(rho1) + (1-p) F(rho2)`` for two
        states of one unitary family."""
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 6))
        generator = random_hermitian(rng, dim)
        rho1, rho2 = (random_density(rng, dim, int(rng.integers(1, dim + 1)))
                      for _ in range(2))

        def info(state):
            return qfi(unitary_model(state, generator), phi)

        bound = p * info(rho1) + (1.0 - p) * info(rho2)
        mixed = DensityMatrix(p * rho1.matrix + (1.0 - p) * rho2.matrix)
        assert info(mixed) <= bound + 1e-9 * max(1.0, bound)

    @given(seed=st.integers(0, 2 ** 32 - 1),
           phi=st.floats(-2.0 * math.pi, 2.0 * math.pi))
    @settings(max_examples=100, deadline=None)
    def test_sld_eigenprojectors_attain_qfi(self, seed, phi):
        """On a full-rank state, measuring the eigenbasis of L gives CFI = QFI."""
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 6))
        model = unitary_model(random_density(rng, dim), random_hermitian(rng, dim))
        result = sld(model, phi)
        value = cfi(outcome_distribution(model, phi, eigenprojector_povm(result.L)))
        assert abs(value - result.qfi) <= 1e-8 * result.qfi


# --- the frame route and the O(d^2) state vector against the propagator
# and commutator formulas that built every generator model's state ----------

def _propagator_state(model, phi):
    """``(psi or None, rho, drho, d2rho)`` from the propagator ``U =
    exp(-i (G - tr G / d) phi)`` of ``_ref_unitary`` applied to ``psi_0`` or
    ``rho_0``, and the commutators with G itself."""
    u = _ref_unitary(model, phi)
    psi = None
    if isinstance(model.initial_state, PureState):
        psi = u @ model.initial_state.amplitudes
        rho = np.outer(psi, psi.conj())
    else:
        rho = u @ model.initial_state.matrix @ u.conj().T
        rho = (rho + rho.conj().T) / 2.0
    g = model.generator.matrix
    drho = -1j * (g @ rho - rho @ g)
    d2rho = -(g @ g @ rho - 2.0 * (g @ rho @ g) + rho @ g @ g)
    return psi, rho, (drho + drho.conj().T) / 2.0, (d2rho + d2rho.conj().T) / 2.0


def _propagator_sld(model, phi):
    """``(L, QFI, kernel_dim, smallest support eigenvalue)`` as ``sld`` gave
    them from the propagator state: ``L = 2 drho`` with ``QFI = ||L psi||^2``
    and ``L psi`` from ``dpsi = -iG psi`` for a state vector, else the
    eigenbasis solve of rho."""
    psi, rho, drho, _ = _propagator_state(model, phi)
    if psi is not None:
        dpsi = -1j * (model.generator.matrix @ psi)
        l_psi = 2.0 * (dpsi + np.vdot(dpsi, psi) * psi)
        return 2.0 * drho, float(np.vdot(l_psi, l_psi).real), model.dim - 1, 1.0
    eigenvalues, eigenvectors = np.linalg.eigh(rho)
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    cutoff = 1e-12 * float(np.sum(eigenvalues))
    denom = eigenvalues[:, None] + eigenvalues[None, :]
    solvable = denom > cutoff
    drho_eig = eigenvectors.conj().T @ drho @ eigenvectors
    l_eig = np.where(solvable, 2.0 * drho_eig / np.where(solvable, denom, 1.0), 0.0)
    l_matrix = eigenvectors @ l_eig @ eigenvectors.conj().T
    l_matrix = (l_matrix + l_matrix.conj().T) / 2.0
    carrier = support_carrier(rho)
    l_carrier = l_matrix @ carrier
    support = eigenvalues > cutoff
    return (l_matrix, float(np.vdot(l_carrier, l_carrier).real),
            int(np.count_nonzero(~support)), float(eigenvalues[support].min()))


def generator_case(kind, seed, generator="diagonal"):
    """``(model, POVM)``. A diagonal generator is ``J_z`` of 1-3 qubits on
    every third seed, else of dimension 2-8 with entries that repeat, drawn
    from 1 to d levels of scale 0.1-100; a dense one is a random Hermitian
    matrix of dimension 2-8 and scale 0.1-100 plus a random multiple of the
    identity of the same scale. The state is pure, full rank or of a random
    rank below d, measured with a random POVM."""
    rng = np.random.default_rng(seed)
    if generator == "dense":
        dim = int(rng.integers(2, 9))
        scale = 10.0 ** rng.uniform(-1, 2)
        generator = HermitianObservable(random_hermitian(rng, dim).matrix * scale
                                        + rng.normal() * scale * np.eye(dim))
    elif seed % 3 == 0:
        generator = collective_spin("z", int(rng.integers(1, 4)))
        dim = generator.dim
    else:
        dim = int(rng.integers(2, 9))
        levels = rng.normal(size=int(rng.integers(1, dim + 1))) * 10.0 ** rng.uniform(-1, 2)
        generator = HermitianObservable(np.diag(rng.choice(levels, size=dim)).astype(complex))
    if kind == "pure":
        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        state = PureState(amps / np.linalg.norm(amps))
    else:
        state = random_density(rng, dim, dim if kind == "full" else int(rng.integers(1, dim)))
    return unitary_model(state, generator), random_povm(rng, dim, int(rng.integers(2, 6)))


#: the routes may differ by this many units of rounding (see TestFrameRoute)
ROUTE_NOISE = 4.0
#: a dense generator's units carry this many times the rounding of a diagonal one's
DENSE_PRODUCTS = 3.0


class TestFrameRoute:
    """The frame route of a diagonal or dense generator agrees with the
    propagator and commutator formulas within bounds derived here, with ``K
    = ROUTE_NOISE``, ``s = ||G||_2`` and the unit ``u = eps d (1 + |phi|
    s)``.

    ``eigh`` of the centred G returns ``V`` and ``lambda`` with ``V
    diag(lambda) V^dagger = G - (tr G / d) I + E``, ``||E|| <= c d eps s``
    and V unitary to ``c d eps``, so the propagator differs from its exact
    value by ``c d eps (1 + |phi| s)``; ``exp(-i g phi)`` carries ``eps |phi|
    s``, and each product adds ``c d eps`` of the norm of ``rho_0 <= 1``. A
    dense G's frame uses the same ``V`` and ``lambda``, and its derivatives
    are the commutators with ``G - E``; it applies ``V^dagger`` and ``V``
    around every entrywise step and the reference multiplies by G, each
    product adding ``c d eps`` of the norm it acts on, so a dense G's unit
    is ``DENSE_PRODUCTS = 3`` times ``u``. Then:

    * ``rho`` moves by ``K u``;
    * ``drho = -i[G, rho]`` by ``2 s`` times that plus its own rounding ``c d
      eps s``: ``K s u``; ``d2rho`` by ``K s^2 u``;
    * each ``Re Tr(A M_x)`` with ``0 <= M_x <= I`` by at most ``||dA||_1 <=
      sqrt(d) ||dA||_F``, so the three outcome arrays by ``sqrt(d)`` times
      the bounds above (clipping is 1-Lipschitz);
    * a state vector's ``L = 2 drho`` by ``K s u`` and ``QFI = ||L psi||^2``,
      with ``||L psi|| <= 2 s``, by ``K s^2 u``;
    * a density's L solves ``(rho L + L rho) / 2 = drho`` on blocks with
      ``p_j + p_k >= p``, the smallest support eigenvalue; perturbing rho and
      drho moves it by ``dL = 2 (||d drho|| + ||L|| ||d rho||) / p``, that
      is by ``K u (s + ||L||) / p``, and ``QFI = Tr(rho L^2)`` by ``||L||^2
      ||d rho|| + (2 ||L|| + dL) dL``. The kernel is the same on both
      routes. The package solves at ``phi = 0`` and moves L by ``e`` and V,
      which adds the same ``eps |phi| s`` per entry as moving rho.

    The moved carrier of a state vector under a non-diagonal G, ``V (e *
    V^dagger psi_0)``, and ``U psi_0`` use the same ``V`` and ``e``, so they
    differ by the rounding of the products alone: ``K eps d``. Both are
    ``exp(-i (G - tr G / d) phi) psi_0``, which differs from ``exp(-iG phi)
    psi_0`` by a global phase.

    Over 5,000 draws of each state kind and each generator kind, and
    20,000 of the non-diagonal state vector, the largest ratio of a
    disagreement to its bound with ``K = 1`` was 2.10, on the QFI of a
    density under a diagonal G (1.61 on the L of a state vector under a
    diagonal G, 0.85 on the state vector); ``ROUTE_NOISE = 4`` leaves a
    factor of about 1.9 above it."""

    @given(kind=st.sampled_from(("pure", "full", "rank")),
           generator=st.sampled_from(("diagonal", "dense")),
           seed=st.integers(0, 2 ** 32 - 1),
           phi=st.floats(-2.0 * math.pi, 2.0 * math.pi))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_propagator(self, kind, generator, seed, phi):
        from qcrb_lab.fisher import _OutcomeRows

        model, povm = generator_case(kind, seed, generator)
        dim = model.dim
        s = float(np.abs(np.linalg.eigvalsh(model.generator.matrix)).max())
        unit = ROUTE_NOISE * _EPS * dim * (1.0 + abs(phi) * s)
        if generator == "dense":
            unit *= DENSE_PRODUCTS
        psi, rho, drho, d2rho = _propagator_state(model, phi)
        bounds = (unit, s * unit, s * s * unit)
        for new, old, bound in zip(
                (model.density(phi).matrix, state_derivative(model, phi)),
                (rho, drho), bounds):
            assert np.linalg.norm(new - old) <= bound
        arrays = _OutcomeRows(model, povm)([phi], 2)[:, 0]
        old_arrays = (np.clip(_ref_factor_traces(rho, povm), 0.0, 1.0),
                      _ref_factor_traces(drho, povm), _ref_factor_traces(d2rho, povm))
        for new, old, bound in zip(arrays, old_arrays, bounds):
            assert np.abs(new - old).max() <= math.sqrt(dim) * bound

        result = sld(model, phi)
        l_matrix, qfi_value, kernel_dim, p_min = _propagator_sld(model, phi)
        assert result.kernel_dim == kernel_dim
        l_norm = float(np.linalg.norm(l_matrix))
        if psi is not None:
            l_bound, qfi_bound = s * unit, s * s * unit
        else:
            l_bound = unit * (s + l_norm) / p_min
            qfi_bound = l_norm * l_norm * unit + (2.0 * l_norm + l_bound) * l_bound
        assert np.linalg.norm(result.L.matrix - l_matrix) <= l_bound
        assert abs(result.qfi - qfi_value) <= qfi_bound

    @given(seed=st.integers(0, 2 ** 32 - 1),
           phi=st.floats(-2.0 * math.pi, 2.0 * math.pi))
    @settings(max_examples=100, deadline=None)
    def test_vector_of_dense_generator_agrees_with_propagator(self, seed, phi):
        model, _ = reference_case("pure", seed)
        assert model.generator.diagonal is None
        psi = _propagator_state(model, phi)[0]
        bound = ROUTE_NOISE * _EPS * model.dim
        assert np.linalg.norm(sld(model, phi).carrier[:, 0] - psi) <= bound

    def test_no_generator_eigh(self, monkeypatch):
        """Nothing diagonalises a diagonal generator: a pure GHZ family runs
        no ``eigh`` at all, and its density form one per SLD, of rho."""
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(matrix, *args, **kwargs):
            calls.append(np.trace(matrix))
            return eigh(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        model, povm = ghz_model(3), product_basis_povm("x", 3)
        sld(model, 0.3)
        outcome_distribution(model, 0.3, povm)
        qfi_from_generator_variance(model, 0.3)
        assert calls == []
        dense = unitary_model(model.initial_state.density(), model.generator)
        sld(dense, 0.3)
        outcome_distribution(dense, 0.3, povm)
        assert len(calls) == 1 and abs(calls[0] - 1.0) <= 1e-12


# --- one pass over a phase grid ----------------------------------------------

def _grid_cases():
    """``(name, model, povm)``: GHZ N=1-8 with the x- and y-product bases, a
    state vector under a non-diagonal generator matrix, a rank-2 and a
    full-rank density under it, and a custom POVM with a rank-2 and a zero
    element."""
    rng = np.random.default_rng(2025)
    cases = [(f"ghz{n}-{axis}", ghz_model(n), product_basis_povm(axis, n))
             for n in range(1, 9) for axis in "xy"]
    generator = random_hermitian(rng, 4)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    pure = unitary_model(PureState(amps / np.linalg.norm(amps)), generator)
    psi_plus, psi_minus = (np.array([0.0, 1.0, sign, 0.0]) / np.sqrt(2.0)
                           for sign in (1.0, -1.0))
    custom = Povm((np.diag([1.0, 0.0, 0.0, 1.0]), np.outer(psi_plus, psi_plus),
                   np.outer(psi_minus, psi_minus), np.zeros((4, 4))))
    cases += [("matrix-generator", pure, product_basis_povm("x", 2)),
              ("custom-povm", pure, custom),
              ("rank2", unitary_model(random_density(rng, 4, 2), generator), custom),
              ("full-rank", unitary_model(random_density(rng, 8), random_hermitian(rng, 8)),
               random_povm(rng, 8, 3))]
    return cases


GRID_CASES = _grid_cases()


def _assert_same_distributions(got, model, phis, povm):
    got = list(got)
    assert len(got) == len(phis)
    for dist, phi in zip(got, phis):
        ref = outcome_distribution(model, float(phi), povm)
        assert dist.labels == ref.labels
        for name in ("probabilities", "derivatives", "second_derivatives"):
            assert getattr(dist, name).tobytes() == getattr(ref, name).tobytes(), name


def _phase_entries(model, povm):
    """Complex entries a phase adds to the largest stacked array of a chunk:
    ``r max(R, |S|)`` for a generator model's ``|S| x r`` carrier rows and
    ``R`` factor columns, ``d max(d, R)`` for a blackbox model's stacks."""
    columns = int(povm.block_bounds[-1])
    if model.kind == "unitary_generator":
        support = model._support
        rows = model.dim if support is None else support.size
        return model._solution.carrier.shape[1] * max(columns, rows)
    return model.dim * max(model.dim, columns)


def _count_chunks(monkeypatch):
    """Record the phases of each chunk ``_OutcomeRows`` evaluates."""
    from qcrb_lab import fisher

    calls = []
    kernel = fisher._OutcomeRows._chunk

    def counting(self, phis, order, out=None):
        calls.append(len(phis))
        return kernel(self, phis, order, out)

    monkeypatch.setattr(fisher._OutcomeRows, "_chunk", counting)
    return calls


def _chunk_distributions(model, phis, povm):
    """The distribution of each phase from ``_OutcomeRows.chunks``."""
    from qcrb_lab.fisher import OutcomeDistribution, _OutcomeRows

    for at, arrays in _OutcomeRows(model, povm).chunks(phis):
        for k in range(at.size):
            yield OutcomeDistribution(povm.labels, *arrays[:, k])


class TestGridPass:
    """``_OutcomeRows.chunks`` reads a grid's outcome arrays one chunk at a
    time from one setup, bit for bit the per-phase
    :func:`outcome_distribution` of every phase."""

    @pytest.mark.parametrize("name,model,povm", GRID_CASES, ids=[c[0] for c in GRID_CASES])
    def test_equals_per_phase(self, name, model, povm):
        phis = np.linspace(-3.0, 3.0, 17)
        _assert_same_distributions(_chunk_distributions(model, phis, povm),
                                   model, phis, povm)

    @pytest.mark.parametrize("name,model,povm", GRID_CASES[:16:5] + GRID_CASES[16:],
                             ids=[c[0] for c in GRID_CASES[:16:5] + GRID_CASES[16:]])
    def test_chunks(self, name, model, povm, monkeypatch):
        """A grid longer than one chunk evaluates one chunk at a time, and
        the chunk boundaries change no bit."""
        from qcrb_lab import fisher

        monkeypatch.setattr(fisher, "_BATCH_ENTRIES", 3 * _phase_entries(model, povm))
        calls = _count_chunks(monkeypatch)
        phis = np.linspace(0.1, 3.0, 11)
        got = list(_chunk_distributions(model, phis, povm))
        assert calls == [3, 3, 3, 2]
        _assert_same_distributions(got, model, phis, povm)

    def test_a_failing_phase_raises_its_own_error_when_read(self):
        """Where a phase of a chunk fails, the phases before it are still
        yielded, and reading the failing one raises its per-phase error."""
        from qcrb_lab.errors import EvaluationFailureError
        from qcrb_lab.fisher import _cfi_values

        def state_fn(phi):
            if phi > 1.0:
                raise RuntimeError("no state past 1")
            c, s = math.cos(phi), math.sin(phi)
            return DensityMatrix(np.array([[0.6, 0.3 * (c - 1j * s)],
                                           [0.3 * (c + 1j * s), 0.4]]))

        model, povm = blackbox_model(state_fn, 2), product_basis_povm("x", 1)
        phis = [0.1, 0.4, 0.7, 1.3, 0.2]
        with pytest.raises(EvaluationFailureError) as expected:
            outcome_distribution(model, 1.3, povm)
        dists, values = _chunk_distributions(model, phis, povm), _cfi_values(model, phis, povm)
        _assert_same_distributions([next(dists) for _ in range(3)], model, phis[:3], povm)
        assert [next(values) for _ in range(3)] == [
            cfi(outcome_distribution(model, phi, povm)) for phi in phis[:3]]
        for grid in (dists, values):
            with pytest.raises(EvaluationFailureError) as raised:
                next(grid)
            assert str(raised.value) == str(expected.value)


def _cfi_outcomes(values):
    """Each yielded CFI as ``_outcome_of`` reports it."""
    return [(type(v), str(v)) if isinstance(v, SingularOutcomeError) else ("value", repr(v))
            for v in values]


def _per_phase_cfi(model, phis, povm):
    """``_outcome_of(cfi, ...)`` of each phase's own distribution."""
    return [_outcome_of(cfi, outcome_distribution(model, float(phi), povm)) for phi in phis]


class TestGridCfi:
    """``_cfi_values`` reads a grid's CFI from the chunk's arrays, bit for
    bit ``cfi`` of each phase's :func:`outcome_distribution`, and at a
    singular phase the error ``cfi`` raises there, message included."""

    @pytest.mark.parametrize("name,model,povm", GRID_CASES, ids=[c[0] for c in GRID_CASES])
    def test_equals_cfi_of_each_distribution(self, name, model, povm):
        from qcrb_lab.fisher import _cfi_values

        # through the singular GHZ phases k pi / N
        phis = np.linspace(0.0, math.pi, 25)
        assert _cfi_outcomes(_cfi_values(model, phis, povm)) == _per_phase_cfi(
            model, phis, povm)

    def test_first_singular_phase_names_its_outcome(self):
        """GHZ N=3 on the x-product basis over ``pi/12:pi:4``: the last phase,
        pi, is singular and names ``'+++'``."""
        from qcrb_lab.fisher import _cfi_values

        model, povm = ghz_model(3), product_basis_povm("x", 3)
        phis = np.linspace(math.pi / 12, math.pi, 4)
        got = _cfi_outcomes(_cfi_values(model, phis, povm))
        assert got == _per_phase_cfi(model, phis, povm)
        assert [kind for kind, _ in got] == ["value"] * 3 + [SingularOutcomeError]
        assert got[-1][1].startswith("outcome '+++' has p and dp ~ 0 but d2p = ")

    def test_chunks(self, monkeypatch):
        """A grid longer than one chunk gives the same values, one kernel
        call per chunk."""
        from qcrb_lab import fisher

        model, povm = ghz_model(6), product_basis_povm("y", 6)
        phis = np.linspace(0.0, math.pi, 11)
        whole = _cfi_outcomes(fisher._cfi_values(model, phis, povm))
        monkeypatch.setattr(fisher, "_BATCH_ENTRIES", 3 * _phase_entries(model, povm))
        calls = _count_chunks(monkeypatch)
        assert _cfi_outcomes(fisher._cfi_values(model, phis, povm)) == whole
        assert calls == [3, 3, 3, 2]


def _ref_loop_cfi(dist):
    """The per-outcome loop that computed the CFI before it ran on arrays."""
    second = dist.second_derivatives
    total = 0.0
    for idx, label in enumerate(dist.labels):
        p = float(dist.probabilities[idx])
        dp = float(dist.derivatives[idx])
        if p > 1e-12:
            total += dp * dp / p
            continue
        if abs(dp) > 1e-9:
            raise SingularOutcomeError(
                f"outcome {label!r} has p <= {1e-12:.1e} but dp = {dp:.3e}: "
                "classical Fisher information diverges at this phase")
        if second is not None and abs(float(second[idx])) > 1e-6:
            raise SingularOutcomeError(
                f"outcome {label!r} has p and dp ~ 0 but d2p = "
                f"{float(second[idx]):.3e}: classical Fisher information is "
                "defined only as a limit at this phase")
    return total


def _outcome_of(f, dist):
    try:
        return "value", repr(f(dist))
    except SingularOutcomeError as exc:
        return type(exc), str(exc)


class TestArrayCfi:
    """The array CFI gives the loop's float, bit for bit, and its error
    type, message and first offending label in POVM order."""

    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 40),
           planted=st.integers(0, 4), second=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_loop(self, seed, size, planted, second):
        rng = np.random.default_rng(seed)
        probs = rng.random(size)
        probs /= probs.sum()
        derivs = rng.normal(size=size)
        derivs -= derivs.mean()
        seconds = rng.normal(size=size) if second else None
        # outcomes at or below the probability floor, each with a derivative
        # and a curvature on either side of their floors
        for idx in rng.choice(size, size=min(planted, size), replace=False):
            probs[idx] = rng.choice([0.0, 1e-13, 1e-12])
            derivs[idx] = rng.choice([0.0, 1e-10, -1e-9, 2e-9, -1e-3])
            if seconds is not None:
                seconds[idx] = rng.choice([0.0, 1e-7, 1e-6, -2e-6, 0.5])
        dist = OutcomeDistribution.__new__(OutcomeDistribution)  # no sum checks
        for name, value in (("labels", tuple(f"o{k}" for k in range(size))),
                            ("probabilities", probs), ("derivatives", derivs),
                            ("second_derivatives", seconds)):
            object.__setattr__(dist, name, value)
        assert _outcome_of(cfi, dist) == _outcome_of(_ref_loop_cfi, dist)

    @pytest.mark.parametrize("name,model,povm", GRID_CASES[:16:3],
                             ids=[c[0] for c in GRID_CASES[:16:3]])
    def test_equals_the_loop_on_a_grid(self, name, model, povm):
        """Over a grid through the singular GHZ phases k pi / N."""
        for phi in np.linspace(0.0, math.pi, 13).tolist():
            dist = outcome_distribution(model, phi, povm)
            assert _outcome_of(cfi, dist) == _outcome_of(_ref_loop_cfi, dist)


SUPPORT_PATTERNS = {"one": 1, "two": 2, "few": None, "all": None}


def support_case(pattern, state_kind, generator_kind, seed):
    """``(model, POVM, planted rows)`` with a carrier that is zero off the
    planted rows: 1, 2, 3 to ``d / 4`` of them, or every row. A ``diagonal``
    generator has random integer levels (repeats included); a ``block`` one
    is a dense matrix, a random Hermitian block on the leading rows, which
    are then the planted ones, and integer levels elsewhere, whose frame
    keeps the zeros exactly. The
    state is a vector on the planted rows or, under a diagonal generator, a
    diagonal density of full rank there; the POVM is random or, on odd
    seeds, the eigenprojectors of a degenerate observable."""
    rng = np.random.default_rng(seed)
    dim = int(rng.choice([4, 8, 16, 32]) if pattern in ("one", "all")
              else rng.choice([8, 16, 32] if pattern == "two" else [16, 32]))
    size = SUPPORT_PATTERNS[pattern] or (dim if pattern == "all"
                                         else int(rng.integers(3, dim // 4 + 1)))
    rows = (np.arange(size) if generator_kind == "block"
            else np.sort(rng.choice(dim, size=size, replace=False)))
    levels = rng.integers(-3, 4, size=dim) * 10.0 ** rng.uniform(-1.0, 1.0)
    if generator_kind == "block":
        matrix = np.diag(levels).astype(complex)
        matrix[np.ix_(rows, rows)] = random_hermitian(rng, size).matrix
        generator = HermitianObservable(matrix)
    else:
        generator = HermitianObservable(diagonal=levels)
    if state_kind == "mixed" and generator_kind == "diagonal":
        weights = np.zeros(dim)
        weights[rows] = rng.uniform(0.1, 1.0, size=size)
        state = DensityMatrix(np.diag(weights / weights.sum()).astype(complex))
    else:
        amps = np.zeros(dim, dtype=complex)
        amps[rows] = rng.normal(size=size) + 1j * rng.normal(size=size)
        state = PureState(amps / np.linalg.norm(amps))
    povm = (eigenprojector_povm(degenerate_observable(rng, dim)) if seed % 2
            else random_povm(rng, dim, int(rng.integers(2, 5))))
    return unitary_model(state, generator), povm, rows


def full_row_arrays(model, povm, phis, sequential):
    """The outcome arrays ``(p, p', p'')`` from every frame row: ``a_k =
    F^dagger V (-i g)^k (e * C_0')`` as one matrix product, or, with
    ``sequential``, as the left-to-right sum of its d elementwise terms."""
    g, basis, _ = model._frame
    carrier = model._solution.carrier
    f_dagger = (povm.factor if basis is None else basis.conj().T @ povm.factor).conj().T
    rows = [f_dagger, f_dagger * (-1j * g), f_dagger * (-1j * g) * (-1j * g)]
    moved = np.exp(-1j * g * np.asarray(phis)[:, None])[:, :, None] * carrier
    if sequential:
        a = []
        for f in rows:
            total = f[None, :, 0, None] * moved[:, None, 0, :]
            for j in range(1, model.dim):
                total = total + f[None, :, j, None] * moved[:, None, j, :]
            a.append(total)
    else:
        a = [f @ moved for f in rows]

    def inner(x, y):
        return (x.real * y.real + x.imag * y.imag).sum(axis=-1)

    def blocks(columns):
        return np.add.reduceat(columns, povm.block_bounds[:-1], axis=1)

    return np.stack([np.clip(blocks(inner(a[0], a[0])), 0.0, 1.0),
                     2.0 * blocks(inner(a[0], a[1])),
                     2.0 * blocks(inner(a[1], a[1]) + inner(a[0], a[2]))]), a, moved, rows


class TestSupportRows:
    """The outcome arrays read from the carrier's support rows against a
    test-local copy of the products over every frame row.

    The support S is taken where it holds at most a quarter of the rows.
    Where ``|S| <= 2`` it is formed elementwise, one product or a sum of
    two, and equals the left-to-right sum over every row bit for bit: the
    other rows add exact zeros. Against one matrix product over every row,
    and wherever ``|S| > 2``, the two sides sum the same ``n = |S|`` nonzero
    complex products in other orders (BLAS kernels differ in order and in
    fused multiply-adds, so even two terms can round differently: 884 of
    2,250 draws with a partial support agreed bit for bit).
    Each side's entry of ``a_k`` is within ``gamma_{n+2} A_k`` of the exact
    one (Higham, complex inner products), with ``A_k = |F^dagger V (-i
    g)^k| |e * C_0'|`` taken entrywise and ``gamma_m = m u / (1 - m u)``,
    ``u = eps / 2``; so the sides differ by ``e A_k`` with ``e = (n + 2) eps
    (1 + 1e-3)``. Each array is a sum over ``m`` (an outcome's columns
    times r) of products of two entries: ``p = sum |a_0|^2`` moves by ``(2e
    + e^2) sum A_0^2``, ``p' = 2 Re sum conj(a_0) a_1`` by ``2 (2e + e^2) sum
    A_0 A_1`` and ``p'' = 2 (sum |a_1|^2 + Re sum conj(a_0) a_2)`` by ``2 (2e
    + e^2) sum (A_1^2 + A_0 A_2)``, and each side rounds its own sum of the
    ``m`` terms by at most ``gamma_m`` of its absolute sum. With ``K =
    SUPPORT_NOISE`` the bound is ``K (n + 2 + m) eps`` times those absolute
    sums; the derivation needs ``K = 3``, and ``K = 4`` is used. Over 2,250
    draws with a partial support, the largest ratio of a difference to its
    bound with ``K = 1`` was 0.43.
    """

    @given(pattern=st.sampled_from(sorted(SUPPORT_PATTERNS)),
           state_kind=st.sampled_from(["pure", "mixed"]),
           generator_kind=st.sampled_from(["diagonal", "block"]),
           seed=st.integers(0, 2 ** 32 - 1),
           phis=st.lists(st.floats(-2.0 * math.pi, 2.0 * math.pi), min_size=1,
                         max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_equals_every_row(self, pattern, state_kind, generator_kind, seed, phis):
        from qcrb_lab import fisher

        model, povm, planted = support_case(pattern, state_kind, generator_kind, seed)
        support = model._support
        if pattern == "all":
            assert support is None
        else:
            assert support is not None and support.size == planted.size
        got = fisher._OutcomeRows(model, povm)(phis, 2)
        sequential = full_row_arrays(model, povm, phis, sequential=True)[0]
        if support is not None and support.size <= 2:
            assert np.array_equal(got, sequential)
        product, a, moved, rows = full_row_arrays(model, povm, phis, sequential=False)
        if support is None:  # every row: the same matrix product
            assert got.tobytes() == product.tobytes()
            return
        n = support.size
        size = (np.diff(povm.block_bounds) * model._solution.carrier.shape[1]).max()
        scale = [np.abs(f) @ np.abs(moved) for f in rows]

        def sums(x, y):
            return np.add.reduceat((x * y).sum(axis=-1), povm.block_bounds[:-1], axis=1)

        bounds = SUPPORT_NOISE * (n + 2 + size) * _EPS * np.stack([
            sums(scale[0], scale[0]), 2.0 * sums(scale[0], scale[1]),
            2.0 * (sums(scale[1], scale[1]) + sums(scale[0], scale[2]))])
        assert (np.abs(got - product) <= bounds).all(), np.max(np.abs(got - product) / bounds)


#: the support rows and every row may differ by this many of their rounding
#: bounds (see TestSupportRows)
SUPPORT_NOISE = 4.0
_EPS = float(np.finfo(float).eps)
