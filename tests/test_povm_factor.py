"""The column-factor form of a POVM against dense elements.

Every POVM is stored as a ``d x R`` factor F with ``M_x = F_x F_x^dagger``.
These tests compare what is computed from F with the dense ``d x d``
elements the builders used to produce: the rebuilt ``elements``, and the
outcome probabilities with their first and second phase derivatives.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcrb_lab import (
    Povm,
    PureState,
    cfi,
    collective_spin,
    eigenprojector_povm,
    ghz_model,
    outcome_distribution,
    product_basis_povm,
    product_basis_vectors,
    product_observable,
    run_mle_trials,
    run_sample_mean_trials,
    state_derivative,
    unitary_model,
)
from qcrb_lab.core import _DEGENERACY_TOL, tensor_product
from conftest import degenerate_observable, random_density, random_hermitian, random_povm


def dense_product_elements(axis, n):
    """``|v><v|`` for each product vector, as ``product_basis_povm`` built them."""
    return [np.outer(vec, vec.conj()) for _, vec in product_basis_vectors(axis, n)]


def dense_eigenprojectors(obs):
    """One projector per group of eigenvalues closer than the degeneracy
    tolerance, as ``eigenprojector_povm`` built them."""
    eigenvalues, eigenvectors = np.linalg.eigh(obs.matrix)
    spread = max(1.0, float(eigenvalues[-1] - eigenvalues[0]))
    groups = [[0]]
    for idx in range(1, len(eigenvalues)):
        if eigenvalues[idx] - eigenvalues[groups[-1][-1]] <= _DEGENERACY_TOL * spread:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    return [eigenvectors[:, g] @ eigenvectors[:, g].conj().T for g in groups]


def custom_elements(rng, dim):
    """A rank-2 projector, a zero element and random PSD elements on the
    complement of the projector, summing to the identity."""
    basis = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    rank2 = basis[:, :2] @ basis[:, :2].conj().T
    rest = np.eye(dim) - rank2
    elements = [rank2, np.zeros((dim, dim), dtype=complex)]
    for element in random_povm(rng, dim, int(rng.integers(1, 4))).elements:
        squeezed = rest @ element @ rest
        elements.append((squeezed + squeezed.conj().T) / 2.0)
    return elements


FACTOR_CASES = ("product-x", "product-y", "eigen-degenerate", "eigen-nondegenerate",
                "custom")


def factor_case(name, seed):
    """(model, POVM, dense elements) on a random state and generator."""
    rng = np.random.default_rng(seed)
    if name.startswith("product"):
        n = 1 + seed % 6
        povm, dense = product_basis_povm(name[-1], n), dense_product_elements(name[-1], n)
        dim = 2 ** n
    else:
        dim = int(rng.integers(2, 7)) if name != "custom" else int(rng.integers(3, 7))
    if seed % 2:
        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        state = PureState(amps / np.linalg.norm(amps))
    else:
        state = random_density(rng, dim)
    model = unitary_model(state, random_hermitian(rng, dim))
    if name.startswith("eigen"):
        obs = (degenerate_observable(rng, dim) if name == "eigen-degenerate"
               else random_hermitian(rng, dim))
        povm, dense = eigenprojector_povm(obs), dense_eigenprojectors(obs)
    elif name == "custom":
        dense = custom_elements(rng, dim)
        povm = Povm(tuple(dense))
    return model, povm, dense


class TestFactorTraces:
    """p, p' and p'' from the factor agree with ``Re Tr(A M_x)`` on the dense
    elements within ``1e-14 max(1, |value|, ||A||)``. Both sides round at a
    few ``eps ||A||``, and ``||A||`` for ``A = d^2 rho / d phi^2`` is of
    order ``||G||^2``, about 30 for some of the random generators drawn."""

    @given(name=st.sampled_from(FACTOR_CASES), seed=st.integers(0, 2 ** 32 - 1),
           phi=st.floats(-2.0 * math.pi, 2.0 * math.pi))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_dense_traces(self, name, seed, phi):
        model, povm, dense = factor_case(name, seed)
        assert len(povm) == len(dense)
        dist = outcome_distribution(model, phi, povm)
        rho, g = model.density(phi).matrix, model.generator.matrix
        # -[G, [G, rho]], the second phase derivative of a unitary family
        d2rho = -(g @ g @ rho - 2.0 * (g @ rho @ g) + rho @ g @ g)
        for value, a in ((dist.probabilities, rho),
                         (dist.derivatives, state_derivative(model, phi)),
                         (dist.second_derivatives, (d2rho + d2rho.conj().T) / 2.0)):
            expected = np.array([float(np.trace(a @ m).real) for m in dense])
            if value is dist.probabilities:
                expected = np.clip(expected, 0.0, 1.0)
            scale = max(1.0, float(np.linalg.norm(a)))
            assert np.all(np.abs(value - expected)
                          <= 1e-14 * np.maximum(scale, np.abs(expected)))

    def test_zero_element_keeps_one_zero_column(self):
        povm = Povm((np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)))
        assert povm.block_bounds.tolist() == [0, 2, 3]
        assert not povm.factor[:, 2].any()
        dist = outcome_distribution(ghz_model(1), 0.3, povm)
        assert dist.probabilities[0] == pytest.approx(1.0, abs=1e-15)
        assert dist.probabilities[1] == 0.0


class TestRebuiltElements:
    """``elements`` built from the factor equal the dense builders' matrices
    within 1e-15."""

    @pytest.mark.parametrize("axis, n", itertools.product("xy", range(1, 7)))
    def test_product_basis(self, axis, n):
        povm = product_basis_povm(axis, n)
        stacked = np.stack([vec for _, vec in product_basis_vectors(axis, n)], axis=1)
        assert np.array_equal(povm.factor, stacked)
        for built, dense in zip(povm.elements, dense_product_elements(axis, n),
                                strict=True):
            assert np.max(np.abs(built - dense)) <= 1e-15

    @pytest.mark.parametrize("obs", [collective_spin("x", 3), collective_spin("z", 4),
                                     random_hermitian(np.random.default_rng(3), 5),
                                     degenerate_observable(np.random.default_rng(4), 6)],
                             ids=["jx3", "jz4", "random5", "degenerate6"])
    def test_eigenprojectors(self, obs):
        povm = eigenprojector_povm(obs)
        for built, dense in zip(povm.elements, dense_eigenprojectors(obs), strict=True):
            assert np.max(np.abs(built - dense)) <= 1e-15

    def test_given_elements_are_kept(self):
        elements = custom_elements(np.random.default_rng(5), 4)
        povm = Povm(tuple(elements))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(povm.elements, elements))

    def test_factor_input_is_checked(self):
        with pytest.raises(ValueError, match="F F\\^dagger = I"):
            Povm(factor=np.eye(2) / 2.0, block_sizes=[1, 1])
        with pytest.raises(ValueError, match="block sizes"):
            Povm(factor=np.eye(2), block_sizes=[2, 0], check=False)
        povm = Povm(factor=np.eye(2), block_sizes=[1, 1], labels=("a", "b"))
        assert povm.labels == ("a", "b") and len(povm) == 2 and povm.dim == 2


def test_ghz9_x_product_reaches_heisenberg_limit():
    """CFI = N^2 for the x-product POVM on GHZ N=9 at a regular phase; its
    512 dense elements would take 2^31 bytes."""
    n = 9
    dist = outcome_distribution(ghz_model(n), math.pi / (4 * n), product_basis_povm("x", n))
    assert abs(cfi(dist) - n * n) <= 1e-9


class TestFactorOwnership:
    """The builders hand their freshly built factor to the POVM; a factor
    given to ``Povm`` is still copied and validated."""

    def test_x_product_load_peaks_near_one_factor(self):
        """An N=10 ``x_basis_product`` POVM holds its 1025 block bounds and no
        factor; the dense factor, built on first read an eighth of its rows
        at a time, peaks at 1.21 factors: each eighth's last outer product
        holds its input, half the eighth, next to its output. Building every
        row at once made it 1.54, and a copy into the POVM 2.07."""
        import tracemalloc

        product_basis_povm("x", 2).factor  # no first-call import in the peaks
        peaks = []
        tracemalloc.start()
        try:
            povm = product_basis_povm("x", 10)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            povm.factor
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[0] <= 16 * 1025
        assert peaks[1] <= 1.3 * povm.factor.nbytes

    def test_builders_freeze_their_factor(self):
        for povm in (product_basis_povm("y", 3), eigenprojector_povm(collective_spin("x", 2))):
            assert not povm.factor.flags.writeable

    def test_given_factor_is_copied_and_checked(self):
        factor = np.eye(2, dtype=complex)
        povm = Povm(labels=("a", "b"), factor=factor, block_sizes=[1, 1])
        assert not np.shares_memory(povm.factor, factor) and factor.flags.writeable
        with pytest.raises(ValueError, match="F F\\^dagger = I"):
            Povm(labels=("a",), factor=2.0 * factor, block_sizes=[2])


ROW_SETS = ("one", "two", "all")


class TestProductRows:
    """A product basis forms the rows of its factor site by site, bit for
    bit the rows of ``tensor_power(B, N)``, and reads a GHZ state's CFI on
    its two support rows without building the factor or the labels."""

    @given(axis=st.sampled_from("xy"), n=st.integers(1, 8),
           rows=st.sampled_from(ROW_SETS), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_the_tensor_power(self, axis, n, rows, seed):
        from qcrb_lab.core import _XY_BASES, tensor_power

        dim = 2 ** n
        rng = np.random.default_rng(seed)
        picked = {"one": rng.choice(dim, size=1), "all": np.arange(dim),
                  "two": rng.choice(dim, size=min(2, dim), replace=False)}[rows]
        povm = product_basis_povm(axis, n)
        got = povm._factor_rows(picked)
        assert np.array_equal(got, tensor_power(_XY_BASES[axis], n)[picked])
        assert "factor" not in povm.__dict__
        assert np.array_equal(povm._factor_rows(picked), povm.factor[picked])

    @pytest.mark.parametrize("axis", "xy")
    def test_ghz16_cfi_without_factor_or_labels(self, axis):
        """CFI = N^2 at N=16 within 1e-9 at two regular phases, and neither
        the 2^16 x 2^16 factor nor the 2^16 labels exist afterwards."""
        from qcrb_lab.fisher import _cfi_values

        n = 16
        povm = product_basis_povm(axis, n)
        values = list(_cfi_values(ghz_model(n), [0.1, math.pi / (4 * n)], povm))
        assert all(abs(value - n * n) <= 1e-9 for value in values)
        assert len(povm) == 2 ** n and povm.dim == 2 ** n
        assert "factor" not in povm.__dict__ and "labels" not in povm.__dict__


_EPS = float(np.finfo(float).eps)
# a site's a0 and |a|: halves, so that distinct products of the site values
# differ by at least 2^-N and equal ones only by rounding
SITE_A0, SITE_R = (-1.0, -0.5, 0.0, 0.5, 1.0), (0.0, 0.5, 1.0, 1.5)
AXES = tuple(tuple(sign * float(k == axis) for k in range(3))
             for axis in range(3) for sign in (1.0, -1.0))
DIRECTIONS = st.one_of(
    st.sampled_from(AXES),
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: math.hypot(*v) > 0.1))


@st.composite
def site_quadruples(draw):
    """``(a0, r n)`` for one site, ``n`` an axis or a random unit vector:
    ``r = 0`` sites keep the identity, ``|a0| = r`` ones have a zero value,
    and equal sites give degenerate products."""
    a0, r, direction = (draw(st.sampled_from(SITE_A0)), draw(st.sampled_from(SITE_R)),
                        draw(DIRECTIONS))
    norm = math.hypot(*direction)
    return (a0, *(r * c / norm for c in direction))


class TestProductEigenprojectors:
    """The eigenprojector POVM of a product observable is built from each
    site's closed-form eigenbasis, with no ``eigh``, and agrees with the
    dense ``eigh`` route.

    The bounds, with ``M = prod_k (|a0_k| + r_k) >= ||O||_2``. Each site
    value ``a0 -+ r`` carries at most ``2 eps (|a0| + r)``, so a product of
    N of them carries at most ``3 N eps M``; ``eigh`` is backward stable,
    its eigenvalues off by at most ``c d eps ||O||_2``; a group mean adds one
    ``eps`` of the label. Labels therefore differ by at most ``4 (N + d) eps
    M`` (``c = 4``). A projector of a group whose labels lie ``gap`` from
    the others' moves by at most ``4 d eps M / gap`` under ``eigh``'s
    backward error (Davis-Kahan), and the product columns are unit vectors
    whose entries are products of N site entries of ``2 eps`` relative
    error each, so ``F_x F_x^dagger`` is off by at most ``2 * 2 N eps
    sqrt(d)``: projectors differ entrywise by at most ``4 d eps M / gap + 8
    N sqrt(d) eps``."""

    @given(sites=st.lists(site_quadruples(), min_size=1, max_size=6),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_eigh(self, sites, seed):
        obs = product_observable(sites)
        n, dim = len(sites), 2 ** len(sites)
        povm = eigenprojector_povm(obs)
        assert povm._site_bases is not None and "factor" not in povm.__dict__
        eigenvalues = np.linalg.eigh(obs.matrix)[0]
        spread = max(1.0, float(eigenvalues[-1] - eigenvalues[0]))
        starts = [0, *(np.flatnonzero(np.diff(eigenvalues) > _DEGENERACY_TOL * spread)
                       + 1).tolist(), dim]
        labels = np.array([np.mean(eigenvalues[lo:hi]) for lo, hi in zip(starts, starts[1:])])
        assert povm.block_bounds.tolist() == starts
        scale = math.prod(abs(a0) + math.hypot(*a) for a0, *a in sites)
        assert np.all(np.abs(np.array(povm.labels) - labels) <= 4 * (n + dim) * _EPS * scale)
        for k, (built, dense) in enumerate(zip(povm.elements, dense_eigenprojectors(obs),
                                               strict=True)):
            gap = np.abs(np.delete(labels, k) - labels[k]).min(initial=np.inf)
            bound = 4 * dim * _EPS * scale / gap + 8 * n * math.sqrt(dim) * _EPS
            assert np.max(np.abs(built - dense)) <= bound
        rng = np.random.default_rng(seed)
        for picked in (rng.choice(dim, size=1), rng.choice(dim, size=min(2, dim), replace=False),
                       np.arange(dim)):
            assert np.array_equal(povm._factor_rows(picked), povm.factor[picked])
        # the factor, built row by row, is the Kronecker product of the site bases
        assert np.array_equal(povm.factor,
                              tensor_product(list(povm._site_bases))[:, povm._order])


def _no_eigh(*args, **kwargs):
    raise AssertionError("numpy.linalg.eigh must not be called")


class TestWithoutEigh:
    """A product observable's eigenprojectors are read with no ``eigh``."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_simulate_and_cfi_run_without_eigh(self, n, monkeypatch, tmp_path):
        """GHZ N=3-8 ``simulate`` (both estimators) and ``cfi`` on the
        eigenprojectors of the observable, through the CLI."""
        import yaml
        from click.testing import CliRunner

        from qcrb_lab.cli import main

        monkeypatch.setattr(np.linalg, "eigh", _no_eigh)
        runner = CliRunner()
        for povm, args in (("x_basis_product", ["simulate", "--trials", "20"]),
                           ("eigenprojectors_of_observable", ["cfi"])):
            path = tmp_path / f"{povm}.yaml"
            path.write_text(yaml.safe_dump({
                "state": {"ghz": {"n": n}}, "observable": {"pauli_product": {"a1": 1.0}},
                "povm": povm, "phi": 0.3 / n, "nu": 1000}), encoding="utf-8")
            result = runner.invoke(main, [args[0], "--model", str(path), *args[1:]])
            assert result.exit_code == 0, result.output

    def test_ghz12_simulate_without_eigh_or_factor(self, monkeypatch):
        """GHZ N=12 with the x product and the x-product basis: both
        estimators run with neither ``eigh`` nor a dense POVM factor, the
        sample-mean MSE lies within 5 standard errors of ``1 / (nu N^2)``, and
        the observable's dense matrix is never built."""
        n, nu, trials = 12, 1000, 200
        monkeypatch.setattr(np.linalg, "eigh", _no_eigh)
        monkeypatch.setattr(Povm, "factor", property(_no_eigh))
        model, obs = ghz_model(n), product_observable([(0.0, 1.0, 0.0, 0.0)] * n)
        summary = run_sample_mean_trials(model, obs, 0.05, nu, trials, 7)
        run_mle_trials(model, product_basis_povm("x", n), 0.05, nu, trials, 7)
        expected = 1.0 / (nu * n * n)
        assert abs(summary.mse - expected) <= 5.0 * expected * math.sqrt(2.0 / trials)
        assert "matrix" not in obs.__dict__
