"""The phase covariance of a unitary family: a model whose initial state is
rho(delta) is the original model shifted by delta, and the one ``phi = 0``
solve moved to ``phi`` agrees with a dense solve of rho at ``phi``."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcrb_lab import (
    DensityMatrix,
    HermitianObservable,
    PureState,
    check_observable_optimality,
    check_povm_optimality,
    outcome_distribution,
    sld,
    state_derivative,
    unitary_model,
)
from qcrb_lab.optimality import _moments

from conftest import random_density, random_hermitian, random_povm, ref_eigen_sld, support_carrier

_EPS = float(np.finfo(float).eps)

#: fields may differ by this many of their first-order rounding bounds (see
#: TestPhaseCovariance)
COVARIANCE_NOISE = 8.0

STATE_KINDS = ("pure", "rank", "full")
GENERATOR_KINDS = ("diagonal", "offset", "dense")


def _centred(generator):
    matrix = generator.matrix
    return matrix - (np.trace(matrix).real / generator.dim) * np.eye(generator.dim)


def _ref_propagator(generator, phi):
    """``exp(-i (G - tr G / d) phi)`` from ``eigh`` of the centred G."""
    eigenvalues, eigenvectors = np.linalg.eigh(_centred(generator))
    return (eigenvectors * np.exp(-1j * eigenvalues * phi)) @ eigenvectors.conj().T


def covariance_case(state_kind, generator_kind, seed):
    """``(model, observable, POVM)`` of dimension 2-6: a pure, rank-deficient
    or full-rank state under a diagonal G, a diagonal (even seeds) or dense
    (odd seeds) G plus ``c I`` with ``|c|`` 1e2-1e4 times its spread, or a
    dense G; G has a scale of 0.1-10."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 7))
    scale = 10.0 ** rng.uniform(-1.0, 1.0)
    if generator_kind == "dense" or (generator_kind == "offset" and seed % 2):
        matrix = random_hermitian(rng, dim).matrix * scale
    else:
        matrix = np.diag(rng.normal(size=dim) * scale).astype(complex)
    if generator_kind == "offset":
        offset = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(2.0, 4.0) * scale
        matrix = matrix + offset * np.eye(dim)
    if state_kind == "pure":
        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        state = PureState(amps / np.linalg.norm(amps))
    else:
        rank = dim if state_kind == "full" else int(rng.integers(1, dim))
        state = random_density(rng, dim, rank)
    return (unitary_model(state, HermitianObservable(matrix)), random_hermitian(rng, dim),
            random_povm(rng, dim, int(rng.integers(2, 6))))


def shifted_model(model, delta):
    """The same family with the initial state ``rho(delta)``, moved by the
    test-local propagator."""
    u = _ref_propagator(model.generator, delta)
    state = model.initial_state
    if isinstance(state, PureState):
        moved = PureState(u @ state.amplitudes)
    else:
        rho = u @ state.matrix @ u.conj().T
        moved = DensityMatrix((rho + rho.conj().T) / 2.0)
    return unitary_model(moved, model.generator)


def _povm_residuals(povm, lhs_rows, rhs_rows):
    """Per-outcome relative residuals of the real fit ``F_x^dagger C ~ u
    F_x^dagger L C``, with the cuts of ``check_povm_optimality``."""
    bounds = povm.block_bounds.tolist()
    residuals = []
    for lo, hi in zip(bounds, bounds[1:]):
        lhs, rhs = lhs_rows[lo:hi], rhs_rows[lo:hi]
        lhs_norm, rhs_norm = float(np.linalg.norm(lhs)), float(np.linalg.norm(rhs))
        if rhs_norm * rhs_norm <= 1e-14 * max(1.0, lhs_norm):
            residuals.append(0.0 if lhs_norm <= 1e-14 else 1.0)
            continue
        coef = float(np.vdot(rhs, lhs).real) / (rhs_norm * rhs_norm)
        scale = max(lhs_norm, abs(coef) * rhs_norm)
        residual = float(np.linalg.norm(lhs - coef * rhs))
        residuals.append(residual / scale if scale > 0.0 else 0.0)
    return np.array(residuals)


def package_fields(model, phi, obs, povm):
    """What the package reports of ``model`` at ``phi``."""
    result = sld(model, phi)
    moments = _moments(model, obs, result)
    check = check_observable_optimality(model, phi, obs)
    dist = outcome_distribution(model, phi, povm)
    return {"qfi": result.qfi, "kernel_dim": result.kernel_dim, "mean": moments.mean,
            "second": moments.second, "slope": moments.slope, "alpha": check.alpha,
            "residual_rel": check.residual_rel, "diagnostic": check.diagnostic,
            "p": dist.probabilities, "dp": dist.derivatives, "d2p": dist.second_derivatives,
            "povm_residual": check_povm_optimality(model, phi, povm).per_outcome_residual}


def _ref_dense_fields(model, phi, obs, povm):
    """The same fields from a dense solve of rho at ``phi``, as every
    generator model's ``sld`` ran it per phase: ``rho`` and ``drho`` from the
    state builder, ``d^2 rho = -[G', [G', rho]]``, the eigenbasis solve and
    dense traces with the POVM elements. Also the scales of the bounds:
    ``||L||_F``, the smallest support eigenvalue ``p_min``, ``q_x = Tr(L rho
    L M_x)`` and ``||O||_F``, ``||O^2||_F``."""
    rho = model.density(phi).matrix
    drho = state_derivative(model, phi)
    g = _centred(model.generator)
    d2rho = -(g @ g @ rho - 2.0 * (g @ rho @ g) + rho @ g @ g)
    d2rho = (d2rho + d2rho.conj().T) / 2.0
    l_matrix, qfi, kernel_dim, p_min = ref_eigen_sld(rho, drho)
    carrier = support_carrier(rho)
    o = obs.matrix
    o_carrier, l_carrier = o @ carrier, l_matrix @ carrier
    mean = float(np.vdot(carrier, o_carrier).real)
    lhs = o_carrier - mean * carrier
    alpha = float(np.vdot(l_carrier, lhs).real) / float(np.vdot(l_carrier, l_carrier).real)
    residual = float(np.linalg.norm(lhs - alpha * l_carrier))
    elements = np.array(povm.elements)

    def traces(a):
        return np.einsum("jk,xkj->x", a, elements).real

    f_dagger = povm.factor.conj().T
    return {"qfi": qfi, "kernel_dim": kernel_dim, "mean": mean,
            "second": float(np.vdot(o_carrier, o_carrier).real),
            "slope": float(np.vdot(o, drho).real), "alpha": alpha,
            "residual_rel": residual / max(float(np.linalg.norm(lhs)),
                                           abs(alpha) * float(np.linalg.norm(l_carrier))),
            "p": np.clip(traces(rho), 0.0, 1.0), "dp": traces(drho), "d2p": traces(d2rho),
            "povm_residual": _povm_residuals(povm, f_dagger @ carrier, f_dagger @ l_carrier),
            "l_norm": float(np.linalg.norm(l_matrix)), "p_min": p_min,
            "q": traces(l_matrix @ rho @ l_matrix),
            "o_norm": float(np.linalg.norm(o)), "o2_norm": float(np.linalg.norm(o @ o))}


def _sine_bound(cosine, d_cosine, sine):
    """How far ``sine = sqrt(1 - cosine^2)`` moves when ``cosine`` moves by
    ``d_cosine``: ``dy = 2 |c| dc + dc^2`` bounds the move of ``y = sine^2``,
    and ``sqrt`` moves by at most ``min(dy / sqrt(y), sqrt(dy))``."""
    dy = 2.0 * abs(cosine) * d_cosine + d_cosine * d_cosine
    return min(dy / sine, math.sqrt(dy)) if sine > 0.0 else math.sqrt(dy)


def field_bounds(ref, unit, spread, dim):
    """First-order bounds on each field's move when rho moves by ``unit``,
    drho by ``spread * unit`` and d^2 rho by ``spread^2 * unit`` (see
    TestPhaseCovariance)."""
    e0, e1, e2 = unit, spread * unit, spread * spread * unit
    l_norm, qfi = ref["l_norm"], ref["qfi"]
    d_l = 2.0 * (e1 + l_norm * e0) / ref["p_min"]
    d_qfi = l_norm * l_norm * e0 + (2.0 * l_norm + d_l) * d_l
    d_mean, d_second, d_slope = e0 * ref["o_norm"], e0 * ref["o2_norm"], e1 * ref["o_norm"]
    bounds = {"qfi": d_qfi, "mean": d_mean, "second": d_second, "slope": d_slope,
              "alpha": (d_slope + abs(ref["alpha"]) * d_qfi) / qfi,
              "p": math.sqrt(dim) * e0, "dp": math.sqrt(dim) * e1,
              "d2p": math.sqrt(dim) * e2}
    variance = ref["second"] - ref["mean"] ** 2
    d_variance = d_second + 2.0 * abs(ref["mean"]) * d_mean
    cosine = ref["slope"] / math.sqrt(qfi * variance)
    d_cosine = abs(cosine) * (d_slope / abs(ref["slope"]) + d_qfi / (2.0 * qfi)
                              + d_variance / (2.0 * variance))
    bounds["residual_rel"] = _sine_bound(cosine, d_cosine, ref["residual_rel"])
    d_q = math.sqrt(dim) * (l_norm * l_norm * e0 + 2.0 * l_norm * d_l + d_l * d_l)
    povm_bounds = []
    for p, dp, q, residual in zip(ref["p"], ref["dp"], ref["q"], ref["povm_residual"]):
        cosine = dp / (2.0 * math.sqrt(p * q))
        d_cosine = abs(cosine) * (bounds["dp"] / abs(dp) + bounds["p"] / (2.0 * p)
                                  + d_q / (2.0 * q))
        povm_bounds.append(_sine_bound(cosine, d_cosine, residual))
    bounds["povm_residual"] = np.array(povm_bounds)
    return bounds


def is_well_posed(ref):
    """Draws whose fields sit away from a cut: an informative state, an
    observable with a spread, and outcomes that fire with a slope."""
    variance = ref["second"] - ref["mean"] ** 2
    return (ref["qfi"] > 1e-6 and variance > 1e-6 * ref["o2_norm"]
            and abs(ref["slope"]) > 1e-6 * math.sqrt(variance * ref["qfi"])
            and np.all(ref["p"] > 1e-6) and np.all(np.abs(ref["dp"]) > 1e-9)
            and np.all(ref["q"] > 1e-6))


def assert_fields_close(new, old, bounds):
    assert new["kernel_dim"] == old["kernel_dim"]
    for field, bound in bounds.items():
        gap = np.abs(np.asarray(new[field]) - np.asarray(old[field]))
        assert np.all(gap <= COVARIANCE_NOISE * np.asarray(bound)
                      + 1e-15 * np.abs(np.asarray(old[field]))), (field, gap, bound)


class TestPhaseCovariance:
    """The model with initial state ``rho(delta)``, evaluated at ``phi -
    delta``, reports what the model with ``rho_0`` reports at ``phi``; and
    either agrees with a dense solve of rho at ``phi``.

    The bounds, with ``s`` the spread ``||G - (tr G / d) I||_2`` and ``K =
    COVARIANCE_NOISE``. The routes differ by the rounding of rho: a
    propagator or an entrywise phase ``exp(-i g phi)`` carries ``eps |phi|
    s`` per entry and each product or eigendecomposition ``c d eps``, so
    rho moves by ``u = eps d (1 + (|phi| + |delta|) s)`` (``delta = 0``
    against the dense solve), ``drho = -i[G', rho]`` by ``s u`` and ``d^2
    rho`` by ``s^2 u``. The offset in G changes nothing: centring subtracts
    it exactly up to a multiple of I, a global phase. Then, to first order:

    * ``L`` solves ``(rho L + L rho) / 2 = drho`` on blocks with ``p_j + p_k
      >= p_min``, the smallest support eigenvalue (1 for a pure state), so
      it moves by ``dL = 2 (s u + ||L|| u) / p_min``, and ``QFI = Tr(rho
      L^2)`` by ``||L||^2 u + (2 ||L|| + dL) dL``;
    * ``<O> = Tr(rho O)`` by ``u ||O||_F``, ``<O^2>`` by ``u ||O^2||_F`` and
      the slope ``Tr(drho O)`` by ``s u ||O||_F``;
    * ``alpha = slope / QFI`` (since ``Tr(rho L) = 0``) by ``(d slope + |alpha|
      d QFI) / QFI``;
    * ``residual_rel`` is the sine of the angle between ``(O - <O>) C`` and
      ``L C``, whose cosine is ``slope / sqrt(QFI Var O)``; the cosine moves
      by ``|cos|`` times the relative moves of its parts and the sine as
      ``_sine_bound`` says;
    * ``p``, ``p'`` and ``p''`` are traces with ``0 <= M_x <= I``, so they
      move by ``sqrt(d)`` times the moves of rho, drho and d^2 rho;
    * each POVM residual is the sine of the angle between ``F_x^dagger C``
      and ``F_x^dagger L C``, whose cosine is ``p'_x / (2 sqrt(p_x q_x))``
      with ``q_x = Tr(L rho L M_x)``, which moves by ``sqrt(d) (||L||^2 u +
      2 ||L|| dL + dL^2)``;
    * ``kernel_dim`` is equal: the kernel eigenvalues stay near ``eps``,
      far below the ``1e-12`` cut, and the support ones above it.

    Draws near a cut (no information, no spread, a stationary mean, an
    outcome that does not fire) are left to the tests of those cuts. Each
    gap may also exceed its bound by ``1e-15`` of the value. Over 20,000
    draws, each checked both ways, no ``kernel_dim`` differed and the
    largest ratio of a gap to its bound with ``K = 1`` was 1.75, on ``p''``
    against the dense solve (1.66 on ``<O^2>`` across the shift, under an
    offset G); ``K = 8`` leaves a factor of about 4.5 above it.
    """

    @given(state_kind=st.sampled_from(STATE_KINDS),
           generator_kind=st.sampled_from(GENERATOR_KINDS),
           seed=st.integers(0, 2 ** 32 - 1),
           phi=st.floats(-2.0 * math.pi, 2.0 * math.pi),
           delta=st.floats(-2.0 * math.pi, 2.0 * math.pi))
    @settings(max_examples=200, deadline=None)
    def test_shifted_state_and_dense_solve_agree(self, state_kind, generator_kind, seed,
                                                 phi, delta):
        model, obs, povm = covariance_case(state_kind, generator_kind, seed)
        ref = _ref_dense_fields(model, phi, obs, povm)
        assume(is_well_posed(ref))
        spread = float(np.abs(np.linalg.eigvalsh(_centred(model.generator))).max())
        new = package_fields(model, phi, obs, povm)
        assert new["diagnostic"] is None
        dim = model.dim
        unit = _EPS * dim * (1.0 + abs(phi) * spread)
        assert_fields_close(new, ref, field_bounds(ref, unit, spread, dim))
        shifted = package_fields(shifted_model(model, delta), phi - delta, obs, povm)
        unit = _EPS * dim * (1.0 + (abs(phi) + abs(delta)) * spread)
        assert_fields_close(shifted, new, field_bounds(ref, unit, spread, dim))
