import numpy as np
import pytest

from qcrb_lab import DensityMatrix, HermitianObservable, Povm, PureState
from qcrb_lab.core import require_hermitian


def random_hermitian(rng, dim):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianObservable((x + x.conj().T) / 2.0)


def degenerate_observable(rng, dim):
    """A random eigenbasis with eigenvalues drawn from {0, 1, 2}, so that its
    eigenprojector POVM has blocks of several columns."""
    basis = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    matrix = (basis * rng.integers(0, 3, size=dim)) @ basis.conj().T
    return HermitianObservable((matrix + matrix.conj().T) / 2.0)


def random_density(rng, dim, rank=None):
    rank = dim if rank is None else rank
    w = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = w @ w.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def random_povm(rng, dim, n_outcomes):
    """PSD elements A_k normalized as S^-1/2 A_k S^-1/2 with S = sum A_k."""
    raw = []
    for _ in range(n_outcomes):
        w = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        raw.append(w @ w.conj().T)
    total = sum(raw)
    vals, vecs = np.linalg.eigh(total)
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return Povm(tuple(inv_sqrt @ a @ inv_sqrt for a in raw))


def support_carrier(rho):
    """``C = V sqrt(p)`` with ``C C^dagger = rho`` over the eigenvalues of the
    symmetrised ``rho`` above 1e-12 times their sum."""
    eigenvalues, eigenvectors = np.linalg.eigh(require_hermitian(rho, atol=1e-8))
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    support = eigenvalues > 1e-12 * float(np.sum(eigenvalues))
    return eigenvectors[:, support] * np.sqrt(eigenvalues[support])


def ref_diagonal(matrix):
    """The real diagonal of ``matrix`` when it is exactly diagonal and real,
    else ``None``."""
    diag = np.diag(matrix)
    if np.any(matrix - np.diag(diag)) or np.any(diag.imag):
        return None
    return diag.real


def ref_frame(generator):
    """``(g, V)`` with ``G - (tr G / d) I = V diag(g) V^dagger``; ``V`` is
    ``None`` and ``g`` the centred diagonal when G is diagonal."""
    g = ref_diagonal(generator.matrix)
    if g is not None:
        return g - np.mean(g), None
    dim = generator.dim
    return np.linalg.eigh(generator.matrix
                          - (np.trace(generator.matrix).real / dim) * np.eye(dim))


def ref_eigen_sld(rho, drho):
    """``(L, QFI, kernel_dim, smallest support eigenvalue)`` of the eigenbasis
    solve ``L_jk = 2 drho_jk / (p_j + p_k)``, gauged to zero on the blocks
    with ``p_j + p_k`` at or below 1e-12 times the trace; ``QFI = ||L C||^2``
    on ``support_carrier(rho)``."""
    eigenvalues, eigenvectors = np.linalg.eigh(require_hermitian(rho, atol=1e-8))
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    cutoff = 1e-12 * float(np.sum(eigenvalues))
    denom = eigenvalues[:, None] + eigenvalues[None, :]
    solvable = denom > cutoff
    drho_eig = eigenvectors.conj().T @ drho @ eigenvectors
    l_eig = np.where(solvable, 2.0 * drho_eig / np.where(solvable, denom, 1.0), 0.0)
    l_matrix = eigenvectors @ l_eig @ eigenvectors.conj().T
    l_matrix = (l_matrix + l_matrix.conj().T) / 2.0
    l_carrier = l_matrix @ support_carrier(rho)
    support = eigenvalues > cutoff
    return (l_matrix, float(np.vdot(l_carrier, l_carrier).real),
            int(np.count_nonzero(~support)), float(eigenvalues[support].min()))


def ref_frame_solution(model):
    """``(C_0', L_0' C_0', kernel_dim, L_0' or None)`` of a generator model's
    SLD at ``phi = 0`` in the frame of ``ref_frame``: ``C_0' = psi_0'`` and
    ``L_0' C_0' = 2(dC + <dC|C_0'> C_0')`` with ``dC = -i g * C_0'`` for a
    state vector, else the eigenbasis solve on ``rho_0'`` and ``-i (g_j -
    g_l) rho_0'``."""
    g, basis = ref_frame(model.generator)
    state = model.initial_state
    if isinstance(state, PureState):
        psi = state.amplitudes if basis is None else basis.conj().T @ state.amplitudes
        carrier = psi[:, None]
        dcarrier = -1j * g[:, None] * carrier
        return (carrier, 2.0 * (dcarrier + np.vdot(dcarrier, carrier) * carrier),
                model.dim - 1, None)
    rho = state.matrix if basis is None else (basis.conj().T @ state.matrix) @ basis
    rho = (rho + rho.conj().T) / 2.0
    l_matrix, _, kernel_dim, _ = ref_eigen_sld(rho, -1j * (g[:, None] - g[None, :]) * rho)
    carrier = support_carrier(rho)
    return carrier, l_matrix @ carrier, kernel_dim, l_matrix


def ref_moved_solution(model, phi):
    """``(C, dC, L C, QFI, kernel_dim)`` of a generator model at ``phi``: the
    frame solution moved by ``e = exp(-i g phi)`` and rotated by V, with
    ``dC = -i g * C`` in the frame and ``QFI = ||L_0' C_0'||^2``."""
    g, basis = ref_frame(model.generator)
    carrier, l_carrier, kernel_dim, _ = ref_frame_solution(model)
    e = np.exp(-1j * g * phi)[:, None]
    moved = e * carrier
    moved = [moved, -1j * g[:, None] * moved, e * l_carrier]
    if basis is not None:
        moved = [basis @ x for x in moved]
    return (*moved, float(np.vdot(l_carrier, l_carrier).real), kernel_dim)


def ref_moved_sld_matrix(model, phi):
    """L of a generator model at ``phi``: ``2 drho`` with ``drho = dC C^dagger +
    C dC^dagger`` for a state vector, else ``V (e_j L_0'_jl e_l^*)
    V^dagger``, symmetrised."""
    if isinstance(model.initial_state, PureState):
        carrier, dcarrier = ref_moved_solution(model, phi)[:2]
        drho = dcarrier @ carrier.conj().T
        return 2.0 * (drho + drho.conj().T)
    g, basis = ref_frame(model.generator)
    e = np.exp(-1j * g * phi)
    moved = e[:, None] * ref_frame_solution(model)[3] * e.conj()[None, :]
    if basis is not None:
        moved = basis @ moved @ basis.conj().T
    return (moved + moved.conj().T) / 2.0


def ref_carrier_outcome_arrays(model, phi, povm, order=2):
    """``(p, p', p'')`` of a generator model from its moved carrier, ``None``
    beyond ``order``: ``a_k = F^dagger V (-i g)^k (e * C_0')``, ``p =
    ||a_0||^2``, ``p' = 2 Re<a_0, a_1>`` and ``p'' = 2 (||a_1||^2 + Re<a_0,
    a_2>)`` over each outcome's block of rows, ``p`` clipped to [0, 1]."""
    g, basis = ref_frame(model.generator)
    carrier = ref_frame_solution(model)[0]
    f_dagger = (povm.factor if basis is None else basis.conj().T @ povm.factor).conj().T
    moved = np.exp(-1j * g * phi)[:, None] * carrier
    rows = [f_dagger]
    for _ in range(order):
        rows.append(rows[-1] * (-1j * g))
    a = [f @ moved for f in rows]

    def inner(x, y):
        return (x.real * y.real + x.imag * y.imag).sum(axis=-1)

    def blocks(columns):
        return np.add.reduceat(columns, povm.block_bounds[:-1])

    arrays = [np.clip(blocks(inner(a[0], a[0])), 0.0, 1.0), None, None]
    if order >= 1:
        arrays[1] = 2.0 * blocks(inner(a[0], a[1]))
    if order == 2:
        arrays[2] = 2.0 * blocks(inner(a[1], a[1]) + inner(a[0], a[2]))
    return tuple(arrays)


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)
