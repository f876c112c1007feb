import numpy as np
import pytest

from qcrb_lab import DensityMatrix, HermitianObservable, Povm
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


def ref_apply_generator(generator, x):
    """``(G - tr G / d) x`` for a ``d x k`` array: ``g[:, None] * x`` for a
    diagonal G, else ``V (g * V^dagger x)``."""
    g, basis = ref_frame(generator)
    if basis is None:
        return g[:, None] * x
    return basis @ (g[:, None] * (basis.conj().T @ x))


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)
