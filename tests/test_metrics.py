import re

import numpy as np
import pytest

from qwbutterfly import (
    average_fidelity,
    coherence_l1,
    fidelity_mixed,
    fidelity_pure,
    fidelity_with_pure,
    oun_decay,
    rtn_modulation,
)


def random_pure(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_fidelity_pure_identical_states():
    psi = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    assert fidelity_pure(psi, psi) == pytest.approx(1.0)


def test_fidelity_pure_orthogonal_states():
    assert fidelity_pure(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_fidelity_pure_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = random_pure(rng, 6), random_pure(rng, 6)
        assert fidelity_pure(a, b) == pytest.approx(fidelity_pure(b, a), abs=1e-14)


def test_fidelity_pure_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        fidelity_pure(np.ones(2) / np.sqrt(2), np.ones(3) / np.sqrt(3))


def test_fidelity_mixed_identical_projectors():
    rho = np.diag([1.0, 0.0]).astype(complex)
    assert fidelity_mixed(rho, rho) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_mixed_orthogonal_projectors():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([0.0, 1.0]).astype(complex)
    assert fidelity_mixed(rho, sigma) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_mixed_matches_pure_reduction():
    # general eigendecomposition route against <r|rho|r> on random states
    rng = np.random.default_rng(11)
    for _ in range(100):
        rho = random_density(rng, 8)
        target = random_pure(rng, 8)
        general = fidelity_mixed(rho, np.outer(target, target.conj()))
        reduced = fidelity_with_pure(rho, target)
        assert abs(general - reduced) < 1e-10


def test_fidelity_mixed_matches_fidelity_pure_on_projectors():
    rng = np.random.default_rng(12)
    for _ in range(25):
        a, b = random_pure(rng, 5), random_pure(rng, 5)
        mixed = fidelity_mixed(np.outer(a, a.conj()), np.outer(b, b.conj()))
        assert mixed == pytest.approx(fidelity_pure(a, b), abs=1e-10)


def test_fidelity_mixed_symmetric():
    rng = np.random.default_rng(13)
    for _ in range(20):
        rho, sigma = random_density(rng, 6), random_density(rng, 6)
        assert abs(fidelity_mixed(rho, sigma) - fidelity_mixed(sigma, rho)) < 1e-10


def test_fidelity_mixed_unitary_invariance():
    rng = np.random.default_rng(14)
    for _ in range(10):
        rho, sigma = random_density(rng, 8), random_density(rng, 8)
        u = random_unitary(rng, 8)
        rotated = fidelity_mixed(u @ rho @ u.conj().T, u @ sigma @ u.conj().T)
        assert abs(rotated - fidelity_mixed(rho, sigma)) < 1e-9


def test_fidelity_mixed_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        fidelity_mixed(np.eye(2, dtype=complex), np.eye(2, dtype=complex) / 2)


def test_fidelity_mixed_rejects_non_hermitian():
    rho = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        fidelity_mixed(rho, np.eye(2, dtype=complex) / 2)


def test_average_fidelity_simple_mean():
    assert average_fidelity([0.0, 0.5, 1.0]) == pytest.approx(0.5)
    assert average_fidelity(np.ones(200)) == 1.0


def test_average_fidelity_rejects_empty_series():
    with pytest.raises(ValueError):
        average_fidelity([])


def test_coherence_basis_state_is_zero():
    psi = np.zeros(6, dtype=complex)
    psi[2] = 1.0
    assert coherence_l1(psi) == 0.0


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_coherence_uniform_superposition(d):
    psi = np.full(d, 1.0 / np.sqrt(d), dtype=complex)
    assert coherence_l1(psi) == pytest.approx(d - 1.0, abs=1e-12)


def test_coherence_diagonal_state_is_zero():
    rho = np.diag([0.25, 0.25, 0.5]).astype(complex)
    assert coherence_l1(rho) == 0.0


def test_coherence_invariant_under_diagonal_phases():
    rng = np.random.default_rng(15)
    psi = rng.normal(size=5) + 1j * rng.normal(size=5)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=5))
    rotated = np.diag(phases) @ rho @ np.diag(phases).conj()
    assert coherence_l1(rotated) == pytest.approx(coherence_l1(rho), abs=1e-12)


@pytest.mark.parametrize("dim", [4, 34, 254])
def test_coherence_pure_matches_projector(dim):
    rng = np.random.default_rng(16)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    assert coherence_l1(psi) == pytest.approx(coherence_l1(np.outer(psi, psi.conj())),
                                              rel=1e-12, abs=0)


DEPHASING_KERNELS = {"rtn": lambda t: rtn_modulation(0.1, 0.01, t),
                     "oun": lambda t: oun_decay(1.0, 0.05, t)}


@pytest.mark.parametrize("kernel", sorted(DEPHASING_KERNELS))
@pytest.mark.parametrize("dim", [1, 2, 3, 127, 254, 1126])
def test_circulant_coherence_matches_the_dense_dephased_output(dim, kernel):
    rng = np.random.default_rng(dim)
    psi = random_pure(rng, dim)
    lag = np.subtract.outer(np.arange(dim), np.arange(dim))
    for t in [1, 37, 120, 200]:
        p = 0.5 * (1.0 + DEPHASING_KERNELS[kernel](t))
        w = p + (1.0 - p) * np.exp(2j * np.pi * lag / dim)
        dense = np.abs(np.outer(psi, psi.conj()) * w)
        want = dense.sum() - np.trace(dense)
        got = coherence_l1(psi, np.abs(w[:, 0]))
        assert abs(got - want) <= 1e-12 * max(1.0, want)


@pytest.mark.parametrize("dim", [2, 3, 127, 254])
def test_circulant_coherence_reads_each_lag_in_its_direction(dim):
    # weights with c_d != c_{dim-d}: sum_{j != k} a_j a_k c_{(j-k) mod dim}
    rng = np.random.default_rng(dim + 1)
    psi, weights = random_pure(rng, dim), rng.uniform(size=dim)
    a = np.abs(psi)
    lag = np.subtract.outer(np.arange(dim), np.arange(dim)) % dim
    want = (np.outer(a, a) * weights[lag]).sum() - weights[0] * (a @ a)
    assert coherence_l1(psi, weights) == pytest.approx(want, rel=1e-12)


def test_circulant_coherence_of_unit_weights_is_the_pure_coherence():
    psi = random_pure(np.random.default_rng(17), 254)
    assert coherence_l1(psi, np.ones(254)) == pytest.approx(coherence_l1(psi), rel=1e-13)


@pytest.mark.parametrize("state,weights", [
    (np.ones(4), np.ones(3)),
    (np.ones(4), np.ones((4, 1))),
    (np.eye(4), np.ones(4)),
], ids=["short weights", "2-d weights", "2-d state"])
def test_circulant_coherence_rejects_mismatched_shapes(state, weights):
    shapes = f"state shape {state.shape} and weights shape {weights.shape}"
    with pytest.raises(ValueError, match=re.escape(shapes)):
        coherence_l1(state, weights)
