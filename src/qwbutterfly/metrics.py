"""State-transfer metrics: fidelity (pure and mixed) and l1 coherence."""

from __future__ import annotations

from typing import Optional

import numpy as np

# Eigenvalues of a density matrix in [-EIG_CLIP, 0) are treated as
# floating-point noise from the Hermitian eigensolver and clipped to 0.
EIG_CLIP = 1e-10


def fidelity_pure(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 for two normalized pure states."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"state shapes {a.shape} and {b.shape} do not match")
    return float(np.abs(np.vdot(a, b)) ** 2)


def _validate_density_matrix(rho: np.ndarray, atol: float = 1e-8) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > atol:
        raise ValueError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1.0) > atol:
        raise ValueError(f"density matrix trace is {np.trace(rho).real}, expected 1")
    return rho


def _psd_eigvals(w: np.ndarray) -> np.ndarray:
    if np.min(w) < -EIG_CLIP:
        raise ValueError(f"density matrix has negative eigenvalue {np.min(w)}")
    return np.clip(w, 0.0, None)


def fidelity_mixed(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 between density matrices.

    Matrix square roots are taken through Hermitian eigendecompositions,
    with tiny negative eigenvalues clipped to zero.
    """
    rho = _validate_density_matrix(rho)
    sigma = _validate_density_matrix(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"density matrix shapes {rho.shape} and {sigma.shape} differ")
    w, v = np.linalg.eigh(rho)
    sqrt_rho = (v * np.sqrt(_psd_eigvals(w))) @ v.conj().T
    inner = sqrt_rho @ sigma @ sqrt_rho
    iw = _psd_eigvals(np.linalg.eigvalsh(inner))
    # eigensolver noise below resolution would blow up through the square
    # root (sqrt(1e-17) ~ 3e-9), so drop magnitudes the solver cannot resolve
    cutoff = inner.shape[0] * np.finfo(float).eps * iw.max(initial=0.0)
    iw[iw < cutoff] = 0.0
    return float(np.sum(np.sqrt(iw)) ** 2)


def fidelity_with_pure(rho: np.ndarray, target: np.ndarray) -> float:
    """Fidelity of rho against the pure target state: <target|rho|target>.

    Algebraic reduction of fidelity_mixed when one argument is a pure
    projector; avoids eigendecomposition noise on nearly singular rho.
    """
    rho = np.asarray(rho)
    target = np.asarray(target)
    if rho.shape != (target.size, target.size):
        raise ValueError(f"shapes {rho.shape} and {target.shape} do not match")
    return float(np.real(target.conj() @ rho @ target))


def average_fidelity(values) -> float:
    """Arithmetic mean of a fidelity series F_1 .. F_T."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot average an empty fidelity series")
    return float(values.mean())


def coherence_l1(state: np.ndarray, weights: Optional[np.ndarray] = None) -> float:
    """l1-norm coherence: sum of |rho_ij| over the off-diagonal entries.

    For a pure state (1-d array) that is (sum |psi_i|)^2 - sum |psi_i|^2.

    With `weights`, the real lag weights c (length dim) of a circulant Schur
    multiplier W, |W_jk| = c_{(j-k) mod dim}, `state` is a pure state psi and
    the result is the coherence of psi psi^dag o W:

        sum_{j != k} a_j a_k c_{(j-k) mod dim} = sum_{d >= 1} c_d R_d,

    with a = |psi| and R_d = sum_k a_{(k+d) mod dim} a_k its cyclic
    autocorrelation, taken through one real FFT in O(dim log dim).
    """
    state = np.asarray(state)
    if weights is not None:
        return _circulant_coherence(state, np.asarray(weights))
    if state.ndim == 1:
        return float(np.abs(state).sum() ** 2 - np.vdot(state, state).real)
    if state.ndim != 2 or state.shape[0] != state.shape[1]:
        raise ValueError(f"expected a state vector or square matrix, got shape {state.shape}")
    mags = np.abs(state)
    return float(mags.sum() - np.trace(mags))


def _circulant_coherence(psi: np.ndarray, weights: np.ndarray) -> float:
    if psi.ndim != 1 or weights.shape != psi.shape:
        raise ValueError(f"lag weights must be 1-d of the state's length, got state shape "
                         f"{psi.shape} and weights shape {weights.shape}")
    dim = psi.size
    # the linear autocorrelation L_d (d = 0..dim-1) through a power-of-two FFT
    # of length >= 2 dim - 1, so no lag wraps; then R_d = L_d + L_{dim-d}
    m = 1 << (2 * dim - 2).bit_length()
    spectrum = np.fft.rfft(np.abs(psi), m)
    lin = np.fft.irfft(np.abs(spectrum) ** 2, m)
    return float(weights[1:] @ (lin[1:dim] + lin[dim - 1:0:-1]))
