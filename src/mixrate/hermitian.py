"""Dense complex Hermitian linear algebra.

Eigendecomposition, the logarithm on the support through the spectrum, the
trace norm, and a quadrature identity for the logarithm. The checks and
decompositions take a matrix or a stack (..., d, d) on one path.
Everything else in the package is built on these primitives.

Matrices are plain ``numpy.ndarray`` of complex128. All operations are pure.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimMismatch, DomainError, NoConvergence, NonHermitian

HERM_TOL = 1e-10
RANK_TOL = 1e-12  # eigenvalues λ ≤ RANK_TOL·λ_max are the kernel


class EigenDecomposition(NamedTuple):
    """Eigenvalues (ascending, real) and a unitary whose columns are eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def frobenius(M) -> float:
    return float(np.linalg.norm(np.asarray(M)))


def hermitian_part(M: np.ndarray) -> np.ndarray:
    """(M + M†)/2 of a matrix or of each matrix of a stack (..., d, d) —
    absorbs roundoff from arithmetic on Hermitian data."""
    return (M + M.conj().swapaxes(-1, -2)) / 2


def require_hermitian(M) -> np.ndarray:
    """Validate ‖M − M†‖_F ≤ HERM_TOL·max(1, ‖M‖_F) for a matrix or for every
    matrix of a stack (..., d, d); return the symmetrized (M + M†)/2."""
    A = np.asarray(M, dtype=complex)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise DimMismatch(f"expected square matrices, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise DomainError("matrix has non-finite entries")
    # One buffer B, first A† − A and then (A + A†)/2, and norms through einsum:
    # numpy.linalg.norm and hermitian_part would hold up to three more arrays
    # of A's size (0.46 MB for 7 matrices at d = 64) at once.
    B = A.swapaxes(-1, -2).conj()
    B -= A
    dev = _frobenius_stack(B)
    # dev <= HERM_TOL passes whatever ||A||_F is, so the norms of A are only
    # needed when some residual exceeds it.
    if (dev > HERM_TOL).any() and (dev > HERM_TOL * np.maximum(1.0, _frobenius_stack(A))).any():
        raise NonHermitian(f"Hermiticity residual {dev.max():.3e} exceeds tolerance")
    np.conjugate(A.swapaxes(-1, -2), out=B)
    B += A
    B /= 2
    return B


def _frobenius_stack(A: np.ndarray) -> np.ndarray:
    """‖M‖_F of every matrix M of a stack (..., d, d)."""
    sq = np.einsum("...ij,...ij->...", A.real, A.real)
    return np.sqrt(sq + np.einsum("...ij,...ij->...", A.imag, A.imag))


def _lapack(f, A: np.ndarray):
    """f(A) for a LAPACK-backed numpy.linalg routine f; non-convergence is typed."""
    try:
        return f(A)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def eig_hermitian(M) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix, eigenvalues ascending;
    of a stack (..., d, d), of every matrix in one LAPACK dispatch.

    Satisfies ‖M − V diag(λ) V†‖_F ≤ 1e-10·max(1, ‖M‖_F) and
    ‖V†V − I‖_F ≤ 1e-10.
    """
    return EigenDecomposition(*_lapack(np.linalg.eigh, require_hermitian(M)))


def eigvals_hermitian(M) -> np.ndarray:
    """The eigenvalues (..., d), ascending, of eig_hermitian(M)."""
    return _lapack(np.linalg.eigvalsh, require_hermitian(M))


def reconstruct(w: np.ndarray, V: np.ndarray) -> np.ndarray:
    """V diag(w) V† without forming the diagonal matrix; for stacks w (..., d)
    and V (..., d, d), the stack of them."""
    return (V * w[..., None, :]) @ V.conj().swapaxes(-1, -2)


def support_log(M) -> np.ndarray:
    """ln of a PSD matrix, or of each of a stack, on its support; zero on the kernel.

    Eigenvalues λ ≤ RANK_TOL·λ_max are treated as kernel. An eigenvalue below
    −RANK_TOL·λ_max means the input was not PSD.
    """
    eig = eig_hermitian(M)
    ln_M = log_on_support(eig)[0]
    w = eig.eigenvalues
    if (w < -RANK_TOL * w[..., -1:]).any():
        raise DomainError(f"matrix has a negative eigenvalue {w.min():.3e}")
    return ln_M


def log_on_support(eig: EigenDecomposition):
    """ln of a PSD matrix given by its spectrum, zero on the kernel; for a
    stack of spectra (..., d), (..., d, d), the stack of them.

    Eigenvalues λ ≤ RANK_TOL·λ_max are kernel. Returns (ln M, support mask).
    """
    w, V = eig
    supp = w > RANK_TOL * w[..., -1:]
    lw = np.zeros_like(w)
    np.log(w, out=lw, where=supp)
    return hermitian_part(reconstruct(lw, V)), supp


def trace_norm(M):
    """‖M‖₁ = Σ|λ_i| for Hermitian M; for a stack, the array of them."""
    n = np.abs(eigvals_hermitian(M)).sum(axis=-1)
    return float(n) if n.ndim == 0 else n


def log_integral_check(x: float, upper_cutoff: float, n_points: int) -> float:
    """Quadrature estimate of ∫₀^cutoff (1/(1+t) − 1/(x+t)) dt.

    The integral converges to ln x as cutoff → ∞. The half-line is mapped to
    (0, 1) via t = u/(1−u) and integrated by the composite midpoint rule, so
    the truncation at `upper_cutoff` is the only systematic error for large
    `n_points`.
    """
    if x <= 0:
        raise DomainError("log integral requires x > 0")
    if upper_cutoff <= 0 or n_points < 1:
        raise DomainError("cutoff and n_points must be positive")
    u_max = upper_cutoff / (1.0 + upper_cutoff)
    h = u_max / n_points
    u = (np.arange(n_points) + 0.5) * h
    t = u / (1.0 - u)
    g = (1.0 / (1.0 + t) - 1.0 / (x + t)) / (1.0 - u) ** 2
    return float(np.sum(g) * h)
