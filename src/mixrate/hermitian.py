"""Dense complex Hermitian linear algebra.

Eigendecomposition, the logarithm on the support through the spectrum and
the trace norm. The checks and decompositions take a matrix or a stack
(..., d, d) on one path.
Everything else in the package is built on these primitives.

The checks (finite entries, Hermiticity residual) run in require_hermitian
and the decompositions built on it: the boundary, where matrices are parsed,
sampled or passed in by a caller. Matrices the package builds from checked
inputs take the interior path, with no test: `_eigh` and `_eigvalsh` hand a
matrix that its formula makes Hermitian bit for bit straight to LAPACK, and
`hermitian_part` first absorbs the rounding of a product.

Matrices are plain ``numpy.ndarray`` of complex128. All operations are pure.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import Fault, InputError

HERM_TOL = 1e-10
RANK_TOL = 1e-12  # eigenvalues λ ≤ RANK_TOL·λ_max are the kernel


class EigenDecomposition(NamedTuple):
    """Eigenvalues (ascending, real) and a unitary whose columns are eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def frobenius(M) -> float:
    return float(np.linalg.norm(np.asarray(M)))


def hermitian_part(M: np.ndarray, out=None) -> np.ndarray:
    """(M + M†)/2 of a matrix or of each matrix of a stack (..., d, d) —
    absorbs roundoff from arithmetic on Hermitian data. One buffer: out, or
    a new C-ordered array of M's float or complex type."""
    if out is None:  # C-ordered; ufunc order="C" would write a given out strided
        out = np.empty(M.shape, np.result_type(M, 2.0))
    B = np.conjugate(M.swapaxes(-1, -2), out=out)
    # M first, as in M + M†, so that a sum of two NaNs keeps the same one; an
    # input that is the output would keep the other at a single element.
    np.add(M, B if B.size > 1 else B.copy(), out=B)
    B /= 2
    return B


def require_hermitian(M) -> np.ndarray:
    """Validate ‖M − M†‖_F ≤ HERM_TOL·max(1, ‖M‖_F) for a matrix or for every
    matrix of a stack (..., d, d); return the symmetrized (M + M†)/2.

    One residual pass settles the usual case. The residuals D = M − M† of the
    whole stack have ‖D‖_F ≥ ‖D_b‖_F for every matrix b, so ‖D‖_F ≤ HERM_TOL/2
    passes them all; the half leaves room for the rounding of both norms.
    Only a larger ‖D‖_F runs the per-matrix test.
    """
    A = np.asarray(M, dtype=complex)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise InputError(f"expected square matrices, got shape {A.shape}")
    # Before any arithmetic, which would warn on an infinite entry.
    if not np.isfinite(A).all():
        raise InputError("matrix has non-finite entries")
    # One buffer B, first A − A† and then hermitian_part(A) in place, and
    # norms through einsum: numpy.linalg.norm would hold more arrays of A's
    # size (0.46 MB for 7 matrices at d = 64) at once.
    B = A.swapaxes(-1, -2).conj()
    np.subtract(A, B, out=B)
    D = B.ravel("K")  # a view: B is dense in its own axis order
    # `not <=`, so that a NaN sum takes the per-matrix test.
    if not np.vdot(D, D).real <= (HERM_TOL / 2) ** 2:
        dev = _frobenius_stack(B)
        # dev <= HERM_TOL passes whatever ||A||_F is, so the norms of A are
        # only needed when some residual exceeds it.
        if (dev > HERM_TOL).any() and (dev > HERM_TOL * np.maximum(1.0, _frobenius_stack(A))).any():
            raise InputError(f"Hermiticity residual {dev.max():.3e} exceeds tolerance")
    return hermitian_part(A, out=B)


def _frobenius_stack(A: np.ndarray) -> np.ndarray:
    """‖M‖_F of every matrix M of a stack (..., d, d)."""
    sq = np.einsum("...ij,...ij->...", A.real, A.real)
    return np.sqrt(sq + np.einsum("...ij,...ij->...", A.imag, A.imag))


def _lapack(f, A: np.ndarray):
    """f(A) for a LAPACK-backed numpy.linalg routine f; non-convergence is typed."""
    try:
        return f(A)
    except np.linalg.LinAlgError as exc:
        raise Fault(str(exc)) from exc


def eig_hermitian(M) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix, eigenvalues ascending;
    of a stack (..., d, d), of every matrix in one LAPACK dispatch.

    Satisfies ‖M − V diag(λ) V†‖_F ≤ 1e-10·max(1, ‖M‖_F) and
    ‖V†V − I‖_F ≤ 1e-10.
    """
    return _eigh(require_hermitian(M))


def eigvals_hermitian(M) -> np.ndarray:
    """The eigenvalues (..., d), ascending, of eig_hermitian(M)."""
    return _eigvalsh(require_hermitian(M))


def _eigh(A: np.ndarray) -> EigenDecomposition:
    """eig_hermitian of a complex matrix or stack A that is Hermitian bit for
    bit (built so from checked inputs, or by hermitian_part), unchecked."""
    return EigenDecomposition(*_lapack(np.linalg.eigh, A))


def _eigvalsh(A: np.ndarray) -> np.ndarray:
    """The eigenvalues of _eigh(A)."""
    return _lapack(np.linalg.eigvalsh, A)


def reconstruct(w: np.ndarray, V: np.ndarray) -> np.ndarray:
    """V diag(w) V† without forming the diagonal matrix; for stacks w (..., d)
    and V (..., d, d), the stack of them."""
    return (V * w[..., None, :]) @ V.conj().swapaxes(-1, -2)


def support_log(M) -> np.ndarray:
    """ln of a PSD matrix, or of each of a stack, on its support; zero on the kernel.

    Eigenvalues λ ≤ RANK_TOL·λ_max are kernel, and one below −RANK_TOL·λ_max is
    refused: M may be any PSD matrix, not only a state, so this is stricter than a
    state check's −PSD_TOL (a parsed state's floored matrix passes).
    """
    eig = eig_hermitian(M)
    w = eig.eigenvalues
    if (w < -RANK_TOL * w[..., -1:]).any():
        raise InputError(f"matrix has a negative eigenvalue {w.min():.3e}")
    return log_on_support(eig)[0]


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
