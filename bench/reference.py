"""Plain-numpy reference values the benchmark checks the program against.

These restate the paper's formulas directly and share no code with mixrate:

    max_rate(E)  = sum_x p_x ||[rho_x, ln rho]||_1
    rate(E, H)   = i sum_x p_x Tr(H_x [rho_x, ln rho])
    Gamma(Psi,H) = i Tr((I_a ⊗ H) [rho_aAB, ln rho_aA ⊗ I_B])

with ln taken on the support of its argument.
"""

from __future__ import annotations

import math

import numpy as np

RANK_TOL = 1e-12


def support_log(rho: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(rho)
    lw = np.zeros_like(w)
    supp = w > RANK_TOL * w[-1]
    lw[supp] = np.log(w[supp])
    return (V * lw) @ V.conj().T


def _commutators(probs, states):
    rho = sum(p * s for p, s in zip(probs, states))
    L = support_log(rho)
    return [s @ L - L @ s for s in states]


def max_rate_terms(probs, states) -> list[float]:
    """p_x ||[rho_x, ln rho]||_1 for each member x."""
    out = []
    for p, C in zip(probs, _commutators(probs, states)):
        A = 1j * C
        out.append(float(p) * float(np.sum(np.abs(np.linalg.eigvalsh((A + A.conj().T) / 2)))))
    return out


def mixing_rate(probs, states, hams) -> float:
    total = sum(p * np.trace(h @ C) for p, h, C in zip(probs, hams, _commutators(probs, states)))
    return float((1j * total).real)


def entangling_rate(amplitudes: np.ndarray, dims, H: np.ndarray) -> float:
    d_a, d_A, d_B, d_b = dims
    psi = amplitudes.reshape(d_a * d_A * d_B, d_b)
    rho_aAB = psi @ psi.conj().T
    n = d_a * d_A
    rho_aA = np.einsum("ibjb->ij", rho_aAB.reshape(n, d_B, n, d_B))
    L = np.kron(support_log(rho_aA), np.eye(d_B))
    H_lift = np.kron(np.eye(d_a), H)
    return float((1j * np.trace(H_lift @ (rho_aAB @ L - L @ rho_aAB))).real)


def binary_bound(p: float) -> float:
    return 4.0 * math.sqrt(p * (1.0 - p))


def binary_entropy(p: float) -> float:
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def abs_err(got: float, want: float) -> float:
    """Error scaled by max(1, |want|), so large rates are compared relatively."""
    return abs(got - want) / max(1.0, abs(want))
