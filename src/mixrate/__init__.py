"""Numerical laboratory for entropy mixing and entangling rates of quantum
state ensembles: exact spectral maximizers, finite-difference cross-checks,
dimension-independent bound checks, and conjecture-ratio exploration.
"""

from .ensembles import (
    DensityMatrix,
    Ensemble,
    Hamiltonian,
    HamiltonianSet,
    average_entropy,
    binary_entropy,
    parse_ensemble,
    parse_hamiltonian_set,
    serialize_ensemble,
    serialize_hamiltonian_set,
    shannon_entropy,
    von_neumann_entropy,
)
from .entangling import (
    BipartiteOperator,
    PureState,
    bravyi_mu,
    entangling_rate,
    partial_trace,
    sie_to_sim,
    ste_check,
)
from .harness import (
    ExperimentConfig,
    RNGSpec,
    TrialRecord,
    run_trials,
    sample_ensemble,
    sample_hamiltonian,
    scan_binary,
    search_ratio,
)
from .hermitian import (
    EigenDecomposition,
    commutator,
    eig_hermitian,
    log_integral_check,
    support_log,
    trace_norm,
)
from .rates import (
    RateReport,
    ak_gap,
    binary_max_rate,
    bound_theorem_binary,
    bound_theorem_general,
    max_mixing_rate,
    mixing_rate,
    optimal_hamiltonians,
    rate_report,
)

__version__ = "0.1.0"
