"""Numerical laboratory for entropy mixing and entangling rates of quantum
state ensembles: exact spectral maximizers, finite-difference cross-checks,
dimension-independent bound checks, and conjecture-ratio exploration.
"""

__version__ = "0.1.0"
