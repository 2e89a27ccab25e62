"""Exact calculator and verifier for RO(C2)-graded coefficient rings of Real
spectra, their local cohomology, and Anderson/Gorenstein duality."""

__version__ = "0.1.0"

from .grading import Degree, Window, ZERO, SIGMA, RHO, DELTA

__all__ = ["Degree", "Window", "ZERO", "SIGMA", "RHO", "DELTA"]
