"""SLCE binary sequences: construction, linear complexity, Jacobi-sum
divisibility tests, and closed-form divisibility predictors."""

__version__ = "0.1.0"
