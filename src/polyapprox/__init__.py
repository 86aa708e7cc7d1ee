"""Explicit low-degree polynomial approximants for boolean functions, with
exact rational and certified dyadic float arithmetic."""

__version__ = "0.1.0"
