"""Finite-dimensional quantum measurement, two ways.

The package builds projective measurement twice over: once as the collapse
map that replaces a state by its diagonal in the measured eigenbasis, and
once with no collapse at all, by coupling the system unitarily to a pointer
apparatus and reading the composite through a commutative observable
algebra. Both routes are first-class, and the tooling exists to check,
mechanically and at tolerance, that they assign identical statistics to
every outcome.
"""

__version__ = "0.1.0"
