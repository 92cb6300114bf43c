"""Exception types shared across the package.

Everything raised on bad input derives from QmError so callers (and the CLI)
can treat the whole family as "the input was wrong" without enumerating.
"""


class QmError(Exception):
    """Base class for every error this package raises deliberately."""


class NotSquare(QmError):
    """Matrix input is not square."""


class NotHermitian(QmError):
    """Matrix input fails the symmetry check M == M^dagger within tolerance."""


class NotNormalized(QmError):
    """State vector norm is not 1 within tolerance."""


class NotPositive(QmError):
    """Matrix has an eigenvalue below the negativity tolerance."""


class TraceNotOne(QmError):
    """Density matrix trace differs from 1 beyond tolerance."""


class BadWeights(QmError):
    """Mixture weights are negative, mismatched in length, or do not sum to 1."""


class DimMismatch(QmError):
    """Operands live on spaces of incompatible dimension."""


class NotCommuting(QmError):
    """A pair of observables fails the commutator check."""


class TooSmall(QmError):
    """Apparatus dimension cannot register the requested number of outcomes."""


class DegenerateSpectrum(QmError):
    """Measured observable has a repeated eigenvalue; only nondegenerate
    spectra can be copied onto a pointer, one outcome per basis direction."""


class NotInAlgebra(QmError):
    """Element is not block-constant on the joint eigenspaces, so it lies
    outside the generated commutative algebra."""


class BadAmplitudes(QmError):
    """Branch amplitudes do not satisfy |c1|^2 + |c2|^2 = 1."""


class ParseError(QmError):
    """Scenario document is structurally malformed."""


class ValidationError(QmError):
    """Scenario or matrix input is well-formed but violates an invariant."""


class NotOrthonormal(ValidationError):
    """Basis columns are not orthonormal within tolerance."""


class UnknownFormat(QmError):
    """Report format selector is not one of the supported names."""
