"""Exception hierarchy shared by all ptdeco modules."""


class PtDecoError(Exception):
    """Base class for all ptdeco errors."""


class DimensionMismatch(PtDecoError):
    """Operands have incompatible shapes."""


class DimensionCap(PtDecoError):
    """A requested matrix exceeds the configured dimension cap."""


class NotHermitian(PtDecoError):
    """A matrix required to be hermitian is not, within tolerance."""


class NegativeEigenvalue(PtDecoError):
    """A matrix required to be positive semidefinite has an eigenvalue below -tol."""


class NonDiagonalizable(PtDecoError):
    """Left/right eigenvector overlap collapsed; the matrix is at (or numerically
    indistinguishable from) an exceptional point."""


class DegenerateSpectrum(PtDecoError):
    """Two eigenvalues coincide; the biorthonormal construction assumes a
    non-degenerate spectrum."""


class NotPtSymmetric(PtDecoError):
    """The (H, P) pair fails a structural PT-symmetry requirement."""


class BrokenPhase(PtDecoError):
    """The spectrum contains complex-conjugate pairs (PT-broken phase)."""


class ExceptionalPoint(PtDecoError):
    """Eigenvalues and eigenvectors coalesce; no biorthonormal basis exists."""


class IllConditioned(PtDecoError):
    """The canonical transformation is too ill-conditioned to invert reliably
    (proximity to an exceptional point)."""


class NotDensityMatrix(PtDecoError):
    """A state fails hermiticity, positivity, or unit trace within tolerance."""


class QuadratureFailure(PtDecoError):
    """The a-priori error bound of gamma(t) exceeds the requested tolerance."""


class InvalidExponent(PtDecoError, ValueError):
    """Spectral-density exponent mu <= -1 makes the bath integral divergent."""


class LengthMismatch(PtDecoError):
    """Two sequences expected to align index-by-index have different lengths."""


class TruncationWarning(UserWarning):
    """Fock-space truncation discards more thermal population than the
    configured threshold. A ``UserWarning``: it reports a modelling choice,
    not a floating-point fault, so ``-W error::RuntimeWarning`` leaves it a
    warning."""
