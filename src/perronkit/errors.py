"""Exception hierarchy.

Plain misuse (wrong shapes, nonpositive tolerances, malformed vectors) raises
``ValueError``.  The classes below are *domain signals*: outcomes that callers
are expected to catch and act on, such as a refuted structural assumption or
an exhausted iteration budget.
"""


class PerronKitError(Exception):
    """Base class for all domain-level errors raised by this package."""


class MatrixMarketParseError(PerronKitError):
    """Malformed Matrix Market input; carries the 1-based offending line."""

    def __init__(self, message, line_number=None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class NotRCDD(PerronKitError):
    """The matrix handed to an RCDD solver is not row-column diagonally dominant."""


class NotSDD(PerronKitError):
    """The matrix handed to an SDD solver is not symmetric diagonally dominant."""


class BackendDiverged(PerronKitError):
    """A solver backend missed its residual contract: an iterative backend hit
    its iteration cap, or the direct backend's refined residual stayed above
    its tolerance.

    Raised when an operator is applied.  It propagates through ``solve_m``,
    the applications and the CLI (exit status 1); the decision procedure runs
    no RCDD backend, so it never produces this error.
    """


class IterationCapHit(PerronKitError):
    """An inner scaling loop exceeded its iteration cap.

    Signals either that the shifted matrix is not an M-matrix or that the
    supplied conditioning bound ``K`` is too small.
    """

    def __init__(self, message, phase=None, alpha=None):
        self.phase = phase
        self.alpha = alpha
        super().__init__(message)


class NotIrreducible(PerronKitError):
    """The nonzero pattern of the matrix is not strongly connected."""


class KCapExceeded(PerronKitError):
    """The condition-number doubling loop cannot certify: its round
    precision ``delta / (8 K^2)`` fell below the float spacing
    (``np.finfo(float).eps``), where rounding alone exceeds it."""


class DecayTooLarge(PerronKitError):
    """The Katz decay parameter violates ``alpha * rho(A) < 1``."""


class KernelDiverges(PerronKitError):
    """The kernel decay violates ``lambda * rho(W) < 1``; the series diverges."""


class ReducibleGram(PerronKitError):
    """The Gram matrix of the input is reducible; no Perron machinery applies."""


class NotSDDAfterScaling(PerronKitError):
    """Symmetric scaling failed to make ``V M V`` diagonally dominant.

    Disproves the caller's factor-width-2 assertion (or the comparison matrix
    is too close to singular for the requested shift).
    """


class Singular(PerronKitError):
    """Dense elimination met a pivot below threshold."""


class NoConvergence(PerronKitError):
    """Dense power iteration failed to converge within its iteration guard."""


class BoundaryUndecidable(PerronKitError):
    """A spectral comparison sits too close to its threshold to certify either way."""
