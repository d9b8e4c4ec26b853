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
    """A solver backend missed its residual contract: a Krylov solve still
    missed after its last restart or met a breakdown, or the refinement of
    a public builder's operator missed its ``eps`` (out of its 4 solves, at
    a rounding floor or at a non-finite residual), raised from that
    refinement's :class:`IterationCapHit` or :class:`RoundingFloorHit`.

    Raised when an operator is applied.  It propagates from the operators of
    ``build_rcdd_solver``, ``build_sdd_solver`` and ``solve_from_scale``,
    from the refinement steps of ``symm_solve`` and ``factor_width2_solve``,
    from the one operator ``solve_m`` shares with the solves of Katz,
    Leontief and the kernel (with no fallback on either), and through the
    CLI (exit status 1).  Everywhere else a miss has one typed outcome: the
    shift-and-invert bracket counts it as a failed bracket, every halving
    scan, strict or not, as its ``"solver budget"`` failure, and the
    polish of a Perron pair ends with its last positive pair.  So
    ``m_decide``, ``mmatrix_scale``, ``symm_scale``,
    ``compute_perron`` and ``certify_spectral_bound`` never raise it.

    A Krylov solve's miss carries its last iterate ``x`` and that iterate's
    relative true residual ``relative``; every other miss carries ``None``
    in both.
    """

    def __init__(self, message, x=None, relative=None):
        self.x = x
        self.relative = relative
        super().__init__(message)


class IterationCapHit(PerronKitError):
    """An inner scaling or refinement loop exceeded its iteration cap or its
    residual ceiling, or left the positive finite range.

    Signals either that the shifted matrix is not an M-matrix or that the
    supplied conditioning bound ``K`` is too small, except for its subclass
    :class:`RoundingFloorHit`.  Raised by a fixed-shift entry point whose
    shift-and-invert bracket certifies ``rho(A)`` at or above its shift, the
    message then names that bound and ``phase`` and ``alpha`` are ``None``,
    and by an application whose certified decay has no checked scaling.
    """

    def __init__(self, message, phase=None, alpha=None):
        self.phase = phase
        self.alpha = alpha
        super().__init__(message)


class RoundingFloorHit(IterationCapHit):
    """A refinement cannot certify its residual: the rounding bound of the
    residual's own computation, in the widest precision at hand, leaves no
    room within ``eps ||b||``, or ``x`` carried in extended precision has a
    residual within that rounding while its rounding to double still
    misses.  Both grow with ``||x||``, which no conditioning bound ``K``
    changes, so no larger ``K`` repairs it."""


class NotIrreducible(PerronKitError):
    """The nonzero pattern of the matrix is not strongly connected."""


class KCapExceeded(PerronKitError):
    """The condition-number doubling loop cannot certify: its round
    precision ``delta / (8 K^2)`` fell below the float spacing
    (``np.finfo(float).eps``), where rounding alone exceeds it."""


class _CertifiedNegative(PerronKitError):
    """A negative answer with the certificate that proves it, when there is
    one: a :class:`PerronCertificate` whose better Collatz-Wielandt lower
    bound ``certificate.s`` reaches the bound, recomputable from its two
    vectors alone.  ``None`` where no single certificate applies."""

    def __init__(self, message, certificate=None):
        self.certificate = certificate
        super().__init__(message)


class DecayTooLarge(_CertifiedNegative):
    """The Katz decay parameter violates ``alpha * rho(A) < 1``;
    ``certificate`` is the certificate of ``alpha A`` that proves it,
    ``None`` when a strongly connected block of a reducible ``A`` does."""


class KernelDiverges(_CertifiedNegative):
    """The kernel decay violates ``lambda * rho(W) < 1``; the series diverges.
    ``certificate`` is the certificate of ``lambda W`` that proves it,
    ``None`` when a strongly connected block of a reducible product graph
    does."""


class ReducibleGram(PerronKitError):
    """The Gram matrix of the input is reducible; no Perron machinery applies."""


class NotSDDAfterScaling(PerronKitError):
    """A symmetric solve found no scaling ``v`` to solve with.

    Either the fallback's shift search ended with no ``v`` that makes ``V
    (I - A) V`` diagonally dominant (``rho(A)`` too close to 1, or ``I - A``
    numerically singular; for ``factor_width2_solve`` ``A`` is ``M``'s
    comparison matrix), or ``factor_width2_solve``'s ``V M V`` failed its
    SDD check, which disproves the caller's factor-width-2 assertion.
    """


class Singular(PerronKitError):
    """Dense elimination met a pivot below threshold."""


class NoConvergence(PerronKitError):
    """Dense power iteration failed to converge within its iteration guard."""


class BoundaryUndecidable(PerronKitError):
    """A spectral comparison sits too close to its threshold to certify either way."""
