"""M-matrix decision, eigenvalue search, and certified Perron computation.

The M-matrix decision asks the scaling module's Collatz-Wielandt bracket
first: its verdicts hold for any conditioning budget, a positive one with
the bracket's checked pair as its scaling and a negative one with the
certificate of that pair.  When the bracket settles nothing the decision
runs the same halving scan as the scaling module but treats every
convergence guarantee as a falsifiable check: an iteration cap, a
nonpositive scaling iterate, a violated exit window, or a blown solver
budget each yield a concrete witness that the tested matrix is not an
M-matrix (given a valid conditioning budget; below one a witness may only
mean the budget was too small), and a binary search over shifts built on the
scan's decision brackets the spectral radius.

The Perron routines bracket the spectral radius by Collatz-Wielandt bounds
sharpened with power steps and then shift-and-invert (inverse iteration
shifted just above the best upper bound), a bracket that is sound for any
conditioning.  One
doubling loop over the conditioning guess (``_perron_rounds``) turns
positive approximate eigenvectors into a Collatz-Wielandt-certified
eigenvalue estimate, one candidate per round: the bracket's own iterates,
continued to a finer precision each round, and only once it has failed, or
can make no new iterates (its next step moves no bound), the polished
pair of a scaling scan at the round's upper estimate.  Deciding ``rho(A) <
bound`` needs no eigenvectors: the bracket alone settles it unless it fails
or ``rho(A)`` sits at the bound, and a failed bracket hands the decision to
the same round loop.
Every certificate comes from one builder, so its CW sandwich is exactly
:func:`collatz_wielandt_bounds` of its right vector, and every verdict can
be re-checked from its two vectors alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    BackendDiverged,
    BoundaryUndecidable,
    IterationCapHit,
    KCapExceeded,
    NotIrreducible,
)
from .reports import SolveReport
from .scaling import (
    _CW_SOLVE_TOL,
    ScalingPair,
    _CWBracket,
    _PhaseSolver,
    _Problem,
    _ScanFailure,
    _cw_bounds,
    _cw_margin,
    _cw_ratio_bounds,
    _halving_scan,
    _mmatrix_scale,
    _settles,
)
from .sparse import (
    SparseMatrix,
    _check_open_unit,
    _check_square_nonnegative,
    as_vector,
    induced_norms,
    is_irreducible,
)

__all__ = [
    "Verdict",
    "DecisionOutcome",
    "PerronCertificate",
    "m_decide",
    "find_perron_value",
    "simple_perron",
    "compute_perron",
    "collatz_wielandt_bounds",
    "certify_spectral_bound",
]

class Verdict(Enum):
    IS_M_MATRIX_SHIFTED = "is_m_matrix_shifted"
    NOT_M_MATRIX = "not_m_matrix"


@dataclass(frozen=True)
class DecisionOutcome:
    """Result of the M-matrix decision.

    A positive verdict carries a scaling certifying ``(1+eps) I - A`` RCDD
    and a report: the scan's, or on the bracket path one with no phases,
    either counting the bracket's shift-and-invert steps in
    ``info["bracket_steps"]`` and its power steps in
    ``info["power_steps"]``.  A negative verdict carries a witness and no
    report.  A bracket negative also carries ``certificate``, the
    :class:`PerronCertificate` whose better CW lower bound ``s``,
    recomputable from its two vectors, reaches ``1 + eps``: it holds for
    any ``gamma`` (see :func:`m_decide`).
    """

    verdict: Verdict
    scaling: ScalingPair | None = None
    witness: str | None = None
    report: SolveReport | None = None
    certificate: PerronCertificate | None = None

    def __post_init__(self):
        if self.verdict is Verdict.IS_M_MATRIX_SHIFTED and self.scaling is None:
            raise ValueError("positive verdict requires a scaling")
        if self.verdict is Verdict.NOT_M_MATRIX and self.witness is None:
            raise ValueError("negative verdict requires a witness")

    @property
    def is_m_matrix(self) -> bool:
        return self.verdict is Verdict.IS_M_MATRIX_SHIFTED


@dataclass(frozen=True)
class PerronCertificate:
    """Certified approximate Perron data.

    ``s`` is the eigenvalue estimate: the better of the two vectors'
    Collatz-Wielandt lower bounds, so ``s <= rho(A)``, when the certificate
    comes from :func:`compute_perron` or :func:`certify_spectral_bound`.
    ``cw_lower``/``cw_upper`` are the Collatz-Wielandt sandwich of the
    spectral radius computed from the right vector, ``k_final`` the
    conditioning guess ``K`` of the round that produced it for any
    :func:`compute_perron` certificate, bracket pair or scaled pair alike
    (1 for :func:`certify_spectral_bound`'s bracket certificate, which needs
    none), and the residual fields the relative sup-norm eigen-residuals of
    each vector at ``s``.  :func:`simple_perron` returns its upper estimate
    as ``s`` and its scaling pair as vectors.
    """

    s: float
    left: np.ndarray
    right: np.ndarray
    k_final: float
    residual_left: float
    residual_right: float
    cw_lower: float
    cw_upper: float

    def __post_init__(self):
        object.__setattr__(self, "left", as_vector(self.left, name="left"))
        object.__setattr__(self, "right", as_vector(self.right, name="right"))
        if self.s <= 0.0:
            raise ValueError("eigenvalue estimate must be positive")
        if np.any(self.left <= 0.0) or np.any(self.right <= 0.0):
            raise ValueError("certificate vectors must be strictly positive")
        if self.cw_lower > self.cw_upper * (1.0 + 1e-15):
            raise ValueError("Collatz-Wielandt bounds out of order")


def collatz_wielandt_bounds(A: SparseMatrix, x) -> tuple[float, float]:
    """``(min_i (Ax)_i / x_i, max_i (Ax)_i / x_i)`` for positive ``x``.

    For nonnegative ``A`` the pair always sandwiches the spectral radius.
    """
    _check_square_nonnegative(A)
    x = as_vector(x, A.n_rows, "x")
    if np.any(x <= 0.0):
        raise ValueError("probe vector must be strictly positive")
    return _cw_bounds(A, x)


def _structure_check(A: SparseMatrix):
    _check_square_nonnegative(A)
    if not is_irreducible(A):
        raise NotIrreducible("nonzero pattern is not strongly connected")


_WITNESS_TEXT = {
    "cw lower bound": "Collatz-Wielandt lower bound reached 1 + eps",
    "iteration cap": "inner loop exceeded its iteration cap",
    "residual ceiling": "inner residual passed its ceiling or went non-finite",
    "nonpositive scaling": "scaling iterate had a nonpositive entry",
    "window violation": "phase exit window (1/2, 3/2) violated",
    "solver budget": "scaled-system conditioning exceeded the solver budget",
    "final verification": "final scaling failed RCDD verification",
}


def _m_decide_scaled(
    A: SparseMatrix, denom: float, eps: float, gamma: float
) -> DecisionOutcome:
    """Decision for ``I - A/denom``; assumes structure already checked."""
    cap = math.ceil(8.0 * math.log(64.0 * A.n_rows * gamma * gamma))
    budget = 18.0 * gamma * gamma * (1.0 + 1e-6)
    try:
        _, scaling, report = _halving_scan(_Problem(A, denom), eps, gamma, cap, budget)
    except _ScanFailure as fail:
        witness = f"{_WITNESS_TEXT[fail.witness]} at phase {fail.phase} (alpha={fail.alpha:.6e})"
        return DecisionOutcome(Verdict.NOT_M_MATRIX, witness=witness)
    return DecisionOutcome(Verdict.IS_M_MATRIX_SHIFTED, scaling=scaling, report=report)


def m_decide(A: SparseMatrix, eps: float, gamma: float) -> DecisionOutcome:
    """Decide whether ``I - A`` is an (invertible) M-matrix.

    Either returns a scaling certifying that ``(1 + eps) I - A`` is an
    M-matrix, or a witness of non-membership.  The answer about the
    unshifted ``I - A`` is one-sided: a positive verdict proves
    ``rho(A) < 1 + eps`` for any positive ``gamma``, since it carries the
    checked scaling.

    The shift-and-invert bracket decides first, at ``1 + eps``, and needs
    no ``gamma``: a True verdict's pair, checked RCDD, is the positive
    verdict's scaling (``alpha = eps``), and a False one is the negative
    verdict with the witness ``"Collatz-Wielandt lower bound reached 1 +
    eps"`` and the certificate of the bracket's pair, which proves
    ``rho(A) >= 1 + eps`` for any ``gamma``.  A bracket that fails (its
    step budget, a nonpositive iterate, a solve that misses) or whose
    bounds meet within rounding of ``1 + eps`` hands the question to the
    halving scan, and only the scan's negative verdicts depend on
    ``gamma``.

    ``gamma`` budgets the scan's conditioning: it is valid, and the
    scan's positive side complete, when
    ``gamma >= max(||(I - A)^-1||_inf, ||(I - A)^-1||_1)``.  A scan witness
    proves ``rho(A) >= 1`` only for a valid ``gamma``; below that the
    ``"solver budget"``, ``"iteration cap"`` and ``"residual ceiling"`` ones
    in particular can mean only that ``gamma`` was too small.  Above the
    dense cutoff the scan's phase solves are iterative, to relative residual
    ``1 / (8 gamma)``; one that misses it ends the scan with the
    ``"solver budget"`` witness, never ``"iteration cap"``.  A final pair
    that fails the RCDD check is a witness too, given like the others with
    its phase and shift.  The scan's witnesses carry no certificate.
    """
    _structure_check(A)
    if not (0.0 < eps < math.inf and 0.0 < gamma < math.inf):
        raise ValueError("eps and gamma must be positive")
    bracket = _CWBracket(A)
    found = bracket.checked_pair(1.0, eps)
    if found is False:
        return DecisionOutcome(
            Verdict.NOT_M_MATRIX,
            witness=_WITNESS_TEXT["cw lower bound"],
            certificate=_bracket_certificate(bracket, 1.0),
        )
    if found is None:
        outcome = _m_decide_scaled(A, 1.0, eps, gamma)
    else:
        outcome = DecisionOutcome(
            Verdict.IS_M_MATRIX_SHIFTED, scaling=found[1], report=SolveReport()
        )
    if outcome.report is not None:
        outcome.report.info.update(bracket.step_counts)
    return outcome


def find_perron_value(A: SparseMatrix, s1: float, s2: float, eps: float, K: float):
    """Bracket the spectral radius by bisection over the decision procedure.

    Requires ``0 <= s1 < rho(A) <= s2`` and ``eps in (0, 1/2)``; returns
    ``(s, report)`` with ``rho(A) <= s < (1 + eps) rho(A)`` whenever ``K``
    dominates the eigenvector condition numbers.  The upper endpoint moves to
    ``(1 + delta) s_m`` on a positive decision, which is exactly what the
    returned scaling certifies, so ``s`` bounds ``rho(A)`` from above for
    any ``K``; the lower endpoint only moves on negative decisions, which
    prove ``rho(A) >= s_m`` only when ``K`` is large enough.

    An ``eps`` below the spacing of floats at ``rho(A)`` (relative
    ``2**-52``) cannot be met: the bisection stops once rounding leaves it
    no progress, when no float lies strictly between ``s1`` and ``s2`` or a
    positive decision would not lower ``s2``, and returns ``s2``, still the
    certified upper end, within a few ulps of ``s1``.
    """
    _structure_check(A)
    if not (0.0 <= s1 < s2):
        raise ValueError("need 0 <= s1 < s2")
    if not (0.0 < eps < 0.5):
        raise ValueError("eps must lie in (0, 1/2)")
    if not 0.0 < K < math.inf:
        raise ValueError("K must be positive")
    return _perron_bisection(A, s1, s2, eps, K)


def _perron_bisection(A: SparseMatrix, s1: float, s2: float, eps: float, K: float):
    """:func:`find_perron_value` on arguments already checked, the structure
    of ``A`` included: the bisection of :func:`simple_perron` and of every
    round of ``_perron_rounds``, whose callers checked them once."""
    report = SolveReport(info={"steps": []})
    while (1.0 + eps / 2.0) * s1 < s2:
        s_m = 0.5 * (s1 + s2)
        if not s1 < s_m < s2:
            break  # adjacent floats: s_m rounds to an endpoint
        delta = 0.5 * (s2 - s1) / (s2 + s1)
        outcome = _m_decide_scaled(A, s_m * (1.0 + delta / 2.0), delta / 3.0, 2.0 * K / delta)
        report.info["steps"].append((s1, s2, s_m, delta, outcome.verdict.value))
        report.iterations += 1
        if outcome.is_m_matrix:
            if (1.0 + delta) * s_m >= s2:
                break  # a few floats apart, (1 + delta) s_m rounds up to s2
            s2 = (1.0 + delta) * s_m
        else:
            s1 = s_m
    return s2, report


def simple_perron(A: SparseMatrix, eps: float, K: float) -> PerronCertificate:
    """Approximate Perron value and eigenvector pair for a known ``K``.

    Finds ``s`` with ``rho(A) <= s < (1 + eps) rho(A)`` by the
    Collatz-Wielandt shift-and-invert bracket (by :func:`find_perron_value`
    from ``(0, ||A||_inf]`` should that fail) and scales
    ``(1 + eps/3) I - A / ((1 + eps/2) s)`` to produce positive approximate
    eigenvectors; with a valid ``K`` the relative sup-norm eigen-residual at
    ``s`` is at most ``8 eps``.  The scan stays even when the bracket works:
    the bracket ties only its best upper bound to its best lower bound, so
    the residual of a side that lags is bounded by no ``K``.
    """
    _structure_check(A)
    if not (0.0 < eps < 0.25):
        raise ValueError("eps must lie in (0, 1/4)")
    if not 0.0 < K < math.inf:
        raise ValueError("K must be positive")
    s = _CWBracket(A).upper(eps)
    if s is None:
        s, _ = _perron_bisection(A, 0.0, induced_norms(A).norm_inf, eps, K)
    _, pair, _ = _mmatrix_scale(A, s * (1.0 + eps / 2.0), eps / 3.0, 2.0 * K / eps)
    return _certificate(A, pair.left, pair.right, K, s=s)


def _relative_residual(x: np.ndarray, Ax: np.ndarray, s: float) -> float:
    """Relative sup-norm eigen-residual ``||x - Ax / s|| / ||x||`` of ``x`` at
    ``s``, given the product ``Ax``."""
    return float(np.abs(x - Ax / s).max() / np.abs(x).max())


def _certificate(
    A: SparseMatrix, left, right, k_final: float, s: float | None = None, measured=None
):
    """The :class:`PerronCertificate` of a positive pair: the right vector's
    CW sandwich and both eigen-residuals at ``s``, by default the better of
    the two vectors' CW lower bounds (so ``s <= rho(A)``).  ``None`` when
    that default is not positive, which only underflow makes it.  Each
    vector's product and CW bounds are formed once and serve the
    certificate's bounds and residual: ``measured``, ``(A right, A.T left,
    right CW bounds, left CW bounds)``, when the caller has them
    (:func:`_bracket_certificate`), else computed."""
    if measured is None:
        Ar, Atl = A._product(right), A._product(left, transpose=True)
        measured = Ar, Atl, _cw_ratio_bounds(Ar, right), _cw_ratio_bounds(Atl, left)
    Ar, Atl, (cw_lower, cw_upper), cw_left = measured
    if s is None:
        s = max(cw_lower, cw_left[0])
        if not s > 0.0:
            return None
    return PerronCertificate(
        s=s,
        left=left,
        right=right,
        k_final=k_final,
        residual_left=_relative_residual(left, Atl, s),
        residual_right=_relative_residual(right, Ar, s),
        cw_lower=cw_lower,
        cw_upper=cw_upper,
    )


def _bracket_certificate(bracket: _CWBracket, k_final: float):
    """The :func:`_certificate` of ``bracket``'s current iterates, on its
    ``A``, with the products and CW bounds it formed for them:
    ``bracket.products`` holds the iterates and their products together, and
    ``cw_right`` and ``cw_left`` those products' bounds, so nothing is
    recomputed."""
    right, left, Ar, Atl = bracket.products
    measured = Ar, Atl, bracket.cw_right, bracket.cw_left
    return _certificate(bracket.A, left, right, k_final, measured=measured)


# the most extra bracket steps one round of _perron_rounds takes for a pair
# its caller's lags rejects
_LAG_STEPS = 3


def _perron_rounds(A: SparseMatrix, delta: float, bracket: _CWBracket, lags=None):
    """The doubling loop over the conditioning guess ``K`` = 1, 2, 4, ...:
    one ``(K, s_upper, cert)`` per round, ``s_upper`` bounding ``rho(A)``
    from above to precision ``eps = delta / (8 K^2)``.  While ``bracket``
    works it gives ``s_upper``, and ``cert`` certifies its iterates, after
    up to ``_LAG_STEPS`` more bracket steps (:meth:`_CWBracket.step`) while
    the caller's ``lags(cert, K, s_upper)`` holds; a resumed loop doubles
    ``K`` and continues the bracket to ``eps / 4``.  A bracket that meets
    ``eps`` with no step of any kind since its last offer would re-offer
    rejected iterates (one side's CW lower bound lags the other's), so it
    takes one step first and offers those iterates; with a held LU that
    step is a cheap re-solve.  When that step fails or moves no CW bound
    (the bracket has converged as far as rounding lets it), and when the
    bracket has failed, ``cert`` certifies the polished pair of a scaling
    at ``s_upper (1 + eps/2)``, ``None`` when the scan fails (``K`` too
    small) or the certificate underflows, and once the bracket has failed
    ``s_upper``
    comes from the bisection, started at its CW lower bound less the
    rounding margin, later at the last bisection's upper end.  From the
    second round on, a precision below the float spacing raises
    :class:`KCapExceeded`: no later round can certify where rounding alone
    exceeds it, so the loop always ends."""
    s2 = None  # the last bisection's upper end, a bound on rho(A) for any K
    offered = None  # the bracket's step count when its iterates were offered
    K = 1.0
    while True:
        eps = delta / (8.0 * K * K)
        if K > 1.0 and eps < np.finfo(float).eps:
            raise KCapExceeded(
                f"round precision delta / (8 K^2) = {eps:.3e} at K = {K:g} is "
                "below the float spacing; no later round can certify"
            )
        s = bracket.upper(eps)
        # a bracket that met eps with no step steps once, to offer new iterates
        if s is not None and (bracket.steps != offered or bracket.step()):
            cert = _bracket_certificate(bracket, K)
            for _ in range(_LAG_STEPS):
                if lags is None or not lags(cert, K, s) or not bracket.step():
                    break
                cert = _bracket_certificate(bracket, K)
        else:
            if s is None:
                # the CW lower bound holds for any K, less its rounding margin
                s1 = max(0.0, bracket.lower * (1.0 - _cw_margin(A.n_rows)))
                s, _ = _perron_bisection(A, s1, s2 or induced_norms(A).norm_inf, eps, K)
                s2 = s
            try:
                S, pair, _ = _mmatrix_scale(A, s * (1.0 + eps / 2.0), eps / 3.0, 2.0 * K / eps)
            except IterationCapHit:
                cert = None
            else:
                cert = _certificate(A, *_polish_pair(S, pair), K)
        offered = bracket.steps
        yield K, s, cert
        K *= 2.0


def compute_perron(A: SparseMatrix, delta: float) -> PerronCertificate:
    """Certified Perron estimate: ``(1 - delta) rho(A) < s <= rho(A)``.

    Doubles a conditioning guess ``K`` from 1.  Each round computes an upper
    estimate to precision ``delta / (8 K^2)`` and offers one pair: the
    shift-and-invert bracket's own right and left iterates, the next round
    continuing that bracket.  A pair that fails any acceptance test gets up
    to three more bracket steps in the same round, since re-solves stop the
    bracket just past the round's precision rather than orders of magnitude
    past it; a round whose bracket meets the precision with no step takes
    one step to offer new iterates.  Only when the bracket fails, or that
    step moves no bound, does a round offer the polished pair of a scaling
    at its estimate, as :func:`simple_perron` scales.  A pair is
    accepted when its vectors are
    ``delta / (2 K^2)``-approximate eigenvectors of the certified lower bound
    ``s`` (the better of the two Collatz-Wielandt lower bounds, hence
    ``s <= rho(A)``) and at least one side certifies ``(1 - delta)`` of the
    upper estimate.  Raises :class:`KCapExceeded` once a round's precision
    falls below the float spacing, where no round can certify.
    """
    return _compute_perron(A, delta)


def _compute_perron(A: SparseMatrix, delta: float, *, symmetric: bool = False):
    """:func:`compute_perron`, its checks and acceptance test included;
    ``symmetric`` runs its rounds on the one-sided bracket (see
    :class:`scaling._CWBracket`), which solves for no left iterate, for a
    caller whose ``A`` is symmetric by construction.  The acceptance test
    recomputes nothing from the bracket's shortcut: the left CW bounds and
    residual still come from ``A.T``, so a certificate holds whatever ``A``
    is."""
    _structure_check(A)
    _check_open_unit(delta, "delta")

    def accepted(cert, K, s_upper):
        return _near(cert, K, s_upper, delta) and cert.cw_lower >= (1.0 - delta) * cert.s

    def lags(cert, K, s_upper):
        return cert is not None and not accepted(cert, K, s_upper)

    for K, s_upper, cert in _perron_rounds(A, delta, _CWBracket(A, symmetric=symmetric), lags):
        if accepted(cert, K, s_upper):
            return cert


def _near(cert, K: float, s_upper: float, delta: float) -> bool:
    """:func:`compute_perron`'s acceptance tests of a round's ``cert`` but
    the right vector's CW lower bound: both residuals within ``delta / (2
    K^2)`` and ``s`` within ``(1 - delta)`` of the upper estimate."""
    threshold = delta / (2.0 * K * K)
    return (
        cert is not None
        and cert.residual_right <= threshold
        and cert.residual_left <= threshold
        and cert.s >= (1.0 - delta) * s_upper
    )


def _polish_pair(S, pair):
    """Sharpen the scaling vectors toward the Perron directions with a few
    extra inverse applications of ``S``, the matrix the scan checked the
    pair RCDD on; each application damps the non-Perron components by
    roughly the shift-to-gap ratio.  Ends with the last positive pair if a
    solve ever leaves the positive cone or misses its tolerance
    (:class:`BackendDiverged`), so a miss never escapes."""
    solver = _PhaseSolver(S, pair.left, pair.right, tol=_CW_SOLVE_TOL)
    left, right = pair.left, pair.right
    for _ in range(3):
        try:
            right_next = solver.p_right(right / np.abs(right).max())
            left_next = solver.p_left(left / np.abs(left).max())
        except BackendDiverged:
            break
        if not all(np.all(np.isfinite(v) & (v > 0.0)) for v in (right_next, left_next)):
            break
        right, left = right_next, left_next
    return left, right


def certify_spectral_bound(B: SparseMatrix, bound: float = 1.0) -> tuple[bool, PerronCertificate]:
    """Decide ``rho(B) < bound`` with a certificate.

    Continues one Collatz-Wielandt shift-and-invert bracket until its bounds
    settle the question, which needs no scaling scan: True once the CW upper
    bounds of both the right and the left iterate lie below ``bound``, False
    once the better CW lower bound reaches it, each with an ``(n + 2)``
    machine-epsilon rounding margin.  The certificate is built from that
    iterate pair: ``s`` is the better CW lower bound (so ``s <= rho(B)``),
    ``cw_lower``/``cw_upper`` are the right vector's CW bounds, the residuals
    are the eigen-residuals at ``s`` and ``k_final`` is 1.

    Should the bracket fail, the same test runs on the certificate of each
    round of :func:`compute_perron`'s doubling loop at ``delta`` = 1/4,
    continued from that bracket, so every verdict can be re-checked from the
    certificate's two vectors alone.  Raises :class:`BoundaryUndecidable`
    when the bracket's bounds meet within rounding of ``bound``, and when
    the rounds reach the float spacing without settling it.
    """
    if not 0.0 < bound < math.inf:
        raise ValueError("bound must be positive")
    _structure_check(B)
    return _certify(B, bound, _CWBracket(B))


def _certify(B: SparseMatrix, bound: float, bracket: _CWBracket) -> tuple[bool, PerronCertificate]:
    """:func:`certify_spectral_bound` on a checked ``B``, continuing ``bracket``."""
    valid = bracket.decide(bound)
    if valid is not None:
        return valid, _bracket_certificate(bracket, 1.0)
    if bracket.met_at_bound:
        raise BoundaryUndecidable(
            "spectral radius within rounding of the bound; cannot certify either side"
        )
    try:
        for _, _, cert in _perron_rounds(B, 0.25, bracket):
            if cert is None:
                continue
            his = (cert.cw_upper, _cw_bounds(B, cert.left, transpose=True)[1])
            valid = _settles(cert.s, his, bound, _cw_margin(B.n_rows))
            if valid is not None:
                return valid, cert
    except KCapExceeded as exc:
        raise BoundaryUndecidable(
            f"no round settled the bound ({exc}); cannot certify either side"
        ) from None
