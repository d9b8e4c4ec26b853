"""M-matrix decision, eigenvalue search, and certified Perron computation.

The decision procedure runs the same halving scan as the scaling module but
treats every convergence guarantee as a falsifiable check: an iteration cap,
a nonpositive scaling iterate, a violated exit window, or a blown solver
budget each yield a concrete witness that the tested matrix is not an
M-matrix (given a valid conditioning budget; below one a witness may only
mean the budget was too small), and a binary search over shifts built on the
decision brackets the spectral radius.

The Perron routines bracket the spectral radius by Collatz-Wielandt bounds
sharpened with shift-and-invert (inverse iteration shifted just above the
best upper bound), a bracket that is sound for any conditioning; they fall
back to the bisection only when that loop fails.  One scaling scan at the
bracket's upper end then yields positive approximate eigenvectors, and a
doubling loop over the conditioning guess turns them into a
Collatz-Wielandt-certified eigenvalue estimate.  Deciding ``rho(A) < bound``
needs no eigenvectors: the bracket alone settles it unless ``rho(A)`` sits
at the bound.  Every certificate comes from one builder, so its CW sandwich
is exactly :func:`collatz_wielandt_bounds` of its right vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    BoundaryUndecidable,
    IterationCapHit,
    KCapExceeded,
    NotIrreducible,
)
from .reports import SolveReport
from .scaling import (
    ScalingPair,
    _PhaseSolver,
    _Problem,
    _ScanFailure,
    _checked_scan,
    _mmatrix_scale,
)
from .sparse import (
    SparseMatrix,
    _check_open_unit,
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

# unreachable in a real run: for any delta < 1 the round precision
# delta / (8 K^2) drops below the float spacing by K = 2**25 and
# compute_perron raises there first; tests lower it to bound the rounds
_K_CAP = 2**40


class Verdict(Enum):
    IS_M_MATRIX_SHIFTED = "is_m_matrix_shifted"
    NOT_M_MATRIX = "not_m_matrix"


@dataclass(frozen=True)
class DecisionOutcome:
    """Result of the M-matrix decision.

    A positive verdict carries a scaling certifying ``(1+eps) I - A`` RCDD
    and the scan's report; a negative verdict carries only the witnessing
    failed check, with the phase and shift where it fired, and no report.
    """

    verdict: Verdict
    scaling: ScalingPair | None = None
    witness: str | None = None
    report: SolveReport | None = None

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
    comes from :func:`compute_perron` or from the bracket of
    :func:`certify_spectral_bound`.  ``cw_lower``/``cw_upper`` are the
    Collatz-Wielandt sandwich of the spectral radius computed from the right
    vector, ``k_final`` the conditioning guess at acceptance (1 for a bracket
    certificate, which needs none), and the residual fields the relative
    sup-norm eigen-residuals of each vector at ``s``.  :func:`simple_perron`
    returns its upper estimate as ``s`` and its scaling pair as vectors.
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
    if not A.is_square:
        raise ValueError("expected a square matrix")
    if not A.is_nonnegative():
        raise ValueError("matrix must be entrywise nonnegative")
    x = as_vector(x, A.n_rows, "x")
    if np.any(x <= 0.0):
        raise ValueError("probe vector must be strictly positive")
    return _cw_bounds(A, x)


def _cw_bounds(A: SparseMatrix, x: np.ndarray, transpose: bool = False) -> tuple[float, float]:
    """The Collatz-Wielandt ratios' ``(min, max)`` for a positive ``x``, of
    ``A`` or, with ``transpose``, of ``A.T`` (from the transpose ``A``
    caches); the package's one computation of them."""
    ratios = A.matvec(x, transpose=transpose) / x
    return float(ratios.min()), float(ratios.max())


def _structure_check(A: SparseMatrix):
    if not A.is_square:
        raise ValueError("expected a square matrix")
    if not A.is_nonnegative():
        raise ValueError("matrix must be entrywise nonnegative")
    if not is_irreducible(A):
        raise NotIrreducible("nonzero pattern is not strongly connected")


_WITNESS_TEXT = {
    "iteration cap": "inner loop exceeded its iteration cap",
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
        _, scaling, report = _checked_scan(A, denom, eps, gamma, cap, budget)
    except _ScanFailure as fail:
        return DecisionOutcome(
            Verdict.NOT_M_MATRIX,
            witness=(
                f"{_WITNESS_TEXT[fail.witness]} at phase {fail.phase} "
                f"(alpha={fail.alpha:.6e})"
            ),
        )
    report.info["budget"] = budget
    return DecisionOutcome(Verdict.IS_M_MATRIX_SHIFTED, scaling=scaling, report=report)


def m_decide(A: SparseMatrix, eps: float, gamma: float) -> DecisionOutcome:
    """Decide whether ``I - A`` is an (invertible) M-matrix.

    Either returns a scaling certifying that ``(1 + eps) I - A`` is an
    M-matrix, or a witness of non-membership.  The answer about the
    unshifted ``I - A`` is one-sided: a positive verdict proves
    ``rho(A) < 1 + eps`` for any positive ``gamma``, since it carries the
    checked scaling; a negative verdict proves ``rho(A) >= 1`` only when
    ``gamma`` is a valid budget.

    ``gamma`` budgets the conditioning: it is valid, and the positive side
    complete, when ``gamma >= max(||(I - A)^-1||_inf, ||(I - A)^-1||_1)``.
    Below that a witness, the ``"solver budget"`` and ``"iteration cap"``
    ones in particular, can mean only that ``gamma`` was too small: on an
    M-matrix whose inverse norms exceed ``gamma`` the scan's checks may fire.
    Above the dense cutoff the phase solves are iterative, to relative
    residual ``1 / (8 gamma)``; one that misses it ends the scan with the
    ``"solver budget"`` witness, never ``"iteration cap"``.  A final pair
    that fails the RCDD check is a witness too, given like the others with
    its phase and shift.
    """
    _structure_check(A)
    if eps <= 0.0 or gamma <= 0.0:
        raise ValueError("eps and gamma must be positive")
    return _m_decide_scaled(A, 1.0, eps, gamma)


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
    if K <= 0.0:
        raise ValueError("K must be positive")
    report = SolveReport(info={"steps": []})
    while (1.0 + eps / 2.0) * s1 < s2:
        s_m = 0.5 * (s1 + s2)
        if not s1 < s_m < s2:
            break  # adjacent floats: s_m rounds to an endpoint
        delta = 0.5 * (s2 - s1) / (s2 + s1)
        outcome = _m_decide_scaled(A, s_m * (1.0 + delta / 2.0), delta / 3.0, 2.0 * K / delta)
        report.info["steps"].append(
            (s1, s2, s_m, delta, outcome.verdict.value)
        )
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
    ``s`` is at most ``8 eps``.
    """
    _structure_check(A)
    if not (0.0 < eps < 0.25):
        raise ValueError("eps must lie in (0, 1/4)")
    if K <= 0.0:
        raise ValueError("K must be positive")
    s, _, pair = _simple_perron_core(A, eps, K, _CWBracket(A))
    return _certificate(A, pair.left, pair.right, K, s=s)


def _relative_residual(x: np.ndarray, Ax: np.ndarray, s: float) -> float:
    """Relative sup-norm eigen-residual ``||x - Ax / s|| / ||x||`` of ``x`` at
    ``s``, given the product ``Ax``."""
    return float(np.abs(x - Ax / s).max() / np.abs(x).max())


def _certificate(A: SparseMatrix, left, right, k_final: float, s: float | None = None):
    """The :class:`PerronCertificate` of a positive pair: the right vector's
    CW sandwich and both eigen-residuals at ``s``, by default the better of
    the two vectors' CW lower bounds (so ``s <= rho(A)``).  ``None`` when
    that default is not positive, which only underflow makes it."""
    cw_lower, cw_upper = _cw_bounds(A, right)
    if s is None:
        s = max(cw_lower, _cw_bounds(A, left, transpose=True)[0])
        if not s > 0.0:
            return None
    return PerronCertificate(
        s=s,
        left=left,
        right=right,
        k_final=k_final,
        residual_left=_relative_residual(left, A.matvec(left, transpose=True), s),
        residual_right=_relative_residual(right, A.matvec(right), s),
        cw_lower=cw_lower,
        cw_upper=cw_upper,
    )


# relative gap between the shift-and-invert shift and the CW upper bound it
# sits above; keeps sigma I - A invertible with an entrywise positive inverse
_CW_SHIFT_MARGIN = 1e-6
_CW_MAX_STEPS = 32
# refinements (compute_perron calls) of certify_spectral_bound once its
# bracket has failed
_MAX_REFINEMENTS = 24
# relative residual of the bracket's and the polish's solves above the dense
# cutoff: loose solves keep every bound valid but widen the CW sandwich
_CW_SOLVE_TOL = 1e-10


class _CWBracket:
    """Collatz-Wielandt bracket of ``rho(A)`` sharpened by shift-and-invert.

    Inverse iteration on a right and a left vector from all-ones, shifted just
    above the best CW upper bound so that ``(sigma I - A)^-1`` is entrywise
    positive and both iterates stay in the positive cone.  For positive
    vectors every CW upper bound is at least ``rho(A)`` and every CW lower
    bound at most ``rho(A)``, whatever the conditioning, so the bracket needs
    no ``K``.  One bracket serves every round of a :func:`compute_perron`
    call: a tighter ``eps`` continues from the last iterates.  Once it has
    failed, ``proven_upper`` holds the upper end of the last
    :func:`find_perron_value`, an upper bound on ``rho(A)`` whatever its
    ``K``, where the next round's bisection starts.
    """

    def __init__(self, A: SparseMatrix):
        self.A = A
        self.right = np.ones(A.n_rows)
        self.left = np.ones(A.n_rows)
        # (lower, upper) CW bounds of the current right and left iterates
        self.cw_right = self.cw_left = (0.0, np.inf)
        self.factorizations = 0
        self.failed = False
        # set by decide() when the bounds meet within rounding of its bound
        self.met_at_bound = False
        self.proven_upper = None
        self._prob = None

    def _iterates(self):
        """Yield once per iterate, its CW bounds set, stepping when resumed.
        Ends, marking the bracket failed, once an iterate leaves the positive
        cone, a bound is unusable (a zero lower or an infinite upper bound)
        or the step budget runs out."""
        A, ones = self.A, np.ones(self.A.n_rows)
        while not self.failed:
            self.cw_right = _cw_bounds(A, self.right)
            self.cw_left = _cw_bounds(A, self.left, transpose=True)
            hi = min(self.cw_right[1], self.cw_left[1])
            if not (self.lower > 0.0 and hi < np.inf):
                break
            yield
            if self.factorizations == _CW_MAX_STEPS:
                break
            # (1 + margin) I - A / hi: sigma I - A over hi, with the margin
            # relative to rho whatever the scale of A; one problem, rescaled
            if self._prob is None:
                self._prob = _Problem(A, hi)
            else:
                self._prob.rescale(hi)
            solver = _PhaseSolver(self._prob, _CW_SHIFT_MARGIN, ones, ones, tol=_CW_SOLVE_TOL)
            self.factorizations += 1
            right = _unit_positive(solver.p_right(self.right))
            left = _unit_positive(solver.p_left(self.left))
            if right is None or left is None:
                break
            self.right, self.left = right, left
        self.failed = True

    @property
    def lower(self) -> float:
        """The better CW lower bound of the current iterates."""
        return max(self.cw_right[0], self.cw_left[0])

    def upper(self, eps: float) -> float | None:
        """``s`` with ``rho(A) <= s < (1 + eps) rho(A)``, or ``None`` once an
        iterate leaves the positive cone or the step budget runs out."""
        for _ in self._iterates():
            hi = min(self.cw_right[1], self.cw_left[1])
            # lo > hi only by rounding, once both sides have converged
            if hi < (1.0 + eps) * self.lower:
                return float(hi)
        return None

    def decide(self, bound: float) -> bool | None:
        """``rho(A) < bound``, decided at the first iterate whose bounds
        settle it: both the right and the left CW upper bound below
        ``bound`` (True), or the better lower bound at or above it (False).
        ``None`` when the bracket fails, or when its bounds meet within
        rounding on either side of ``bound`` (``met_at_bound`` is then set).

        Each bound is a ratio of sums of nonnegative products, computed to a
        relative error below ``(n + 2)`` machine epsilons (barring
        underflow); both tests keep that margin, so rounding cannot decide
        the wrong side."""
        tol = (self.A.n_rows + 2) * np.finfo(float).eps
        for _ in self._iterates():
            lo = self.lower
            his = (self.cw_right[1], self.cw_left[1])
            if max(his) * (1.0 + tol) < bound:
                return True
            if lo * (1.0 - tol) >= bound:
                return False
            # the best upper bound settles nothing either, and no step can
            # narrow it past rounding
            if min(his) * (1.0 + tol) >= bound and min(his) <= lo * (1.0 + 4.0 * tol):
                self.met_at_bound = True
                return None
        return None


def _unit_positive(x: np.ndarray) -> np.ndarray | None:
    """``x / max(x)`` when every entry of that is a normal positive float
    (the CW ratios then keep full relative precision), else ``None``."""
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        x = x / x.max()
    return x if np.all(x >= np.finfo(float).tiny) else None


def _simple_perron_core(A: SparseMatrix, eps: float, K: float, bracket: _CWBracket):
    """``(s, prob, pair)``: the upper estimate ``s`` and the scaling pair
    certifying ``prob.scaled_shift(eps / 3, pair.left, pair.right)`` RCDD."""
    s = bracket.upper(eps)
    if s is None:
        s2 = bracket.proven_upper or induced_norms(A).norm_inf
        s, _ = find_perron_value(A, 0.0, s2, eps, K)
        bracket.proven_upper = s
    prob, scale_pair, _ = _mmatrix_scale(A, s * (1.0 + eps / 2.0), eps / 3.0, 2.0 * K / eps)
    return s, prob, scale_pair


def compute_perron(A: SparseMatrix, delta: float) -> PerronCertificate:
    """Certified Perron estimate: ``(1 - delta) rho(A) < s <= rho(A)``.

    Doubles a conditioning guess ``K`` starting from 1.  Each round asks
    :func:`simple_perron` for precision ``delta / (8 K^2)``; the round is
    accepted when the returned vectors are ``delta / (2 K^2)``-approximate
    eigenvectors of the certified lower bound ``s`` (the better of the two
    Collatz-Wielandt lower bounds, hence ``s <= rho(A)``) and at least one
    side certifies ``(1 - delta)`` of the upper estimate.  The upper estimate
    comes from one Collatz-Wielandt shift-and-invert bracket per call, which
    later rounds tighten from its last iterates; the bisection runs only if
    that bracket fails, each later round from the upper end the previous
    one proved.  From the second round on, a round precision below the
    float spacing (``np.finfo(float).eps``) raises :class:`KCapExceeded` at
    once: no later round can certify where rounding alone exceeds it.
    """
    _structure_check(A)
    _check_open_unit(delta, "delta")
    bracket = _CWBracket(A)
    K = 1.0
    while K <= _K_CAP:
        eps_round = delta / (8.0 * K * K)
        if K > 1.0 and eps_round < np.finfo(float).eps:
            raise KCapExceeded(
                f"round precision delta / (8 K^2) = {eps_round:.3e} at K = {K:g} is "
                "below the float spacing; no later round can certify"
            )
        try:
            s_upper, prob, pair = _simple_perron_core(A, eps_round, K, bracket)
        except IterationCapHit:
            K *= 2.0
            continue
        left, right = _polish_pair(prob, eps_round, pair)
        cert = _certificate(A, left, right, K)
        threshold = delta / (2.0 * K * K)
        if (
            cert is not None
            and cert.residual_right <= threshold
            and cert.residual_left <= threshold
            and cert.s >= (1.0 - delta) * s_upper
            and cert.cw_lower >= (1.0 - delta) * cert.s
        ):
            return cert
        K *= 2.0
    raise KCapExceeded(f"conditioning guess passed {_K_CAP} without certifying")


def _polish_pair(prob: _Problem, eps: float, pair):
    """Sharpen the scaling vectors toward the Perron directions with a few
    extra inverse applications; each application damps the non-Perron
    components by roughly the shift-to-gap ratio.  Falls back to the last
    positive iterate if a solve ever leaves the positive cone."""
    # solves with diag(l) ((1 + eps/3) I - A/denom) diag(r), the matrix the
    # scaling pair certifies RCDD on the scan's own problem
    solver = _PhaseSolver(prob, eps / 3.0, pair.left, pair.right, tol=_CW_SOLVE_TOL)
    left, right = pair.left, pair.right
    for _ in range(3):
        right_next = solver.p_right(right / np.abs(right).max())
        left_next = solver.p_left(left / np.abs(left).max())
        if (
            not np.all(np.isfinite(right_next))
            or not np.all(np.isfinite(left_next))
            or np.any(right_next <= 0.0)
            or np.any(left_next <= 0.0)
        ):
            break
        right, left = right_next, left_next
    return left, right


def certify_spectral_bound(B: SparseMatrix, bound: float = 1.0) -> tuple[bool, PerronCertificate]:
    """Decide ``rho(B) < bound`` with a certificate.

    Continues one Collatz-Wielandt shift-and-invert bracket until its bounds
    settle the question, which needs no scaling scan: True once the CW upper
    bounds of both the right and the left iterate lie below ``bound``, False
    once the better CW lower bound reaches it.  The certificate is built from
    that iterate pair: ``s`` is the better CW lower bound (so ``s <= rho(B)``),
    ``cw_lower``/``cw_upper`` are the right vector's CW bounds, the residuals
    are the eigen-residuals at ``s`` and ``k_final`` is 1.

    Should the bracket fail, the decision falls back to
    :func:`compute_perron` with ``delta`` = 1/4, 1/16, ...: its estimate
    satisfies ``s <= rho(B) < s / (1 - delta)``, so either inequality against
    the bound is certified once delta is small enough, and the certificate is
    that call's.  Raises :class:`BoundaryUndecidable` at once when the
    bracket's bounds meet within rounding of ``bound``, where no refinement
    can do better, and when ``rho(B)`` sits at the bound within
    ``_MAX_REFINEMENTS`` (24) such calls or one of them exhausts its
    conditioning guess.
    """
    if bound <= 0.0:
        raise ValueError("bound must be positive")
    _structure_check(B)
    bracket = _CWBracket(B)
    valid = bracket.decide(bound)
    if valid is not None:
        return valid, _certificate(B, bracket.left, bracket.right, 1.0)
    if bracket.met_at_bound:
        raise BoundaryUndecidable(
            "spectral radius within rounding of the bound; cannot certify either side"
        )
    delta = 0.25
    for _ in range(_MAX_REFINEMENTS):
        try:
            cert = compute_perron(B, delta)
        except KCapExceeded as exc:
            raise BoundaryUndecidable(
                f"no certificate at delta {delta:.2e} ({exc}); cannot certify either side"
            ) from None
        if cert.s >= bound:
            return False, cert
        if cert.s < bound * (1.0 - delta):
            return True, cert
        delta /= 4.0
    raise BoundaryUndecidable(
        f"spectral radius within a factor {delta:.2e} of the bound; "
        "cannot certify either side"
    )
