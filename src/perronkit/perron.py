"""M-matrix decision, eigenvalue search, and certified Perron computation.

The decision procedure runs the same halving scan as the scaling module but
treats every convergence guarantee as a falsifiable check: an iteration cap,
a nonpositive scaling iterate, a violated exit window, or a blown solver
budget each yield a concrete witness that the tested matrix is not an
M-matrix, and a binary search over shifts built on the decision brackets the
spectral radius.

The Perron routines bracket the spectral radius by Collatz-Wielandt bounds
sharpened with shift-and-invert (inverse iteration shifted just above the
best upper bound), a bracket that is sound for any conditioning; they fall
back to the bisection only when that loop fails.  One scaling scan at the
bracket's upper end then yields positive approximate eigenvectors, and a
doubling loop over the conditioning guess turns them into a
Collatz-Wielandt-certified eigenvalue estimate.
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
    _halving_scan,
    _PhaseSolver,
    _Problem,
    _ScanFailure,
    mmatrix_scale,
)
from .sparse import (
    RCDD_VERIFY_SLACK,
    SparseMatrix,
    as_vector,
    check_rcdd,
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

_K_CAP = 2**40


class Verdict(Enum):
    IS_M_MATRIX_SHIFTED = "is_m_matrix_shifted"
    NOT_M_MATRIX = "not_m_matrix"


@dataclass(frozen=True)
class DecisionOutcome:
    """Result of the M-matrix decision.

    A positive verdict carries a scaling certifying ``(1+eps) I - A`` RCDD;
    a negative verdict carries the witnessing failed check.
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

    ``s`` is the returned eigenvalue estimate, ``cw_lower``/``cw_upper`` the
    Collatz-Wielandt sandwich of the spectral radius computed from the right
    vector, ``k_final`` the conditioning guess at acceptance, and the
    residual fields the relative sup-norm eigen-residuals at ``s``.
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
    ratios = A.matvec(x) / x
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
}


def _m_decide_scaled(
    A: SparseMatrix, denom: float, eps: float, gamma: float
) -> DecisionOutcome:
    """Decision for ``I - A/denom``; assumes structure already checked."""
    prob = _Problem(A, denom)
    n = prob.n
    cap = math.ceil(8.0 * math.log(64.0 * n * gamma * gamma))
    budget = 18.0 * gamma * gamma * (1.0 + 1e-6)
    ceiling = 18.0 * math.sqrt(n) * max(gamma, 2.0) ** 2
    try:
        ell, r, alpha_final, report = _halving_scan(
            prob, eps, cap, strict=True, budget_threshold=budget,
            residual_ceiling=ceiling,
        )
    except _ScanFailure as fail:
        return DecisionOutcome(
            Verdict.NOT_M_MATRIX,
            witness=(
                f"{_WITNESS_TEXT[fail.witness]} at phase {fail.phase} "
                f"(alpha={fail.alpha:.6e})"
            ),
        )
    report.info["cap"] = cap
    report.info["budget"] = budget
    if not check_rcdd(prob.scaled_shift(eps, ell, r), RCDD_VERIFY_SLACK):
        return DecisionOutcome(
            Verdict.NOT_M_MATRIX,
            witness="final scaling failed RCDD verification",
            report=report,
        )
    scaling = ScalingPair(left=ell, right=r, alpha=alpha_final, s=denom)
    return DecisionOutcome(Verdict.IS_M_MATRIX_SHIFTED, scaling=scaling, report=report)


def m_decide(A: SparseMatrix, eps: float, gamma: float) -> DecisionOutcome:
    """Decide whether ``I - A`` is an (invertible) M-matrix.

    Either returns a scaling certifying that ``(1 + eps) I - A`` is an
    M-matrix, or a concrete witness of non-membership.  The answer about the
    unshifted ``I - A`` is one-sided: a negative verdict proves
    ``rho(A) >= 1``; a positive verdict proves ``rho(A) < 1 + eps``.

    ``gamma`` budgets the conditioning: completeness of the positive side
    needs ``gamma >= max(||(I - A)^-1||_inf, ||(I - A)^-1||_1)``.  Both
    verdicts are sound for any positive ``gamma``.
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
    returned scaling certifies.
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
        delta = 0.5 * (s2 - s1) / (s2 + s1)
        outcome = _m_decide_scaled(A, s_m * (1.0 + delta / 2.0), delta / 3.0, 2.0 * K / delta)
        report.info["steps"].append(
            (s1, s2, s_m, delta, outcome.verdict.value)
        )
        if outcome.is_m_matrix:
            s2 = (1.0 + delta) * s_m
        else:
            s1 = s_m
        report.iterations += 1
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
    return _simple_perron_checked(A, eps, K)


def _eigen_residuals(A: SparseMatrix, s: float, left, right):
    res_r = right - A.matvec(right) / s
    res_l = left - A.matvec(left, transpose=True) / s
    rr = float(np.abs(res_r).max() / np.abs(right).max())
    rl = float(np.abs(res_l).max() / np.abs(left).max())
    return rl, rr


# relative gap between the shift-and-invert shift and the CW upper bound it
# sits above; keeps sigma I - A invertible with an entrywise positive inverse
_CW_SHIFT_MARGIN = 1e-6
_CW_MAX_STEPS = 32


class _CWBracket:
    """Collatz-Wielandt bracket of ``rho(A)`` sharpened by shift-and-invert.

    Inverse iteration on a right and a left vector from all-ones, shifted just
    above the best CW upper bound so that ``(sigma I - A)^-1`` is entrywise
    positive and both iterates stay in the positive cone.  For positive
    vectors every CW upper bound is at least ``rho(A)`` and every CW lower
    bound at most ``rho(A)``, whatever the conditioning, so the bracket needs
    no ``K``.  One bracket serves every round of a :func:`compute_perron`
    call: a tighter ``eps`` continues from the last iterates.
    """

    def __init__(self, A: SparseMatrix):
        self.A = A
        self.right = np.ones(A.n_rows)
        self.left = np.ones(A.n_rows)
        self.factorizations = 0
        self.failed = False

    def upper(self, eps: float) -> float | None:
        """``s`` with ``rho(A) <= s < (1 + eps) rho(A)``, or ``None`` once an
        iterate leaves the positive cone or the step budget runs out."""
        A, ones = self.A, np.ones(self.A.n_rows)
        while not self.failed:
            ratio_r = A.matvec(self.right) / self.right
            ratio_l = A.matvec(self.left, transpose=True) / self.left
            hi = min(ratio_r.max(), ratio_l.max())
            lo = max(ratio_r.min(), ratio_l.min())
            # lo > hi only by rounding, once both sides have converged
            if not (lo > 0.0 and hi < np.inf):
                break
            if hi < (1.0 + eps) * lo:
                return float(hi)
            if self.factorizations == _CW_MAX_STEPS:
                break
            # (1 + margin) I - A / hi: sigma I - A over hi, with the margin
            # relative to rho whatever the scale of A
            solver = _PhaseSolver(_Problem(A, hi), _CW_SHIFT_MARGIN, ones, ones)
            self.factorizations += 1
            right = _unit_positive(solver.p_right(self.right))
            left = _unit_positive(solver.p_left(self.left))
            if right is None or left is None:
                break
            self.right, self.left = right, left
        self.failed = True
        return None


def _unit_positive(x: np.ndarray) -> np.ndarray | None:
    """``x / max(x)`` when every entry of that is a normal positive float
    (the CW ratios then keep full relative precision), else ``None``."""
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        x = x / x.max()
    return x if np.all(x >= np.finfo(float).tiny) else None


def _simple_perron_core(A: SparseMatrix, eps: float, K: float, bracket: _CWBracket):
    s = bracket.upper(eps)
    if s is None:
        s, _ = find_perron_value(A, 0.0, induced_norms(A).norm_inf, eps, K)
    scale_pair, _ = mmatrix_scale(A, s * (1.0 + eps / 2.0), eps / 3.0, 2.0 * K / eps)
    return s, scale_pair


def _simple_perron_checked(A: SparseMatrix, eps: float, K: float) -> PerronCertificate:
    s, scale_pair = _simple_perron_core(A, eps, K, _CWBracket(A))
    left, right = scale_pair.left, scale_pair.right
    res_l, res_r = _eigen_residuals(A, s, left, right)
    cw_lower, cw_upper = collatz_wielandt_bounds(A, right)
    return PerronCertificate(
        s=s,
        left=left,
        right=right,
        k_final=K,
        residual_left=res_l,
        residual_right=res_r,
        cw_lower=cw_lower,
        cw_upper=cw_upper,
    )


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
    that bracket fails.
    """
    _structure_check(A)
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    bracket = _CWBracket(A)
    K = 1.0
    while K <= _K_CAP:
        eps_round = delta / (8.0 * K * K)
        try:
            s_upper, pair = _simple_perron_core(A, eps_round, K, bracket)
        except IterationCapHit:
            K *= 2.0
            continue
        left, right = _polish_pair(A, s_upper, eps_round, pair)
        cw_r = collatz_wielandt_bounds(A, right)
        # the left vector's CW lower bound, from the transpose A caches
        cw_l = float((A.matvec(left, transpose=True) / left).min())
        s_out = max(cw_r[0], cw_l)
        if s_out > 0.0:
            res_l, res_r = _eigen_residuals(A, s_out, left, right)
            threshold = delta / (2.0 * K * K)
            certified = (
                cw_r[0] >= (1.0 - delta) * s_upper
                or cw_l >= (1.0 - delta) * s_upper
            )
            if (
                res_r <= threshold
                and res_l <= threshold
                and certified
                and cw_r[0] >= (1.0 - delta) * s_out
            ):
                return PerronCertificate(
                    s=s_out,
                    left=left,
                    right=right,
                    k_final=K,
                    residual_left=res_l,
                    residual_right=res_r,
                    cw_lower=cw_r[0],
                    cw_upper=cw_r[1],
                )
        K *= 2.0
    raise KCapExceeded(f"conditioning guess passed {_K_CAP} without certifying")


def _polish_pair(A: SparseMatrix, s: float, eps: float, pair):
    """Sharpen the scaling vectors toward the Perron directions with a few
    extra inverse applications; each application damps the non-Perron
    components by roughly the shift-to-gap ratio.  Falls back to the last
    positive iterate if a solve ever leaves the positive cone."""
    # factors diag(l) ((1 + eps/3) I - A/denom) diag(r), the matrix the
    # scaling pair certifies RCDD
    denom = s * (1.0 + eps / 2.0)
    solver = _PhaseSolver(_Problem(A, denom), eps / 3.0, pair.left, pair.right)
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


def certify_spectral_bound(
    B: SparseMatrix, bound: float = 1.0, max_refinements: int = 24
) -> tuple[bool, PerronCertificate]:
    """Decide ``rho(B) < bound`` with a certificate, refining until resolved.

    Uses the two-sided Perron guarantee: the returned estimate ``s``
    satisfies ``s <= rho(B) < s / (1 - delta)``, so either inequality against
    the bound is certified once delta is small enough.  Raises
    :class:`BoundaryUndecidable` when ``rho(B)`` sits at the bound within the
    refinement budget.
    """
    if bound <= 0.0:
        raise ValueError("bound must be positive")
    delta = 0.25
    for _ in range(max_refinements):
        cert = compute_perron(B, delta)
        if cert.s >= bound:
            return False, cert
        if cert.s < bound * (1.0 - delta):
            return True, cert
        delta /= 4.0
    raise BoundaryUndecidable(
        f"spectral radius within a factor {delta:.2e} of the bound; "
        "cannot certify either side"
    )
