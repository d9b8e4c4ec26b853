"""Diagonal scalings that make shifted M-matrices RCDD, and the solvers
built on them.

The central routine is an alpha-halving scan: starting from a shift so large
that the matrix is trivially dominant, each phase solves
``M_alpha r = 1`` and ``M_alpha.T l = 1`` by Richardson iteration
preconditioned with the solver of the previous (twice as large) shift, then
halves the shift.  ``_checked_scan`` is its one entry point: it forms the
problem, runs the scan and checks the final pair RCDD before returning it.
The M-matrix decision and :func:`mmatrix_scale`, and through them the
solvers and Perron routines, call it and differ only in their iteration
cap, their solver budget and how they report a failure.  The symmetric path
descends the same halving levels with one vector.

All routines normalize to ``s = 1`` internally and return scalings valid for
the original problem, which only differ by a positive scalar on the scaled
matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import BackendDiverged, IterationCapHit, NotSDDAfterScaling
from .rcdd import (
    LinearOperator,
    _phase_backend,
    _storage,
    build_rcdd_solver,
    build_sdd_solver,
    varah_kappa_upper,
)
from .reports import CONVERGED, ITERATION_CAP, NON_FINITE, PhaseLog, SolveReport
from .sparse import (
    RCDD_VERIFY_SLACK,
    SparseMatrix,
    _check_open_unit,
    _is_symmetric,
    apply_scaling,
    as_vector,
    check_rcdd,
    check_sdd,
    induced_norms,
)

__all__ = [
    "ScalingPair",
    "MSolveOperators",
    "RichardsonConfig",
    "prec_richardson",
    "solve_from_scale",
    "mmatrix_scale",
    "solve_m",
    "symm_scale",
    "symm_solve",
    "factor_width2_solve",
    "scaling_iteration_cap",
    "expected_phase_count",
]


# ----------------------------------------------------------------------
# public types


@dataclass(frozen=True)
class ScalingPair:
    """Positive diagonal vectors ``(left, right)`` certifying dominance.

    ``alpha`` is the shift level at which the pair was certified (so the pair
    is valid for every shift >= alpha) and ``s`` the diagonal scale of the
    original problem.
    """

    left: np.ndarray
    right: np.ndarray
    alpha: float
    s: float

    def __post_init__(self):
        object.__setattr__(self, "left", as_vector(self.left, name="left"))
        object.__setattr__(self, "right", as_vector(self.right, name="right"))
        if np.any(self.left <= 0.0) or np.any(self.right <= 0.0):
            raise ValueError("scaling vectors must be strictly positive")

    @property
    def kappa_left(self) -> float:
        return float(self.left.max() / self.left.min())

    @property
    def kappa_right(self) -> float:
        return float(self.right.max() / self.right.min())


@dataclass(frozen=True)
class MSolveOperators:
    """Approximate inverse pair for an M-matrix and its transpose."""

    p_right: LinearOperator
    p_left: LinearOperator
    delta: float


@dataclass(frozen=True)
class RichardsonConfig:
    tolerance: float
    max_iterations: int = 1000

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


# ----------------------------------------------------------------------
# internal problem wrapper: normalized nonnegative matrix with fast products


class _Problem:
    """``A / scale`` in the solvers' working storage, :func:`rcdd._storage`'s:
    a dense array up to ``_DENSE_CUTOFF`` unknowns, CSR above (``dense`` and
    ``csr`` name whichever is in use).
    :meth:`rescale` moves it to another scale on the same storage."""

    def __init__(self, A: SparseMatrix, scale: float):
        if not A.is_square:
            raise ValueError("expected a square matrix")
        self.n = A.n_rows
        self._A = A
        self._unscaled = _storage(A.csr())
        if not isinstance(self._unscaled, np.ndarray):
            # -A on the pattern of (1 + alpha) I - A, the diagonal always
            # stored; every phase only rescales its values.  A's entries,
            # canonical and sorted as that pattern is, fill the positions
            # marked here in order.
            coo = self._unscaled.tocoo()
            idx = np.arange(self.n)
            self._neg_a = sp.csr_matrix(
                (
                    np.concatenate([np.ones(coo.nnz), np.zeros(self.n)]),
                    (np.concatenate([coo.row, idx]), np.concatenate([coo.col, idx])),
                ),
                shape=(self.n, self.n),
            )
            self._a_pos = np.flatnonzero(self._neg_a.data)
            self._neg_a.data[:] = 0.0
            self._rows = np.repeat(idx, np.diff(self._neg_a.indptr))
            self._diag = np.flatnonzero(self._rows == self._neg_a.indices)
        self.rescale(scale)

    def rescale(self, scale: float) -> None:
        """Make this the problem of ``A / scale``, with the same bits as a
        fresh ``_Problem(A, scale)``."""
        if scale <= 0.0 or not np.isfinite(scale):
            raise ValueError("scale must be positive and finite")
        self._scale = scale
        self.matrix = self._unscaled / scale
        self.matrix_t = self.matrix.T
        self.dense = self.matrix if isinstance(self.matrix, np.ndarray) else None
        self.csr = None if self.dense is not None else self.matrix
        if self.csr is not None:
            self._neg_a.data[self._a_pos] = -self.matrix.data

    @cached_property
    def _norm_max_unscaled(self) -> float:
        norms = induced_norms(self._A)
        return max(norms.norm_1, norms.norm_inf)

    @property
    def norm_max(self) -> float:
        """``max(||A||_1, ||A||_inf)`` at the current scale, the norms computed
        on first read: only the scan's starting shift needs it."""
        return self._norm_max_unscaled / self._scale

    def shifted_matvec(self, alpha: float, x: np.ndarray) -> np.ndarray:
        """``((1 + alpha) I - A) @ x``."""
        return (1.0 + alpha) * x - self.matrix @ x

    def shifted_rmatvec(self, alpha: float, x: np.ndarray) -> np.ndarray:
        return (1.0 + alpha) * x - self.matrix_t @ x

    def scaled_shift(self, alpha: float, ell: np.ndarray, r: np.ndarray):
        """``diag(ell) ((1 + alpha) I - A) diag(r)`` in the working storage."""
        if self.dense is not None:
            S = -self.dense
            np.fill_diagonal(S, S.diagonal() + (1.0 + alpha))
            S *= ell[:, None]
            S *= r[None, :]
            return S
        neg_a = self._neg_a
        v = neg_a.data.copy()
        v[self._diag] += 1.0 + alpha
        # the same products, in the same order, as diag(ell) @ M @ diag(r)
        data = (ell[self._rows] * v) * r[neg_a.indices]
        return sp.csr_matrix((data, neg_a.indices, neg_a.indptr), shape=neg_a.shape)


class _PhaseSolver:
    """One solver of ``S = diag(l) M_{2 alpha} diag(r)`` serving both the
    forward and the transpose preconditioner of one phase; the engine's only
    path to solving with a matrix it formed.

    :func:`rcdd._phase_backend` picks the backend by the problem's storage:
    a dense ``S`` (up to ``_DENSE_CUTOFF`` unknowns) is factored once by
    LAPACK and solved exactly up to rounding; a CSR ``S`` gets
    Jacobi-preconditioned Krylov solves to the relative residual ``tol``,
    each checked against its true residual.  A Krylov solve that misses
    raises :class:`BackendDiverged` when ``lu_on_miss`` is false (the strict
    scan, where the miss is a witness), and otherwise has ``S`` factored
    with SuperLU.  ``symmetric`` marks an ``S`` symmetric by construction,
    which the Krylov backend solves by CG and its SuperLU fallback orders
    symmetrically.  ``S`` is the matrix solved with."""

    def __init__(
        self,
        prob: _Problem,
        alpha2: float,
        ell: np.ndarray,
        r: np.ndarray,
        symmetric: bool = False,
        *,
        tol: float,
        lu_on_miss: bool = True,
    ):
        self.ell = ell
        self.r = r
        self._solver = _phase_backend(
            prob.scaled_shift(alpha2, ell, r), tol, symmetric, lu_on_miss
        )
        self.S = self._solver.S

    def p_right(self, x: np.ndarray) -> np.ndarray:
        return self.r * self._solver.solve(self.ell * x)

    def p_left(self, x: np.ndarray) -> np.ndarray:
        return self.ell * self._solver.solve(self.r * x, transpose=True)


class _ScanFailure(Exception):
    """Internal: one of the decision checks fired during the halving scan."""

    def __init__(self, witness: str, phase: int, alpha: float):
        self.witness = witness
        self.phase = phase
        self.alpha = alpha
        super().__init__(witness)

    def cap_hit(self, what: str, reason: str) -> IterationCapHit:
        """The public error for this failure of ``what`` (a kind of phase)."""
        return IterationCapHit(
            f"{what} {self.phase} (alpha={self.alpha:.3e}) failed: {self.witness}; {reason}",
            phase=self.phase,
            alpha=self.alpha,
        )


def _scan_tolerance(K: float) -> float:
    """Relative residual of the phase solves of a scan with conditioning
    bound ``K``: ``1 / (8 K)``, the accuracy the scan's solver contract asks."""
    return 1.0 / (8.0 * K)


def scaling_iteration_cap(n: int, K: float, eps: float) -> int:
    """Inner-loop iteration cap: ``ceil(8 log(n max(K, 2) / min(eps, 1)))``."""
    return math.ceil(8.0 * math.log(n * max(K, 2.0) / min(eps, 1.0)))


def expected_phase_count(A: SparseMatrix, s: float, eps: float) -> int:
    """Number of halving phases the scan performs on ``A / s`` at target eps."""
    norms = induced_norms(A)
    alpha0 = 2.0 * max(norms.norm_1, norms.norm_inf) / s
    if alpha0 <= eps:
        return 0
    return math.ceil(math.log2(alpha0 / eps))


def _richardson_phase(
    prob: _Problem,
    solver: _PhaseSolver,
    alpha: float,
    cap: int,
    report: SolveReport,
    *,
    two_sided: bool = True,
    positive: bool = False,
    residual_ceiling: float = 2e250,
):
    """One halving phase: Richardson on ``M_alpha r = 1`` (and ``M_alpha.T l
    = 1`` when ``two_sided``; else ``l`` is ``r``) preconditioned by
    ``solver`` until every residual entry lies in ``[-1/2, 1/2]``.  Logs the
    phase in ``report``; returns ``(l, r, worst residual)``.  Raises
    :class:`_ScanFailure` after ``cap`` iterations, on a residual that is
    non-finite or above ``residual_ceiling``, or on a nonpositive result
    when ``positive``."""
    phase = len(report.phases)
    ones = np.ones(prob.n)
    r = np.zeros(prob.n)
    res_r = -ones
    ell, res_l = r, res_r
    k = 0
    worst = 1.0  # every residual starts at -1
    # divergence of this loop is an expected, signal-carrying outcome on
    # non-M-matrices; silence transient overflow en route to the ceiling
    with np.errstate(over="ignore", invalid="ignore"):
        while worst > 0.5:
            if k >= cap:
                raise _ScanFailure("iteration cap", phase, alpha)
            r = r - solver.p_right(res_r)
            res_r = prob.shifted_matvec(alpha, r) - ones
            worst = np.abs(res_r).max()
            if two_sided:
                ell = ell - solver.p_left(res_l)
                res_l = prob.shifted_rmatvec(alpha, ell) - ones
                worst = max(worst, np.abs(res_l).max())
            else:
                ell, res_l = r, res_r
            k += 1
            if not np.isfinite(worst) or worst > residual_ceiling:
                raise _ScanFailure("iteration cap", phase, alpha)
    if positive and (np.any(r <= 0.0) or np.any(ell <= 0.0)):
        raise _ScanFailure("nonpositive scaling", phase, alpha)
    wr = 1.0 + res_r
    wl = 1.0 + res_l
    report.phases.append(
        PhaseLog(
            alpha=alpha,
            iterations=k,
            window_right=(float(wr.min()), float(wr.max())),
            window_left=(float(wl.min()), float(wl.max())),
            min_right=float(r.min()),
            min_left=float(ell.min()),
            left=ell.copy(),
            right=r.copy(),
        )
    )
    report.iterations += k
    return ell, r, worst


def _halving_scan(
    prob: _Problem,
    eps: float,
    cap: int,
    *,
    tol: float,
    budget: float | None,
    residual_ceiling: float,
):
    """Run the alpha-halving scan on a normalized problem, each phase solved
    to relative residual ``tol`` (see :class:`_PhaseSolver`).

    Returns ``(ell, r, alpha_final, report)``.  A ``budget`` makes the scan
    strict: every phase must pass the positivity and open-window checks and
    keep the scaled phase matrix's conditioning bound within ``budget``; a
    failed check raises :class:`_ScanFailure` with the witnessing condition,
    and so does a phase solve that misses ``tol`` (as ``"solver budget"``).
    Without one such a solve falls back to an LU of the phase matrix.

    ``residual_ceiling`` fails a phase as soon as an inner residual exceeds
    it: under a valid conditioning bound the certified contraction keeps
    residuals below ``sqrt(n) * kappa(D)``, so blowing far past that refutes
    the M-matrix hypothesis without burning the whole iteration cap.
    """
    ones = np.ones(prob.n)
    # a zero A starts at eps, where the loop does not run
    alpha0 = 2.0 * prob.norm_max or eps
    report = SolveReport(alpha0=alpha0)
    strict = budget is not None
    alpha = alpha0
    ell = ones / alpha0
    r = ones / alpha0
    while alpha > eps:
        phase = len(report.phases)
        solver = _PhaseSolver(prob, alpha, ell, r, tol=tol, lu_on_miss=not strict)
        alpha /= 2.0
        if strict and varah_kappa_upper(solver.S) > budget:
            raise _ScanFailure("solver budget", phase, alpha)
        try:
            ell, r, worst = _richardson_phase(
                prob, solver, alpha, cap, report, positive=strict, residual_ceiling=residual_ceiling
            )
        except BackendDiverged:
            # a solve that misses is a conditioning signal, not an inner-loop
            # failure of the M-matrix hypothesis
            raise _ScanFailure("solver budget", phase, alpha) from None
        if strict and worst >= 0.5:
            raise _ScanFailure("window violation", phase, alpha)
    return ell, r, alpha, report


def _checked_scan(
    A: SparseMatrix, s: float, eps: float, K: float, cap: int, budget: float | None = None
):
    """The halving scan on ``A / s`` at conditioning bound ``K``, its final
    pair checked: ``(prob, pair, report)`` with ``prob.scaled_shift(eps,
    pair.left, pair.right)`` RCDD.  Every failure, the final check's
    included (as ``"final verification"``), raises :class:`_ScanFailure`."""
    prob = _Problem(A, s)
    ceiling = 18.0 * math.sqrt(prob.n) * max(K, 2.0) ** 2
    ell, r, alpha, report = _halving_scan(
        prob, eps, cap, tol=_scan_tolerance(K), budget=budget, residual_ceiling=ceiling
    )
    if not check_rcdd(prob.scaled_shift(eps, ell, r), RCDD_VERIFY_SLACK):
        raise _ScanFailure("final verification", len(report.phases), alpha)
    report.info["cap"] = cap
    return prob, ScalingPair(left=ell, right=r, alpha=alpha, s=s), report


# ----------------------------------------------------------------------
# public operations


def prec_richardson(M, P, b, x0=None, cfg: RichardsonConfig | None = None):
    """Preconditioned Richardson iteration ``x <- x - P(M x - b)``.

    ``M`` may be a :class:`SparseMatrix` or a callable forward map; ``P`` a
    :class:`LinearOperator` or callable.  Stops when the l2 residual norm
    drops below ``cfg.tolerance`` times the initial one.  Otherwise it
    flags ``iteration_cap`` in the report when the cap runs out, or
    ``non_finite`` at the first residual norm that is NaN or infinite
    (statuses, not errors).  Returns ``(x, report)`` with per-iteration
    residual norms.
    """
    if cfg is None:
        raise ValueError("cfg is required")
    if isinstance(M, SparseMatrix):
        forward = M.matvec
    elif callable(M):
        forward = M
    else:
        raise TypeError("M must be a SparseMatrix or a callable forward map")
    precond = P.apply if isinstance(P, LinearOperator) else P
    b = as_vector(b, name="b")
    x = np.zeros_like(b) if x0 is None else as_vector(x0, b.shape[0], "x0").copy()

    residual = forward(x) - b
    r0 = float(np.linalg.norm(residual))
    report = SolveReport(residuals=[r0])
    if r0 == 0.0:
        return x, report
    target = cfg.tolerance * r0
    for it in range(1, cfg.max_iterations + 1):
        x = x - precond(residual)
        residual = forward(x) - b
        rn = float(np.linalg.norm(residual))
        report.residuals.append(rn)
        report.iterations = it
        if rn < target:
            return x, report
        if not math.isfinite(rn):
            report.status = NON_FINITE
            return x, report
    report.status = ITERATION_CAP
    return x, report


def solve_from_scale(M: SparseMatrix, scale: ScalingPair, delta: float) -> MSolveOperators:
    """Turn an RCDD scaling of an M-matrix into approximate inverse operators.

    ``p_right`` applies ``x -> R Z(L x)`` with the inner dominant solve run at
    tolerance ``delta / kappa(L)``, giving ``||b - M p_right(b)||_2 <= delta
    ||b||_2`` per call (the transpose statement holds for ``p_left`` at
    tolerance ``delta / kappa(R)``).  The condition numbers of the diagonal
    scalings are computed exactly as max over min entry.  Both operators
    share one RCDD check and one solver of ``L M R`` (one LAPACK
    factorization, up to the dense cutoff).
    """
    _check_open_unit(delta, "delta")
    ell, r = scale.left, scale.right
    if ell.shape[0] != M.n_rows or r.shape[0] != M.n_cols:
        raise ValueError("scaling length does not match the matrix")
    S = apply_scaling(ell, M, r)
    Z_right = build_rcdd_solver(S, delta / scale.kappa_left)
    Z_left = Z_right.transpose(delta / scale.kappa_right)

    csr = M.csr()
    csr_t = M.csr_transpose()

    def right_fn(x):
        y = r * Z_right.apply(ell * x)
        nx = np.linalg.norm(x)
        rel = 0.0 if nx == 0.0 else float(np.linalg.norm(x - csr @ y) / nx)
        return y, rel, Z_right.report.info["iterations_per_call"][-1]

    def left_fn(x):
        y = ell * Z_left.apply(r * x)
        nx = np.linalg.norm(x)
        rel = 0.0 if nx == 0.0 else float(np.linalg.norm(x - csr_t @ y) / nx)
        return y, rel, Z_left.report.info["iterations_per_call"][-1]

    p_right = LinearOperator(right_fn, M.n_rows, delta, "l2")
    p_left = LinearOperator(left_fn, M.n_rows, delta, "l2")
    return MSolveOperators(p_right=p_right, p_left=p_left, delta=delta)


def mmatrix_scale(A: SparseMatrix, s: float, eps: float, K: float):
    """Compute a positive diagonal pair making ``(1+eps) s I - A`` RCDD.

    ``K`` should dominate ``max(s ||M^-1||_inf, s ||M^-1||_1)`` for
    ``M = s I - A``; the bound is not checked and a violation (or
    ``rho(A) >= s``) surfaces as :class:`IterationCapHit`.  Returns
    ``(ScalingPair, SolveReport)`` with per-phase logs.
    """
    _, pair, report = _mmatrix_scale(A, s, eps, K)
    return pair, report


def _mmatrix_scale(A: SparseMatrix, s: float, eps: float, K: float):
    """:func:`mmatrix_scale` plus the problem whose ``scaled_shift(eps, left,
    right)`` it checked RCDD: ``(prob, pair, report)``."""
    if not A.is_nonnegative():
        raise ValueError("matrix must be entrywise nonnegative")
    if s <= 0.0 or eps <= 0.0 or K <= 0.0:
        raise ValueError("s, eps, K must be positive")
    try:
        prob, pair, report = _checked_scan(A, s, eps, K, scaling_iteration_cap(A.n_rows, K, eps))
    except _ScanFailure as fail:
        raise fail.cap_hit("scaling phase", "either rho(A) >= s or K is too small") from None
    report.info["solver_tolerance"] = _scan_tolerance(K)
    return prob, pair, report


def solve_m(A: SparseMatrix, s: float, eps: float, K: float) -> LinearOperator:
    """Operator ``P`` with ``||b - (s I - A) P(b)||_2 <= eps ||b||_2``.

    Scales the slightly shifted matrix ``(1+eps/3)(1+eps/2) s I - A`` (the
    composed shift stays within ``(1+eps) s``) and factors the scaled matrix
    it checked RCDD once.  Each application runs Richardson refinement
    against the true matrix, preconditioned by that factorization, until the
    l2 contract is met; no other residual is computed.
    """
    _check_open_unit(eps, "eps")
    if s <= 0.0:
        raise ValueError("s must be positive")
    s_mid = s * (1.0 + eps / 2.0)
    prob, pair, scale_report = _mmatrix_scale(A, s_mid, eps / 3.0, K)
    # solves with diag(l) ((1 + eps/3) I - A/s_mid) diag(r), hence the / s_mid below
    solver = _PhaseSolver(prob, eps / 3.0, pair.left, pair.right, tol=_scan_tolerance(K))

    n = A.n_rows
    csr = A.csr()

    def true_matvec(x):
        return s * x - csr @ x

    def precond(x):
        return solver.p_right(x) / s_mid

    cap = max(64, math.ceil(8.0 * (1.0 + eps * K) * math.log(n * max(K, 2.0) / eps)))
    cfg = RichardsonConfig(tolerance=eps, max_iterations=cap)

    def apply_fn(b):
        x, rep = prec_richardson(true_matvec, precond, b, None, cfg)
        if rep.status != CONVERGED:
            raise IterationCapHit(
                f"refinement against s I - A stopped ({rep.status}) after "
                f"{rep.iterations} of at most {cap} iterations",
                phase=None,
                alpha=None,
            )
        nb = np.linalg.norm(b)
        rel = 0.0 if nb == 0.0 else rep.residuals[-1] / nb
        return x, float(rel), rep.iterations

    op = LinearOperator(apply_fn, n, eps, "l2")
    op.report.info["scaling_phases"] = len(scale_report.phases)
    return op


# ----------------------------------------------------------------------
# symmetric path


def _symm_initial_scaling(prob: _Problem, cap: int):
    """Damped Richardson for the alpha = 1 level: ``v <- v - (M_1 v - 1)/4``."""
    n = prob.n
    ones = np.ones(n)
    v = np.zeros(n)
    res = -ones
    norms = [float(np.linalg.norm(res))]
    k = 0
    while np.abs(res).max() > 0.5:
        if k >= cap:
            raise IterationCapHit(
                "initial symmetric phase exceeded its cap", phase=0, alpha=1.0
            )
        v = v - 0.25 * res
        res = prob.shifted_matvec(1.0, v) - ones
        norms.append(float(np.linalg.norm(res)))
        k += 1
    # V M_1 V is SDD only for a positive finite v; a NaN residual ends the loop too
    if not np.all((v > 0.0) & (v < np.inf)):
        raise IterationCapHit(
            "initial symmetric phase left the positive finite range", phase=0, alpha=1.0
        )
    return v, norms


class _SymmLevels:
    """The halving levels of the symmetric scaling of a normalized ``A``,
    descended on demand from the damped ``alpha = 1`` level.

    At level ``alpha``, ``v`` scales ``M_alpha = (1 + alpha) I - A`` and
    :meth:`solver` is the one factorization of ``V M_alpha V`` (SDD): it serves
    a solve at that level and the step to the next.  A caller that needs a
    smaller shift continues from the last level instead of starting over.
    """

    def __init__(self, A: SparseMatrix):
        self.prob = _Problem(A, 1.0)
        self.alpha = 1.0
        self.report = SolveReport(alpha0=1.0)
        self._solver = None
        cap0 = math.ceil(8.0 * math.log(4.0 * self.prob.n))
        self.v, initial_residuals = _symm_initial_scaling(self.prob, cap0)
        self.report.info["initial_residuals"] = initial_residuals
        self.report.iterations += len(initial_residuals) - 1

    def solver(self) -> _PhaseSolver:
        if self._solver is None:
            # rho(A) < 1 bounds ||M_alpha^-1|| by 1 / alpha, the level's K
            tol = _scan_tolerance(1.0 / self.alpha)
            self._solver = _PhaseSolver(
                self.prob, self.alpha, self.v, self.v, symmetric=True, tol=tol
            )
        return self._solver

    def halve(self, cap: int) -> None:
        """Step to level ``alpha / 2``, preconditioned by this level's solver."""
        alpha = self.alpha / 2.0
        try:
            _, v, _ = _richardson_phase(
                self.prob, self.solver(), alpha, cap, self.report, two_sided=False, positive=True
            )
        except _ScanFailure as fail:
            raise fail.cap_hit("symmetric phase", "rho(A) < 1 appears violated") from None
        self.v, self.alpha, self._solver = v, alpha, None

    def scale(self, eps: float) -> np.ndarray:
        """``v`` making ``V ((1 + eps) I - A) V`` SDD.  The phases this call
        adds run with the cap of this ``eps`` and are logged in ``report``."""
        cap = math.ceil(8.0 * math.log(8.0 * self.prob.n / min(eps, 1.0)))
        while self.alpha > eps:
            self.halve(cap)
        return self.v


def _check_symmetric_nonnegative(A: SparseMatrix):
    if not A.is_square:
        raise ValueError("expected a square matrix")
    if not A.is_nonnegative():
        raise ValueError("matrix must be entrywise nonnegative")
    if not _is_symmetric(A):
        raise ValueError("matrix must be symmetric")


def symm_scale(A: SparseMatrix, eps: float):
    """Positive diagonal ``v`` with ``diag(v) ((1+eps) I - A) diag(v)`` SDD.

    Assumes ``A`` symmetric nonnegative with ``rho(A) < 1`` (normalized
    problem).  Returns ``(v, report)``; the report carries the l2 residual
    sequence of the initial damped phase and per-phase iteration counts.
    """
    _check_symmetric_nonnegative(A)
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    levels = _SymmLevels(A)
    return levels.scale(eps), levels.report


def symm_solve(A: SparseMatrix, b, delta: float):
    """Solve ``(I - A) x = b`` for symmetric nonnegative ``A`` with
    ``rho(A) < 1`` to ``||(I - A) x - b||_2 <= delta ||b||_2``.

    Descends the halving levels of the symmetric scaling and attempts a short
    Richardson refinement against ``I - A`` at every level, returning at the
    first level whose shifted solver is strong enough.  One factorization of
    the level matrix serves each level: its refinement and the step to the
    next level.  Each refinement starts from the best earlier iterate.
    """
    _check_symmetric_nonnegative(A)
    _check_open_unit(delta, "delta")
    b = as_vector(b, A.n_rows, "b")
    levels = _SymmLevels(A)
    n = levels.prob.n
    csr = A.csr()

    def forward(x):
        return x - csr @ x

    per_level = 4 + math.ceil(3.0 * math.log2(2.0 / delta))
    report = SolveReport()
    alpha_floor = 1e-14
    level = 0
    # best iterate so far, from x = 0; prec_richardson stops relative to its
    # starting residual r0, so delta ||b|| / r0 keeps the target delta ||b||
    nb = np.linalg.norm(b)
    x0, r0 = None, nb
    while levels.alpha > alpha_floor:
        tolerance = delta if x0 is None else delta * nb / r0
        cfg = RichardsonConfig(tolerance, max_iterations=per_level)
        x, rep = prec_richardson(forward, levels.solver().p_right, b, x0, cfg)
        level += 1
        report.iterations += rep.iterations
        report.residuals.append(rep.residuals[-1])
        if rep.status == CONVERGED:
            report.info["levels"] = level
            report.info["alpha"] = levels.alpha
            return x, report
        if rep.residuals[-1] < r0:
            x0, r0 = x, rep.residuals[-1]
        levels.halve(math.ceil(8.0 * math.log(8.0 * n / min(levels.alpha / 2.0, 1.0))))
    raise IterationCapHit(
        "no halving level produced a strong enough solver; the matrix is "
        "singular at working precision",
        phase=level,
        alpha=levels.alpha,
    )


def _normalized_comparison(M: SparseMatrix) -> SparseMatrix:
    """``(s' I - comparison(M)) / s'`` with ``s'`` the largest diagonal entry
    of ``M``: diagonal ``1 - M_ii / s'``, off-diagonal ``|M_ij| / s'``."""
    rows, cols, values = M.entries()
    diag_mask = rows == cols
    diag = np.zeros(M.n_rows)
    diag[rows[diag_mask]] = values[diag_mask]
    if np.any(diag <= 0.0):
        raise ValueError("matrix must have a strictly positive diagonal")
    s_prime = float(diag.max())

    off = ~diag_mask
    a_rows = np.concatenate([np.arange(M.n_rows), rows[off]])
    a_cols = np.concatenate([np.arange(M.n_rows), cols[off]])
    a_vals = np.concatenate([s_prime - diag, np.abs(values[off])])
    A_comp = SparseMatrix(M.n_rows, M.n_cols, a_rows, a_cols, a_vals)
    return A_comp.scaled(1.0 / s_prime)


def factor_width2_solve(M: SparseMatrix, b, delta: float):
    """Solve ``M x = b`` for a symmetric matrix asserted to have factor width 2.

    Forms the comparison matrix (off-diagonal magnitudes negated), scales its
    M-matrix form through the symmetric path, verifies that the resulting
    diagonal makes ``V M V`` diagonally dominant, and solves through the SDD
    route with Richardson refinement.  The shift search over 1/2, 1/8, 1/32,
    ... continues one descent of the halving levels, so each level is scaled
    and factored once.  Input that is not factor width 2 raises
    :class:`IterationCapHit` from a halving level, or
    :class:`NotSDDAfterScaling` when no shift makes ``V M V`` dominant.
    """
    if not M.is_square:
        raise ValueError("expected a square matrix")
    _check_open_unit(delta, "delta")
    b = as_vector(b, M.n_rows, "b")
    A_norm = _normalized_comparison(M)
    _check_symmetric_nonnegative(A_norm)
    levels = _SymmLevels(A_norm)

    eps_try = 0.5
    while eps_try >= 1e-8:
        v = levels.scale(eps_try)
        S = apply_scaling(v, M, v)
        if check_sdd(S, RCDD_VERIFY_SLACK):
            break
        eps_try /= 4.0
    else:
        raise NotSDDAfterScaling(
            "no shift produced a dominant scaling of V M V; the input is not "
            "factor width 2 (or is numerically singular)"
        )

    Z = build_sdd_solver(S, 0.25)

    def precond(x):
        return v * Z.apply(v * x)

    cap = max(64, math.ceil(8.0 * math.log(4.0 / min(delta, 1.0))))
    cfg = RichardsonConfig(tolerance=delta, max_iterations=cap)
    x, report = prec_richardson(M, precond, b, None, cfg)
    if report.status != CONVERGED:
        raise IterationCapHit(
            f"factor-width-2 refinement stopped ({report.status})", phase=None, alpha=None
        )
    report.info["shift"] = eps_try
    report.info["scaling"] = v
    return x, report
