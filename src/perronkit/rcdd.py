"""Desk-scale solver backends behind the RCDD / SDD solve contracts.

The upstream algorithms only ever use these solvers as black boxes with a
relative-error contract, so the nearly-linear-time machinery they were
designed around is replaced here by interchangeable backends.

Every solver, for a matrix the engine forms (``scaling._PhaseSolver``) and
for a caller's own (:func:`build_rcdd_solver`, :func:`build_sdd_solver`),
comes from :func:`_phase_backend`, and the storage :func:`_storage` gives
alone picks it: LAPACK factors a dense array up to ``_DENSE_CUTOFF``
unknowns, and a CSR matrix above it goes to :class:`_KrylovSolver`,
matvec-only Jacobi-preconditioned BiCGSTAB, the one Krylov method (an SDD
matrix is an RCDD matrix).  Both answer ``solve(b, transpose, tol)``: a
Krylov solve runs to the relative residual ``tol``, which an LU ignores, in
``_KRYLOV_PASSES`` passes; after each it recomputes its true residual
``||b - S x||`` and, while that misses, restarts from ``x`` and that
residual with a fresh recurrence.  A solve that misses after its last pass
raises :class:`BackendDiverged`, and each caller turns that into its own
typed outcome.  Above the cutoff the engine's matrices are CSR matrices on
one pattern per problem, built once; a new scale only writes new values
into it.  The bracket's step matrix on that pattern, with its transpose
view and inverse diagonal, is refreshed in place at each step, so a step's
:class:`_KrylovSolver` takes all three from it and constructs no matrix.

A built :class:`LinearOperator` recomputes the residual of every
application: an LU solve is refined toward ``min(eps, _LU_AIM)``, a Krylov
solve runs to ``eps``, and a residual above the contract raises
:class:`BackendDiverged`.  The operator is deterministic, immutable, and
records the achieved relative residual and the backend's iterations of
every application in a report side channel.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import BackendDiverged, NotRCDD, NotSDD
from .reports import SolveReport
from .sparse import (
    RCDD_VERIFY_SLACK,
    SparseMatrix,
    _check_open_unit,
    _line_sums,
    as_vector,
    check_rcdd,
    check_sdd,
)

__all__ = [
    "LinearOperator",
    "build_rcdd_solver",
    "build_sdd_solver",
    "varah_kappa_upper",
]

# up to this many unknowns the solves are dense LAPACK LU, above it matvec-only
# Krylov: at n = 300 a Perron certificate on a ring graph takes half its time
# on Krylov
_DENSE_CUTOFF = 300
# iterations one Krylov solve may spend, and the passes it spends them in: each
# pass ends at its share of the cap or at convergence of its recurrence, and
# the next restarts from x while the true residual misses.  A restart repairs a
# recurrence that stagnated near a nearly singular shift-and-invert step.
_KRYLOV_CAP = 5000
_KRYLOV_PASSES = 4
# the relative residual an LU-backed apply refines toward, whatever its contract
_LU_AIM = 1e-13

# the dense triangular solve, fetched once: scipy.linalg.lu_solve costs several
# times the LAPACK call at the sizes below the cutoff
_getrs = scipy.linalg.get_lapack_funcs("getrs", dtype=np.float64)

def _storage(csr: sp.csr_matrix):
    """The array the solvers work on: dense up to ``_DENSE_CUTOFF`` unknowns,
    where LAPACK and BLAS beat sparse kernels, CSR above.  The array type
    alone picks the backend (see :func:`_phase_backend`)."""
    return csr.toarray() if csr.shape[0] <= _DENSE_CUTOFF else csr


class _DirectSolver:
    """The package's one LU with partial pivoting: LAPACK's, of a dense
    array, computed once; the factorization serves both ``S x = b`` and
    ``S.T x = b``.  Every solver up to ``_DENSE_CUTOFF`` unknowns is one (see
    :func:`_phase_backend`).  Deterministic.  Its solves are exact up to
    rounding, ignore ``tol`` and check no residual; ``iterations`` counts
    them, and a checked apply refines them toward ``aim``.
    """

    aim = _LU_AIM

    def __init__(self, S: np.ndarray):
        self.S = S
        # an exactly singular S warns here and solves to non-finite values
        self._lu = scipy.linalg.lu_factor(S, check_finite=False)
        self.iterations = 0

    def solve(self, b: np.ndarray, transpose: bool, tol: float) -> np.ndarray:
        x, info = _getrs(*self._lu, b, trans=int(transpose))
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK getrs")
        self.iterations += 1
        return x

    def matvec(self, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        return (self.S.T if transpose else self.S) @ x


class _KrylovSolver:
    """Matvec-only solves of ``S x = b`` and ``S.T x = b`` for a CSR ``S``
    with a positive diagonal, to ``||b - S x||_2 <= tol ||b||_2`` with the
    ``tol`` of each solve.

    Runs BiCGSTAB preconditioned by the diagonal, in ``_KRYLOV_PASSES``
    passes of at most ``_KRYLOV_CAP // _KRYLOV_PASSES`` iterations.  A
    Krylov recurrence tracks its residual only approximately and can
    stagnate, so after each pass the solve recomputes the true residual and,
    while it misses, restarts from ``x`` and that residual with a fresh
    recurrence.  A residual below the rounding error of its own computation,
    ``(k + 1) eps (||S||_F ||x|| + ||b||)`` with ``k`` the most entries in a
    row or column of ``S``, passes too: no solver, an LU included, can be
    checked to do better, and near a singular ``S`` (late steps of the
    shift-and-invert bracket) or at a ``tol`` below machine precision (a
    scan with a huge ``K``) that bound is the larger.

    A solve still missing after its last pass raises
    :class:`BackendDiverged`.  ``iterations`` counts the Krylov iterations
    of every solve.  Deterministic.  ``S_t`` (a transpose view of ``S``)
    and ``inv_diag`` (the reciprocals of its diagonal) default to their own
    computation, one CSC and one diagonal extraction; a caller that keeps
    them current for a matrix it refreshes in place passes them in.
    """

    aim = math.inf

    def __init__(self, S: sp.csr_matrix, S_t=None, inv_diag=None):
        self.S = S
        self._S_t = S.T if S_t is None else S_t
        self._inv_diag = 1.0 / S.diagonal() if inv_diag is None else inv_diag
        self._floor_terms = None
        self.iterations = 0

    def solve(self, b: np.ndarray, transpose: bool, tol: float) -> np.ndarray:
        return self._krylov(self._S_t if transpose else self.S, b, tol)

    def _krylov(self, mat, b: np.ndarray, tol: float) -> np.ndarray:
        matvec = mat.__matmul__
        norm_b = np.linalg.norm(b)
        target = tol * norm_b
        # the zero start's residual is b itself
        x, r = np.zeros_like(b), b
        spent = 0
        for _ in range(_KRYLOV_PASSES):
            x, its = _bicgstab_core(
                matvec, r, target, _KRYLOV_CAP // _KRYLOV_PASSES, x, self._inv_diag
            )
            spent += its
            self.iterations += its
            r = b - matvec(x)
            residual = np.linalg.norm(r)
            if residual <= target or residual <= self._floor(x, norm_b):
                return x
        raise BackendDiverged(
            f"Krylov phase solve missed its tolerance {tol:.3e}: true residual "
            f"{residual:.3e} of {norm_b:.3e} after {spent} iterations"
        )

    def _floor(self, x: np.ndarray, norm_b: float) -> float:
        """The rounding error of computing ``b - S x`` (or ``b - S.T x``),
        its ingredients computed on first use."""
        if self._floor_terms is None:
            S = self.S
            k = max(np.diff(S.indptr).max(initial=0), np.bincount(S.indices).max(initial=0))
            self._floor_terms = ((k + 1) * np.finfo(float).eps, np.linalg.norm(S.data))
        eps_k, norm_S = self._floor_terms
        return eps_k * (norm_S * np.linalg.norm(x) + norm_b)

    def matvec(self, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        return (self._S_t if transpose else self.S) @ x


def _phase_backend(S, S_t=None, inv_diag=None):
    """The package's one choice of solver, for a matrix the engine formed or
    a caller's own, by its storage alone (see :func:`_storage`): LAPACK for
    a dense ``S``, which solves exactly up to rounding, and
    :class:`_KrylovSolver` for a CSR ``S``.  A CSR ``S`` may come with its
    transpose view ``S_t`` and the reciprocals of its diagonal ``inv_diag``
    when its owner keeps them current (the bracket's step matrix, refreshed
    in place); the solver then builds neither."""
    if isinstance(S, np.ndarray):
        return _DirectSolver(S)
    return _KrylovSolver(S, S_t, inv_diag)


class LinearOperator:
    """Black-box approximate solve ``x -> Z(x)`` with an error contract.

    ``error_bound`` is the contracted relative error, in the l2 norm for
    RCDD solves and the ``S``-energy norm for SDD solves.  Every application
    appends the achieved relative l2 residual
    and the backend's iterations to ``report``: Krylov iterations for a
    Krylov-backed operator, the LU solves (one plus the refinement steps)
    for an LU-backed one.  ``transpose_fn``, when given, maps an error bound
    to the apply function of the transposed system (see :meth:`transpose`).
    """

    def __init__(self, apply_fn, n, error_bound, transpose_fn=None):
        self._apply_fn = apply_fn
        self.n = n
        self.error_bound = float(error_bound)
        self.report = SolveReport(info={"iterations_per_call": []})
        self._transpose_fn = transpose_fn

    def transpose(self, error_bound: float) -> "LinearOperator":
        """Operator solving the transposed system to ``error_bound``, from
        this operator's solver (one factorization, when it has one); only
        RCDD solvers have one."""
        if self._transpose_fn is None:
            raise TypeError("only operators from build_rcdd_solver have a transpose")
        _check_open_unit(error_bound, "eps")
        return LinearOperator(self._transpose_fn(error_bound), self.n, error_bound)

    def apply(self, x) -> np.ndarray:
        x = as_vector(x, self.n)
        y, rel_residual, iterations = self._apply_fn(x)
        self.report.residuals.append(rel_residual)
        self.report.iterations += iterations
        self.report.info["iterations_per_call"].append(iterations)
        return y

    __call__ = apply


def varah_kappa_upper(S) -> float:
    """Computable upper bound on the 2-norm condition number of a strictly
    row-column diagonally dominant matrix: a :class:`SparseMatrix`, a CSR
    matrix or a dense array.

    Uses ``||S^-1||_2 <= 1 / sqrt(beta_r * beta_c)`` where the betas are the
    worst row/column dominance margins, and ``||S||_2 <= sqrt(||S||_1 ||S||_inf)``.
    Returns ``inf`` when a margin is nonpositive.
    """
    diag, row_off, col_off = _line_sums(S)
    beta_r = float((diag - row_off).min(initial=np.inf))
    beta_c = float((diag - col_off).min(initial=np.inf))
    if beta_r <= 0.0 or beta_c <= 0.0:
        return np.inf
    abs_diag = np.abs(diag)
    norm_2_sq = (abs_diag + row_off).max(initial=0.0) * (abs_diag + col_off).max(initial=0.0)
    return float(np.sqrt(norm_2_sq) / np.sqrt(beta_r * beta_c))


def _checked_apply(solver, eps: float, transpose: bool):
    """The apply function ``x -> (z, rel, iterations)`` of an operator over a
    solver from :func:`_phase_backend`, with ``rel = ||x - S z|| / ||x||``
    recomputed.  Each solve runs to ``eps``, and up to three refinement steps
    aim the residual at ``min(eps, solver.aim)``: below the contract for an
    LU, at it for a Krylov solve.  A residual above ``eps``, or not finite,
    raises :class:`BackendDiverged`."""
    target = min(eps, solver.aim)

    def apply_fn(x):
        spent = solver.iterations
        z = solver.solve(x, transpose, eps)
        norm_x = np.linalg.norm(x)
        rel = 0.0
        refinements = 0
        if norm_x != 0.0:
            rel = np.linalg.norm(x - solver.matvec(z, transpose)) / norm_x
            while rel > target and refinements < 3:
                z = z + solver.solve(x - solver.matvec(z, transpose), transpose, eps)
                rel = np.linalg.norm(x - solver.matvec(z, transpose)) / norm_x
                refinements += 1
        if not rel <= eps:
            raise BackendDiverged(
                f"backend residual {rel:.3e} above eps={eps:.3e} after "
                f"{refinements} refinements; matrix is too ill-conditioned"
            )
        return z, float(rel), solver.iterations - spent

    return apply_fn


def _bicgstab_core(matvec, r, eps_abs, cap, x, inv_diag):
    """BiCGSTAB from ``x``, whose residual ``b - S x`` the caller passes as
    ``r``, preconditioned on the right by the diagonal ``1 / inv_diag``;
    returns ``(x, iterations)`` once the recurrence residual is at most
    ``eps_abs``, after ``cap`` iterations, or early at a breakdown (a
    vanishing or non-finite inner product); the caller meets the last two
    with a restart."""
    x = x.copy()
    if np.linalg.norm(r) <= eps_abs:
        return x, 0
    r_hat = r.copy()
    rho = alpha = omega = 1.0
    p = v = np.zeros_like(r)
    for it in range(1, cap + 1):
        rho_new = float(r_hat @ r)
        if rho_new == 0.0 or omega == 0.0 or not math.isfinite(rho_new):
            return x, it - 1
        p = r + ((rho_new / rho) * (alpha / omega)) * (p - omega * v)
        p_hat = inv_diag * p
        v = matvec(p_hat)
        rv = float(r_hat @ v)
        alpha = rho_new / rv if rv != 0.0 else math.inf
        if not math.isfinite(alpha):
            return x, it
        x += alpha * p_hat
        s = r - alpha * v
        if np.linalg.norm(s) <= eps_abs:
            return x, it
        s_hat = inv_diag * s
        t = matvec(s_hat)
        tt = float(t @ t)
        if tt == 0.0:
            return x, it
        omega = float(t @ s) / tt
        x += omega * s_hat
        r = s - omega * t
        rho = rho_new
        if np.linalg.norm(r) <= eps_abs:
            return x, it
    return x, cap


def build_rcdd_solver(S: SparseMatrix, eps: float) -> LinearOperator:
    """Operator ``Z`` with ``||x - S @ Z(x)||_2 <= eps * ||x||_2`` per call;
    ``Z.transpose(eps_t)`` solves with ``S.T`` on the same solver.

    The solver comes from :func:`_phase_backend`, as every other: LAPACK LU up
    to ``_DENSE_CUTOFF`` unknowns, Jacobi-preconditioned BiCGSTAB above.
    Raises :class:`NotRCDD` when ``S`` is not RCDD within
    ``RCDD_VERIFY_SLACK``.  Applying the operator raises
    :class:`BackendDiverged` when the backend misses ``eps``, a Krylov solve
    after its last pass included; the error propagates to the caller.
    """
    _check_open_unit(eps, "eps")
    if not check_rcdd(S, RCDD_VERIFY_SLACK):
        raise NotRCDD(f"matrix is not RCDD within slack {RCDD_VERIFY_SLACK:.1e}")
    solver = _phase_backend(_storage(S.csr()))
    apply_fn = _checked_apply(solver, eps, False)
    return LinearOperator(apply_fn, S.n_rows, eps, lambda e: _checked_apply(solver, e, True))


def build_sdd_solver(S: SparseMatrix, eps: float) -> LinearOperator:
    """Operator ``Z`` with ``||S^-1 x - Z(x)||_S <= eps * ||S^-1 x||_S``.

    The energy-norm contract is enforced by driving the l2 residual below
    ``eps / sqrt(kappa_hat)`` with ``kappa_hat`` the computable dominance
    bound on the condition number; an LU satisfies any usable ``eps``
    outright.  The solver comes from :func:`_phase_backend`, as every other:
    LAPACK LU up to ``_DENSE_CUTOFF`` unknowns, Jacobi-preconditioned
    BiCGSTAB above.  Applying the operator raises
    :class:`BackendDiverged` when the backend misses that l2 target.  The
    side channel records l2 residuals.
    """
    _check_open_unit(eps, "eps")
    if not check_sdd(S, RCDD_VERIFY_SLACK):
        raise NotSDD(f"matrix is not SDD within slack {RCDD_VERIFY_SLACK:.1e}")
    solver = _phase_backend(_storage(S.csr()))
    return LinearOperator(_checked_apply(solver, _sdd_l2_tolerance(S, eps), False), S.n_rows, eps)


def _sdd_l2_tolerance(S: SparseMatrix, eps: float) -> float:
    """The relative l2 residual that implies the energy contract ``eps`` of a
    solve with the SDD ``S``: ``eps / sqrt(kappa_hat)``, ``kappa_hat`` the
    computable dominance bound on its condition number (capped at 1e12),
    floored at what double precision plus refinement can deliver."""
    kappa_hat = min(varah_kappa_upper(S), 1e12)
    return max(eps / np.sqrt(max(kappa_hat, 1.0)), _LU_AIM)
