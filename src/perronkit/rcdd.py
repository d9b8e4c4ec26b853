"""Desk-scale solver backends behind the RCDD / SDD solve contracts.

The upstream algorithms only ever use these solvers as black boxes with a
relative-error contract, so the nearly-linear-time machinery they were
designed around is replaced here by three interchangeable backends:

* ``direct-lu`` (default): one LU factorization with partial pivoting, plus
  iterative refinement until the requested tolerance is met.  Dense LAPACK
  storage below ``_DENSE_CUTOFF`` unknowns, SuperLU above; dense solves call
  LAPACK ``getrs`` directly, without the ``lu_solve`` wrapper.  The same LU
  class, unrefined, factors every matrix the engine forms itself (through
  ``scaling._PhaseSolver``); above the cutoff those are CSR matrices on one
  pattern per problem, of which each use only rescales the values.  SDD
  solves (symmetry checked by ``build_sdd_solver``) and the symmetric levels
  (symmetric by construction) use a symmetric minimum-degree ordering;
  everything else keeps SuperLU's default COLAMD.
* ``richardson-jacobi``: diagonally preconditioned Richardson iteration.
* ``conjugate-gradient-symmetrized``: CG on the matrix itself when symmetric,
  on the normal equations otherwise.

A built :class:`LinearOperator` is deterministic, immutable, and records the
achieved relative residual of every application in a report side channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import BackendDiverged, NotRCDD, NotSDD
from .reports import SolveReport
from .sparse import (
    RCDD_VERIFY_SLACK,
    SparseMatrix,
    _array,
    _dominance_margins,
    as_vector,
    check_rcdd,
    check_sdd,
)

__all__ = [
    "BackendChoice",
    "LinearOperator",
    "build_rcdd_solver",
    "build_sdd_solver",
    "varah_kappa_upper",
]

_DENSE_CUTOFF = 128

# the dense triangular solve, fetched once: scipy.linalg.lu_solve costs several
# times the LAPACK call at the sizes below the cutoff
_getrs = scipy.linalg.get_lapack_funcs("getrs", dtype=np.float64)

DIRECT_LU = "direct-lu"
RICHARDSON_JACOBI = "richardson-jacobi"
CG_SYMMETRIZED = "conjugate-gradient-symmetrized"
_KINDS = (DIRECT_LU, RICHARDSON_JACOBI, CG_SYMMETRIZED)


@dataclass(frozen=True)
class BackendChoice:
    """Solver backend selection with an iteration budget.

    ``inner_tolerance`` is the residual the backend aims for on each
    application when it can afford to (the direct backend refines down to
    ``min(eps, inner_tolerance)``); only the contracted ``eps`` gates errors.
    """

    kind: str = DIRECT_LU
    max_iterations: int = 10_000
    inner_tolerance: float = 1e-13

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown backend kind {self.kind!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (0.0 < self.inner_tolerance < 1.0):
            raise ValueError("inner_tolerance must lie in (0, 1)")


def _storage(csr: sp.csr_matrix):
    """The array the solvers work on: dense up to ``_DENSE_CUTOFF`` unknowns,
    where LAPACK and BLAS beat sparse kernels, CSR above.  Every class below
    follows the array type it is handed."""
    return csr.toarray() if csr.shape[0] <= _DENSE_CUTOFF else csr


class _DirectSolver:
    """The package's one LU with partial pivoting.

    Factors the storage it is handed, a dense array with LAPACK or a CSR
    matrix with SuperLU, once; the factorization serves both ``S x = b`` and
    ``S.T x = b``.  Deterministic.  SuperLU orders columns by COLAMD, or,
    for a matrix the caller knows is ``symmetric`` (checked, or symmetric by
    construction), by minimum degree on ``S.T + S`` with diagonal pivots
    preferred, which keeps far less fill on SDD matrices.
    """

    def __init__(self, S, symmetric: bool = False):
        self.S = S
        self._dense = isinstance(S, np.ndarray)
        if self._dense:
            # an exactly singular S warns here and solves to non-finite values
            self._lu = scipy.linalg.lu_factor(S, check_finite=False)
        elif symmetric:
            self._lu = spla.splu(
                S.tocsc(), permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True}
            )
        else:
            self._lu = spla.splu(S.tocsc())

    def solve(self, b: np.ndarray, transpose: bool = False) -> np.ndarray:
        if self._dense:
            x, info = _getrs(*self._lu, b, trans=int(transpose))
            if info < 0:
                raise ValueError(f"illegal value in argument {-info} of LAPACK getrs")
            return x
        return self._lu.solve(b, trans="T" if transpose else "N")

    def matvec(self, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        return (self.S.T if transpose else self.S) @ x


def _check_eps(eps: float) -> None:
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")


class LinearOperator:
    """Black-box approximate solve ``x -> Z(x)`` with an error contract.

    ``error_bound`` is the contracted relative error, ``norm_tag`` the norm
    the contract is stated in (``"l2"`` for RCDD solves, ``"s-energy"`` for
    SDD solves).  Every application appends the achieved relative l2 residual
    and the backend iteration count to ``report``.
    """

    def __init__(self, apply_fn, n, error_bound, norm_tag):
        self._apply_fn = apply_fn
        self.n = n
        self.error_bound = float(error_bound)
        self.norm_tag = norm_tag
        self.report = SolveReport(info={"iterations_per_call": []})
        # set by build_rcdd_solver: error bound -> apply function for S.T
        self._transpose_fn = None

    def transpose(self, error_bound: float) -> "LinearOperator":
        """Operator solving the transposed system to ``error_bound``, from
        this operator's factorization; only RCDD solvers have one."""
        if self._transpose_fn is None:
            raise TypeError("only operators from build_rcdd_solver have a transpose")
        _check_eps(error_bound)
        return LinearOperator(
            self._transpose_fn(error_bound), self.n, error_bound, self.norm_tag
        )

    def apply(self, x) -> np.ndarray:
        x = as_vector(x, self.n)
        y, rel_residual, iterations = self._apply_fn(x)
        self.report.residuals.append(rel_residual)
        self.report.iterations += iterations
        self.report.info["iterations_per_call"].append(iterations)
        return y

    __call__ = apply


def _abs_sums(S) -> tuple[np.ndarray, np.ndarray]:
    """Row and column sums of ``|S|`` for a dense array or a CSR matrix."""
    if isinstance(S, np.ndarray):
        abs_S = np.abs(S)
        return abs_S.sum(axis=1), abs_S.sum(axis=0)
    # the sums of scipy's abs(S).sum(axis=...), added the same way, without
    # building abs(S): duplicates merged first (in place, as scipy does; a
    # no-op on canonical input), then reduceat over the nonempty rows only,
    # since it returns the next entry for an empty segment
    S = S.tocsr()
    S.sum_duplicates()
    abs_data = np.abs(S.data)
    nonempty = np.flatnonzero(np.diff(S.indptr))
    row_abs = np.zeros(S.shape[0])
    if nonempty.size:
        row_abs[nonempty] = np.add.reduceat(abs_data, S.indptr[nonempty])
    return row_abs, np.bincount(S.indices, abs_data, S.shape[1])


def varah_kappa_upper(S) -> float:
    """Computable upper bound on the 2-norm condition number of a strictly
    row-column diagonally dominant matrix: a :class:`SparseMatrix`, a CSR
    matrix or a dense array.

    Uses ``||S^-1||_2 <= 1 / sqrt(beta_r * beta_c)`` where the betas are the
    worst row/column dominance margins, and ``||S||_2 <= sqrt(||S||_1 ||S||_inf)``.
    Returns ``inf`` when a margin is nonpositive.
    """
    row_margin, col_margin, _ = _dominance_margins(S)
    beta_r = float(row_margin.min(initial=np.inf))
    beta_c = float(col_margin.min(initial=np.inf))
    if beta_r <= 0.0 or beta_c <= 0.0:
        return np.inf
    row_abs, col_abs = _abs_sums(_array(S))
    norm_2_sq = row_abs.max(initial=0.0) * col_abs.max(initial=0.0)
    return float(np.sqrt(norm_2_sq) / np.sqrt(beta_r * beta_c))


def _direct_apply(solver: _DirectSolver, eps: float, transpose: bool, aim: float = 1e-13):
    target = min(eps, aim)

    def apply_fn(x):
        z = solver.solve(x, transpose)
        norm_x = np.linalg.norm(x)
        if norm_x == 0.0:
            return z, 0.0, 1
        rel = np.linalg.norm(x - solver.matvec(z, transpose)) / norm_x
        refinements = 0
        while rel > target and refinements < 3:
            z = z + solver.solve(x - solver.matvec(z, transpose), transpose)
            rel = np.linalg.norm(x - solver.matvec(z, transpose)) / norm_x
            refinements += 1
        if rel > eps:
            raise BackendDiverged(
                f"direct backend residual {rel:.3e} above eps={eps:.3e} "
                "after refinement; matrix is too ill-conditioned"
            )
        return z, float(rel), 1 + refinements

    return apply_fn


def _jacobi_apply(S_csr, eps, cap, transpose):
    mat = S_csr.T.tocsr() if transpose else S_csr
    diag = mat.diagonal()
    if np.any(diag == 0.0):
        raise ValueError("Jacobi backend requires a nonzero diagonal")

    def apply_fn(x):
        norm_x = np.linalg.norm(x)
        if norm_x == 0.0:
            return np.zeros_like(x), 0.0, 0
        z = np.zeros_like(x)
        r = x.copy()
        for it in range(1, cap + 1):
            z += r / diag
            r = x - mat @ z
            rel = np.linalg.norm(r) / norm_x
            if rel <= eps:
                return z, float(rel), it
        raise BackendDiverged(
            f"richardson-jacobi exceeded {cap} iterations (residual {rel:.3e})"
        )

    return apply_fn


def _cg_core(matvec, b, eps_abs, cap):
    """Plain conjugate gradient; returns (x, iterations)."""
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    for it in range(1, cap + 1):
        Ap = matvec(p)
        denom = float(p @ Ap)
        if denom <= 0.0:
            raise BackendDiverged("conjugate gradient met a nonpositive curvature")
        alpha = rs / denom
        x += alpha * p
        r -= alpha * Ap
        rs_new = float(r @ r)
        if np.sqrt(rs_new) <= eps_abs:
            return x, it
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise BackendDiverged(f"conjugate gradient exceeded {cap} iterations")


def _cg_apply_normal(S_csr, eps, cap, transpose):
    """CG on the normal equations for an asymmetric RCDD matrix; the stopping
    rule checks the true residual of the original system."""
    mat = S_csr.T.tocsr() if transpose else S_csr
    mat_t = mat.T.tocsr()

    def apply_fn(x):
        norm_x = np.linalg.norm(x)
        if norm_x == 0.0:
            return np.zeros_like(x), 0.0, 0
        target = eps * norm_x
        z = np.zeros_like(x)
        r = mat_t @ x
        p = r.copy()
        rs = float(r @ r)
        for it in range(1, cap + 1):
            Ap = mat_t @ (mat @ p)
            denom = float(p @ Ap)
            if denom <= 0.0:
                raise BackendDiverged("normal-equation CG met nonpositive curvature")
            alpha = rs / denom
            z += alpha * p
            rel = np.linalg.norm(x - mat @ z) / norm_x
            if rel <= eps:
                return z, float(rel), it
            r -= alpha * Ap
            rs_new = float(r @ r)
            p = r + (rs_new / rs) * p
            rs = rs_new
        raise BackendDiverged(
            f"normal-equation CG exceeded {cap} iterations (target {target:.3e})"
        )

    return apply_fn


def _cg_apply_spd(S_csr, eps_l2, cap):
    def apply_fn(x):
        norm_x = np.linalg.norm(x)
        if norm_x == 0.0:
            return np.zeros_like(x), 0.0, 0
        z, it = _cg_core(lambda p: S_csr @ p, x, eps_l2 * norm_x, cap)
        rel = np.linalg.norm(x - S_csr @ z) / norm_x
        return z, float(rel), it

    return apply_fn


def build_rcdd_solver(
    S: SparseMatrix,
    eps: float,
    backend: BackendChoice | None = None,
) -> LinearOperator:
    """Operator ``Z`` with ``||x - S @ Z(x)||_2 <= eps * ||x||_2`` per call;
    ``Z.transpose(eps_t)`` solves with ``S.T`` from the same factorization.

    Raises :class:`NotRCDD` when ``S`` is not RCDD within
    ``RCDD_VERIFY_SLACK``.  Applying the operator raises
    :class:`BackendDiverged` when the backend misses ``eps``; the error
    propagates to the caller.
    """
    backend = backend or BackendChoice()
    _check_eps(eps)
    if not check_rcdd(S, RCDD_VERIFY_SLACK):
        raise NotRCDD(f"matrix is not RCDD within slack {RCDD_VERIFY_SLACK:.1e}")
    csr = S.csr()
    lu = _DirectSolver(_storage(csr)) if backend.kind == DIRECT_LU else None

    def apply_fn(eps, transpose):
        if backend.kind == DIRECT_LU:
            return _direct_apply(lu, eps, transpose, aim=backend.inner_tolerance)
        if backend.kind == RICHARDSON_JACOBI:
            return _jacobi_apply(csr, eps, backend.max_iterations, transpose)
        return _cg_apply_normal(csr, eps, backend.max_iterations, transpose)

    op = LinearOperator(apply_fn(eps, False), S.n_rows, eps, "l2")
    op._transpose_fn = lambda eps_t: apply_fn(eps_t, True)
    return op


def build_sdd_solver(
    S: SparseMatrix,
    eps: float,
    backend: BackendChoice | None = None,
) -> LinearOperator:
    """Operator ``Z`` with ``||S^-1 x - Z(x)||_S <= eps * ||S^-1 x||_S``.

    The energy-norm contract is enforced by driving the l2 residual below
    ``eps / sqrt(kappa_hat)`` with ``kappa_hat`` the computable dominance
    bound on the condition number; the direct backend satisfies any usable
    ``eps`` outright.  The side channel records l2 residuals.
    """
    backend = backend or BackendChoice()
    _check_eps(eps)
    if not check_sdd(S, RCDD_VERIFY_SLACK):
        raise NotSDD(f"matrix is not SDD within slack {RCDD_VERIFY_SLACK:.1e}")

    kappa_hat = min(varah_kappa_upper(S), 1e12)
    # the l2 target that implies the energy contract, floored at what double
    # precision plus refinement can deliver
    eps_l2 = max(eps / np.sqrt(max(kappa_hat, 1.0)), 1e-13)
    if backend.kind == DIRECT_LU:
        lu = _DirectSolver(_storage(S.csr()), symmetric=True)
        apply_fn = _direct_apply(lu, eps_l2, transpose=False, aim=backend.inner_tolerance)
    elif backend.kind == RICHARDSON_JACOBI:
        apply_fn = _jacobi_apply(S.csr(), eps_l2, backend.max_iterations, transpose=False)
    else:
        apply_fn = _cg_apply_spd(S.csr(), eps_l2, backend.max_iterations)
    return LinearOperator(apply_fn, S.n_rows, eps, "s-energy")
