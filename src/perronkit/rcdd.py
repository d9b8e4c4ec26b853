"""Desk-scale solver backends behind the RCDD / SDD solve contracts.

The upstream algorithms only ever use these solvers as black boxes with a
relative-error contract, so the nearly-linear-time machinery they were
designed around is replaced here by interchangeable backends.

Every solver, for a matrix the engine forms (``scaling._PhaseSolver``) and
for a caller's own (:func:`build_rcdd_solver`, :func:`build_sdd_solver`),
comes from :func:`_phase_backend`, and the size of the matrix alone picks
it: LAPACK factors a dense copy of it up to ``_DENSE_CUTOFF`` unknowns, and
above the cutoff :class:`_KrylovSolver`, matvec-only Jacobi-preconditioned
BiCGSTAB, the one Krylov method (an SDD matrix is an RCDD matrix), solves
with the CSR matrix itself.  Both answer ``solve(b, transpose, tol)``: a
Krylov solve runs to the relative residual ``tol``, which an LU ignores, in
``_KRYLOV_PASSES`` passes; after each it recomputes its true residual
``||b - S x||`` and, while that misses, restarts from ``x`` and that
residual with a fresh recurrence.  A solve that misses after its last pass
raises :class:`BackendDiverged`, and each caller turns that into its own
typed outcome.  The engine's matrices from one ``A`` are CSR matrices on
one pattern, that of ``A + I``, which ``A``'s pattern builds once and
keeps; a new scale or shift only writes new values into it.  Above the
cutoff the bracket's step matrix on that pattern is refreshed in place at
each step, so a step's :class:`_KrylovSolver` takes it and constructs no
matrix; like every solver of a matrix on that pattern, it reads the
reciprocals of the diagonal at the positions the pattern keeps, from the
values of the step at hand.  A Krylov pass runs at kernel cost: its products are
:func:`sparse._kernel_product` calls on the stored arrays, the transposed
ones by the column kernel on the same arrays, so that no transpose is
built (the bits of ``@``), and its vector updates write into buffers it
allocates once.

Every :class:`LinearOperator`, the engine's and a builder's, applies by
:func:`_refine`, the package's one refinement loop, its products and
rounding terms set up by :func:`_refined_apply`: Richardson steps of
one backend solve each until the computed residual plus a bound on its own
rounding meets the contract.  A builder's operator takes at most 4 steps,
and a miss raises :class:`BackendDiverged`.  The operator is
deterministic, immutable, and records the achieved relative residual and
the backend's iterations of every application in a report side channel.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import BackendDiverged, IterationCapHit, NotRCDD, NotSDD, RoundingFloorHit
from .reports import NON_FINITE, SolveReport
from .sparse import (
    RCDD_VERIFY_SLACK,
    SparseMatrix,
    _check_open_unit,
    _kept_line_sums,
    _kernel_product,
    apply_scaling,
    as_vector,
    check_rcdd,
    check_sdd,
    induced_norms,
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
# the least relative l2 residual an SDD solver's energy contract asks for
_SDD_L2_FLOOR = 1e-13

# the dense triangular solve, fetched once: scipy.linalg.lu_solve costs several
# times the LAPACK call at the sizes below the cutoff
_getrs = scipy.linalg.get_lapack_funcs("getrs", dtype=np.float64)


class _DirectSolver:
    """The package's one LU with partial pivoting: LAPACK's, computed once,
    of a dense array, kept as ``S``: the one it is handed, or the dense copy
    of a CSR matrix it is handed.  The factorization serves both ``S x = b``
    and ``S.T x = b``.  Every solver up to ``_DENSE_CUTOFF`` unknowns is one
    (see :func:`_phase_backend`).  Deterministic.  Its solves are exact up
    to rounding, ignore ``tol`` and check no residual; ``iterations`` counts
    them, and an operator's refinement repairs their rounding.
    """

    def __init__(self, S):
        # the bracket's step below the cutoff hands over its own dense array
        self.S = S if isinstance(S, np.ndarray) else S.toarray()
        # an exactly singular S warns here and solves to non-finite values
        self._lu = scipy.linalg.lu_factor(self.S, check_finite=False)
        self.iterations = 0

    def solve(self, b: np.ndarray, transpose: bool, tol: float) -> np.ndarray:
        x, info = _getrs(*self._lu, b, trans=int(transpose))
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK getrs")
        self.iterations += 1
        return x


class _KrylovSolver:
    """Matvec-only solves of ``S x = b`` and ``S.T x = b`` for a CSR ``S``
    with a positive diagonal, to ``||b - S x||_2 <= tol ||b||_2`` with the
    ``tol`` of each solve.

    Runs BiCGSTAB preconditioned by the diagonal, in ``_KRYLOV_PASSES``
    passes of at most ``_KRYLOV_CAP // _KRYLOV_PASSES`` iterations, each
    product one :func:`sparse._kernel_product` call on ``S``'s arrays
    (``csr_matvec``, or ``csc_matvec`` for a transposed solve), and each
    pass's vector updates in place (see :func:`_bicgstab_core`).  A
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
    of every solve.  Deterministic.  The reciprocals of the diagonal of
    ``S`` are read at the diagonal positions its pattern keeps when ``S``
    is a :class:`sparse._PatternCSR` that stores every diagonal entry
    (every matrix the engine forms on the pattern of ``A + I``, the
    bracket's step matrix included), else extracted.
    """

    def __init__(self, S: sp.csr_matrix):
        self.S = S
        # a plain scipy CSR has no pattern
        pattern = getattr(S, "pattern", None)
        if pattern is not None and pattern.diagonal.size == S.shape[0]:
            self._inv_diag = 1.0 / S.data.take(pattern.diagonal)
        else:
            self._inv_diag = 1.0 / S.diagonal()
        self._floor_terms = None
        self.iterations = 0

    def solve(self, b: np.ndarray, transpose: bool, tol: float) -> np.ndarray:
        matvec = functools.partial(_kernel_product, self.S, transpose=transpose)
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
            residual = math.sqrt(r.dot(r))
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


def _phase_backend(S):
    """The package's one choice of solver, for a matrix the engine formed or
    a caller's own, by its size alone: LAPACK (:class:`_DirectSolver`) up to
    ``_DENSE_CUTOFF`` unknowns, where LAPACK and BLAS beat sparse kernels,
    which solves exactly up to rounding, and :class:`_KrylovSolver` above,
    on the CSR ``S`` itself, whose transposed solves need no transpose."""
    if S.shape[0] <= _DENSE_CUTOFF:
        return _DirectSolver(S)
    return _KrylovSolver(S)


class LinearOperator:
    """Black-box approximate solve ``x -> Z(x)`` with an error contract.

    ``error_bound`` is the contracted relative error, in the l2 norm for
    RCDD solves and the ``S``-energy norm for SDD solves.  ``apply_fn``
    maps ``b`` to ``(x, refinement)``, the report of the :func:`_refine`
    that computed ``x``, whose steps solve with ``backend``.  Every
    application appends the achieved relative l2 residual and the
    backend's iterations to ``report``: Krylov iterations for a Krylov
    backend, LU solves (one per refinement step) for an LU.
    ``transpose_fn``, when given, maps an error bound to the apply function
    of the transposed system (see :meth:`transpose`).
    """

    def __init__(self, apply_fn, n, error_bound, backend, transpose_fn=None):
        self._apply_fn = apply_fn
        self.n = n
        self.error_bound = float(error_bound)
        self.report = SolveReport(info={"iterations_per_call": []})
        self._backend = backend
        self._transpose_fn = transpose_fn

    def transpose(self, error_bound: float) -> "LinearOperator":
        """Operator solving the transposed system to ``error_bound``, from
        this operator's solver (one factorization, when it has one); only
        RCDD solvers have one."""
        if self._transpose_fn is None:
            raise TypeError("only build_rcdd_solver's and solve_from_scale's p_right have a transpose")
        _check_open_unit(error_bound, "eps")
        return LinearOperator(self._transpose_fn(error_bound), self.n, error_bound, self._backend)

    def apply(self, x) -> np.ndarray:
        x = as_vector(x, self.n)
        spent = self._backend.iterations
        y, refinement = self._apply_fn(x)
        iterations = self._backend.iterations - spent
        nb = refinement.residuals[0]
        self.report.residuals.append(0.0 if nb == 0.0 else refinement.residuals[-1] / nb)
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
    diag, row_off, col_off = _kept_line_sums(S)
    beta_r = float((diag - row_off).min(initial=np.inf))
    beta_c = float((diag - col_off).min(initial=np.inf))
    if beta_r <= 0.0 or beta_c <= 0.0:
        return np.inf
    abs_diag = np.abs(diag)
    norm_2_sq = (abs_diag + row_off).max(initial=0.0) * (abs_diag + col_off).max(initial=0.0)
    return float(np.sqrt(norm_2_sq) / np.sqrt(beta_r * beta_c))


def _bicgstab_core(matvec, r, eps_abs, cap, x, inv_diag):
    """BiCGSTAB (van der Vorst 1992) from ``x``, whose residual ``b - S x``
    the caller passes as ``r``, preconditioned on the right by the diagonal
    ``1 / inv_diag``; returns ``(x, iterations)`` once the recurrence
    residual is at most ``eps_abs``, after ``cap`` iterations, or early at a
    breakdown (a vanishing or non-finite inner product); the caller meets
    the last two with a restart.  ``matvec`` maps a vector to a new one.
    Neither ``x`` nor ``r`` is written: the pass updates its own copies and
    buffers allocated once, in place, each update in the order of the
    textbook expression, so with the same bits.  Inner products are
    ``ndarray.dot``, the BLAS call ``@`` and ``np.linalg.norm`` make for
    vectors, without their dispatch."""
    x, r = x.copy(), r.copy()
    if math.sqrt(r.dot(r)) <= eps_abs:
        return x, 0
    r_hat = r.copy()
    rho = alpha = omega = 1.0
    p, v, s = np.zeros_like(r), np.zeros_like(r), np.empty_like(r)
    p_hat, s_hat, tmp = np.empty_like(r), np.empty_like(r), np.empty_like(r)
    for it in range(1, cap + 1):
        rho_new = float(r_hat.dot(r))
        if rho_new == 0.0 or omega == 0.0 or not math.isfinite(rho_new):
            return x, it - 1
        # p = r + beta (p - omega v)
        np.multiply(v, omega, out=tmp)
        np.subtract(p, tmp, out=tmp)
        np.multiply(tmp, (rho_new / rho) * (alpha / omega), out=tmp)
        np.add(r, tmp, out=p)
        np.multiply(inv_diag, p, out=p_hat)
        v = matvec(p_hat)
        rv = float(r_hat.dot(v))
        alpha = rho_new / rv if rv != 0.0 else math.inf
        if not math.isfinite(alpha):
            return x, it
        x += np.multiply(p_hat, alpha, out=tmp)
        # s = r - alpha v
        np.multiply(v, alpha, out=s)
        np.subtract(r, s, out=s)
        if math.sqrt(s.dot(s)) <= eps_abs:
            return x, it
        np.multiply(inv_diag, s, out=s_hat)
        t = matvec(s_hat)
        tt = float(t.dot(t))
        if tt == 0.0:
            return x, it
        omega = float(t.dot(s)) / tt
        x += np.multiply(s_hat, omega, out=tmp)
        # r = s - omega t
        np.multiply(t, omega, out=r)
        np.subtract(s, r, out=r)
        rho = rho_new
        if math.sqrt(r.dot(r)) <= eps_abs:
            return x, it
    return x, cap


def _row_entries(csr: sp.csr_matrix) -> int:
    """The most entries stored in a row of ``csr``."""
    return int(np.diff(csr.indptr).max(initial=0))


def _refine(b, eps, matvec, extended_matvec, k, norm_abs, precond, cap, against):
    """Richardson refinement of ``M x = b`` from ``x = 0``, preconditioned by
    ``precond``, until the computed residual plus a bound on its own rounding
    meets ``eps ||b||``; ``against`` names ``M`` in the errors.  ``matvec``
    computes ``M x`` in double, ``extended_matvec`` in ``np.longdouble``.
    Returns ``(x, report)``, ``report.residuals`` holding the residual norms
    from ``||b||`` to the certified one.

    ``M x`` is a sum of at most ``k`` products per entry, and ``norm_abs``
    bounds ``||abs(M)||_2``: the computed product errs by at most ``(k + 2)
    u abs(M) abs(x)`` entrywise, ``u`` the unit of its precision, so by ``(k
    + 2) u norm_abs ||x||`` in l2 norm.  The norms of ``b`` and of the
    residual, summed in ``np.longdouble``, and the residual's ``(k + 2) u
    abs(b)`` are charged ``(n + 2)`` extended units plus ``(k + 3)`` double
    units of each norm, or ``(n + 2)`` double units where that is less (as
    it is where ``np.longdouble`` is no wider).  Near a singular ``M``
    ``||x||`` is large and that bound with it, so it is checked after every
    step.  Once it leaves less than half of ``eps ||b||``, the refinement
    goes on in ``np.longdouble`` (where that is wider than double): ``x`` is
    carried in it, its residual computed in it, and each step's candidate is
    ``x`` rounded to double, its residual computed in extended precision
    too.  A bound that leaves no room raises :class:`RoundingFloorHit`, and
    so does a candidate that misses once the extended ``x`` has a residual
    within that residual's own rounding: the rounding of ``x`` to double
    then sets the floor.  A refinement that runs out of its ``cap`` steps, or
    meets a non-finite residual, raises :class:`IterationCapHit`."""
    n = b.shape[0]
    unit = np.finfo(float).eps
    extended_unit = np.finfo(np.longdouble).eps
    nb = float(np.linalg.norm(b.astype(np.longdouble)))
    target = eps * nb
    report = SolveReport(residuals=[nb])
    # the charge on ||b|| and on the residual's norm (see above)
    norm_unit = min((n + 2) * unit, (n + 2) * extended_unit + (k + 3) * unit)

    def room(x, rn, product_unit):
        bound = (k + 2) * norm_abs * product_unit * np.linalg.norm(x)
        return target - (bound + norm_unit * (nb + rn))

    def give_up(error, rn, left, why):
        return error(
            f"refinement against {against} cannot certify its residual {rn:.3e} within "
            f"eps ||b|| = {target:.3e} after {report.iterations} of at most {cap} "
            f"iterations: {why} (the residual's rounding bound leaves {left:.3e})",
        )

    def non_finite():
        return IterationCapHit(
            f"refinement against {against} stopped ({NON_FINITE}) after "
            f"{report.iterations} of at most {cap} iterations",
        )

    # double precision, the bound checked after each step as it follows ||x||
    x = np.zeros(n)
    residual = matvec(x) - b
    while True:
        rn = report.residuals[-1]
        left = room(x, rn, unit)
        if rn <= left:
            return x, report
        if left <= 0.5 * target and extended_unit < unit:
            break
        if not left > 0.0:
            raise give_up(RoundingFloorHit, rn, left, "no wider precision")
        if report.iterations == cap:
            raise give_up(IterationCapHit, rn, left, "out of iterations")
        x = x - precond(residual)
        residual = matvec(x) - b
        report.iterations += 1
        report.residuals.append(float(np.linalg.norm(residual.astype(np.longdouble))))
        if not math.isfinite(report.residuals[-1]):
            raise non_finite()

    # extended precision: x carried in it, candidates rounded to double
    x_ext = x.astype(np.longdouble)
    while True:
        r_ext = extended_matvec(x_ext) - b
        x = x_ext.astype(float)
        rn = float(np.linalg.norm(extended_matvec(x) - b))
        report.residuals.append(rn)
        if not math.isfinite(rn):
            raise non_finite()
        left = room(x, rn, extended_unit)
        if rn <= left:
            return x, report
        if not left > 0.0:
            raise give_up(RoundingFloorHit, rn, left, "no precision at hand is enough")
        if np.linalg.norm(r_ext) <= (k + 2) * norm_abs * extended_unit * np.linalg.norm(x_ext):
            raise give_up(RoundingFloorHit, rn, left, "the rounding of x to double sets the floor")
        if report.iterations == cap:
            raise give_up(IterationCapHit, rn, left, "out of iterations")
        x_ext = x_ext - precond(r_ext.astype(float))
        report.iterations += 1


def _refined_apply(M: SparseMatrix, precond, eps: float, cap: int, against: str, shift=None):
    """``b -> (x, report)``: :func:`_refine` to ``eps``, at most ``cap``
    steps of ``precond``, against ``M`` or, with a ``shift``, against
    ``shift I - M`` for a nonnegative ``M`` (the engine's operators); the
    package's one setup of a refinement's products and rounding terms.
    ``k`` is the most entries in a row of ``M``, ``||abs(M)||_2 <=
    sqrt(||M||_1 ||M||_inf)``, plus ``shift`` with one, and the products,
    ``M x`` or ``shift x - M x``, are computed in double, ``M x`` by
    :func:`sparse._kernel_product`, and in ``np.longdouble`` by ``@``, as
    the kernel takes double vectors alone."""
    csr = M.csr()
    k = _row_entries(csr)
    norms = induced_norms(M)
    norm_abs = math.sqrt(norms.norm_1 * norms.norm_inf)
    if shift is not None:
        norm_abs += shift

    def matvec(x, product=functools.partial(_kernel_product, csr)):
        return product(x) if shift is None else shift * x - product(x)

    def extended_matvec(x):
        return matvec(x.astype(np.longdouble), csr.__matmul__)

    return lambda b: _refine(b, eps, matvec, extended_matvec, k, norm_abs, precond, cap, against)


def _contract_apply(M: SparseMatrix, precond, eps: float, against: str):
    """The apply function of a builder's operator: :func:`_refined_apply`
    of ``M`` to ``eps`` in at most 4 steps (one solve and 3 refinements),
    each one backend solve in ``precond``.  A refinement that misses ``eps``
    (out of steps, at a rounding floor or at a non-finite residual) raises
    :class:`BackendDiverged` from its error, as a Krylov miss does."""
    refine = _refined_apply(M, precond, eps, 4, against)

    def apply_fn(b):
        try:
            return refine(b)
        except IterationCapHit as err:
            raise BackendDiverged(str(err)) from err

    return apply_fn


def _scaled_rcdd_operator(M: SparseMatrix, ell, r, eps: float, name: str) -> LinearOperator:
    """The RCDD builders' one recipe, :func:`build_rcdd_solver`'s on vectors
    of ones and ``scaling.solve_from_scale``'s on its pair: ``L M R``, ``L =
    diag(ell)`` and ``R = diag(r)``, formed and checked RCDD within
    ``RCDD_VERIFY_SLACK`` (:class:`NotRCDD` otherwise), one backend of it
    (:func:`_phase_backend`), and the operator refining against ``M``, named
    ``name``, to ``eps`` by :func:`_contract_apply`, each step ``x -> R Z(L
    x)`` with ``Z`` a solve of ``L M R`` to ``eps / kappa(L)``.  Its
    transpose at ``e`` refines against ``M.T`` likewise, each step ``x -> L
    Z.T(R x)`` to ``e / kappa(R)``.  ``kappa`` is max over min entry, 1 for
    ones, whose products are exact: on ones ``L M R`` has the bits of ``M``,
    so the recipe checks and solves with ``M`` itself, whose line sums a
    check keeps for its next one, and forms no copy."""
    S = M if np.all(ell == 1.0) and np.all(r == 1.0) else apply_scaling(ell, M, r)
    if not check_rcdd(S, RCDD_VERIFY_SLACK):
        raise NotRCDD(f"matrix is not RCDD within slack {RCDD_VERIFY_SLACK:.1e}")
    solver = _phase_backend(S.csr())

    def apply_of(e, transpose=False):
        inner, outer = (r, ell) if transpose else (ell, r)
        # an empty matrix's vectors have no entries, and kappa 1
        tol = e / (inner.max() / inner.min()) if inner.size else e
        target, against = (M.transpose(), f"{name}.T") if transpose else (M, name)
        return _contract_apply(target, lambda x: outer * solver.solve(inner * x, transpose, tol), e, against)

    return LinearOperator(apply_of(eps), M.n_rows, eps, solver, lambda e: apply_of(e, True))


def build_rcdd_solver(S: SparseMatrix, eps: float) -> LinearOperator:
    """Operator ``Z`` with ``||x - S @ Z(x)||_2 <= eps * ||x||_2`` per call;
    ``Z.transpose(eps_t)`` solves with ``S.T`` on the same solver.

    The recipe is ``scaling.solve_from_scale``'s (:func:`_scaled_rcdd_operator`)
    with no scaling, the vectors of ones: it checks and solves with ``S``
    itself, so a repeated build on ``S`` reuses the line sums its first
    check kept.  The solver comes from
    :func:`_phase_backend`, as every other: LAPACK LU up to
    ``_DENSE_CUTOFF`` unknowns, Jacobi-preconditioned BiCGSTAB above.
    Raises :class:`NotRCDD` when ``S`` is not RCDD within
    ``RCDD_VERIFY_SLACK``.  An application refines against ``S`` by
    :func:`_refine`, each step one solve to ``eps``, until the residual plus
    a bound on its own rounding meets ``eps``; one that does not within 4
    solves, a Krylov solve that misses after its last pass included, raises
    :class:`BackendDiverged`.
    """
    _check_open_unit(eps, "eps")
    return _scaled_rcdd_operator(S, np.ones(S.n_rows), np.ones(S.n_cols), eps, "S")


def build_sdd_solver(S: SparseMatrix, eps: float) -> LinearOperator:
    """Operator ``Z`` with ``||S^-1 x - Z(x)||_S <= eps * ||S^-1 x||_S``.

    The energy-norm contract is enforced by driving the l2 residual below
    ``eps / sqrt(kappa_hat)`` with ``kappa_hat`` the computable dominance
    bound on the condition number, by the refinement of
    :func:`build_rcdd_solver` against ``S`` with each step one solve to that
    l2 target.  The solver comes from :func:`_phase_backend`, as every
    other: LAPACK LU up to ``_DENSE_CUTOFF`` unknowns, Jacobi-preconditioned
    BiCGSTAB above.  Applying the operator raises :class:`BackendDiverged`
    when it misses that l2 target.  The side channel records l2 residuals.
    """
    _check_open_unit(eps, "eps")
    if not check_sdd(S, RCDD_VERIFY_SLACK):
        raise NotSDD(f"matrix is not SDD within slack {RCDD_VERIFY_SLACK:.1e}")
    solver = _phase_backend(S.csr())
    tol = _sdd_l2_tolerance(S, eps)
    apply_fn = _contract_apply(S, lambda x: solver.solve(x, False, tol), tol, "S")
    return LinearOperator(apply_fn, S.n_rows, eps, solver)


def _sdd_l2_tolerance(S, eps: float) -> float:
    """The relative l2 residual that implies the energy contract ``eps`` of a
    solve with the SDD ``S``: ``eps / sqrt(kappa_hat)``, ``kappa_hat`` the
    computable dominance bound on its condition number (capped at 1e12),
    floored at what double precision plus refinement can deliver."""
    kappa_hat = min(varah_kappa_upper(S), 1e12)
    return max(eps / np.sqrt(max(kappa_hat, 1.0)), _SDD_L2_FLOOR)
