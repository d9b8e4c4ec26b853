"""Diagonal scalings that make shifted M-matrices RCDD, and the solvers
built on them.

At a fixed shift the first path is the Collatz-Wielandt bracket
(``_CWBracket``): power steps, then shift-and-invert steps, on a right and a
left vector until their CW bounds settle ``rho(A) < shift``; a power step
costs two products and is taken only while the power steps one solve's
work buys narrow the bounds at least as fast as that solve would, and
below the dense cutoff a step first re-solves with the last step's LU,
kept when it cuts the CW gap to at most a quarter, before it factors
anew.  Positive ``r`` and ``l`` with
``A r < c r`` and ``A.T l < c l`` make ``diag(l) (c I - A) diag(r)``
strictly RCDD, so a True verdict is itself a scaling, checked before use,
and a False one certifies ``rho(A) >= c`` whatever the conditioning.
Every fixed-shift entry point takes that path first: :func:`mmatrix_scale`,
:func:`solve_m`, the M-matrix decision and the symmetric entry points, for
which the right iterate alone suffices (for symmetric ``A``,
``V (c I - A) V`` is SDD exactly when ``A v < c v``), so their bracket
solves for no left iterate, as every bracket on an exactly symmetric ``A``
does, and its check is their only one:
:func:`symm_solve` solves with the matrix it passed, and only
:func:`factor_width2_solve` forms and checks a ``V M V`` of its own ``M``.
:func:`solve_m` decides at ``s`` itself, as
Katz, Leontief and the kernel decide ``rho(B) < 1``, and all four solve
with one operator of that unshifted pair (``_pair_operator``).  Every
matrix a problem forms to check or solve with is a CSR matrix on the
pattern of ``A + I``, which ``A``'s pattern builds once for every problem
on ``A`` or on a multiple of it; LAPACK factors a dense copy of it up to
the dense cutoff.  Only a shift-and-invert step depends on the size: below
the cutoff it forms one dense array for LAPACK and holds its LU for the
next steps' re-solves, and above it it only writes new values into a
matrix built once per bracket.

The fallback, and the only path of the decisions inside the eigenvalue
bisection, is an alpha-halving scan: starting from a shift so large that
the matrix is trivially dominant, each phase solves ``M_alpha r = 1`` and
``M_alpha.T l = 1`` by Richardson iteration preconditioned with the solver
of the previous (twice as large) shift, then halves the shift.
``_halving_scan`` is that one loop, whole: it derives its solve tolerance
and residual ceiling from the conditioning bound ``K``, runs every phase,
checks each phase's pair positive and the final pair RCDD, and records its
settings in its report.  Its callers differ only in their iteration cap,
their solver budget and how they report a failure; the symmetric ones take
its right vector as ``v`` and check it once more as ``V M V``.

All routines normalize to ``s = 1`` internally and return scalings valid for
the original problem, which only differ by a positive scalar on the scaled
matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rcdd
from .errors import BackendDiverged, IterationCapHit, NotSDDAfterScaling
from .rcdd import (
    LinearOperator,
    _phase_backend,
    _refined_apply,
    _scaled_rcdd_operator,
    _sdd_l2_tolerance,
    _step_solve,
    varah_kappa_upper,
)
from .reports import ITERATION_CAP, NON_FINITE, PhaseLog, SolveReport
from .sparse import (
    RCDD_VERIFY_SLACK,
    SparseMatrix,
    _check_open_unit,
    _check_square_nonnegative,
    _is_symmetric,
    _kernel_product,
    _PatternCSR,
    _shift_values,
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
    """``A / scale``, fixed at construction and formed only as far as each
    use needs it.

    The problem keeps no scaled copy of ``A``.  :meth:`scaled_shift` writes
    the values of ``diag(ell) ((1 + alpha) I - A / scale) diag(r)`` straight
    from ``A``'s CSR onto the pattern of ``(1 + alpha) I - A``, which
    ``A``'s pattern builds on first use and keeps for every problem on
    ``A``.  ``csr``, ``A / scale`` for the scan's residual products (the
    benchmark's tracer reads it too), and ``norm_max`` are computed on
    first read.  ``A`` must be square and ``scale`` positive and finite,
    which every public entry point checks before it builds one."""

    def __init__(self, A: SparseMatrix, scale: float):
        self.n = A.n_rows
        self.scale = scale
        self._A = A

    @cached_property
    def csr(self):
        """``A / scale``, a CSR matrix."""
        return self._A.csr() / self.scale

    @cached_property
    def norm_max(self) -> float:
        """``max(||A||_1, ||A||_inf) / scale``: only the scan's starting
        shift needs it."""
        norms = induced_norms(self._A)
        return max(norms.norm_1, norms.norm_inf) / self.scale

    def shifted_matvec(self, alpha: float, x: np.ndarray) -> np.ndarray:
        """``((1 + alpha) I - A) @ x``."""
        return (1.0 + alpha) * x - _kernel_product(self.csr, x)

    def shifted_rmatvec(self, alpha: float, x: np.ndarray) -> np.ndarray:
        return (1.0 + alpha) * x - _kernel_product(self.csr, x, transpose=True)

    def scaled_shift(self, alpha: float, ell: np.ndarray, r: np.ndarray):
        """``diag(ell) ((1 + alpha) I - A) diag(r)``, a fresh
        :class:`sparse._PatternCSR`, which keeps its pattern and, once
        taken, its line sums, and which no later use of the problem
        changes."""
        p = self._A._pattern.shifted[0]
        v = _shift_values(self._A, -1.0 / self.scale, 1.0 + alpha, np.empty(p.indices.size))
        # the same products, in the same order, as diag(ell) @ M @ diag(r)
        return _PatternCSR.on(p, (ell.take(p.rows) * v) * r.take(p.indices))


class _PhaseSolver:
    """One solver of ``S = diag(l) ((1 + alpha) I - A / s) diag(r)``, the
    CSR matrix :meth:`_Problem.scaled_shift` formed, serving both the
    forward and the transpose preconditioner: a scan phase's, at the
    previous phase's shift, and every operator's and the Perron polish's,
    on the matrix whose RCDD check passed (the bracket's own steps solve
    with :meth:`_CWBracket._step_solver` instead).

    :func:`rcdd._phase_backend` picks the backend by the size of ``S``:
    LAPACK factors a dense copy of ``S`` (up to ``_DENSE_CUTOFF`` unknowns)
    once, which it then solves exactly up to rounding; above the cutoff
    ``S`` gets Jacobi-preconditioned BiCGSTAB solves to the relative
    residual ``tol`` this solver holds and passes to each (an operator's
    refinement steps solve with its backend to ``tol`` or tighter, see
    :func:`_refined_operator`), each checked against its true residual, and
    one that misses raises :class:`BackendDiverged` for its caller to turn
    into its own outcome."""

    def __init__(self, S, ell: np.ndarray, r: np.ndarray, *, tol: float):
        self.S = S
        self.ell = ell
        self.r = r
        self.tol = tol
        self.backend = _phase_backend(S)

    def p_right(self, x: np.ndarray) -> np.ndarray:
        return self.r * self.backend.solve(self.ell * x, False, self.tol)

    def p_left(self, x: np.ndarray) -> np.ndarray:
        return self.ell * self.backend.solve(self.r * x, True, self.tol)


def _cw_bounds(A: SparseMatrix, x: np.ndarray, transpose: bool = False) -> tuple[float, float]:
    """The Collatz-Wielandt ratios' ``(min, max)`` for a positive ``x``, of
    ``A`` or, with ``transpose``, of ``A.T`` (the column kernel on ``A``'s
    one CSR); the package's one computation of them."""
    return _cw_ratio_bounds(A._product(x, transpose), x)


def _cw_ratio_bounds(Ax: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """:func:`_cw_bounds` from a product ``Ax`` already formed."""
    ratios = Ax / x
    # ufunc reductions have the bits of ndarray.min and max without their
    # Python wrappers, a fixed cost of every bracket step on small inputs
    return float(np.minimum.reduce(ratios)), float(np.maximum.reduce(ratios))


def _cw_gap(cw_right, cw_left) -> float:
    """``1 - lower / upper`` of a right and a left vector's CW bounds, the
    better bound of each kind: the relative width of what they prove."""
    return 1.0 - max(cw_right[0], cw_left[0]) / min(cw_right[1], cw_left[1])


# relative gap between the shift-and-invert shift and the CW upper bound it
# sits above; keeps sigma I - A invertible with an entrywise positive inverse
_CW_SHIFT_MARGIN = 1e-6
_CW_MAX_STEPS = 32
# relative residual of the polish's solves above the dense cutoff, and the
# floor of the bracket's schedule: loose solves keep every bound valid but
# widen the CW sandwich
_CW_SOLVE_TOL = 1e-10
# a bracket step solves to _CW_TOL_SCALE (1 - lower / upper) min(iterates),
# at least that floor: loose while the CW gap is wide, and never so loose that
# the residual swamps the iterates' smallest entries, whose CW ratios need them
_CW_TOL_SCALE = 1e-2
# a power step is kept only when it cuts the CW gap below this share of what
# it was; CW bounds of A x lie within those of x, so it cannot widen it
_CW_POWER_CUT = 0.95
# below the dense cutoff a re-solve with the last step's LU is kept only when
# it cuts the CW gap to at most this share of what it was.  At 1/2 small
# criterion-01 inputs (n = 5..15) chained up to 13 slowly contracting
# re-solves, where a fresh factorization at the new bound contracts faster,
# and the perron-dense benchmark's tail latency rose 15% (three alternating
# runs on a 2-core host); at 1/4 the longest chain is 6
_CW_RESOLVE_CUT = 0.25


class _CWBracket:
    """Collatz-Wielandt bracket of ``rho(A)`` sharpened by power steps, then
    by shift-and-invert, whose LU below the dense cutoff serves re-solves.

    A right and a left vector from all-ones first take power steps, ``A r``
    and ``A.T l`` at the cost of the products their CW bounds already
    formed, whose bounds lie within those of ``r`` and ``l`` for any
    nonnegative ``A``: each is a trial, kept while the power steps that cost
    as much as one solve narrow the CW gap at least as fast as that solve
    would, the solve's cost counted from its structure, 2 to 4 power steps
    (:meth:`_power_step`, :meth:`_solve_cost`).  Then comes inverse
    iteration, shifted just
    above the best CW upper bound so that ``(sigma I - A)^-1`` is entrywise
    positive and both iterates stay in the positive cone.  For positive
    vectors every CW upper bound is at least ``rho(A)`` and every CW lower
    bound at most ``rho(A)``, whatever the conditioning, so the bracket needs
    no ``K``.  For the same reason a step's solve need not be accurate: above
    the dense cutoff it runs to the relative residual ``_CW_TOL_SCALE (1 -
    lower / upper) min(iterates)``, at least ``_CW_SOLVE_TOL``, loose while
    the CW gap is wide and tighter as it closes or as the max-normalized
    iterates spread (inexact inverse iteration; LAPACK solves below the
    cutoff are exact whatever the tolerance).  Below the cutoff the bracket
    holds the last step's LU and tries it on the next iterates before it
    factors again (:meth:`_resolve_step`): two triangular solves, kept when
    they cut the CW gap to at most ``_CW_RESOLVE_CUT`` of what it was, so
    a factorization serves as many steps as it contracts fast enough.  The
    held shift lies above every later CW upper bound, so every bound stays
    valid.  Above the cutoff a Krylov solve costs the same at any shift,
    and no solver is held.  ``factorizations`` counts the shift-and-invert
    steps that built a solver, ``power_steps`` the power steps kept and
    ``resolve_steps`` the re-solves kept, each at most ``_CW_MAX_STEPS``;
    ``steps`` is their sum.  A round of ``_perron_rounds`` that takes any
    of them has new iterates, and :meth:`step` takes one past a precision
    they already meet.  One bracket serves every
    round of ``_perron_rounds``, its iterates each round's candidate, and
    :func:`certify_spectral_bound` and the applications' decision hand on
    the one they ran: a tighter ``eps`` continues from the last iterates,
    and once the bracket has failed every later ``upper`` returns ``None``
    at once and the round scans.  A True verdict of :meth:`decide` holds a
    scaling: :meth:`checked_pair` is the first path of every fixed-shift
    entry point (``m_decide``, :func:`mmatrix_scale`, :func:`solve_m` and
    the symmetric ones) and of the applications' decision.

    The bracket reaches ``A`` only through its products, its step matrix
    and :meth:`checked`.  A shift-and-invert step solves with ``(1 +
    _CW_SHIFT_MARGIN) I - A / hi`` (:meth:`_step_solver`), which below the
    dense cutoff a step forms in one dense array and above it the first
    step builds and every later one refreshes in place, writing its values
    by :func:`sparse._shift_values` as every shifted matrix's are written:
    a step forms no scipy matrix but that one, and its Krylov solver reads
    the diagonal where the pattern keeps it, as every other does.  :meth:`checked` forms the matrix it checks
    on a fresh :class:`_Problem` and hands it on.

    The bracket is one-sided when its caller asks for it with
    ``symmetric`` (the symmetric entry points, whose scaling is ``(v, v)``)
    and whenever ``A`` is exactly symmetric, which its pattern decides
    once (``SparseMatrix._exactly_symmetric``): a step solves for, or a
    power step forms, the right iterate only and takes it as the left one,
    which for symmetric ``A`` it equals.  On an exactly symmetric ``A`` a
    measurement forms ``A r`` once and takes it as ``A.T l``: the column
    kernel sums the same terms in the same order, so the bits are those of
    the transposed product, and a shift-and-invert step above the dense
    cutoff solves by conjugate gradients, its matrix symmetric positive
    definite as ``hi >= rho(A)``.  A one-sided bracket on any other ``A``
    still computes the left CW bounds on ``A.T``, so every bound, and every
    verdict, stays sound whatever ``A`` is.
    """

    def __init__(self, A: SparseMatrix, *, symmetric: bool = False):
        self.A = A
        # A.T l is A r, bit for bit, once l is r
        self._shared = A._exactly_symmetric
        # a symmetric A's left iterate is its right one: no left solves
        self._symmetric = symmetric or self._shared
        self.right = np.ones(A.n_rows)
        self.left = self.right if self._symmetric else np.ones(A.n_rows)
        # (lower, upper) CW bounds of the current right and left iterates,
        # and (right, left, A right, A.T left) they came from
        self.cw_right = self.cw_left = (0.0, np.inf)
        self.products = None
        # shift-and-invert steps, power steps kept and re-solves kept
        self.factorizations = 0
        self.power_steps = 0
        self.resolve_steps = 0
        self._powering = True
        # below the dense cutoff, the last shift-and-invert step's LU, which
        # the next step tries before it factors anew
        self._held = None
        self.failed = False
        # set by decide() when the bounds meet within rounding of its bound
        self.met_at_bound = False
        # the step matrix above the dense cutoff, refreshed by every step
        self._step_matrix = None
        # the smallest entry of either max-normalized iterate
        self._least = 1.0

    @property
    def steps(self) -> int:
        """Every step taken so far: power, shift-and-invert or re-solve."""
        return self.factorizations + self.power_steps + self.resolve_steps

    @property
    def step_counts(self) -> dict:
        """The steps taken so far as a report's ``info`` counts them:
        ``bracket_steps`` (shift-and-invert, one solver built each),
        ``power_steps`` and ``resolve_steps``."""
        return {
            "bracket_steps": self.factorizations,
            "power_steps": self.power_steps,
            "resolve_steps": self.resolve_steps,
        }

    def _measured(self, right: np.ndarray, left: np.ndarray):
        """``(products, cw_right, cw_left)`` of iterates ``right`` and
        ``left``: their products, as :attr:`products` keeps them, and their
        CW bounds.  On an exactly symmetric ``A``, whose ``left`` is
        ``right``, one product and its bounds serve both sides."""
        Ar = self.A._product(right)
        cw_right = _cw_ratio_bounds(Ar, right)
        if self._shared:
            return (right, left, Ar, Ar), cw_right, cw_right
        Atl = self.A._product(left, transpose=True)
        return (right, left, Ar, Atl), cw_right, _cw_ratio_bounds(Atl, left)

    def _take(self, right, left, measured) -> None:
        """Make ``right`` and ``left``, each ``(vector, least entry)`` as
        :func:`_unit_positive` returns it, the current iterates, ``measured``
        their :meth:`_measured`."""
        self.right, self.left, self._least = right[0], left[0], min(right[1], left[1])
        self.products, self.cw_right, self.cw_left = measured

    def _power_step(self) -> bool:
        """Try ``A r`` and ``A.T l``, max-normalized, as the next iterates:
        kept (True) when their CW gap ``1 - lower / upper`` is below
        ``_CW_POWER_CUT`` times the current one.  A discarded candidate, or
        one with an entry that is not a normal positive float (a zero row or
        column of ``A``), ends the power phase and leaves the iterates as
        they were.  With ``c`` the ratio of the two gaps, an estimate of
        ``|lambda_2| / rho``, a kept step continues the phase only while
        ``c**k (1 - c) <= g``, ``g`` the new gap and ``k`` the least cost of
        a solve in power steps (:meth:`_solve_cost`): a shift-and-invert
        step from there, shifted about ``g rho`` above ``rho``, contracts
        the gap by about ``g / (1 - c)`` at best, and ``k`` power steps by
        about ``c**k``, so the phase goes on only while the work of one
        solve spent on power steps does at least as well as the solve.
        The phase takes at most ``_CW_MAX_STEPS`` steps."""
        self._powering = False
        if self.power_steps == _CW_MAX_STEPS:
            return False
        _, _, Ar, Atl = self.products
        right = _unit_positive(Ar)
        left = right if self._symmetric else _unit_positive(Atl)
        if right is None or left is None:
            return False
        gap = _cw_gap(self.cw_right, self.cw_left)
        measured = self._measured(right[0], left[0])
        new_gap = _cw_gap(*measured[1:])
        if not (gap > 0.0 and new_gap < _CW_POWER_CUT * gap):
            return False
        self._take(right, left, measured)
        self.power_steps += 1
        c = new_gap / gap
        self._powering = c ** self._solve_cost() * (1.0 - c) <= new_gap
        return True

    def _solve_cost(self) -> float:
        """The least cost of a shift-and-invert step counted in power steps,
        from the step's own structure: a power step costs the two products
        of its measurement, and a step costs that measurement plus, per side
        it solves, at least one product's worth below the dense cutoff (a
        triangular solve) and three above it (one BiCGSTAB iteration, two
        products, and its true-residual product).  So 2 two-sided and 1.5
        one-sided below the cutoff, 4 and 2.5 above it: a floor, not a
        tuned constant.  It stays a floor on an exactly symmetric ``A``,
        where a measurement is one shared product and a conjugate gradient
        iteration one product: 2 below the cutoff and 3 above it."""
        per_side = 1.0 if self.A.n_rows <= rcdd._DENSE_CUTOFF else 3.0
        sides = 1.0 if self._symmetric else 2.0
        return (2.0 + sides * per_side) / 2.0

    def _solved(self, solver, tol: float):
        """``(right, left)``, the current iterates solved with ``solver`` to
        ``tol`` and max-normalized, each as :func:`_unit_positive` returns
        it, or ``None`` when either leaves the positive cone.  A one-sided
        bracket solves for the right iterate only and takes it as both."""
        right = _unit_positive(solver.solve(self.right, False, tol))
        left = right if self._symmetric else _unit_positive(solver.solve(self.left, True, tol))
        return None if right is None or left is None else (right, left)

    def _resolve_step(self) -> bool:
        """Try the held LU of the last shift-and-invert step (below the
        dense cutoff only) on the current iterates, two triangular solves
        and no factorization: kept (True, the LU still held) when the new
        CW gap is at most ``_CW_RESOLVE_CUT`` times the current one.  Any
        other outcome drops the LU, leaves the iterates as they were and
        returns False, for a fresh factorization at the current bound.  The
        held shift ``hi_old (1 + _CW_SHIFT_MARGIN)`` lies above every later
        CW upper bound, so above ``rho(A)``, and its inverse stays entrywise
        positive: every bound of a kept re-solve is as valid as a fresh
        step's.  At most ``_CW_MAX_STEPS`` re-solves are kept."""
        solver, self._held = self._held, None
        if solver is None or self.resolve_steps == _CW_MAX_STEPS:
            return False
        solved = self._solved(solver, _CW_SOLVE_TOL)
        if solved is None:
            return False
        gap = _cw_gap(self.cw_right, self.cw_left)
        measured = self._measured(solved[0][0], solved[1][0])
        if not (gap > 0.0 and _cw_gap(*measured[1:]) <= _CW_RESOLVE_CUT * gap):
            return False
        self._take(*solved, measured)
        self._held = solver
        self.resolve_steps += 1
        return True

    def _iterates(self):
        """Yield once per iterate, its CW bounds set, stepping when resumed:
        power steps (:meth:`_power_step`) while the ones a solve's work buys
        contract the CW gap at least as fast as that solve would, then
        shift-and-invert steps, each tried first as a re-solve with the held
        LU (:meth:`_resolve_step`).
        Ends, marking the bracket failed, once an iterate leaves the positive
        cone, the upper bound is infinite, a solve misses
        (:class:`BackendDiverged`) or the budget of ``_CW_MAX_STEPS``
        shift-and-invert steps runs out, and after a zero upper bound (``A =
        0``, settled at once; a step would rescale by 0).  A zero lower bound
        (a zero row and a zero column) does not end it: upper bounds of
        positive vectors bound ``rho(A)`` for any nonnegative ``A``, and
        ``(sigma I - A)^-1 >= I / sigma`` keeps the iterates positive."""
        if self.products is None:
            self.products, self.cw_right, self.cw_left = self._measured(self.right, self.left)
        while not self.failed:
            hi = min(self.cw_right[1], self.cw_left[1])
            if not hi < np.inf:
                break
            yield
            if hi == 0.0:
                break
            if self._powering and self._power_step():
                continue
            if self._resolve_step():
                continue
            if self.factorizations == _CW_MAX_STEPS:
                break
            gap = _cw_gap(self.cw_right, self.cw_left)
            tol = max(_CW_SOLVE_TOL, _CW_TOL_SCALE * gap * self._least)
            solver = self._step_solver(hi)
            self.factorizations += 1
            try:
                solved = self._solved(solver, tol)
            except BackendDiverged:
                break
            if solved is None:
                break
            self._take(*solved, self._measured(solved[0][0], solved[1][0]))
            if self.A.n_rows <= rcdd._DENSE_CUTOFF:
                self._held = solver
        self._held = None
        self.failed = True

    def step(self) -> bool:
        """Take the bracket's next step, whatever precision its current
        iterates already meet: True when it took one, still works and moved
        a CW bound.  A step that leaves every bound as it was (the bracket
        has converged as far as rounding lets it) returns False, and the
        bracket still works."""
        taken, bounds = self.steps, (self.cw_right, self.cw_left)
        for _ in self._iterates():
            if self.steps > taken:
                return (self.cw_right, self.cw_left) != bounds
        return False

    def _step_solver(self, hi: float):
        """A solver of ``(1 + _CW_SHIFT_MARGIN) I - A / hi``, the matrix of
        a shift-and-invert step: ``sigma I - A`` over ``hi``, with the margin
        relative to ``rho`` whatever the scale of ``A``.  Up to
        ``rcdd._DENSE_CUTOFF`` unknowns it forms that matrix in one new
        array, ``A / (-hi)`` (the bits of ``-(A / hi)``) with ``1 +
        _CW_SHIFT_MARGIN`` added to its diagonal, and LAPACK factors it: no
        pattern and no scipy matrix is built.  Above the cutoff it has the
        bits of ``_Problem(A, hi).scaled_shift(_CW_SHIFT_MARGIN, 1, 1)``: the
        step matrix, a :class:`sparse._PatternCSR` on the pattern of ``A +
        I``, is built on the first call and its values are rewritten in
        place by :func:`sparse._shift_values` at every later one, so a
        solver serves only until the next call.  Its solver reads the
        diagonal from the values at hand, but the line sums the matrix would
        keep go stale at the next step: nothing may check the step matrix
        (:func:`sparse.check_rcdd`, :func:`rcdd.varah_kappa_upper`), and
        nothing does.  On an exactly symmetric ``A`` the step matrix is
        symmetric positive definite, and its Krylov solver runs conjugate
        gradients."""
        n = self.A.n_rows
        if n <= rcdd._DENSE_CUTOFF:
            S = self.A.csr().toarray()
            S /= -hi
            diagonal = S.reshape(-1)[:: n + 1]  # a view
            diagonal += 1.0 + _CW_SHIFT_MARGIN
            return _phase_backend(S)
        if self._step_matrix is None:
            p = self.A._pattern.shifted[0]
            self._step_matrix = _PatternCSR.on(p, np.empty(p.indices.size))
        _shift_values(self.A, -1.0 / hi, 1.0 + _CW_SHIFT_MARGIN, self._step_matrix.data)
        return _phase_backend(self._step_matrix, self._shared)

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
        ``None`` when the bracket fails, when its bounds meet within
        rounding on either side of ``bound`` (``met_at_bound`` is then set),
        or when at a zero lower bound a step lowers the best upper bound by
        less than its rounding margin.  Both verdicts come from :func:`_settles`,
        so rounding cannot decide the wrong side."""
        tol = _cw_margin(self.A.n_rows)
        last = np.inf
        for _ in self._iterates():
            lo = self.lower
            his = (self.cw_right[1], self.cw_left[1])
            verdict = _settles(lo, his, bound, tol)
            if verdict is not None:
                return verdict
            # the best upper bound settles nothing either, and no step can
            # narrow it past rounding
            if min(his) * (1.0 + tol) >= bound and min(his) <= lo * (1.0 + 4.0 * tol):
                self.met_at_bound = True
                return None
            # with no lower bound only the upper one can settle it: a stall
            if lo == 0.0 and min(his) >= last * (1.0 - tol):
                return None
            last = min(his)
        return None

    def checked_pair(self, s: float, alpha: float):
        """:meth:`decide` at ``(1 + alpha) s``, a True verdict's iterates
        checked as a scaling by :meth:`checked`: ``(S, pair)``, ``S`` the
        matrix the check passed.  Row ``i`` of ``diag(l) ((1 + alpha) s I -
        A) diag(r)`` is dominant exactly when ``(A r)_i < (1 + alpha) s
        r_i`` and column ``j`` when ``(A.T l)_j < (1 + alpha) s l_j``, so a
        True verdict passes unless rounding says otherwise.  False when the
        CW lower bound certifies ``rho(A) >= (1 + alpha) s``; ``None`` when
        the bracket settles nothing or its pair fails the check."""
        verdict = self.decide((1.0 + alpha) * s)
        if not verdict:
            return verdict
        return self.checked(ScalingPair(left=self.left, right=self.right, alpha=alpha, s=s))

    def checked(self, pair: ScalingPair):
        """``(S, pair)`` when ``S = diag(l) ((1 + alpha) I - A / s)
        diag(r)``, of ``pair``'s vectors, shift and scale, is RCDD within
        ``RCDD_VERIFY_SLACK``, else ``None``.  ``S`` is a fresh matrix that
        no later step changes: the operator solves with it."""
        S = _Problem(self.A, pair.s).scaled_shift(pair.alpha, pair.left, pair.right)
        return (S, pair) if check_rcdd(S, RCDD_VERIFY_SLACK) else None


def _cw_margin(n: int) -> float:
    """The relative rounding error of a CW bound of an ``n``-unknown matrix,
    a ratio of sums of nonnegative products (barring underflow)."""
    return (n + 2) * np.finfo(float).eps


def _settles(lo: float, his: tuple[float, float], bound: float, tol: float) -> bool | None:
    """``rho < bound`` from CW bounds, or ``None`` when they settle nothing:
    True when both upper bounds ``his`` (of a right vector on ``A`` and a
    left one on ``A.T``) lie below ``bound``, False when the lower bound
    ``lo`` reaches it.  ``tol`` is the bounds' :func:`_cw_margin`, which
    both tests keep."""
    if max(his) * (1.0 + tol) < bound:
        return True
    if lo * (1.0 - tol) >= bound:
        return False
    return None


# the least normal positive float
_TINY = np.finfo(float).tiny


def _unit_positive(x: np.ndarray) -> tuple[np.ndarray, float] | None:
    """``(x / max(x), min(x / max(x)))`` when every entry of ``x / max(x)``
    is a normal positive float (the CW ratios then keep full relative
    precision), else ``None``; a NaN entry fails the test.  The minimum is
    ``1 / spread`` of the iterate, which the bracket's step tolerance
    needs.  For a positive finite ``max(x)`` it is ``min(x) / max(x)``
    exactly, rounding being monotone, so an accepted ``x`` is divided once
    and raises no floating-point flag; any other ``x`` (a NaN, an infinite
    or nonpositive maximum) is divided under silenced flags."""
    top = np.maximum.reduce(x)
    if 0.0 < top < np.inf:
        # a negative minimum fails without a division that could overflow
        least = max(np.minimum.reduce(x), 0.0) / top
        return (x / top, float(least)) if least >= _TINY else None
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        x = x / top
    least = x.min()
    return (x, float(least)) if least >= _TINY else None


class _ScanFailure(Exception):
    """Internal: one of the decision checks fired during the halving scan."""

    def __init__(self, witness: str, phase: int, alpha: float):
        self.witness = witness
        self.phase = phase
        self.alpha = alpha
        super().__init__(witness)

    def cap_hit(self, what: str, reason: str) -> IterationCapHit:
        """The public error for this failure of ``what`` (a kind of phase),
        ``reason`` naming what it suggests about the matrix; a missed solve
        (``"solver budget"``) suggests nothing about it and says so."""
        if self.witness == "solver budget":
            reason = "a phase solve missed its tolerance, which says nothing about rho(A)"
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


def _halving_scan(prob: _Problem, eps: float, K: float, cap: int, budget: float | None = None):
    """The alpha-halving scan on a normalized problem at conditioning bound
    ``K``: each phase runs Richardson on ``M_alpha r = 1`` and ``M_alpha.T l
    = 1``, preconditioned by a :class:`_PhaseSolver` of the previous
    (twice as large) shift solving to ``_scan_tolerance(K)``, until every
    residual entry lies in ``[-1/2, 1/2]``, then halves the shift.

    Each phase forms its preconditioner's matrix,
    ``prob.scaled_shift(alpha, ell, r)`` of the previous phase's shift and
    pair.  Returns ``(S, pair, report)``: ``pair`` the final ``(ell, r)`` at
    the final shift and ``prob.scale``, ``S = prob.scaled_shift(eps, ell,
    r)`` the matrix checked RCDD, which its callers solve with; the report
    logs each phase and records ``cap``, ``solver_tolerance`` and, for a
    strict scan, ``budget`` in its info.  A failed check raises
    :class:`_ScanFailure` with the witnessing condition, its phase and
    shift: ``cap`` iterations in one phase, a solve that misses its
    tolerance (``"solver budget"``), an inner residual that passes the
    ceiling ``18 sqrt(n) max(K, 2)^2`` or turns non-finite, a phase's pair
    with an entry that is not positive, and a final pair that fails the
    check.  A ``budget`` makes the scan strict: every phase must also pass
    the open-window check and keep the scaled phase matrix's conditioning
    bound within ``budget``.

    Under a valid conditioning bound the certified contraction keeps
    residuals below ``sqrt(n) * kappa(D)``, so blowing far past the ceiling
    refutes the M-matrix hypothesis without burning the whole iteration cap.
    """
    tol = _scan_tolerance(K)
    ceiling = 18.0 * math.sqrt(prob.n) * max(K, 2.0) ** 2
    strict = budget is not None
    ones = np.ones(prob.n)
    # a zero A starts at eps, where the loop does not run
    alpha0 = 2.0 * prob.norm_max or eps
    report = SolveReport(alpha0=alpha0, info={"cap": cap, "solver_tolerance": tol})
    if strict:
        report.info["budget"] = budget
    alpha = alpha0
    ell = r = ones / alpha0
    while alpha > eps:
        phase = len(report.phases)
        solver = _PhaseSolver(prob.scaled_shift(alpha, ell, r), ell, r, tol=tol)
        alpha /= 2.0
        if strict and varah_kappa_upper(solver.S) > budget:
            raise _ScanFailure("solver budget", phase, alpha)
        ell = r = np.zeros(prob.n)
        res_l = res_r = -ones
        k, worst = 0, 1.0  # every residual starts at -1
        # divergence of this loop is an expected, signal-carrying outcome on
        # non-M-matrices; silence transient overflow en route to the ceiling
        with np.errstate(over="ignore", invalid="ignore"):
            while worst > 0.5:
                if k >= cap:
                    raise _ScanFailure("iteration cap", phase, alpha)
                try:
                    r = r - solver.p_right(res_r)
                    ell = ell - solver.p_left(res_l)
                except BackendDiverged:
                    # a solve that misses is a conditioning signal, not an
                    # inner-loop failure of the M-matrix hypothesis
                    raise _ScanFailure("solver budget", phase, alpha) from None
                res_r = prob.shifted_matvec(alpha, r) - ones
                res_l = prob.shifted_rmatvec(alpha, ell) - ones
                worst = max(np.abs(res_r).max(), np.abs(res_l).max())
                k += 1
                if not np.isfinite(worst) or worst > ceiling:
                    raise _ScanFailure("residual ceiling", phase, alpha)
        if np.any(r <= 0.0) or np.any(ell <= 0.0):
            raise _ScanFailure("nonpositive scaling", phase, alpha)
        if strict and worst >= 0.5:
            raise _ScanFailure("window violation", phase, alpha)
        wr, wl = 1.0 + res_r, 1.0 + res_l
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
    S = prob.scaled_shift(eps, ell, r)
    if not check_rcdd(S, RCDD_VERIFY_SLACK):
        raise _ScanFailure("final verification", len(report.phases), alpha)
    return S, ScalingPair(left=ell, right=r, alpha=alpha, s=prob.scale), report


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

    ``p_right`` refines against ``M`` to ``||b - M p_right(b)||_2 <= delta
    ||b||_2`` per call, each step ``x -> R Z(L x)`` with the inner dominant
    solve ``Z`` run at tolerance ``delta / kappa(L)``, which alone meets
    the contract (``p_left`` likewise against ``M.T``, at tolerance ``delta
    / kappa(R)``); the refinement of :func:`build_rcdd_solver`, with its
    errors.  The condition numbers of the diagonal scalings are computed
    exactly as max over min entry.  Both operators share one RCDD check and
    one solver of ``L M R`` (one LAPACK factorization, up to the dense
    cutoff): the recipe is :func:`build_rcdd_solver`'s
    (``rcdd._scaled_rcdd_operator``), ``p_left`` is
    ``p_right.transpose(delta)``, and ``p_right.transpose(e)`` gives the
    left operator at any other ``e``.
    """
    _check_open_unit(delta, "delta")
    if scale.left.shape[0] != M.n_rows or scale.right.shape[0] != M.n_cols:
        raise ValueError("scaling length does not match the matrix")
    p_right = _scaled_rcdd_operator(M, scale.left, scale.right, delta, "M")
    return MSolveOperators(p_right=p_right, p_left=p_right.transpose(delta), delta=delta)


def mmatrix_scale(A: SparseMatrix, s: float, eps: float, K: float):
    """Compute a positive diagonal pair making ``(1+eps) s I - A`` RCDD.

    The pair is the bracket's (:func:`_bracket_pair`), which needs no ``K``.
    Only when the bracket settles nothing does the halving scan run, and
    ``K`` serves it alone: it should dominate ``max(s ||M^-1||_inf, s
    ||M^-1||_1)`` for ``M = s I - A``; the bound is not checked and a
    violation (or ``rho(A) >= s``) surfaces as :class:`IterationCapHit`, as
    does a phase solve that misses its tolerance above the dense cutoff.
    Returns ``(ScalingPair, SolveReport)``: the report logs the scan's
    phases, none on the bracket path, and counts the bracket's
    shift-and-invert steps in ``info["bracket_steps"]`` and its power steps
    in ``info["power_steps"]``.
    """
    _check_scale_args(A, s, eps, K)
    found, bracket = _bracket_pair(A, s, eps, "(1 + eps) s")
    _, pair, report = _mmatrix_scale(A, s, eps, K) if found is None else (*found, SolveReport())
    report.info.update(bracket.step_counts)
    return pair, report


def _bracket_pair(A: SparseMatrix, s: float, eps: float, bound: str, *, symmetric=False):
    """``(found, bracket)``: the ``(S, pair)`` :meth:`_CWBracket.checked_pair`
    finds at ``(1 + eps) s``, or ``None`` when the bracket settles nothing,
    and the bracket, which counts its steps in ``factorizations`` and
    ``power_steps``.  A False
    verdict raises
    :class:`IterationCapHit` naming ``bound``, which the CW lower bound then
    certifies ``rho(A)`` reaches whatever the conditioning.  ``symmetric``
    is the symmetric callers' one-sided bracket (see :class:`_CWBracket`)."""
    bracket = _CWBracket(A, symmetric=symmetric)
    found = bracket.checked_pair(s, eps)
    if found is False:
        raise IterationCapHit(
            f"rho(A) >= {bound} certified: a Collatz-Wielandt lower bound puts rho(A) "
            f"at {bracket.lower:.6e} or above",
        )
    return found, bracket


def _check_scale_args(A: SparseMatrix, s: float, eps: float, K: float) -> None:
    _check_square_nonnegative(A)
    if not all(0.0 < v < math.inf for v in (s, eps, K)):
        raise ValueError("s, eps, K must be positive")


def _mmatrix_scale(A: SparseMatrix, s: float, eps: float, K: float):
    """:func:`mmatrix_scale`'s scan plus the matrix it checked RCDD:
    ``(S, pair, report)``, ``S = diag(l) ((1 + eps) I - A / s) diag(r)``."""
    try:
        return _halving_scan(_Problem(A, s), eps, K, scaling_iteration_cap(A.n_rows, K, eps))
    except _ScanFailure as fail:
        raise fail.cap_hit("scaling phase", "either rho(A) >= s or K is too small") from None


def solve_m(A: SparseMatrix, s: float, eps: float, K: float) -> LinearOperator:
    """Operator ``P`` with ``||b - (s I - A) P(b)||_2 <= eps ||b||_2``.

    The shift-and-invert bracket decides ``rho(A) < s`` at ``s`` itself,
    with no ``K``, and a True verdict's pair, checked to scale ``s I - A``
    RCDD, builds the operator the applications build (:func:`_pair_operator`):
    each step solves with that unshifted scaled matrix, so it contracts
    however close ``rho(A)`` is to ``s``.  A CW lower bound that reaches
    ``s`` raises :class:`IterationCapHit`: ``rho(A) >= s`` is certified,
    whatever ``K``.  Only a bracket that settles nothing (it fails, or its
    bounds meet within rounding of ``s``) hands over to the halving scan at
    conditioning bound ``K``, on ``(1+eps/3)(1+eps/2) s I - A`` (within
    ``(1+eps) s``), whose pair preconditions the same refinement
    (:func:`_refined_operator`); a miss of its phase solves, and a
    refinement out of iterations, raise :class:`IterationCapHit`.  A
    refinement that rounding keeps from the contract raises
    :class:`RoundingFloorHit`, which no larger ``K`` repairs, and a
    preconditioner solve that misses :class:`BackendDiverged`.
    ``report.info`` counts the scan's phases (``"scaling_phases"``, 0 on the
    bracket path) and the bracket's shift-and-invert and power steps
    (``"bracket_steps"``, ``"power_steps"``).
    """
    _check_open_unit(eps, "eps")
    _check_scale_args(A, s, eps, K)
    found, bracket = _bracket_pair(A, s, 0.0, "s")
    if found is not None:
        op, phases = _pair_operator(A, eps, *found), 0
    else:
        s_mid = s * (1.0 + eps / 2.0)
        S, pair, scale_report = _mmatrix_scale(A, s_mid, eps / 3.0, K)
        op, phases = _refined_operator(A, s, eps, K, S, pair, eps / 3.0), len(scale_report.phases)
    op.report.info.update(scaling_phases=phases, **bracket.step_counts)
    return op


def _inverse_norm_bounds(A: SparseMatrix, pair: ScalingPair) -> tuple[float, float]:
    """Bounds on ``(s ||(s I - A)^-1||_inf, s ||(s I - A)^-1||_1)``, ``s =
    pair.s``, from a pair whose CW upper bounds over ``s``, ``c_r`` (right
    vector on ``A``) and ``c_l`` (left vector on ``A.T``), recomputed here,
    lie below 1.  ``A r <= c_r s r`` gives ``(I - A / s) r >= (1 - c_r) r``,
    and as ``(I - A / s)^-1`` is nonnegative its row sums are at most
    ``kappa(r) / (1 - c_r)``; the left vector bounds the column sums by
    ``kappa(l) / (1 - c_l)`` likewise."""
    c_right = _cw_bounds(A, pair.right)[1] / pair.s
    c_left = _cw_bounds(A, pair.left, transpose=True)[1] / pair.s
    return pair.kappa_right / (1.0 - c_right), pair.kappa_left / (1.0 - c_left)


def _pair_operator(A: SparseMatrix, eps: float, S, pair: ScalingPair):
    """:func:`_refined_operator` of a pair checked at no shift, ``S =
    diag(l) (I - A / pair.s) diag(r)`` the matrix checked, at the
    conditioning bound the pair proves (:func:`_inverse_norm_bounds`): the
    operator of :func:`solve_m` on the bracket path and of Katz, Leontief
    and the kernel."""
    return _refined_operator(A, pair.s, eps, max(_inverse_norm_bounds(A, pair)), S, pair, 0.0)


def _refined_operator(A, s, eps, K, S, pair, alpha) -> LinearOperator:
    """The engine's one operator from a checked scaling: ``P`` with ``||b -
    (s I - A) P(b)||_2 <= eps ||b||_2`` by :func:`_refined_apply` against
    ``s I - A``, each step preconditioned by one solve of the
    :class:`_PhaseSolver`'s backend of ``S = diag(l) ((1 + alpha) I - A /
    pair.s) diag(r)``, the matrix the pair was checked RCDD on, to the
    tighter of ``_scan_tolerance(K)`` and what the contract still needs
    (:func:`rcdd._step_solve`): above the dense cutoff one step of at most
    ``_scan_tolerance(K)`` usually meets ``eps``.  ``K`` bounds ``s ||(s I -
    A)^-1||``, so the step count grows with ``K`` times the
    preconditioner's shift above ``s``."""
    solver = _PhaseSolver(S, pair.left, pair.right, tol=_scan_tolerance(K))

    def precond(x, need):
        y = _step_solve(solver.backend, pair.left * x, False, solver.tol, need)
        return pair.right * y / pair.s

    gap = (1.0 + alpha) * pair.s / s - 1.0
    cap = max(64, math.ceil(8.0 * (1.0 + gap * K) * math.log(A.n_rows * max(K, 2.0) / eps)))
    apply_fn = _refined_apply(A, precond, eps, cap, "s I - A", shift=s)
    return LinearOperator(apply_fn, A.n_rows, eps, solver.backend)


# ----------------------------------------------------------------------
# symmetric path


def _check_symmetric_nonnegative(A: SparseMatrix):
    _check_square_nonnegative(A)
    if not _is_symmetric(A):
        raise ValueError("matrix must be symmetric")


# the shifts the symmetric solves' fallback tries in turn: 1/2, 1/8, ... down to about 3e-8
_SHIFT_SEARCH = tuple(0.5 / 4.0**k for k in range(13))


def _symmetric_scaling(A: SparseMatrix, eps: float, shifts):
    """``((S, pair), report)`` for symmetric nonnegative ``A``: ``pair =
    ScalingPair(v, v, eps, 1)`` and ``S = V ((1 + eps) I - A) V`` the CSR
    matrix the bracket checked RCDD, which for symmetric ``A`` is SDD.

    ``v`` is the right iterate of :func:`_bracket_pair` at ``1 + eps``, its
    bracket one-sided (see :class:`_CWBracket`): for symmetric ``A``, ``V
    ((1 + eps) I - A) V`` is SDD exactly when ``A v < (1 + eps) v``, which a
    True verdict holds, and its checked ``(S, pair)`` is returned as is.
    When the bracket settles nothing or its ``v`` fails the check, a
    halving scan at each of ``shifts`` in turn gives ``v``, its right
    vector, at ``K = 1 / shift`` (``rho(A) < 1`` bounds ``||((1 + shift) I
    - A)^-1||_2`` by it), accepted when the same bracket's
    :meth:`_CWBracket.checked` passes ``ScalingPair(v, v, eps, 1)``; a
    failed scan raises :class:`IterationCapHit`, a search that ends with no
    ``v`` accepted :class:`NotSDDAfterScaling`.  The report
    logs the scan's phases, counts the bracket's steps in
    ``info["bracket_steps"]`` and ``info["power_steps"]`` (see
    :attr:`_CWBracket.step_counts`) and names the shift ``v`` is from in
    ``info["shift"]``."""
    bound = f"1 + {eps!r}" if eps else "1"
    found, bracket = _bracket_pair(A, 1.0, eps, bound, symmetric=True)
    report, shift, remaining = SolveReport(), eps, iter(shifts)
    while found is None:
        shift = next(remaining, None)
        if shift is None:
            raise NotSDDAfterScaling(
                f"no shift down to {shifts[-1]:.1e} gave a v with V (s I - A) V dominant at "
                f"s = {bound}: rho(A) is too close to s, or s I - A numerically singular"
            )
        cap = scaling_iteration_cap(A.n_rows, 1.0 / shift, shift)
        try:
            _, pair, report = _halving_scan(_Problem(A, 1.0), shift, 1.0 / shift, cap)
        except _ScanFailure as fail:
            raise fail.cap_hit("symmetric phase", "rho(A) < 1 appears violated") from None
        found = bracket.checked(ScalingPair(pair.right, pair.right, eps, 1.0))
    report.info.update(bracket.step_counts, shift=shift)
    return found, report


def symm_scale(A: SparseMatrix, eps: float):
    """Positive diagonal ``v`` with ``diag(v) ((1+eps) I - A) diag(v)`` SDD.

    Assumes ``A`` symmetric nonnegative with ``rho(A) < 1`` (normalized
    problem).  ``v`` is the right iterate of a one-sided bracket, which
    solves for no left iterate, else the right vector of a halving scan at
    ``K = 1 / eps``, either passing the bracket's check (see
    :func:`_symmetric_scaling`); a bracket that certifies ``rho(A) >= 1 +
    eps``, or a failed phase of the scan, a solve that misses included
    (``"solver budget"``), raises :class:`IterationCapHit`.  Returns ``(v,
    report)``; the report logs the scan's phases, none on the bracket path,
    and counts the bracket's steps in ``info["bracket_steps"]`` and
    ``info["power_steps"]``.
    """
    _check_symmetric_nonnegative(A)
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be positive")
    (_, pair), report = _symmetric_scaling(A, eps, (eps,))
    return pair.right, report


def _sdd_solve(S, v, scale_report, M, b, delta, against, shift=None):
    """``(x, report)`` with ``||M' x - b||_2 <= delta ||b||_2``, ``M' =
    shift I - M`` or, without a ``shift``, ``M`` itself, ``against`` its
    name in the errors.  ``S = V M' V`` is the CSR matrix the caller checked
    SDD, so symmetric positive definite: one backend solver of it (conjugate
    gradients above the dense cutoff), each step one solve to the tighter of the
    l2 tolerance of energy accuracy 1/4 (from the line sums the check took
    and ``S`` keeps, so with no second pass) and what the contract still
    needs (:func:`rcdd._step_solve`; an LU, exact, ignores both),
    preconditions :func:`_refined_apply` against ``M'``, the refinement
    ``solve_m`` applies, with its rounding bound on the residual.  The
    report holds the refinement's iterations and residual norms, the phases
    and entries of ``scale_report``, the scaling's, and ``v`` in
    ``info["scaling"]``."""
    # the caller's check makes S symmetric and dominant, with a positive
    # diagonal: symmetric positive definite
    solver = _phase_backend(S, True)
    tol = _sdd_l2_tolerance(S, 0.25)

    def precond(x, need):
        return v * _step_solve(solver, v * x, False, tol, need)

    cap = max(64, math.ceil(8.0 * math.log(4.0 / min(delta, 1.0))))
    x, report = _refined_apply(M, precond, delta, cap, against, shift=shift)(b)
    report.phases = scale_report.phases
    report.info.update(scale_report.info, scaling=v)
    return x, report


def symm_solve(A: SparseMatrix, b, delta: float):
    """Solve ``(I - A) x = b`` for symmetric nonnegative ``A`` with
    ``rho(A) < 1`` to ``||(I - A) x - b||_2 <= delta ||b||_2``.

    ``v`` scales ``I - A`` SDD: the right iterate of a one-sided bracket at
    the unit shift, else the right vector of the first of the halving scans
    at the shifts 1/2, 1/8, ... down to about 3e-8, each at ``K = 1 /
    shift``, whose ``v`` does (see :func:`_symmetric_scaling`).  One solver
    of the ``V (I -
    A) V`` the bracket checked, one solve per step, then preconditions
    Richardson refinement against ``I - A``, its products ``x - A x`` as in
    :func:`solve_m`, until the residual plus a bound on its own rounding
    meets the contract.  A bracket that certifies ``rho(A) >= 1``, a failed
    scan and a refinement at its cap raise :class:`IterationCapHit`, a
    refinement that rounding keeps from the contract (near ``rho(A) = 1``)
    :class:`RoundingFloorHit`, a search that finds no ``v``
    :class:`NotSDDAfterScaling`, and a Krylov solve that misses
    :class:`BackendDiverged`.  The report counts the bracket's steps in
    ``info["bracket_steps"]`` and ``info["power_steps"]`` and logs the
    fallback's phases.
    """
    _check_symmetric_nonnegative(A)
    _check_open_unit(delta, "delta")
    b = as_vector(b, A.n_rows, "b")
    (S, pair), scale_report = _symmetric_scaling(A, 0.0, _SHIFT_SEARCH)
    return _sdd_solve(S, pair.right, scale_report, A, b, delta, "I - A", shift=1.0)


def _normalized_comparison(M: SparseMatrix) -> SparseMatrix:
    """``(s' I - comparison(M)) / s'`` with ``s'`` the largest diagonal entry
    of ``M``: diagonal ``1 - M_ii / s'``, off-diagonal ``|M_ij| / s'``, on
    the pattern of ``M`` less the diagonals that are 0 (``s'``'s among
    them)."""
    pattern, values = M._pattern, M.csr().data
    on_diag = pattern.diagonal
    diag = np.zeros(M.n_rows)
    diag[pattern.indices.take(on_diag)] = values.take(on_diag)
    if np.any(diag <= 0.0):
        raise ValueError("matrix must have a strictly positive diagonal")
    s_prime = float(diag.max())
    comparison = np.abs(values)
    comparison[on_diag] = s_prime - values.take(on_diag)
    return SparseMatrix._derived(pattern, comparison * (1.0 / s_prime))


def factor_width2_solve(M: SparseMatrix, b, delta: float):
    """Solve ``M x = b`` for a symmetric matrix asserted to have factor width 2.

    Scales the normalized comparison matrix ``A`` of ``M`` (off-diagonal
    magnitudes) as :func:`symm_solve` scales its ``A`` (a one-sided bracket
    first).  ``V (I - A) V`` is dominant exactly when ``V M V`` is, but only
    up to the sign of ``M``'s off-diagonals, so this solve forms ``V M V``
    from ``M`` itself, checks it SDD once and preconditions
    :func:`symm_solve`'s refinement against ``M`` with one solve of it per
    step; rounding that keeps the refinement from the contract raises
    :class:`RoundingFloorHit`.  Input that is not factor width 2 raises
    :class:`IterationCapHit` when the bracket certifies ``rho(A) >= 1`` or
    a fallback scan fails, and :class:`NotSDDAfterScaling` when no shift
    makes ``V (I - A) V`` dominant or, at once, when ``V M V`` fails its
    check.  A solve that misses raises :class:`IterationCapHit` in a
    fallback scan and :class:`BackendDiverged` in a refinement step.
    ``info["shift"]`` is 0 on the bracket path and ``info["scaling"]``
    holds ``v``.
    """
    if not M.is_square:
        raise ValueError("expected a square matrix")
    _check_open_unit(delta, "delta")
    b = as_vector(b, M.n_rows, "b")
    A_norm = _normalized_comparison(M)
    _check_symmetric_nonnegative(A_norm)
    (_, pair), scale_report = _symmetric_scaling(A_norm, 0.0, _SHIFT_SEARCH)
    v = pair.right
    S = apply_scaling(v, M, v)
    if not check_sdd(S, RCDD_VERIFY_SLACK):
        raise NotSDDAfterScaling("V M V fails its SDD check: M is not symmetric factor width 2")
    return _sdd_solve(S.csr(), v, scale_report, M, b, delta, "M")
