"""The matvec-only phase solves above the dense cutoff.

Above ``rcdd._DENSE_CUTOFF`` unknowns every matrix the engine forms is
solved by a Jacobi-preconditioned Krylov method to the relative residual
its caller passes, with no factorization, in passes that each restart from
``x`` and its true residual while that residual misses: conjugate gradients
for a matrix symmetric positive definite by construction (a checked SDD
matrix, the step matrix of an exactly symmetric ``A``), BiCGSTAB for every
other.  A solve that
still misses raises :class:`BackendDiverged`, and each caller has one typed
outcome for it: a failed bracket, the ``"solver budget"`` failure of a
scan, one-sided or not, the end of the polish, or the error itself from an
operator.

Parity: at n = 500 the decisions equal the dense oracle's and the LU path's
(the same instance below a raised cutoff, where LAPACK serves), the Perron
estimate stays within delta of the oracle with a Collatz-Wielandt width
within 10x of the LU one, the solvers meet their contracts and reruns are
bit-identical.  Fault injection: solves that miss or return perturbed
vectors never produce a wrong positive verdict, an operator that breaks its
contract, a Perron estimate above ``rho`` or an untyped error.  A pinned
near-cycle whose BiCGSTAB recurrence stagnates converges after a restart,
and a family of ill-conditioned inputs above the cutoff stays sound.
"""

import functools
import math

import numpy as np
import pytest
import scipy.sparse.linalg

import perronkit.perron
import perronkit.rcdd
import perronkit.scaling
from perronkit import (
    BackendDiverged,
    BoundaryUndecidable,
    IterationCapHit,
    KCapExceeded,
    ScalingPair,
    SparseMatrix,
    apply_scaling,
    build_rcdd_solver,
    build_sdd_solver,
    certify_spectral_bound,
    check_rcdd,
    check_sdd,
    collatz_wielandt_bounds,
    compute_perron,
    factor_width2_solve,
    find_perron_value,
    katz_centrality,
    leontief_equilibrium,
    m_decide,
    mmatrix_scale,
    shifted_m_matrix,
    simple_perron,
    solve_from_scale,
    solve_m,
    symm_scale,
    symm_solve,
)
from perronkit.oracle import dense_spectral_radius
from perronkit.rcdd import _DENSE_CUTOFF, _KRYLOV_CAP, _KRYLOV_PASSES, _KrylovSolver
from perronkit.scaling import _CW_SOLVE_TOL, _PhaseSolver, _Problem
from perronkit.sparse import RCDD_VERIFY_SLACK, _kernel_product

from conftest import (
    bracket_off,
    count_krylov,
    fail_krylov,
    random_factor_width2_dense,
    random_irreducible_dense,
    random_sdd_dense,
    random_strictly_rcdd_dense,
    random_symmetric_contraction_dense,
    record_rounds,
    record_scans,
    ring_digraph,
)

N = 500
BUDGET_WITNESS = "scaled-system conditioning exceeded the solver budget"


def ring_instance(n, seed=70, degree=5.0):
    """A Hamiltonian cycle plus about ``degree`` random edges per row, and
    its spectral radius from the dense oracle."""
    M = random_irreducible_dense(np.random.default_rng(seed), n, density=degree / n)
    rho, _ = dense_spectral_radius(M, tol=1e-12)
    return M, rho


@pytest.fixture(scope="module")
def ring():
    assert N > _DENSE_CUTOFF
    return ring_instance(N)


@pytest.fixture(scope="module")
def slow_ring():
    """A ring instance with about three random edges per row, not five: it
    mixes so slowly that the bracket keeps no power step and settles every
    bound by shift-and-invert steps."""
    return ring_instance(N, degree=3.0)


def scaled(M, rho, target):
    return SparseMatrix.from_dense(M * (target / rho))


def dense_path(monkeypatch):
    """Serve every matrix of up to ``N`` unknowns by the LAPACK LU, as below
    the cutoff."""
    monkeypatch.setattr(perronkit.rcdd, "_DENSE_CUTOFF", N)


def holds(outcome, A, eps):
    """Whether an ``m_decide`` verdict on ``A`` holds when recomputed from
    its vectors alone: a positive verdict's pair makes ``(1 + eps) I - A``
    RCDD, and a negative one's certificate, when it has one, has a better
    CW lower bound at ``1 + eps`` or above."""
    tol = (A.n_rows + 2) * np.finfo(float).eps
    if outcome.is_m_matrix:
        pair = outcome.scaling
        S = apply_scaling(pair.left, shifted_m_matrix(A, 1.0, eps), pair.right)
        return check_rcdd(S, RCDD_VERIFY_SLACK)
    cert = outcome.certificate
    if cert is None:
        return True
    lower = max(
        collatz_wielandt_bounds(A, cert.right)[0],
        collatz_wielandt_bounds(A.transpose(), cert.left)[0],
    )
    return lower * (1 - tol) >= 1 + eps


# ----------------------------------------------------------------------
# parity with the dense oracle and the LU path at n = 500


@pytest.mark.parametrize("target", [0.95, 1.1])
def test_m_decide_matches_the_lu_path(monkeypatch, slow_ring, target):
    """The Krylov decision is the oracle's (``rho`` from the dense
    eigensolver), holds when recomputed, and equals the decision of the LU
    path, LAPACK on the same instance below a raised cutoff.  On the slowly
    mixing ring power steps settle neither side of ``1 + eps``, so the
    bracket takes shift-and-invert steps, Krylov solves."""
    A = scaled(*slow_ring, target)
    with monkeypatch.context() as patch:
        counts = count_krylov(patch)
        krylov = m_decide(A, 1e-3, 1e3)
    assert counts["krylov"] >= 1
    assert krylov.is_m_matrix == (target < 1.0)
    assert holds(krylov, A, 1e-3)
    with monkeypatch.context() as patch:
        dense_path(patch)
        counts = count_krylov(patch)
        lu = m_decide(A, 1e-3, 1e3)
    assert counts["krylov"] == 0
    assert krylov.verdict is lu.verdict
    assert krylov.witness == lu.witness
    if krylov.is_m_matrix:
        assert len(krylov.report.phases) == len(lu.report.phases)
        assert krylov.scaling.alpha == lu.scaling.alpha


def test_compute_perron_within_delta_and_sharp(monkeypatch, ring):
    """Within delta of the oracle's ``rho``, with a CW width within 10x of
    the LU path's (LAPACK on the same instance below a raised cutoff)."""
    M, rho = ring
    A = SparseMatrix.from_dense(M)
    delta = 1e-3
    with monkeypatch.context() as patch:
        counts = count_krylov(patch)
        cert = compute_perron(A, delta)
    assert counts["krylov"] >= 1
    assert (1.0 - delta) * rho < cert.s <= rho * (1.0 + 1e-10)
    assert cert.cw_lower <= rho * (1.0 + 1e-10) and cert.cw_upper >= rho * (1.0 - 1e-10)
    with monkeypatch.context() as patch:
        dense_path(patch)
        lu = compute_perron(A, delta)
    assert (1.0 - delta) * rho < lu.s <= rho * (1.0 + 1e-10)
    width = (cert.cw_upper - cert.cw_lower) / cert.cw_lower
    lu_width = (lu.cw_upper - lu.cw_lower) / lu.cw_lower
    assert width <= 10.0 * lu_width


def test_solvers_meet_their_contracts(monkeypatch, ring):
    M, rho = ring
    rng = np.random.default_rng(71)
    counts = count_krylov(monkeypatch)
    eps = 1e-6
    # at 0.98, not 0.95, power steps alone settle neither bracket
    A_below = M * (0.98 / rho)
    op = solve_m(SparseMatrix.from_dense(A_below), 1.0, eps, 1e3)
    for _ in range(2):
        b = rng.random(N) + 0.01
        x = op.apply(b)
        assert np.linalg.norm(x - A_below @ x - b) <= eps * np.linalg.norm(b)

    sym = random_symmetric_contraction_dense(rng, N, 0.98, density=5.0 / N)
    b = rng.normal(size=N)
    x, _ = symm_solve(SparseMatrix.from_dense(sym), b, eps)
    assert np.linalg.norm(x - sym @ x - b) <= eps * np.linalg.norm(b)
    # the bracket steps and the preconditioners are Krylov solves
    assert counts["krylov"] >= 3

    fw2 = random_factor_width2_dense(rng, N)
    x, _ = factor_width2_solve(SparseMatrix.from_dense(fw2), b, eps)
    assert np.linalg.norm(fw2 @ x - b) <= eps * np.linalg.norm(b)


def test_reruns_are_bit_identical(ring):
    M, rho = ring
    A = scaled(M, rho, 0.9)
    first, second = (m_decide(A, 1e-3, 1e3) for _ in range(2))
    assert np.array_equal(first.scaling.left, second.scaling.left)
    assert np.array_equal(first.scaling.right, second.scaling.right)
    certs = [compute_perron(SparseMatrix.from_dense(M), 1e-3) for _ in range(2)]
    assert certs[0].s == certs[1].s
    assert np.array_equal(certs[0].right, certs[1].right)
    b = np.linspace(1.0, 2.0, N)
    ops = [solve_m(A, 1.0, 1e-6, 1e3) for _ in range(2)]
    assert np.array_equal(ops[0].apply(b), ops[1].apply(b))


# ----------------------------------------------------------------------
# the solver itself: the true residual decides


def krylov_case(rng, symmetric):
    """``(S, core)``: a strictly RCDD CSR matrix, symmetric positive definite
    with ``symmetric``, and the name of the core its solver runs, conjugate
    gradients for the symmetric one (built with ``spd``)."""
    S = random_strictly_rcdd_dense(rng, 40)
    if symmetric:
        S = S + S.T
    return scipy.sparse.csr_matrix(S), "_cg_core" if symmetric else "_bicgstab_core"


@pytest.mark.parametrize("symmetric", [False, True], ids=["bicgstab", "symmetric"])
def test_true_residual_catches_a_false_convergence(monkeypatch, symmetric):
    """A Krylov core that reports convergence on a perturbed iterate is
    caught by the true residual: the next pass restarts from it and repairs
    a single miss.  A miss on every pass raises :class:`BackendDiverged`
    after the last one.  The symmetric matrix's solver runs conjugate
    gradients."""
    rng = np.random.default_rng(72)
    S, name = krylov_case(rng, symmetric)
    b = rng.normal(size=40)
    tol = 1e-10
    real_core = getattr(perronkit.rcdd, name)
    # the number of core calls that lie, and the calls that did
    lies = {"budget": 1, "told": 0}

    def lying_core(*args, **kwargs):
        x, its = real_core(*args, **kwargs)
        if lies["told"] < lies["budget"]:
            lies["told"] += 1
            x = x * (1.0 + 1e-3 * np.sin(np.arange(x.size)))
        return x, its

    monkeypatch.setattr(perronkit.rcdd, name, lying_core)
    for transpose in (False, True):
        lies["told"] = 0
        x = _KrylovSolver(S, symmetric).solve(b, transpose, tol)
        mat = S.T if transpose else S
        assert lies["told"] == 1
        assert np.linalg.norm(b - mat @ x) <= tol * np.linalg.norm(b)
    lies.update(budget=10**9, told=0)
    with pytest.raises(BackendDiverged, match="true residual"):
        _KrylovSolver(S, symmetric).solve(b, False, tol)
    assert lies["told"] == _KRYLOV_PASSES


@pytest.mark.parametrize("symmetric", [False, True], ids=["bicgstab", "symmetric"])
def test_a_stalled_pass_restarts_from_its_iterate(monkeypatch, symmetric):
    """A pass that spends its budget returns its iterate instead of raising,
    and the next pass starts from that iterate and its true residual with a
    fresh recurrence; the first pass starts from zero and ``b``, and each
    pass gets ``_KRYLOV_CAP // _KRYLOV_PASSES`` iterations, of either
    method."""
    rng = np.random.default_rng(77)
    S, name = krylov_case(rng, symmetric)
    b = rng.normal(size=40)
    real_core = getattr(perronkit.rcdd, name)
    passes = []

    def stalling_core(matvec, r, eps_abs, cap, x, inv_diag):
        # the first pass stops after two iterations, as if it had stagnated
        passes.append((cap, x.copy(), r.copy()))
        x, its = real_core(matvec, r, eps_abs, 2 if len(passes) == 1 else cap, x, inv_diag)
        return x, cap if len(passes) == 1 else its

    monkeypatch.setattr(perronkit.rcdd, name, stalling_core)
    solver = _KrylovSolver(S, symmetric)
    x = solver.solve(b, False, 1e-10)
    assert np.linalg.norm(b - S @ x) <= 1e-10 * np.linalg.norm(b)
    assert len(passes) == 2
    assert [cap for cap, _, _ in passes] == [_KRYLOV_CAP // _KRYLOV_PASSES] * 2
    (_, x0, r0), (_, x1, r1) = passes
    assert not x0.any() and np.array_equal(r0, b)
    assert x1.any() and np.array_equal(r1, b - S @ x1)
    assert solver.iterations > _KRYLOV_CAP // _KRYLOV_PASSES


@pytest.mark.parametrize("symmetric", [False, True], ids=["bicgstab", "symmetric"])
def test_a_tolerance_below_rounding_passes_at_the_rounding_floor(symmetric):
    """A ``tol`` no floating-point solve can meet (a scan with a huge ``K``
    asks for one) is not a miss once the residual is below the rounding
    error of its own computation, by either method."""
    rng = np.random.default_rng(75)
    S, _ = krylov_case(rng, symmetric)
    b = rng.normal(size=40)
    x = _KrylovSolver(S, symmetric).solve(b, False, 1e-30)
    # 40 entries in every row and column
    rounding = 41 * np.finfo(float).eps
    floor = rounding * (np.linalg.norm(S.data) * np.linalg.norm(x) + np.linalg.norm(b))
    assert 0.0 < np.linalg.norm(b - S @ x) <= floor


def early_cg_core(matvec, r, eps_abs, cap, x, inv_diag):
    """A conjugate gradient pass that breaks down at once and returns its
    start ``x``, as a nonpositive ``p.S p`` makes the real one."""
    return x.copy(), 0


def test_a_cg_breakdown_ends_in_a_backend_divergence(monkeypatch):
    """A conjugate gradient pass that breaks down returns its iterate early,
    and the true residual decides: a solve whose every pass breaks down
    raises :class:`BackendDiverged` after its last pass with its finite
    start iterate, whether the pass is patched to return early or meets a
    real breakdown (an indefinite ``S``, whose ``p.S p`` is negative).
    Above the cutoff ``symm_solve`` then raises it too: nothing returns a
    NaN, and nothing hangs."""
    n = 40
    indefinite = scipy.sparse.csr_matrix(np.kron(np.eye(n // 2), [[1.0, 2.0], [2.0, 1.0]]))
    b = np.tile([1.0, -1.0], n // 2)
    with pytest.raises(BackendDiverged, match="after 4 iterations") as miss:
        _KrylovSolver(indefinite, True).solve(b, False, 1e-10)
    assert np.isfinite(miss.value.x).all() and miss.value.relative == 1.0
    monkeypatch.setattr(perronkit.rcdd, "_cg_core", early_cg_core)
    S, _ = krylov_case(np.random.default_rng(79), True)
    with pytest.raises(BackendDiverged, match="after 0 iterations") as miss:
        _KrylovSolver(S, True).solve(np.ones(n), False, 1e-10)
    assert not miss.value.x.any() and miss.value.relative == 1.0
    N = _DENSE_CUTOFF + 1
    rng = np.random.default_rng(79)
    sym = SparseMatrix.from_dense(random_symmetric_contraction_dense(rng, N, 0.9, 5.0 / N))
    with pytest.raises(BackendDiverged, match="missed its tolerance"):
        symm_solve(sym, rng.normal(size=N), 1e-6)


# ----------------------------------------------------------------------
# fault injection on the phase solves


@pytest.fixture(scope="module")
def small_ring():
    return ring_instance(150, seed=73)


@pytest.fixture
def krylov_at_150(monkeypatch):
    """Route the n = 150 instances through the Krylov backend, so faults can
    be injected cheaply."""
    monkeypatch.setattr(perronkit.rcdd, "_DENSE_CUTOFF", 128)


def missing(self, b, transpose, tol):
    raise BackendDiverged("injected miss")


@pytest.fixture
def krylov_misses(monkeypatch):
    fail_krylov(monkeypatch)


def perturbing(scale, seed=74):
    """A solve that returns the true solve's result with each entry scaled by
    ``1 + scale * noise``: no residual is checked and nothing is raised."""
    real = _KrylovSolver.solve
    rng = np.random.default_rng(seed)

    def solve(self, b, transpose, tol):
        x = real(self, b, transpose, tol)
        return x * (1.0 + scale * rng.standard_normal(x.size))

    return solve


FAULTS = {
    "miss": missing,
    "noise-1e-6": perturbing(1e-6),
    "noise-1e-2": perturbing(1e-2),
    "noise-2": perturbing(2.0),
    "nan": lambda self, b, transpose, tol: np.full_like(b, np.nan),
}


def test_a_miss_in_m_decide_is_the_solver_budget_witness(
    monkeypatch, small_ring, krylov_at_150, krylov_misses
):
    """With the bracket off, a miss in the scan's first phase is its
    witness, whatever the matrix."""
    bracket_off(monkeypatch)
    M, rho = small_ring
    for target in (0.9, 1.1):
        outcome = m_decide(scaled(M, rho, target), 1e-3, 1e3)
        assert not outcome.is_m_matrix
        assert outcome.witness.startswith(BUDGET_WITNESS + " at phase 0 ")


def test_a_miss_in_the_bracket_is_never_an_error(
    monkeypatch, small_ring, krylov_at_150, krylov_misses
):
    """A bracket step whose solve misses fails the bracket, and ``m_decide``
    answers from the scan, never with the error.  Every Krylov pass stalls
    here, so the scan's first phase misses as well, and on both sides of 1
    the verdict is the scan's ``"solver budget"`` witness, with no
    certificate.  At ``rho`` = 0.98 and 1.02 power steps alone settle
    neither side, so the bracket reaches a solve."""
    M, rho = small_ring
    failed = []
    real_iterates = perronkit.scaling._CWBracket._iterates

    def iterates(self):
        yield from real_iterates(self)
        failed.append(self.failed)

    monkeypatch.setattr(perronkit.scaling._CWBracket, "_iterates", iterates)
    for target in (0.98, 1.02):
        outcome = m_decide(scaled(M, rho, target), 1e-3, 1e3)
        assert not outcome.is_m_matrix and outcome.certificate is None
        assert outcome.witness.startswith(BUDGET_WITNESS + " at phase 0 ")
    assert failed == [True, True]


# the errors an entry point may raise when its solves miss: certify_spectral_bound
# reports its rounds' KCapExceeded as BoundaryUndecidable
TYPED_ERRORS = (BackendDiverged, IterationCapHit, KCapExceeded, BoundaryUndecidable)


def test_a_miss_elsewhere_is_sound_or_a_typed_error(
    monkeypatch, small_ring, krylov_at_150, krylov_misses
):
    """With every Krylov pass stalling, every public entry point above the
    cutoff returns an answer that holds when recomputed, or raises
    :class:`BackendDiverged`, :class:`IterationCapHit` or
    :class:`KCapExceeded` (:class:`BoundaryUndecidable` from
    ``certify_spectral_bound`` and the applications built on it).  Perron
    rounds are bounded at two.  The inputs, at ``rho`` = 0.98 and 1.02, are
    ones that power steps alone do not settle, so their brackets reach a
    Krylov solve."""
    record_rounds(monkeypatch, 2)
    M, rho = small_ring
    n = M.shape[0]
    rng = np.random.default_rng(76)
    below, above = 0.98, 1.02
    A, A_dense = scaled(M, rho, below), M * (below / rho)
    sym_dense = random_symmetric_contraction_dense(rng, n, below, 5.0 / n)
    sym = SparseMatrix.from_dense(sym_dense)
    fw2 = random_factor_width2_dense(rng, n, rows_per_col=1)
    dominant = random_strictly_rcdd_dense(rng, n)
    sdd = random_sdd_dense(rng, n)
    b = np.linspace(1.0, 2.0, n)
    ones = np.ones(n)

    def residual_within(S, eps):
        return lambda x: np.linalg.norm(S @ x - b) <= eps * np.linalg.norm(b)

    def decision_holds(target):
        return lambda outcome: holds(outcome, scaled(M, rho, target), 1e-3)

    def bound_holds(result):
        valid, cert = result
        return valid and cert.cw_upper < 1.0

    I_minus = np.eye(n) - A_dense
    calls = {
        "m_decide": (lambda: m_decide(A, 1e-3, 1e3), decision_holds(below)),
        "m_decide above": (
            lambda: m_decide(scaled(M, rho, above), 1e-3, 1e3),
            lambda outcome: not outcome.is_m_matrix and decision_holds(above)(outcome),
        ),
        "mmatrix_scale": (
            lambda: mmatrix_scale(A, 1.0, 1e-3, 1e3)[0],
            lambda pair: check_rcdd(
                apply_scaling(pair.left, shifted_m_matrix(A, 1.0, 1e-3), pair.right),
                RCDD_VERIFY_SLACK,
            ),
        ),
        "solve_m": (
            lambda: solve_m(A, 1.0, 1e-6, 1e3).apply(b),
            residual_within(I_minus, 1e-6),
        ),
        "find_perron_value": (
            lambda: find_perron_value(A, 0.0, 10.0, 1e-3, 1e3)[0],
            lambda s: s >= below * (1.0 - 1e-10),
        ),
        "simple_perron": (lambda: simple_perron(A, 1e-3, 1e3), lambda cert: cert.s >= below),
        "compute_perron": (
            lambda: compute_perron(A, 1e-3),
            lambda cert: (1.0 - 1e-3) * below < cert.s <= below * (1.0 + 1e-10),
        ),
        "certify_spectral_bound": (lambda: certify_spectral_bound(A, 1.0), bound_holds),
        "katz_centrality": (
            lambda: katz_centrality(A, 1.0, b, 1e-6)[0],
            residual_within(I_minus, 1e-6),
        ),
        "leontief_equilibrium": (
            lambda: leontief_equilibrium(A, b, 1e-6)[1],
            residual_within(I_minus, 1e-6),
        ),
        "symm_scale": (
            lambda: symm_scale(sym, 1e-3)[0],
            lambda v: check_sdd(
                apply_scaling(v, shifted_m_matrix(sym, 1.0, 1e-3), v), RCDD_VERIFY_SLACK
            ),
        ),
        "symm_solve": (
            lambda: symm_solve(sym, b, 1e-6)[0],
            residual_within(np.eye(n) - sym_dense, 1e-6),
        ),
        "factor_width2_solve": (
            lambda: factor_width2_solve(SparseMatrix.from_dense(fw2), b, 1e-6)[0],
            residual_within(fw2, 1e-6),
        ),
        "build_rcdd_solver": (
            lambda: build_rcdd_solver(SparseMatrix.from_dense(dominant), 1e-9).apply(b),
            residual_within(dominant, 1e-9),
        ),
        "build_sdd_solver": (
            lambda: build_sdd_solver(SparseMatrix.from_dense(sdd), 1e-4).apply(b),
            # the energy contract at 1e-4 implies this l2 residual
            residual_within(sdd, 1e-4 * np.sqrt(np.linalg.cond(sdd))),
        ),
        "solve_from_scale": (
            lambda: solve_from_scale(
                SparseMatrix.from_dense(dominant),
                ScalingPair(ones, ones, alpha=0.0, s=1.0),
                1e-6,
            ).p_right.apply(b),
            residual_within(dominant, 1e-6),
        ),
    }
    raised = {}
    for name, (call, sound) in calls.items():
        try:
            result = call()
        except TYPED_ERRORS as exc:
            raised[name] = type(exc).__name__
            continue
        assert sound(result), name
    # each miss has one typed outcome (see BackendDiverged)
    assert raised == {
        **dict.fromkeys(
            [
                "mmatrix_scale",
                "solve_m",
                "simple_perron",
                "symm_scale",
                "symm_solve",
                "factor_width2_solve",
            ],
            "IterationCapHit",
        ),
        "compute_perron": "KCapExceeded",
        **dict.fromkeys(
            ["certify_spectral_bound", "katz_centrality", "leontief_equilibrium"],
            "BoundaryUndecidable",
        ),
        **dict.fromkeys(
            ["build_rcdd_solver", "build_sdd_solver", "solve_from_scale"],
            "BackendDiverged",
        ),
    }


def test_a_miss_in_the_polish_ends_it(monkeypatch, small_ring, krylov_at_150):
    """A miss in the polish's solves, and only there, ends the polish with
    its last positive pair: with the bracket failed, so that the round scans
    and polishes, and every solve after the polish's first step missing,
    ``compute_perron`` still certifies at ``K`` = 1 from the pair that step
    made, and no :class:`BackendDiverged` escapes."""
    solves = []

    class Missing(_PhaseSolver):
        def p_right(self, x):
            return self._first_step_only(super().p_right, x)

        def p_left(self, x):
            return self._first_step_only(super().p_left, x)

        def _first_step_only(self, solve, x):
            solves.append(x)
            if len(solves) > 2:
                raise BackendDiverged("injected miss")
            return solve(x)

    monkeypatch.setattr(perronkit.perron, "_PhaseSolver", Missing)
    monkeypatch.setattr(perronkit.scaling._CWBracket, "upper", lambda self, eps: None)
    M, rho = small_ring
    delta = 1e-3
    cert = compute_perron(scaled(M, rho, 1.0), delta)
    assert len(solves) == 3 and cert.k_final == 1.0
    assert (1.0 - delta) < cert.s <= 1.0 + 1e-10


# the reason an IterationCapHit gives for a missed phase solve
MISS_REASON = (
    r"solver budget; a phase solve missed its tolerance, which says nothing about rho\(A\)$"
)


def test_a_miss_in_a_symmetric_level(krylov_misses):
    """Above the cutoff a bracket step whose solve misses settles nothing,
    and the fallback's first halving level, whose solve misses too, fails
    the way a symmetric phase fails: with :class:`IterationCapHit` naming
    the solver budget, from ``symm_scale``, ``symm_solve`` and
    ``factor_width2_solve``.  The message says that a miss says nothing
    about ``rho(A)``, as ``mmatrix_scale``'s does for a miss in its scan.
    At ``rho`` = 0.98 power steps alone do not settle the bracket."""
    n = _DENSE_CUTOFF + 1
    rng = np.random.default_rng(78)
    sym = SparseMatrix.from_dense(random_symmetric_contraction_dense(rng, n, 0.98, 5.0 / n))
    fw2 = SparseMatrix.from_dense(random_factor_width2_dense(rng, n))
    b = rng.normal(size=n)
    with pytest.raises(IterationCapHit, match="symmetric phase 0 .* " + MISS_REASON):
        symm_scale(sym, 1e-3)
    with pytest.raises(IterationCapHit, match="symmetric phase 0 .* " + MISS_REASON):
        factor_width2_solve(fw2, b, 1e-6)
    with pytest.raises(IterationCapHit, match="symmetric phase 0 .* " + MISS_REASON):
        symm_solve(sym, b, 1e-6)
    with pytest.raises(IterationCapHit, match="scaling phase 0 .* " + MISS_REASON):
        mmatrix_scale(sym, 1.0, 1e-3, 1e3)


@pytest.mark.parametrize("fault", list(FAULTS))
def test_faulty_solves_stay_sound(monkeypatch, small_ring, krylov_at_150, fault):
    """Whatever the phase solves return, ``m_decide`` never certifies the
    rho = 1.1 input, ``solve_m`` either raises or returns an operator that
    meets its contract, and every Perron certificate has ``s <= rho``."""
    monkeypatch.setattr(_KrylovSolver, "solve", FAULTS[fault])
    # a loose delta and two rounds (K = 1, 2) keep the cases quick whose
    # noise defeats the bracket and sends them to the bisection
    record_rounds(monkeypatch, 2)
    M, rho = small_ring
    assert not m_decide(scaled(M, rho, 1.1), 1e-3, 1e3).is_m_matrix

    eps = 1e-6
    A_below = M * (0.9 / rho)
    b = np.linspace(1.0, 2.0, M.shape[0])
    with np.errstate(all="ignore"):
        try:
            x = solve_m(SparseMatrix.from_dense(A_below), 1.0, eps, 1e3).apply(b)
        except (BackendDiverged, IterationCapHit):
            pass
        else:
            assert np.linalg.norm(x - A_below @ x - b) <= eps * np.linalg.norm(b)

        try:
            cert = compute_perron(scaled(M, rho, 1.0), 0.25)
        except KCapExceeded:
            return
    assert cert.s <= 1.0 + 1e-10


@pytest.mark.parametrize("fault", list(FAULTS))
def test_faulty_scans_stay_sound(monkeypatch, small_ring, krylov_at_150, fault):
    """With the bracket off, whatever the scan's phase solves return,
    ``m_decide`` never certifies the rho = 1.1 input and ``solve_m`` either
    raises or returns an operator that meets its contract."""
    monkeypatch.setattr(_KrylovSolver, "solve", FAULTS[fault])
    bracket_off(monkeypatch)
    M, rho = small_ring
    assert not m_decide(scaled(M, rho, 1.1), 1e-3, 1e3).is_m_matrix
    eps = 1e-6
    A_below = M * (0.9 / rho)
    b = np.linspace(1.0, 2.0, M.shape[0])
    with np.errstate(all="ignore"):
        try:
            x = solve_m(SparseMatrix.from_dense(A_below), 1.0, eps, 1e3).apply(b)
        except (BackendDiverged, IterationCapHit):
            return
    assert np.linalg.norm(x - A_below @ x - b) <= eps * np.linalg.norm(b)


@pytest.mark.parametrize("fault", list(FAULTS))
def test_faulty_bracket_verdicts_recompute(monkeypatch, small_ring, krylov_at_150, fault):
    """Whatever the bracket's solves return, each verdict of ``m_decide``
    holds when recomputed from its vectors alone: a positive verdict, only
    ever on the rho = 0.9 input, has a pair that makes ``(1 + eps) I - A``
    RCDD, and a bracket negative has a certificate whose better CW lower
    bound reaches ``1 + eps``."""
    monkeypatch.setattr(_KrylovSolver, "solve", FAULTS[fault])
    M, rho = small_ring
    eps = 1e-3
    for target in (0.9, 1.1):
        A = scaled(M, rho, target)
        with np.errstate(all="ignore"):
            outcome = m_decide(A, eps, 1e3)
        assert target < 1.0 or not outcome.is_m_matrix
        assert holds(outcome, A, eps)


# ----------------------------------------------------------------------
# the bracket's inexact steps


def recorded_krylov(monkeypatch):
    """Record every Krylov solver built, for its ``iterations``."""
    solvers = []

    class Recorded(_KrylovSolver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            solvers.append(self)

    monkeypatch.setattr(perronkit.rcdd, "_KrylovSolver", Recorded)
    return solvers


@pytest.mark.parametrize(
    "seed, n, out_degree",
    [(0, 2000, 1), (1, 2000, 1), (0, 4000, 5)],
    ids=["near-cycle-0", "near-cycle-1", "ring-4000"],
)
def test_loose_steps_still_certify_from_the_bracket_pair(monkeypatch, seed, n, out_degree):
    """Above the cutoff the bracket's steps solve loosely while its CW gap
    is wide, yet near-cycles (Perron vectors spread over many decades) and a
    ring still certify at ``K`` = 1 from the bracket's own pair, with no
    scan, the sandwich recomputed from both vectors."""
    assert n > _DENSE_CUTOFF
    scans = record_scans(monkeypatch)
    A = ring_digraph(np.random.default_rng(seed), n, out_degree)
    delta = 1e-3
    cert = compute_perron(A, delta)
    assert cert.k_final == 1.0 and scans == []
    lower, upper = collatz_wielandt_bounds(A, cert.right)
    lower_left, upper_left = collatz_wielandt_bounds(A.transpose(), cert.left)
    assert (1 - delta) * min(upper, upper_left) <= cert.s <= max(lower, lower_left)


def test_loose_steps_spend_fewer_krylov_iterations(monkeypatch):
    """On a ring (n = 1000) the bracket's schedule spends at most 60% of the
    Krylov iterations it spends with every step pinned to
    ``_CW_SOLVE_TOL``, and both runs certify from the bracket's pair.  The
    schedule saves most where the CW gap is wide, which power steps now
    narrow first; on this ring (three out-edges per node) shift-and-invert
    steps still start at a wide gap.  This input was chosen after the power
    phase took the earlier one, ``ring_digraph(default_rng(0), 1000, 5)``,
    over the bound: the schedule spends 117 of 156 iterations there (0.75),
    against 0.56 here."""
    A = ring_digraph(np.random.default_rng(2), 1000, 3)
    spent = {}
    for schedule in ("loose", "pinned"):
        with monkeypatch.context() as patch:
            if schedule == "pinned":
                patch.setattr(perronkit.scaling, "_CW_TOL_SCALE", 0.0)
            solvers = recorded_krylov(patch)
            cert = compute_perron(A, 1e-3)
        assert cert.k_final == 1.0
        spent[schedule] = sum(solver.iterations for solver in solvers)
    assert spent["loose"] <= 0.6 * spent["pinned"]


def test_the_polish_solves_at_the_floor_tolerance(monkeypatch, small_ring, krylov_at_150):
    """The schedule is the bracket's alone: the polish after a failed
    bracket's scan, on the scan's own problem, still solves to
    ``_CW_SOLVE_TOL``."""
    tols = []

    class Recorded(_PhaseSolver):
        def __init__(self, *args, tol, **kwargs):
            tols.append(tol)
            super().__init__(*args, tol=tol, **kwargs)

    monkeypatch.setattr(perronkit.perron, "_PhaseSolver", Recorded)
    monkeypatch.setattr(perronkit.scaling._CWBracket, "upper", lambda self, eps: None)
    M, rho = small_ring
    cert = compute_perron(scaled(M, rho, 1.0), 1e-3)
    assert cert.k_final == 1.0
    assert tols and set(tols) == {_CW_SOLVE_TOL}


# ----------------------------------------------------------------------
# refinement steps sized by what the contract still needs


def counted_core(monkeypatch):
    """Count the BiCGSTAB iterations of every pass from here on."""
    ran = [0]
    real_core = perronkit.rcdd._bicgstab_core

    def core(*args):
        x, its = real_core(*args)
        ran[0] += its
        return x, its

    monkeypatch.setattr(perronkit.rcdd, "_bicgstab_core", core)
    return ran


def ring_at(n, rho_ratio, seed=0):
    """``ring_digraph(default_rng(seed), n, 5)`` scaled to ``rho`` =
    ``rho_ratio``, dense and as a :class:`SparseMatrix`."""
    dense = ring_digraph(np.random.default_rng(seed), n, 5).to_dense()
    dense *= rho_ratio / dense_spectral_radius(dense, tol=1e-12)[0]
    return dense, SparseMatrix.from_dense(dense)


def own_tolerances(monkeypatch):
    """Record the tolerance each engine preconditioner and SDD builder takes
    as its own: every ``_scan_tolerance`` and ``_sdd_l2_tolerance`` result."""
    own = []
    for module, name in (
        (perronkit.scaling, "_scan_tolerance"),
        (perronkit.scaling, "_sdd_l2_tolerance"),
        (perronkit.rcdd, "_sdd_l2_tolerance"),
    ):

        def recorded(*args, real=getattr(module, name)):
            own.append(real(*args))
            return own[-1]

        monkeypatch.setattr(module, name, recorded)
    return own


def test_a_solve_m_apply_takes_one_step(monkeypatch):
    """Each step solves to the relative residual the contract still needs,
    so on a ring (n = 700, ``rho`` = 0.9) every ``solve_m`` apply at eps =
    1e-6 meets its contract in one refinement step of at most 20 BiCGSTAB
    iterations.  Steps solved to the scan tolerance alone took two, of 26 to
    32 iterations in all."""
    dense, A = ring_at(700, 0.9)
    P = solve_m(A, 1.0, 1e-6, 1e3)
    ran = counted_core(monkeypatch)
    rng = np.random.default_rng(5)
    for _ in range(4):
        b = rng.random(700) + 0.01
        x = P.apply(b)
        assert np.linalg.norm(b - x + dense @ x) <= 1e-6 * np.linalg.norm(b)
    assert P.report.info["steps_per_call"] == [1, 1, 1, 1]
    assert max(P.report.info["iterations_per_call"]) <= 20
    assert sum(P.report.info["iterations_per_call"]) == ran[0]


def test_a_solve_between_its_need_and_its_own_tolerance_goes_on(monkeypatch):
    """A step's Krylov solve that stalls between the relative residual the
    contract still needs and the step's own tolerance (``_scan_tolerance(K)``
    for ``solve_m``) is no miss: the step goes on with its iterate, as one
    solved to its own tolerance does, and the apply still meets its contract,
    in more steps.  A solve that stalls above its own tolerance still raises
    :class:`BackendDiverged`."""
    dense, A = ring_at(700, 0.9)
    own = own_tolerances(monkeypatch)
    P = solve_m(A, 1.0, 1e-6, 1e3)
    (tol,) = own
    real_core = perronkit.rcdd._bicgstab_core
    stalls, norm_b = [], [0.0]

    def stalling_core(matvec, r, eps_abs, cap, x, inv_diag, above=False):
        if not x.any():
            # a solve's first pass starts from zero, its residual b itself
            norm_b[0] = np.linalg.norm(r)
        own_abs = tol * norm_b[0]
        if not above and eps_abs >= own_abs:
            return real_core(matvec, r, eps_abs, cap, x, inv_diag)
        if x.any():
            # a stalled recurrence gets no further from a restart
            return x.copy(), 0
        # converge, then step back along x to a residual of 0.9 (or, above,
        # 2) times the own tolerance
        level = (2.0 if above else 0.9) * own_abs
        y, its = real_core(matvec, r, 1e-3 * eps_abs, cap, x, inv_diag)
        stalls.append(level / norm_b[0])
        return (1.0 - level / norm_b[0]) * y, its

    monkeypatch.setattr(perronkit.rcdd, "_bicgstab_core", stalling_core)
    b = np.random.default_rng(6).random(700) + 0.01
    x = P.apply(b)
    assert stalls == [0.9 * tol]
    assert np.linalg.norm(b - x + dense @ x) <= 1e-6 * np.linalg.norm(b)
    assert P.report.info["steps_per_call"][0] > 1

    stalls.clear()
    monkeypatch.setattr(
        perronkit.rcdd, "_bicgstab_core", functools.partial(stalling_core, above=True)
    )
    with pytest.raises(BackendDiverged, match="missed its tolerance"):
        P.apply(b)
    assert stalls


@pytest.mark.parametrize("eps", [1e-2, 1e-6, 1e-10])
@pytest.mark.parametrize("n", [60, 400], ids=["lu", "krylov"])
def test_step_solves_are_never_looser_than_their_own(monkeypatch, n, eps):
    """Every refinement entry point meets its residual contract on both
    sides of the cutoff, and each Krylov solve of its refinement steps runs
    to a ``tol`` no looser than the step's own: ``_scan_tolerance(K)`` for
    ``solve_m``, the energy-derived l2 tolerance for ``symm_solve``,
    ``factor_width2_solve`` and ``build_sdd_solver``, and ``eps`` for
    ``build_rcdd_solver`` on ``S`` itself."""
    rng = np.random.default_rng(84)
    dense, A = ring_at(n, 0.9)
    sym = random_symmetric_contraction_dense(rng, n, 0.9, density=min(0.3, 5.0 / n))
    fw2 = random_factor_width2_dense(rng, n)
    dominant = random_strictly_rcdd_dense(rng, n)
    sdd = random_sdd_dense(rng, n)
    b = rng.random(n) + 0.01
    nb = np.linalg.norm(b)
    own = own_tolerances(monkeypatch)
    solvers, solves = [], []
    for module in (perronkit.rcdd, perronkit.scaling):

        def backend(S, *args, real=module._phase_backend):
            solvers.append(real(S, *args))
            return solvers[-1]

        monkeypatch.setattr(module, "_phase_backend", backend)
    real_solve = _KrylovSolver.solve

    def solve(self, b, transpose, tol):
        solves.append((self, tol))
        return real_solve(self, b, transpose, tol)

    monkeypatch.setattr(_KrylovSolver, "solve", solve)

    def applied(build):
        # the operator's solves alone: a builder's build makes none
        op = build()
        solves.clear()
        return op.apply(b)

    def energy_error(x):
        exact = np.linalg.solve(sdd, b)
        return math.sqrt((x - exact) @ sdd @ (x - exact) / (exact @ sdd @ exact))

    calls = {
        "solve_m": (
            lambda: applied(lambda: solve_m(A, 1.0, eps, 1e3)),
            lambda x: np.linalg.norm(b - x + dense @ x) <= eps * nb,
        ),
        "symm_solve": (
            lambda: symm_solve(SparseMatrix.from_dense(sym), b, eps)[0],
            lambda x: np.linalg.norm(b - x + sym @ x) <= eps * nb,
        ),
        "factor_width2_solve": (
            lambda: factor_width2_solve(SparseMatrix.from_dense(fw2), b, eps)[0],
            lambda x: np.linalg.norm(b - fw2 @ x) <= eps * nb,
        ),
        "build_rcdd_solver": (
            lambda: applied(lambda: build_rcdd_solver(SparseMatrix.from_dense(dominant), eps)),
            lambda x: np.linalg.norm(b - dominant @ x) <= eps * nb,
        ),
        "build_sdd_solver": (
            lambda: applied(lambda: build_sdd_solver(SparseMatrix.from_dense(sdd), eps)),
            lambda x: energy_error(x) <= eps,
        ),
    }
    for name, (call, meets) in calls.items():
        own.clear()
        solvers.clear()
        x = call()
        assert meets(x), name
        # the last solver built is the refinement's
        tols = [tol for solver, tol in solves if solver is solvers[-1]]
        step_own = own[-1] if own else eps
        assert all(tol <= step_own for tol in tols), name
        assert bool(tols) == (n > _DENSE_CUTOFF), name


def test_steps_per_call_counts_each_applys_refinement_steps():
    """``report.info["steps_per_call"]`` holds one entry per apply, its
    refinement steps, the same for a fresh operator on the same inputs; an
    LU solves once per step, so below the cutoff it equals
    ``iterations_per_call``."""
    dense, A = ring_at(60, 0.99)
    rng = np.random.default_rng(7)
    rhs = [rng.random(60) + 0.01 for _ in range(3)]
    reports = []
    for _ in range(2):
        P = solve_m(A, 1.0, 1e-12, 1e3)
        for b in rhs:
            P.apply(b)
        reports.append(P.report.info)
    first, second = reports
    assert len(first["steps_per_call"]) == 3 and min(first["steps_per_call"]) >= 1
    assert first["steps_per_call"] == second["steps_per_call"]
    assert first["steps_per_call"] == first["iterations_per_call"]


# ----------------------------------------------------------------------
# a recurrence that stagnates, and a stress family above the cutoff


def test_a_stagnated_recurrence_recovers_by_a_restart(monkeypatch):
    """On a near-cycle (n = 3000) scaled to ``rho`` about 1.05, the left
    BiCGSTAB solve of bracket step 9 (shift about 1.067) stagnates at a
    relative residual of 5.5e-8, against its tolerance of 2.4e-10, until a
    restart from its iterate.  So ``m_decide`` at ``1 + 1e-2`` gives the CW
    lower bound's witness with its certificate, runs no scan, and spends
    fewer than 2500 BiCGSTAB iterations in all, counted as the matrix
    products the cores make (two per iteration, whether a pass returns or
    raises).  ``compute_perron`` certifies from the bracket's own pair at
    ``K`` = 1, its sandwich recomputed from both vectors."""
    A = ring_digraph(np.random.default_rng(100), 3000, 1).scaled(1.05 / 0.41779495046414095)
    products = [0]
    real_core = perronkit.rcdd._bicgstab_core

    def core(matvec, *args):
        def counted(v):
            products[0] += 1
            return matvec(v)

        return real_core(counted, *args)

    monkeypatch.setattr(perronkit.rcdd, "_bicgstab_core", core)
    scans = record_scans(monkeypatch)
    outcome = m_decide(A, 1e-2, 1e3)
    assert not outcome.is_m_matrix
    assert outcome.witness == "Collatz-Wielandt lower bound reached 1 + eps"
    assert outcome.certificate is not None and holds(outcome, A, 1e-2)
    assert scans == []
    assert products[0] < 2 * 2500

    delta = 1e-3
    cert = compute_perron(A, delta)
    assert cert.k_final == 1.0 and scans == []
    lower, upper = collatz_wielandt_bounds(A, cert.right)
    lower_left, upper_left = collatz_wielandt_bounds(A.transpose(), cert.left)
    assert (1 - delta) * min(upper, upper_left) <= cert.s <= max(lower, lower_left)


STRESS_N = 400


def wide_weights(rng):
    """A Hamiltonian cycle plus about five random edges per row, weights
    log-uniform over 1e-8..1."""
    return random_irreducible_dense(rng, STRESS_N, density=5.0 / STRESS_N, log_low=-8.0)


def coupled_blocks(rng):
    """Two such blocks, weights over 1e-2..1, joined by one entry of 1e-9
    each way."""
    half = STRESS_N // 2
    M = np.zeros((STRESS_N, STRESS_N))
    M[:half, :half] = random_irreducible_dense(rng, half, density=5.0 / half)
    M[half:, half:] = random_irreducible_dense(rng, half, density=5.0 / half)
    M[0, half] = M[half, 0] = 1e-9
    return M


def near_cycle(rng):
    return ring_digraph(rng, STRESS_N, 1).to_dense()


STRESS_FAMILIES = {
    "wide-weights": wide_weights,
    "coupled-blocks": coupled_blocks,
    "near-cycle": near_cycle,
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("family", list(STRESS_FAMILIES))
def test_ill_conditioned_inputs_above_the_cutoff(family, seed):
    """Above the cutoff, on inputs whose Perron vectors spread over many
    decades, every entry point meets the dense oracle: ``compute_perron``
    within delta of ``rho``, ``m_decide`` and ``certify_spectral_bound`` on
    the right side of 1 at ``rho`` = 0.999 and 1.001, with verdicts that
    hold when recomputed, and ``solve_m`` at a gap of 1e-6 and Katz at
    ``alpha rho`` = 0.999 with their residuals recomputed."""
    M = STRESS_FAMILIES[family](np.random.default_rng(seed))
    rho, _ = dense_spectral_radius(M, tol=1e-12)
    n = M.shape[0]
    assert n > _DENSE_CUTOFF
    delta = 1e-3
    cert = compute_perron(SparseMatrix.from_dense(M), delta)
    assert (1.0 - delta) * rho < cert.s <= rho * (1.0 + 1e-10)

    eps = 1e-4
    for target in (0.999, 1.001):
        A = scaled(M, rho, target)
        outcome = m_decide(A, eps, 1e3)
        assert outcome.is_m_matrix == (target < 1.0) and holds(outcome, A, eps)
        valid, cert = certify_spectral_bound(A, 1.0)
        assert valid == (target < 1.0)
        right = collatz_wielandt_bounds(A, cert.right)
        left = collatz_wielandt_bounds(A.transpose(), cert.left)
        assert max(right[1], left[1]) < 1.0 if valid else max(right[0], left[0]) >= 1.0

    b = np.linspace(1.0, 2.0, n)
    gap = 1e-6
    A_dense = M * ((1.0 - gap) / rho)
    x = solve_m(SparseMatrix.from_dense(A_dense), 1.0, 1e-6, 1e3).apply(b)
    assert np.linalg.norm(x - A_dense @ x - b) <= 1e-6 * np.linalg.norm(b)
    alpha = 0.999 / rho
    x, _ = katz_centrality(SparseMatrix.from_dense(M), alpha, b, 1e-8)
    assert np.linalg.norm(x - alpha * (M @ x) - b) <= 1e-8 * np.linalg.norm(b)


# ----------------------------------------------------------------------
# the in-place core on the kernel products keeps every bit


def reference_core(matvec, r, eps_abs, cap, x, inv_diag):
    """BiCGSTAB as it was written before its updates went in place: every
    vector a new array and every norm ``np.linalg.norm``.  The bits the
    core must keep."""
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


def core_case(n=400):
    """A nonsymmetric strictly dominant CSR matrix above the cutoff, its
    Jacobi weights and a right-hand side."""
    A = ring_digraph(np.random.default_rng(91), n, 3).csr()
    S = (scipy.sparse.diags(np.asarray(abs(A).sum(axis=1)).ravel() + 0.05) - A).tocsr()
    b = np.random.default_rng(92).normal(size=n)
    return S, 1.0 / S.diagonal(), b


def kernel_matvec(mat, transpose=False):
    return lambda v: _kernel_product(mat, v, transpose)


def assert_same_pass(mat, r, eps_abs, cap, x, inv_diag, transpose=False):
    """The core on the kernel products of ``mat`` (or, with ``transpose``,
    of ``mat.T`` by the column kernel on ``mat``'s arrays) and the reference
    on ``mat @`` (or ``mat.T @``) return the same ``x``, bit for bit, after
    as many iterations, and leave ``r`` and ``x`` as they were."""
    r_before, x_before = r.copy(), x.copy()
    matvec = kernel_matvec(mat, transpose)
    got, its = perronkit.rcdd._bicgstab_core(matvec, r, eps_abs, cap, x, inv_diag)
    reference = (mat.T if transpose else mat).__matmul__
    want, want_its = reference_core(reference, r, eps_abs, cap, x, inv_diag)
    assert its == want_its
    assert got.tobytes() == want.tobytes()
    assert r.tobytes() == r_before.tobytes() and x.tobytes() == x_before.tobytes()
    return got, its


@pytest.mark.parametrize("transpose", [False, True], ids=["forward", "transpose"])
def test_the_core_keeps_the_reference_bits(transpose):
    """Forward solves run ``csr_matvec`` on ``S``, transpose solves
    ``csc_matvec`` on the same arrays, with no ``.T`` view; from zero to
    convergence, at the cap, and as a restart from the capped pass's ``x``
    and its true residual, each pass equals the reference on ``S @`` or
    ``S.T @`` bit for bit."""
    S, inv_diag, b = core_case()
    assert S.format == "csr"
    mat = S.T if transpose else S
    target = 1e-12 * np.linalg.norm(b)
    x, its = assert_same_pass(S, b, target, 1000, np.zeros_like(b), inv_diag, transpose)
    assert 2 < its < 1000 and np.linalg.norm(b - mat @ x) <= 1e-10 * np.linalg.norm(b)
    capped, its = assert_same_pass(S, b, target, 3, np.zeros_like(b), inv_diag, transpose)
    assert its == 3
    restart, its = assert_same_pass(S, b - mat @ capped, target, 1000, capped, inv_diag, transpose)
    assert its > 0


def test_the_core_keeps_the_reference_bits_at_a_breakdown():
    """A skew-symmetric ``S`` with unit weights makes ``r_hat . v`` exactly
    0 in the first iteration: both cores stop there with the start ``x``."""
    n = 8
    S = scipy.sparse.csr_matrix(np.kron(np.eye(n // 2), [[0.0, 1.0], [-1.0, 0.0]]))
    r, x0 = np.ones(n), np.zeros(n)
    x, its = assert_same_pass(S, r, 1e-12, 50, x0, np.ones(n))
    assert its == 1 and not x.any()


def test_krylov_solves_keep_the_reference_bits(monkeypatch):
    """Whole solves, forward and transpose, with the solver's passes and
    true residuals, equal those run with the reference core and every
    product by scipy's ``@``."""
    S, _, b = core_case()
    solver = _KrylovSolver(S)
    got = [solver.solve(b, transpose, 1e-11) for transpose in (False, True)]

    monkeypatch.setattr(perronkit.rcdd, "_bicgstab_core", reference_core)
    monkeypatch.setattr(
        perronkit.rcdd, "_kernel_product", lambda mat, v, transpose=False: (mat.T if transpose else mat) @ v
    )
    solver = _KrylovSolver(S)
    want = [solver.solve(b, transpose, 1e-11) for transpose in (False, True)]
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


def test_the_solver_reads_a_kept_diagonal(monkeypatch, ring):
    """A solver of a matrix formed on the pattern of ``A + I`` reads the
    diagonal at the positions that pattern keeps, with the bits of
    ``S.diagonal()``, and extracts none; a plain CSR, and one whose pattern
    stores only some diagonal entries, still extract theirs."""
    M, rho = ring
    A = scaled(M, rho, 0.9)
    S = _Problem(A, 1.0).scaled_shift(1e-3, np.linspace(1.0, 2.0, N), np.linspace(2.0, 1.0, N))
    stored = A._pattern.diagonal.size
    assert 0 < stored < N
    extracted = []
    real = scipy.sparse.csr_matrix.diagonal

    def diagonal(self, k=0):
        extracted.append(self)
        return real(self, k)

    for matrix, extracts in ((S, False), (scipy.sparse.csr_matrix(S), True), (A.csr(), True)):
        # A's unstored diagonal entries have infinite reciprocals
        with np.errstate(divide="ignore"):
            want = 1.0 / real(matrix)
            monkeypatch.setattr(scipy.sparse.csr_matrix, "diagonal", diagonal)
            got = _KrylovSolver(matrix)._inv_diag
            monkeypatch.undo()
        assert np.array_equal(got, want) and extracted == ([matrix] if extracts else [])
        extracted.clear()
