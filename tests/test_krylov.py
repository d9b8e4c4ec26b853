"""The matvec-only phase solves above the dense cutoff.

Above ``rcdd._DENSE_CUTOFF`` unknowns every matrix the engine forms is
solved by Jacobi-preconditioned BiCGSTAB (CG when symmetric by construction)
to the relative residual its caller sets, with no factorization.  Each solve
checks its true residual; a miss is the ``"solver budget"`` witness inside
``m_decide``'s strict scan, and everywhere else the matrix is factored with
SuperLU, the package's only use of it.

Parity: at n = 500 the decisions equal the SuperLU path's (every CSR matrix
routed to SuperLU in the test only, ``lu_path``), the Perron estimate stays within delta of the oracle with
a Collatz-Wielandt width within 10x of the LU one, the solvers meet their
contracts and reruns are bit-identical.  Fault injection: solves that miss or
return perturbed vectors never produce a wrong positive verdict, an operator
that breaks its contract, or a Perron estimate above ``rho``.
"""

import numpy as np
import pytest
import scipy.sparse.linalg

import perronkit.perron
import perronkit.rcdd
import perronkit.scaling
from perronkit import (
    BackendDiverged,
    IterationCapHit,
    KCapExceeded,
    SparseMatrix,
    apply_scaling,
    check_rcdd,
    collatz_wielandt_bounds,
    compute_perron,
    factor_width2_solve,
    m_decide,
    shifted_m_matrix,
    solve_m,
    symm_solve,
)
from perronkit.oracle import dense_spectral_radius
from perronkit.rcdd import _DENSE_CUTOFF, _KRYLOV_RESTARTS, _KrylovSolver
from perronkit.scaling import _CW_SOLVE_TOL, _PhaseSolver
from perronkit.sparse import RCDD_VERIFY_SLACK

from conftest import (
    bracket_off,
    count_krylov,
    fail_krylov,
    lu_path,
    random_factor_width2_dense,
    random_irreducible_dense,
    random_strictly_rcdd_dense,
    random_symmetric_contraction_dense,
    record_rounds,
    record_scans,
    reject_bracket_pair,
    ring_digraph,
)

N = 500
BUDGET_WITNESS = "scaled-system conditioning exceeded the solver budget"


def ring_instance(n, seed=70):
    """A Hamiltonian cycle plus about five random edges per row, and its
    spectral radius from the dense oracle."""
    M = random_irreducible_dense(np.random.default_rng(seed), n, density=5.0 / n)
    rho, _ = dense_spectral_radius(M, tol=1e-12)
    return M, rho


@pytest.fixture(scope="module")
def ring():
    assert N > _DENSE_CUTOFF
    return ring_instance(N)


def scaled(M, rho, target):
    return SparseMatrix.from_dense(M * (target / rho))


# ----------------------------------------------------------------------
# parity with the SuperLU path at n = 500


@pytest.mark.parametrize("target", [0.9, 1.1])
def test_m_decide_matches_the_lu_path(monkeypatch, ring, target):
    A = scaled(*ring, target)
    with monkeypatch.context() as patch:
        counts = count_krylov(patch)
        krylov = m_decide(A, 1e-3, 1e3)
    assert counts["splu"] == 0 and counts["krylov"] >= 1
    with monkeypatch.context() as patch:
        lu_path(patch)
        lu = m_decide(A, 1e-3, 1e3)
    assert krylov.verdict is lu.verdict
    assert krylov.is_m_matrix == (target < 1.0)
    assert krylov.witness == lu.witness
    if krylov.is_m_matrix:
        assert len(krylov.report.phases) == len(lu.report.phases)
        assert krylov.scaling.alpha == lu.scaling.alpha


def test_compute_perron_within_delta_and_sharp(monkeypatch, ring):
    M, rho = ring
    A = SparseMatrix.from_dense(M)
    delta = 1e-3
    with monkeypatch.context() as patch:
        counts = count_krylov(patch)
        cert = compute_perron(A, delta)
    assert counts["splu"] == 0 and counts["krylov"] >= 1
    assert (1.0 - delta) * rho < cert.s <= rho * (1.0 + 1e-10)
    assert cert.cw_lower <= rho * (1.0 + 1e-10) and cert.cw_upper >= rho * (1.0 - 1e-10)
    with monkeypatch.context() as patch:
        lu_path(patch)
        lu = compute_perron(A, delta)
    width = (cert.cw_upper - cert.cw_lower) / cert.cw_lower
    lu_width = (lu.cw_upper - lu.cw_lower) / lu.cw_lower
    assert width <= 10.0 * lu_width


def test_solvers_meet_their_contracts(monkeypatch, ring):
    M, rho = ring
    rng = np.random.default_rng(71)
    counts = count_krylov(monkeypatch)
    eps = 1e-6
    A_below = M * (0.9 / rho)
    op = solve_m(SparseMatrix.from_dense(A_below), 1.0, eps, 1e3)
    for _ in range(2):
        b = rng.random(N) + 0.01
        x = op.apply(b)
        assert np.linalg.norm(x - A_below @ x - b) <= eps * np.linalg.norm(b)

    sym = random_symmetric_contraction_dense(rng, N, 0.9, density=5.0 / N)
    b = rng.normal(size=N)
    x, _ = symm_solve(SparseMatrix.from_dense(sym), b, eps)
    assert np.linalg.norm(x - sym @ x - b) <= eps * np.linalg.norm(b)
    # the scan, the preconditioner and the symmetric levels factor nothing
    assert counts["splu"] == 0 and counts["krylov"] >= 3

    fw2 = random_factor_width2_dense(rng, N)
    x, _ = factor_width2_solve(SparseMatrix.from_dense(fw2), b, eps)
    assert np.linalg.norm(fw2 @ x - b) <= eps * np.linalg.norm(b)
    # the caller's matrix, behind the public SDD solver, is no exception
    assert counts["splu"] == 0


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


@pytest.mark.parametrize("symmetric", [False, True], ids=["bicgstab", "cg"])
def test_true_residual_catches_a_false_convergence(monkeypatch, symmetric):
    """A Krylov core that reports convergence on a perturbed iterate is
    caught by the true residual: a restart from it repairs a single miss.  A
    miss on every pass raises :class:`BackendDiverged` where the caller asks
    for that, and otherwise hands the matrix to the LU."""
    rng = np.random.default_rng(72)
    S = random_strictly_rcdd_dense(rng, 40)
    if symmetric:
        S = S + S.T
    S = scipy.sparse.csr_matrix(S)
    b = rng.normal(size=40)
    tol = 1e-10
    core = "_cg_core" if symmetric else "_bicgstab_core"
    real_core = getattr(perronkit.rcdd, core)
    # the number of core calls that lie, and the calls that did
    lies = {"budget": 1, "told": 0}

    def lying_core(*args, **kwargs):
        x, its = real_core(*args, **kwargs)
        if lies["told"] < lies["budget"]:
            lies["told"] += 1
            x = x * (1.0 + 1e-3 * np.sin(np.arange(x.size)))
        return x, its

    monkeypatch.setattr(perronkit.rcdd, core, lying_core)
    for transpose in (False, True):
        lies["told"] = 0
        x = _KrylovSolver(S, tol, symmetric).solve(b, transpose)
        mat = S.T if transpose else S
        assert lies["told"] == 1
        assert np.linalg.norm(b - mat @ x) <= tol * np.linalg.norm(b)
    lies.update(budget=10**9, told=0)
    with pytest.raises(BackendDiverged, match="true residual"):
        _KrylovSolver(S, tol, symmetric, lu_on_miss=False).solve(b)
    counts = count_krylov(monkeypatch)
    lies["told"] = 0
    solver = _KrylovSolver(S, tol, symmetric)
    for transpose in (False, True):
        x = solver.solve(b, transpose)
        mat = S.T if transpose else S
        assert np.linalg.norm(b - mat @ x) <= tol * np.linalg.norm(b)
    # one factorization, then no more Krylov passes
    assert counts["splu"] == 1 and lies["told"] == _KRYLOV_RESTARTS + 1


@pytest.mark.parametrize("symmetric", [False, True], ids=["bicgstab", "cg"])
def test_a_tolerance_below_rounding_passes_at_the_rounding_floor(symmetric):
    """A ``tol`` no floating-point solve can meet (a scan with a huge ``K``
    asks for one) is not a miss once the residual is below the rounding
    error of its own computation."""
    rng = np.random.default_rng(75)
    S = random_strictly_rcdd_dense(rng, 40)
    if symmetric:
        S = S + S.T
    S = scipy.sparse.csr_matrix(S)
    b = rng.normal(size=40)
    x = _KrylovSolver(S, 1e-30, symmetric).solve(b)
    # 40 entries in every row and column
    rounding = 41 * np.finfo(float).eps
    floor = rounding * (np.linalg.norm(S.data) * np.linalg.norm(x) + np.linalg.norm(b))
    assert 0.0 < np.linalg.norm(b - S @ x) <= floor


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


def missing(self, b, transpose=False):
    raise BackendDiverged("injected miss")


@pytest.fixture
def krylov_misses(monkeypatch):
    fail_krylov(monkeypatch)


def perturbing(scale, seed=74):
    """A solve that returns the true solve's result with each entry scaled by
    ``1 + scale * noise``: no residual is checked and nothing is raised."""
    real = _KrylovSolver.solve
    rng = np.random.default_rng(seed)

    def solve(self, b, transpose=False):
        x = real(self, b, transpose)
        return x * (1.0 + scale * rng.standard_normal(x.size))

    return solve


FAULTS = {
    "miss": missing,
    "noise-1e-6": perturbing(1e-6),
    "noise-1e-2": perturbing(1e-2),
    "noise-2": perturbing(2.0),
    "nan": lambda self, b, transpose=False: np.full_like(b, np.nan),
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
    """The bracket's solves fall back to SuperLU on a Krylov miss, so it
    still decides both inputs without a scan, the positive verdict's pair
    checked RCDD.  A solve that raises instead (an injected
    :class:`BackendDiverged`) fails the bracket, and ``m_decide`` answers
    from the scan, never with the error."""
    M, rho = small_ring
    tol = (M.shape[0] + 2) * np.finfo(float).eps
    scans = record_scans(monkeypatch)
    eps = 1e-3
    for target in (0.9, 1.1):
        A = scaled(M, rho, target)
        outcome = m_decide(A, eps, 1e3)
        assert outcome.is_m_matrix == (target < 1.0)
        if outcome.is_m_matrix:
            pair = outcome.scaling
            S = apply_scaling(pair.left, shifted_m_matrix(A, 1.0, eps), pair.right)
            assert check_rcdd(S, RCDD_VERIFY_SLACK)
        else:
            assert outcome.certificate.s * (1 - tol) >= 1 + eps
    assert scans == []
    monkeypatch.setattr(_KrylovSolver, "solve", missing)
    # the scan's witness: its first phase raised on the injected miss
    outcome = m_decide(scaled(M, rho, 0.9), eps, 1e3)
    assert outcome.witness.startswith(BUDGET_WITNESS + " at phase 0 ")


def test_a_miss_elsewhere_falls_back_to_the_lu(
    monkeypatch, small_ring, krylov_at_150, krylov_misses
):
    """Outside ``m_decide`` a matrix the Krylov method cannot solve is
    factored with SuperLU instead: with every Krylov pass failing,
    results are those of the SuperLU path, bit for bit."""
    M, rho = small_ring
    A = scaled(M, rho, 0.9)
    n = M.shape[0]
    sym_dense = random_symmetric_contraction_dense(np.random.default_rng(76), n, 0.9, 5.0 / n)
    sym = SparseMatrix.from_dense(sym_dense)
    b = np.linspace(1.0, 2.0, n)

    def run():
        return (
            solve_m(A, 1.0, 1e-6, 1e3).apply(b),
            compute_perron(A, 1e-3).right,
            symm_solve(sym, b, 1e-6)[0],
        )

    with monkeypatch.context() as patch:
        lu_path(patch)
        expected = run()
    counts = count_krylov(monkeypatch)
    got = run()
    assert counts["krylov"] == counts["splu"] > 0
    for x, want in zip(got, expected):
        assert np.array_equal(x, want)


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
        except (BackendDiverged, KCapExceeded):
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
    n = M.shape[0]
    tol = (n + 2) * np.finfo(float).eps
    eps = 1e-3
    for target in (0.9, 1.1):
        A = scaled(M, rho, target)
        with np.errstate(all="ignore"):
            outcome = m_decide(A, eps, 1e3)
        if outcome.is_m_matrix:
            assert target < 1.0
            pair = outcome.scaling
            S = apply_scaling(pair.left, shifted_m_matrix(A, 1.0, eps), pair.right)
            assert check_rcdd(S, RCDD_VERIFY_SLACK)
        elif outcome.certificate is not None:
            cert = outcome.certificate
            lower = max(
                collatz_wielandt_bounds(A, cert.right)[0],
                collatz_wielandt_bounds(A.transpose(), cert.left)[0],
            )
            assert lower * (1 - tol) >= 1 + eps


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
    ``_CW_SOLVE_TOL``, and both runs certify from the bracket's pair."""
    A = ring_digraph(np.random.default_rng(0), 1000, 5)
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
    """The schedule is the bracket's alone: the polish after a scan, on the
    scan's own problem, still solves to ``_CW_SOLVE_TOL``."""
    tols = []

    class Recorded(_PhaseSolver):
        def __init__(self, *args, tol, **kwargs):
            tols.append(tol)
            super().__init__(*args, tol=tol, **kwargs)

    monkeypatch.setattr(perronkit.perron, "_PhaseSolver", Recorded)
    reject_bracket_pair(monkeypatch)
    M, rho = small_ring
    cert = compute_perron(scaled(M, rho, 1.0), 1e-3)
    assert cert.k_final == 1.0
    assert tols and set(tols) == {_CW_SOLVE_TOL}
