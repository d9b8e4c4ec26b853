"""The scan's solver kernels against the library calls they stand in for.

The phase solves call LAPACK ``getrs`` directly and the CSR phase matrices
are rescaled on a fixed pattern; both must give the same bits as the
reference construction, and the CSR ``|S|`` line sums must match the dense
ones.  Up to the dense cutoff the factorizations, the shift-and-invert ones
of ``compute_perron`` included, must stay behind ``scipy.linalg.lu_factor``,
where a profiler can count them; above it each of those matrices gets one
Krylov solver instead, and nothing is factored.

Every matrix the engine forms itself is factored through the phase solver:
``solve_m`` factors the matrix its scaling was checked on and builds no RCDD
solver.  The symmetric solves build one SDD solver, of ``V M V`` on the
caller's ``M``, after the bracket's steps or the fallback's halving scans,
whose guard stops a non-finite solve instead of returning it.
"""

import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import perronkit.apps
import perronkit.perron
import perronkit.rcdd
import perronkit.scaling
from perronkit import (
    BackendDiverged,
    IterationCapHit,
    NotRCDD,
    NotSDDAfterScaling,
    RoundingFloorHit,
    ScalingPair,
    SparseMatrix,
    Verdict,
    build_rcdd_solver,
    compute_perron,
    expected_phase_count,
    factor_width2_solve,
    katz_centrality,
    m_decide,
    mmatrix_scale,
    solve_from_scale,
    solve_m,
    symm_scale,
    symm_solve,
    top_singular,
)
from perronkit.oracle import dense_spectral_radius, dense_svd_top
from perronkit.sparse import (
    RCDD_VERIFY_SLACK,
    _kernel_product,
    _line_sums,
    _Pattern,
    _with_diagonal,
    apply_scaling,
    check_rcdd,
    induced_norms,
    is_irreducible,
    shifted_m_matrix,
)
from perronkit.rcdd import (
    _DENSE_CUTOFF,
    _DirectSolver,
    _KrylovSolver,
    varah_kappa_upper,
)
from perronkit.reports import NON_FINITE
from perronkit.scaling import (
    _CW_SHIFT_MARGIN,
    _CWBracket,
    _normalized_comparison,
    _PhaseSolver,
    _Problem,
    _unit_positive,
)

from conftest import (
    bracket_off,
    build_counts,
    count_krylov,
    criterion01_dense,
    random_factor_width2_dense,
    random_irreducible,
    random_irreducible_dense,
    random_m_matrix,
    random_m_matrix_dense,
    random_strictly_rcdd_dense,
    random_symmetric_contraction_dense,
    record_builds,
    record_scans,
    reject_bracket_pair,
    ring_digraph,
)


def sparse_m_matrix(rng, diagonal=True, rho_ratio=0.8):
    """An n=400 instance above the dense cutoff, with a few stored diagonal
    entries or none."""
    A = random_m_matrix(rng, 400, rho_ratio, density=0.02).csr()
    if not diagonal:
        A.setdiag(0.0)
        A.eliminate_zeros()
    return SparseMatrix.from_scipy(A)


@pytest.mark.parametrize("transpose", [False, True])
def test_dense_solve_matches_lu_solve(transpose):
    rng = np.random.default_rng(3)
    S = random_strictly_rcdd_dense(rng, 30)
    b = rng.normal(size=30)
    expected = scipy.linalg.lu_solve(
        scipy.linalg.lu_factor(S), b, trans=int(transpose)
    )
    assert np.array_equal(_DirectSolver(S).solve(b, transpose, 1e-12), expected)


@pytest.mark.parametrize("diagonal", [True, False], ids=["stored-diag", "no-diag"])
def test_csr_scaled_shift_matches_sparse_products(diagonal):
    rng = np.random.default_rng(5)
    A = sparse_m_matrix(rng, diagonal)
    n = A.shape[0]
    assert n > _DENSE_CUTOFF
    assert (A.csr().diagonal() != 0).any() == diagonal
    scale, alpha = 1.7, 0.37
    ell = rng.uniform(0.5, 2.0, n)
    r = rng.uniform(0.5, 2.0, n)
    prob = _Problem(A, scale)
    # perfbench counts the entries a product touches through these attributes
    assert getattr(prob, "dense", None) is None and prob.csr.nnz == A.nnz
    got = prob.scaled_shift(alpha, ell, r)
    shifted = sp.identity(n, format="csr") * (1.0 + alpha) - A.csr() / scale
    expected = (sp.diags(ell) @ shifted @ sp.diags(r)).tocsr()
    assert np.array_equal(got.indptr, expected.indptr)
    assert np.array_equal(got.indices, expected.indices)
    assert np.array_equal(got.data, expected.data)


def test_singular_phase_matrix_fails_the_scan(monkeypatch):
    """With the bracket off, an exactly singular phase matrix warns at the
    factorization and solves to non-finite values without raising; the
    scan's finiteness check, part of its residual ceiling, then stops it."""
    singular = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    monkeypatch.setattr(_Problem, "scaled_shift", lambda self, alpha, ell, r: singular.copy())
    finite = []
    real_solve = _DirectSolver.solve

    def solve(self, b, transpose, tol):
        x = real_solve(self, b, transpose, tol)
        finite.append(bool(np.all(np.isfinite(x))))
        return x

    monkeypatch.setattr(_DirectSolver, "solve", solve)
    bracket_off(monkeypatch)
    A = SparseMatrix.from_dense(np.full((3, 3), 0.1))
    with pytest.warns(scipy.linalg.LinAlgWarning):
        with pytest.raises(IterationCapHit, match="residual ceiling"):
            mmatrix_scale(A, 1.0, 1e-3, 4.0)
    assert finite == [False, False]


def count_calls(monkeypatch, counts, module, name):
    """Count the calls of ``module.name`` in ``counts[name]``."""
    real = getattr(module, name)
    counts.setdefault(name, 0)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def count_factorizations(monkeypatch):
    """Count LAPACK factorizations and Krylov solver builds."""
    counts = count_krylov(monkeypatch)
    count_calls(monkeypatch, counts, scipy.linalg, "lu_factor")
    return counts


NO_SOLVERS = {"lu_factor": 0, "krylov": 0}


def solver_name(n):
    """The count one solver of an ``n``-unknown matrix adds to."""
    return "lu_factor" if n <= _DENSE_CUTOFF else "krylov"


def test_one_factorization_per_phase_through_scipy(monkeypatch):
    """With the bracket off, one solver per phase: a LAPACK factorization up
    to the dense cutoff, a Krylov solver above it."""
    bracket_off(monkeypatch)
    counts = count_factorizations(monkeypatch)
    rng = np.random.default_rng(11)

    _, report = mmatrix_scale(random_m_matrix(rng, 20, 0.8), 1.0, 1e-3, 100.0)
    assert report.phases and counts == {**NO_SOLVERS, "lu_factor": len(report.phases)}

    counts.update(lu_factor=0)
    _, report = mmatrix_scale(sparse_m_matrix(rng), 1.0, 1e-3, 100.0)
    assert report.phases and counts == {**NO_SOLVERS, "krylov": len(report.phases)}


def test_one_factorization_per_bracket_step_through_scipy(monkeypatch):
    """On the bracket path ``mmatrix_scale`` builds one solver per
    shift-and-invert step, through the same scipy call or Krylov class, and
    runs no scan.  At ``rho`` = 0.98 (0.99 above the cutoff) power steps
    alone do not settle ``1 + eps``."""
    counts = count_factorizations(monkeypatch)
    scans = record_scans(monkeypatch)
    rng = np.random.default_rng(11)

    _, report = mmatrix_scale(random_m_matrix(rng, 20, 0.98), 1.0, 1e-3, 100.0)
    steps = report.info["bracket_steps"]
    assert steps >= 1 and report.phases == []
    assert counts == {**NO_SOLVERS, "lu_factor": steps}

    counts.update(lu_factor=0)
    _, report = mmatrix_scale(sparse_m_matrix(rng, rho_ratio=0.99), 1.0, 1e-3, 100.0)
    steps = report.info["bracket_steps"]
    assert steps >= 1 and report.phases == []
    assert counts == {**NO_SOLVERS, "krylov": steps} and scans == []


def masked_line_sums(csr):
    """The line sums as one masked pass computes them, with no pattern: each
    entry's row by ``np.repeat``, the off-diagonal entries gathered by a
    mask and the diagonal by ``csr.diagonal()``; duplicates summed first."""
    if not csr.has_canonical_format:
        csr = csr.copy()
        csr.sum_duplicates()
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    off = rows != csr.indices
    absdata = np.abs(csr.data[off])
    row_off = np.bincount(rows[off], absdata, csr.shape[0])
    return csr.diagonal(), row_off, np.bincount(csr.indices[off], absdata, csr.shape[1])


def dense_line_sums(dense):
    """The line sums of a dense array by whole-array sums: the diagonal, and
    the sums of ``|S|`` along each axis with the diagonal zeroed."""
    off = np.abs(dense)
    np.fill_diagonal(off, 0.0)
    return dense.diagonal(), off.sum(axis=1), off.sum(axis=0)


def test_csr_line_sums_match_dense():
    """The one line-sum pass gives a CSR matrix the sums of its dense form
    within rounding, duplicates summed on a copy, and the public
    ``check_rcdd`` and ``varah_kappa_upper`` the same answers on the array
    as on its CSR.  Matrices
    ``scaled_shift`` formed above the cutoff are summed on the pattern they
    keep, with the bits of a masked pass over their entries, as every CSR
    matrix is; one of them adds every diagonal to a matrix that stores none
    and has empty rows."""
    rng = np.random.default_rng(13)
    prob = _Problem(sparse_m_matrix(rng), 1.3)
    phase = prob.scaled_shift(0.25, rng.uniform(0.5, 2.0, prob.n), rng.uniform(0.5, 2.0, prob.n))
    holed = _Problem(with_empty_rows(sparse_m_matrix(rng, diagonal=False), [0, 7, 399]), 0.8)
    shifted = holed.scaled_shift(1e-3, rng.uniform(0.5, 2.0, holed.n), rng.uniform(0.5, 2.0, holed.n))
    assert prob.n > _DENSE_CUTOFF and phase.pattern is not None and shifted.pattern is not None
    # empty rows at the start, in the middle and at the end, and a duplicate
    # entry whose parts cancel in part
    holes = sp.csr_matrix(
        ([-1.5, 2.0, 0.25, 1e-3, -7.0], [0, 4, 0, 2, 3], [0, 0, 3, 3, 5, 5, 5]), shape=(6, 5)
    )
    assert not holes.has_canonical_format
    # rows of 40, 0 and 32 entries over ten decades
    wide = np.random.default_rng(0)
    long_rows = sp.csr_matrix(
        (
            wide.normal(size=72) * 10.0 ** wide.uniform(-5, 5, 72),
            np.r_[np.arange(40), np.arange(32)],
            [0, 40, 40, 72],
        ),
        shape=(3, 40),
    )
    # the 2x2 identity stored with an off-diagonal pair that cancels exactly
    cancelling = sp.csr_matrix(([1.0, 0.9, -0.9, 1.0], [0, 1, 1, 1], [0, 3, 4]), shape=(2, 2))
    assert not cancelling.has_canonical_format
    # a stored -0.0 on the diagonal, which csr.diagonal() reads as +0.0
    signed_zero = sp.csr_matrix(([-0.0, 2.0, 1.0], [0, 0, 1], [0, 1, 3]), shape=(2, 2))
    inputs = (phase, shifted, holes, long_rows, sp.csr_matrix((4, 4)), cancelling, signed_zero)
    for S in inputs:
        stored = (S.indices.copy(), S.data.copy())
        sums = _line_sums(S)
        assert np.array_equal(S.indices, stored[0]) and np.array_equal(S.data, stored[1])
        for got, want in zip(sums, masked_line_sums(S)):
            assert got.tobytes() == want.tobytes()
        dense = S.toarray()
        dense_sums = dense_line_sums(dense)
        assert np.array_equal(sums[0], dense_sums[0])
        # sums of at most max(shape) nonnegative terms, in another order
        rounding = max(S.shape) * np.finfo(float).eps
        for got, want in zip(sums[1:], dense_sums[1:]):
            assert np.allclose(got, want, rtol=rounding, atol=0.0)
        abs_dense = np.abs(dense)
        for axis, off in ((1, sums[1]), (0, sums[2])):
            line = off + np.pad(np.abs(sums[0]), (0, off.size - sums[0].size))
            assert np.allclose(line, abs_dense.sum(axis=axis), rtol=rounding, atol=0.0)
        if S.shape[0] == S.shape[1]:
            assert check_rcdd(S) == check_rcdd(dense)
            assert varah_kappa_upper(S) == varah_kappa_upper(dense)
    assert check_rcdd(cancelling) and varah_kappa_upper(cancelling) == 1.0


def criterion_01_instance(seed):
    return SparseMatrix.from_dense(criterion01_dense(seed))


def perron_sparse_instance():
    """A Hamiltonian cycle plus random edges, above the dense cutoff."""
    A = random_irreducible(np.random.default_rng(17), 400, density=0.015)
    assert A.n_rows > _DENSE_CUTOFF
    return A


@pytest.mark.parametrize("storage", ["dense", "csr"])
def test_compute_perron_factorizations(monkeypatch, storage):
    """No bisection, no decision and no scan, whether the bracket's own pair
    is accepted at K=1 or rejected there, and its shift-and-invert steps
    are the only solvers.  Rejected, K doubles and the K=2 round continues
    the same bracket: if it steps, its new iterates certify; if it meets
    the precision with no step, it steps once more and offers those
    iterates instead of scanning.  Both happen among the dense instances.
    Each solver is a LAPACK factorization through the scipy call a
    profiler patches up to the dense cutoff and a Krylov solver above
    it."""
    counts = count_factorizations(monkeypatch)
    count_calls(monkeypatch, counts, perronkit.perron, "find_perron_value")
    count_calls(monkeypatch, counts, perronkit.perron, "_m_decide_scaled")
    scans = record_scans(monkeypatch)
    brackets = []

    class Bracket(perronkit.perron._CWBracket):
        def __init__(self, A, **kwargs):
            super().__init__(A, **kwargs)
            self.offers = []  # the step count at each upper estimate
            brackets.append(self)

        def upper(self, eps):
            s = super().upper(eps)
            self.offers.append(self.steps)
            return s

    monkeypatch.setattr(perronkit.perron, "_CWBracket", Bracket)
    factor = "lu_factor" if storage == "dense" else "krylov"
    instances = (
        [criterion_01_instance(seed) for seed in range(20)]
        if storage == "dense" else [perron_sparse_instance()]
    )
    stalls = []
    for path in ("accepted", "rejected"):
        if path == "rejected":
            rejected = reject_bracket_pair(monkeypatch)
        for A in instances:
            for name in counts:
                counts[name] = 0
            scans.clear()
            brackets.clear()
            if path == "rejected":
                rejected.clear()
            cert = compute_perron(A, 1e-3)
            assert cert.k_final == (1.0 if path == "accepted" else 2.0)
            assert counts["find_perron_value"] == 0 and counts["_m_decide_scaled"] == 0
            assert len(brackets) == 1
            steps = brackets[0].factorizations
            assert steps >= 1
            assert scans == [] and counts[factor] == steps
            if path == "rejected":
                offers = brackets[0].offers
                stalls.append(offers[1] == offers[0])
                if stalls[-1]:
                    # the stalled round stepped once after its upper estimate
                    assert brackets[0].steps > offers[1]
            assert counts["lu_factor" if storage == "csr" else "krylov"] == 0
    if storage == "dense":
        assert any(stalls) and not all(stalls)


def test_resolve_steps_save_factorizations_on_a_ring(monkeypatch):
    """A ring plus five random out-edges per node at n = 150, below the
    dense cutoff, certifies at K = 1 from the bracket's pair with fewer
    LAPACK factorizations than shift-and-invert steps plus re-solves: each
    fresh factorization is one step, and each kept re-solve reuses the last
    one's LU."""
    counts = count_factorizations(monkeypatch)
    brackets = []

    class Bracket(perronkit.perron._CWBracket):
        def __init__(self, A, **kwargs):
            super().__init__(A, **kwargs)
            brackets.append(self)

    monkeypatch.setattr(perronkit.perron, "_CWBracket", Bracket)
    scans = record_scans(monkeypatch)
    cert = compute_perron(ring_digraph(np.random.default_rng(0), 150, 5), 1e-3)
    ((bracket,),) = [brackets]
    assert cert.k_final == 1.0 and scans == []
    assert counts == {**NO_SOLVERS, "lu_factor": bracket.factorizations}
    assert 0 < counts["lu_factor"] < bracket.factorizations + bracket.resolve_steps


def test_no_resolve_steps_above_the_cutoff(monkeypatch):
    """Above the dense cutoff a Krylov solve costs the same at any shift,
    so the bracket holds no solver: every step past the power phase builds
    a Krylov solver at the current bound, and none is a re-solve."""
    counts = count_factorizations(monkeypatch)
    brackets = []

    class Bracket(perronkit.perron._CWBracket):
        def __init__(self, A, **kwargs):
            super().__init__(A, **kwargs)
            brackets.append(self)

    monkeypatch.setattr(perronkit.perron, "_CWBracket", Bracket)
    cert = compute_perron(perron_sparse_instance(), 1e-3)
    ((bracket,),) = [brackets]
    assert cert.k_final == 1.0 and bracket.factorizations >= 1
    assert bracket.resolve_steps == 0
    assert counts == {**NO_SOLVERS, "krylov": bracket.factorizations}


SYMMETRIC_SIZES = pytest.mark.parametrize("n", [20, 400], ids=["dense", "csr"])


@SYMMETRIC_SIZES
def test_symm_solve_factors_each_level_once(monkeypatch, n):
    """Each matrix the symmetric path forms is factored once: on the bracket
    path ``symm_scale`` builds one solver per bracket step and nothing else,
    and ``symm_solve`` one more, its backend solver of ``V (I - A) V``,
    which serves the whole refinement.  No scan runs and no phase solver is
    built.  Each call checks dominance once, by the bracket's
    ``check_rcdd``, and forms, scales and checks no second copy of the
    shifted matrix: no ``shifted_m_matrix``, ``apply_scaling`` or other
    derived :class:`SparseMatrix`, and no ``check_sdd``."""
    counts = count_factorizations(monkeypatch)
    count_calls(monkeypatch, counts, perronkit.scaling, "_phase_backend")
    for module, name in [
        (perronkit.scaling, "check_rcdd"),
        (perronkit.rcdd, "check_rcdd"),
        (perronkit.scaling, "check_sdd"),
        (perronkit.rcdd, "check_sdd"),
        (perronkit.scaling, "apply_scaling"),
        (SparseMatrix, "_derived"),
    ]:
        count_calls(monkeypatch, counts, module, name)
    built = record_builds(monkeypatch)
    rng = np.random.default_rng(48)
    A = SparseMatrix.from_dense(
        random_symmetric_contraction_dense(rng, n, 0.99, density=min(0.3, 5.0 / n))
    )
    b = rng.normal(size=n)
    for call, sdd_solvers in [
        (lambda: symm_scale(A, 1e-3), 0),
        (lambda: symm_solve(A, b, 1e-9), 1),
    ]:
        for name in counts:
            counts[name] = 0
        _, report = call()
        steps = report.info["bracket_steps"]
        assert steps >= 1 and report.phases == []
        assert counts == {
            **NO_SOLVERS,
            solver_name(n): steps + sdd_solvers,
            "_phase_backend": steps + sdd_solvers,
            "check_rcdd": 1,
            "check_sdd": 0,
            "apply_scaling": 0,
            "_derived": 0,
        }
    assert build_counts(built) == {"_CWBracket": 2, "_halving_scan": 0, "_PhaseSolver": 0}


@SYMMETRIC_SIZES
def test_each_checked_matrix_is_summed_once(monkeypatch, n):
    """On the bracket path each matrix the symmetric solves check is summed
    once (``sparse._line_sums``): ``symm_solve`` sums the ``V (I - A) V``
    its bracket checked, and the SDD tolerance of its solver (an LU needs
    none) reuses those sums; ``factor_width2_solve`` sums the bracket's
    ``V (I - A) V`` and then its own ``V M V``, whose check's sums give its
    solver's tolerance."""
    passes = []
    real = perronkit.sparse._line_sums

    def counted(S):
        passes.append(S.shape)
        return real(S)

    monkeypatch.setattr(perronkit.sparse, "_line_sums", counted)
    # inputs whose brackets take shift-and-invert steps after their power steps
    rng = np.random.default_rng(65)
    A = SparseMatrix.from_dense(
        random_symmetric_contraction_dense(rng, n, 0.99, density=min(0.3, 5.0 / n))
    )
    M = SparseMatrix.from_dense(random_factor_width2_dense(rng, n, ridge=0.02))
    for solve, sums in [
        (lambda: symm_solve(A, rng.normal(size=n), 1e-9), 1),
        (lambda: factor_width2_solve(M, rng.normal(size=n), 1e-8), 2),
    ]:
        passes.clear()
        _, report = solve()
        assert report.info["bracket_steps"] >= 1 and report.phases == []
        assert passes == [(n, n)] * sums


def test_one_shifted_pattern_per_matrix(monkeypatch):
    """The pattern of ``A + I`` is built once for every problem on ``A`` or
    a multiple of it (``sparse._with_diagonal`` runs once), on first use,
    not when a problem is built: two problems, a bracket on ``2 A`` that
    steps above the cutoff and ``shifted_m_matrix`` all store their
    matrices on that one pattern."""
    calls = []
    real = perronkit.sparse._with_diagonal

    def counted(pattern):
        calls.append(pattern)
        return real(pattern)

    monkeypatch.setattr(perronkit.sparse, "_with_diagonal", counted)
    A = sparse_m_matrix(np.random.default_rng(65))
    assert A.n_rows > _DENSE_CUTOFF
    problems = [_Problem(A, 1.0), _Problem(A, 0.5)]
    assert calls == []
    bracket = _CWBracket(A.scaled(2.0))
    assert bracket.upper(1e-3) is not None and bracket.factorizations >= 1
    shifted = shifted_m_matrix(A, 1.0)
    assert calls == [A._pattern]
    pattern = A._pattern.shifted[0]
    assert np.shares_memory(bracket._step_matrix.indices, pattern.indices)
    assert shifted._pattern is pattern
    ones = np.ones(A.n_rows)
    for prob in problems:
        S = prob.scaled_shift(0.25, ones, ones)
        assert S.pattern is pattern and np.shares_memory(S.indices, pattern.indices)


@SYMMETRIC_SIZES
def test_only_factor_width2_builds_an_sdd_solver(monkeypatch, n):
    """The scalings build only their bracket's step solvers, no phase
    solver and no SDD solver; the one SDD solver is ``factor_width2_solve``'s
    tail, which ``symm_solve`` shares: one backend solver of ``V M V``, of
    the caller's own ``M`` in ``factor_width2_solve`` and of ``M = I - A``,
    the matrix the bracket checked, in ``symm_solve``.  Besides the
    bracket's one RCDD check, only ``factor_width2_solve`` checks, its ``V M
    V`` SDD, once."""
    built = []
    real = perronkit.scaling._phase_backend

    def backend(S, *args):
        built.append(S.toarray() if sp.issparse(S) else S.copy())
        return real(S, *args)

    monkeypatch.setattr(perronkit.scaling, "_phase_backend", backend)
    builds = record_builds(monkeypatch)
    rng = np.random.default_rng(56)
    A = SparseMatrix.from_dense(
        random_symmetric_contraction_dense(rng, n, 0.99, density=min(0.3, 5.0 / n))
    )
    for scale in (lambda: symm_scale(A, 1e-3), lambda: mmatrix_scale(A, 1.0, 1e-3, 100.0)):
        _, report = scale()
        assert len(built) == report.info["bracket_steps"] >= 1
        built.clear()
    assert build_counts(builds) == {"_CWBracket": 2, "_halving_scan": 0, "_PhaseSolver": 0}
    M_A = shifted_m_matrix(A, 1.0)
    M = SparseMatrix.from_dense(random_factor_width2_dense(rng, n))
    checks = {}
    count_calls(monkeypatch, checks, perronkit.scaling, "check_rcdd")
    count_calls(monkeypatch, checks, perronkit.scaling, "check_sdd")
    for solve, own, sdd_checks in [
        (lambda: symm_solve(A, rng.normal(size=n), 1e-9), M_A, 0),
        (lambda: factor_width2_solve(M, rng.normal(size=n), 1e-8), M, 1),
    ]:
        checks.update(check_rcdd=0, check_sdd=0)
        _, report = solve()
        v = report.info["scaling"]
        assert len(built) == report.info["bracket_steps"] + 1
        assert checks == {"check_rcdd": 1, "check_sdd": sdd_checks}
        np.testing.assert_allclose(
            built[-1], v[:, None] * own.to_dense() * v[None, :], rtol=1e-12, atol=1e-15
        )
        built.clear()
    assert build_counts(builds)["_PhaseSolver"] == 0


def test_factor_width2_fails_fast_on_a_sign_asymmetric_m(monkeypatch):
    """``|M|`` of ``[[2, 1], [-1, 2]]`` is symmetric, so its comparison
    matrix passes the symmetry check and the bracket scales it dominant;
    ``V M V`` is not symmetric, and the solve raises as soon as its one SDD
    check fails, running no halving scan."""
    scans = record_scans(monkeypatch)
    M = SparseMatrix.from_dense([[2.0, 1.0], [-1.0, 2.0]])
    with pytest.raises(NotSDDAfterScaling, match="V M V fails its SDD check"):
        factor_width2_solve(M, np.ones(2), 1e-8)
    assert scans == []


def test_the_shift_search_ends_without_a_scaling(monkeypatch):
    """With the bracket off and ``rho(A) = 1 - 1e-9``, every scan of the
    shift search succeeds but none of their ``v`` passes the check at the
    unit shift: all 13 shifts are scanned and ``symm_solve`` raises
    :class:`NotSDDAfterScaling`, whose message names the shifted matrix
    and not the factor-width assertion of ``factor_width2_solve``."""
    bracket_off(monkeypatch)
    scans = record_scans(monkeypatch)
    rng = np.random.default_rng(59)
    A = SparseMatrix.from_dense(random_symmetric_contraction_dense(rng, 8, 1.0 - 1e-9))
    with pytest.raises(NotSDDAfterScaling, match=r"V \(s I - A\) V dominant at s = 1:") as err:
        symm_solve(A, rng.normal(size=8), 1e-6)
    assert "factor width" not in str(err.value)
    assert len(scans) == 13 and all(scans)


@SYMMETRIC_SIZES
def test_one_backend_solve_per_symmetric_refinement_step(monkeypatch, n):
    """Each refinement step of ``symm_solve`` and ``factor_width2_solve``
    makes exactly one solve with the backend solver of ``V M V``, the last
    solver built, and nothing else solves with it."""
    solvers = []
    real = perronkit.scaling._phase_backend

    def backend(*args):
        solver = real(*args)
        solvers.append(solver)
        return solver

    monkeypatch.setattr(perronkit.scaling, "_phase_backend", backend)
    solves = []
    for cls in (_DirectSolver, _KrylovSolver):

        def solve(self, b, transpose, tol, real_solve=cls.solve):
            solves.append(self)
            return real_solve(self, b, transpose, tol)

        monkeypatch.setattr(cls, "solve", solve)
    rng = np.random.default_rng(57)
    A = SparseMatrix.from_dense(
        random_symmetric_contraction_dense(rng, n, 0.99, density=min(0.3, 5.0 / n))
    )
    M = SparseMatrix.from_dense(random_factor_width2_dense(rng, n))
    for solve_call in (
        lambda: symm_solve(A, rng.normal(size=n), 1e-12),
        lambda: factor_width2_solve(M, rng.normal(size=n), 1e-12),
    ):
        solvers.clear()
        solves.clear()
        _, report = solve_call()
        sdd_solves = [solver for solver in solves if solver is solvers[-1]]
        assert report.iterations >= 1 and len(sdd_solves) == report.iterations
        assert solves[-report.iterations:] == sdd_solves


@SYMMETRIC_SIZES
def test_factor_width2_continues_the_shift_search(monkeypatch, n):
    """With the bracket off the search over shifts 1/2, 1/8, ... runs one
    one-sided scan per shift down to the accepted one, each phase one
    solver, then builds the one SDD solver; the scaling is the one
    ``symm_scale`` finds at that shift."""
    bracket_off(monkeypatch)
    counts = count_factorizations(monkeypatch)
    scans = record_scans(monkeypatch)
    rng = np.random.default_rng(49)
    M = SparseMatrix.from_dense(random_factor_width2_dense(rng, n))
    _, report = factor_width2_solve(M, rng.normal(size=n), 1e-8)
    shift = report.info["shift"]
    assert shift < 0.5
    assert len(scans) == round(math.log(0.5 / shift, 4)) + 1
    assert counts == {**NO_SOLVERS, solver_name(n): sum(scans) + 1}
    fresh, _ = symm_scale(_normalized_comparison(M), shift)
    assert np.array_equal(report.info["scaling"], fresh)


@SYMMETRIC_SIZES
def test_non_finite_level_solve_fails_the_symmetric_path(monkeypatch, n):
    """A solve that returns non-finite values fails a bracket step, and the
    fallback's phase then trips the phase loop's finiteness guard: every
    symmetric entry point raises instead of returning a non-finite ``v`` or
    ``x``.  With the bracket off the scan alone meets it; with the bracket
    on, the two-cycle at ``eps`` = 0.6, which the all-ones start settles
    with no solve, is left out."""
    for backend in (_DirectSolver, _KrylovSolver):
        monkeypatch.setattr(
            backend, "solve", lambda self, b, transpose, tol: np.full_like(b, np.nan)
        )
    rng = np.random.default_rng(51)
    # inputs whose brackets reach a solve: power steps alone settle neither
    A = SparseMatrix.from_dense(
        random_symmetric_contraction_dense(rng, n, 0.95, density=min(0.3, 5.0 / n))
    )
    M = SparseMatrix.from_dense(random_factor_width2_dense(rng, n, rows_per_col=1))
    b = rng.normal(size=n)
    calls = [
        lambda: symm_scale(SparseMatrix.from_dense([[0.0, 0.5], [0.5, 0.0]]), 0.6),
        lambda: symm_scale(A, 1e-3),
        lambda: symm_solve(A, b, 1e-6),
        lambda: factor_width2_solve(M, b, 1e-6),
    ]
    for path in ("bracket", "scan"):
        with monkeypatch.context() as patch:
            if path == "scan":
                bracket_off(patch)
            for call in calls[1:] if path == "bracket" else calls:
                with pytest.raises(IterationCapHit, match="residual ceiling"):
                    call()


def test_a_nonpositive_phase_fails_every_scan(monkeypatch):
    """With the bracket off, a phase that ends on a pair with a nonpositive
    entry fails whoever runs the scan, where its final check alone would
    pass: ``diag(l) M diag(r)`` is dominant for ``(-l, -r)`` as for ``(l,
    r)``.  Each solve and each shifted product here returns ones, so the
    first step leaves ``l = r = -1``, whose residuals read zero: the
    symmetric solves fail as a symmetric phase, and ``mmatrix_scale`` and
    ``solve_m`` as a scaling phase, never with the ``ValueError`` a
    nonpositive :class:`ScalingPair` raises."""
    bracket_off(monkeypatch)
    for name in ("p_right", "p_left"):
        monkeypatch.setattr(_PhaseSolver, name, lambda self, x: np.ones_like(x))
    for name in ("shifted_matvec", "shifted_rmatvec"):
        monkeypatch.setattr(_Problem, name, lambda self, alpha, x: np.ones_like(x))
    rng = np.random.default_rng(54)
    A = SparseMatrix.from_dense(random_symmetric_contraction_dense(rng, 20, 0.9))
    M = SparseMatrix.from_dense(random_factor_width2_dense(rng, 20))
    b = rng.normal(size=20)
    calls = [
        lambda: symm_scale(A, 1e-3),
        lambda: symm_solve(A, b, 1e-6),
        lambda: factor_width2_solve(M, b, 1e-6),
    ]
    for call in calls:
        with pytest.raises(IterationCapHit, match="symmetric phase 0 .* nonpositive scaling"):
            call()
    B = SparseMatrix.from_dense(np.full((20, 20), 0.8 / 20))
    for call in (lambda: mmatrix_scale(B, 1.0, 1e-3, 10.0), lambda: solve_m(B, 1.0, 1e-6, 10.0)):
        with pytest.raises(IterationCapHit, match="scaling phase 0 .* nonpositive scaling"):
            call()


@pytest.mark.parametrize("n", [20, 400], ids=["dense", "csr"])
def test_solve_m_factors_its_checked_scaling_once(monkeypatch, n):
    """With the bracket off, ``solve_m`` checks RCDD once, on the scan's
    result, and builds a solver of that same matrix once more than the
    scan's phases; it builds no RCDD solver.  ``symm_scale``'s scan, at
    the target shift, checks twice: the scan checks its final ``diag(l) M
    diag(r)``, and the bracket then checks the ``V M V`` of its right
    vector ``v``, the matrix the symmetric solves use."""
    bracket_off(monkeypatch)
    counts = count_factorizations(monkeypatch)
    count_calls(monkeypatch, counts, perronkit.scaling, "check_rcdd")
    count_calls(monkeypatch, counts, perronkit.rcdd, "check_rcdd")
    count_calls(monkeypatch, counts, perronkit.rcdd, "build_rcdd_solver")
    count_calls(monkeypatch, counts, perronkit.scaling, "solve_from_scale")
    rng = np.random.default_rng(55)
    A_dense = random_m_matrix_dense(rng, n, 0.8, density=min(0.3, 5.0 / n))
    op = solve_m(SparseMatrix.from_dense(A_dense), 1.0, 1e-8, 100.0)
    for _ in range(3):
        b = rng.normal(size=n)
        x = op.apply(b)
        assert np.linalg.norm(x - A_dense @ x - b) <= 1e-8 * np.linalg.norm(b)
    phases = op.report.info["scaling_phases"]
    assert phases > 0
    assert counts == {
        **NO_SOLVERS,
        solver_name(n): phases + 1,
        "check_rcdd": 1,
        "build_rcdd_solver": 0,
        "solve_from_scale": 0,
    }
    counts["check_rcdd"] = 0
    A_sym = random_symmetric_contraction_dense(rng, n, 0.9, density=min(0.3, 5.0 / n))
    _, report = symm_scale(SparseMatrix.from_dense(A_sym), 1e-3)
    assert len(report.phases) > 0 and counts["check_rcdd"] == 2


@pytest.mark.parametrize("n", [20, 400], ids=["dense", "csr"])
def test_solve_m_factors_the_bracket_pair_once(monkeypatch, n):
    """On the bracket path ``solve_m`` runs no scan: it checks the bracket's
    pair RCDD once and builds one solver per bracket step and one of the
    checked matrix.  The pair is the bracket's at ``s`` with no shift and,
    recomputed here, makes ``s I - A`` itself RCDD."""
    counts = count_factorizations(monkeypatch)
    count_calls(monkeypatch, counts, perronkit.scaling, "check_rcdd")
    for module in (perronkit.scaling, perronkit.perron):
        count_calls(monkeypatch, counts, module, "_halving_scan")
    count_calls(monkeypatch, counts, perronkit.rcdd, "build_rcdd_solver")
    pairs = []
    real_pair = perronkit.scaling._CWBracket.checked_pair

    def checked_pair(self, s, alpha):
        found = real_pair(self, s, alpha)
        pairs.append(found)
        return found

    monkeypatch.setattr(perronkit.scaling._CWBracket, "checked_pair", checked_pair)
    rng = np.random.default_rng(55)
    # at 0.98 power steps alone do not settle rho < 1
    A_dense = random_m_matrix_dense(rng, n, 0.98, density=min(0.3, 5.0 / n))
    A = SparseMatrix.from_dense(A_dense)
    eps = 1e-8
    op = solve_m(A, 1.0, eps, 100.0)
    for _ in range(3):
        b = rng.normal(size=n)
        x = op.apply(b)
        assert np.linalg.norm(x - A_dense @ x - b) <= eps * np.linalg.norm(b)
    steps = op.report.info["bracket_steps"]
    assert op.report.info["scaling_phases"] == 0 and steps >= 1
    assert counts == {
        **NO_SOLVERS,
        solver_name(n): steps + 1,
        "check_rcdd": 1,
        "_halving_scan": 0,
        "build_rcdd_solver": 0,
    }
    ((_, pair),) = pairs
    assert (pair.s, pair.alpha) == (1.0, 0.0)
    S = apply_scaling(pair.left, shifted_m_matrix(A, 1.0), pair.right)
    assert check_rcdd(S, RCDD_VERIFY_SLACK)


def test_solve_m_reports_the_krylov_iterations_it_ran(monkeypatch):
    """Above the cutoff a ``solve_m`` operator's ``report.iterations``
    counts the BiCGSTAB iterations its applications ran, as every
    operator's does, and not its refinement steps."""
    rng = np.random.default_rng(56)
    A = sparse_m_matrix(rng)
    op = solve_m(A, 1.0, 1e-8, 100.0)
    ran = [0]
    real_core = perronkit.rcdd._bicgstab_core

    def core(*args):
        x, its = real_core(*args)
        ran[0] += its
        return x, its

    monkeypatch.setattr(perronkit.rcdd, "_bicgstab_core", core)
    for _ in range(3):
        op.apply(rng.normal(size=A.n_rows))
    assert ran[0] > 0 and op.report.iterations == ran[0]
    assert sum(op.report.info["iterations_per_call"]) == ran[0]


def test_a_builders_rounding_floor_is_a_backend_divergence():
    """At n = 400 the rounding of a residual's norms alone, ``(n + 2) u
    ||b||``, exceeds ``eps ||b||`` at eps = 1e-16: applying the RCDD
    solver raises :class:`BackendDiverged` from the refinement's
    :class:`RoundingFloorHit`."""
    rng = np.random.default_rng(57)
    n = 400
    assert (n + 2) * np.finfo(float).eps > 1e-16
    Z = build_rcdd_solver(SparseMatrix.from_dense(random_strictly_rcdd_dense(rng, n)), 1e-16)
    with pytest.raises(BackendDiverged) as raised:
        Z.apply(rng.normal(size=n))
    assert isinstance(raised.value.__cause__, RoundingFloorHit)


def test_a_builders_rounding_floor_does_not_grow_with_n():
    """The refinement sums the norms of ``b`` and of the residual in
    ``np.longdouble``, so its charge for them no longer grows as ``(n + 2)
    u``: at n = 1000, where ``(n + 2) u`` alone is above half of eps =
    1e-13, a well-conditioned sparse RCDD matrix meets that eps, forward
    and transposed, its residual recomputed here in extended precision."""
    rng = np.random.default_rng(58)
    n, eps = 1000, 1e-13
    assert (n + 2) * np.finfo(float).eps > eps / 2.0
    rows, cols = np.repeat(np.arange(n), 4), rng.integers(0, n, 4 * n)
    keep = rows != cols
    off = sp.csr_matrix((rng.normal(size=keep.sum()), (rows[keep], cols[keep])), shape=(n, n))
    dominance = np.maximum(abs(off).sum(axis=0).A1, abs(off).sum(axis=1).A1)
    S = (off + sp.diags(1.2 * dominance + 0.2)).tocsr()
    Z = build_rcdd_solver(SparseMatrix.from_scipy(S), eps)
    for op, M in ((Z, S), (Z.transpose(eps), S.T.tocsr())):
        b = rng.normal(size=n)
        x = op.apply(b)
        residual = b.astype(np.longdouble) - M @ x.astype(np.longdouble)
        assert np.linalg.norm(residual) <= eps * np.linalg.norm(b.astype(np.longdouble))


def test_solve_from_scale_rejects_a_scaling_that_is_not_rcdd():
    """``solve_from_scale`` checks ``L M R`` RCDD when it builds."""
    M = SparseMatrix.from_dense([[1.0, -2.0], [-2.0, 1.0]])
    with pytest.raises(NotRCDD):
        solve_from_scale(M, ScalingPair(np.ones(2), np.ones(2), alpha=0.0, s=1.0), 1e-6)


@pytest.mark.parametrize("n", [20, 400], ids=["dense", "csr"])
def test_a_problem_holds_the_bits_of_its_scale(n):
    """A problem built at each scale holds the bits of ``A / scale``
    formed by scipy: its ``csr``, its cached norm and its ``scaled_shift``,
    ``diag(ell) ((1 + alpha) I - A / scale) diag(r)`` as scipy's products
    form it."""
    rng = np.random.default_rng(57)
    A = SparseMatrix.from_dense(random_m_matrix_dense(rng, n, 0.8, density=min(0.3, 5.0 / n)))
    norms = induced_norms(A)
    ell = rng.uniform(0.5, 2.0, n)
    r = rng.uniform(0.5, 2.0, n)
    for scale in (0.37, 1.0 + 1e-6, 3.1e5, 2.0 / 3.0):
        prob = _Problem(A, scale)
        assert prob.norm_max == max(norms.norm_1, norms.norm_inf) / scale
        assert prob.norm_max is prob.norm_max and prob.csr is prob.csr
        shifted = sp.identity(n, format="csr") * (1.0 + 1e-6) - A.csr() / scale
        for got, want in (
            (prob.csr, A.csr() / scale),
            (prob.scaled_shift(1e-6, ell, r), (sp.diags(ell) @ shifted @ sp.diags(r)).tocsr()),
        ):
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data, want.data)


def pattern_inputs():
    """Canonical CSR inputs with and without a stored diagonal, with empty
    rows and with explicit zeros, one of them on the diagonal."""
    rng = np.random.default_rng(62)
    base = (rng.random((40, 40)) < 0.1) * rng.uniform(0.1, 1.0, (40, 40))
    no_diag = base.copy()
    np.fill_diagonal(no_diag, 0.0)
    full_diag = base.copy()
    np.fill_diagonal(full_diag, 0.5)
    holes = full_diag.copy()
    holes[[0, 17, 39], :] = 0.0
    zeros = sp.csr_matrix(full_diag)
    zeros.data[[0, 7, 30]] = 0.0
    inputs = {
        "some-diag": sp.csr_matrix(base),
        "no-diag": sp.csr_matrix(no_diag),
        "full-diag": sp.csr_matrix(full_diag),
        "empty-rows": sp.csr_matrix(holes),
        "explicit-zeros": zeros,
        "empty": sp.csr_matrix((6, 6)),
    }
    assert all(csr.has_canonical_format for csr in inputs.values())
    return inputs


@pytest.mark.parametrize("name", list(pattern_inputs()))
def test_shift_pattern_matches_the_coo_pattern(name):
    """The pattern of ``A + I`` built without COO (``sparse._with_diagonal``)
    equals the COO round-trip of ``A``'s entries and the diagonal: same
    ``indptr`` and ``indices``, and the marks its positions give, 1 (only
    ``A`` stores the entry), 2 (only the diagonal) and 3 (both)."""
    csr = pattern_inputs()[name]
    n = csr.shape[0]
    coo = csr.tocoo()
    idx = np.arange(n)
    expected = sp.csr_matrix(
        (
            np.concatenate([np.ones(coo.nnz), np.full(n, 2.0)]),
            (np.concatenate([coo.row, idx]), np.concatenate([coo.col, idx])),
        ),
        shape=(n, n),
    )
    expected.sum_duplicates()
    shifted, a_pos = _with_diagonal(_Pattern(csr.shape, csr.indptr, csr.indices))
    indptr, indices, diag = shifted.indptr, shifted.indices, shifted.diagonal
    # the diagonal positions set are those the row index would give
    assert np.array_equal(diag, np.flatnonzero(shifted.rows == shifted.indices))
    got = sp.csr_matrix((np.zeros(indices.size), indices, indptr), shape=(n, n))
    got.data[a_pos] += 1.0
    got.data[diag] += 2.0
    assert got.has_canonical_format
    assert np.array_equal(got.indptr, expected.indptr)
    assert np.array_equal(got.indices, expected.indices)
    assert np.array_equal(got.data, expected.data)
    if name == "explicit-zeros":
        # every diagonal is stored, so the stored zeros, kept, are all it adds
        assert (csr.data == 0.0).sum() == 3 and got.nnz == csr.nnz


def with_empty_rows(A: SparseMatrix, rows) -> SparseMatrix:
    dense = A.to_dense()
    dense[rows, :] = 0.0
    return SparseMatrix.from_dense(dense)


@pytest.mark.parametrize("case", ["stored-diag", "no-diag", "empty-rows"])
def test_step_matrix_matches_a_fresh_shift(case):
    """Above the cutoff the bracket's step matrix, refreshed in place from
    scale to scale, holds the bits of a fresh problem's ``scaled_shift`` at
    the step's shift and unit scalings, its transposed product (the column
    kernel on its arrays) the transpose's and its inverse diagonal the
    reciprocals of that diagonal."""
    rng = np.random.default_rng(63)
    A = sparse_m_matrix(rng, diagonal=case != "no-diag")
    if case == "empty-rows":
        A = with_empty_rows(A, [0, 200, A.n_rows - 1])
    n = A.n_rows
    ones = np.ones(n)
    bracket = _CWBracket(A)
    for scale in (1.0, 0.37, 3.1e5, 2.0 / 3.0):
        solver = bracket._step_solver(scale)
        fresh = _Problem(A, scale).scaled_shift(_CW_SHIFT_MARGIN, ones, ones)
        assert np.array_equal(solver.S.indptr, fresh.indptr)
        assert np.array_equal(solver.S.indices, fresh.indices)
        assert np.array_equal(solver.S.data, fresh.data)
        x = rng.normal(size=n)
        assert np.array_equal(_kernel_product(solver.S, x, transpose=True), fresh.T @ x)
        assert np.array_equal(solver._inv_diag, 1.0 / fresh.diagonal())


def test_dense_step_matrix_matches_a_fresh_shift():
    """Below the cutoff the bracket's step matrix, formed in one array from
    ``A``'s CSR, holds the bits of ``(1 + margin) I - A / scale`` formed
    densely, ``-(A / scale)`` with ``1 + margin`` added to its diagonal,
    zero entries' signs included, at every scale."""
    rng = np.random.default_rng(64)
    A = random_irreducible(rng, 30)
    bracket = _CWBracket(A)
    for scale in (1.0, 0.37, 3.1e5, 2.0 / 3.0):
        S = bracket._step_solver(scale).S
        want = -(A.to_dense() / scale)
        np.fill_diagonal(want, want.diagonal() + (1.0 + _CW_SHIFT_MARGIN))
        assert S.tobytes() == want.tobytes()


def old_unit_positive(x):
    """``_unit_positive`` as it was, every ratio under silenced flags."""
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        x = x / x.max()
    least = x.min()
    return (x, float(least)) if least >= np.finfo(float).tiny else None


TINY = np.finfo(float).tiny


@pytest.mark.parametrize(
    "x",
    [
        [1.0, np.nan, 2.0],
        [1.0, np.inf, 2.0],
        [1.0, -np.inf, 2.0],
        [-np.inf, -1.0],
        [0.0, 0.0],
        [-1.0, 0.0, -2.0],
        [-1.0, 2.0, 3.0],
        [-1e300, 1e-300],
        [-2.0, -1.0, -4.0],
        [-1.0, -5e-324],
        [1e-310, 1.0],
        [TINY, 1.0],
        [0.5 * TINY, 0.5],
        [5e-324, 1e-300],
        [1e-300, 3e-300, 2e-300],
        [2.0, 1.0, 0.25],
        [7.0],
    ],
    ids=[
        "nan", "plus-inf", "minus-inf", "minus-inf-max", "zero-max", "zero-max-negatives",
        "mixed-signs", "mixed-signs-overflow", "all-negative", "all-negative-overflow",
        "subnormal-ratio", "tiny-ratio", "tiny-ratio-rounded", "subnormal-entry-tiny-max",
        "tiny-max", "positive", "one-entry",
    ],
)
def test_unit_positive_keeps_its_contract(x):
    """``_unit_positive`` gives the old formula's verdict and bits on every
    kind of input, and its accepting path raises no floating-point warning."""
    x = np.array(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _unit_positive(x)
    want = old_unit_positive(x)
    assert (got is None) == (want is None)
    if want is not None:
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1] == want[1] and type(got[1]) is float


def count_sparse_constructions(monkeypatch):
    """Count the CSR, CSC and COO matrices constructed, in ``counts[0]``."""
    counts = [0]
    for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix):
        real = cls.__init__

        def init(self, *args, _real=real, **kwargs):
            counts[0] += 1
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)
    return counts


@pytest.mark.parametrize("symmetric", [False, True], ids=["two-sided", "one-sided"])
def test_bracket_steps_build_no_sparse_matrix(monkeypatch, symmetric):
    """Above the cutoff a bracket builds its step matrix at its first step
    and then constructs no scipy matrix at all: each later step only
    rescales values in place (four constructions per step before)."""
    A = sparse_instance_at(0.9)
    counts = count_sparse_constructions(monkeypatch)
    bracket = _CWBracket(A, symmetric=symmetric)
    steps = bracket._iterates()
    # the power steps come first, and build nothing
    while bracket.factorizations == 0:
        next(steps)
    assert bracket.factorizations == 1 and counts[0] > 0
    counts[0] = 0
    for _ in range(4):
        next(steps)
    assert bracket.factorizations == 5 and not bracket.failed
    assert counts[0] == 0


def test_handed_out_matrices_stay_fixed(monkeypatch):
    """A matrix the bracket hands out is its own: the matrix
    ``checked_pair`` checked RCDD and hands on, equal to a fresh problem's,
    the pair, and a phase solver built on that matrix keep their values
    while the bracket steps on, and ``solve_m``'s solver keeps its matrix
    and answers across later calls."""
    A = sparse_instance_at(0.9)
    checked = []
    real_check = perronkit.scaling.check_rcdd

    def check(S, slack=0.0):
        checked.append((S, S.data.copy()))
        return real_check(S, slack)

    monkeypatch.setattr(perronkit.scaling, "check_rcdd", check)
    bracket = _CWBracket(A)
    S, pair = bracket.checked_pair(1.0, 1e-3)
    left, right = pair.left.copy(), pair.right.copy()
    solver = _PhaseSolver(S, pair.left, pair.right, tol=1e-10)
    kept = solver.S.data.copy()
    steps = bracket.factorizations
    bracket.upper(1e-14)
    assert bracket.factorizations > steps
    ((checked_S, data),) = checked
    assert checked_S is S and solver.S is S
    assert np.array_equal(S.data, data)
    assert np.array_equal(pair.left, left) and np.array_equal(pair.right, right)
    assert np.array_equal(solver.S.data, kept)
    assert np.array_equal(_Problem(A, 1.0).scaled_shift(1e-3, left, right).data, kept)

    solvers = []

    class Recorded(_PhaseSolver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            solvers.append(self)

    monkeypatch.setattr(perronkit.scaling, "_PhaseSolver", Recorded)
    b = np.random.default_rng(64).normal(size=A.n_rows)
    op = solve_m(A, 1.0, 1e-6, 1e3)
    (phase,) = solvers
    kept = phase.S.data.copy()
    x = op.apply(b)
    solve_m(A, 1.0, 1e-6, 1e3)
    perronkit.m_decide(A, 1e-3, 1e3)
    assert np.array_equal(phase.S.data, kept)
    assert np.array_equal(op.apply(b), x)


def record_checked_solvers(monkeypatch):
    """Record, for every ``_PhaseSolver`` built, its ``S`` and the last
    matrix ``scaling.check_rcdd`` had accepted by then (``None`` before the
    first)."""
    accepted, solvers = [], []
    real_check = perronkit.scaling.check_rcdd

    def check(S, slack=0.0):
        passed = real_check(S, slack)
        if passed:
            accepted.append(S)
        return passed

    class Recorded(_PhaseSolver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            solvers.append((self.S, accepted[-1] if accepted else None))

    monkeypatch.setattr(perronkit.scaling, "check_rcdd", check)
    monkeypatch.setattr(perronkit.scaling, "_PhaseSolver", Recorded)
    monkeypatch.setattr(perronkit.perron, "_PhaseSolver", Recorded)
    return solvers


def count_scaled_shifts(monkeypatch):
    """Count ``_Problem.scaled_shift`` calls in the returned one-item list."""
    calls = [0]
    real = _Problem.scaled_shift

    def scaled_shift(self, alpha, ell, r):
        calls[0] += 1
        return real(self, alpha, ell, r)

    monkeypatch.setattr(_Problem, "scaled_shift", scaled_shift)
    return calls


@pytest.mark.parametrize("n", [20, 400], ids=["dense", "csr"])
def test_solve_m_solves_with_the_matrix_its_check_passed(monkeypatch, n):
    """On the bracket path ``solve_m``'s solver is built on the very matrix
    the RCDD check accepted, formed once: the bracket's step solvers form
    their matrices without ``scaled_shift`` on both storages, so a build
    calls it once, for the checked matrix."""
    solvers = record_checked_solvers(monkeypatch)
    calls = count_scaled_shifts(monkeypatch)
    rng = np.random.default_rng(55)
    # at 0.98 power steps alone do not settle rho < 1
    A = SparseMatrix.from_dense(random_m_matrix_dense(rng, n, 0.98, density=min(0.3, 5.0 / n)))
    op = solve_m(A, 1.0, 1e-8, 100.0)
    ((S, checked),) = solvers
    assert S is checked
    steps = op.report.info["bracket_steps"]
    assert steps >= 1
    assert calls[0] == 1


def test_the_scan_hands_on_the_matrix_its_check_passed(monkeypatch):
    """With the bracket off, ``solve_m``'s operator solves with the matrix
    the scan's final check accepted."""
    bracket_off(monkeypatch)
    solvers = record_checked_solvers(monkeypatch)
    A = random_m_matrix(np.random.default_rng(56), 20, 0.8)
    op = solve_m(A, 1.0, 1e-8, 100.0)
    assert op.report.info["scaling_phases"] >= 1
    S, checked = solvers[-1]
    assert S is checked


def test_the_certificate_fallback_hands_on_the_matrix_its_check_passed(monkeypatch):
    """When the decay decision's first check settles nothing, Katz solves
    with the matrix the check of its certificate's pair accepted."""
    monkeypatch.setattr(perronkit.scaling._CWBracket, "checked_pair", lambda self, s, a: None)
    solvers = record_checked_solvers(monkeypatch)
    B = random_irreducible(np.random.default_rng(57), 20)
    B = B.scaled(0.9 / dense_spectral_radius(B.to_dense(), tol=1e-12)[0])
    b = np.ones(B.n_rows)
    v, _ = katz_centrality(B, 1.0, b, 1e-8)
    assert np.linalg.norm(v - B.matvec(v) - b) <= 1e-8 * np.linalg.norm(b)
    ((S, checked),) = solvers
    assert S is checked


def test_the_polish_solves_with_the_matrix_the_scan_checked(monkeypatch):
    """With the bracket failed, each round's polish solves with the matrix
    its scan's final check accepted."""
    monkeypatch.setattr(perronkit.scaling._CWBracket, "upper", lambda self, eps: None)
    solvers = record_checked_solvers(monkeypatch)
    cert = compute_perron(criterion_01_instance(0), 1e-3)
    assert cert.k_final >= 1.0
    S, checked = solvers[-1]
    assert S is checked


def record_solves(monkeypatch):
    """Record, per solver built, the ``transpose`` flag of each of its
    solves: a list of lists in build order."""
    solvers = []
    for name in ("_DirectSolver", "_KrylovSolver"):
        base = getattr(perronkit.rcdd, name)

        class Recorded(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.flags = []
                solvers.append(self.flags)

            def solve(self, b, transpose, tol):
                self.flags.append(transpose)
                return super().solve(b, transpose, tol)

        monkeypatch.setattr(perronkit.rcdd, name, Recorded)
    return solvers


@SYMMETRIC_SIZES
def test_symmetric_callers_step_one_side(monkeypatch, n):
    """The symmetric entry points run a one-sided bracket: each step solves
    once, for the right iterate, and the left iterate is the right one, so
    ``symm_solve`` and ``factor_width2_solve`` make no transposed solve, one
    solve per bracket step plus their SDD solver's.  A two-sided bracket on
    the same input solves twice per step.  Both CW bounds are still computed,
    the left one on ``A.T``, and recompute here."""
    rng = np.random.default_rng(65)
    A_dense = random_symmetric_contraction_dense(rng, n, 0.99, density=min(0.3, 5.0 / n))
    A = SparseMatrix.from_dense(A_dense)
    # a ridge at which M's bracket takes shift-and-invert steps too
    M = SparseMatrix.from_dense(random_factor_width2_dense(rng, n, ridge=0.02))
    b = rng.normal(size=n)
    for solve in (lambda: symm_solve(A, b, 1e-9), lambda: factor_width2_solve(M, b, 1e-8)):
        with monkeypatch.context() as patch:
            solvers = record_solves(patch)
            _, report = solve()
        steps = report.info["bracket_steps"]
        assert steps >= 1 and len(solvers) == steps + 1
        assert all(flags == [False] for flags in solvers[:-1])
        assert solvers[-1] and not any(solvers[-1])

    eps = 1e-3
    with monkeypatch.context() as patch:
        solvers = record_solves(patch)
        two_sided = _CWBracket(A)
        assert two_sided.decide(1.0 + eps)
    assert solvers and all(flags == [False, True] for flags in solvers)
    one_sided = _CWBracket(A, symmetric=True)
    assert one_sided.decide(1.0 + eps)
    assert one_sided.left is one_sided.right
    v = one_sided.right
    for matrix, bounds in ((A_dense, one_sided.cw_right), (A_dense.T, one_sided.cw_left)):
        ratios = matrix @ v / v
        np.testing.assert_allclose(bounds, (ratios.min(), ratios.max()), rtol=1e-13)
        assert ratios.max() * (1.0 + (n + 2) * np.finfo(float).eps) < 1.0 + eps


@SYMMETRIC_SIZES
def test_top_singular_makes_no_left_solve(monkeypatch, n):
    """``top_singular`` certifies its Gram matrix on the one-sided bracket:
    its steps solve for the right iterate only, no solve is transposed,
    where ``compute_perron`` on the same Gram matrix solves both sides, and
    ``sigma`` stays within delta of the oracle's."""
    rng = np.random.default_rng(67)
    A_dense = random_irreducible_dense(rng, n, density=min(0.3, 3.0 / n))
    delta = 1e-6
    with monkeypatch.context() as patch:
        solvers = record_solves(patch)
        trip = top_singular(SparseMatrix.from_dense(A_dense), delta)
    assert solvers and all(flags and not any(flags) for flags in solvers)
    sigma, _, _ = dense_svd_top(A_dense, tol=1e-13)
    assert abs(trip.sigma - sigma) <= delta * sigma
    with monkeypatch.context() as patch:
        solvers = record_solves(patch)
        compute_perron(SparseMatrix.from_dense(A_dense.T @ A_dense), delta)
    assert solvers and all(True in flags for flags in solvers)


def test_a_one_sided_bracket_stays_sound_on_any_input():
    """On a nonsymmetric input the one-sided bracket's left iterate is no
    left Perron estimate, yet its CW bounds are computed on ``A.T``, so
    every verdict holds against the dense spectral radius."""
    rng = np.random.default_rng(66)
    for _ in range(10):
        A_dense = random_irreducible_dense(rng, 30, density=0.2)
        rho, _ = dense_spectral_radius(A_dense, tol=1e-13)
        A = SparseMatrix.from_dense(A_dense)
        for bound in (rho * (1 - 1e-3), rho * (1 + 1e-3)):
            verdict = _CWBracket(A, symmetric=True).decide(bound)
            assert verdict is None or verdict == (rho < bound)


@pytest.mark.parametrize("storage", ["dense", "csr"])
def test_compute_perron_builds_a_problem_only_to_scan(monkeypatch, storage):
    """The bracket's steps build no problem, so a round whose bracket pair
    is accepted builds none.  When that pair is rejected at K=1, the K=2
    round continues the bracket, which on these inputs moves without a
    fresh factorization (by one re-solve on the dense input) or steps once
    more, and builds none either.  Only a round whose bracket can neither
    re-solve nor step scans, and the polish factors on the scan's problem:
    one build."""
    builds = []
    real_init = _Problem.__init__

    def init(self, A, scale):
        builds.append(scale)
        real_init(self, A, scale)

    monkeypatch.setattr(_Problem, "__init__", init)
    A = criterion_01_instance(0) if storage == "dense" else perron_sparse_instance()
    cert = compute_perron(A, 1e-3)
    assert cert.k_final == 1.0 and len(builds) == 0
    rejected = reject_bracket_pair(monkeypatch)
    cert = compute_perron(A, 1e-3)
    assert cert.k_final == 2.0 and len(builds) == 0
    rejected.clear()
    monkeypatch.setattr(_CWBracket, "_resolve_step", lambda self: False)
    monkeypatch.setattr(_CWBracket, "step", lambda self: False)
    cert = compute_perron(A, 1e-3)
    assert cert.k_final == 2.0 and len(builds) == 1


def count_sparse_builds(monkeypatch):
    """Count every scipy sparse matrix constructed, in the returned one-item
    list: each constructor ends in the ``__init__`` of the root
    ``scipy.sparse`` class of the CSR hierarchy."""
    root = next(
        cls
        for cls in reversed(sp.csr_matrix.__mro__)
        if cls.__module__.startswith("scipy.sparse") and "__init__" in vars(cls)
    )
    builds = [0]
    real_init = root.__init__

    def init(self, *args, **kwargs):
        builds[0] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(root, "__init__", init)
    return builds


@pytest.mark.parametrize("storage", ["dense", "csr"])
def test_bracket_steps_form_their_matrices_by_size(monkeypatch, storage):
    """The bracket's one size branch, its step solver: up to the dense
    cutoff ``compute_perron`` on criterion-01 inputs never builds the
    pattern of ``A + I`` (``sparse._with_diagonal``), and its bracket steps
    build no scipy matrix, LAPACK factoring an array formed from ``A``'s
    CSR.  Above the cutoff the bracket builds one step CSR, at its first
    step, on that pattern, built once."""
    shifted = []
    real_with_diagonal = perronkit.sparse._with_diagonal

    def with_diagonal(pattern):
        shifted.append(pattern)
        return real_with_diagonal(pattern)

    monkeypatch.setattr(perronkit.sparse, "_with_diagonal", with_diagonal)
    builds = count_sparse_builds(monkeypatch)
    steps = []  # the scipy matrices each _step_solver call built
    real_step_solver = _CWBracket._step_solver

    def step_solver(self, hi):
        before = builds[0]
        solver = real_step_solver(self, hi)
        steps.append(builds[0] - before)
        return solver

    monkeypatch.setattr(_CWBracket, "_step_solver", step_solver)
    instances = (
        [criterion_01_instance(seed) for seed in range(20)]
        if storage == "dense" else [perron_sparse_instance()]
    )
    for A in instances:
        shifted.clear()
        steps.clear()
        compute_perron(A, 1e-3)
        assert steps
        if storage == "dense":
            assert A.n_rows <= _DENSE_CUTOFF
            assert shifted == [] and steps == [0] * len(steps)
        else:
            assert shifted == [A._pattern] and steps == [1] + [0] * (len(steps) - 1)


def sparse_instance_at(rho, n=400, seed=58, density=0.02):
    """A Hamiltonian cycle plus random edges in CSR storage, scaled to the
    given spectral radius."""
    A_dense = random_irreducible_dense(np.random.default_rng(seed), n, density=density)
    assert n > _DENSE_CUTOFF
    return SparseMatrix.from_dense(A_dense * (rho / dense_spectral_radius(A_dense, tol=1e-12)[0]))


@pytest.mark.parametrize("rho", [0.9, 0.99, 1.05])
def test_certify_factors_only_the_bracket(monkeypatch, rho):
    """Away from the bound the shift-and-invert bracket alone decides: no
    scan, no Perron round, a handful of Krylov solvers.  The instance has
    about three random edges per row, not eight, and mixes so slowly that
    the bracket keeps no power step: on the denser one power steps alone
    settle ``rho < 1`` at 0.9 and refute it at 1.05."""
    B = sparse_instance_at(rho, density=0.0075)
    counts = count_factorizations(monkeypatch)
    count_calls(monkeypatch, counts, perronkit.perron, "_perron_rounds")
    for module in (perronkit.scaling, perronkit.perron):
        count_calls(monkeypatch, counts, module, "_halving_scan")
    valid, _ = perronkit.perron.certify_spectral_bound(B, 1.0)
    assert valid == (rho < 1.0)
    assert counts["_perron_rounds"] == 0 and counts["_halving_scan"] == 0
    assert counts["lu_factor"] == 0 and 1 <= counts["krylov"] <= 8


def test_katz_certify_runs_no_scan(monkeypatch):
    """Katz runs no scan: its decision is one bracket and its solve is
    built on that bracket's pair, so even with the bracket of the
    fixed-shift entry points off it builds one bracket, one phase solver
    and no Perron round."""
    bracket_off(monkeypatch)
    B = sparse_instance_at(0.99)
    counts = {}
    count_calls(monkeypatch, counts, perronkit.perron, "_perron_rounds")
    built = record_builds(monkeypatch)
    b = np.ones(B.n_rows)
    v, _ = katz_centrality(B, 1.0, b, 1e-8)
    assert np.linalg.norm(v - B.matvec(v) - b) <= 1e-8 * np.linalg.norm(b)
    assert counts["_perron_rounds"] == 0
    assert build_counts(built) == {"_CWBracket": 1, "_halving_scan": 0, "_PhaseSolver": 1}


def test_katz_solves_from_its_certificate_pair(monkeypatch):
    """Katz solves from the pair whose CW upper bounds proved the decay
    valid, its one bracket's iterates: no scan, no round, one bracket and
    one phase solver, built on that pair at the conditioning bound it
    proves, and that pair, recomputed here, makes ``I - B`` RCDD."""
    B = sparse_instance_at(0.99)
    counts = {}
    count_calls(monkeypatch, counts, perronkit.perron, "_perron_rounds")
    count_calls(monkeypatch, counts, perronkit.apps, "_certify")
    built = record_builds(monkeypatch)
    b = np.ones(B.n_rows)
    v, report = katz_centrality(B, 1.0, b, 1e-8)
    assert np.linalg.norm(v - B.matvec(v) - b) <= 1e-8 * np.linalg.norm(b)
    assert report.residuals[-1] <= 1e-8
    assert counts == {"_perron_rounds": 0, "_certify": 0}
    assert build_counts(built) == {"_CWBracket": 1, "_halving_scan": 0, "_PhaseSolver": 1}
    (bracket,), (solver,) = built["_CWBracket"], built["_PhaseSolver"]
    assert np.array_equal(solver.ell, bracket.left) and np.array_equal(solver.r, bracket.right)
    pair = ScalingPair(bracket.left, bracket.right, alpha=0.0, s=1.0)
    assert solver.tol == 1.0 / (8.0 * max(perronkit.apps._inverse_norm_bounds(B, pair)))
    S = apply_scaling(bracket.left, shifted_m_matrix(B, 1.0), bracket.right)
    assert check_rcdd(S, RCDD_VERIFY_SLACK)


@pytest.mark.parametrize("shape", [(30, 12), (12, 30)], ids=["tall", "wide"])
def test_top_singular_certifies_one_gram(monkeypatch, shape):
    """One Perron computation, on the smaller Gram matrix, the only Gram
    matrix formed, on the one-sided bracket: both irreducibility checks run
    on the pattern of ``A``."""
    counts = {}
    count_calls(monkeypatch, counts, perronkit.apps, "is_irreducible")
    seen = []
    real = perronkit.apps._compute_perron

    def record(G, delta, **kwargs):
        seen.append((G.n_rows, kwargs))
        return real(G, delta, **kwargs)

    monkeypatch.setattr(perronkit.apps, "_compute_perron", record)
    formed = []
    real_from_scipy = SparseMatrix.from_scipy.__func__

    def from_scipy(cls, mat):
        formed.append(mat.shape)
        return real_from_scipy(cls, mat)

    monkeypatch.setattr(SparseMatrix, "from_scipy", classmethod(from_scipy))
    rng = np.random.default_rng(59)
    A = SparseMatrix.from_dense(rng.random(shape) + 0.05)
    top_singular(A, 1e-7)
    k = min(shape)
    assert seen == [(k, {"symmetric": True})] and formed == [(k, k)]
    assert counts["is_irreducible"] == 0


def test_gram_irreducibility_matches_the_formed_gram_matrices():
    """The pattern test on ``A`` gives the verdict ``is_irreducible`` gives on
    each explicitly formed Gram matrix, zero rows and columns, disconnected
    blocks and single rows or columns included."""
    rng = np.random.default_rng(61)
    seen = set()
    for _ in range(600):
        m, n = (int(v) for v in rng.integers(1, 6, 2))
        A_dense = (rng.random((m, n)) < rng.uniform(0.05, 0.6)) * rng.random((m, n))
        A = SparseMatrix.from_dense(A_dense)
        expected = tuple(
            is_irreducible(SparseMatrix.from_scipy(gram))
            for gram in (A.csr_transpose() @ A.csr(), A.csr() @ A.csr_transpose())
        )
        assert perronkit.apps._gram_irreducibility(A) == expected, A_dense
        seen.add(expected)
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_non_finite_refinement_stops_at_once(monkeypatch):
    """A refinement whose preconditioner returns NaN stops after one
    iteration with its own status, and ``solve_m`` raises."""
    rng = np.random.default_rng(60)
    A = SparseMatrix.from_dense(random_m_matrix_dense(rng, 20, 0.8))
    op = solve_m(A, 1.0, 1e-6, 1e3)
    solves = []

    def solve(self, b, transpose, tol):
        solves.append(transpose)
        return np.full_like(b, np.nan)

    monkeypatch.setattr(_DirectSolver, "solve", solve)
    with pytest.raises(IterationCapHit, match=rf"stopped \({NON_FINITE}\) after 1 of at most"):
        op.apply(rng.normal(size=20))
    assert solves == [False]


def test_a_final_pair_that_fails_its_check_is_a_witness(monkeypatch):
    """With the bracket off and every RCDD check rejecting, the scan runs all
    its phases and fails at the final check, named with the phase count and
    the last shift: the decision's witness, ``mmatrix_scale``'s error as a
    scaling phase and ``symm_scale``'s as a symmetric phase."""
    bracket_off(monkeypatch)
    monkeypatch.setattr(perronkit.scaling, "check_rcdd", lambda S, slack: False)
    rng = np.random.default_rng(61)
    A = SparseMatrix.from_dense(random_m_matrix_dense(rng, 12, 0.5))
    eps = 0.05
    phases = expected_phase_count(A, 1.0, eps)
    norms = induced_norms(A)
    alpha = 2.0 * max(norms.norm_1, norms.norm_inf) / 2.0**phases
    out = m_decide(A, eps, 10.0)
    assert out.verdict is Verdict.NOT_M_MATRIX and out.certificate is None
    assert out.witness == (
        f"final scaling failed RCDD verification at phase {phases} (alpha={alpha:.6e})"
    )
    with pytest.raises(IterationCapHit, match=r"^scaling phase \d+ .* failed: final verification;") as hit:
        mmatrix_scale(A, 1.0, eps, 10.0)
    assert (hit.value.phase, hit.value.alpha) == (phases, alpha)

    A = SparseMatrix.from_dense(random_symmetric_contraction_dense(rng, 12, 0.5))
    phases = expected_phase_count(A, 1.0, eps)
    with pytest.raises(IterationCapHit, match=r"^symmetric phase \d+ .* failed: final verification;") as hit:
        symm_scale(A, eps)
    assert hit.value.phase == phases


def load_tracer():
    """The benchmark's tracer module, loaded from its file."""
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_counts_a_scan(monkeypatch):
    """The benchmark's tracer finds the scan's seams and counts one scan with
    the bracket off: a phase per phase solver, an inner iteration per
    forward preconditioner solve, and two products per iteration, each on
    the ``nnz`` entries of ``A``'s CSR."""
    bracket_off(monkeypatch)
    n = 12
    A = SparseMatrix.from_dense(random_m_matrix_dense(np.random.default_rng(62), n, 0.5))
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        _, report = perronkit.scaling.mmatrix_scale(A, 1.0, 0.05, 10.0)
        values = tracer.end_op()
    finally:
        tracer.uninstall()
    assert values["scaling.scans"] == 1
    assert values["scaling.phases"] == len(report.phases) > 0
    assert values["scaling.inner_iters"] == report.iterations
    assert values["scaling.matvec_flops_computed"] == 4 * A.nnz * report.iterations
    assert not {"scaling._halving_scan", "scaling._PhaseSolver"} & set(tracer.absent)
