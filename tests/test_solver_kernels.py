"""The scan's solver kernels against the library calls they stand in for.

The phase solves call LAPACK ``getrs`` directly, the CSR phase matrices are
rescaled on a fixed pattern and the CSR ``|S|`` line sums skip scipy; all must
give the same bits as the reference construction.  The factorizations, the
shift-and-invert ones of ``compute_perron`` included, must stay behind
``scipy.linalg.lu_factor`` and ``scipy.sparse.linalg.splu``, where a profiler
can count them.  The symmetric path factors each halving level once, and only
its SDD factorizations use the symmetric ordering.

Every matrix the engine forms itself is factored through the phase solver:
``solve_m`` factors the matrix its scaling was checked on and builds no RCDD
solver, and the symmetric levels build no SDD solver.  The symmetric phases
share the scan's phase loop and with it its guard, so a non-finite solve or
a damped level that is not positive and finite raises instead of returning.
"""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

import perronkit.perron
import perronkit.rcdd
import perronkit.scaling
from perronkit import (
    IterationCapHit,
    SparseMatrix,
    build_rcdd_solver,
    build_sdd_solver,
    compute_perron,
    factor_width2_solve,
    mmatrix_scale,
    solve_m,
    symm_scale,
    symm_solve,
)
from perronkit.rcdd import _DENSE_CUTOFF, _abs_sums, _DirectSolver, varah_kappa_upper
from perronkit.scaling import _normalized_comparison, _Problem

from conftest import (
    random_factor_width2_dense,
    random_irreducible,
    random_irreducible_dense,
    random_m_matrix,
    random_m_matrix_dense,
    random_sdd_dense,
    random_strictly_rcdd_dense,
    random_symmetric_contraction_dense,
)


def sparse_m_matrix(rng, diagonal=True):
    """An n=200 instance above the dense cutoff, with a few stored diagonal
    entries or none."""
    A = random_m_matrix(rng, 200, 0.8, density=0.02).csr()
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
    assert np.array_equal(_DirectSolver(S).solve(b, transpose), expected)


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
    # perfbench counts the entries a product touches through this attribute
    assert prob.dense is None and prob.csr.nnz == A.nnz
    got = prob.scaled_shift(alpha, ell, r)
    shifted = sp.identity(n, format="csr") * (1.0 + alpha) - A.csr() / scale
    expected = (sp.diags(ell) @ shifted @ sp.diags(r)).tocsr()
    assert np.array_equal(got.indptr, expected.indptr)
    assert np.array_equal(got.indices, expected.indices)
    assert np.array_equal(got.data, expected.data)


def test_singular_phase_matrix_fails_the_scan(monkeypatch):
    """An exactly singular phase matrix warns at the factorization and solves
    to non-finite values without raising; the scan's finiteness check then
    stops it."""
    singular = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    monkeypatch.setattr(_Problem, "scaled_shift", lambda self, alpha, ell, r: singular.copy())
    finite = []
    real_solve = _DirectSolver.solve

    def solve(self, b, transpose=False):
        x = real_solve(self, b, transpose)
        finite.append(bool(np.all(np.isfinite(x))))
        return x

    monkeypatch.setattr(_DirectSolver, "solve", solve)
    A = SparseMatrix.from_dense(np.full((3, 3), 0.1))
    with pytest.warns(scipy.linalg.LinAlgWarning):
        with pytest.raises(IterationCapHit, match="iteration cap"):
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
    counts = {}
    count_calls(monkeypatch, counts, scipy.linalg, "lu_factor")
    count_calls(monkeypatch, counts, scipy.sparse.linalg, "splu")
    return counts


def test_one_factorization_per_phase_through_scipy(monkeypatch):
    counts = count_factorizations(monkeypatch)
    rng = np.random.default_rng(11)

    _, report = mmatrix_scale(random_m_matrix(rng, 20, 0.8), 1.0, 1e-3, 100.0)
    assert report.phases and counts == {"lu_factor": len(report.phases), "splu": 0}

    counts.update(lu_factor=0)
    _, report = mmatrix_scale(sparse_m_matrix(rng), 1.0, 1e-3, 100.0)
    assert report.phases and counts == {"lu_factor": 0, "splu": len(report.phases)}


def test_csr_abs_sums_match_scipy():
    rng = np.random.default_rng(13)
    prob = _Problem(sparse_m_matrix(rng), 1.3)
    phase = prob.scaled_shift(0.25, rng.uniform(0.5, 2.0, prob.n), rng.uniform(0.5, 2.0, prob.n))
    # empty rows at the start, in the middle and at the end, and a duplicate
    # entry whose parts cancel in part
    holes = sp.csr_matrix(
        ([-1.5, 2.0, 0.25, 1e-3, -7.0], [0, 4, 0, 2, 3], [0, 0, 3, 3, 5, 5, 5]), shape=(6, 5)
    )
    assert not holes.has_canonical_format
    # rows of 40, 0 and 32 entries: numpy's pairwise sum blocks by eight, so
    # one more (even zero) term in the last row changes its bits
    wide = np.random.default_rng(0)
    long_rows = sp.csr_matrix(
        (
            wide.normal(size=72) * 10.0 ** wide.uniform(-5, 5, 72),
            np.r_[np.arange(40), np.arange(32)],
            [0, 40, 40, 72],
        ),
        shape=(3, 40),
    )
    for S in (phase, holes, long_rows, sp.csr_matrix((4, 4))):
        row_abs, col_abs = _abs_sums(S)
        assert np.array_equal(row_abs, np.asarray(abs(S).sum(axis=1)).ravel())
        assert np.array_equal(col_abs, np.asarray(abs(S).sum(axis=0)).ravel())
    dense = phase.toarray()
    assert varah_kappa_upper(phase) == varah_kappa_upper(dense)


def criterion_01_instance(seed):
    rng = np.random.default_rng(seed)
    return SparseMatrix.from_dense(
        random_irreducible_dense(rng, int(rng.integers(5, 41)), density=0.2)
    )


def perron_sparse_instance():
    """A Hamiltonian cycle plus random edges, above the dense cutoff."""
    A = random_irreducible(np.random.default_rng(17), 150, density=0.03)
    assert A.n_rows > _DENSE_CUTOFF
    return A


@pytest.mark.parametrize("storage", ["dense", "csr"])
def test_compute_perron_factorizations(monkeypatch, storage):
    """One strict scan, no bisection and no decision: the shift-and-invert
    bracket, the scaling scan and the polish account for every factorization,
    and each goes through the scipy call a profiler patches."""
    counts = count_factorizations(monkeypatch)
    count_calls(monkeypatch, counts, perronkit.perron, "find_perron_value")
    count_calls(monkeypatch, counts, perronkit.perron, "_m_decide_scaled")
    scans = []
    real_scan = perronkit.scaling._halving_scan

    def scan(*args, **kwargs):
        result = real_scan(*args, **kwargs)
        scans.append(len(result[3].phases))
        return result

    monkeypatch.setattr(perronkit.scaling, "_halving_scan", scan)
    brackets = []

    class Bracket(perronkit.perron._CWBracket):
        def __init__(self, A):
            super().__init__(A)
            brackets.append(self)

    monkeypatch.setattr(perronkit.perron, "_CWBracket", Bracket)
    factor = "lu_factor" if storage == "dense" else "splu"
    instances = (
        [criterion_01_instance(seed) for seed in range(20)]
        if storage == "dense" else [perron_sparse_instance()]
    )
    for A in instances:
        for name in counts:
            counts[name] = 0
        scans.clear()
        brackets.clear()
        cert = compute_perron(A, 1e-3)
        assert cert.k_final == 1.0
        assert counts["find_perron_value"] == 0 and counts["_m_decide_scaled"] == 0
        assert len(scans) == 1 and len(brackets) == 1
        steps = brackets[0].factorizations
        assert steps >= 1
        # the bracket's steps, one per scan phase, one for the polish
        assert counts[factor] == steps + scans[0] + 1
        assert counts["lu_factor" if storage == "csr" else "splu"] == 0


SYMMETRIC_SIZES = pytest.mark.parametrize("n", [20, 250], ids=["dense", "csr"])


def factor_name(n):
    return "lu_factor" if n <= _DENSE_CUTOFF else "splu"


@SYMMETRIC_SIZES
def test_symm_solve_factors_each_level_once(monkeypatch, n):
    """One SDD factorization per level serves the level's refinement and the
    step to the next level."""
    counts = count_factorizations(monkeypatch)
    rng = np.random.default_rng(48)
    A = random_symmetric_contraction_dense(rng, n, 0.99, density=min(0.3, 5.0 / n))
    _, report = symm_solve(SparseMatrix.from_dense(A), rng.normal(size=n), 1e-9)
    levels = report.info["levels"]
    assert levels > 1
    assert counts == {"lu_factor": 0, "splu": 0, factor_name(n): levels}


@SYMMETRIC_SIZES
def test_factor_width2_continues_the_shift_search(monkeypatch, n):
    """The search over shifts 1/2, 1/8, ... descends the levels once: one
    factorization per phase down to the accepted shift, one for the final
    solver, and the same scaling as a fresh descent to that shift."""
    counts = count_factorizations(monkeypatch)
    rng = np.random.default_rng(49)
    M = SparseMatrix.from_dense(random_factor_width2_dense(rng, n))
    _, report = factor_width2_solve(M, rng.normal(size=n), 1e-8)
    shift = report.info["shift"]
    assert shift < 0.5
    phases = round(math.log2(1.0 / shift))
    assert counts == {"lu_factor": 0, "splu": 0, factor_name(n): phases + 1}
    fresh, _ = symm_scale(_normalized_comparison(M), shift)
    assert np.array_equal(report.info["scaling"], fresh)


def test_only_sdd_factorizations_order_symmetrically(monkeypatch):
    """SuperLU gets the symmetric minimum-degree ordering for SDD matrices
    only; the scan and ``build_rcdd_solver`` keep its default COLAMD."""
    orderings = []
    real_splu = scipy.sparse.linalg.splu

    def splu(A, *args, **kwargs):
        orderings.append((kwargs.get("permc_spec"), kwargs.get("options")))
        return real_splu(A, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", splu)
    symmetric = ("MMD_AT_PLUS_A", {"SymmetricMode": True})
    rng = np.random.default_rng(50)
    n = 200
    assert n > _DENSE_CUTOFF

    build_sdd_solver(SparseMatrix.from_dense(random_sdd_dense(rng, n)), 0.25)
    assert orderings == [symmetric]

    orderings.clear()
    M = SparseMatrix.from_dense(random_factor_width2_dense(rng, n))
    _, report = factor_width2_solve(M, rng.normal(size=n), 1e-8)
    assert orderings == [symmetric] * (round(math.log2(1.0 / report.info["shift"])) + 1)

    orderings.clear()
    _, report = mmatrix_scale(sparse_m_matrix(rng), 1.0, 1e-3, 100.0)
    assert orderings == [(None, None)] * len(report.phases)

    orderings.clear()
    build_rcdd_solver(SparseMatrix.from_dense(random_strictly_rcdd_dense(rng, n)), 1e-8)
    assert orderings == [(None, None)]


@SYMMETRIC_SIZES
def test_non_finite_level_solve_fails_the_symmetric_path(monkeypatch, n):
    """A level solve that returns non-finite values trips the phase loop's
    finiteness guard: every symmetric entry point raises instead of returning
    a non-finite ``v`` or ``x``."""
    monkeypatch.setattr(
        _DirectSolver, "solve", lambda self, b, transpose=False: np.full_like(b, np.nan)
    )
    rng = np.random.default_rng(51)
    A = SparseMatrix.from_dense(
        random_symmetric_contraction_dense(rng, n, 0.9, density=min(0.3, 5.0 / n))
    )
    M = SparseMatrix.from_dense(random_factor_width2_dense(rng, n))
    b = rng.normal(size=n)
    calls = [
        lambda: symm_scale(SparseMatrix.from_dense([[0.0, 0.5], [0.5, 0.0]]), 0.6),
        lambda: symm_scale(A, 1e-3),
        lambda: symm_solve(A, b, 1e-6),
        lambda: factor_width2_solve(M, b, 1e-6),
    ]
    for call in calls:
        with pytest.raises(IterationCapHit, match="iteration cap"):
            call()


def test_damped_level_must_be_positive_and_finite(monkeypatch):
    """A damped ``alpha = 1`` iterate that is non-finite or has a nonpositive
    entry raises before it is factored or returned."""
    counts = count_factorizations(monkeypatch)
    # entries near 1e300 overflow the damped iteration to inf, then NaN;
    # eps > 1 asks for no halving, so the damped level itself is the answer
    huge = SparseMatrix.from_dense([[0.0, 1e300], [1e300, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IterationCapHit, match="positive finite"):
            symm_scale(huge, 2.0)

    real_matvec = _Problem.shifted_matvec

    def matvec(self, alpha, x):
        if alpha != 1.0:
            return real_matvec(self, alpha, x)
        # the first step leaves v = 1/4; a residual of 4 in entry 0 pushes
        # v[0] to -3/4, where a zero residual ends the loop
        y = np.ones_like(x)
        y[0] = 1.0 if x[0] <= 0.0 else 5.0
        return y

    monkeypatch.setattr(_Problem, "shifted_matvec", matvec)
    rng = np.random.default_rng(54)
    A = SparseMatrix.from_dense(random_symmetric_contraction_dense(rng, 20, 0.9))
    M = SparseMatrix.from_dense(random_factor_width2_dense(rng, 20))
    b = rng.normal(size=20)
    calls = [
        lambda: symm_scale(A, 2.0),
        lambda: symm_scale(A, 1e-3),
        lambda: symm_solve(A, b, 1e-6),
        lambda: factor_width2_solve(M, b, 1e-6),
    ]
    for call in calls:
        with pytest.raises(IterationCapHit, match="positive finite"):
            call()
    assert counts == {"lu_factor": 0, "splu": 0}


@pytest.mark.parametrize("n", [20, 200], ids=["dense", "csr"])
def test_solve_m_factors_its_checked_scaling_once(monkeypatch, n):
    """``solve_m`` checks RCDD once, on the scan's result, and factors that
    same matrix once more than the scan's phases; it builds no RCDD solver."""
    counts = count_factorizations(monkeypatch)
    count_calls(monkeypatch, counts, perronkit.scaling, "check_rcdd")
    count_calls(monkeypatch, counts, perronkit.rcdd, "check_rcdd")
    count_calls(monkeypatch, counts, perronkit.scaling, "build_rcdd_solver")
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
        "lu_factor": 0,
        "splu": 0,
        factor_name(n): phases + 1,
        "check_rcdd": 1,
        "build_rcdd_solver": 0,
        "solve_from_scale": 0,
    }


@SYMMETRIC_SIZES
def test_only_factor_width2_builds_an_sdd_solver(monkeypatch, n):
    """The symmetric levels factor through the phase solver; the one SDD
    solver build is ``factor_width2_solve``'s, on the caller's matrix."""
    counts = {}
    count_calls(monkeypatch, counts, perronkit.scaling, "build_sdd_solver")
    rng = np.random.default_rng(56)
    A = SparseMatrix.from_dense(
        random_symmetric_contraction_dense(rng, n, 0.99, density=min(0.3, 5.0 / n))
    )
    symm_scale(A, 1e-3)
    symm_solve(A, rng.normal(size=n), 1e-9)
    assert counts == {"build_sdd_solver": 0}
    M = SparseMatrix.from_dense(random_factor_width2_dense(rng, n))
    factor_width2_solve(M, rng.normal(size=n), 1e-8)
    assert counts == {"build_sdd_solver": 1}
