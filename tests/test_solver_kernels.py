"""The scan's solver kernels against the library calls they stand in for.

The phase solves call LAPACK ``getrs`` directly and the CSR phase matrices are
rescaled on a fixed pattern; both must give the same bits as the reference
construction.  The factorizations must stay behind ``scipy.linalg.lu_factor``
and ``scipy.sparse.linalg.splu``, where a profiler can count them.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from perronkit import IterationCapHit, SparseMatrix, mmatrix_scale
from perronkit.rcdd import _DENSE_CUTOFF, _DirectSolver
from perronkit.scaling import _Problem

from conftest import random_m_matrix, random_strictly_rcdd_dense


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


def test_one_factorization_per_phase_through_scipy(monkeypatch):
    counts = {"lu_factor": 0, "splu": 0}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(scipy.linalg, "lu_factor")
    counting(scipy.sparse.linalg, "splu")
    rng = np.random.default_rng(11)

    _, report = mmatrix_scale(random_m_matrix(rng, 20, 0.8), 1.0, 1e-3, 100.0)
    assert report.phases and counts == {"lu_factor": len(report.phases), "splu": 0}

    counts.update(lu_factor=0)
    _, report = mmatrix_scale(sparse_m_matrix(rng), 1.0, 1e-3, 100.0)
    assert report.phases and counts == {"lu_factor": 0, "splu": len(report.phases)}
