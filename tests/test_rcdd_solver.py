"""Dominant-solve operator contracts across the three backends."""

import numpy as np
import pytest

from perronkit import (
    BackendChoice,
    BackendDiverged,
    NotRCDD,
    NotSDD,
    SparseMatrix,
    build_rcdd_solver,
    build_sdd_solver,
    varah_kappa_upper,
)
from perronkit.oracle import dense_solve

from conftest import random_sdd_dense, random_strictly_rcdd_dense

BACKENDS = [
    BackendChoice("direct-lu"),
    BackendChoice("richardson-jacobi", max_iterations=20_000),
    BackendChoice("conjugate-gradient-symmetrized", max_iterations=20_000),
]


class TestRcddSolver:
    def test_identity_is_identity_map(self):
        Z = build_rcdd_solver(SparseMatrix.identity(4), 0.5)
        x = np.array([1.0, -2.0, 3.0, 0.5])
        assert np.allclose(Z.apply(x), x, atol=1e-14)
        assert Z.report.residuals[-1] <= 1e-14

    def test_two_cycle_shift(self):
        S = SparseMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]])
        Z = build_rcdd_solver(S, 0.5)
        assert np.allclose(Z.apply(np.ones(2)), np.ones(2), atol=1e-12)

    @pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.kind)
    def test_contract_against_dense_lu(self, backend):
        rng = np.random.default_rng(21)
        M = random_strictly_rcdd_dense(rng, 20)
        S = SparseMatrix.from_dense(M)
        eps = 1e-6
        Z = build_rcdd_solver(S, eps, backend)
        Zt = Z.transpose(eps)
        for _ in range(50):
            x = rng.normal(size=20)
            z = Z.apply(x)
            assert np.linalg.norm(x - M @ z) <= eps * np.linalg.norm(x)
            exact = dense_solve(M, x)
            assert np.linalg.norm(z - exact) <= 1e-3 * np.linalg.norm(exact)
            assert np.linalg.norm(x - M.T @ Zt.apply(x)) <= eps * np.linalg.norm(x)
        assert all(r <= eps for r in Z.report.residuals + Zt.report.residuals)

    def test_not_rcdd_rejected(self):
        S = SparseMatrix.from_dense([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotRCDD):
            build_rcdd_solver(S, 0.5)

    def test_direct_contract_subsumption(self):
        # on kappa <= 1e6 instances the direct residual stays below 1e-10
        rng = np.random.default_rng(22)
        for trial in range(10):
            M = random_strictly_rcdd_dense(rng, 25, margin=0.05 + 0.2 * trial)
            assert varah_kappa_upper(SparseMatrix.from_dense(M)) <= 1e6
            Z = build_rcdd_solver(SparseMatrix.from_dense(M), 1e-9)
            for _ in range(5):
                x = rng.normal(size=25)
                Z.apply(x)
            assert max(Z.report.residuals) <= 1e-10

    def test_backend_diverged_is_a_signal(self):
        rng = np.random.default_rng(23)
        M = random_strictly_rcdd_dense(rng, 15, margin=0.01)
        Z = build_rcdd_solver(
            SparseMatrix.from_dense(M),
            1e-10,
            BackendChoice("richardson-jacobi", max_iterations=2),
        )
        with pytest.raises(BackendDiverged):
            Z.apply(rng.normal(size=15))

    def test_monotone_cost_in_log_inv_eps(self):
        rng = np.random.default_rng(24)
        M = random_strictly_rcdd_dense(rng, 20, margin=0.5)
        S = SparseMatrix.from_dense(M)
        x = rng.normal(size=20)
        counts = []
        for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            Z = build_rcdd_solver(S, eps, BackendChoice("richardson-jacobi"))
            Z.apply(x)
            counts.append(Z.report.info["iterations_per_call"][0])
        # iteration count grows at most linearly in log(1/eps): increments
        # between consecutive decades are bounded by the first decade's cost
        increments = np.diff(counts)
        assert all(increments > 0)
        assert increments.max() <= counts[0] + 1

    def test_deterministic_reproducibility(self):
        rng = np.random.default_rng(25)
        M = random_strictly_rcdd_dense(rng, 18)
        x = rng.normal(size=18)
        for backend in BACKENDS:
            za = build_rcdd_solver(SparseMatrix.from_dense(M), 1e-8, backend)
            zb = build_rcdd_solver(SparseMatrix.from_dense(M), 1e-8, backend)
            ya, yb = za.apply(x), zb.apply(x)
            assert np.array_equal(ya, yb)
            assert np.array_equal(ya, za.apply(x))


class TestSddSolver:
    def test_identity(self):
        Z = build_sdd_solver(SparseMatrix.identity(3), 0.5)
        x = np.array([1.0, 2.0, -1.0])
        assert np.allclose(Z.apply(x), x, atol=1e-13)

    def test_small_laplacian_shift(self):
        S = SparseMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]])
        Z = build_sdd_solver(S, 0.25)
        assert np.allclose(Z.apply(np.ones(2)), np.ones(2), atol=1e-12)

    @pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.kind)
    def test_energy_norm_contract(self, backend):
        rng = np.random.default_rng(26)
        M = random_sdd_dense(rng, 20)
        S = SparseMatrix.from_dense(M)
        eps = 1e-4
        Z = build_sdd_solver(S, eps, backend)
        for _ in range(20):
            x = rng.normal(size=20)
            z = Z.apply(x)
            exact = dense_solve(M, x)
            err = z - exact
            energy_err = np.sqrt(err @ (M @ err))
            energy_ref = np.sqrt(exact @ (M @ exact))
            assert energy_err <= eps * energy_ref

    def test_not_sdd_rejected(self):
        with pytest.raises(NotSDD):
            build_sdd_solver(SparseMatrix.from_dense([[3.0, 1.0], [-1.0, 3.0]]), 0.5)
        with pytest.raises(NotSDD):
            build_sdd_solver(SparseMatrix.from_dense([[1.0, 2.0], [2.0, 1.0]]), 0.5)


def test_varah_bound_dominates_true_condition_number():
    rng = np.random.default_rng(27)
    for _ in range(20):
        M = random_strictly_rcdd_dense(rng, 12, margin=rng.uniform(0.05, 1.0))
        bound = varah_kappa_upper(SparseMatrix.from_dense(M))
        assert bound >= np.linalg.cond(M, 2) * (1 - 1e-12)
