"""Scaling scan, preconditioned Richardson, and the M-matrix solvers,
checked against the dominance/conditioning facts their analysis rests on."""

import numpy as np
import pytest

from perronkit import (
    IterationCapHit,
    Verdict,
    RichardsonConfig,
    ScalingPair,
    SparseMatrix,
    apply_scaling,
    check_rcdd,
    check_sdd,
    compute_perron,
    expected_phase_count,
    m_decide,
    mmatrix_scale,
    prec_richardson,
    scaling_iteration_cap,
    shifted_m_matrix,
    solve_from_scale,
    solve_m,
    symm_scale,
    symm_solve,
    factor_width2_solve,
)
from perronkit.oracle import dense_solve, dense_spectral_radius

from perronkit.rcdd import _DENSE_CUTOFF

from conftest import (
    dense_inverse_norms,
    random_factor_width2_dense,
    random_m_matrix_dense,
    random_symmetric_contraction_dense,
)


def exact_scaling_pair(M_dense, alpha, s=1.0):
    """Oracle scalings l = M_a^-T 1, r = M_a^-1 1 computed densely."""
    n = M_dense.shape[0]
    Ma = M_dense + alpha * np.eye(n)
    r = dense_solve(Ma, np.ones(n))
    ell = dense_solve(Ma.T, np.ones(n))
    return ScalingPair(left=ell, right=r, alpha=alpha, s=s)


class TestPrecRichardson:
    def test_identity_converges_in_one_step(self):
        cfg = RichardsonConfig(tolerance=1e-12, max_iterations=10)
        x, rep = prec_richardson(
            SparseMatrix.identity(3), lambda v: v, np.array([1.0, 2.0, 3.0]), None, cfg
        )
        assert rep.iterations == 1
        assert np.allclose(x, [1.0, 2.0, 3.0])

    def test_scaled_identity(self):
        M = SparseMatrix.from_dense(2.0 * np.eye(2))
        cfg = RichardsonConfig(tolerance=1e-12, max_iterations=10)
        x, rep = prec_richardson(M, lambda v: 0.5 * v, np.array([4.0, 4.0]), None, cfg)
        assert rep.iterations == 1
        assert np.allclose(x, [2.0, 2.0])

    def test_cap_hit_is_status_not_error(self):
        M = SparseMatrix.from_dense(2.0 * np.eye(2))
        cfg = RichardsonConfig(tolerance=1e-12, max_iterations=3)
        x, rep = prec_richardson(M, lambda v: 1e-3 * v, np.ones(2), None, cfg)
        assert rep.status == "iteration_cap"

    def test_contraction_rate_from_adjacent_shift(self):
        # preconditioner built at shift 2a drives the residual down by at
        # least 3/4 per step on average (measured in l2 with the conditioning
        # slack of the unknown norm change)
        rng = np.random.default_rng(31)
        for trial in range(5):
            n = 15
            A = random_m_matrix_dense(rng, n, rho_ratio=0.8)
            M = np.eye(n) - A
            alpha = 0.1 * (trial + 1)
            pair = exact_scaling_pair(M, 2.0 * alpha)
            ops = solve_from_scale(
                SparseMatrix.from_dense(M + 2.0 * alpha * np.eye(n)), pair, 1e-11
            )
            Ma = SparseMatrix.from_dense(M + alpha * np.eye(n))
            cfg = RichardsonConfig(tolerance=1e-10, max_iterations=200)
            x, rep = prec_richardson(Ma, ops.p_right, np.ones(n), None, cfg)
            assert rep.converged
            k = rep.iterations
            geo_mean = (rep.residuals[-1] / rep.residuals[0]) ** (1.0 / k)
            r0 = dense_solve(M, np.ones(n))
            l0 = dense_solve(M.T, np.ones(n))
            kappa_d = (l0 / r0).max() / (l0 / r0).min()
            assert geo_mean <= 0.75 * kappa_d ** (1.0 / k) + 1e-9


class TestSolveFromScale:
    def test_identity(self):
        M = SparseMatrix.identity(3)
        pair = ScalingPair(np.ones(3), np.ones(3), alpha=0.0, s=1.0)
        ops = solve_from_scale(M, pair, 0.1)
        x = np.array([1.0, -1.0, 2.0])
        assert np.allclose(ops.p_right.apply(x), x, atol=1e-10)
        assert np.allclose(ops.p_left.apply(x), x, atol=1e-10)

    def test_two_cycle(self):
        M = SparseMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]])
        pair = ScalingPair(np.ones(2), np.ones(2), alpha=0.0, s=1.0)
        ops = solve_from_scale(M, pair, 0.05)
        b = np.array([1.0, 0.0])
        exact = dense_solve(M.to_dense(), b)
        assert np.linalg.norm(ops.p_right.apply(b) - exact) <= 0.05 * np.linalg.norm(
            exact
        )

    def test_contract_with_oracle_scalings(self):
        self._check_contract_with_oracle_scalings(20)

    def test_contract_with_oracle_scalings_sparse_path(self):
        # n=400 is above the dense cutoff: p_left then runs the Krylov solver's
        # transpose solve
        self._check_contract_with_oracle_scalings(400)

    @staticmethod
    def _check_contract_with_oracle_scalings(n):
        rng = np.random.default_rng(32)
        A = random_m_matrix_dense(rng, n, rho_ratio=0.85)
        M = np.eye(n) - A
        pair = exact_scaling_pair(M, 0.0)
        delta = 1e-8
        ops = solve_from_scale(SparseMatrix.from_dense(M), pair, delta)
        Mt = M.T
        for _ in range(50):
            b = rng.normal(size=n)
            nb = np.linalg.norm(b)
            assert np.linalg.norm(b - M @ ops.p_right.apply(b)) <= delta * nb
            assert np.linalg.norm(b - Mt @ ops.p_left.apply(b)) <= delta * nb


class TestMMatrixScale:
    def test_zero_matrix(self):
        A = SparseMatrix.zeros(3)
        pair, report = mmatrix_scale(A, 1.0, 0.5, 2.0)
        assert np.all(pair.left > 0) and np.all(pair.right > 0)
        S = apply_scaling(pair.left, shifted_m_matrix(A, 1.0, 0.5), pair.right)
        assert check_rcdd(S, 0.0)
        assert report.phases == []

    def test_initial_alpha_is_twice_the_larger_norm(self):
        A = SparseMatrix.from_dense([[0.0, 0.5], [0.5, 0.0]])
        _, report = mmatrix_scale(A, 1.0, 0.1, 20.0)
        assert report.alpha0 == 1.0

    def test_two_cycle_window_and_rcdd(self):
        A = SparseMatrix.from_dense([[0.0, 0.5], [0.5, 0.0]])
        pair, report = mmatrix_scale(A, 1.0, 0.1, 20.0)
        S = apply_scaling(pair.left, shifted_m_matrix(A, 1.0, 0.1), pair.right)
        assert check_rcdd(S, 1e-12)
        for phase in report.phases:
            lo, hi = phase.window_right
            assert 0.5 - 1e-9 <= lo and hi <= 1.5 + 1e-9
            lo, hi = phase.window_left
            assert 0.5 - 1e-9 <= lo and hi <= 1.5 + 1e-9

    def test_one_by_one_closed_form(self):
        """The general scan on ``[[a]]`` lands in the phase window around the
        closed form ``1 / ((1 + alpha) - a)``."""
        A = SparseMatrix.from_dense([[0.5]])
        pair, report = mmatrix_scale(A, 1.0, 0.25, 4.0)
        assert 0.5 <= pair.right[0] * ((1.0 + pair.alpha) - 0.5) <= 1.5
        S = apply_scaling(pair.left, shifted_m_matrix(A, 1.0, 0.25), pair.right)
        assert check_rcdd(S, 1e-15)

    def test_phase_count_formula_matches(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            n = int(rng.integers(3, 25))
            A_dense = random_m_matrix_dense(rng, n, rho_ratio=rng.uniform(0.3, 0.95))
            A = SparseMatrix.from_dense(A_dense)
            eps = float(rng.uniform(0.02, 0.5))
            K = 1.01 * max(dense_inverse_norms(np.eye(n) - A_dense))
            _, report = mmatrix_scale(A, 1.0, eps, K)
            assert len(report.phases) == expected_phase_count(A, 1.0, eps)

    def test_entry_floor_at_phase_exit(self):
        rng = np.random.default_rng(34)
        A_dense = random_m_matrix_dense(rng, 12, rho_ratio=0.9)
        A = SparseMatrix.from_dense(A_dense)
        K = 1.01 * max(dense_inverse_norms(np.eye(12) - A_dense))
        _, report = mmatrix_scale(A, 1.0, 0.05, K)
        for phase in report.phases:
            floor = 1.0 / (2.0 * (1.0 + phase.alpha)) - 1e-9
            assert phase.min_right >= floor
            assert phase.min_left >= floor

    def test_conditioning_ceiling_each_phase(self):
        rng = np.random.default_rng(35)
        for _ in range(5):
            n = int(rng.integers(5, 21))
            A_dense = random_m_matrix_dense(rng, n, rho_ratio=rng.uniform(0.4, 0.9))
            M = np.eye(n) - A_dense
            ninf, n1 = dense_inverse_norms(M)
            K = 1.01 * max(ninf, n1)
            _, report = mmatrix_scale(SparseMatrix.from_dense(A_dense), 1.0, 0.1, K)
            for phase in report.phases:
                Ma = M + phase.alpha * np.eye(n)
                S = np.diag(phase.left) @ Ma @ np.diag(phase.right)
                assert np.linalg.cond(S, 2) <= 18.0 * ninf * n1 * (1.0 + 1e-6)

    def test_cap_hit_when_not_an_m_matrix(self):
        A = SparseMatrix.from_dense([[0.0, 2.0], [2.0, 0.0]])
        with pytest.raises(IterationCapHit):
            mmatrix_scale(A, 1.0, 0.05, 50.0)

    def test_iteration_caps_respected(self):
        rng = np.random.default_rng(36)
        A_dense = random_m_matrix_dense(rng, 15, rho_ratio=0.9)
        K = 1.01 * max(dense_inverse_norms(np.eye(15) - A_dense))
        eps = 0.1
        _, report = mmatrix_scale(SparseMatrix.from_dense(A_dense), 1.0, eps, K)
        cap = scaling_iteration_cap(15, K, eps)
        assert all(p.iterations <= cap for p in report.phases)


@pytest.mark.parametrize("a", [1e-3, 0.5, 0.9])
def test_one_by_one_meets_every_contract(a):
    """``[[a]]`` takes the general code path of every entry point, and each
    answer agrees with its closed form: ``1 - a`` inverts the M-matrix, the
    scaling sits in the phase window around ``1 / ((1 + alpha) - a)``,
    ``rho = a``, and ``[[1 + a]]`` is not below the unit shift."""
    A = SparseMatrix.from_dense([[a]])
    above = SparseMatrix.from_dense([[1.0 + a]])
    K = 2.0 / (1.0 - a)
    eps = a / 4.0
    b = np.array([3.0])

    pair, _ = mmatrix_scale(A, 1.0, eps, K)
    assert pair.alpha <= eps
    for vec in (pair.left, pair.right):
        assert 0.5 <= vec[0] * ((1.0 + pair.alpha) - a) <= 1.5
    assert check_rcdd(apply_scaling(pair.left, shifted_m_matrix(A, 1.0, eps), pair.right), 1e-15)

    outcome = m_decide(A, eps, K)
    assert outcome.verdict is Verdict.IS_M_MATRIX_SHIFTED
    S = apply_scaling(outcome.scaling.left, shifted_m_matrix(A, 1.0, eps), outcome.scaling.right)
    assert check_rcdd(S, 1e-15)
    outcome = m_decide(above, eps, K)
    assert outcome.verdict is Verdict.NOT_M_MATRIX and outcome.report is None
    assert "at phase" in outcome.witness

    x = solve_m(A, 1.0, 1e-6, K).apply(b)
    assert abs((1.0 - a) * x[0] - b[0]) <= 1e-6 * b[0]

    v, report = symm_scale(A, 0.1)
    assert v[0] > 0.0 and report.phases
    assert 0.5 <= v[0] * ((1.0 + report.phases[-1].alpha) - a) <= 1.5
    assert check_sdd(apply_scaling(v, shifted_m_matrix(A, 1.0, 0.1), v), 1e-15)

    x, _ = symm_solve(A, b, 1e-8)
    assert abs((1.0 - a) * x[0] - b[0]) <= 1e-8 * b[0]
    with pytest.raises(IterationCapHit):
        symm_solve(above, b, 1e-8)

    x, _ = factor_width2_solve(SparseMatrix.from_dense([[1.0 - a]]), b, 1e-8)
    assert abs((1.0 - a) * x[0] - b[0]) <= 1e-8 * b[0]

    cert = compute_perron(A, 1e-3)
    assert (1.0 - 1e-3) * a < cert.s <= a
    assert cert.cw_lower == cert.cw_upper == pytest.approx(a, rel=1e-15)


class TestScalingLemmas:
    """Dense verification of the facts behind the preconditioner analysis."""

    def test_shift_preconditioner_contraction(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            n = int(rng.integers(4, 16))
            A = random_m_matrix_dense(rng, n, rho_ratio=rng.uniform(0.3, 0.95))
            M = np.eye(n) - A
            r0 = dense_solve(M, np.ones(n))
            l0 = dense_solve(M.T, np.ones(n))
            d = l0 / r0
            D_half = np.diag(np.sqrt(d))
            D_half_inv = np.diag(1.0 / np.sqrt(d))
            for eps in (0.5, 0.05, 0.005):
                alpha, alpha_p = eps, 2.0 * eps
                Ma = M + alpha * np.eye(n)
                Map = M + alpha_p * np.eye(n)
                T = D_half @ (np.linalg.solve(Map, Ma) - np.eye(n)) @ D_half_inv
                bound = abs(alpha - alpha_p) / alpha_p
                assert np.linalg.norm(T, 2) <= bound + 1e-8

    def test_symmetrized_scaled_matrix_is_psd(self):
        rng = np.random.default_rng(38)
        for _ in range(8):
            n = int(rng.integers(3, 16))
            A = random_m_matrix_dense(rng, n, rho_ratio=rng.uniform(0.3, 0.95))
            M = np.eye(n) - A
            r0 = dense_solve(M, np.ones(n))
            l0 = dense_solve(M.T, np.ones(n))
            d_half = np.sqrt(l0 / r0)
            sym = (d_half[:, None] * M / d_half[None, :]) + (
                d_half[:, None] * M / d_half[None, :]
            ).T
            assert np.linalg.eigvalsh(sym).min() >= -1e-9

    def test_inverse_is_entrywise_nonnegative(self):
        rng = np.random.default_rng(39)
        for _ in range(8):
            n = int(rng.integers(3, 16))
            A = random_m_matrix_dense(rng, n, rho_ratio=rng.uniform(0.3, 0.95))
            assert np.linalg.inv(np.eye(n) - A).min() >= -1e-10

    def test_scaling_vector_conditioning_bounds(self):
        # kappa(R_a) <= 3 ||M^-1||_inf, kappa(L_a) <= 3 ||M^-1||_1, and the
        # diagonal similarity D = L_0 R_0^-1 has kappa(D) <= 9 times their
        # product; all feed the solver budget
        rng = np.random.default_rng(44)
        for _ in range(5):
            n = int(rng.integers(4, 18))
            A_dense = random_m_matrix_dense(rng, n, rho_ratio=rng.uniform(0.4, 0.9))
            M = np.eye(n) - A_dense
            ninf, n1 = dense_inverse_norms(M)
            K = 1.01 * max(ninf, n1)
            _, report = mmatrix_scale(SparseMatrix.from_dense(A_dense), 1.0, 0.05, K)
            for phase in report.phases:
                kappa_r = phase.right.max() / phase.right.min()
                kappa_l = phase.left.max() / phase.left.min()
                assert kappa_r <= 3.0 * ninf * (1.0 + 1e-9)
                assert kappa_l <= 3.0 * n1 * (1.0 + 1e-9)
            r0 = dense_solve(M, np.ones(n))
            l0 = dense_solve(M.T, np.ones(n))
            d = l0 / r0
            assert d.max() / d.min() <= 9.0 * ninf * n1 * (1.0 + 1e-9)


class TestSolveM:
    def test_zero_matrix_gives_identity(self):
        A = SparseMatrix.zeros(3)
        op = solve_m(A, 1.0, 1e-10, 2.0)
        b = np.array([1.0, 2.0, 3.0])
        assert np.allclose(op.apply(b), b, atol=1e-9)

    def test_half_two_cycle(self):
        A = SparseMatrix.from_dense([[0.0, 0.5], [0.5, 0.0]])
        op = solve_m(A, 1.0, 1e-10, 20.0)
        x = op.apply(np.ones(2))
        assert np.allclose(x, [2.0, 2.0], atol=1e-8)

    def test_random_contract_against_dense(self):
        rng = np.random.default_rng(40)
        n = 25
        A_dense = random_m_matrix_dense(rng, n, rho_ratio=0.9)
        rho, _ = dense_spectral_radius(A_dense)
        s = rho / 0.9
        M = s * np.eye(n) - A_dense
        ninf, n1 = dense_inverse_norms(M)
        K = 1.05 * s * max(ninf, n1)
        for eps in (1e-4, 1e-8):
            op = solve_m(SparseMatrix.from_dense(A_dense), s, eps, K)
            for _ in range(20):
                b = rng.random(n)
                x = op.apply(b)
                nb = np.linalg.norm(b)
                assert np.linalg.norm(M @ x - b) <= eps * nb
                exact = dense_solve(M, b)
                assert np.linalg.norm(x - exact) <= 10.0 * eps * np.linalg.norm(exact)


class TestSymmetricPath:
    def test_zero_matrix(self):
        A = SparseMatrix.zeros(3)
        v, _ = symm_scale(A, 0.5)
        S = apply_scaling(v, shifted_m_matrix(A, 1.0, 0.5), v)
        assert check_sdd(S, 0.0)

    def test_half_two_cycle_scaling(self):
        A = SparseMatrix.from_dense([[0.0, 0.5], [0.5, 0.0]])
        v, _ = symm_scale(A, 0.1)
        S = apply_scaling(v, shifted_m_matrix(A, 1.0, 0.1), v)
        assert check_sdd(S, 1e-12)

    def test_initial_phase_contracts_by_three_quarters(self):
        rng = np.random.default_rng(41)
        A = random_symmetric_contraction_dense(rng, 20, rho_ratio=0.9)
        _, report = symm_scale(SparseMatrix.from_dense(A), 0.1)
        residuals = report.info["initial_residuals"]
        for before, after in zip(residuals, residuals[1:]):
            assert after <= 0.75 * before + 1e-15

    def test_symm_solve_trivial(self):
        A = SparseMatrix.zeros(2)
        x, _ = symm_solve(A, np.array([3.0, 4.0]), 1e-10)
        assert np.allclose(x, [3.0, 4.0], atol=1e-12)

    def test_symm_solve_half_two_cycle(self):
        A = SparseMatrix.from_dense([[0.0, 0.5], [0.5, 0.0]])
        x, _ = symm_solve(A, np.ones(2), 1e-10)
        assert np.allclose(x, [2.0, 2.0], atol=1e-8)

    def test_symm_solve_random(self):
        rng = np.random.default_rng(42)
        n = 20
        A = random_symmetric_contraction_dense(rng, n, rho_ratio=0.95)
        b = rng.normal(size=n)
        x, _ = symm_solve(SparseMatrix.from_dense(A), b, 1e-9)
        resid = np.linalg.norm((np.eye(n) - A) @ x - b)
        assert resid <= 1e-9 * np.linalg.norm(b)

    @staticmethod
    def _csr_contraction(rng, rho_ratio):
        n = 400
        assert n > _DENSE_CUTOFF
        return random_symmetric_contraction_dense(rng, n, rho_ratio, density=0.02)

    @pytest.mark.parametrize("eps", [0.5, 0.05, 1e-3])
    def test_symm_scale_csr_path(self, eps):
        A = SparseMatrix.from_dense(self._csr_contraction(np.random.default_rng(45), 0.95))
        v, report = symm_scale(A, eps)
        assert len(report.phases) == int(np.ceil(np.log2(1.0 / eps)))
        S = apply_scaling(v, shifted_m_matrix(A, 1.0, eps), v)
        assert check_sdd(S, 1e-12)

    def test_symm_solve_csr_path(self):
        rng = np.random.default_rng(46)
        A = self._csr_contraction(rng, 0.99)
        b = rng.normal(size=A.shape[0])
        delta = 1e-9
        x, report = symm_solve(SparseMatrix.from_dense(A), b, delta)
        assert report.info["levels"] > 1
        resid = np.linalg.norm(x - A @ x - b)
        assert resid <= delta * np.linalg.norm(b)


class TestFactorWidth2:
    def test_psd_plus_matrix(self):
        # [[2,1],[1,2]] = C^T C for rows (1,1), (1,0), (0,1); row sums are 3
        M = SparseMatrix.from_dense([[2.0, 1.0], [1.0, 2.0]])
        x, _ = factor_width2_solve(M, np.array([3.0, 3.0]), 1e-10)
        assert np.allclose(x, [1.0, 1.0], atol=1e-8)

    def test_already_m_matrix(self):
        M = SparseMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]])
        x, _ = factor_width2_solve(M, np.ones(2), 1e-10)
        assert np.allclose(x, [1.0, 1.0], atol=1e-8)

    def test_random_two_sparse_factors(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            n = int(rng.integers(5, 21))
            M = random_factor_width2_dense(rng, n)
            b = rng.normal(size=n)
            Msp = SparseMatrix.from_dense(M)
            x, report = factor_width2_solve(Msp, b, 1e-8)
            assert np.linalg.norm(M @ x - b) <= 1e-8 * np.linalg.norm(b)
            v = report.info["scaling"]
            assert check_sdd(apply_scaling(v, Msp, v), 1e-12)

    def test_csr_path(self):
        """Above the dense cutoff: the shift search continues down several
        levels and every SDD level is solved by matvec-only CG."""
        rng = np.random.default_rng(44)
        n = 400
        assert n > _DENSE_CUTOFF
        M_dense = random_factor_width2_dense(rng, n)
        M = SparseMatrix.from_dense(M_dense)
        b = rng.normal(size=n)
        delta = 1e-8
        x, report = factor_width2_solve(M, b, delta)
        assert report.info["shift"] < 0.5
        assert np.linalg.norm(M_dense @ x - b) <= delta * np.linalg.norm(b)
        v = report.info["scaling"]
        assert check_sdd(apply_scaling(v, M, v), 1e-12)
        # |x - x*| <= ||M^-1|| delta ||b||, plus the oracle's own rounding
        exact = dense_solve(M_dense, b)
        lam_min = float(np.linalg.eigvalsh(M_dense)[0])
        bound = delta * np.linalg.norm(b) / lam_min + 1e-12 * np.linalg.norm(exact)
        assert np.linalg.norm(x - exact) <= bound


class TestSymmetricFailures:
    """Input outside the symmetric path's assumptions surfaces as
    :class:`IterationCapHit` from the halving levels."""

    @pytest.mark.parametrize("n", [20, 400], ids=["dense", "csr"])
    def test_spectral_radius_above_one(self, n):
        rng = np.random.default_rng(52)
        A = SparseMatrix.from_dense(
            random_symmetric_contraction_dense(rng, n, 1.2, density=min(0.3, 5.0 / n))
        )
        with pytest.raises(IterationCapHit):
            symm_scale(A, 1e-3)
        with pytest.raises(IterationCapHit):
            symm_solve(A, rng.normal(size=n), 1e-6)

    def test_factor_width2_rejects_two_by_two_indefinite(self):
        M = SparseMatrix.from_dense([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(IterationCapHit):
            factor_width2_solve(M, np.ones(2), 1e-6)

    def test_factor_width2_rejects_dense_spd(self):
        """``B.T B + I`` with a dense Gaussian ``B`` is positive definite but
        far from factor width 2."""
        rng = np.random.default_rng(53)
        n = 200
        B = rng.normal(size=(n, n))
        M = SparseMatrix.from_dense(B.T @ B + np.eye(n))
        with pytest.raises(IterationCapHit):
            factor_width2_solve(M, rng.normal(size=n), 1e-6)
