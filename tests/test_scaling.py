"""Scaling scan, preconditioned Richardson, and the M-matrix solvers,
checked against the dominance/conditioning facts their analysis rests on."""

import numpy as np
import pytest

import perronkit.rcdd
from perronkit import (
    IterationCapHit,
    RoundingFloorHit,
    Verdict,
    RichardsonConfig,
    ScalingPair,
    SparseMatrix,
    apply_scaling,
    certify_spectral_bound,
    check_rcdd,
    check_sdd,
    collatz_wielandt_bounds,
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
from perronkit.sparse import RCDD_VERIFY_SLACK

from conftest import (
    bracket_off,
    dense_inverse_norms,
    random_irreducible_dense,
    random_factor_width2_dense,
    random_m_matrix_dense,
    random_symmetric_contraction_dense,
    record_scans,
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

    @pytest.mark.parametrize("n", [20, 400], ids=["lapack", "krylov"])
    def test_p_left_is_the_transpose_of_p_right(self, n):
        """``p_right`` and ``p_left`` come from one recipe, the one
        ``build_rcdd_solver`` runs: ``p_right.transpose(delta)`` applies
        with ``p_left``'s bits, below and above the dense cutoff, a
        transpose at a looser ``e`` meets its own contract against ``M.T``
        on the same solver, and ``p_left`` has no transpose."""
        rng = np.random.default_rng(33)
        A = random_m_matrix_dense(rng, n, rho_ratio=0.85, density=min(0.3, 5.0 / n))
        M = np.eye(n) - A
        delta, loose = 1e-8, 1e-4
        ops = solve_from_scale(SparseMatrix.from_dense(M), exact_scaling_pair(M, 0.0), delta)
        b = rng.normal(size=n)
        left = ops.p_left.apply(b)
        assert ops.p_right.transpose(delta).apply(b).tobytes() == left.tobytes()
        op = ops.p_right.transpose(loose)
        assert op.error_bound == loose and op._backend is ops.p_right._backend
        assert np.linalg.norm(b - M.T @ op.apply(b)) <= loose * np.linalg.norm(b)
        with pytest.raises(TypeError, match="solve_from_scale's p_right have a transpose"):
            ops.p_left.transpose(delta)


class TestMMatrixScale:
    """The halving scan's contracts, with the bracket off (see
    :class:`TestMMatrixScaleFromTheBracket` for the first path)."""

    @pytest.fixture(autouse=True)
    def scan_only(self, monkeypatch):
        bracket_off(monkeypatch)

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


class TestMMatrixScaleFromTheBracket:
    """The bracket twins of :class:`TestMMatrixScale`: the pair comes from
    :meth:`_CWBracket.checked_pair`, with no scan and no phase logged."""

    def test_zero_matrix(self, monkeypatch):
        """A zero ``A`` has zero CW bounds: the all-ones start settles the
        shift at once, and the bracket never steps (a step would rescale
        by 0)."""
        scans = record_scans(monkeypatch)
        A = SparseMatrix.zeros(3)
        pair, report = mmatrix_scale(A, 1.0, 0.5, 2.0)
        assert np.array_equal(pair.left, np.ones(3))
        assert np.array_equal(pair.right, np.ones(3))
        S = apply_scaling(pair.left, shifted_m_matrix(A, 1.0, 0.5), pair.right)
        assert check_rcdd(S, 0.0)
        assert report.phases == [] and scans == []
        assert report.info["bracket_steps"] == 0

    @pytest.mark.parametrize(
        "dense, eps", [([[0.0, 0.5], [0.5, 0.0]], 0.1), ([[0.5]], 0.25)], ids=["two-cycle", "1x1"]
    )
    def test_closed_forms(self, monkeypatch, dense, eps):
        """The all-ones start settles the two-cycle and ``[[a]]`` at once:
        the pair is all ones, with no step, no scan and no initial shift."""
        scans = record_scans(monkeypatch)
        A = SparseMatrix.from_dense(dense)
        pair, report = mmatrix_scale(A, 1.0, eps, 4.0)
        assert np.array_equal(pair.left, np.ones(A.n_rows))
        assert np.array_equal(pair.right, np.ones(A.n_rows))
        assert (pair.alpha, pair.s) == (eps, 1.0)
        S = apply_scaling(pair.left, shifted_m_matrix(A, 1.0, eps), pair.right)
        assert check_rcdd(S, 1e-15)
        assert report.phases == [] and report.alpha0 is None and scans == []
        assert report.info["bracket_steps"] == 0

    @pytest.mark.parametrize("n", [20, 400], ids=["dense", "csr"])
    def test_random_pairs_are_rcdd(self, monkeypatch, n):
        """On instances drawn as the scan's phase-count test draws them, and
        above the cutoff, the bracket's pair makes ``(1 + eps) I - A`` RCDD,
        with no scan and no phase."""
        scans = record_scans(monkeypatch)
        rng = np.random.default_rng(33)
        for _ in range(10 if n <= _DENSE_CUTOFF else 2):
            size = int(rng.integers(3, 25)) if n <= _DENSE_CUTOFF else n
            density = 0.3 if n <= _DENSE_CUTOFF else 5.0 / n
            rho_ratio = rng.uniform(0.3, 0.95)
            A = SparseMatrix.from_dense(random_m_matrix_dense(rng, size, rho_ratio, density))
            eps = float(rng.uniform(0.02, 0.5))
            pair, report = mmatrix_scale(A, 1.0, eps, 1e3)
            S = apply_scaling(pair.left, shifted_m_matrix(A, 1.0, eps), pair.right)
            assert check_rcdd(S, RCDD_VERIFY_SLACK)
            assert pair.alpha == eps and report.phases == []
        assert scans == []

    @pytest.mark.parametrize("n", [2, 20, 400], ids=["two-cycle", "dense", "csr"])
    def test_certified_negative_runs_no_scan(self, monkeypatch, n):
        """Above the shift the bracket's CW lower bound certifies ``rho(A) >=
        (1 + eps) s`` whatever ``K``, and no scan runs."""
        scans = record_scans(monkeypatch)
        if n == 2:
            A = SparseMatrix.from_dense([[0.0, 2.0], [2.0, 0.0]])
        else:
            rng = np.random.default_rng(45)
            A = SparseMatrix.from_dense(
                random_m_matrix_dense(rng, n, 1.1, density=min(0.3, 5.0 / n))
            )
        with pytest.raises(IterationCapHit, match=r"rho\(A\) >= \(1 \+ eps\) s certified"):
            mmatrix_scale(A, 1.0, 0.05, 50.0)
        assert scans == []


@pytest.mark.parametrize("a", [1e-3, 0.5, 0.9])
def test_one_by_one_meets_every_contract(a, monkeypatch):
    """``[[a]]`` takes the general code path of every entry point, and each
    answer agrees with its closed form: ``1 - a`` inverts the M-matrix, the
    scan's scaling sits in the phase window around ``1 / ((1 + alpha) -
    a)``, ``rho = a``, and ``[[1 + a]]`` is not below the unit shift.  Every
    fixed-shift entry point answers on the bracket path, where the all-ones
    pair settles it at once, and with the bracket off on the scan."""
    A = SparseMatrix.from_dense([[a]])
    above = SparseMatrix.from_dense([[1.0 + a]])
    K = 2.0 / (1.0 - a)
    eps = a / 4.0
    b = np.array([3.0])

    for path in ("bracket", "scan"):
        with monkeypatch.context() as patch:
            if path == "scan":
                bracket_off(patch)
            pair, report = mmatrix_scale(A, 1.0, eps, K)
            assert pair.alpha <= eps
            if path == "scan":
                for vec in (pair.left, pair.right):
                    assert 0.5 <= vec[0] * ((1.0 + pair.alpha) - a) <= 1.5
            else:
                assert report.phases == [] and report.info["bracket_steps"] == 0
            assert check_rcdd(
                apply_scaling(pair.left, shifted_m_matrix(A, 1.0, eps), pair.right), 1e-15
            )

            outcome = m_decide(A, eps, K)
            assert outcome.verdict is Verdict.IS_M_MATRIX_SHIFTED
            S = apply_scaling(
                outcome.scaling.left, shifted_m_matrix(A, 1.0, eps), outcome.scaling.right
            )
            assert check_rcdd(S, 1e-15)
            assert (len(outcome.report.phases) > 0) == (path == "scan")
            outcome = m_decide(above, eps, K)
            assert outcome.verdict is Verdict.NOT_M_MATRIX and outcome.report is None
            if path == "scan":
                assert "at phase" in outcome.witness and outcome.certificate is None
            else:
                assert outcome.certificate.s == outcome.certificate.cw_lower == 1.0 + a

            op = solve_m(A, 1.0, 1e-6, K)
            x = op.apply(b)
            assert abs((1.0 - a) * x[0] - b[0]) <= 1e-6 * b[0]
            assert (op.report.info["scaling_phases"] > 0) == (path == "scan")

            v, report = symm_scale(A, 0.1)
            if path == "scan":
                # the scan starts at 2 a, below 0.1 for a = 1e-3: no phase
                assert v[0] > 0.0 and len(report.phases) == expected_phase_count(A, 1.0, 0.1)
                if report.phases:
                    assert 0.5 <= v[0] * ((1.0 + report.phases[-1].alpha) - a) <= 1.5
            else:
                assert v[0] == 1.0 and report.phases == []
            assert check_sdd(apply_scaling(v, shifted_m_matrix(A, 1.0, 0.1), v), 1e-15)

            x, report = symm_solve(A, b, 1e-8)
            assert abs((1.0 - a) * x[0] - b[0]) <= 1e-8 * b[0]
            assert (report.info["shift"] > 0.0) == (path == "scan")
            with pytest.raises(IterationCapHit):
                symm_solve(above, b, 1e-8)

            x, _ = factor_width2_solve(SparseMatrix.from_dense([[1.0 - a]]), b, 1e-8)
            assert abs((1.0 - a) * x[0] - b[0]) <= 1e-8 * b[0]

    cert = compute_perron(A, 1e-3)
    assert (1.0 - 1e-3) * a < cert.s <= a
    assert cert.cw_lower == cert.cw_upper == pytest.approx(a, rel=1e-15)


@pytest.mark.parametrize("n, cutoff", [(20, _DENSE_CUTOFF), (150, 128)], ids=["dense", "krylov"])
def test_near_singular_meets_every_contract(n, cutoff, monkeypatch):
    """At ``rho / s = 1 - 1e-9`` the bracket still certifies the shifted
    M-matrix with a pair checked RCDD and ``rho < 1`` with both CW upper
    bounds below 1, at ``rho / s = 1 + 1e-9`` it refutes ``rho < 1 + eps``
    with a certificate that recomputes, and ``solve_m`` at a valid ``K``
    meets its contract at eps 1e-4, 1e-5 and 1e-6 from the bracket's
    unshifted pair, on LAPACK in at most 2 solves (a preconditioner shifted
    by about eps contracted by only about ``gap / eps`` a step).  The
    Krylov case moves the dense cutoff below ``n``."""
    monkeypatch.setattr(perronkit.rcdd, "_DENSE_CUTOFF", cutoff)
    M = random_irreducible_dense(np.random.default_rng(90), n, density=min(0.3, 5.0 / n))
    rho, _ = dense_spectral_radius(M, tol=1e-14)
    A_dense = M * ((1.0 - 1e-9) / rho)
    A = SparseMatrix.from_dense(A_dense)
    K = 1.01 * max(dense_inverse_norms(np.eye(n) - A_dense))
    tol = (n + 2) * np.finfo(float).eps

    for eps in (1e-6, 1e-10):
        outcome = m_decide(A, eps, K)
        assert outcome.is_m_matrix and outcome.report.phases == []
        pair = outcome.scaling
        S = apply_scaling(pair.left, shifted_m_matrix(A, 1.0, eps), pair.right)
        assert check_rcdd(S, RCDD_VERIFY_SLACK)

    valid, cert = certify_spectral_bound(A, 1.0)
    assert valid
    A_t = SparseMatrix.from_dense(A_dense.T)
    assert max(
        collatz_wielandt_bounds(A, cert.right)[1], collatz_wielandt_bounds(A_t, cert.left)[1]
    ) * (1 + tol) < 1.0

    above = M * ((1.0 + 1e-9) / rho)
    eps = 1e-12
    outcome = m_decide(SparseMatrix.from_dense(above), eps, K)
    assert not outcome.is_m_matrix
    lower = max(
        collatz_wielandt_bounds(SparseMatrix.from_dense(above), outcome.certificate.right)[0],
        collatz_wielandt_bounds(SparseMatrix.from_dense(above.T), outcome.certificate.left)[0],
    )
    assert lower * (1 - tol) >= 1 + eps

    b = np.linspace(1.0, 2.0, n)
    for eps in (1e-4, 1e-5, 1e-6):
        op = solve_m(A, 1.0, eps, K)
        assert op.report.info["scaling_phases"] == 0
        x = op.apply(b)
        if n <= cutoff:
            assert op.report.iterations <= 2
        # recomputed in extended precision: at this gap ||x|| is about 1e9
        # ||b||, and a double residual errs by a few percent of eps
        ext = np.longdouble
        residual = x.astype(ext) - A_dense.astype(ext) @ x.astype(ext) - b.astype(ext)
        assert np.sqrt(np.sum(residual * residual)) <= eps * np.linalg.norm(b.astype(ext))


def near_singular_symmetric(n, gap):
    """A symmetric irreducible instance with ``rho = 1 - gap``."""
    M = random_irreducible_dense(np.random.default_rng(90), n, density=min(0.3, 5.0 / n))
    M = (M + M.T) / 2.0
    rho, _ = dense_spectral_radius(M, tol=1e-14)
    return M * ((1.0 - gap) / rho)


@pytest.mark.parametrize("n", [20, 400], ids=["dense", "csr"])
def test_symm_solve_near_singular(monkeypatch, n):
    """At ``rho = 1 - 1e-9`` the bracket settles ``rho < 1`` and
    ``symm_solve`` meets its contract on the bracket path, its residual
    recomputed in extended precision (``||x||`` is about 1e9 ``||b||``)."""
    scans = record_scans(monkeypatch)
    A_dense = near_singular_symmetric(n, 1e-9)
    b = np.linspace(1.0, 2.0, n)
    delta = 1e-6
    x, report = symm_solve(SparseMatrix.from_dense(A_dense), b, delta)
    assert report.info["shift"] == 0.0 and report.info["bracket_steps"] >= 1 and scans == []
    ext = np.longdouble
    residual = x.astype(ext) - A_dense.astype(ext) @ x.astype(ext) - b.astype(ext)
    assert np.sqrt(np.sum(residual * residual)) <= delta * np.linalg.norm(b.astype(ext))


@pytest.mark.parametrize("n", [20, 400], ids=["dense", "csr"])
def test_symm_solve_near_singular_certifies_or_names_the_floor(n):
    """At ``rho = 1 - 1e-9`` the refinement against ``I - A`` bounds its
    residual's own rounding, as ``solve_m``'s does: at ``delta = 1e-7`` it
    certifies from the extended-precision residual (recomputed here), and
    at ``delta = 1e-8``, where the rounding of ``x`` to double leaves a
    residual above ``delta ||b||``, it raises :class:`RoundingFloorHit`
    within a few steps instead of spending its cap."""
    A_dense = near_singular_symmetric(n, 1e-9)
    A = SparseMatrix.from_dense(A_dense)
    b = np.linspace(1.0, 2.0, n)
    delta = 1e-7
    x, report = symm_solve(A, b, delta)
    assert report.info["shift"] == 0.0 and report.iterations <= 8
    ext = np.longdouble
    residual = x.astype(ext) - A_dense.astype(ext) @ x.astype(ext) - b.astype(ext)
    assert np.sqrt(np.sum(residual * residual)) <= delta * np.linalg.norm(b.astype(ext))
    with pytest.raises(RoundingFloorHit, match=r"cannot certify its residual .* after [1-8] of"):
        symm_solve(A, b, 1e-8)


@pytest.mark.parametrize("n", [20, 400], ids=["dense", "csr"])
def test_symm_solve_past_the_rounding_floor_is_a_typed_error(n):
    """At ``rho = 1 - 1e-12`` the scaled matrix is SDD by a margin near
    rounding and ``||x||`` is about 1e12 ``||b||``: the refinement cannot
    bound its residual's rounding within the contract and raises
    :class:`RoundingFloorHit`, not a wrong ``x``."""
    A = SparseMatrix.from_dense(near_singular_symmetric(n, 1e-12))
    with pytest.raises(RoundingFloorHit, match="cannot certify its residual"):
        symm_solve(A, np.linspace(1.0, 2.0, n), 1e-6)


@pytest.mark.parametrize("n", [20, 400], ids=["dense", "csr"])
def test_the_fallback_meets_every_contract(monkeypatch, n):
    """With the bracket off, every fixed-shift scaling entry point meets its
    contract from the halving scan alone."""
    bracket_off(monkeypatch)
    rng = np.random.default_rng(47)
    density = min(0.3, 5.0 / n)
    A = SparseMatrix.from_dense(random_m_matrix_dense(rng, n, 0.9, density=density))
    pair, report = mmatrix_scale(A, 1.0, 0.05, 1e3)
    assert report.phases and report.info["bracket_steps"] == 0
    S = apply_scaling(pair.left, shifted_m_matrix(A, 1.0, 0.05), pair.right)
    assert check_rcdd(S, RCDD_VERIFY_SLACK)

    sym_dense = random_symmetric_contraction_dense(rng, n, 0.9, density=density)
    sym = SparseMatrix.from_dense(sym_dense)
    v, report = symm_scale(sym, 0.05)
    assert report.phases
    assert check_sdd(apply_scaling(v, shifted_m_matrix(sym, 1.0, 0.05), v), RCDD_VERIFY_SLACK)

    b = rng.normal(size=n)
    delta = 1e-8
    x, report = symm_solve(sym, b, delta)
    assert report.info["shift"] > 0.0
    assert np.linalg.norm(x - sym_dense @ x - b) <= delta * np.linalg.norm(b)

    fw2 = random_factor_width2_dense(rng, n)
    x, report = factor_width2_solve(SparseMatrix.from_dense(fw2), b, delta)
    assert report.info["shift"] > 0.0
    assert np.linalg.norm(fw2 @ x - b) <= delta * np.linalg.norm(b)


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


    @pytest.mark.parametrize("K", [1e3, 1e12])
    @pytest.mark.parametrize("n", [20, 400], ids=["dense", "csr"])
    def test_certified_negative_runs_no_scan(self, monkeypatch, n, K):
        """At ``rho(A)`` = 1.1 the bracket's CW lower bound certifies
        ``rho(A) >= s`` whatever ``K``: ``solve_m`` raises that, and runs no
        halving scan."""
        rng = np.random.default_rng(45)
        A = SparseMatrix.from_dense(random_m_matrix_dense(rng, n, 1.1, density=min(0.3, 5.0 / n)))
        scans = record_scans(monkeypatch)
        with pytest.raises(IterationCapHit, match=r"rho\(A\) >= s certified"):
            solve_m(A, 1.0, 1e-6, K)
        assert scans == []


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
    def test_symm_scale_csr_path(self, eps, monkeypatch):
        """With the bracket off, the one-sided scan at ``K = 1 / eps`` runs
        the scan's count of phases and its ``v`` passes the SDD check."""
        bracket_off(monkeypatch)
        A = SparseMatrix.from_dense(self._csr_contraction(np.random.default_rng(45), 0.95))
        v, report = symm_scale(A, eps)
        assert len(report.phases) == expected_phase_count(A, 1.0, eps)
        S = apply_scaling(v, shifted_m_matrix(A, 1.0, eps), v)
        assert check_sdd(S, 1e-12)

    @pytest.mark.parametrize("eps", [0.5, 0.05, 1e-3])
    def test_symm_scale_csr_path_from_the_bracket(self, eps, monkeypatch):
        """The bracket's right iterate is ``v``: no scan, no phase.  At ``rho``
        = 0.99 one power step settles ``rho < 1.5``, and the tighter bounds
        take shift-and-invert steps too.  Power steps alone settle ``rho <
        1.05`` at 0.99, so that bound is tested at ``rho`` = 1.01, where a
        solve is still needed."""
        scans = record_scans(monkeypatch)
        rho = 1.01 if eps == 0.05 else 0.99
        A = SparseMatrix.from_dense(self._csr_contraction(np.random.default_rng(45), rho))
        v, report = symm_scale(A, eps)
        steps = report.info["bracket_steps"], report.info["power_steps"]
        assert report.phases == [] and scans == []
        assert steps == (0, 1) if eps == 0.5 else steps[0] >= 1
        S = apply_scaling(v, shifted_m_matrix(A, 1.0, eps), v)
        assert check_sdd(S, 1e-12)

    def test_symm_solve_csr_path(self, monkeypatch):
        """With the bracket off, from a shift the search reaches below 1/2
        at ``rho`` = 0.99."""
        bracket_off(monkeypatch)
        self._check_symm_solve_csr_path("scan")

    def test_symm_solve_csr_path_from_the_bracket(self):
        """From the bracket's right iterate at shift 0."""
        self._check_symm_solve_csr_path("bracket")

    @classmethod
    def _check_symm_solve_csr_path(cls, path):
        rng = np.random.default_rng(46)
        A = cls._csr_contraction(rng, 0.99)
        b = rng.normal(size=A.shape[0])
        delta = 1e-9
        x, report = symm_solve(SparseMatrix.from_dense(A), b, delta)
        if path == "scan":
            assert 0.0 < report.info["shift"] < 0.5 and report.phases
        else:
            assert report.info["shift"] == 0.0 and report.phases == []
            assert report.info["bracket_steps"] >= 1
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

    def test_csr_path(self, monkeypatch):
        """Above the dense cutoff, with the bracket off: the shift search
        continues below 1/2 and every solve is matvec-only BiCGSTAB."""
        bracket_off(monkeypatch)
        self._check_csr_path("scan")

    def test_csr_path_from_the_bracket(self):
        """Above the dense cutoff, from the bracket's right iterate at shift
        0."""
        self._check_csr_path("bracket")

    @staticmethod
    def _check_csr_path(path):
        rng = np.random.default_rng(44)
        n = 400
        assert n > _DENSE_CUTOFF
        M_dense = random_factor_width2_dense(rng, n)
        M = SparseMatrix.from_dense(M_dense)
        b = rng.normal(size=n)
        delta = 1e-8
        x, report = factor_width2_solve(M, b, delta)
        assert report.info["shift"] < 0.5
        assert (report.info["shift"] > 0.0) == (path == "scan")
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
    :class:`IterationCapHit`: from the bracket, whose CW lower bound
    certifies ``rho(A)`` at or above the shift, or with the bracket off from
    a phase of the one-sided scan."""

    @pytest.mark.parametrize("n", [20, 400], ids=["dense", "csr"])
    def test_certified_negatives_run_no_scan(self, monkeypatch, n):
        """At ``rho(A)`` = 1.2 each entry point names the bound the bracket
        certified, ``1 + eps`` for ``symm_scale`` and 1 for the solves,
        ``factor_width2_solve`` on ``I - A`` and on an indefinite 2x2
        included, and no scan runs."""
        scans = record_scans(monkeypatch)
        rng = np.random.default_rng(52)
        A_dense = random_symmetric_contraction_dense(rng, n, 1.2, density=min(0.3, 5.0 / n))
        A = SparseMatrix.from_dense(A_dense)
        b = rng.normal(size=n)
        I_minus = SparseMatrix.from_dense(np.eye(n) - A_dense)
        calls = [
            (lambda: symm_scale(A, 1e-3), r"1 \+ 0\.001"),
            (lambda: symm_solve(A, b, 1e-6), "1"),
            (lambda: factor_width2_solve(I_minus, b, 1e-6), "1"),
            (
                lambda: factor_width2_solve(
                    SparseMatrix.from_dense([[1.0, 2.0], [2.0, 1.0]]), np.ones(2), 1e-6
                ),
                "1",
            ),
        ]
        for call, bound in calls:
            with pytest.raises(
                IterationCapHit,
                match=rf"^rho\(A\) >= {bound} certified: a Collatz-Wielandt lower bound "
                r"puts rho\(A\) at \d\.\d{6}e\+00 or above$",
            ):
                call()
        assert scans == []

    @pytest.mark.parametrize("n", [20, 400], ids=["dense", "csr"])
    def test_the_fallback_fails_a_symmetric_phase(self, monkeypatch, n):
        """With the bracket off the same inputs fail a phase of the
        one-sided scan."""
        bracket_off(monkeypatch)
        rng = np.random.default_rng(52)
        A_dense = random_symmetric_contraction_dense(rng, n, 1.2, density=min(0.3, 5.0 / n))
        A = SparseMatrix.from_dense(A_dense)
        b = rng.normal(size=n)
        calls = [
            lambda: symm_scale(A, 1e-3),
            lambda: symm_solve(A, b, 1e-6),
            lambda: factor_width2_solve(SparseMatrix.from_dense(np.eye(n) - A_dense), b, 1e-6),
        ]
        for call in calls:
            with pytest.raises(IterationCapHit, match=r"^symmetric phase \d+ .*violated$"):
                call()

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
