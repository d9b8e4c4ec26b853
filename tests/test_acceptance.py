"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible under ``pytest -s``) and then
asserts, so the suite both reports and gates.  All randomness is seeded; the
determinism criterion re-runs sampled instances and demands bit-identical
results.
"""

import time

import numpy as np
import pytest

from perronkit import (
    ReducibleGram,
    SparseMatrix,
    Verdict,
    apply_scaling,
    check_rcdd,
    check_sdd,
    compute_perron,
    expected_phase_count,
    factor_width2_solve,
    graph_kernel,
    katz_centrality,
    leontief_equilibrium,
    m_decide,
    mmatrix_scale,
    product_graph,
    scaling_iteration_cap,
    shifted_m_matrix,
    solve_m,
    symm_scale,
    symm_solve,
    top_singular,
    LabeledGraph,
)
from perronkit.oracle import dense_solve, dense_spectral_radius, dense_svd_top

from conftest import (
    bracket_off,
    criterion01_dense,
    dense_inverse_norms,
    random_irreducible_dense,
    random_symmetric_contraction_dense,
)

PERRON_DELTA = 1e-3
PERRON_COUNT = 200
SCALING_EPS = 0.1


def report_line(num, ok, text):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {text}")


def scaling_instance(seed, ratio):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 31))
    A = random_irreducible_dense(rng, n, density=0.3)
    rho, _ = dense_spectral_radius(A)
    # scale so that rho(A)/s = ratio with s = 1
    return A * (ratio / rho)


@pytest.fixture(scope="module")
def perron_suite():
    runs = []
    t0 = time.monotonic()
    for seed in range(PERRON_COUNT):
        A_dense = criterion01_dense(seed)
        rho, _ = dense_spectral_radius(A_dense, tol=1e-12)
        cert = compute_perron(SparseMatrix.from_dense(A_dense), PERRON_DELTA)
        runs.append((seed, A_dense, rho, cert))
    elapsed = time.monotonic() - t0
    return runs, elapsed


@pytest.fixture(scope="module")
def scaling_suite():
    """The halving scan's pairs and reports, the bracket off: the phase
    criteria check the scan."""
    runs = []
    ratios = [0.5, 0.9, 0.99]
    with pytest.MonkeyPatch.context() as patch:
        bracket_off(patch)
        for i in range(100):
            ratio = ratios[i % 3]
            A_dense = scaling_instance(1000 + i, ratio)
            n = A_dense.shape[0]
            K = 1.01 * max(dense_inverse_norms(np.eye(n) - A_dense))
            A = SparseMatrix.from_dense(A_dense)
            pair, report = mmatrix_scale(A, 1.0, SCALING_EPS, K)
            runs.append((A_dense, A, K, pair, report))
    return runs


def test_criterion_01_perron_accuracy(perron_suite):
    runs, elapsed = perron_suite
    bad = [
        seed
        for seed, _, rho, cert in runs
        if not ((1.0 - PERRON_DELTA) * rho < cert.s <= rho * (1.0 + 1e-8))
    ]
    ok = not bad and elapsed <= 60.0
    report_line(
        1, ok,
        f"perron accuracy on {len(runs)} instances, {len(bad)} out of bounds, "
        f"runtime {elapsed:.1f}s (limit 60s)",
    )
    assert not bad
    assert elapsed <= 60.0


def test_criterion_02_residual_contract(perron_suite):
    runs, _ = perron_suite
    worst = 0.0
    for _, A_dense, _, cert in runs:
        threshold = PERRON_DELTA / (2.0 * cert.k_final**2)
        res_r = cert.right - (A_dense @ cert.right) / cert.s
        res_l = cert.left - (A_dense.T @ cert.left) / cert.s
        rr = np.abs(res_r).max() / np.abs(cert.right).max()
        rl = np.abs(res_l).max() / np.abs(cert.left).max()
        assert abs(rr - cert.residual_right) <= 1e-12
        assert abs(rl - cert.residual_left) <= 1e-12
        assert rr <= threshold and rl <= threshold
        worst = max(worst, rr / threshold, rl / threshold)
    report_line(2, True, f"residual contract, worst residual/threshold = {worst:.3e}")


def test_criterion_03_scaling_validity(scaling_suite):
    for A_dense, A, K, pair, report in scaling_suite:
        S = apply_scaling(pair.left, shifted_m_matrix(A, 1.0, SCALING_EPS), pair.right)
        assert check_rcdd(S, 1e-12)
        for phase in report.phases:
            for lo, hi in (phase.window_right, phase.window_left):
                assert lo >= 0.5 - 1e-9
                assert hi <= 1.5 + 1e-9
    for A_dense, A, K, _, _ in scaling_suite:
        pair, report = mmatrix_scale(A, 1.0, SCALING_EPS, K)
        S = apply_scaling(pair.left, shifted_m_matrix(A, 1.0, SCALING_EPS), pair.right)
        assert check_rcdd(S, 1e-12)
        assert report.phases == []
    report_line(
        3, True,
        f"scaling validity and exit windows on {len(scaling_suite)} instances, "
        "and validity of the bracket's pairs",
    )


def test_criterion_04_solver_contract(scaling_suite):
    rng = np.random.default_rng(999)
    checked = 0
    for A_dense, A, K, _, _ in scaling_suite:
        n = A_dense.shape[0]
        M = np.eye(n) - A_dense
        for eps in (1e-4, 1e-8):
            op = solve_m(A, 1.0, eps, K)
            for _ in range(20):
                b = rng.random(n) + 0.01
                x = op.apply(b)
                assert np.linalg.norm(M @ x - b) <= eps * np.linalg.norm(b)
                exact = dense_solve(M, b)
                assert np.linalg.norm(x - exact) <= 10.0 * eps * np.linalg.norm(exact)
                checked += 1
    report_line(4, True, f"solver contract on {checked} solves at eps 1e-4 and 1e-8")


def _lemma_instances(count, n_max=15, seed0=5000):
    out = []
    for i in range(count):
        rng = np.random.default_rng(seed0 + i)
        n = int(rng.integers(4, n_max + 1))
        A = random_irreducible_dense(rng, n, density=0.35)
        rho, _ = dense_spectral_radius(A)
        out.append(A * (rng.uniform(0.3, 0.95) / rho))
    return out


def test_criterion_05_contraction_lemma():
    instances = _lemma_instances(50)
    for A in instances:
        n = A.shape[0]
        M = np.eye(n) - A
        r0 = dense_solve(M, np.ones(n))
        l0 = dense_solve(M.T, np.ones(n))
        d = np.sqrt(l0 / r0)
        for eps in (0.5, 0.05, 0.005):
            alpha, alpha_p = eps, 2.0 * eps
            T = (
                d[:, None]
                * (np.linalg.solve(M + alpha_p * np.eye(n), M + alpha * np.eye(n)) - np.eye(n))
                / d[None, :]
            )
            assert np.linalg.norm(T, 2) <= abs(alpha - alpha_p) / alpha_p + 1e-8
    report_line(5, True, f"shift-preconditioner contraction bound on {len(instances)} instances x 3 shifts")


def test_criterion_06_conditioning_lemma(monkeypatch):
    # same dense-verifiable instances as the contraction-lemma criterion
    instances = _lemma_instances(50)
    checked = 0
    bracket_off(monkeypatch)
    for A in instances:
        n = A.shape[0]
        M = np.eye(n) - A
        ninf, n1 = dense_inverse_norms(M)
        K = 1.01 * max(ninf, n1)
        _, report = mmatrix_scale(SparseMatrix.from_dense(A), 1.0, SCALING_EPS, K)
        for phase in report.phases:
            S = np.diag(phase.left) @ (M + phase.alpha * np.eye(n)) @ np.diag(phase.right)
            assert np.linalg.cond(S, 2) <= 18.0 * ninf * n1 * (1.0 + 1e-6)
            checked += 1
    report_line(6, True, f"conditioning ceiling on {checked} scaled phase matrices")


def test_criterion_07_decision_soundness_completeness():
    for side, ratio in (("is", 0.9), ("not", 1.1)):
        for i in range(100):
            rng = np.random.default_rng(7000 + i)
            n = int(rng.integers(4, 26))
            A = random_irreducible_dense(rng, n, density=0.3)
            rho, v_r = dense_spectral_radius(A, tol=1e-12)
            _, v_l = dense_spectral_radius(A.T, tol=1e-12)
            kappa = v_l.max() / v_l.min() + v_r.max() / v_r.min()
            s = rho / ratio
            gamma = 4.0 * kappa
            if side == "is":
                gamma /= 1.0 - ratio
            out = m_decide(SparseMatrix.from_dense(A / s), 0.05, gamma)
            if side == "is":
                assert out.verdict is Verdict.IS_M_MATRIX_SHIFTED, (i, out.witness)
            else:
                assert out.verdict is Verdict.NOT_M_MATRIX, i
    report_line(7, True, "decision sound and complete on 100 + 100 instances")


def test_criterion_08_iteration_count_sanity(scaling_suite):
    for A_dense, A, K, _, report in scaling_suite:
        n = A_dense.shape[0]
        cap = scaling_iteration_cap(n, K, SCALING_EPS)
        assert all(p.iterations <= cap for p in report.phases)
        assert len(report.phases) == expected_phase_count(A, 1.0, SCALING_EPS)
    report_line(8, True, "iteration caps and exact phase counts on the scaling suite")


def test_criterion_09_applications():
    # Katz on 50 graphs
    for i in range(50):
        rng = np.random.default_rng(9000 + i)
        n = int(rng.integers(5, 41))
        A = random_irreducible_dense(rng, n, density=0.25)
        rho, _ = dense_spectral_radius(A)
        alpha = float(rng.uniform(0.3, 0.95)) / rho
        b = rng.random(n) + 0.01
        v, _ = katz_centrality(SparseMatrix.from_dense(A), alpha, b, 1e-10)
        exact = dense_solve(np.eye(n) - alpha * A, b)
        assert np.linalg.norm(v - exact) <= 1e-8 * np.linalg.norm(exact)

    # Leontief verdicts on 100 instances vs dense spectral radius
    for i in range(100):
        rng = np.random.default_rng(9100 + i)
        n = int(rng.integers(4, 31))
        A = random_irreducible_dense(rng, n, density=0.3)
        rho, _ = dense_spectral_radius(A)
        ratio = float(rng.uniform(0.4, 0.9) if i % 2 == 0 else rng.uniform(1.1, 1.6))
        A_scaled = A * (ratio / rho)
        verdict, _ = leontief_equilibrium(SparseMatrix.from_dense(A_scaled), None, 1e-8)
        assert verdict == (ratio < 1.0), (i, ratio)

    # top singular triplet on 50 matrices including the golden-ratio case;
    # instances must satisfy the documented precondition (irreducible Grams),
    # so reducible draws are skipped deterministically
    golden = np.array([[1.0, 1.0], [0.0, 1.0]])
    triplet = top_singular(SparseMatrix.from_dense(golden), 1e-7)
    sigma_ref, _, _ = dense_svd_top(golden, tol=1e-13)
    assert abs(triplet.sigma - sigma_ref) <= 1e-6 * sigma_ref
    done, i = 0, 0
    while done < 49:
        rng = np.random.default_rng(9200 + i)
        i += 1
        n = int(rng.integers(4, 26))
        A = random_irreducible_dense(rng, n, density=0.35)
        try:
            triplet = top_singular(SparseMatrix.from_dense(A), 1e-7)
        except ReducibleGram:
            continue
        sigma_ref, _, _ = dense_svd_top(A, tol=1e-13)
        assert abs(triplet.sigma - sigma_ref) <= 1e-6 * sigma_ref
        done += 1

    # graph kernels on 20 product graphs, plus the lambda = 0 identity
    kernels = 0
    i = 0
    while kernels < 20:
        rng = np.random.default_rng(9300 + i)
        i += 1
        nG, nH = (int(x) for x in rng.integers(4, 7, 2))
        G = _random_labeled_graph(rng, nG, 2 * nG + 2, 2)
        H = _random_labeled_graph(rng, nH, 2 * nH + 2, 2)
        W = product_graph(G, H)
        dense = W.matrix.to_dense()
        rho = float(np.abs(np.linalg.eigvals(dense)).max())
        if rho <= 1e-9:
            continue
        lam = 0.5 / rho
        n = dense.shape[0]
        p = rng.random(n)
        p /= p.sum()
        q = rng.random(n)
        q /= q.sum()
        value, _ = graph_kernel(W, p, q, lam, 1e-12)
        exact = q @ np.linalg.solve(np.eye(n) - lam * dense, p)
        assert abs(value - exact) <= 1e-8 * max(1.0, abs(exact))
        zero, _ = graph_kernel(W, p, q, 0.0, 1e-12)
        assert zero == float(q @ p)
        kernels += 1

    report_line(9, True, "katz (50), leontief (100), singular (50), kernels (20)")


def _random_labeled_graph(rng, n, m, d):
    edges = []
    for _ in range(m):
        u, v = (int(x) for x in rng.integers(0, n, 2))
        edges.append((u, v, int(rng.integers(1, d + 1)), float(rng.random()) + 0.1))
    return LabeledGraph(n, edges, d)


def test_criterion_10_symmetric_path():
    rng_b = np.random.default_rng(10_000)
    for i in range(50):
        rng = np.random.default_rng(10_100 + i)
        n = int(rng.integers(4, 26))
        A_dense = random_symmetric_contraction_dense(
            rng, n, rho_ratio=float(rng.uniform(0.3, 0.95))
        )
        A = SparseMatrix.from_dense(A_dense)
        eps = float(rng.uniform(0.02, 0.5))
        v, report = symm_scale(A, eps)
        S = apply_scaling(v, shifted_m_matrix(A, 1.0, eps), v)
        assert check_sdd(S, 1e-12)
        # the bracket's right iterate: V ((1 + eps) I - A) V is SDD exactly
        # when A v < (1 + eps) v
        assert report.phases == [] and np.all(A_dense @ v < (1.0 + eps) * v)
        delta = 1e-8
        b = rng_b.normal(size=n)
        x, _ = symm_solve(A, b, delta)
        assert np.linalg.norm((np.eye(n) - A_dense) @ x - b) <= delta * np.linalg.norm(b)
    report_line(10, True, "symmetric scaling and solve from the bracket on 50 instances")


def test_criterion_11_factor_width_two():
    for i in range(50):
        rng = np.random.default_rng(11_000 + i)
        n = int(rng.integers(5, 31))
        m = 3 * n
        C = np.zeros((m + n, n))
        for row in range(m):
            a, b_col = rng.integers(0, n, 2)
            C[row, a] += rng.normal()
            C[row, b_col] -= rng.normal()
        mean_diag = max(np.mean(np.einsum("ij,ij->j", C, C)), 1e-6)
        C[m:, :] = np.sqrt(0.05 * mean_diag) * np.eye(n)
        M_dense = C.T @ C
        M = SparseMatrix.from_dense(M_dense)
        delta = 1e-8
        b = rng.normal(size=n)
        x, report = factor_width2_solve(M, b, delta)
        assert np.linalg.norm(M_dense @ x - b) <= delta * np.linalg.norm(b)
        v = report.info["scaling"]
        assert check_sdd(apply_scaling(v, M, v), 1e-12)
    report_line(11, True, "factor-width-2 solves and dominant scalings on 50 instances")


def test_criterion_12_determinism(perron_suite, scaling_suite, monkeypatch):
    runs, _ = perron_suite
    for seed, A_dense, _, cert in runs[::20]:
        repeat = compute_perron(SparseMatrix.from_dense(criterion01_dense(seed)), PERRON_DELTA)
        assert repeat.s == cert.s
        assert repeat.k_final == cert.k_final
        assert repeat.residual_left == cert.residual_left
        assert repeat.residual_right == cert.residual_right
        assert np.array_equal(repeat.left, cert.left)
        assert np.array_equal(repeat.right, cert.right)
    A_dense, A, K, pair, _ = scaling_suite[0]
    bracket = mmatrix_scale(A, 1.0, SCALING_EPS, K)[0]
    bracket2 = mmatrix_scale(SparseMatrix.from_dense(A_dense), 1.0, SCALING_EPS, K)[0]
    assert np.array_equal(bracket.left, bracket2.left)
    assert np.array_equal(bracket.right, bracket2.right)
    bracket_off(monkeypatch)
    pair2, _ = mmatrix_scale(SparseMatrix.from_dense(A_dense), 1.0, SCALING_EPS, K)
    assert np.array_equal(pair.left, pair2.left)
    assert np.array_equal(pair.right, pair2.right)
    report_line(12, True, "bit-identical reruns of sampled perron and scaling instances")
