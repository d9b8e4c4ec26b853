"""Decision procedure, eigenvalue bisection, and certified Perron pairs."""

import time
from fractions import Fraction

import numpy as np
import pytest

import perronkit.perron
from perronkit import (
    BoundaryUndecidable,
    KCapExceeded,
    NotIrreducible,
    SparseMatrix,
    Verdict,
    apply_scaling,
    certify_spectral_bound,
    check_rcdd,
    collatz_wielandt_bounds,
    compute_perron,
    find_perron_value,
    m_decide,
    mmatrix_scale,
    shifted_m_matrix,
    simple_perron,
)
from perronkit.oracle import dense_spectral_radius
from perronkit.perron import _CWBracket
from perronkit.rcdd import _DENSE_CUTOFF

from conftest import random_irreducible, random_irreducible_dense

TWO_CYCLE = SparseMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])


def decision_gamma(A_dense, s, side):
    """Conditioning budget from the dense eigenvector condition numbers, with
    the gap factor the budget analysis assumes on the positive side."""
    rho, v_r = dense_spectral_radius(A_dense, tol=1e-12)
    _, v_l = dense_spectral_radius(A_dense.T, tol=1e-12)
    kappa = v_l.max() / v_l.min() + v_r.max() / v_r.min()
    if side == "is":
        return 4.0 * kappa / (1.0 - rho / s)
    return 4.0 * kappa


class TestMDecide:
    def test_half_two_cycle_is_m_matrix(self):
        out = m_decide(TWO_CYCLE.scaled(0.5), 0.1, 10.0)
        assert out.verdict is Verdict.IS_M_MATRIX_SHIFTED
        S = apply_scaling(
            out.scaling.left,
            shifted_m_matrix(TWO_CYCLE.scaled(0.5), 1.0, 0.1),
            out.scaling.right,
        )
        assert check_rcdd(S, 1e-12)

    def test_double_two_cycle_is_not(self):
        out = m_decide(TWO_CYCLE.scaled(2.0), 0.1, 10.0)
        assert out.verdict is Verdict.NOT_M_MATRIX
        assert out.witness

    def test_singular_boundary_answers_soundly(self):
        # rho(A) = 1 exactly: I - A is singular, not an invertible M-matrix,
        # while (1+eps) I - A is one.  Either verdict is sound here as long
        # as a positive answer carries a valid certificate for the shifted
        # matrix; the honest halving scan converges and certifies it.
        out = m_decide(TWO_CYCLE, 0.1, 10.0)
        if out.is_m_matrix:
            S = apply_scaling(
                out.scaling.left,
                shifted_m_matrix(TWO_CYCLE, 1.0, 0.1),
                out.scaling.right,
            )
            assert check_rcdd(S, 1e-12)
        else:
            assert out.witness

    def test_requires_irreducible(self):
        A = SparseMatrix.from_dense([[0.5, 1.0], [0.0, 0.5]])
        with pytest.raises(NotIrreducible):
            m_decide(A, 0.1, 10.0)

    def test_decision_consistency_on_random_instances(self):
        rng = np.random.default_rng(50)
        for trial in range(10):
            n = int(rng.integers(4, 25))
            A_dense = random_irreducible_dense(rng, n, density=0.3)
            rho, _ = dense_spectral_radius(A_dense)
            for ratio, side, expect in ((1.5, "is", True), (0.75, "not", False)):
                s = ratio * rho
                gamma = decision_gamma(A_dense, s, side)
                out = m_decide(
                    SparseMatrix.from_dense(A_dense / s), 0.05, gamma
                )
                assert out.is_m_matrix == expect, (trial, ratio, out.witness)

    def test_small_gamma_witness_proves_nothing(self):
        """A negative verdict proves ``rho(A) >= 1`` only for a valid
        ``gamma``: on the weighted 20-cycle over 0.144 (``rho`` 0.37) a
        ``gamma`` of 4 gives the ``"solver budget"`` witness, and the valid
        budget ``max(||(I - A)^-1||_inf, ||(I - A)^-1||_1)`` certifies it."""
        M, rho = ill_conditioned_chain()
        B = M / 0.144
        assert rho / 0.144 < 0.38
        A = SparseMatrix.from_dense(B)
        small = m_decide(A, 0.05, 4.0)
        assert not small.is_m_matrix
        assert small.witness.startswith(
            "scaled-system conditioning exceeded the solver budget"
        )
        inverse = np.abs(np.linalg.inv(np.eye(B.shape[0]) - B))
        valid = max(inverse.sum(axis=1).max(), inverse.sum(axis=0).max())
        assert m_decide(A, 0.05, valid).is_m_matrix


class TestFindPerronValue:
    def test_scalar(self):
        A = SparseMatrix.from_dense([[2.0]])
        s, _ = find_perron_value(A, 0.0, 2.0, 0.1, 4.0)
        assert 2.0 <= s < 2.2

    def test_two_cycle(self):
        s, _ = find_perron_value(TWO_CYCLE, 0.0, 1.0, 0.05, 10.0)
        assert 1.0 <= s < 1.05

    def test_random_against_power_iteration(self):
        rng = np.random.default_rng(51)
        for _ in range(5):
            n = 20
            A_dense = random_irreducible_dense(rng, n)
            rho, v_r = dense_spectral_radius(A_dense, tol=1e-12)
            _, v_l = dense_spectral_radius(A_dense.T, tol=1e-12)
            K = 1.1 * (v_l.max() / v_l.min() + v_r.max() / v_r.min())
            eps = 0.02
            s, _ = find_perron_value(
                SparseMatrix.from_dense(A_dense),
                0.0,
                float(np.abs(A_dense).sum(axis=1).max()),
                eps,
                K,
            )
            assert rho * (1 - 1e-12) <= s < (1 + eps) * rho

    def test_bracket_validation(self):
        with pytest.raises(ValueError):
            find_perron_value(TWO_CYCLE, 1.0, 0.5, 0.1, 4.0)
        with pytest.raises(ValueError):
            find_perron_value(TWO_CYCLE, 0.0, 1.0, 0.6, 4.0)

    def test_upper_endpoint_keeps_the_bracket(self):
        # rho sits at 0.5625 of the initial upper bound, so the very first
        # midpoint decision is positive while rho still exceeds the midpoint
        # by more than (1 + eps/2); the new upper endpoint must follow the
        # certificate, (1 + delta) s_m, or the bracket would drop below rho
        A = SparseMatrix.from_dense([[0.0, 1.0], [0.31640625, 0.0]])
        rho = np.sqrt(0.31640625)
        s, report = find_perron_value(A, 0.0, 1.0, 0.05, 8.0)
        assert rho * (1 - 1e-12) <= s < (1 + 0.05) * rho
        first = report.info["steps"][0]
        assert first[4] == "is_m_matrix_shifted"
        assert first[2] == 0.5 and first[2] < rho

    def test_eps_below_the_float_spacing_returns(self):
        """An ``eps`` no float can meet at ``rho`` stops the bisection once
        rounding leaves it no progress: it returns the certified upper end a
        few ulps above the lower one instead of repeating one decision."""
        A = SparseMatrix.from_dense(np.roll(np.eye(6), 1, axis=1))
        s, report = find_perron_value(A, 0.0, 2.0, 1e-17, 1.0)
        assert report.iterations < 200
        # the lower end moves only to the midpoints of negative decisions
        lower = max(
            [0.0] + [step[2] for step in report.info["steps"] if step[4] == "not_m_matrix"]
        )
        assert 1.0 <= s <= lower + 4.0 * np.spacing(lower)


class TestSimplePerron:
    def test_two_cycle(self):
        cert = simple_perron(TWO_CYCLE, 0.01, 2.0)
        assert 1.0 <= cert.s < 1.01
        ratio = cert.right / cert.right.max()
        assert np.abs(ratio - 1.0).max() <= 8 * 0.01

    def test_all_ones(self):
        A = SparseMatrix.from_dense([[1.0, 1.0], [1.0, 1.0]])
        cert = simple_perron(A, 0.01, 2.0)
        assert 2.0 <= cert.s < 2.02
        assert np.abs(cert.right / cert.right.max() - 1.0).max() <= 0.1

    def test_residual_contract_on_random(self):
        rng = np.random.default_rng(52)
        n = 30
        A_dense = random_irreducible_dense(rng, n)
        rho, v_r = dense_spectral_radius(A_dense, tol=1e-12)
        _, v_l = dense_spectral_radius(A_dense.T, tol=1e-12)
        K = 1.1 * (v_l.max() / v_l.min() + v_r.max() / v_r.min())
        eps = 0.01
        cert = simple_perron(SparseMatrix.from_dense(A_dense), eps, K)
        assert np.all(cert.right > 0) and np.all(cert.left > 0)
        res = cert.right - A_dense @ cert.right / cert.s
        assert np.abs(res).max() <= 8 * eps * np.abs(cert.right).max()
        assert cert.residual_right <= 8 * eps
        assert cert.residual_left <= 8 * eps


class TestComputePerron:
    def test_two_cycle(self):
        cert = compute_perron(TWO_CYCLE, 0.1)
        assert 0.9 < cert.s <= 1.0 + 1e-12
        ratio = cert.right / cert.right.max()
        assert np.abs(ratio - 1.0).max() <= 1e-6

    def test_all_ones_certification(self):
        A = SparseMatrix.from_dense([[1.0, 1.0], [1.0, 1.0]])
        cert = compute_perron(A, 0.05)
        assert 0.95 * 2.0 < cert.s <= 2.0 * (1 + 1e-12)
        Ar = A.matvec(cert.right)
        assert (Ar / cert.right).min() >= (1 - 0.05) * cert.s

    def test_ill_conditioned_chain_grows_k(self, monkeypatch):
        """The CW bracket certifies this weighted 20-cycle at K=1.  Only the
        bisection fallback, whose K=1 bracket ends far above rho, has to
        double K."""
        M, rho = ill_conditioned_chain()
        delta = 1e-3
        for fallback in (False, True):
            if fallback:
                monkeypatch.setattr(_CWBracket, "upper", lambda self, eps: None)
            cert = compute_perron(SparseMatrix.from_dense(M), delta)
            if fallback:
                assert cert.k_final > 1
            else:
                assert cert.k_final == 1.0
                assert cert.residual_left <= delta / 2
                assert cert.residual_right <= delta / 2
            assert (1 - 1e-3) * rho < cert.s <= rho * (1 + 1e-8)
            assert cert.cw_lower <= rho * (1 + 1e-10)
            assert cert.cw_upper >= rho * (1 - 1e-10)

    def test_later_rounds_bisect_from_the_proven_upper_end(self, monkeypatch):
        """With the bracket failing, each K round after the first bisects
        from the upper end the previous round returned, which a positive
        decision proved whatever K, and so makes fewer decisions than a
        bisection from ``||A||_inf``.  The lower end starts from 0 again: at
        K=1 this chain's negative decisions end far above rho."""
        M, rho = ill_conditioned_chain()
        delta = 1e-3
        monkeypatch.setattr(_CWBracket, "upper", lambda self, eps: None)
        real_find = perronkit.perron.find_perron_value
        real_decide = perronkit.perron._m_decide_scaled
        decisions = [0]
        rounds = []  # (eps, K, upper start, result, decisions)

        def decide(*args):
            decisions[0] += 1
            return real_decide(*args)

        def find(A, s1, s2, eps, K):
            before = decisions[0]
            s, report = real_find(A, s1, s2, eps, K)
            rounds.append((eps, K, s2, s, decisions[0] - before))
            return s, report

        monkeypatch.setattr(perronkit.perron, "_m_decide_scaled", decide)
        monkeypatch.setattr(perronkit.perron, "find_perron_value", find)
        A = SparseMatrix.from_dense(M)
        cert = compute_perron(A, delta)
        assert len(rounds) >= 2 and cert.k_final > 1
        assert (1 - delta) * rho < cert.s <= rho * (1 + 1e-8)
        norm_inf = M.sum(axis=1).max()
        assert rounds[0][2] == norm_inf
        for previous, (eps, K, start, s, made) in zip(rounds, rounds[1:]):
            assert start == previous[3]
            assert rho * (1 - 1e-12) <= s <= start < norm_inf
            before = decisions[0]
            real_find(A, 0.0, norm_inf, eps, K)
            assert made < decisions[0] - before

    def test_fallback_below_the_float_spacing_returns(self, monkeypatch):
        """With the bracket failing, a ``delta`` whose rounds ask the
        bisection for an ``eps`` below the float spacing at ``rho`` ends in a
        typed error after its first round, whose bisection returns an upper
        end at or above ``rho``: the second round's precision is below the
        float spacing and raises at once."""
        monkeypatch.setattr(_CWBracket, "upper", lambda self, eps: None)
        monkeypatch.setattr(perronkit.perron, "_K_CAP", 2.0)
        ends = []
        real_find = perronkit.perron.find_perron_value

        def find(*args):
            s, report = real_find(*args)
            ends.append(s)
            return s, report

        monkeypatch.setattr(perronkit.perron, "find_perron_value", find)
        # a 6-cycle with weights 1, 2, 1, 2, ...: rho = sqrt(2) < ||A||_inf
        M = np.roll(np.diag(np.tile([1.0, 2.0], 3)), 1, axis=1)
        with pytest.raises(KCapExceeded):
            compute_perron(SparseMatrix.from_dense(M), 1e-15)
        assert len(ends) == 1 and min(ends) >= np.sqrt(2.0)

    FLOAT_FLOOR_PROBES = {
        "weighted 6-cycle": np.roll(np.diag(np.tile([1.0, 2.0], 3)), 1, axis=1),
        "unit 6-cycle": np.roll(np.eye(6), 1, axis=1),
        "all-ones 3x3": np.ones((3, 3)),
    }

    @pytest.mark.parametrize("path", ["bracket", "fallback"])
    def test_delta_below_the_float_floor_raises_at_once(self, path, monkeypatch):
        """A ``delta`` whose second round asks for a precision ``delta / (8
        K^2)`` below the float spacing raises :class:`KCapExceeded` at that
        round instead of running every ``K`` up to ``_K_CAP``; one decade
        above, ``delta`` still certifies at ``K`` = 1."""
        if path == "fallback":
            monkeypatch.setattr(_CWBracket, "upper", lambda self, eps: None)
        for name, M in self.FLOAT_FLOOR_PROBES.items():
            A = SparseMatrix.from_dense(M)
            for delta in (1e-15, 1e-16):
                start = time.perf_counter()
                with pytest.raises(KCapExceeded, match="below the float spacing"):
                    compute_perron(A, delta)
                assert time.perf_counter() - start < 5.0, (name, delta)
            assert compute_perron(A, 1e-14).k_final == 1.0, name

    def test_acceptance_soundness_invariant(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            n = int(rng.integers(3, 30))
            A = random_irreducible(rng, n)
            delta = float(rng.uniform(0.005, 0.3))
            cert = compute_perron(A, delta)
            lower, upper = collatz_wielandt_bounds(A, cert.right)
            assert lower >= (1 - delta) * cert.s - 1e-9 * cert.s
            assert lower == cert.cw_lower and upper == cert.cw_upper

    def test_residuals_match_recomputation(self):
        rng = np.random.default_rng(54)
        A = random_irreducible(rng, 15)
        cert = compute_perron(A, 0.01)
        res_r = cert.right - A.matvec(cert.right) / cert.s
        res_l = cert.left - A.matvec(cert.left, transpose=True) / cert.s
        rr = np.abs(res_r).max() / np.abs(cert.right).max()
        rl = np.abs(res_l).max() / np.abs(cert.left).max()
        assert abs(rr - cert.residual_right) <= 1e-12
        assert abs(rl - cert.residual_left) <= 1e-12

    def test_rejects_reducible(self):
        A = SparseMatrix.from_dense([[0.5, 1.0], [0.0, 0.5]])
        with pytest.raises(NotIrreducible):
            compute_perron(A, 0.1)


def ill_conditioned_chain():
    """A 20-cycle with weights over 1e-3..1 and its spectral radius."""
    rng = np.random.default_rng(7)
    n = 20
    M = np.zeros((n, n))
    w = 10.0 ** rng.uniform(-3, 0, n)
    for i in range(n):
        M[i, (i + 1) % n] = w[i]
    rho, _ = dense_spectral_radius(M, tol=1e-12)
    return M, rho


def weighted_cycle(rng, n):
    """A single directed n-cycle: periodic, every eigenvalue on |z| = rho."""
    M = np.zeros((n, n))
    M[np.arange(n), (np.arange(n) + 1) % n] = 10.0 ** rng.uniform(-3, 0, n)
    return M


def weakly_coupled_blocks(rng, n):
    """Two irreducible n-blocks, the second scaled to half the first's
    spectral radius, joined by one 1e-9 entry in each direction."""
    B1 = random_irreducible_dense(rng, n)
    B2 = random_irreducible_dense(rng, n)
    r1, _ = dense_spectral_radius(B1, tol=1e-12)
    r2, _ = dense_spectral_radius(B2, tol=1e-12)
    M = np.zeros((2 * n, 2 * n))
    M[:n, :n] = B1
    M[n:, n:] = B2 * (0.5 * r1 / r2)
    M[rng.integers(n), n + rng.integers(n)] = 1e-9
    M[n + rng.integers(n), rng.integers(n)] = 1e-9
    return M


def wide_range(rng, n):
    """Log-uniform weights over 1e-8..1e8."""
    return random_irreducible_dense(rng, n, density=0.3, log_low=-8.0, log_high=8.0)


def far_scaled(scale):
    """Criterion-01-like weights times ``scale``, so that rho is far from 1."""
    return lambda rng, n: scale * random_irreducible_dense(rng, n)


SOUNDNESS_CASES = (
    [("cycle", weighted_cycle, n) for n in (2, 3, 7, 20)]
    + [("coupled", weakly_coupled_blocks, n) for n in (3, 8, 15)]
    + [("wide", wide_range, n) for n in (5, 10, 20, 30, 40)]
    + [(f"scaled{scale:.0e}", far_scaled(scale), 25) for scale in (1e-12, 1e12)]
)


@pytest.fixture(scope="module")
def soundness_instances():
    instances = []
    for i, (kind, make, n) in enumerate(SOUNDNESS_CASES):
        M = make(np.random.default_rng(100 + i), n)
        rho, _ = dense_spectral_radius(M, tol=1e-12)
        instances.append((f"{kind}-{n}", M, rho))
    return instances


class TestCWBracket:
    """The shift-and-invert bracket and the bisection it falls back to, on
    periodic, nearly reducible and badly scaled inputs."""

    @pytest.mark.parametrize("eps", [1e-3, 1e-8])
    def test_bracket_contract(self, soundness_instances, eps):
        for name, M, rho in soundness_instances:
            s = _CWBracket(SparseMatrix.from_dense(M)).upper(eps)
            assert s is not None, name
            assert rho * (1 - 1e-10) <= s < (1 + eps) * rho * (1 + 1e-10), name

    def test_bracket_continues_from_its_last_iterate(self, soundness_instances):
        """A tighter second call picks up where the first stopped: it ends
        on the same iterate, after the same factorizations, as one call at
        the tighter eps."""
        _, M, rho = soundness_instances[3]
        A = SparseMatrix.from_dense(M)
        bracket = _CWBracket(A)
        loose = bracket.upper(1e-2)
        steps = bracket.factorizations
        tight = bracket.upper(1e-9)
        fresh = _CWBracket(A)
        assert tight == fresh.upper(1e-9)
        assert 0 < steps < bracket.factorizations == fresh.factorizations
        assert rho * (1 - 1e-10) <= tight <= loose
        assert tight < (1 + 1e-9) * rho * (1 + 1e-10)

    def test_bracket_is_scale_invariant(self):
        """The shift margin is relative to rho, so scaling A by c scales the
        bracket by c and takes the same steps, even far from unit scale."""
        A_dense = random_irreducible_dense(np.random.default_rng(4), 25)
        bracket = _CWBracket(SparseMatrix.from_dense(A_dense))
        s = bracket.upper(1e-10)
        for c in (1e-100, 1e-12, 1e12):
            scaled = _CWBracket(SparseMatrix.from_dense(c * A_dense))
            s_c = scaled.upper(1e-10)
            assert s_c is not None and abs(s_c / (c * s) - 1.0) <= 1e-14
            assert scaled.factorizations == bracket.factorizations

    def test_bracket_reports_failure_on_a_nonpositive_iterate(self, monkeypatch):
        def solve(self, b, transpose=False):
            x = b.copy()
            x[0] = -x[0]
            return x

        monkeypatch.setattr("perronkit.rcdd._DirectSolver.solve", solve)
        bracket = _CWBracket(random_irreducible(np.random.default_rng(3), 10))
        assert bracket.upper(1e-3) is None
        assert bracket.failed and bracket.factorizations == 1
        # once failed, every later round takes the fallback
        assert bracket.upper(0.5) is None

    def test_bracket_reports_failure_after_its_step_budget(self, monkeypatch):
        monkeypatch.setattr(
            "perronkit.rcdd._DirectSolver.solve", lambda self, b, transpose=False: b
        )
        bracket = _CWBracket(random_irreducible(np.random.default_rng(3), 10))
        assert bracket.upper(1e-3) is None
        assert bracket.failed and bracket.factorizations == 32

    @pytest.mark.parametrize("path", ["bracket", "fallback"])
    def test_compute_perron_sound(self, soundness_instances, path, monkeypatch):
        if path == "fallback":
            monkeypatch.setattr(_CWBracket, "upper", lambda self, eps: None)
        delta = 1e-3
        for name, M, rho in soundness_instances:
            cert = compute_perron(SparseMatrix.from_dense(M), delta)
            assert (1 - delta) * rho < cert.s <= rho * (1 + 1e-8), name
            assert cert.cw_upper >= rho * (1 - 1e-10), name


class TestCertifySpectralBound:
    """``rho(B) < bound`` from the bracket, and from the refinement loop it
    falls back to, against the dense oracle's radius."""

    MARGINS = (1e-1, 1e-3, 1e-6)

    @pytest.mark.parametrize("path", ["bracket", "fallback"])
    def test_sound_on_both_sides_of_the_bound(self, soundness_instances, path, monkeypatch):
        calls = []
        real = perronkit.perron.compute_perron

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(perronkit.perron, "compute_perron", counted)
        if path == "fallback":
            monkeypatch.setattr(_CWBracket, "decide", lambda self, bound: None)
        for name, M, rho in soundness_instances:
            B = SparseMatrix.from_dense(M)
            for margin in self.MARGINS:
                for bound in (rho * (1 - margin), rho * (1 + margin)):
                    valid, cert = certify_spectral_bound(B, bound)
                    assert valid == (rho < bound), (name, margin)
                    assert cert.s <= rho * (1 + 1e-8), (name, margin)
                    assert cert.cw_upper >= rho * (1 - 1e-10), (name, margin)
                    if valid:
                        assert cert.cw_upper < bound, (name, margin)
                    else:
                        assert cert.s >= bound, (name, margin)
        if path == "bracket":
            assert calls == []
        else:
            assert calls and min(calls) < 1e-6

    def test_bracket_certificate_fields(self):
        B = random_irreducible(np.random.default_rng(21), 15)
        rho, _ = dense_spectral_radius(B.to_dense(), tol=1e-12)
        valid, cert = certify_spectral_bound(B, 1.01 * rho)
        assert valid and cert.k_final == 1.0
        assert (cert.cw_lower, cert.cw_upper) == collatz_wielandt_bounds(B, cert.right)
        left_lower = float((B.to_dense().T @ cert.left / cert.left).min())
        assert cert.s == max(cert.cw_lower, left_lower)
        # the left vector's upper bound is below the bound too
        assert float((B.to_dense().T @ cert.left / cert.left).max()) < 1.01 * rho
        res_r = np.abs(cert.right - B.to_dense() @ cert.right / cert.s).max() / cert.right.max()
        assert cert.residual_right == pytest.approx(res_r, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize(
        "weights", [(1.0, 1.0), (2.0, 0.5, 1.0), (3.0, 1.0 / 3.0, 0.25, 4.0)]
    )
    def test_radius_at_the_bound_is_never_certified_valid(self, weights, monkeypatch):
        """A weighted cycle with weight product 1 has rho = 1 exactly: the
        answer is the invalid side or :class:`BoundaryUndecidable`."""
        n = len(weights)
        M = np.zeros((n, n))
        M[np.arange(n), (np.arange(n) + 1) % n] = weights
        B = SparseMatrix.from_dense(M)
        assert _CWBracket(B).decide(1.0) in (None, False)
        for refinements in (0, 2, 24):
            monkeypatch.setattr(perronkit.perron, "_MAX_REFINEMENTS", refinements)
            try:
                valid, cert = certify_spectral_bound(B, 1.0)
            except BoundaryUndecidable:
                continue
            assert not valid and cert.s >= 1.0

    @staticmethod
    def circulant_at_its_row_sum():
        """A symmetric circulant ``B``, whose Perron vector is all-ones and
        whose ``rho`` is its exact row sum ``R``, and ``bound``, the largest
        float at most ``R``, above every computed row sum."""
        m = 16
        half = np.random.default_rng(1120).uniform(0.01, 1.0, m // 2 + 1)
        row = np.concatenate([half, half[1:-1][::-1]])
        M = np.array([np.roll(row, i) for i in range(m)])
        R = sum(Fraction(float(v)) for v in row)
        bound = float(R)
        if Fraction(bound) > R:
            bound = float(np.nextafter(bound, 0.0))
        B = SparseMatrix.from_dense(M)
        assert np.array_equal(M, M.T)
        assert B.matvec(np.ones(m)).max() < bound <= R
        return B, bound

    def test_rounding_cannot_certify_the_valid_side(self, monkeypatch):
        """Every computed row sum of the circulant rounds below ``bound``: a
        bare comparison would certify ``rho < bound``.  The bracket sees its
        bounds meet within rounding at its first iterate and decides
        nothing."""
        B, bound = self.circulant_at_its_row_sum()
        bracket = _CWBracket(B)
        assert bracket.decide(bound) is None and bracket.factorizations == 0
        assert bracket.met_at_bound and not bracket.failed
        monkeypatch.setattr(perronkit.perron, "_MAX_REFINEMENTS", 0)
        with pytest.raises(BoundaryUndecidable):
            certify_spectral_bound(B, bound)

    def test_rounding_tie_is_undecidable_at_once(self, monkeypatch):
        """With the default refinement budget too, bounds that meet within
        rounding raise :class:`BoundaryUndecidable` without a refinement: a
        ``compute_perron`` at a rounding-level delta can only exhaust its
        conditioning guess."""
        calls = []
        monkeypatch.setattr(
            perronkit.perron, "compute_perron", lambda A, delta: calls.append(delta)
        )
        B, bound = self.circulant_at_its_row_sum()
        with pytest.raises(BoundaryUndecidable, match="rounding"):
            certify_spectral_bound(B, bound)
        assert calls == []

    def test_exhausted_refinement_is_undecidable(self, monkeypatch):
        """A refinement that exhausts its conditioning guess is reported as
        :class:`BoundaryUndecidable`, the error for an undecided bound."""
        monkeypatch.setattr(perronkit.perron, "_CW_MAX_STEPS", 0)

        def exhausted(A, delta):
            raise KCapExceeded("conditioning guess passed the cap")

        monkeypatch.setattr(perronkit.perron, "compute_perron", exhausted)
        B = SparseMatrix.from_dense([[0.0, 0.9], [0.8, 0.1]])
        with pytest.raises(BoundaryUndecidable, match="conditioning guess"):
            certify_spectral_bound(B, 1.0)

    def test_undecided_bracket_takes_the_refinement_loop(self, monkeypatch):
        """An exhausted bracket leaves the decision, and the budget in
        ``_MAX_REFINEMENTS``, to :func:`compute_perron`."""
        monkeypatch.setattr(perronkit.perron, "_CW_MAX_STEPS", 0)
        deltas = []
        real = perronkit.perron.compute_perron
        monkeypatch.setattr(
            perronkit.perron, "compute_perron", lambda A, delta: deltas.append(delta) or real(A, delta)
        )
        # all-ones is the right Perron vector, but not the left one
        B = SparseMatrix.from_dense([[0.0, 0.9], [0.8, 0.1]])
        default = perronkit.perron._MAX_REFINEMENTS
        monkeypatch.setattr(perronkit.perron, "_MAX_REFINEMENTS", 0)
        with pytest.raises(BoundaryUndecidable):
            certify_spectral_bound(B, 1.0)
        assert deltas == []
        monkeypatch.setattr(perronkit.perron, "_MAX_REFINEMENTS", default)
        valid, cert = certify_spectral_bound(B, 1.0)
        assert valid and deltas[:1] == [0.25]

    def test_rejects_reducible_and_bad_bound(self):
        with pytest.raises(NotIrreducible):
            certify_spectral_bound(SparseMatrix.from_dense([[0.5, 1.0], [0.0, 0.5]]))
        with pytest.raises(ValueError):
            certify_spectral_bound(TWO_CYCLE, 0.0)


class TestCertificatesRecompute:
    """Every Perron certificate the package returns can be checked from
    public functions alone: its CW sandwich is exactly
    :func:`collatz_wielandt_bounds` of its right vector, and its residuals
    are the dense eigen-residuals at ``s``."""

    @staticmethod
    def dense_residual(M, x, s):
        return float(np.abs(x - M @ x / s).max() / np.abs(x).max())

    @pytest.mark.parametrize("path", ["bracket", "fallback"])
    def test_certificate_fields_recompute(self, soundness_instances, path, monkeypatch):
        if path == "fallback":
            monkeypatch.setattr(_CWBracket, "upper", lambda self, eps: None)
            monkeypatch.setattr(_CWBracket, "decide", lambda self, bound: None)
        for name, M, rho in soundness_instances:
            A = SparseMatrix.from_dense(M)
            _, v_r = dense_spectral_radius(M, tol=1e-12)
            _, v_l = dense_spectral_radius(M.T, tol=1e-12)
            K = 1.1 * (v_l.max() / v_l.min() + v_r.max() / v_r.min())
            certs = [
                compute_perron(A, 1e-3),
                simple_perron(A, 1e-2, K),
                certify_spectral_bound(A, 1.1 * rho)[1],
            ]
            for cert in certs:
                assert (cert.cw_lower, cert.cw_upper) == collatz_wielandt_bounds(A, cert.right), name
                for got, M_side, x in (
                    (cert.residual_right, M, cert.right),
                    (cert.residual_left, M.T, cert.left),
                ):
                    want = self.dense_residual(M_side, x, cert.s)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-15), name


class TestLargeSparsePath:
    def test_above_dense_cutoff(self):
        # n > _DENSE_CUTOFF routes every phase solve through the Krylov solver
        rng = np.random.default_rng(128)
        n = 400
        assert n > _DENSE_CUTOFF
        M = np.where(rng.random((n, n)) < 0.015, rng.uniform(0.1, 1.0, (n, n)), 0.0)
        perm = rng.permutation(n)
        for i in range(n):
            M[perm[i], perm[(i + 1) % n]] = max(M[perm[i], perm[(i + 1) % n]], 0.3)
        A = SparseMatrix.from_dense(M)
        rho, _ = dense_spectral_radius(M, tol=1e-12)
        cert = compute_perron(A, 1e-3)
        assert (1 - 1e-3) * rho < cert.s <= rho * (1 + 1e-8)
        s = rho / 0.8
        inv = np.linalg.inv(s * np.eye(n) - M)
        K = 1.05 * s * max(np.abs(inv).sum(0).max(), np.abs(inv).sum(1).max())
        pair, _ = mmatrix_scale(A, s, 0.1, K)
        S = apply_scaling(pair.left, shifted_m_matrix(A, s, 0.1), pair.right)
        assert check_rcdd(S, 1e-12)


class TestCollatzWielandt:
    def test_tight_at_symmetric_cycle(self):
        assert collatz_wielandt_bounds(TWO_CYCLE, np.ones(2)) == (1.0, 1.0)

    def test_hand_computed_case(self):
        A = SparseMatrix.from_dense([[1.0, 2.0], [3.0, 1.0]])
        lower, upper = collatz_wielandt_bounds(A, np.ones(2))
        assert (lower, upper) == (3.0, 4.0)
        rho = 1.0 + np.sqrt(6.0)
        assert lower <= rho <= upper

    def test_exact_perron_vector_collapses_the_sandwich(self):
        rng = np.random.default_rng(55)
        A_dense = random_irreducible_dense(rng, 12, density=0.4)
        rho, v = dense_spectral_radius(A_dense, tol=1e-14)
        lower, upper = collatz_wielandt_bounds(SparseMatrix.from_dense(A_dense), v)
        assert abs(lower - rho) <= 1e-10 * rho
        assert abs(upper - rho) <= 1e-10 * rho

    def test_rejects_nonpositive_probe(self):
        with pytest.raises(ValueError):
            collatz_wielandt_bounds(TWO_CYCLE, np.array([1.0, 0.0]))


class TestEigenvectorConditioningLemma:
    def test_shifted_inverse_inf_norm_bound(self):
        # || ((1+eps) I - A/rho)^-1 ||_inf <= kappa(v_R) / eps
        rng = np.random.default_rng(56)
        for _ in range(6):
            n = int(rng.integers(3, 16))
            A = random_irreducible_dense(rng, n, density=0.4)
            rho, v_r = dense_spectral_radius(A, tol=1e-13)
            kappa = v_r.max() / v_r.min()
            for eps in (0.5, 0.05):
                M_eps = (1 + eps) * np.eye(n) - A / rho
                inf_norm = np.abs(np.linalg.inv(M_eps)).sum(axis=1).max()
                assert inf_norm <= kappa / eps * (1 + 1e-6)
