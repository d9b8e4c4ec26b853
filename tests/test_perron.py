"""Decision procedure, eigenvalue bisection, and certified Perron pairs."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import perronkit.perron
import perronkit.rcdd
import perronkit.scaling
from perronkit import (
    BoundaryUndecidable,
    KCapExceeded,
    NotIrreducible,
    ScalingPair,
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
    solve_m,
    symm_scale,
)
from perronkit.oracle import dense_spectral_radius
from perronkit.perron import _CWBracket, _polish_pair
from perronkit.rcdd import _DENSE_CUTOFF
from perronkit.sparse import RCDD_VERIFY_SLACK

from conftest import (
    bracket_off,
    criterion01_dense,
    random_irreducible,
    random_irreducible_dense,
    record_rounds,
    record_scans,
    ring_digraph,
    wide12_dense,
)

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


NAN = float("nan")
HALF_CYCLE = TWO_CYCLE.scaled(0.5)


EPS_GAMMA = "eps and gamma must be positive"
SCALE_ARGS = "s, eps, K must be positive"


def positivity_check(name, call, message):
    """A parameter of the positivity tests: ``call`` of the value checked,
    and the message of the check it must fail."""
    return pytest.param(call, message, id=name)


POSITIVITY_CHECKS = [
    positivity_check("m_decide-eps", lambda v: m_decide(HALF_CYCLE, v, 10.0), EPS_GAMMA),
    positivity_check("m_decide-gamma", lambda v: m_decide(HALF_CYCLE, 0.1, v), EPS_GAMMA),
    positivity_check("scale-s", lambda v: mmatrix_scale(HALF_CYCLE, v, 0.1, 10.0), SCALE_ARGS),
    positivity_check("scale-eps", lambda v: mmatrix_scale(HALF_CYCLE, 1.0, v, 10.0), SCALE_ARGS),
    positivity_check("scale-K", lambda v: mmatrix_scale(HALF_CYCLE, 1.0, 0.1, v), SCALE_ARGS),
    positivity_check(
        "find_perron_value-K",
        lambda v: find_perron_value(HALF_CYCLE, 0.0, 1.0, 0.1, v),
        "K must be positive",
    ),
    positivity_check(
        "simple_perron-K", lambda v: simple_perron(HALF_CYCLE, 0.1, v), "K must be positive"
    ),
    positivity_check("symm_scale-eps", lambda v: symm_scale(HALF_CYCLE, v), "eps must be positive"),
    positivity_check(
        "certify-bound", lambda v: certify_spectral_bound(HALF_CYCLE, v), "bound must be positive"
    ),
]


@pytest.mark.parametrize("call, message", POSITIVITY_CHECKS)
def test_a_nan_fails_the_positivity_checks(call, message):
    """A NaN argument fails its positivity check with that check's message,
    rather than passing it and giving a verdict or an error about
    something else."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(NAN)


@pytest.mark.parametrize(
    "call, message",
    POSITIVITY_CHECKS
    + [
        positivity_check("solve_m-s", lambda v: solve_m(HALF_CYCLE, v, 0.1, 10.0), SCALE_ARGS),
        positivity_check("solve_m-K", lambda v: solve_m(HALF_CYCLE, 1.0, 0.1, v), SCALE_ARGS),
    ],
)
def test_an_infinite_argument_fails_the_positivity_checks(call, message):
    """``+inf`` fails each positivity check too: an infinite tolerance,
    budget, shift or bound would give a verdict, or a report whose
    ``Infinity`` is not valid JSON."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(math.inf)


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

    def test_residual_ceiling_witness_names_the_ceiling(self, monkeypatch):
        """With the bracket off, on ``[[1.5]]`` the scan's inner residual
        grows by 1.5 per step and passes the scan's ceiling long before the
        iteration cap; the witness says so."""
        bracket_off(monkeypatch)
        out = m_decide(SparseMatrix.from_dense([[1.5]]), 0.125, 4.0)
        assert out.verdict is Verdict.NOT_M_MATRIX
        assert out.witness.startswith(
            "inner residual passed its ceiling or went non-finite at phase 2 "
        )
        assert out.certificate is None

    @pytest.mark.parametrize(
        "A_dense",
        [[[1.5]], [[0.0, 2.0], [2.0, 0.0]], [[0.0, 0.9], [1.4, 0.3]]],
        ids=["1x1", "two-cycle", "asymmetric"],
    )
    def test_bracket_negative_recomputes_from_its_vectors(self, A_dense, monkeypatch):
        """The bracket refutes these without a scan and whatever ``gamma``:
        the better CW lower bound of the certificate's two vectors,
        recomputed here, reaches ``1 + eps`` with the ``(n + 2)``-epsilon
        rounding margin."""
        scans = record_scans(monkeypatch)
        A = SparseMatrix.from_dense(A_dense)
        A_t = SparseMatrix.from_dense(np.array(A_dense).T)
        eps = 0.125
        tol = (A.n_rows + 2) * np.finfo(float).eps
        for gamma in (1e-3, 4.0, 1e6):
            out = m_decide(A, eps, gamma)
            assert out.verdict is Verdict.NOT_M_MATRIX and out.report is None
            assert out.witness == "Collatz-Wielandt lower bound reached 1 + eps"
            cert = out.certificate
            lower = max(
                collatz_wielandt_bounds(A, cert.right)[0],
                collatz_wielandt_bounds(A_t, cert.left)[0],
            )
            assert lower == cert.s and lower * (1 - tol) >= 1 + eps
        assert scans == []

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

    def test_small_gamma_witness_proves_nothing(self, monkeypatch):
        """A scan's negative verdict proves ``rho(A) >= 1`` only for a valid
        ``gamma``: with the bracket off, on the weighted 20-cycle over 0.144
        (``rho`` 0.37) a ``gamma`` of 4 gives the ``"solver budget"``
        witness, and the valid budget
        ``max(||(I - A)^-1||_inf, ||(I - A)^-1||_1)`` certifies it."""
        bracket_off(monkeypatch)
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

    def test_small_gamma_is_no_obstacle_to_the_bracket(self):
        """The bracket needs no ``gamma``: on the same chain a ``gamma`` of
        4 gives the positive verdict, with the bracket's own pair, checked
        RCDD on ``(1 + eps) I - A``, as its scaling and no scan phases."""
        M, _ = ill_conditioned_chain()
        A = SparseMatrix.from_dense(M / 0.144)
        out = m_decide(A, 0.05, 4.0)
        assert out.is_m_matrix and out.report.phases == []
        assert out.report.info["bracket_steps"] >= 1
        assert (out.scaling.alpha, out.scaling.s) == (0.05, 1.0)
        S = apply_scaling(
            out.scaling.left, shifted_m_matrix(A, 1.0, 0.05), out.scaling.right
        )
        assert check_rcdd(S, RCDD_VERIFY_SLACK)


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

    @pytest.mark.parametrize(
        "seed, scans_expected", [((6, 3), False), ((351, 6), True)], ids=["6-3", "351-6"]
    )
    def test_a_stalled_bracket_hands_its_round_to_the_scan(self, monkeypatch, seed, scans_expected):
        """Weights over 1e-8..1e8 spread the right Perron vector over many
        decades, and its CW lower bound lags the left one's: continued to a
        round's precision, the bracket meets it with no step.  Such a round
        offers no rejected iterates again.  It steps once more, and at seed
        (6, 3) those steps certify at K = 2 with no scan.  At seed (351, 6)
        the step moves no CW bound, as the bracket has converged as far as
        rounding lets it, so the round hands itself to a scan at the
        bracket's upper end.  Neither bisects, and both certify by K = 64,
        where re-offering the iterates took K to 2**19 (at seed (6, 3)) or
        to the float floor."""
        rng = np.random.default_rng(list(seed))
        n = int(rng.integers(5, 41))
        M = random_irreducible_dense(rng, n, density=0.3, log_low=-8.0, log_high=8.0)
        rho, _ = dense_spectral_radius(M, tol=1e-13)
        rights, bisections = [], []
        real_rounds = perronkit.perron._perron_rounds
        real_find = perronkit.perron._perron_bisection

        def rounds(*args):
            for item in real_rounds(*args):
                if item[2] is not None:
                    rights.append(item[2].right)
                yield item

        def find(*args):
            bisections.append(args)
            return real_find(*args)

        monkeypatch.setattr(perronkit.perron, "_perron_rounds", rounds)
        monkeypatch.setattr(perronkit.perron, "_perron_bisection", find)
        scans = record_scans(monkeypatch)
        cert = compute_perron(SparseMatrix.from_dense(M), 1e-3)
        assert (1 - 1e-3) * rho < cert.s <= rho * (1 + 1e-8)
        assert cert.k_final <= 64 and bool(scans) == scans_expected and not bisections
        assert not any(np.array_equal(a, b) for a, b in zip(rights, rights[1:]))

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
        real_find = perronkit.perron._perron_bisection
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
        monkeypatch.setattr(perronkit.perron, "_perron_bisection", find)
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
        ends = []
        real_find = perronkit.perron._perron_bisection

        def find(*args):
            s, report = real_find(*args)
            ends.append(s)
            return s, report

        monkeypatch.setattr(perronkit.perron, "_perron_bisection", find)
        # a 6-cycle with weights 1, 2, 1, 2, ...: rho = sqrt(2) < ||A||_inf
        M = np.roll(np.diag(np.tile([1.0, 2.0], 3)), 1, axis=1)
        with pytest.raises(KCapExceeded):
            compute_perron(SparseMatrix.from_dense(M), 1e-15)
        assert len(ends) == 1 and min(ends) >= np.sqrt(2.0)

    def test_fallback_bisects_from_the_failed_brackets_lower_bound(self, monkeypatch):
        """A bracket that fails after a step leaves a CW lower bound that
        holds for any ``K``: the first bisection starts just below it, less
        the ``(n + 2)``-epsilon rounding margin, instead of at 0."""
        monkeypatch.setattr(perronkit.scaling, "_CW_MAX_STEPS", 1)
        brackets, starts = [], []

        class Bracket(_CWBracket):
            def __init__(self, A, **kwargs):
                super().__init__(A, **kwargs)
                brackets.append(self)

        real_find = perronkit.perron._perron_bisection

        def find(A, s1, s2, eps, K):
            starts.append(s1)
            return real_find(A, s1, s2, eps, K)

        monkeypatch.setattr(perronkit.perron, "_CWBracket", Bracket)
        monkeypatch.setattr(perronkit.perron, "_perron_bisection", find)
        M, rho = ill_conditioned_chain()
        delta = 1e-3
        cert = compute_perron(SparseMatrix.from_dense(M), delta)
        (bracket,) = brackets
        assert bracket.failed and bracket.factorizations == 1
        tol = (M.shape[0] + 2) * np.finfo(float).eps
        assert starts and starts[0] == bracket.lower * (1.0 - tol)
        assert 0.0 < starts[0] < rho
        assert (1 - delta) * rho < cert.s <= rho * (1 + 1e-8)

    def test_the_fallback_checks_the_structure_once(self, monkeypatch):
        """With the bracket failing, every round bisects, and none of them
        checks the structure again: one ``compute_perron`` call makes one
        ``is_irreducible`` call, however many rounds it takes.  The public
        ``find_perron_value`` still checks it."""
        monkeypatch.setattr(_CWBracket, "upper", lambda self, eps: None)
        calls = []
        real = perronkit.perron.is_irreducible

        def is_irreducible(A):
            calls.append(A)
            return real(A)

        monkeypatch.setattr(perronkit.perron, "is_irreducible", is_irreducible)
        M, rho = ill_conditioned_chain()
        A = SparseMatrix.from_dense(M)
        cert = compute_perron(A, 1e-3)
        assert cert.k_final >= 4 and calls == [A]
        find_perron_value(A, 0.0, 1.0, 0.1, 4.0)
        assert calls == [A, A]
        with pytest.raises(NotIrreducible):
            compute_perron(SparseMatrix.from_dense([[1.0, 1.0], [0.0, 1.0]]), 1e-3)

    def test_near_cycle_certifies_from_the_bracket_pair(self):
        """A ring plus one random out-edge per node (n = 500, Perron vector
        spread about 4e11): the polished scaling pair misses the residual
        threshold in every round, so ``K`` doubled until the bracket failed
        and each bisection took seconds; the bracket's own pair certifies at
        ``K`` = 1, checked here from both vectors' CW bounds."""
        A = ring_digraph(np.random.default_rng(1), 500, out_degree=1)
        delta = 1e-3
        start = time.perf_counter()
        cert = compute_perron(A, delta)
        assert time.perf_counter() - start < 5.0
        assert cert.k_final == 1.0
        lower, upper = collatz_wielandt_bounds(A, cert.right)
        lower_left, upper_left = collatz_wielandt_bounds(A.transpose(), cert.left)
        assert (1 - delta) * min(upper, upper_left) <= cert.s <= max(lower, lower_left)

    FLOAT_FLOOR_PROBES = {
        "weighted 6-cycle": np.roll(np.diag(np.tile([1.0, 2.0], 3)), 1, axis=1),
        "unit 6-cycle": np.roll(np.eye(6), 1, axis=1),
        "all-ones 3x3": np.ones((3, 3)),
    }

    @pytest.mark.parametrize("path", ["bracket", "fallback"])
    def test_delta_below_the_float_floor_raises_at_once(self, path, monkeypatch):
        """A ``delta`` whose second round asks for a precision ``delta / (8
        K^2)`` below the float spacing raises :class:`KCapExceeded` at that
        round instead of running more rounds; one decade above, ``delta``
        still certifies at ``K`` = 1.  With the bracket on, the unit 6-cycle
        and all-ones 3x3 certify at ``delta`` = 1e-15 from the bracket's own
        pair, whose CW sandwich is exact on both sides; at 1e-16 the
        bracket's stopping test cannot pass and every probe still raises."""
        if path == "fallback":
            monkeypatch.setattr(_CWBracket, "upper", lambda self, eps: None)
        exact = {"unit 6-cycle", "all-ones 3x3"} if path == "bracket" else set()
        for name, M in self.FLOAT_FLOOR_PROBES.items():
            A = SparseMatrix.from_dense(M)
            for delta in (1e-15, 1e-16):
                start = time.perf_counter()
                if delta == 1e-15 and name in exact:
                    cert = compute_perron(A, delta)
                    lower, upper = collatz_wielandt_bounds(A, cert.right)
                    lower_left, upper_left = collatz_wielandt_bounds(
                        SparseMatrix.from_dense(M.T), cert.left
                    )
                    assert cert.cw_lower == cert.cw_upper == cert.s, name
                    assert lower == upper == lower_left == upper_left == cert.s, name
                else:
                    with pytest.raises(KCapExceeded, match="below the float spacing"):
                        compute_perron(A, delta)
                assert time.perf_counter() - start < 5.0, (name, delta)
            assert compute_perron(A, 1e-14).k_final == 1.0, name

    def test_acceptance_soundness_invariant(self, monkeypatch):
        """On the bracket's own pair and, with the bracket forced off, on the
        scaled pair, every accepted certificate passes the acceptance checks
        again from its vectors alone: both CW sandwiches (the left one on
        ``A.T``) and both residuals against ``delta / (2 K^2)``."""
        for path in ("bracket", "fallback"):
            with monkeypatch.context() as patch:
                if path == "fallback":
                    patch.setattr(_CWBracket, "upper", lambda self, eps: None)
                rng = np.random.default_rng(53)
                for _ in range(10):
                    n = int(rng.integers(3, 30))
                    A = random_irreducible(rng, n)
                    A_t = A.transpose()
                    tol = (n + 2) * np.finfo(float).eps
                    delta = float(rng.uniform(0.005, 0.3))
                    cert = compute_perron(A, delta)
                    lower, upper = collatz_wielandt_bounds(A, cert.right)
                    lower_left, upper_left = collatz_wielandt_bounds(A_t, cert.left)
                    assert lower >= (1 - delta) * cert.s - 1e-9 * cert.s, path
                    assert lower == cert.cw_lower and upper == cert.cw_upper, path
                    # s is the better CW lower bound, below both upper ones
                    assert cert.s == pytest.approx(max(lower, lower_left), rel=tol), path
                    assert cert.s <= min(upper, upper_left) * (1 + tol), path
                    threshold = delta / (2.0 * cert.k_final**2)
                    for x, Ax in (
                        (cert.right, A.matvec(cert.right)),
                        (cert.left, A_t.matvec(cert.left)),
                    ):
                        residual = np.abs(x - Ax / cert.s).max() / np.abs(x).max()
                        assert residual <= threshold, path

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
        """A tighter second call picks up where the first stopped, the held
        LU included: it ends on the same iterate, after the same steps of
        each kind, as one call at the tighter eps."""
        _, M, rho = soundness_instances[3]
        A = SparseMatrix.from_dense(M)
        bracket = _CWBracket(A)
        loose = bracket.upper(1e-2)
        steps = bracket.steps
        tight = bracket.upper(1e-9)
        fresh = _CWBracket(A)
        assert tight == fresh.upper(1e-9)
        assert 0 < steps < bracket.steps == fresh.steps
        assert bracket.step_counts == fresh.step_counts
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
        def solve(self, b, transpose, tol):
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
            "perronkit.rcdd._DirectSolver.solve", lambda self, b, transpose, tol: b
        )
        bracket = _CWBracket(random_irreducible(np.random.default_rng(3), 10))
        assert bracket.upper(1e-3) is None
        assert bracket.failed and bracket.factorizations == 32

    @pytest.mark.parametrize("n, lam", [(4, 100.0), (8, 100.0), (10, 30.0), (12, 100.0)])
    def test_a_zero_lower_bound_does_not_stop_the_bracket(self, n, lam):
        """A weighted path is reducible with a zero row and a zero column, so
        every CW lower bound is 0; the upper bounds still bound ``rho`` = 0
        and the bracket settles ``rho < 1``, its pair scaling ``I - B``
        RCDD."""
        B = SparseMatrix.from_dense(lam * np.diag(np.ones(n - 1), 1))
        bracket = _CWBracket(B)
        assert bracket.decide(1.0) is True
        assert bracket.lower == 0.0 and 0 < bracket.factorizations < 32
        S = apply_scaling(bracket.left, shifted_m_matrix(B, 1.0), bracket.right)
        assert check_rcdd(S, RCDD_VERIFY_SLACK)

    def test_the_zero_matrix_never_steps(self):
        """Zero CW bounds settle every positive bound at the first iterate;
        ``upper`` cannot bracket ``rho`` = 0 relatively and ends without a
        step."""
        assert _CWBracket(SparseMatrix.zeros(4)).decide(1e-300) is True
        bracket = _CWBracket(SparseMatrix.zeros(4))
        assert bracket.upper(1e-3) is None
        assert bracket.failed and bracket.factorizations == 0

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
    """``rho(B) < bound`` from the bracket, and from the rounds it falls
    back to, against the dense oracle's radius."""

    MARGINS = (1e-1, 1e-3, 1e-6)

    @pytest.mark.parametrize("path", ["bracket", "fallback"])
    def test_sound_on_both_sides_of_the_bound(self, soundness_instances, path, monkeypatch):
        """Each verdict is re-checked from the certificate's vectors alone:
        both CW upper bounds below the bound, or a CW lower bound at or above
        it, with the ``(n + 2)``-epsilon rounding margin."""
        rounds = record_rounds(monkeypatch)
        if path == "fallback":
            monkeypatch.setattr(_CWBracket, "decide", lambda self, bound: None)
        for name, M, rho in soundness_instances:
            B = SparseMatrix.from_dense(M)
            B_t = SparseMatrix.from_dense(M.T)
            tol = (B.n_rows + 2) * np.finfo(float).eps
            for margin in self.MARGINS:
                for bound in (rho * (1 - margin), rho * (1 + margin)):
                    valid, cert = certify_spectral_bound(B, bound)
                    assert valid == (rho < bound), (name, margin)
                    assert cert.s <= rho * (1 + 1e-8), (name, margin)
                    assert cert.cw_upper >= rho * (1 - 1e-10), (name, margin)
                    lo_right, hi_right = collatz_wielandt_bounds(B, cert.right)
                    lo_left, hi_left = collatz_wielandt_bounds(B_t, cert.left)
                    if valid:
                        assert cert.cw_upper < bound, (name, margin)
                        assert max(hi_right, hi_left) * (1 + tol) < bound, (name, margin)
                    else:
                        assert cert.s >= bound, (name, margin)
                        assert max(lo_right, lo_left) * (1 - tol) >= bound, (name, margin)
        if path == "bracket":
            assert rounds == []
        else:
            assert rounds and max(rounds) > 1.0

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
        for limit in (0, 2, None):
            with monkeypatch.context() as patch:
                record_rounds(patch, limit)
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

    def test_rounding_cannot_certify_the_valid_side(self):
        """Every computed row sum of the circulant rounds below ``bound``: a
        bare comparison would certify ``rho < bound``.  The bracket sees its
        bounds meet within rounding at its first iterate and decides
        nothing."""
        B, bound = self.circulant_at_its_row_sum()
        bracket = _CWBracket(B)
        assert bracket.decide(bound) is None and bracket.factorizations == 0
        assert bracket.met_at_bound and not bracket.failed
        with pytest.raises(BoundaryUndecidable):
            certify_spectral_bound(B, bound)

    def test_rounding_tie_is_undecidable_at_once(self, monkeypatch):
        """Bounds that meet within rounding raise
        :class:`BoundaryUndecidable` without a round: rounds can only run to
        the float floor there."""
        rounds = record_rounds(monkeypatch)
        B, bound = self.circulant_at_its_row_sum()
        with pytest.raises(BoundaryUndecidable, match="rounding"):
            certify_spectral_bound(B, bound)
        assert rounds == []

    def test_exhausted_rounds_are_undecidable(self, monkeypatch):
        """Rounds that end in :class:`KCapExceeded` are reported as
        :class:`BoundaryUndecidable`, the error for an undecided bound."""
        monkeypatch.setattr(perronkit.scaling, "_CW_MAX_STEPS", 0)
        record_rounds(monkeypatch, 0)
        B = SparseMatrix.from_dense([[0.0, 0.9], [0.8, 0.1]])
        with pytest.raises(BoundaryUndecidable, match="round budget"):
            certify_spectral_bound(B, 1.0)

    def test_undecided_bracket_takes_the_round_loop(self, monkeypatch):
        """An exhausted bracket leaves the decision to the rounds of
        ``_perron_rounds``, continued from that bracket."""
        monkeypatch.setattr(perronkit.scaling, "_CW_MAX_STEPS", 0)
        # all-ones is the right Perron vector, but not the left one
        B = SparseMatrix.from_dense([[0.0, 0.9], [0.8, 0.1]])
        with monkeypatch.context() as patch:
            rounds = record_rounds(patch, 0)
            with pytest.raises(BoundaryUndecidable):
                certify_spectral_bound(B, 1.0)
        assert rounds == []
        rounds = record_rounds(monkeypatch)
        valid, cert = certify_spectral_bound(B, 1.0)
        assert valid and rounds[:1] == [1.0]

    def test_fallback_continues_the_failed_bracket(self, soundness_instances, monkeypatch):
        """With the bracket forced off, the rounds share one bisection that
        each round narrows, instead of a ``compute_perron`` per refinement
        restarting it from ``||B||_inf``: the wide-weight n=5 instance at a
        1e-6 margin certifies within seconds."""
        monkeypatch.setattr(_CWBracket, "decide", lambda self, bound: None)
        monkeypatch.setattr(_CWBracket, "upper", lambda self, eps: None)
        ((M, rho),) = [(M, rho) for name, M, rho in soundness_instances if name == "wide-5"]
        start = time.perf_counter()
        valid, cert = certify_spectral_bound(SparseMatrix.from_dense(M), rho * (1 + 1e-6))
        assert valid and cert.cw_upper < rho * (1 + 1e-6)
        assert time.perf_counter() - start < 10.0

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


def test_bracket_certificates_reuse_the_brackets_products(monkeypatch):
    """A certificate of the bracket's own iterates takes ``A r`` and ``A.T
    l`` and their CW bounds from the bracket, which formed them for those
    very arrays: it makes no product and computes no CW ratio, where one
    built from scratch makes 2 of each, the bracket's products and bounds
    have the bits of the iterates' own, and every field equals the
    from-scratch certificate's bit for bit.  Covers ``compute_perron``
    below and above the dense cutoff, a negative ``m_decide`` and
    ``certify_spectral_bound``."""
    real_bracket_certificate = perronkit.perron._bracket_certificate
    real_certificate = perronkit.perron._certificate
    real_product = SparseMatrix._product
    real_ratios = perronkit.perron._cw_ratio_bounds
    made = [0]
    ratios = [0]

    def product(self, x, transpose=False):
        made[0] += 1
        return real_product(self, x, transpose)

    def ratio_bounds(Ax, x):
        ratios[0] += 1
        return real_ratios(Ax, x)

    seen = []

    def bracket_certificate(bracket, k_final):
        before = made[0], ratios[0]
        cert = real_bracket_certificate(bracket, k_final)
        spent = made[0] - before[0], ratios[0] - before[1]
        bounds = bracket.cw_right, bracket.cw_left
        seen.append((bracket.A, bracket.products, *bounds, k_final, spent, cert))
        return cert

    monkeypatch.setattr(SparseMatrix, "_product", product)
    monkeypatch.setattr(perronkit.perron, "_cw_ratio_bounds", ratio_bounds)
    monkeypatch.setattr(perronkit.perron, "_bracket_certificate", bracket_certificate)
    rng = np.random.default_rng(93)
    for n in (6, 25):
        compute_perron(random_irreducible(rng, n), 1e-3)
    A = ring_digraph(rng, _DENSE_CUTOFF + 50, 3)
    compute_perron(A, 1e-3)
    rho = compute_perron(A, 1e-6).s
    assert not m_decide(A.scaled(1.1 / rho), 1e-3, 1e3).is_m_matrix
    assert certify_spectral_bound(A.scaled(0.9 / rho))[0]
    assert len(seen) >= 6
    for A, (right, left, Ar, Atl), cw_right, cw_left, k_final, spent, cert in seen:
        assert spent == (0, 0)
        assert Ar.tobytes() == real_product(A, right).tobytes()
        assert Atl.tobytes() == real_product(A, left, True).tobytes()
        assert cw_right == real_ratios(Ar, right) and cw_left == real_ratios(Atl, left)
        before = made[0], ratios[0]
        fresh = real_certificate(A, left, right, k_final)
        assert (made[0] - before[0], ratios[0] - before[1]) == (2, 2)
        for field in ("s", "k_final", "residual_left", "residual_right", "cw_lower", "cw_upper"):
            assert getattr(cert, field) == getattr(fresh, field)
        assert cert.left is fresh.left and cert.right is fresh.right


class TestResolveSteps:
    """The bracket's re-solves below the dense cutoff: the last
    shift-and-invert step's LU tried on the current iterates before a
    fresh factorization, each kept only when it cuts the CW gap to a
    quarter."""

    def test_every_resolved_iterate_brackets_rho(self, soundness_instances, monkeypatch):
        """Every iterate a kept re-solve makes, right and left, is positive,
        and its CW bounds lie on either side of the oracle's ``rho``, on
        criterion-01 inputs 0..199 and the soundness instances: the held
        shift stays above ``rho``, so its inverse is entrywise positive."""
        kept = []
        real = _CWBracket._resolve_step

        def resolve_step(self):
            if real(self):
                kept.append((self.right, self.left, self.cw_right, self.cw_left))
                return True
            return False

        monkeypatch.setattr(_CWBracket, "_resolve_step", resolve_step)
        cases = [(f"criterion-01 {seed}", criterion01_dense(seed)) for seed in range(200)]
        cases += [(name, M) for name, M, _ in soundness_instances]
        for name, M in cases:
            rho, _ = dense_spectral_radius(M, tol=1e-12)
            before = len(kept)
            assert _CWBracket(SparseMatrix.from_dense(M)).upper(1e-8) is not None, name
            for right, left, *bounds in kept[before:]:
                assert np.all(right > 0.0) and np.all(left > 0.0), name
                for lower, upper in bounds:
                    assert lower <= rho * (1 + 1e-10) and upper >= rho * (1 - 1e-10), name
        assert len(kept) >= len(cases)

    def test_criterion01_input_437_certifies_at_k1(self):
        """Criterion-01 input 437 rose to ``K`` = 262144 when re-solves
        stopped its bracket just past each round's precision and only a
        lagging right CW lower bound earned a further step; with a step for
        any failed acceptance test it certifies at ``K`` = 1."""
        M = criterion01_dense(437)
        rho, _ = dense_spectral_radius(M, tol=1e-12)
        cert = compute_perron(SparseMatrix.from_dense(M), 1e-3)
        assert cert.k_final == 1.0
        assert (1 - 1e-3) * rho < cert.s <= rho * (1 + 1e-8)

    def test_a_round_that_only_resolved_builds_no_problem(self, monkeypatch):
        """Criterion-01 input 0, its ``K`` = 1 pair rejected: the ``K`` = 2
        round's bracket moves by one re-solve and no factorization.  A
        re-solve is a step, so the round is no stall: it offers those
        iterates with no further step, builds no :class:`_Problem` and runs
        no scan.  Left out of the step count, re-solves made such rounds
        scan."""
        builds, offers, step_calls = [], [], []
        real_init = perronkit.scaling._Problem.__init__

        def init(self, A, scale):
            builds.append(scale)
            real_init(self, A, scale)

        class Bracket(_CWBracket):
            def upper(self, eps):
                s = super().upper(eps)
                offers.append((self.factorizations, self.resolve_steps))
                return s

            def step(self):
                step_calls.append(self.steps)
                return super().step()

        monkeypatch.setattr(perronkit.scaling._Problem, "__init__", init)
        monkeypatch.setattr(perronkit.perron, "_CWBracket", Bracket)
        scans = record_scans(monkeypatch)
        calls = []
        real_certificate = perronkit.perron._certificate

        def certificate(*args, **kwargs):
            calls.append(None)
            return None if len(calls) == 1 else real_certificate(*args, **kwargs)

        monkeypatch.setattr(perronkit.perron, "_certificate", certificate)
        cert = compute_perron(SparseMatrix.from_dense(criterion01_dense(0)), 1e-3)
        assert cert.k_final == 2.0 and len(offers) == 2
        (fact_1, resolved_1), (fact_2, resolved_2) = offers
        assert fact_2 == fact_1 and resolved_2 == resolved_1 + 1
        assert builds == [] and scans == [] and step_calls == []


class TestPowerSteps:
    """The bracket's power phase: trial steps ``A r``, ``A.T l`` ahead of the
    shift-and-invert steps, each kept only when it cuts the CW gap by 5%."""

    def test_every_power_iterate_brackets_rho(self, soundness_instances, monkeypatch):
        """The CW bounds of every kept power iterate, right and left, lie on
        either side of the oracle's ``rho``: they are CW bounds of positive
        vectors, whatever the input."""
        kept = []
        real = _CWBracket._power_step

        def power_step(self):
            if real(self):
                kept.append((self.cw_right, self.cw_left))
                return True
            return False

        monkeypatch.setattr(_CWBracket, "_power_step", power_step)
        for name, M, rho in soundness_instances:
            before = len(kept)
            assert _CWBracket(SparseMatrix.from_dense(M)).upper(1e-8) is not None, name
            for bounds in kept[before:]:
                for lower, upper in bounds:
                    assert lower <= rho * (1 + 1e-10) and upper >= rho * (1 - 1e-10), name
        assert len(kept) >= len(soundness_instances)

    @pytest.mark.parametrize("name", ["weighted 6-cycle", "unit 6-cycle"])
    def test_periodic_inputs_keep_no_power_step(self, name):
        """On a cycle a power step only permutes the CW ratios, so no trial
        narrows the gap and none is kept; the weighted cycle's bracket
        settles by shift-and-invert steps, the unit one's all-ones start is
        already exact."""
        A = SparseMatrix.from_dense(TestComputePerron.FLOAT_FLOOR_PROBES[name])
        bracket = _CWBracket(A)
        assert bracket.upper(1e-8) is not None
        assert bracket.power_steps == 0
        assert (bracket.factorizations > 0) == (name == "weighted 6-cycle")

    def test_a_zero_row_skips_the_power_candidate(self):
        """On the weighted path, whose last row is zero, ``A r`` has a zero
        entry: the candidate is skipped, the power phase ends, and the
        shift-and-invert steps settle ``rho < 1`` from the start's iterates."""
        B = SparseMatrix.from_dense(100.0 * np.diag(np.ones(7), 1))
        bracket = _CWBracket(B)
        assert bracket.decide(1.0) is True
        assert bracket.power_steps == 0 and bracket.factorizations > 0
        assert np.all(bracket.right > 0.0) and np.all(bracket.left > 0.0)

    def test_a_round_moved_by_power_steps_alone_offers_its_pair(self, monkeypatch):
        """Every step counts as new iterates: with the ``K`` = 1 pair
        rejected, a round whose bracket moves by one power step and no solve
        offers the new pair, which certifies at ``K`` = 2 with no scan.  The
        all-ones start of this rank-one ``u u.T`` has a CW gap of about 1e-4
        on both sides, within ``eps`` at ``K`` = 1 but not at ``K`` = 2, and
        one power step makes it exact up to rounding."""
        scans = record_scans(monkeypatch)
        rejected = []
        real = perronkit.perron._certificate

        def certificate(*args, **kwargs):
            rejected.append(None)
            return None if len(rejected) == 1 else real(*args, **kwargs)

        monkeypatch.setattr(perronkit.perron, "_certificate", certificate)
        brackets = []

        class Bracket(_CWBracket):
            def __init__(self, A, **kwargs):
                super().__init__(A, **kwargs)
                brackets.append(self)

        monkeypatch.setattr(perronkit.perron, "_CWBracket", Bracket)
        u = 1.0 + 1e-4 * np.linspace(0.0, 1.0, 5)
        A = SparseMatrix.from_dense(np.outer(u, u) / u.size)
        cert = compute_perron(A, 1e-3)
        ((bracket,),) = [brackets]
        assert cert.k_final == 2.0 and scans == []
        assert bracket.factorizations == 0 and bracket.power_steps >= 1

    def test_a_solve_is_priced_in_power_steps(self, monkeypatch):
        """The power phase prices a shift-and-invert step at its least cost
        counted in power steps, two products each: 2 two-sided and 1.5
        one-sided up to the dense cutoff (a triangular solve per side), 4
        and 2.5 above it (a BiCGSTAB iteration and its true-residual product
        per side), on one matrix with the cutoff on either side of its
        size."""
        A = ring_digraph(np.random.default_rng(0), 40, 2)
        for cutoff, costs in ((40, (2.0, 1.5)), (39, (4.0, 2.5))):
            monkeypatch.setattr(perronkit.rcdd, "_DENSE_CUTOFF", cutoff)
            assert _CWBracket(A)._solve_cost() == costs[0]
            assert _CWBracket(A, symmetric=True)._solve_cost() == costs[1]

    def test_power_steps_settle_a_well_mixed_decision(self):
        """On a ring with five random out-edges per node, above the dense
        cutoff, at ``rho`` = 0.9, power steps alone settle ``rho < 1 +
        eps``: ``m_decide`` takes no shift-and-invert step.  Four power
        steps, the least cost of a Krylov step, contract the CW gap more
        than that step would, so the power phase runs until the bound
        settles."""
        A = ring_digraph(np.random.default_rng(0), 700, 5)
        assert A.n_rows > _DENSE_CUTOFF
        rho, _ = dense_spectral_radius(A.to_dense(), tol=1e-12)
        outcome = m_decide(A.scaled(0.9 / rho), 1e-3, 1e3)
        assert outcome.is_m_matrix
        assert outcome.report.info["bracket_steps"] == 0
        assert outcome.report.info["power_steps"] >= 1

    def test_wide_weights_input_65_certifies_at_k1(self):
        """The wide-weight input ``i`` = 65 (n = 11), which an unconditional
        first power step sent to ``K`` = 1024, certifies at ``K`` = 1 within
        ``delta`` of the oracle."""
        M = wide12_dense(65)
        assert M.shape == (11, 11)
        cert = compute_perron(SparseMatrix.from_dense(M), 1e-3)
        rho, _ = dense_spectral_radius(M)
        assert cert.k_final == 1.0
        assert (1.0 - 1e-3) * rho < cert.s <= rho * (1.0 + 1e-8)

    def test_a_lagging_right_vector_takes_one_more_step(self, monkeypatch):
        """On these criterion-01 inputs the bracket's ``K`` = 1 pair fails only
        the right vector's CW lower-bound test; one more step at the same
        ``K`` certifies it, so all certify at ``K`` = 1 (the first three at
        ``K`` = 2 without that step)."""
        steps = []
        real = _CWBracket.step

        def step(self):
            steps.append(None)
            return real(self)

        monkeypatch.setattr(_CWBracket, "step", step)
        for seed in (782, 847, 969, 581, 792, 813, 898, 930):
            A = SparseMatrix.from_dense(criterion01_dense(seed))
            assert compute_perron(A, 1e-3).k_final == 1.0, seed
        assert len(steps) >= 3
        monkeypatch.setattr(_CWBracket, "step", lambda self: False)
        for seed in (782, 847, 969):
            A = SparseMatrix.from_dense(criterion01_dense(seed))
            assert compute_perron(A, 1e-3).k_final == 2.0, seed


def test_the_polish_ends_at_the_last_positive_pair():
    """``_polish_pair`` keeps each inverse application whose two vectors
    are positive and stops at the first that is not: with ``S^-1 = [[1,
    -1/2], [0, 1]]`` the first application of the all-ones pair is
    positive, ``([1, 1/2], [1/2, 1])``, and the second has a zero entry on
    both sides, so the first is returned; from a pair whose first
    application is not positive the pair itself is."""
    pair = ScalingPair(np.ones(2), np.ones(2), alpha=0.0, s=1.0)
    S = SparseMatrix.from_dense([[1.0, 0.5], [0.0, 1.0]]).csr()
    left, right = _polish_pair(S, pair)
    assert left.tolist() == [1.0, 0.5] and right.tolist() == [0.5, 1.0]
    S = SparseMatrix.from_dense([[1.0, 2.0], [0.0, 1.0]]).csr()
    left, right = _polish_pair(S, pair)
    assert left is pair.left and right is pair.right
