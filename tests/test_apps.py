"""Katz centrality, Leontief equilibrium, singular triplets, graph kernels."""

import re

import numpy as np
import pytest

import perronkit.apps as apps_module
from perronkit import (
    DecayTooLarge,
    IterationCapHit,
    KernelDiverges,
    LabeledGraph,
    ProductWeights,
    ReducibleGram,
    RoundingFloorHit,
    SparseMatrix,
    graph_kernel,
    katz_centrality,
    leontief_equilibrium,
    load_labeled_graph,
    product_graph,
    solve_m,
    top_singular,
)
from perronkit.oracle import dense_solve, dense_spectral_radius, dense_svd_top

from conftest import (
    bracket_off,
    build_counts,
    random_irreducible_dense,
    random_m_matrix_dense,
    record_builds,
)

TWO_CYCLE = SparseMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
ONE_BRACKET_ONE_SOLVER = {"_CWBracket": 1, "_halving_scan": 0, "_PhaseSolver": 1}


def assert_certifies_divergence(B_dense, cert):
    """``cert``'s two vectors prove ``rho(B) >= 1`` on their own: the better
    CW lower bound, recomputed densely, reaches 1 with the ``(n + 2)``
    epsilon rounding margin."""
    tol = (B_dense.shape[0] + 2) * np.finfo(float).eps
    lower = max(
        float((B_dense @ cert.right / cert.right).min()),
        float((B_dense.T @ cert.left / cert.left).min()),
    )
    assert lower * (1.0 + tol) >= cert.s and lower * (1.0 - tol) >= 1.0


def brute_force_product(G, H, similarity):
    """Quadratic reference builder looping over all edge pairs."""
    n = G.n_vertices * H.n_vertices
    W = np.zeros((n, n))
    for (u, w, lg, wg) in G.edges:
        for (v, z, lh, wh) in H.edges:
            W[u * H.n_vertices + v, w * H.n_vertices + z] += (
                similarity(lg, lh) * wg * wh
            )
    return W


def decay_app_calls(eps):
    """Each decay application called at ``eps``, on a nontrivial input and
    on its trivial case (zero decay or an empty matrix)."""
    W = product_graph(
        LabeledGraph(2, ((0, 1, 1, 1.0), (1, 0, 1, 1.0)), 1),
        LabeledGraph(2, ((0, 1, 1, 1.0), (1, 0, 1, 1.0)), 1),
    )
    uniform = np.full(4, 0.25)
    b = np.ones(2)
    return {
        "katz": (
            lambda: katz_centrality(TWO_CYCLE, 0.5, b, eps),
            lambda: katz_centrality(TWO_CYCLE, 0.0, b, eps),
        ),
        "leontief": (
            lambda: leontief_equilibrium(TWO_CYCLE.scaled(0.5), b, eps),
            lambda: leontief_equilibrium(SparseMatrix.zeros(2), b, eps),
        ),
        "kernel": (
            lambda: graph_kernel(W, uniform, uniform, 0.25, eps),
            lambda: graph_kernel(W, uniform, uniform, 0.0, eps),
        ),
    }


@pytest.mark.parametrize("eps", [0.0, 1.0, 1.5, -1.0, float("nan")])
@pytest.mark.parametrize("app", ["katz", "leontief", "kernel"])
def test_decay_apps_reject_an_eps_outside_the_unit_interval(app, eps):
    """Katz, Leontief and the kernel check ``eps`` as ``solve_m`` does,
    before their trivial cases: an ``eps`` of 1 or more would pass the zero
    vector as an answer, and 0, a negative or NaN would fail deep inside
    the operator."""
    for call in decay_app_calls(eps)[app]:
        with pytest.raises(ValueError, match=r"^eps must lie in \(0, 1\)$"):
            call()


@pytest.mark.parametrize(
    "A, message",
    [
        (SparseMatrix.from_dense(np.ones((2, 3))), "expected a square matrix"),
        (SparseMatrix.from_dense([[0.0, -0.5], [0.5, 0.0]]), "matrix must be entrywise nonnegative"),
    ],
    ids=["non-square", "negative"],
)
def test_katz_and_leontief_reject_a_matrix_that_is_not_square_nonnegative(A, message):
    """Katz and Leontief take ``A`` through the package's one square and
    nonnegative check, with its messages."""
    for call in (
        lambda: katz_centrality(A, 0.5, np.ones(2), 1e-8),
        lambda: leontief_equilibrium(A, np.ones(2), 1e-8),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


class TestKatz:
    def test_zero_matrix(self):
        v, _ = katz_centrality(SparseMatrix.zeros(3), 0.3, np.ones(3), 1e-10)
        assert np.array_equal(v, np.ones(3))

    def test_two_cycle(self):
        v, _ = katz_centrality(TWO_CYCLE, 0.5, np.ones(2), 1e-10)
        assert np.allclose(v, [2.0, 2.0], atol=1e-8)

    def test_random_graph_against_dense(self):
        rng = np.random.default_rng(60)
        n = 50
        A_dense = random_irreducible_dense(rng, n, density=0.15)
        rho, _ = dense_spectral_radius(A_dense)
        alpha = 0.9 / rho
        b = rng.random(n) + 0.01
        eps = 1e-10
        v, report = katz_centrality(SparseMatrix.from_dense(A_dense), alpha, b, eps)
        exact = dense_solve(np.eye(n) - alpha * A_dense, b)
        assert np.linalg.norm(v - exact) <= 1e-8 * np.linalg.norm(exact)
        assert report.residuals[-1] <= eps

    def test_decay_too_large(self):
        with pytest.raises(DecayTooLarge):
            katz_centrality(TWO_CYCLE, 1.5, np.ones(2), 1e-8)

    def test_decay_too_large_carries_a_checkable_certificate(self):
        """The error carries the certificate of ``alpha A`` that proves
        ``rho(alpha A) >= 1``: the better CW lower bound of its two vectors,
        recomputed here, reaches 1."""
        A_dense = random_irreducible_dense(np.random.default_rng(62), 12, density=0.3)
        rho, _ = dense_spectral_radius(A_dense)
        alpha = 1.01 / rho
        with pytest.raises(DecayTooLarge) as info:
            katz_centrality(SparseMatrix.from_dense(A_dense), alpha, np.ones(12), 1e-8)
        assert_certifies_divergence(alpha * A_dense, info.value.certificate)

    def test_a_refutation_by_the_rounds_carries_their_certificate(self, monkeypatch):
        """With the fixed-shift bracket off, the decay decision on an
        irreducible ``A`` at ``alpha rho`` = 1.2 hands the negative side to
        :func:`certify_spectral_bound`'s rounds: the error carries their
        certificate, whose CW lower bound, recomputed here, proves ``rho(alpha
        A) >= 1``."""
        bracket_off(monkeypatch)
        A_dense = random_irreducible_dense(np.random.default_rng(63), 12, density=0.3)
        rho, _ = dense_spectral_radius(A_dense)
        alpha = 1.2 / rho
        with pytest.raises(DecayTooLarge) as info:
            katz_centrality(SparseMatrix.from_dense(A_dense), alpha, np.ones(12), 1e-8)
        cert = info.value.certificate
        assert cert is not None and cert.s >= 1.0
        assert_certifies_divergence(alpha * A_dense, cert)

    def test_reducible_path(self):
        """Katz on a directed path, a reducible graph with ``rho`` = 0: the
        whole matrix's bracket decides the decay, whatever ``alpha``, and
        the solve runs on its pair."""
        n, alpha, eps = 6, 3.0, 1e-10
        A_dense = np.diag(np.ones(n - 1), 1)
        b = np.linspace(1.0, 2.0, n)
        v, report = katz_centrality(SparseMatrix.from_dense(A_dense), alpha, b, eps)
        exact = dense_solve(np.eye(n) - alpha * A_dense, b)
        assert np.linalg.norm(v - exact) <= 1e-8 * np.linalg.norm(exact)
        assert np.linalg.norm(v - alpha * A_dense @ v - b) <= eps * np.linalg.norm(b)
        assert report.residuals[-1] <= eps

    def test_neumann_series_identity(self):
        rng = np.random.default_rng(61)
        for _ in range(5):
            n = int(rng.integers(3, 21))
            A_dense = random_irreducible_dense(rng, n, density=0.3)
            ninf = np.abs(A_dense).sum(axis=1).max()
            alpha = 0.5 / ninf
            b = rng.random(n)
            v, _ = katz_centrality(
                SparseMatrix.from_dense(A_dense), alpha, b, 1e-12
            )
            series = np.zeros(n)
            term = b.copy()
            for _ in range(61):
                series += term
                term = alpha * (A_dense @ term)
            assert np.linalg.norm(v - series) <= 1e-8 * np.linalg.norm(series)


class TestLeontief:
    def test_half_two_cycle(self):
        verdict, x = leontief_equilibrium(TWO_CYCLE.scaled(0.5), np.ones(2), 1e-10)
        assert verdict
        assert np.allclose(x, [2.0, 2.0], atol=1e-8)

    def test_double_two_cycle_fails(self):
        verdict, x = leontief_equilibrium(TWO_CYCLE.scaled(2.0), np.ones(2), 1e-10)
        assert not verdict and x is None

    def test_random_productive_economy(self):
        rng = np.random.default_rng(62)
        n = 30
        A_dense = random_m_matrix_dense(rng, n, rho_ratio=0.8)
        d = rng.random(n)
        verdict, x = leontief_equilibrium(SparseMatrix.from_dense(A_dense), d, 1e-10)
        assert verdict
        exact = dense_solve(np.eye(n) - A_dense, d)
        assert np.linalg.norm(x - exact) <= 1e-8 * np.linalg.norm(exact)
        assert x.min() >= -1e-9

    def test_a_reducible_economy_solves(self):
        """A reducible economy is decided by the whole matrix's bracket and
        solved on its pair, with no decomposition."""
        A_dense = np.array([[0.1, 0.5], [0.0, 0.1]])
        d = np.array([1.0, 2.0])
        verdict, x = leontief_equilibrium(SparseMatrix.from_dense(A_dense), d, 1e-10)
        assert verdict
        exact = dense_solve(np.eye(2) - A_dense, d)
        assert np.linalg.norm(x - exact) <= 1e-8 * np.linalg.norm(exact)
        assert np.linalg.norm(x - A_dense @ x - d) <= 1e-10 * np.linalg.norm(d)


class TestTopSingular:
    def test_golden_ratio_case(self):
        trip = top_singular(SparseMatrix.from_dense([[1.0, 1.0], [0.0, 1.0]]), 1e-6)
        expected = np.sqrt((3.0 + np.sqrt(5.0)) / 2.0)
        assert trip.sigma == pytest.approx(expected, rel=1e-6)
        assert trip.sigma == pytest.approx(1.6180, abs=1e-4)

    def test_scaled_all_ones(self):
        c = 0.7
        trip = top_singular(SparseMatrix.from_dense(c * np.ones((2, 2))), 1e-8)
        assert trip.sigma == pytest.approx(2.0 * c, rel=1e-7)
        assert np.allclose(np.abs(trip.right), np.sqrt(0.5), atol=1e-6)
        assert np.allclose(np.abs(trip.left), np.sqrt(0.5), atol=1e-6)

    def test_random_against_dense_svd(self):
        rng = np.random.default_rng(63)
        for _ in range(5):
            n = int(rng.integers(5, 31))
            A_dense = random_irreducible_dense(rng, n, density=0.3)
            sigma_ref, _, _ = dense_svd_top(A_dense, tol=1e-13)
            trip = top_singular(SparseMatrix.from_dense(A_dense), 1e-7)
            assert abs(trip.sigma - sigma_ref) <= 1e-6 * sigma_ref

    def test_rectangular(self):
        rng = np.random.default_rng(64)
        A_dense = rng.random((12, 7)) + 0.05
        sigma_ref, _, _ = dense_svd_top(A_dense, tol=1e-13)
        trip = top_singular(SparseMatrix.from_dense(A_dense), 1e-7)
        assert abs(trip.sigma - sigma_ref) <= 1e-6 * sigma_ref
        assert trip.left.shape == (12,) and trip.right.shape == (7,)

    def test_reducible_gram(self):
        # permutation matrix: A^T A = I is reducible
        with pytest.raises(ReducibleGram):
            top_singular(TWO_CYCLE, 1e-6)

    def test_gram_consistency(self):
        rng = np.random.default_rng(65)
        A_dense = random_irreducible_dense(rng, 10, density=0.4)
        delta = 1e-6
        trip = top_singular(SparseMatrix.from_dense(A_dense), delta)
        quad = trip.right @ (A_dense.T @ (A_dense @ trip.right))
        assert abs(trip.sigma**2 - quad) <= 2 * delta * trip.sigma**2


class TestProductGraph:
    def test_single_matching_edges(self):
        G = LabeledGraph(2, [(0, 1, 1, 1.0)], 1)
        W = product_graph(G, G)
        dense = W.matrix.to_dense()
        assert W.matrix.shape == (4, 4)
        assert dense[W.index(0, 0), W.index(1, 1)] == 1.0
        assert dense.sum() == 1.0

    def test_disjoint_labels_give_zero(self):
        G = LabeledGraph(2, [(0, 1, 1, 1.0)], 2)
        H = LabeledGraph(2, [(0, 1, 2, 1.0)], 2)
        W = product_graph(G, H)
        assert W.matrix.nnz == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(66)
        for _ in range(5):
            G = self._random_graph(rng, 5, 8, 3)
            H = self._random_graph(rng, 5, 9, 3)
            W = product_graph(G, H)
            ref = brute_force_product(G, H, lambda a, b: 1.0 if a == b else 0.0)
            assert np.array_equal(W.matrix.to_dense(), ref)

    def test_nnz_counts_matching_edge_pairs(self):
        rng = np.random.default_rng(67)
        G = self._random_graph(rng, 4, 7, 2)
        H = self._random_graph(rng, 4, 6, 2)
        W = product_graph(G, H)
        count = 0
        seen = set()
        for (u, w, lg, _) in G.edges:
            for (v, z, lh, _) in H.edges:
                if lg == lh:
                    key = (u * 4 + v, w * 4 + z)
                    if key not in seen:
                        seen.add(key)
                        count += 1
        assert W.matrix.nnz == count

    def test_custom_similarity(self):
        G = LabeledGraph(2, [(0, 1, 1, 2.0)], 2)
        H = LabeledGraph(2, [(1, 0, 2, 3.0)], 2)
        W = product_graph(G, H, similarity=lambda a, b: 0.5 * a * b)
        dense = W.matrix.to_dense()
        assert dense[W.index(0, 1), W.index(1, 0)] == 0.5 * 1 * 2 * 2.0 * 3.0

    @staticmethod
    def _random_graph(rng, n, m, d):
        edges = []
        for _ in range(m):
            u, v = (int(x) for x in rng.integers(0, n, 2))
            edges.append((u, v, int(rng.integers(1, d + 1)), float(rng.random()) + 0.1))
        return LabeledGraph(n, edges, d)


class TestReducibleDecay:
    """``rho(B) < 1`` for reducible ``B``: the whole matrix's bracket decides
    it, and only a bracket that settles nothing hands the negative side to
    the strongly connected blocks, each certified on its own."""

    # blocks {0, 1} (rho about 0.67) and {2, 3} (rho 0.5), an edge between
    # them and a zero row
    BLOCKS = np.array(
        [
            [0.3, 0.5, 0.1, 0.0, 0.0],
            [0.2, 0.4, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.5, 0.0],
            [0.0, 0.0, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0],
        ]
    )

    def count_block_certificates(self, monkeypatch):
        calls = []
        real = apps_module.certify_spectral_bound

        def counted(B, bound=1.0):
            calls.append(B.n_rows)
            return real(B, bound)

        monkeypatch.setattr(apps_module, "certify_spectral_bound", counted)
        return calls

    @staticmethod
    def count_block_refutations(monkeypatch):
        calls = []
        real = apps_module._certify_reducible_decay

        def counted(B):
            calls.append(B.n_rows)
            return real(B)

        monkeypatch.setattr(apps_module, "_certify_reducible_decay", counted)
        return calls

    @pytest.mark.parametrize("scale", [1.0, 1.4])
    def test_valid_side_certifies_every_block(self, monkeypatch, scale):
        calls = self.count_block_certificates(monkeypatch)
        M = scale * self.BLOCKS
        assert np.abs(np.linalg.eigvals(M)).max() < 1.0
        assert apps_module._certify_reducible_decay(SparseMatrix.from_dense(M))
        assert calls == [2, 2]

    def test_invalid_side(self, monkeypatch):
        calls = self.count_block_certificates(monkeypatch)
        M = 1.6 * self.BLOCKS
        assert np.abs(np.linalg.eigvals(M)).max() > 1.0
        assert not apps_module._certify_reducible_decay(SparseMatrix.from_dense(M))
        assert calls and set(calls) == {2}

    @pytest.mark.parametrize("scale", [1.0, 1.2, 1.4])
    def test_the_whole_bracket_decides_the_valid_side(self, monkeypatch, scale):
        """The zero row keeps the CW lower bound at 0, yet the bracket's
        upper bounds settle ``rho < 1`` on the whole matrix: no block is
        certified, no scan runs, and the solve builds one phase solver, on
        the bracket's pair."""
        refutations = self.count_block_refutations(monkeypatch)
        built = record_builds(monkeypatch)
        W = ProductWeights(SparseMatrix.from_dense(self.BLOCKS), 5, 1)
        p = np.full(5, 0.2)
        value, _ = graph_kernel(W, p, p, scale, 1e-12)
        exact = p @ np.linalg.solve(np.eye(5) - scale * self.BLOCKS, p)
        assert abs(value - exact) <= 1e-9 * abs(exact)
        assert refutations == [] and build_counts(built) == ONE_BRACKET_ONE_SOLVER
        (bracket,), (solver,) = built["_CWBracket"], built["_PhaseSolver"]
        assert solver.ell is bracket.left and solver.r is bracket.right

    def test_invalid_side_raises_without_a_certificate(self, monkeypatch):
        """At scale 1.6 (``rho`` about 1.07) the lower bound stays 0 and the
        bracket settles nothing, so a block refutes ``rho < 1``: Katz and
        the kernel raise with no certificate."""
        refutations = self.count_block_refutations(monkeypatch)
        A = SparseMatrix.from_dense(self.BLOCKS)
        with pytest.raises(DecayTooLarge, match="strongly connected component") as katz:
            katz_centrality(A, 1.6, np.ones(5), 1e-8)
        p = np.full(5, 0.2)
        with pytest.raises(KernelDiverges, match="strongly connected component") as kernel:
            graph_kernel(ProductWeights(A, 5, 1), p, p, 1.6, 1e-8)
        assert katz.value.certificate is None and kernel.value.certificate is None
        assert refutations == [5, 5]
        verdict, x = leontief_equilibrium(A.scaled(1.6), np.ones(5))
        assert not verdict and x is None

    def test_a_stalled_bracket_stops_early(self, monkeypatch):
        """At scale 1.6 the zero row keeps the lower bound at 0 while the
        upper bound stalls near ``rho`` = 1.07: the whole matrix's bracket
        settles nothing within 8 steps, where it used to spend all 32, and
        Katz, the kernel and Leontief keep their outcomes, each from a
        block's refutation, with no scan and no solve."""
        built = record_builds(monkeypatch)
        A = SparseMatrix.from_dense(self.BLOCKS)
        p = np.full(5, 0.2)
        with pytest.raises(DecayTooLarge, match="strongly connected component"):
            katz_centrality(A, 1.6, np.ones(5), 1e-8)
        with pytest.raises(KernelDiverges, match="strongly connected component"):
            graph_kernel(ProductWeights(A, 5, 1), p, p, 1.6, 1e-8)
        assert leontief_equilibrium(A.scaled(1.6), np.ones(5)) == (False, None)
        whole = [bracket for bracket in built["_CWBracket"] if bracket.A.n_rows == 5]
        assert len(whole) == 3
        assert all(1 <= bracket.factorizations <= 8 for bracket in whole)
        assert build_counts(built)["_halving_scan"] == build_counts(built)["_PhaseSolver"] == 0

    def test_a_diagonal_block_refutes_the_decay(self):
        """On ``[[1.5, 0], [0, 0]]`` the zero row and column keep the lower
        bound at 0 and stall the bracket, and the single-entry block ``1.5
        >= 1`` refutes ``rho < 1``: Leontief returns no equilibrium, and
        Katz at ``alpha`` = 1 raises with no certificate."""
        A = SparseMatrix.from_dense([[1.5, 0.0], [0.0, 0.0]])
        assert leontief_equilibrium(A, np.ones(2), 1e-8) == (False, None)
        with pytest.raises(DecayTooLarge, match="strongly connected component") as info:
            katz_centrality(A, 1.0, np.ones(2), 1e-8)
        assert info.value.certificate is None

    def test_a_reducible_negative_carries_the_bracket_certificate(self):
        """With no zero row the CW lower bound of a reducible matrix is
        positive, and the whole bracket refutes ``rho < 1`` with its own
        certificate."""
        A_dense = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(DecayTooLarge) as info:
            katz_centrality(SparseMatrix.from_dense(A_dense), 1.5, np.ones(2), 1e-8)
        assert_certifies_divergence(1.5 * A_dense, info.value.certificate)

    def test_every_block_certified_without_a_scaling_is_a_typed_error(self, monkeypatch):
        """Should the whole bracket settle nothing on the valid side, the
        blocks prove ``rho < 1`` but no pair scales ``I - B``: a typed
        error, never a guessed conditioning bound."""
        bracket_off(monkeypatch)
        built = record_builds(monkeypatch)
        p = np.full(5, 0.2)
        W = ProductWeights(SparseMatrix.from_dense(self.BLOCKS), 5, 1)
        with pytest.raises(IterationCapHit, match="found no scaling") as info:
            graph_kernel(W, p, p, 1.0, 1e-8)
        assert not isinstance(info.value, RoundingFloorHit)
        # the whole matrix's bracket and one per block; no scan, no solve
        assert build_counts(built) == {"_CWBracket": 3, "_halving_scan": 0, "_PhaseSolver": 0}

    @staticmethod
    def weighted_path(n, lam):
        """``lam`` times the path ``0 -> 1 -> ... -> n-1``, a reducible
        product graph with ``rho`` = 0 and ``||(I - B)^-1||`` about
        ``lam^(n-1)``, and the uniform distribution on its vertices."""
        path = np.diag(np.ones(n - 1), 1)
        return path, SparseMatrix.from_dense(lam * path), np.full(n, 1.0 / n)

    def test_a_weighted_path_solves_on_the_bracket_pair(self, monkeypatch):
        """On a weighted path, a reducible product graph with ``rho`` = 0
        and ``||(I - B)^-1||`` about 1e6, the bracket's pair scales ``I -
        B`` and the kernel solves on it: one bracket, one phase solver, no
        scan.  ``solve_m`` itself, at a ``K`` = 16 far below that norm,
        solves too: its scaling is the bracket's, which needs no ``K``."""
        n, lam, eps = 4, 100.0, 1e-6
        path, B, p = self.weighted_path(n, lam)
        x = solve_m(B, 1.0, eps, 16.0).apply(p)
        assert np.linalg.norm(x - lam * path @ x - p) <= eps * np.linalg.norm(p)
        built = record_builds(monkeypatch)
        value, _ = graph_kernel(ProductWeights(SparseMatrix.from_dense(path), n, 1), p, p, lam, eps)
        assert build_counts(built) == ONE_BRACKET_ONE_SOLVER
        inverse = np.linalg.inv(np.eye(n) - lam * path)
        error_bound = eps * np.linalg.norm(p) ** 2 * np.linalg.norm(inverse, 2)
        assert abs(value - p @ inverse @ p) <= error_bound

    def test_a_rounding_floor_is_not_retried(self, monkeypatch):
        """On the weighted path n = 8, lam = 100, ``||x||`` is about 1e13:
        the solve on the bracket's pair, its phase solver at the ``K`` the
        pair proves, which dominates both induced norms of ``(I - B)^-1``,
        refines until its residual's rounding bound alone exceeds ``eps
        ||b||``.  No ``K`` changes ``||x||``, so that failure propagates at
        once, with no second solve and no scan."""
        n, lam, eps = 8, 100.0, 1e-6
        path, _, p = self.weighted_path(n, lam)
        built = record_builds(monkeypatch)
        with pytest.raises(RoundingFloorHit, match="cannot certify its residual"):
            graph_kernel(ProductWeights(SparseMatrix.from_dense(path), n, 1), p, p, lam, eps)
        assert build_counts(built) == ONE_BRACKET_ONE_SOLVER
        (solver,) = built["_PhaseSolver"]
        inverse = np.linalg.inv(np.eye(n) - lam * path)
        # the solver's tolerance is 1 / (8 K)
        K = 1.0 / (8.0 * solver.tol)
        assert K >= max(np.linalg.norm(inverse, np.inf), np.linalg.norm(inverse, 1))

    def test_the_reducible_kernel_bound_covers_the_oracle(self):
        """On weighted paths and products of ``BLOCKS`` the reported bound
        is at least the dense oracle's ``||q|| eps ||p|| ||(I - lam
        W)^-1||_2`` and covers the kernel's error."""
        eps = 1e-6
        cases = [self.weighted_path(4, 100.0)[0], self.weighted_path(5, 30.0)[0]]
        lams = [100.0, 30.0]
        for scale in (1.0, 1.2, 1.4):
            cases.append(self.BLOCKS)
            lams.append(scale)
        rng = np.random.default_rng(71)
        for dense, lam in zip(cases, lams):
            n = dense.shape[0]
            p = rng.random(n)
            p /= p.sum()
            q = rng.random(n)
            q /= q.sum()
            W = ProductWeights(SparseMatrix.from_dense(dense), n, 1)
            value, report = graph_kernel(W, p, q, lam, eps)
            resolvent = np.linalg.inv(np.eye(n) - lam * dense)
            oracle_bound = np.linalg.norm(q) * eps * np.linalg.norm(p) * np.linalg.norm(resolvent, 2)
            bound = report.info["scalar_error_bound"]
            assert oracle_bound <= bound, (n, lam)
            assert abs(value - q @ resolvent @ p) <= bound, (n, lam)

    def test_kernel_on_a_reducible_product(self):
        W = ProductWeights(SparseMatrix.from_dense(self.BLOCKS), 5, 1)
        p = np.full(5, 0.2)
        value, _ = graph_kernel(W, p, p, 1.2, 1e-12)
        exact = p @ np.linalg.solve(np.eye(5) - 1.2 * self.BLOCKS, p)
        assert abs(value - exact) <= 1e-9 * abs(exact)


@pytest.mark.parametrize("case", ["irreducible-csr", "blocks"])
def test_each_decay_app_builds_one_bracket_and_one_solver(monkeypatch, case):
    """Katz, Leontief and the kernel each build one bracket for their
    decision and one phase solver for their solve, on that bracket's pair,
    and run no scan: on an irreducible input above the dense cutoff at
    ``rho`` = 0.99 and on the reducible ``BLOCKS``."""
    if case == "blocks":
        B_dense = TestReducibleDecay.BLOCKS
    else:
        A_dense = random_irreducible_dense(np.random.default_rng(58), 400, density=0.02)
        B_dense = A_dense * (0.99 / dense_spectral_radius(A_dense, tol=1e-12)[0])
    B = SparseMatrix.from_dense(B_dense)
    n, eps = B.n_rows, 1e-8
    b = np.ones(n)
    p = np.full(n, 1.0 / n)
    exact = np.linalg.solve(np.eye(n) - B_dense, b)
    calls = {
        "katz": lambda: katz_centrality(B, 1.0, b, eps)[0],
        "leontief": lambda: leontief_equilibrium(B, b, eps)[1],
        "kernel": lambda: graph_kernel(ProductWeights(B, n, 1), p, p, 1.0, eps),
    }
    for name, call in calls.items():
        with monkeypatch.context() as patch:
            built = record_builds(patch)
            result = call()
        assert build_counts(built) == ONE_BRACKET_ONE_SOLVER, name
        (bracket,), (solver,) = built["_CWBracket"], built["_PhaseSolver"]
        assert np.array_equal(solver.ell, bracket.left) and np.array_equal(solver.r, bracket.right)
        if name == "kernel":
            value, report = result
            assert abs(value - p @ exact / n) <= report.info["scalar_error_bound"], name
        else:
            assert np.linalg.norm(result - B_dense @ result - b) <= eps * np.linalg.norm(b), name


class TestGraphKernel:
    def test_lambda_zero_is_inner_product(self):
        W = ProductWeights(SparseMatrix.from_dense(np.ones((3, 3))), 3, 1)
        p = np.array([0.2, 0.3, 0.5])
        q = np.array([0.5, 0.25, 0.25])
        value, _ = graph_kernel(W, p, q, 0.0, 1e-8)
        assert value == float(q @ p)

    def test_two_cycle_product(self):
        W = ProductWeights(TWO_CYCLE, 2, 1)
        p = np.array([0.5, 0.5])
        value, _ = graph_kernel(W, p, p, 0.5, 1e-10)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_matches_dense_resolvent(self):
        rng = np.random.default_rng(68)
        for _ in range(3):
            G = TestProductGraph._random_graph(rng, 6, 14, 2)
            H = TestProductGraph._random_graph(rng, 6, 15, 2)
            W = product_graph(G, H)
            dense = W.matrix.to_dense()
            if not (dense.sum(axis=1) > 0).all():
                # kernels only need convergence; keep the instance anyway
                pass
            rho = np.abs(np.linalg.eigvals(dense)).max()
            if rho == 0.0:
                continue
            lam = 0.5 / rho
            n = dense.shape[0]
            p = rng.random(n)
            p /= p.sum()
            q = rng.random(n)
            q /= q.sum()
            value, report = graph_kernel(W, p, q, lam, 1e-12)
            exact = q @ np.linalg.solve(np.eye(n) - lam * dense, p)
            assert abs(value - exact) <= 1e-8 * max(1.0, abs(exact))
            assert report.info["scalar_error_bound"] >= 0.0

    def test_diverging_kernel(self):
        W = ProductWeights(TWO_CYCLE, 2, 1)
        p = np.array([0.5, 0.5])
        with pytest.raises(KernelDiverges) as info:
            graph_kernel(W, p, p, 1.5, 1e-8)
        assert_certifies_divergence(1.5 * TWO_CYCLE.to_dense(), info.value.certificate)

    def test_error_bound_from_the_certificate(self):
        """The scalar error bound is ``||q|| eps ||p||`` times the
        certificate's bound on ``||(I - lam W)^-1||_2``, which dominates the
        dense oracle's norm, and it covers the kernel's error against the
        dense resolvent."""
        rng = np.random.default_rng(70)

        def ring_graph(n):
            # a ring, a self-loop and random edges, one label: the product of
            # two is strongly connected and aperiodic, hence irreducible
            edges = [(i, (i + 1) % n) for i in range(n)] + [(0, 0)]
            edges += [tuple(int(v) for v in rng.integers(0, n, 2)) for _ in range(n)]
            return LabeledGraph(n, [(u, v, 1, float(rng.random()) + 0.1) for u, v in edges], 1)

        for ratio in (0.5, 0.9, 0.99):
            W = product_graph(ring_graph(5), ring_graph(6))
            dense = W.matrix.to_dense()
            assert apps_module.is_irreducible(W.matrix)
            rho = np.abs(np.linalg.eigvals(dense)).max()
            lam = ratio / rho
            n = dense.shape[0]
            p = rng.random(n)
            p /= p.sum()
            q = rng.random(n)
            q /= q.sum()
            eps = 1e-6
            value, report = graph_kernel(W, p, q, lam, eps)
            resolvent = np.linalg.inv(np.eye(n) - lam * dense)
            scale = np.linalg.norm(q) * eps * np.linalg.norm(p)
            oracle_bound = scale * np.linalg.norm(resolvent, 2)
            bound = report.info["scalar_error_bound"]
            assert oracle_bound <= bound, ratio
            assert abs(value - q @ resolvent @ p) <= bound, ratio

    def test_symmetric_kernel_dominates_p_norm(self):
        rng = np.random.default_rng(69)
        M = random_irreducible_dense(rng, 8, density=0.4)
        M = (M + M.T) / 2.0
        rho, _ = dense_spectral_radius(M)
        W = ProductWeights(SparseMatrix.from_dense(M), 8, 1)
        p = rng.random(8)
        p /= p.sum()
        value, _ = graph_kernel(W, p, p, 0.4 / rho, 1e-10)
        assert value >= float(p @ p) - 1e-10

    def test_validates_distributions(self):
        W = ProductWeights(TWO_CYCLE, 2, 1)
        with pytest.raises(ValueError):
            graph_kernel(W, np.array([0.5, 0.6]), np.array([0.5, 0.5]), 0.1, 1e-8)


class TestLabeledGraphIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 2 2\n1 2 1 1.5\n2 3 2 0.25\n")
        G = load_labeled_graph(path)
        assert G.n_vertices == 3 and G.n_labels == 2
        assert G.edges == ((0, 1, 1, 1.5), (1, 2, 2, 0.25))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 2\n")
        with pytest.raises(ValueError):
            load_labeled_graph(path)

    @pytest.mark.parametrize(
        "text, line, bad",
        [
            ("3 2 1\n1 2 1 1.0\n2 x 1 1.0\n", 3, "'x'"),
            ("3 1 1\n1 2 1 abc\n", 2, "'abc'"),
            ("3 two 1\n", 1, "'two'"),
        ],
        ids=["vertex", "weight", "header"],
    )
    def test_a_malformed_number_names_its_line(self, tmp_path, text, line, bad):
        path = tmp_path / "g.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"g\.txt: line {line}: .*{bad}"):
            load_labeled_graph(path)

    def test_label_range_enforced(self):
        with pytest.raises(ValueError):
            LabeledGraph(2, [(0, 1, 3, 1.0)], 2)


@pytest.mark.parametrize("shape", [(9, 5), (5, 9)], ids=["tall", "wide"])
def test_singular_residuals_are_the_gram_residuals(shape):
    """Both residuals are the singular vectors' relative eigen-residuals on
    their Gram matrices at ``sigma**2``, the derived side's included."""
    rng = np.random.default_rng(70)
    A_dense = rng.random(shape) + 0.05
    trip = top_singular(SparseMatrix.from_dense(A_dense), 1e-9)
    s = trip.sigma**2
    for vec, gram, res in (
        (trip.right, A_dense.T @ A_dense, trip.residuals[0]),
        (trip.left, A_dense @ A_dense.T, trip.residuals[1]),
    ):
        assert np.all(vec > 0.0)
        expected = np.abs(vec - gram @ vec / s).max() / np.abs(vec).max()
        assert res == pytest.approx(expected, rel=1e-6, abs=1e-14)
        assert res <= 1e-8
    sigma_ref, u_ref, v_ref = dense_svd_top(A_dense, tol=1e-13)
    assert np.allclose(np.abs(trip.left), np.abs(u_ref), atol=1e-8)
    assert np.allclose(np.abs(trip.right), np.abs(v_ref), atol=1e-8)


@pytest.mark.parametrize(
    "args, message",
    [
        ((0, (), 1), "graph needs at least one vertex"),
        ((2, (), 0), "graph needs at least one label class"),
        ((2, ((0, 2, 1, 1.0),), 1), r"edge \(0, 2\) out of range"),
        ((2, ((-1, 1, 1, 1.0),), 1), r"edge \(-1, 1\) out of range"),
        ((2, ((0, 1, 3, 1.0),), 2), r"label 3 outside 1\.\.2"),
        ((2, ((0, 1, 1, -1.0),), 1), "edge weights must be finite and nonnegative"),
        ((2, ((0, 1, 1, float("inf")),), 1), "edge weights must be finite and nonnegative"),
    ],
    ids=["no-vertex", "no-label-class", "edge-past-end", "edge-negative", "label", "negative-weight", "infinite-weight"],
)
def test_labeled_graph_rejects_bad_fields(args, message):
    """A labeled graph checks its vertex and label-class counts, each
    edge's endpoints and label, and each weight, naming what failed."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        LabeledGraph(*args)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty graph file"),
        ("# only a comment\n\n", "empty graph file"),
        ("3 2 1\n1 2 1 1.0\n", "declared 2 edges, found 1"),
        ("3 1 1\n1 2 1 1.0\n2 3 1 1.0\n", "declared 1 edges, found 2"),
        ("3 1 1\n1 2 1\n", "line 2: edge must be 'u v label weight'"),
        ("3 1 1\n1 4 1 1.0\n", "line 2: vertex out of range"),
        ("3 1 1\n0 2 1 1.0\n", "line 2: vertex out of range"),
    ],
    ids=["empty", "comments-only", "too-few-edges", "too-many-edges", "edge-shape", "vertex-past-end", "vertex-zero"],
)
def test_load_labeled_graph_rejects_bad_files(tmp_path, text, message):
    """The loader names the file, and the line where there is one, for an
    empty file, an edge count that differs from the header's, an edge line
    that is not four fields and a vertex outside ``1..n``."""
    path = tmp_path / "g.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}$"):
        load_labeled_graph(path)


@pytest.mark.parametrize(
    "alpha, b, message",
    [
        (0.5, [1.0, -1.0], "b must be nonnegative and nonzero"),
        (0.5, [0.0, 0.0], "b must be nonnegative and nonzero"),
        (-0.5, [1.0, 1.0], "decay must be nonnegative"),
    ],
    ids=["negative-b", "zero-b", "negative-decay"],
)
def test_katz_rejects_bad_arguments(alpha, b, message):
    """Katz needs a nonnegative, nonzero ``b`` and a nonnegative decay."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        katz_centrality(TWO_CYCLE, alpha, np.array(b), 1e-8)


@pytest.mark.parametrize("d", [[-1.0, 1.0], [0.0, -1e-300]], ids=["negative", "tiny-negative"])
def test_leontief_rejects_a_negative_demand(d):
    """A demand with a negative entry is rejected before any decision."""
    with pytest.raises(ValueError, match="^demand must be nonnegative$"):
        leontief_equilibrium(TWO_CYCLE.scaled(0.5), np.array(d), 1e-8)


@pytest.mark.parametrize(
    "p, q, lam, message",
    [
        ([-0.5, 1.5], [0.5, 0.5], 0.1, "p must be nonnegative"),
        ([0.5, 0.5], [1.5, -0.5], 0.1, "q must be nonnegative"),
        ([0.5, 0.5], [0.5, 0.5], -0.1, "decay must be nonnegative"),
    ],
    ids=["negative-p", "negative-q", "negative-lam"],
)
def test_graph_kernel_rejects_bad_arguments(p, q, lam, message):
    """The kernel needs nonnegative distributions ``p`` and ``q`` (each of
    unit 1-norm, which these have) and a nonnegative ``lam``."""
    W = ProductWeights(TWO_CYCLE, 2, 1)
    with pytest.raises(ValueError, match=f"^{message}$"):
        graph_kernel(W, np.array(p), np.array(q), lam, 1e-8)


@pytest.mark.parametrize(
    "A",
    [[[1.0, -1.0], [1.0, 1.0]], [[1.0, 2.0, -1e-300]]],
    ids=["square", "wide"],
)
def test_top_singular_rejects_a_negative_matrix(A):
    """The singular triplet runs on nonnegative matrices alone."""
    with pytest.raises(ValueError, match="^matrix must be entrywise nonnegative$"):
        top_singular(SparseMatrix.from_dense(A), 1e-6)


@pytest.mark.parametrize(
    "similarity",
    [lambda lg, lh: -1.0, lambda lg, lh: -1.0 if lg != lh else 1.0],
    ids=["everywhere", "on-a-mismatch"],
)
def test_product_graph_rejects_a_negative_similarity(similarity):
    """A similarity is evaluated on every label pair the edges carry, and a
    negative value on any of them is rejected."""
    G = LabeledGraph(2, ((0, 1, 1, 1.0), (1, 0, 2, 1.0)), 2)
    with pytest.raises(ValueError, match="^similarity must be nonnegative$"):
        product_graph(G, G, similarity)
