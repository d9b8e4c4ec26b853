"""Dominant-solve operator contracts.

Every builder gets its solver from ``rcdd._phase_backend``, as the engine's
own matrices do, and the storage alone picks it: LAPACK LU up to 300
unknowns and Jacobi-preconditioned Krylov above, each application checked
against its true residual.  Whatever the backend returns, a perturbed or NaN
LU solve or a Krylov core that lies included, an application meets its
contract or raises :class:`BackendDiverged`, which a Krylov miss always
raises.
"""

import sys

import numpy as np
import pytest

import perronkit.rcdd
import perronkit.sparse
from perronkit import (
    BackendDiverged,
    IterationCapHit,
    NotRCDD,
    NotSDD,
    ScalingPair,
    SparseMatrix,
    build_rcdd_solver,
    build_sdd_solver,
    certify_spectral_bound,
    compute_perron,
    factor_width2_solve,
    m_decide,
    mmatrix_scale,
    solve_from_scale,
    solve_m,
    symm_scale,
    symm_solve,
    varah_kappa_upper,
)
from perronkit.oracle import dense_solve
from perronkit.rcdd import _DENSE_CUTOFF, _DirectSolver, _KrylovSolver, _refine
from perronkit.reports import NON_FINITE

from conftest import (
    count_krylov,
    fail_krylov,
    random_factor_width2_dense,
    random_m_matrix_dense,
    random_sdd_dense,
    random_strictly_rcdd_dense,
    random_symmetric_contraction_dense,
)

# the size each backend serves: dense LAPACK up to the cutoff, Krylov above it
BACKEND_SIZES = {"lapack": 40, "krylov": 400}
KRYLOV_N = BACKEND_SIZES["krylov"]


def sparse_dominant(rng, n, symmetric=False, margin=0.2):
    """A strictly RCDD (SDD when ``symmetric``) dense array with about five
    off-diagonal entries of mixed sign per row."""
    M = np.where(rng.random((n, n)) < 5.0 / n, rng.normal(size=(n, n)), 0.0)
    if symmetric:
        M = (M + M.T) / 2.0
    np.fill_diagonal(M, 0.0)
    dominance = np.maximum(np.abs(M).sum(axis=1), np.abs(M).sum(axis=0))
    np.fill_diagonal(M, dominance * (1.0 + margin) + margin)
    return M


def energy_error(M, x, z):
    """``||S^-1 x - z||_S / ||S^-1 x||_S`` against the dense oracle."""
    exact = dense_solve(M, x)
    err = z - exact
    return np.sqrt(err @ (M @ err)) / np.sqrt(exact @ (M @ exact))


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

    def test_contract_against_dense_lu(self):
        rng = np.random.default_rng(21)
        M = random_strictly_rcdd_dense(rng, 20)
        S = SparseMatrix.from_dense(M)
        eps = 1e-6
        Z = build_rcdd_solver(S, eps)
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

    def test_deterministic_reproducibility(self):
        rng = np.random.default_rng(25)
        M = random_strictly_rcdd_dense(rng, 18)
        x = rng.normal(size=18)
        za = build_rcdd_solver(SparseMatrix.from_dense(M), 1e-8)
        zb = build_rcdd_solver(SparseMatrix.from_dense(M), 1e-8)
        ya, yb = za.apply(x), zb.apply(x)
        assert np.array_equal(ya, yb)
        assert np.array_equal(ya, za.apply(x))

    @pytest.mark.parametrize("backend", list(BACKEND_SIZES))
    def test_a_build_checks_and_solves_with_its_own_matrix(self, monkeypatch, backend):
        """On its vectors of ones the recipe scales no copy of ``S``: it
        checks and solves with ``S`` itself, so a second build on the same
        ``S`` sums no line sums (the first check kept them on ``S``'s CSR),
        and every application of both operators, on either side, has the
        bits of the first's."""
        calls = {"apply_scaling": 0, "_line_sums": 0}
        for module, name in [(perronkit.rcdd, "apply_scaling"), (perronkit.sparse, "_line_sums")]:
            real = getattr(module, name)

            def counted(*args, real=real, name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, counted)
        rng = np.random.default_rng(26)
        n = BACKEND_SIZES[backend]
        S = SparseMatrix.from_dense(sparse_dominant(rng, n))
        x = rng.normal(size=n)
        first = build_rcdd_solver(S, 1e-9)
        assert calls == {"apply_scaling": 0, "_line_sums": 1}
        second = build_rcdd_solver(S, 1e-9)
        assert calls == {"apply_scaling": 0, "_line_sums": 1}
        for Z in (first, second):
            assert np.array_equal(Z.apply(x), first.apply(x))
            assert np.array_equal(Z.transpose(1e-9).apply(x), first.transpose(1e-9).apply(x))

    def test_an_empty_matrix_builds(self):
        """A 0 x 0 matrix is RCDD: its operator and its transpose map the
        empty vector to itself."""
        Z = build_rcdd_solver(SparseMatrix.zeros(0), 0.5)
        assert Z.apply(np.zeros(0)).shape == (0,)
        assert Z.transpose(0.25).apply(np.zeros(0)).shape == (0,)

    def test_a_non_square_matrix_is_not_rcdd(self):
        """A non-square ``S`` gets the RCDD check's own error: the builder
        sizes its vectors of ones by the rows and the columns."""
        with pytest.raises(ValueError, match="^RCDD is defined for square matrices$"):
            build_rcdd_solver(SparseMatrix.from_dense(np.ones((2, 3))), 0.5)


def test_only_the_rcdd_builders_have_a_transpose():
    """``build_sdd_solver``'s and ``solve_m``'s operators have no
    transpose, and say which operators do."""
    sdd = build_sdd_solver(SparseMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]]), 1e-6)
    m = solve_m(SparseMatrix.from_dense([[0.0, 0.5], [0.5, 0.0]]), 1.0, 1e-6, 10.0)
    for op in (sdd, m):
        with pytest.raises(
            TypeError, match="^only build_rcdd_solver's and solve_from_scale's p_right have a transpose$"
        ):
            op.transpose(1e-6)


EXTENDED_IS_WIDER = np.finfo(np.longdouble).eps < np.finfo(float).eps


def extended_refinement(precond, cap, extended):
    """``_refine`` of ``I x = b``, ``b`` four ones, to ``eps = 1e-6`` with
    ``precond``, its ``||abs(M)||`` bound set so large that once ``x`` is
    about ``b / 2`` the double-precision rounding bound leaves less than
    half of ``eps ||b||``: the refinement then goes on in extended
    precision.  The dtype of each extended product's vector, made only
    there, is appended to ``extended``."""

    def extended_matvec(x):
        extended.append(x.dtype)
        return x

    unit = np.finfo(float).eps
    norm_abs = 0.5e-6 / unit
    b = np.ones(4)
    return _refine(b, 1e-6, lambda x: x, extended_matvec, 1, norm_abs, precond, cap, "I")


@pytest.mark.skipif(not EXTENDED_IS_WIDER, reason="np.longdouble is no wider than double")
def test_the_extended_refinement_stops_at_its_cap():
    """A refinement that halves its residual per step enters extended
    precision after one step and, with a cap of 1, stops there out of
    iterations."""
    extended = []
    with pytest.raises(IterationCapHit, match=r"after 1 of at most 1 iterations: out of iterations") as hit:
        extended_refinement(lambda r, need: 0.5 * r, 1, extended)
    assert "refinement against I cannot certify" in str(hit.value)
    assert np.dtype(np.longdouble) in extended


@pytest.mark.skipif(not EXTENDED_IS_WIDER, reason="np.longdouble is no wider than double")
def test_the_extended_refinement_stops_at_a_non_finite_residual():
    """A preconditioner that turns infinite once the refinement is in
    extended precision makes the next residual non-finite, which stops it
    at once, well before its cap."""
    calls, extended = [], []

    def precond(r, need):
        calls.append(r)
        return 0.5 * r if len(calls) == 1 else np.full_like(r, np.inf)

    with pytest.raises(IterationCapHit, match=rf"stopped \({NON_FINITE}\) after 2 of at most 5 iterations"):
        extended_refinement(precond, 5, extended)
    assert len(calls) == 2 and np.dtype(np.longdouble) in extended


class TestSddSolver:
    def test_identity(self):
        Z = build_sdd_solver(SparseMatrix.identity(3), 0.5)
        x = np.array([1.0, 2.0, -1.0])
        assert np.allclose(Z.apply(x), x, atol=1e-13)

    def test_small_laplacian_shift(self):
        S = SparseMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]])
        Z = build_sdd_solver(S, 0.25)
        assert np.allclose(Z.apply(np.ones(2)), np.ones(2), atol=1e-12)

    def test_energy_norm_contract(self):
        rng = np.random.default_rng(26)
        M = random_sdd_dense(rng, 20)
        S = SparseMatrix.from_dense(M)
        eps = 1e-4
        Z = build_sdd_solver(S, eps)
        for _ in range(20):
            x = rng.normal(size=20)
            assert energy_error(M, x, Z.apply(x)) <= eps

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


# ----------------------------------------------------------------------
# above the dense cutoff


def test_krylov_rcdd_contract_with_its_transpose(monkeypatch):
    """At n > 300 the RCDD solver and its transpose meet eps = 1e-9 with no
    factorization, and report the Krylov iterations their solves ran."""
    counts = count_krylov(monkeypatch)
    ran = [0]
    real_core = perronkit.rcdd._bicgstab_core

    def core(*args):
        x, its = real_core(*args)
        ran[0] += its
        return x, its

    monkeypatch.setattr(perronkit.rcdd, "_bicgstab_core", core)
    rng = np.random.default_rng(28)
    n = KRYLOV_N
    assert n > _DENSE_CUTOFF
    M = sparse_dominant(rng, n)
    eps = 1e-9
    Z = build_rcdd_solver(SparseMatrix.from_dense(M), eps)
    Zt = Z.transpose(eps)
    for _ in range(5):
        x = rng.normal(size=n)
        assert np.linalg.norm(x - M @ Z.apply(x)) <= eps * np.linalg.norm(x)
        assert np.linalg.norm(x - M.T @ Zt.apply(x)) <= eps * np.linalg.norm(x)
    assert counts == {"krylov": 1}
    assert all(r <= eps for r in Z.report.residuals + Zt.report.residuals)
    assert Z.report.iterations + Zt.report.iterations == ran[0]
    assert min(Z.report.info["iterations_per_call"]) > 1


def test_krylov_transpose_solves_to_its_own_bound(monkeypatch):
    """The transpose shares the forward operator's solver but not its
    bound: each application runs one Krylov solve at its own operator's
    ``eps``, with no refinement."""
    tols = []
    real_solve = _KrylovSolver.solve

    def solve(self, b, transpose, tol):
        tols.append(tol)
        return real_solve(self, b, transpose, tol)

    monkeypatch.setattr(_KrylovSolver, "solve", solve)
    rng = np.random.default_rng(35)
    M = sparse_dominant(rng, KRYLOV_N)
    Z = build_rcdd_solver(SparseMatrix.from_dense(M), 1e-3)
    Zt = Z.transpose(1e-10)
    x = rng.normal(size=KRYLOV_N)
    assert np.linalg.norm(x - M @ Z.apply(x)) <= 1e-3 * np.linalg.norm(x)
    assert np.linalg.norm(x - M.T @ Zt.apply(x)) <= 1e-10 * np.linalg.norm(x)
    assert tols == [1e-3, 1e-10]


def test_krylov_sdd_energy_norm_contract(monkeypatch):
    counts = count_krylov(monkeypatch)
    rng = np.random.default_rng(29)
    n = KRYLOV_N
    M = sparse_dominant(rng, n, symmetric=True, margin=0.05)
    eps = 1e-4
    Z = build_sdd_solver(SparseMatrix.from_dense(M), eps)
    for _ in range(5):
        x = rng.normal(size=n)
        assert energy_error(M, x, Z.apply(x)) <= eps
    assert counts == {"krylov": 1}


# ----------------------------------------------------------------------
# fault injection on the builders


def builder_outcomes(rng, n):
    """Apply an RCDD solver, its transpose and an SDD solver of size ``n`` to
    three vectors each: every application meets its contract (``"met"``) or
    raises :class:`BackendDiverged` (``"diverged"``)."""
    M = sparse_dominant(rng, n)
    sym = sparse_dominant(rng, n, symmetric=True)
    eps, eps_sdd = 1e-9, 1e-4
    Z = build_rcdd_solver(SparseMatrix.from_dense(M), eps)
    checks = [
        (Z, lambda x, z: np.linalg.norm(x - M @ z) <= eps * np.linalg.norm(x)),
        (
            Z.transpose(eps),
            lambda x, z: np.linalg.norm(x - M.T @ z) <= eps * np.linalg.norm(x),
        ),
        (
            build_sdd_solver(SparseMatrix.from_dense(sym), eps_sdd),
            lambda x, z: energy_error(sym, x, z) <= eps_sdd,
        ),
    ]
    outcomes = []
    for op, meets in checks:
        for _ in range(3):
            x = rng.normal(size=n)
            try:
                z = op.apply(x)
            except BackendDiverged:
                outcomes.append("diverged")
                continue
            assert meets(x, z)
            outcomes.append("met")
    return outcomes


# relative noise on each entry of an LU solve's result; None returns NaN
LU_FAULTS = {"noise-1e-6": 1e-6, "noise-1e-2": 1e-2, "noise-2": 2.0, "nan": None}


@pytest.mark.parametrize("backend", list(BACKEND_SIZES))
@pytest.mark.parametrize("fault", list(LU_FAULTS))
def test_faulty_lu_solves_meet_the_contract_or_raise(monkeypatch, backend, fault):
    """An LU solve that returns a perturbed or NaN vector: no application
    returns a vector outside its contract.  Above the cutoff no LU runs, and
    with every Krylov pass stalling every application raises."""
    n = BACKEND_SIZES[backend]
    real_solve = _DirectSolver.solve
    noise = np.random.default_rng(30)
    scale = LU_FAULTS[fault]

    def solve(self, b, transpose, tol):
        if scale is None:
            return np.full_like(b, np.nan)
        x = real_solve(self, b, transpose, tol)
        return x * (1.0 + scale * noise.standard_normal(x.size))

    monkeypatch.setattr(_DirectSolver, "solve", solve)
    fail_krylov(monkeypatch)
    outcomes = builder_outcomes(np.random.default_rng(31), n)
    if fault == "nan" or backend == "krylov":
        assert set(outcomes) == {"diverged"}
    elif fault == "noise-1e-6":
        # refinement repairs a small perturbation
        assert set(outcomes) == {"met"}


@pytest.mark.parametrize("budget", [1, 10**9], ids=["once", "always"])
def test_lying_krylov_cores_meet_the_contract(monkeypatch, budget):
    """A Krylov core that reports convergence on a perturbed iterate is
    caught by the true residual: a restart repairs one lie, and with a core
    that always lies every application raises."""
    counts = count_krylov(monkeypatch)
    lies = [0]

    def lying(real_core):
        def lying_core(*args):
            x, its = real_core(*args)
            if lies[0] < budget:
                lies[0] += 1
                x = x * (1.0 + 1e-3 * np.sin(np.arange(x.size)))
            return x, its

        return lying_core

    # the SDD solver runs conjugate gradients, the RCDD ones BiCGSTAB
    for name in ("_bicgstab_core", "_cg_core"):
        monkeypatch.setattr(perronkit.rcdd, name, lying(getattr(perronkit.rcdd, name)))
    outcomes = builder_outcomes(np.random.default_rng(32), KRYLOV_N)
    assert set(outcomes) == ({"met"} if budget == 1 else {"diverged"}) and lies[0] >= 1
    assert counts == {"krylov": 2}


# ----------------------------------------------------------------------
# one backend choice


def every_entry_point(rng, n):
    """``(builders, engine)``: calls of the public builders, on an RCDD and
    an SDD matrix, and of every other public entry point that solves, each
    on an ``n``-unknown instance."""
    b = rng.normal(size=n)
    density = min(0.3, 5.0 / n)
    rcdd = SparseMatrix.from_dense(sparse_dominant(rng, n))
    sdd = SparseMatrix.from_dense(sparse_dominant(rng, n, symmetric=True))
    A_dense = random_m_matrix_dense(rng, n, 0.9, density=density)
    A = SparseMatrix.from_dense(A_dense)
    sym = SparseMatrix.from_dense(random_symmetric_contraction_dense(rng, n, 0.9, density))
    fw2 = SparseMatrix.from_dense(random_factor_width2_dense(rng, n))
    ones = np.ones(n)

    def builders():
        Z = build_rcdd_solver(rcdd, 1e-9)
        Z.apply(b)
        Z.transpose(1e-9).apply(b)
        build_sdd_solver(sdd, 1e-4).apply(b)

    def engine():
        ops = solve_from_scale(rcdd, ScalingPair(ones, ones, alpha=0.0, s=1.0), 1e-6)
        ops.p_right.apply(b)
        ops.p_left.apply(b)
        mmatrix_scale(A, 1.0, 1e-3, 1e3)
        solve_m(A, 1.0, 1e-6, 1e3).apply(b)
        assert m_decide(A, 1e-3, 1e3).is_m_matrix
        assert not m_decide(SparseMatrix.from_dense(A_dense * (1.1 / 0.9)), 1e-3, 1e3).is_m_matrix
        compute_perron(A, 1e-3)
        certify_spectral_bound(A, 1.0)
        symm_scale(sym, 1e-3)
        symm_solve(sym, b, 1e-6)
        factor_width2_solve(fw2, b, 1e-6)

    return builders, engine


@pytest.mark.parametrize("backend", list(BACKEND_SIZES))
def test_every_solver_comes_from_the_one_backend_choice(monkeypatch, backend):
    """Across every public solver entry, each ``_DirectSolver`` and
    ``_KrylovSolver`` is built inside ``rcdd._phase_backend``, wherever a
    module binds it, and the storage alone picks one: LAPACK up to the
    cutoff, Krylov above it."""
    n = BACKEND_SIZES[backend]
    real_choice = perronkit.rcdd._phase_backend
    where = []
    origins = set()

    def choice(*args, **kwargs):
        where.append("choice")
        try:
            return real_choice(*args, **kwargs)
        finally:
            where.pop()

    bound = [
        name
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "perronkit"
        and getattr(module, "_phase_backend", None) is real_choice
    ]
    assert {"perronkit.rcdd", "perronkit.scaling"} <= set(bound)
    for name in bound:
        monkeypatch.setattr(sys.modules[name], "_phase_backend", choice)

    for cls, kind in ((_DirectSolver, "lu"), (_KrylovSolver, "krylov")):

        def init(self, *args, real_init=cls.__init__, kind=kind, **kwargs):
            origins.add((kind, where[-1] if where else "elsewhere"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)

    builders, engine = every_entry_point(np.random.default_rng(34), n)
    builders()
    engine()
    assert origins == {("lu" if backend == "lapack" else "krylov", "choice")}


@pytest.mark.parametrize("n", [_DENSE_CUTOFF, _DENSE_CUTOFF + 1], ids=["at-cutoff", "above-cutoff"])
def test_a_krylov_miss_raises_only_above_the_cutoff(monkeypatch, n):
    """At ``_DENSE_CUTOFF`` unknowns every public entry point solves with
    LAPACK alone, and one unknown above it with Krylov alone.  With every
    Krylov pass stalling, each builder's operator then raises
    :class:`BackendDiverged` above the cutoff, and at it meets its contract
    as before."""
    kinds = set()
    for cls in (_DirectSolver, _KrylovSolver):

        def init(self, *args, real_init=cls.__init__, cls=cls, **kwargs):
            kinds.add(cls)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)
    builders, engine = every_entry_point(np.random.default_rng(36), n)
    builders()
    engine()
    assert kinds == {_DirectSolver if n <= _DENSE_CUTOFF else _KrylovSolver}
    fail_krylov(monkeypatch)
    outcomes = builder_outcomes(np.random.default_rng(37), n)
    assert set(outcomes) == ({"met"} if n <= _DENSE_CUTOFF else {"diverged"})
