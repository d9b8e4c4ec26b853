"""Shared instance generators and solver-backend patches for the test suite.

All generators are deterministic given the caller's ``numpy`` Generator, so
every test (and the acceptance suite) is reproducible bit for bit.
"""

from __future__ import annotations

import itertools
import signal

import numpy as np
import pytest
import scipy.sparse

import perronkit.perron
import perronkit.rcdd
import perronkit.scaling
from perronkit import KCapExceeded, SparseMatrix
from perronkit.oracle import dense_spectral_radius

# wall seconds one test may run; the slowest takes about 10
TEST_TIME_LIMIT_S = 120


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past ``TEST_TIME_LIMIT_S`` seconds, so that a
    hang is a failure instead of a stalled suite.  Where there is no
    ``SIGALRM`` tests run without a limit."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"test ran past its {TEST_TIME_LIMIT_S} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def random_irreducible_dense(rng, n, density=0.2, log_low=-2.0, log_high=0.0):
    """Nonnegative dense matrix with log-uniform weights, made irreducible by
    overlaying a random Hamiltonian cycle."""
    mask = rng.random((n, n)) < density
    M = np.where(mask, 10.0 ** rng.uniform(log_low, log_high, (n, n)), 0.0)
    perm = rng.permutation(n)
    cycle_w = 10.0 ** rng.uniform(log_low, log_high, n)
    for i in range(n):
        j = perm[(i + 1) % n]
        M[perm[i], j] = max(M[perm[i], j], cycle_w[i])
    return M


def criterion01_dense(seed):
    """The criterion-01 input of ``seed``: ``n`` in 5..40, density 0.2,
    weights log-uniform in [1e-2, 1]."""
    rng = np.random.default_rng(seed)
    return random_irreducible_dense(rng, int(rng.integers(5, 41)), density=0.2)


def wide12_dense(i):
    """The ``i``-th input of the wide-weight family: ``n`` in 5..40, density
    0.3, weights log-uniform in [1e-12, 1e12]."""
    rng = np.random.default_rng([i, 6])
    n = int(rng.integers(5, 41))
    return random_irreducible_dense(rng, n, density=0.3, log_low=-12.0, log_high=12.0)


def random_irreducible(rng, n, density=0.2, log_low=-2.0, log_high=0.0):
    return SparseMatrix.from_dense(
        random_irreducible_dense(rng, n, density, log_low, log_high)
    )


def ring_digraph(rng, n, out_degree):
    """A Hamiltonian ring plus ``out_degree`` random out-edges per node,
    weights log-uniform in [1e-2, 1]: sparse, strongly connected, and with
    ``out_degree=1`` a near-cycle whose Perron vector spreads over many
    decades."""
    perm = rng.permutation(n)
    rows = np.concatenate([perm, np.repeat(np.arange(n), out_degree)])
    cols = np.concatenate([np.roll(perm, -1), rng.integers(0, n, n * out_degree)])
    vals = 10.0 ** rng.uniform(-2.0, 0.0, rows.size)
    return SparseMatrix.from_scipy(scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n)))


def random_m_matrix_dense(rng, n, rho_ratio, density=0.3):
    """Dense nonnegative A scaled so that rho(A) = rho_ratio (s = 1)."""
    M = random_irreducible_dense(rng, n, density)
    rho, _ = dense_spectral_radius(M)
    return M * (rho_ratio / rho)


def random_m_matrix(rng, n, rho_ratio, density=0.3):
    return SparseMatrix.from_dense(random_m_matrix_dense(rng, n, rho_ratio, density))


def random_strictly_rcdd_dense(rng, n, margin=0.2):
    """Strictly RCDD matrix with mixed off-diagonal signs."""
    M = rng.normal(size=(n, n))
    np.fill_diagonal(M, 0.0)
    row = np.abs(M).sum(axis=1)
    col = np.abs(M).sum(axis=0)
    np.fill_diagonal(M, np.maximum(row, col) * (1.0 + margin) + margin)
    return M


def random_sdd_dense(rng, n, margin=0.2):
    M = rng.normal(size=(n, n))
    M = (M + M.T) / 2.0
    np.fill_diagonal(M, 0.0)
    row = np.abs(M).sum(axis=1)
    np.fill_diagonal(M, row * (1.0 + margin) + margin)
    return M


def random_symmetric_contraction_dense(rng, n, rho_ratio, density=0.3):
    """Symmetric nonnegative A with rho(A) = rho_ratio."""
    M = random_irreducible_dense(rng, n, density)
    M = (M + M.T) / 2.0
    rho, _ = dense_spectral_radius(M)
    return M * (rho_ratio / rho)


def random_factor_width2_dense(rng, n, rows_per_col=3, ridge=0.05):
    """``C.T C`` for a ``C`` whose rows have at most two nonzeros, so the
    product has factor width at most 2; 1-sparse ridge rows keep it positive
    definite."""
    m = rows_per_col * n
    C = np.zeros((m + n, n))
    for row in range(m):
        i, j = rng.integers(0, n, 2)
        C[row, i] += rng.normal()
        C[row, j] -= rng.normal()
    mean_diag = max(np.mean(np.einsum("ij,ij->j", C, C)), 1e-6)
    C[m:, :] = np.sqrt(ridge * mean_diag) * np.eye(n)
    return C.T @ C


def dense_inverse_norms(M_dense):
    """(||M^-1||_inf, ||M^-1||_1) computed densely."""
    inv = np.linalg.inv(M_dense)
    return float(np.abs(inv).sum(axis=1).max()), float(np.abs(inv).sum(axis=0).max())


def count_krylov(monkeypatch):
    """Count Krylov solver builds."""
    counts = {"krylov": 0}

    class Counted(perronkit.rcdd._KrylovSolver):
        def __init__(self, *args, **kwargs):
            counts["krylov"] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(perronkit.rcdd, "_KrylovSolver", Counted)
    return counts


def stalled_core(matvec, r, eps_abs, cap, x, inv_diag):
    """A Krylov pass that spends its whole budget and leaves ``x`` as it
    was."""
    return x.copy(), cap


def fail_krylov(monkeypatch):
    """Every Krylov pass stalls, as on a matrix that defeats the method, so
    every Krylov solve with a nonzero right-hand side misses."""
    monkeypatch.setattr(perronkit.rcdd, "_bicgstab_core", stalled_core)


def record_rounds(monkeypatch, limit=None):
    """Record the ``K`` of every round ``perron._perron_rounds`` runs in the
    returned list.  With a ``limit`` each call runs at most that many rounds
    and then raises :class:`KCapExceeded`, as the float floor does later."""
    ks = []
    real = perronkit.perron._perron_rounds

    def rounds(*args):
        for item in itertools.islice(real(*args), limit):
            ks.append(item[0])
            yield item
        raise KCapExceeded(f"round budget of {limit} spent")

    monkeypatch.setattr(perronkit.perron, "_perron_rounds", rounds)
    return ks


def wrap_scans(monkeypatch, scan):
    """Replace ``_halving_scan`` by ``scan(real, *args, **kwargs)`` in both
    modules that call it, ``scaling`` and ``perron`` (``m_decide``)."""
    real = perronkit.scaling._halving_scan

    def wrapped(*args, **kwargs):
        return scan(real, *args, **kwargs)

    for module in (perronkit.scaling, perronkit.perron):
        monkeypatch.setattr(module, "_halving_scan", wrapped)


def record_scans(monkeypatch):
    """Record the number of phases of every halving scan in the returned
    list."""
    phases = []

    def scan(real, *args, **kwargs):
        result = real(*args, **kwargs)
        phases.append(len(result[2].phases))
        return result

    wrap_scans(monkeypatch, scan)
    return phases


def bracket_off(monkeypatch):
    """Make ``_CWBracket.checked_pair`` settle nothing, so that every
    fixed-shift entry point takes its fallback: ``m_decide``, ``solve_m`` and
    ``mmatrix_scale`` the halving scan, and ``symm_scale``, ``symm_solve``
    and ``factor_width2_solve`` a halving scan at ``K = 1 / shift``, whose
    right vector is their ``v`` (the solves searching the shifts 1/2, 1/8,
    ... down to about 3e-8).
    ``certify_spectral_bound`` and ``compute_perron`` keep their bracket."""
    monkeypatch.setattr(
        perronkit.scaling._CWBracket, "checked_pair", lambda self, s, alpha: None
    )


def record_builds(monkeypatch):
    """Record, in the returned dict of lists, every ``_CWBracket``
    constructed, the arguments of every ``_halving_scan`` call and every
    ``_PhaseSolver`` built (whose ``tol``, ``ell`` and ``r`` a test may
    read); :func:`build_counts` gives their numbers."""
    built = {"_CWBracket": [], "_halving_scan": [], "_PhaseSolver": []}
    for cls in (perronkit.scaling._CWBracket, perronkit.scaling._PhaseSolver):

        def init(self, *args, real=cls.__init__, name=cls.__name__, **kwargs):
            built[name].append(self)
            real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)

    def scan(real, *args, **kwargs):
        built["_halving_scan"].append(args)
        return real(*args, **kwargs)

    wrap_scans(monkeypatch, scan)
    return built


def build_counts(built):
    """The number of each kind of build :func:`record_builds` recorded."""
    return {name: len(items) for name, items in built.items()}


def reject_bracket_pair(monkeypatch):
    """Make the first certificate of each ``compute_perron`` call, the
    bracket's own pair at ``K`` = 1, a failed candidate (``None``), so that
    ``K`` doubles and the next round continues the same bracket to a
    quarter of the precision: its new iterates are the candidate if it
    steps, else the polished pair of a scan at its upper end.  Clear the
    returned list between calls."""
    calls = []
    real = perronkit.perron._certificate

    def certificate(*args, **kwargs):
        calls.append(None)
        return None if len(calls) == 1 else real(*args, **kwargs)

    monkeypatch.setattr(perronkit.perron, "_certificate", certificate)
    return calls
