"""Seeded inputs, operations and correctness checks of the four workloads.

Each operation is one call into perronkit's public API, or one in-process run
of the batch CLI through ``perronkit.cli.main``.  Library functions are looked
up on their module at call time, so the tracer's wrappers see every call.
Oracles and checks run outside every timed region; an oracle value is
computed on first use and cached (``functools.cache``).

A workload's inputs depend only on the seed: the sizes are fixed per
workload, and the seed draws the graphs, weights and vectors.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.sparse as sp

import perronkit
from perronkit import cli, oracle

PERRON_DELTA = 1e-3
# the Perron check allows s to exceed the oracle by this relative margin
RHO_SLACK = 1e-8
SOLVE_EPS = 1e-6


@dataclass
class Op:
    """One timed call.  ``collect`` turns the call's return value into what
    ``check`` and ``digest`` read; it runs outside the timed region."""

    key: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    digest: Callable[[object], str]
    collect: Callable[[object], object] = lambda result: result


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, Path], list[Op]]
    warm_up: Callable[[Path], None]
    # op time of one pass over the pool at reference host speed on the seed
    # code; a run measures round(seconds / nominal_pass_s) whole passes
    nominal_pass_s: float


# ----------------------------------------------------------------------
# generators


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def dense_irreducible(rng, n, density=0.2):
    """Criterion-01 family: log-uniform weights in [1e-2, 1] on a random
    pattern, overlaid with a random Hamiltonian cycle."""
    mask = rng.random((n, n)) < density
    M = np.where(mask, 10.0 ** rng.uniform(-2.0, 0.0, (n, n)), 0.0)
    perm = rng.permutation(n)
    cycle_w = 10.0 ** rng.uniform(-2.0, 0.0, n)
    for i in range(n):
        j = perm[(i + 1) % n]
        M[perm[i], j] = max(M[perm[i], j], cycle_w[i])
    return M


def ring_graph(rng, n, out_degree=5) -> sp.csr_matrix:
    """Hamiltonian ring plus ``out_degree`` random out-edges per node, with
    weights log-uniform in [1e-2, 1]; strongly connected by construction."""
    perm = rng.permutation(n)
    rows = np.concatenate([perm, np.repeat(np.arange(n), out_degree)])
    cols = np.concatenate([np.roll(perm, -1), rng.integers(0, n, n * out_degree)])
    vals = 10.0 ** rng.uniform(-2.0, 0.0, rows.size)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def spectral_radius(csr: sp.csr_matrix) -> float:
    """Spectral radius of an irreducible nonnegative matrix by averaged power
    iteration (the averaging damps periodic components), stopped once the
    Collatz-Wielandt bracket closes; used only to place inputs at a known
    rho, never as the oracle of a check."""
    x = np.ones(csr.shape[0])
    for _ in range(100_000):
        y = csr @ x
        ratios = y / x
        lower, upper = float(ratios.min()), float(ratios.max())
        if upper - lower <= 1e-13 * upper:
            return 0.5 * (lower + upper)
        x = 0.5 * (x + y / y.max())
    raise RuntimeError("power iteration did not converge while generating inputs")


def _sparse(csr) -> perronkit.SparseMatrix:
    return perronkit.SparseMatrix.from_scipy(csr)


# ----------------------------------------------------------------------
# digests and checks


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:32]


def _rel_residual(apply_matrix, x, b) -> float:
    return float(np.linalg.norm(apply_matrix(x) - b) / np.linalg.norm(b))


def _perron_check(s: float, rho: float, delta: float) -> str | None:
    if (1.0 - delta) * rho < s <= rho * (1.0 + RHO_SLACK):
        return None
    return f"s={s!r} outside ((1-delta) rho, rho (1+{RHO_SLACK})] for rho={rho!r}"


def _rcdd_ok(S: sp.csr_matrix, slack: float = 1e-12) -> bool:
    diag = S.diagonal()
    absS = abs(S)
    row_off = np.asarray(absS.sum(axis=1)).ravel() - np.abs(diag)
    col_off = np.asarray(absS.sum(axis=0)).ravel() - np.abs(diag)
    allow = -slack * (np.abs(diag) + 1.0)
    return bool(np.all(diag - row_off >= allow) and np.all(diag - col_off >= allow))


def _perron_op(key: str, A_dense: np.ndarray, delta: float) -> Op:
    A = _sparse(sp.csr_matrix(A_dense))
    rho = functools.cache(lambda: oracle.dense_spectral_radius(A_dense)[0])
    return Op(
        key=key,
        call=lambda: perronkit.compute_perron(A, delta),
        check=lambda cert: _perron_check(cert.s, rho(), delta),
        digest=lambda cert: _sha(cert.s, cert.k_final, cert.left, cert.right),
    )


# ----------------------------------------------------------------------
# perron-dense: criterion-01 family, below the dense cutoff

DENSE_POOL = 40


def build_perron_dense(seed: int, workdir: Path) -> list[Op]:
    sizes = np.rint(np.linspace(5, 40, DENSE_POOL)).astype(int)
    _rng(seed, 0).shuffle(sizes)
    return [
        _perron_op(f"dense{i}-n{n}", dense_irreducible(_rng(seed, 1, i), int(n)), PERRON_DELTA)
        for i, n in enumerate(sizes)
    ]


# warm-ups run the workload's code path once, at a loose delta to stay short
WARM_DELTA = 0.25


def warm_perron_dense(workdir: Path) -> None:
    perronkit.compute_perron(_sparse(sp.csr_matrix(dense_irreducible(_rng(0, 9), 20))), WARM_DELTA)


# ----------------------------------------------------------------------
# perron-sparse: ring-plus-random digraphs above the dense cutoff

SPARSE_SIZES = tuple(range(130, 166, 3))


def build_perron_sparse(seed: int, workdir: Path) -> list[Op]:
    sizes = np.array(SPARSE_SIZES)
    _rng(seed, 0).shuffle(sizes)
    return [
        _perron_op(f"ring{i}-n{n}", ring_graph(_rng(seed, 2, i), int(n)).toarray(), PERRON_DELTA)
        for i, n in enumerate(sizes)
    ]


def warm_perron_sparse(workdir: Path) -> None:
    perronkit.compute_perron(_sparse(ring_graph(_rng(0, 9), 129)), WARM_DELTA)


# ----------------------------------------------------------------------
# msolve-sparse: one M-matrix solver build with repeated applies, both
# decision verdicts, the symmetric solve and the factor-width-2 solve

MSOLVE_N = 700
MSOLVE_SETS = 2
MSOLVE_APPLIES = 4
MSOLVE_K = 1e3
DECIDE_EPS = 1e-3
DECIDE_GAMMA = 1e3


def _factor_width2_matrix(rng, n):
    """``C.T C + I/2`` where every row of ``C`` has two nonzeros and every
    column is used, so the diagonal is positive.  The shift keeps the
    conditioning alike across seeds, so the solver's shift search takes the
    same number of steps on every seed's matrix."""
    first = np.arange(n)
    other = (first + 1 + rng.integers(0, n - 1, n)) % n
    extra = np.array([rng.choice(n, 2, replace=False) for _ in range(n)])
    rows = np.repeat(np.arange(2 * n), 2)
    cols = np.concatenate([np.column_stack([first, other]).ravel(), extra.ravel()])
    C = sp.csr_matrix((rng.normal(size=rows.size), (rows, cols)), shape=(2 * n, n))
    return (C.T @ C + 0.5 * sp.identity(n)).tocsr()


def _msolve_ops(seed: int, n: int, applies: int, set_index: int = 0) -> list[Op]:
    rng = _rng(seed, 3, set_index)
    base = ring_graph(rng, n)
    rho = spectral_radius(base)
    below = (base * (0.9 / rho)).tocsr()
    above = (base * (1.1 / rho)).tocsr()
    sym = ((base + base.T) * 0.5).tocsr()
    sym = (sym * (0.9 / spectral_radius(sym))).tocsr()
    fw2 = _factor_width2_matrix(rng, n)
    rhs = [rng.random(n) + 0.01 for _ in range(applies + 2)]
    A_below, A_above, A_sym, M_fw2 = (_sparse(m) for m in (below, above, sym, fw2))

    state = {}

    def build():
        state["P"] = None
        state["P"] = perronkit.solve_m(A_below, 1.0, SOLVE_EPS, MSOLVE_K)
        return state["P"]

    def check_build(P):
        return None if getattr(P, "n", None) == n else "solve_m returned no operator of size n"

    def apply_op(b):
        def call():
            if state.get("P") is None:
                raise RuntimeError("solve_m build failed in this pass")
            return state["P"].apply(b)

        return call

    def residual_check(matvec, b):
        def check(x):
            rel = _rel_residual(matvec, x, b)
            return None if rel <= SOLVE_EPS else f"relative residual {rel:.3e} > eps"

        return check

    def verdict_check(expect_positive):
        def check(outcome):
            if outcome.is_m_matrix != expect_positive:
                return f"verdict {outcome.verdict.value} contradicts the known rho"
            if not expect_positive and not outcome.witness:
                return "negative verdict without a witness"
            return None

        return check

    def verdict_digest(outcome):
        scaling = outcome.scaling
        vecs = () if scaling is None else (scaling.left, scaling.right)
        return _sha(outcome.verdict.value, outcome.witness, *vecs)

    def i_minus(m):
        return lambda x: x - m @ x

    ops = [Op(f"build-n{n}", build, check_build, lambda P: _sha(P.n, P.error_bound))]
    for j in range(applies):
        ops.append(
            Op(f"apply{j}", apply_op(rhs[j]), residual_check(i_minus(below), rhs[j]), _sha)
        )
    ops += [
        Op(
            "m_decide-rho0.9",
            lambda: perronkit.m_decide(A_below, DECIDE_EPS, DECIDE_GAMMA),
            verdict_check(True),
            verdict_digest,
        ),
        Op(
            "m_decide-rho1.1",
            lambda: perronkit.m_decide(A_above, DECIDE_EPS, DECIDE_GAMMA),
            verdict_check(False),
            verdict_digest,
        ),
        Op(
            "symm_solve",
            lambda: perronkit.symm_solve(A_sym, rhs[-2], SOLVE_EPS)[0],
            residual_check(i_minus(sym), rhs[-2]),
            _sha,
        ),
        Op(
            "factor_width2_solve",
            lambda: perronkit.factor_width2_solve(M_fw2, rhs[-1], SOLVE_EPS)[0],
            residual_check(lambda x: fw2 @ x, rhs[-1]),
            _sha,
        ),
    ]
    for op in ops:
        op.key = f"set{set_index}-{op.key}"
    return ops


def build_msolve_sparse(seed: int, workdir: Path) -> list[Op]:
    return [op for k in range(MSOLVE_SETS) for op in _msolve_ops(seed, MSOLVE_N, MSOLVE_APPLIES, k)]


def warm_msolve_sparse(workdir: Path) -> None:
    for op in _msolve_ops(0, 140, 1):
        op.call()


# ----------------------------------------------------------------------
# cli-apps: every subcommand, in process, on generated files

CLI_N = 130
CLI_SETS = 3
SVD_SHAPE = (120, 60)
KERNEL_N = 8


def _write_mtx(path: Path, mat) -> None:
    coo = sp.coo_matrix(mat)
    lines = [
        "%%MatrixMarket matrix coordinate real general",
        f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}",
    ]
    lines += [f"{i + 1} {j + 1} {float(v)!r}" for i, j, v in zip(coo.row, coo.col, coo.data)]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _write_vector(path: Path, x) -> None:
    path.write_text("".join(f"{float(v)!r}\n" for v in x), encoding="ascii")


def _labeled_graph(rng, n):
    """Ring, a self-loop and ``2n`` random edges, all with label 1; returns
    the edge list (0-based).  Two such graphs are strongly connected and
    aperiodic, so their product graph is irreducible and every seed takes
    the same kernel code path."""
    edges = [(i, (i + 1) % n) for i in range(n)] + [(0, 0)]
    edges += [tuple(int(v) for v in rng.integers(0, n, 2)) for _ in range(2 * n)]
    return [(u, v, 1, float(rng.random()) + 0.1) for u, v in edges]


def _write_graph(path: Path, n, edges) -> None:
    lines = [f"{n} {len(edges)} 1"]
    lines += [f"{u + 1} {v + 1} {lab} {w!r}" for u, v, lab, w in edges]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _product_dense(g_edges, h_edges, n_h, n):
    W = np.zeros((n, n))
    for u, w, lg, wg in g_edges:
        for v, z, lh, wh in h_edges:
            if lg == lh:
                W[u * n_h + v, w * n_h + z] += wg * wh
    return W


def _svd_matrix(rng, rows, cols):
    """Nonnegative matrix whose Gram matrices are irreducible: row ``i`` hits
    columns ``i mod c`` and ``i+1 mod c``, plus one random column."""
    r = np.concatenate([np.arange(rows), np.arange(rows), np.arange(rows)])
    c = np.concatenate([np.arange(rows) % cols, (np.arange(rows) + 1) % cols, rng.integers(0, cols, rows)])
    return sp.csr_matrix((10.0 ** rng.uniform(-2.0, 0.0, r.size), (r, c)), shape=(rows, cols))


def _cli_ops(seed: int, workdir: Path, n: int, svd_shape, kernel_n: int, set_index: int = 0) -> list[Op]:
    rng = _rng(seed, 4, set_index)
    workdir = workdir / f"set{set_index}"
    workdir.mkdir(exist_ok=True)
    A = ring_graph(rng, n)
    rho = spectral_radius(A)
    below = (A * (0.9 / rho)).tocsr()
    above = (A * (1.1 / rho)).tocsr()
    b = rng.random(n) + 0.01
    d = rng.random(n) + 0.01
    B = _svd_matrix(rng, *svd_shape)
    g_edges = _labeled_graph(rng, kernel_n)
    h_edges = _labeled_graph(rng, kernel_n)
    W = _product_dense(g_edges, h_edges, kernel_n, kernel_n * kernel_n)
    lam = 0.5 / float(np.abs(np.linalg.eigvals(W)).max())

    files = {}
    for name, mat in (("A", A), ("below", below), ("above", above), ("B", B)):
        files[name] = workdir / f"{name}.mtx"
        _write_mtx(files[name], mat)
    for name, vec in (("b", b), ("d", d)):
        files[name] = workdir / f"{name}.txt"
        _write_vector(files[name], vec)
    for name, edges in (("g", g_edges), ("h", h_edges)):
        files[name] = workdir / f"{name}.graph"
        _write_graph(files[name], kernel_n, edges)

    s_shift = 1.1 * rho
    A_dense = A.toarray()
    rho_oracle = functools.cache(lambda: oracle.dense_spectral_radius(A_dense)[0])
    rho_below_oracle = functools.cache(lambda: oracle.dense_spectral_radius(below.toarray())[0])
    sigma_oracle = functools.cache(lambda: oracle.dense_svd_top(B.toarray())[0])
    p = np.full(W.shape[0], 1.0 / W.shape[0])
    kernel_oracle = functools.cache(lambda: float(p @ oracle.dense_solve(np.eye(W.shape[0]) - lam * W, p)))

    def f(name):
        return str(files[name])

    def residual(report, key, matvec, rhs, eps):
        x = np.asarray(report[key], dtype=float)
        rel = _rel_residual(matvec, x, rhs)
        return None if rel <= eps else f"{key}: relative residual {rel:.3e} > {eps:g}"

    def check_perron(r):
        return _perron_check(r["s"], rho_oracle(), PERRON_DELTA)

    def check_perron_tsv(r):
        return _perron_check(float(r["s"]), rho_below_oracle(), PERRON_DELTA)

    def check_verdict(expect):
        def check(r):
            if r.get("verdict") != expect:
                return f"verdict {r.get('verdict')!r}, expected {expect!r}"
            if expect == "not_m_matrix" and not r.get("witness"):
                return "negative verdict without a witness"
            return None

        return check

    def check_scale(r):
        left, right = np.asarray(r["left"]), np.asarray(r["right"])
        M = (1.0 + r["eps"]) * r["s"] * sp.identity(n) - A
        if np.all(left > 0) and np.all(right > 0) and _rcdd_ok(sp.diags(left) @ M @ sp.diags(right)):
            return None
        return "returned scaling does not make (1+eps) s I - A RCDD"

    def check_leontief(expect):
        def check(r):
            if r.get("hawkins_simons") is not expect:
                return f"hawkins_simons {r.get('hawkins_simons')!r}, expected {expect}"
            if expect:
                return residual(r, "x", lambda x: x - below @ x, d, SOLVE_EPS)
            return None

        return check

    def check_svd(r):
        sigma = sigma_oracle()
        s = r["sigma"] ** 2
        if (1.0 - 1e-6) * sigma**2 < s <= sigma**2 * (1.0 + RHO_SLACK):
            return None
        return f"sigma={r['sigma']!r} not within delta of the oracle {sigma!r}"

    def check_kernel(r):
        ref = kernel_oracle()
        err = abs(r["kappa"] - ref)
        if err <= r["scalar_error_bound"] + 1e-12 * abs(ref):
            return None
        return f"kappa={r['kappa']!r} differs from the oracle {ref!r} by {err:.3e}"

    alpha = 0.8 / rho
    specs = [
        ("perron", ["perron", "--matrix", f("A"), "--delta", repr(PERRON_DELTA)], 0, check_perron),
        ("perron-tsv", ["perron", "--matrix", f("below"), "--delta", repr(PERRON_DELTA), "--format", "tsv"], 0,
         check_perron_tsv),
        ("mdecide-pos", ["mdecide", "--matrix", f("below"), "--eps", repr(DECIDE_EPS)], 0,
         check_verdict("is_m_matrix_shifted")),
        ("mdecide-neg", ["mdecide", "--matrix", f("above"), "--eps", repr(DECIDE_EPS)], 2,
         check_verdict("not_m_matrix")),
        ("scale", ["scale", "--matrix", f("A"), "--s", repr(s_shift), "--eps", "1e-3"], 0, check_scale),
        ("solve", ["solve", "--matrix", f("A"), "--b", f("b"), "--s", repr(s_shift), "--eps", repr(SOLVE_EPS)],
         0, lambda r: residual(r, "x", lambda x: s_shift * x - A @ x, b, SOLVE_EPS)),
        ("katz", ["katz", "--matrix", f("A"), "--b", f("b"), "--alpha", repr(alpha), "--eps", repr(SOLVE_EPS)],
         0, lambda r: residual(r, "v", lambda x: x - alpha * (A @ x), b, SOLVE_EPS)),
        ("leontief-pos", ["leontief", "--matrix", f("below"), "--d", f("d"), "--eps", repr(SOLVE_EPS)], 0,
         check_leontief(True)),
        ("leontief-neg", ["leontief", "--matrix", f("above"), "--d", f("d")], 2, check_leontief(False)),
        ("svd", ["svd", "--matrix", f("B"), "--delta", "1e-6"], 0, check_svd),
        ("kernel", ["kernel", "--g", f("g"), "--h", f("h"), "--lambda", repr(lam), "--eps", repr(SOLVE_EPS)],
         0, check_kernel),
    ]
    return [_cli_op(workdir, f"set{set_index}-{key}", *rest) for key, *rest in specs]


def _cli_op(workdir: Path, key, argv, expected_code, check_report) -> Op:
    out = workdir / f"report-{key}.json"
    argv = argv + ["--no-timestamp", "--output", str(out)]

    def call():
        if out.exists():
            out.unlink()
        return cli.main(argv)

    def collect(code):
        return code, (out.read_bytes() if out.exists() else b"")

    def check(result):
        code, data = result
        if code != expected_code:
            return f"exit code {code}, expected {expected_code}"
        if "tsv" in argv:
            report = dict(line.split("\t", 1) for line in data.decode("ascii").splitlines())
        else:
            report = json.loads(data)
        if report.get("subcommand") != argv[0]:
            return "report names another subcommand"
        return check_report(report)

    return Op(key, call, check, lambda result: _sha(result[0], result[1]), collect)


def build_cli_apps(seed: int, workdir: Path) -> list[Op]:
    return [op for k in range(CLI_SETS) for op in _cli_ops(seed, workdir, CLI_N, SVD_SHAPE, KERNEL_N, k)]


def warm_cli_apps(workdir: Path) -> None:
    warm = workdir / "warm"
    warm.mkdir(exist_ok=True)
    for op in _cli_ops(0, warm, 12, (12, 6), 6)[:4]:
        op.call()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("perron-dense", build_perron_dense, warm_perron_dense, 3.9),
        Workload("perron-sparse", build_perron_sparse, warm_perron_sparse, 8.7),
        Workload("msolve-sparse", build_msolve_sparse, warm_msolve_sparse, 3.4),
        Workload("cli-apps", build_cli_apps, warm_cli_apps, 9.9),
    )
}
