"""Applications: Katz centrality, Leontief equilibrium, top singular
triplet, and random-walk graph kernels.

Each application reduces to either an M-matrix solve (``(I - B) x = b`` with
``rho(B) < 1``) or a Perron computation on an explicitly formed Gram matrix.
Spectral validity conditions are decided by the library's own certified
machinery rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import (
    DecayTooLarge,
    IterationCapHit,
    KernelDiverges,
    ReducibleGram,
)
from .perron import (
    PerronCertificate,
    _relative_residual,
    certify_spectral_bound,
    compute_perron,
)
from .reports import SolveReport
from .scaling import solve_m
from .sparse import SparseMatrix, _check_open_unit, as_vector, is_irreducible

__all__ = [
    "LabeledGraph",
    "ProductWeights",
    "SingularTriplet",
    "katz_centrality",
    "leontief_equilibrium",
    "top_singular",
    "product_graph",
    "graph_kernel",
    "indicator_similarity",
    "load_labeled_graph",
]


# ----------------------------------------------------------------------
# types


@dataclass(frozen=True)
class LabeledGraph:
    """Directed edge-labeled graph: edges are ``(u, v, label, weight)`` with
    0-based vertices, integer labels in ``1..n_labels``, nonnegative weights."""

    n_vertices: int
    edges: tuple
    n_labels: int

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        if self.n_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        if self.n_labels < 1:
            raise ValueError("graph needs at least one label class")
        for u, v, label, weight in self.edges:
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if not (1 <= int(label) <= self.n_labels):
                raise ValueError(f"label {label} outside 1..{self.n_labels}")
            if not (np.isfinite(weight) and weight >= 0.0):
                raise ValueError("edge weights must be finite and nonnegative")


@dataclass(frozen=True)
class ProductWeights:
    """Weighted adjacency of the simultaneous-walk product graph.

    Vertex ``(u, v)`` of the product maps to row/column ``u * n_h + v``.
    """

    matrix: SparseMatrix
    n_g: int
    n_h: int

    def index(self, u: int, v: int) -> int:
        if not (0 <= u < self.n_g and 0 <= v < self.n_h):
            raise ValueError("product vertex out of range")
        return u * self.n_h + v


@dataclass(frozen=True)
class SingularTriplet:
    """Top singular value with unit 2-norm singular vectors.

    ``residuals`` holds the relative sup-norm eigen-residuals
    ``(right side, left side)`` of the singular vectors as eigenvectors of
    ``A.T A`` and ``A A.T`` at ``sigma**2``.  The side whose Gram matrix is
    smaller carries its Perron certificate's ``residual_right``; the other is
    recomputed from the derived vector.
    """

    sigma: float
    left: np.ndarray
    right: np.ndarray
    residuals: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "left", as_vector(self.left, name="left"))
        object.__setattr__(self, "right", as_vector(self.right, name="right"))
        if self.sigma <= 0.0:
            raise ValueError("singular value must be positive")
        for v in (self.left, self.right):
            if abs(np.linalg.norm(v) - 1.0) > 1e-9:
                raise ValueError("singular vectors must have unit 2-norm")


def indicator_similarity(label_g: int, label_h: int) -> float:
    """Canonical similarity: 1 when the labels agree, else 0."""
    return 1.0 if label_g == label_h else 0.0


# ----------------------------------------------------------------------
# shared solve plumbing


def _k_estimate(cert: PerronCertificate) -> float:
    """Conditioning guess for the solver from a Perron certificate of the
    decayed matrix: ``||(I - B)^-1|| <= kappa(v) / (1 - rho)`` per side, with
    ``rho`` bounded by the certificate's CW upper bound."""
    gap = max(1.0 - cert.cw_upper, 1e-12)
    kappa_r = float(cert.right.max() / cert.right.min())
    kappa_l = float(cert.left.max() / cert.left.min())
    return 4.0 * max(kappa_l, kappa_r) / gap


def _certify_reducible_decay(B: SparseMatrix):
    """Decide ``rho(B) < 1`` for a reducible nonnegative matrix by certifying
    every strongly connected component block; returns ``(valid, rho_upper)``
    with a certified upper bound on ``rho(B)`` when valid."""
    _, labels = connected_components(B.csr(), directed=True, connection="strong")
    diag = B.csr().diagonal()
    rho_upper = 0.0
    for comp in range(labels.max() + 1):
        idx = np.flatnonzero(labels == comp)
        if idx.size == 1:
            block_rho = float(diag[idx[0]])
            if block_rho >= 1.0:
                return False, np.inf
            rho_upper = max(rho_upper, block_rho)
            continue
        sub = SparseMatrix.from_scipy(B.csr()[idx][:, idx])
        valid, cert = certify_spectral_bound(sub, 1.0)
        if not valid:
            return False, np.inf
        rho_upper = max(rho_upper, min(cert.cw_upper, 1.0))
    return True, rho_upper


def _solve_decayed(B: SparseMatrix, rhs: np.ndarray, eps: float, K: float):
    """Solve ``(I - B) x = rhs`` with cap-hit retries doubling ``K``."""
    for _ in range(6):
        try:
            op = solve_m(B, 1.0, eps, K)
            x = op.apply(rhs)
            return x, op.report
        except IterationCapHit:
            K *= 8.0
    raise IterationCapHit(
        "decayed solve kept hitting iteration caps; conditioning estimate "
        "cannot be stabilized",
        phase=None,
        alpha=None,
    )


# ----------------------------------------------------------------------
# applications


def katz_centrality(A: SparseMatrix, alpha: float, b, eps: float):
    """Katz influence vector ``v = (I - alpha A)^-1 b``.

    The decay condition ``alpha * rho(A) < 1`` is certified through the
    decision machinery; violation raises :class:`DecayTooLarge`.  Returns
    ``(v, report)`` with ``||(I - alpha A) v - b||_2 <= eps ||b||_2``.
    """
    if not A.is_square or not A.is_nonnegative():
        raise ValueError("adjacency matrix must be square and nonnegative")
    b = as_vector(b, A.n_rows, "b")
    if np.any(b < 0.0) or not np.any(b > 0.0):
        raise ValueError("b must be nonnegative and nonzero")
    if alpha < 0.0:
        raise ValueError("decay must be nonnegative")
    if alpha == 0.0 or A.nnz == 0:
        report = SolveReport(info={"trivial": True})
        report.residuals.append(0.0)
        return b.copy(), report

    B = A.scaled(alpha)
    valid, cert = certify_spectral_bound(B, 1.0)
    if not valid:
        raise DecayTooLarge(
            f"certified rho(alpha A) >= {cert.s:.6g} >= 1; Katz series diverges"
        )
    return _solve_decayed(B, b, eps, _k_estimate(cert))


def leontief_equilibrium(A: SparseMatrix, d=None, eps: float = 1e-8):
    """Hawkins-Simons check and equilibrium output for a consumption matrix.

    The verdict is True exactly when ``I - A`` is an invertible M-matrix
    (``rho(A) < 1``).  With a demand vector ``d`` and a positive verdict,
    also returns ``x`` with ``||(I - A) x - d||_2 <= eps ||d||_2``; otherwise
    the second element is None.  Reducible economies are not decomposed: the
    decision machinery raises :class:`NotIrreducible`.
    """
    if not A.is_square or not A.is_nonnegative():
        raise ValueError("consumption matrix must be square and nonnegative")
    if d is not None:
        d = as_vector(d, A.n_rows, "d")
        if np.any(d < 0.0):
            raise ValueError("demand must be nonnegative")
    if A.nnz == 0:
        return True, (d.copy() if d is not None else None)
    valid, cert = certify_spectral_bound(A, 1.0)
    if not valid:
        return False, None
    if d is None or not np.any(d > 0.0):
        return True, (np.zeros(A.n_rows) if d is not None else None)
    x, _ = _solve_decayed(A, d, eps, _k_estimate(cert))
    return True, x


def _gram_irreducibility(A: SparseMatrix) -> tuple[bool, bool]:
    """Whether ``A.T A`` and ``A A.T`` are irreducible, decided on the pattern
    of ``A`` without forming either.

    Two columns are adjacent in ``A.T A`` exactly when they share a nonzero
    row, so ``A.T A`` is irreducible when ``A`` has a nonzero and all its
    columns lie in one connected component of the bipartite row-column graph
    of ``A`` (a zero column is a component of its own); likewise ``A A.T``
    for the rows.  With no zero row or column, both hold exactly when that
    graph is connected."""
    csr = A.csr()
    m, n = csr.shape
    # vertices: the m rows, then the n columns; each nonzero links its two
    indptr = np.concatenate([csr.indptr, np.full(n, csr.nnz)])
    graph = sp.csr_matrix((csr.data, csr.indices + m, indptr), shape=(m + n, m + n))
    _, labels = connected_components(graph, directed=False)
    rows, cols = labels[:m], labels[m:]
    nonzero = csr.nnz > 0
    return nonzero and bool(np.all(cols == cols[0])), nonzero and bool(np.all(rows == rows[0]))


def top_singular(A: SparseMatrix, delta: float) -> SingularTriplet:
    """Top singular triplet of a nonnegative matrix via its Gram matrices.

    Checks both ``A.T A`` and ``A A.T`` irreducible on the pattern of ``A``,
    forms the smaller one and runs the certified Perron computation on it;
    ``sigma = sqrt(s)`` is then within relative ``delta`` of the true top
    singular value.  The other singular vector is derived (``u = A v / ||A
    v||`` or ``v = A.T u / ||A.T u||``) and its Gram residual recomputed.
    Raises :class:`ReducibleGram` when a Gram matrix is not irreducible.
    """
    if not A.is_nonnegative():
        raise ValueError("matrix must be entrywise nonnegative")
    _check_open_unit(delta, "delta")
    right_irreducible, left_irreducible = _gram_irreducibility(A)
    if not right_irreducible:
        raise ReducibleGram("A.T A is reducible")
    if not left_irreducible:
        raise ReducibleGram("Gram matrix is reducible: nonzero pattern is not strongly connected")
    right_first = A.n_cols <= A.n_rows
    gram = (
        A.csr_transpose() @ A.csr() if right_first else A.csr() @ A.csr_transpose()
    )
    cert = compute_perron(SparseMatrix.from_scipy(gram), delta)
    # the certified side's vector mapped through A (or A.T) to the other side
    certified = cert.right / np.linalg.norm(cert.right)
    derived = A.matvec(certified, transpose=not right_first)
    derived /= np.linalg.norm(derived)
    # the other Gram matrix applied as A (A.T u) or A.T (A v)
    gram_derived = A.matvec(A.matvec(derived, transpose=right_first), transpose=not right_first)
    res_derived = _relative_residual(derived, gram_derived, cert.s)
    if right_first:
        right, left, residuals = certified, derived, (cert.residual_right, res_derived)
    else:
        right, left, residuals = derived, certified, (res_derived, cert.residual_right)
    return SingularTriplet(
        sigma=float(np.sqrt(cert.s)), left=left, right=right, residuals=residuals
    )


def product_graph(G: LabeledGraph, H: LabeledGraph, similarity=None) -> ProductWeights:
    """Weighted adjacency of the simultaneous-walk product of two graphs.

    Entry ``((u,v), (w,z))`` is ``similarity(l_G(u,w), l_H(v,z)) * w_G(u,w) *
    w_H(v,z)`` when both edges exist, else zero.  The default similarity is
    the label-indicator function.  Parallel edges contribute additively.
    """
    if similarity is None:
        similarity = indicator_similarity
    n = G.n_vertices * H.n_vertices
    if not G.edges or not H.edges:
        return ProductWeights(SparseMatrix.zeros(n), G.n_vertices, H.n_vertices)

    gu, gw, gl, gwt = (np.array(t) for t in zip(*((e[0], e[1], e[2], e[3]) for e in G.edges)))
    hu, hw, hl, hwt = (np.array(t) for t in zip(*((e[0], e[1], e[2], e[3]) for e in H.edges)))

    # similarity evaluated once per label pair actually present
    labels_g = np.unique(gl)
    labels_h = np.unique(hl)
    table = np.zeros((labels_g.size, labels_h.size))
    for i, lg in enumerate(labels_g):
        for j, lh in enumerate(labels_h):
            value = float(similarity(int(lg), int(lh)))
            if value < 0.0:
                raise ValueError("similarity must be nonnegative")
            table[i, j] = value
    gi = np.searchsorted(labels_g, gl)
    hi = np.searchsorted(labels_h, hl)

    m_g, m_h = gu.size, hu.size
    sim = table[np.repeat(gi, m_h), np.tile(hi, m_g)]
    weights = np.repeat(gwt, m_h) * np.tile(hwt, m_g) * sim
    rows = np.repeat(gu, m_h) * H.n_vertices + np.tile(hu, m_g)
    cols = np.repeat(gw, m_h) * H.n_vertices + np.tile(hw, m_g)
    keep = weights != 0.0
    matrix = SparseMatrix(n, n, rows[keep], cols[keep], weights[keep])
    return ProductWeights(matrix, G.n_vertices, H.n_vertices)


def graph_kernel(W: ProductWeights, p, q, lam: float, eps: float):
    """Random-walk kernel ``q.T (I - lam W)^-1 p`` with geometric decay.

    ``p`` and ``q`` must be nonnegative unit 1-norm distributions.  The
    convergence condition ``lam * rho(W) < 1`` is certified spectrally when
    the product graph is irreducible and through the norm sufficiency
    condition otherwise; failure raises :class:`KernelDiverges`.  Returns
    ``(value, report)``; the report carries the propagated scalar error
    bound ``||q||_2 * eps * ||p||_2 * bound(||(I - lam W)^-1||)``.
    """
    mat = W.matrix
    n = mat.n_rows
    p = as_vector(p, n, "p")
    q = as_vector(q, n, "q")
    for name, vec in (("p", p), ("q", q)):
        if np.any(vec < 0.0):
            raise ValueError(f"{name} must be nonnegative")
        if abs(vec.sum() - 1.0) > 1e-9:
            raise ValueError(f"{name} must have unit 1-norm")
    if lam < 0.0:
        raise ValueError("decay must be nonnegative")
    if lam == 0.0:
        report = SolveReport(info={"trivial": True, "scalar_error_bound": 0.0})
        return float(q @ p), report

    B = mat.scaled(lam)
    if is_irreducible(mat):
        valid, cert = certify_spectral_bound(B, 1.0)
        if not valid:
            raise KernelDiverges(
                f"certified lam * rho(W) >= {cert.s:.6g} >= 1; kernel series diverges"
            )
        K = _k_estimate(cert)
    else:
        # reducible product graph: rho(B) is the worst spectral radius over
        # the strongly connected component blocks, each of which the Perron
        # machinery can certify directly
        valid, rho_upper = _certify_reducible_decay(B)
        if not valid:
            raise KernelDiverges(
                "certified lam * rho(W) >= 1 on a strongly connected "
                "component; kernel series diverges"
            )
        K = max(4.0, 4.0 * B.n_rows / max(1.0 - rho_upper, 1e-9))
    x, report = _solve_decayed(B, p, eps, K)
    value = float(q @ x)
    bound = float(np.linalg.norm(q) * eps * np.linalg.norm(p) * K)
    report.info["scalar_error_bound"] = bound
    return value, report


def load_labeled_graph(path) -> LabeledGraph:
    """Read a labeled graph: header ``n m d`` then ``m`` lines
    ``u v label weight`` with 1-based vertices."""
    with open(path, "r", encoding="ascii") as fh:
        tokens = []
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith(("#", "%")):
                continue
            tokens.append((lineno, stripped.split()))
    if not tokens:
        raise ValueError(f"{path}: empty graph file")
    lineno, header = tokens[0]
    if len(header) != 3:
        raise ValueError(f"{path}: line {lineno}: header must be 'n m d'")
    n, m, d = (int(t) for t in header)
    if len(tokens) - 1 != m:
        raise ValueError(f"{path}: declared {m} edges, found {len(tokens) - 1}")
    edges = []
    for lineno, parts in tokens[1:]:
        if len(parts) != 4:
            raise ValueError(f"{path}: line {lineno}: edge must be 'u v label weight'")
        u, v, label = int(parts[0]), int(parts[1]), int(parts[2])
        weight = float(parts[3])
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"{path}: line {lineno}: vertex out of range")
        edges.append((u - 1, v - 1, label, weight))
    return LabeledGraph(n_vertices=n, edges=tuple(edges), n_labels=d)
