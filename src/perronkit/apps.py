"""Applications: Katz centrality, Leontief equilibrium, top singular
triplet, and random-walk graph kernels.

Each application reduces to either an M-matrix solve (``(I - B) x = b`` with
``rho(B) < 1``) or a Perron computation on an explicitly formed Gram matrix.
Spectral validity conditions are decided by the library's own certified
machinery rather than assumed, by :func:`certify_spectral_bound`, which
needs no conditioning budget: every negative verdict holds for any budget.
A negative raises :class:`DecayTooLarge` or :class:`KernelDiverges`
carrying the certificate whose CW lower bound proves it (none for a
reducible kernel, refuted block by block), or for Leontief returns False.
A positive verdict's certificate scales ``I - B`` RCDD, and the solve runs
on that pair without a scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import (
    BackendDiverged,
    DecayTooLarge,
    IterationCapHit,
    KernelDiverges,
    NotRCDD,
    ReducibleGram,
    RoundingFloorHit,
)
from .perron import (
    PerronCertificate,
    _relative_residual,
    certify_spectral_bound,
    compute_perron,
)
from .reports import SolveReport
from .scaling import ScalingPair, _cw_bounds, solve_from_scale, solve_m
from .sparse import (
    SparseMatrix,
    _check_open_unit,
    as_vector,
    is_irreducible,
    shifted_m_matrix,
)

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


def _inverse_norm_bounds(B: SparseMatrix, cert: PerronCertificate) -> tuple[float, float]:
    """Bounds on ``(||(I - B)^-1||_inf, ||(I - B)^-1||_1)`` from a certificate
    of ``rho(B) < 1``, whose CW upper bounds ``c_r`` (right vector on ``B``)
    and ``c_l`` (left vector on ``B.T``) lie below 1.  ``B r <= c_r r`` gives
    ``(I - B) r >= (1 - c_r) r``, and as ``(I - B)^-1`` is nonnegative its
    row sums are at most ``kappa(r) / (1 - c_r)``; the left vector bounds
    the column sums by ``kappa(l) / (1 - c_l)`` likewise."""
    c_left = _cw_bounds(B, cert.left, transpose=True)[1]
    return (
        float(cert.right.max() / cert.right.min()) / (1.0 - cert.cw_upper),
        float(cert.left.max() / cert.left.min()) / (1.0 - c_left),
    )


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


def _solve_decayed(B: SparseMatrix, rhs: np.ndarray, eps: float, cert: PerronCertificate):
    """Solve ``(I - B) x = rhs`` to ``eps`` from a certificate of
    ``rho(B) < 1``: its two vectors scale ``I - B`` RCDD, so they feed
    :func:`solve_from_scale` directly, whose solver build checks the scaled
    matrix RCDD within ``RCDD_VERIFY_SLACK``.  A pair that fails that check,
    or a solve that misses its contract, falls back to :func:`solve_m` at
    the conditioning bound the certificate proves."""
    pair = ScalingPair(left=cert.left, right=cert.right, alpha=0.0, s=1.0)
    try:
        p_right = solve_from_scale(shifted_m_matrix(B, 1.0), pair, eps).p_right
        return p_right.apply(rhs), p_right.report
    except (NotRCDD, BackendDiverged):
        return _solve_m_retried(B, rhs, eps, max(_inverse_norm_bounds(B, cert)))


def _solve_m_retried(B: SparseMatrix, rhs: np.ndarray, eps: float, K: float):
    """Solve ``(I - B) x = rhs`` by :func:`solve_m`, multiplying ``K`` by 8
    after each :class:`IterationCapHit` a larger ``K`` can repair: a scan
    phase that failed at too small a ``K``, or a refinement that ran out of
    iterations (its cap grows with ``K``).  A :class:`RoundingFloorHit`
    propagates at once.  Returns ``(x, report)``, with the ``K`` the solve
    ended at in ``report.info["conditioning_bound"]``."""
    for _ in range(6):
        try:
            op = solve_m(B, 1.0, eps, K)
            x = op.apply(rhs)
        except RoundingFloorHit:
            raise
        except IterationCapHit:
            K *= 8.0
            continue
        op.report.info["conditioning_bound"] = K
        return x, op.report
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

    The decay condition ``alpha * rho(A) < 1`` is certified by
    :func:`certify_spectral_bound`, whose certificate's vectors then scale
    ``I - alpha A`` for the solve.  A violation raises
    :class:`DecayTooLarge` carrying that certificate: its CW lower bound
    ``s >= 1`` proves the series diverges, whatever the budget.  Returns
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
            f"certified rho(alpha A) >= {cert.s:.6g} >= 1; Katz series diverges",
            certificate=cert,
        )
    return _solve_decayed(B, b, eps, cert)


def leontief_equilibrium(A: SparseMatrix, d=None, eps: float = 1e-8):
    """Hawkins-Simons check and equilibrium output for a consumption matrix.

    The verdict is True exactly when ``I - A`` is an invertible M-matrix
    (``rho(A) < 1``).  With a demand vector ``d`` and a positive verdict,
    also returns ``x`` with ``||(I - A) x - d||_2 <= eps ||d||_2``; otherwise
    the second element is None.  The verdict's certificate scales ``I - A``
    for the solve.  Reducible economies are not decomposed: the decision
    machinery raises :class:`NotIrreducible`.
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
    x, _ = _solve_decayed(A, d, eps, cert)
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
    the product graph is irreducible, and the certificate's vectors then
    scale ``I - lam W`` for the solve; otherwise it is certified block by
    block over the strongly connected components and the solve runs
    :func:`solve_m`.  Failure raises :class:`KernelDiverges`, carrying the
    certificate on the irreducible path.  Returns ``(value, report)``; the
    report carries the propagated scalar error bound
    ``||q||_2 * eps * ||p||_2 * bound(||(I - lam W)^-1||_2)``.  On the
    irreducible path that bound is proven by the certificate:
    ``sqrt(kappa(r) / (1 - c_r) * kappa(l) / (1 - c_l))`` with ``c_r`` and
    ``c_l`` the right and left CW upper bounds (see
    :func:`_inverse_norm_bounds`; ``||X||_2 <= sqrt(||X||_1 ||X||_inf)``).
    On the reducible path it is a guess, not a proof: the conditioning
    bound ``K`` the solve ended at, from the first guess
    ``max(4, 4 n / (1 - rho_upper))`` times 8 per retry.
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
                f"certified lam * rho(W) >= {cert.s:.6g} >= 1; kernel series diverges",
                certificate=cert,
            )
        x, report = _solve_decayed(B, p, eps, cert)
        inverse_norm = math.sqrt(math.prod(_inverse_norm_bounds(B, cert)))
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
        guess = max(4.0, 4.0 * B.n_rows / max(1.0 - rho_upper, 1e-9))
        x, report = _solve_m_retried(B, p, eps, guess)
        inverse_norm = report.info["conditioning_bound"]
    value = float(q @ x)
    bound = float(np.linalg.norm(q) * eps * np.linalg.norm(p) * inverse_norm)
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
