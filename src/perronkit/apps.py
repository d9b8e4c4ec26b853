"""Applications: Katz centrality, Leontief equilibrium, top singular
triplet, and random-walk graph kernels.

Each application reduces to either an M-matrix solve (``(I - B) x = b`` with
``rho(B) < 1``) or a Perron computation on an explicitly formed Gram matrix.
Katz, Leontief and the kernel decide ``rho(B) < 1`` by one decision that
needs no conditioning budget (:func:`_decide_decay`), the whole matrix's
shift-and-invert bracket, whose negatives hold for any budget.  A negative
raises :class:`DecayTooLarge` or :class:`KernelDiverges` carrying the
certificate whose CW lower bound proves it (none when a strongly connected
block of a reducible ``B`` does), or for Leontief returns False.  A
positive verdict's pair, usually the bracket's iterates, checked to scale
``I - B`` RCDD, proves the kernel's error bound.  The check hands on the
matrix it passed, and the operator :func:`solve_m` builds from the
bracket's unshifted pair (``scaling._pair_operator``) solves with that
matrix, with no scan and no second formation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import DecayTooLarge, IterationCapHit, KernelDiverges, ReducibleGram
from .perron import (
    _bracket_certificate,
    _certify,
    _compute_perron,
    _relative_residual,
    certify_spectral_bound,
)
from .reports import SolveReport
from .scaling import ScalingPair, _CWBracket, _inverse_norm_bounds, _pair_operator, _refined_operator
from .sparse import (
    SparseMatrix,
    _check_open_unit,
    _check_square_nonnegative,
    as_vector,
    is_irreducible,
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
# the shared decay decision


def _decide_decay(B: SparseMatrix):
    """``rho(B) < 1`` for square nonnegative ``B``: ``(True, (S, pair))``
    with ``S = diag(l) (I - B) diag(r)`` the matrix the bracket checked
    RCDD (:meth:`scaling._CWBracket.checked`), or ``(False, cert)`` with the
    certificate whose CW lower bound proves ``rho(B) >= 1``.  The whole
    matrix's bracket decides, irreducible or not (its upper bounds bound
    ``rho(B)`` for any nonnegative ``B``), a True verdict's iterates being
    the pair.  When it settles nothing an irreducible ``B`` continues it
    through :func:`certify_spectral_bound`'s rounds, their certificate's
    pair then checked by the same bracket, and a reducible one (a zero row
    and a zero column keep its lower bound at 0) has its blocks refuted one
    by one, ``cert`` None.  A valid verdict with no checked pair is
    :class:`IterationCapHit`."""
    bracket = _CWBracket(B)
    found = bracket.checked_pair(1.0, 0.0)
    if found is False:
        return False, _bracket_certificate(bracket, 1.0)
    if found is None and is_irreducible(B):
        valid, cert = _certify(B, 1.0, bracket)
        if not valid:
            return False, cert
        found = bracket.checked(ScalingPair(cert.left, cert.right, 0.0, 1.0))
    elif found is None and not _certify_reducible_decay(B):
        return False, None
    if found is None:
        raise IterationCapHit(
            "rho(B) < 1 is certified, but the Collatz-Wielandt bracket found no scaling of I - B"
        )
    return True, found


def _diverges(error, what: str, series: str, cert):
    """``error`` for a refuted ``rho(B) < 1``, ``what`` naming ``rho(B)``."""
    where = f">= {cert.s:.6g} >= 1" if cert is not None else ">= 1 on a strongly connected component"
    return error(f"certified {what} {where}; {series} series diverges", certificate=cert)


def _certify_reducible_decay(B: SparseMatrix) -> bool:
    """``rho(B) < 1`` for a reducible nonnegative ``B``, decided block by
    block: ``rho(B)`` is the largest spectral radius of its strongly
    connected component blocks, each of which is irreducible or a single
    diagonal entry."""
    csr = B.csr()
    _, labels = connected_components(csr, directed=True, connection="strong")
    diag = csr.diagonal()
    for comp in range(labels.max() + 1):
        idx = np.flatnonzero(labels == comp)
        if idx.size == 1:
            if diag[idx[0]] >= 1.0:
                return False
        elif not certify_spectral_bound(SparseMatrix.from_scipy(csr[idx][:, idx]), 1.0)[0]:
            return False
    return True


# ----------------------------------------------------------------------
# applications


def katz_centrality(A: SparseMatrix, alpha: float, b, eps: float):
    """Katz influence vector ``v = (I - alpha A)^-1 b``.

    The decay condition ``alpha * rho(A) < 1`` is certified by the whole
    matrix's Collatz-Wielandt bracket, for irreducible and reducible ``A``
    alike (see the module docstring); the solve runs on the checked scaling
    of ``I - alpha A`` by the pair that certifies it.  A violation raises
    :class:`DecayTooLarge` carrying the certificate whose CW lower bound
    ``s >= 1`` proves the series diverges, whatever the budget, or ``None``
    when a strongly connected block refutes it.  Returns ``(v, report)``
    with ``||(I - alpha A) v - b||_2 <= eps ||b||_2``.
    """
    _check_open_unit(eps, "eps")
    _check_square_nonnegative(A)
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
    valid, proof = _decide_decay(B)
    if not valid:
        raise _diverges(DecayTooLarge, "rho(alpha A)", "Katz", proof)
    op = _pair_operator(B, eps, *proof)
    return op.apply(b), op.report


def leontief_equilibrium(A: SparseMatrix, d=None, eps: float = 1e-8):
    """Hawkins-Simons check and equilibrium output for a consumption matrix.

    The verdict is True exactly when ``I - A`` is an invertible M-matrix
    (``rho(A) < 1``).  With a demand vector ``d`` and a positive verdict,
    also returns ``x`` with ``||(I - A) x - d||_2 <= eps ||d||_2``; otherwise
    the second element is None.  The verdict is decided as Katz decides its
    decay, reducible economies included (see the module docstring), and the
    solve runs on the checked scaling of ``I - A`` by its pair.
    """
    _check_open_unit(eps, "eps")
    _check_square_nonnegative(A)
    if d is not None:
        d = as_vector(d, A.n_rows, "d")
        if np.any(d < 0.0):
            raise ValueError("demand must be nonnegative")
    if A.nnz == 0:
        return True, (d.copy() if d is not None else None)
    valid, proof = _decide_decay(A)
    if not valid:
        return False, None
    if d is None or not np.any(d > 0.0):
        return True, (np.zeros(A.n_rows) if d is not None else None)
    return True, _pair_operator(A, eps, *proof).apply(d)


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
    forms the smaller one and runs the certified Perron computation on it,
    its bracket one-sided since a Gram matrix is symmetric (no left solves;
    the acceptance test is :func:`compute_perron`'s); ``sigma = sqrt(s)`` is
    then within relative ``delta`` of the true top singular value.  The
    other singular vector is derived (``u = A v / ||A v||`` or ``v = A.T u
    / ||A.T u||``) and its Gram residual recomputed.
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
    cert = _compute_perron(SparseMatrix.from_scipy(gram), delta, symmetric=True)
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
    convergence condition ``lam * rho(W) < 1`` is decided as Katz decides
    its decay, for irreducible and reducible product graphs alike (see the
    module docstring), and the solve runs on the checked scaling of ``I -
    lam W`` by the pair that certifies it.  Failure raises
    :class:`KernelDiverges`, carrying the certificate that proves it,
    ``None`` when a strongly connected block refutes it.  Returns ``(value, report)``; the report carries the
    propagated scalar error bound ``||q||_2 * eps * ||p||_2 * bound(||(I -
    lam W)^-1||_2)``, proven by the pair:
    ``sqrt(kappa(r) / (1 - c_r) * kappa(l) / (1 - c_l))`` with ``c_r`` and
    ``c_l`` its right and left CW upper bounds (see
    :func:`_inverse_norm_bounds`; ``||X||_2 <= sqrt(||X||_1 ||X||_inf)``).
    """
    _check_open_unit(eps, "eps")
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
    valid, proof = _decide_decay(B)
    if not valid:
        raise _diverges(KernelDiverges, "lam * rho(W)", "kernel", proof)
    # the pair's bounds, computed once, set both the operator's K and the bound
    bounds = _inverse_norm_bounds(B, proof[1])
    op = _refined_operator(B, proof[1].s, eps, max(bounds), *proof, 0.0)
    bound = float(np.linalg.norm(q) * eps * np.linalg.norm(p) * math.sqrt(math.prod(bounds)))
    op.report.info["scalar_error_bound"] = bound
    return float(q @ op.apply(p)), op.report


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
    try:
        n, m, d = (int(t) for t in header)
    except ValueError as exc:
        raise ValueError(f"{path}: line {lineno}: bad header: {exc}") from None
    if len(tokens) - 1 != m:
        raise ValueError(f"{path}: declared {m} edges, found {len(tokens) - 1}")
    edges = []
    for lineno, parts in tokens[1:]:
        if len(parts) != 4:
            raise ValueError(f"{path}: line {lineno}: edge must be 'u v label weight'")
        try:
            u, v, label = int(parts[0]), int(parts[1]), int(parts[2])
            weight = float(parts[3])
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: bad edge: {exc}") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"{path}: line {lineno}: vertex out of range")
        edges.append((u - 1, v - 1, label, weight))
    return LabeledGraph(n_vertices=n, edges=tuple(edges), n_labels=d)
