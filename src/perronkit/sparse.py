"""Sparse matrix storage, norms, structural checks, scaling, and file I/O.

Matrices are stored in compressed sparse row form with an eagerly built
compressed row form of the transpose, since the scaling loops need both
``M @ x`` and ``M.T @ x`` on every iteration.  Instances are immutable after
construction and safe for concurrent reads.

Vectors are plain 1-D ``numpy.float64`` arrays; constructors and file loaders
reject non-finite entries.  The dominance checks and ``rcdd``'s condition
bound all take their line sums of ``|S|`` from one pass, :func:`_line_sums`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import MatrixMarketParseError

__all__ = [
    "SparseMatrix",
    "NormReport",
    "load_matrix",
    "load_vector",
    "save_vector",
    "matvec",
    "induced_norms",
    "is_irreducible",
    "check_rcdd",
    "check_sdd",
    "apply_scaling",
    "shifted_m_matrix",
    "RCDD_VERIFY_SLACK",
]

# Relative slack used when verifying RCDD-ness of *computed* scalings, to
# absorb rounding in the L @ M @ R products.
RCDD_VERIFY_SLACK = 1e-12


def _check_open_unit(value: float, name: str) -> None:
    """Raise ``ValueError`` unless ``0 < value < 1``."""
    if not (0.0 < value < 1.0):
        raise ValueError(f"{name} must lie in (0, 1)")


def as_vector(x, n=None, name="x") -> np.ndarray:
    """Coerce to a finite 1-D float64 array, optionally checking length."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    if n is not None and v.shape[0] != n:
        raise ValueError(f"{name} has length {v.shape[0]}, expected {n}")
    return v


@dataclass(frozen=True)
class NormReport:
    """Induced matrix norms: ``norm_1`` is the max column absolute sum,
    ``norm_inf`` the max row absolute sum."""

    norm_1: float
    norm_inf: float


class SparseMatrix:
    """Immutable sparse matrix in CSR form with a cached transpose view.

    Duplicate coordinates are summed and explicit zeros dropped on
    construction, so the stored triplet set is canonical.
    """

    def __init__(self, n_rows, n_cols, rows, cols, values):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if not (rows.shape == cols.shape == values.shape) or rows.ndim != 1:
            raise ValueError("rows, cols, values must be 1-D arrays of equal length")
        if not np.all(np.isfinite(values)):
            raise ValueError("matrix entries must be finite")
        if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
            raise ValueError("row index out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= n_cols):
            raise ValueError("column index out of range")
        csr = sp.csr_matrix(
            (values, (rows, cols)), shape=(int(n_rows), int(n_cols))
        )
        csr.sum_duplicates()
        csr.eliminate_zeros()
        csr.sort_indices()
        self._csr = csr
        self._csr_t = csr.transpose().tocsr()
        self._csr_t.sort_indices()

    # -- constructors -------------------------------------------------

    @classmethod
    def from_scipy(cls, mat) -> "SparseMatrix":
        coo = sp.coo_matrix(mat)
        return cls(coo.shape[0], coo.shape[1], coo.row, coo.col, coo.data)

    @classmethod
    def from_dense(cls, arr) -> "SparseMatrix":
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("dense input must be 2-D")
        rows, cols = np.nonzero(arr)
        return cls(arr.shape[0], arr.shape[1], rows, cols, arr[rows, cols])

    @classmethod
    def identity(cls, n) -> "SparseMatrix":
        idx = np.arange(n)
        return cls(n, n, idx, idx, np.ones(n))

    @classmethod
    def zeros(cls, n_rows, n_cols=None) -> "SparseMatrix":
        if n_cols is None:
            n_cols = n_rows
        empty = np.empty(0)
        return cls(n_rows, n_cols, empty, empty, empty)

    # -- basic views ---------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self._csr.shape[0]

    @property
    def n_cols(self) -> int:
        return self._csr.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._csr.shape

    @property
    def nnz(self) -> int:
        return self._csr.nnz

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def csr(self) -> sp.csr_matrix:
        """Forward CSR view (do not mutate)."""
        return self._csr

    def csr_transpose(self) -> sp.csr_matrix:
        """CSR storage of the transpose (do not mutate)."""
        return self._csr_t

    def entries(self):
        """Return ``(rows, cols, values)`` of the stored nonzeros."""
        coo = self._csr.tocoo()
        return coo.row.copy(), coo.col.copy(), coo.data.copy()

    @cached_property
    def _dense(self) -> np.ndarray:
        return self._csr.toarray()

    def to_dense(self) -> np.ndarray:
        return self._dense.copy()

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix.from_scipy(self._csr_t)

    def scaled(self, factor: float) -> "SparseMatrix":
        """Matrix multiplied by a scalar."""
        if not np.isfinite(factor):
            raise ValueError("scale factor must be finite")
        return SparseMatrix.from_scipy(self._csr * factor)

    def is_nonnegative(self) -> bool:
        return bool(self._csr.nnz == 0 or self._csr.data.min() >= 0.0)

    def matvec(self, x, transpose: bool = False) -> np.ndarray:
        """Exact sparse product ``A @ x`` or ``A.T @ x`` in double precision."""
        if transpose:
            x = as_vector(x, self.n_rows)
            return self._csr_t @ x
        x = as_vector(x, self.n_cols)
        return self._csr @ x

    def __repr__(self):
        return f"SparseMatrix(shape={self.shape}, nnz={self.nnz})"


# -- operations --------------------------------------------------------


def matvec(A: SparseMatrix, x, transpose: bool = False) -> np.ndarray:
    """Sparse matrix-vector product; errors on dimension mismatch."""
    return A.matvec(x, transpose=transpose)


def induced_norms(A: SparseMatrix) -> NormReport:
    """Exact induced 1- and infinity-norms (max column/row absolute sums)."""
    coo = A.csr().tocoo()
    absdata = np.abs(coo.data)
    row_sums = np.zeros(A.n_rows)
    col_sums = np.zeros(A.n_cols)
    np.add.at(row_sums, coo.row, absdata)
    np.add.at(col_sums, coo.col, absdata)
    return NormReport(float(col_sums.max(initial=0.0)), float(row_sums.max(initial=0.0)))


def is_irreducible(A: SparseMatrix) -> bool:
    """True iff the directed graph on the nonzero pattern is strongly connected.

    A 1x1 matrix counts as irreducible only when its single entry is nonzero,
    matching the power-of-the-matrix definition.
    """
    if not A.is_square:
        raise ValueError("irreducibility is defined for square matrices")
    if A.n_rows == 1:
        return A.nnz == 1
    ncomp, _ = connected_components(A.csr(), directed=True, connection="strong")
    return ncomp == 1


def _line_sums(S):
    """Diagonal and off-diagonal row and column sums of ``|S|``,
    ``(diag, row_off, col_off)``, of a :class:`SparseMatrix`, a CSR matrix or
    a dense array: the one pass behind every dominance margin
    (``diag - off``) and line sum of ``|S|`` (``|diag| + off``).

    Off-diagonal sums accumulate only off-diagonal entries (no subtraction of
    the diagonal afterwards, which would leak rounding into exact margins).
    Duplicate CSR entries are summed first, on a copy.
    """
    if isinstance(S, SparseMatrix):
        S = S.csr()
    if isinstance(S, np.ndarray):
        off = np.abs(S)
        np.fill_diagonal(off, 0.0)
        return S.diagonal(), off.sum(axis=1), off.sum(axis=0)
    S = S.tocsr()
    if not S.has_canonical_format:
        S = S.copy()
        S.sum_duplicates()
    rows = np.repeat(np.arange(S.shape[0]), np.diff(S.indptr))
    off = rows != S.indices
    absdata = np.abs(S.data[off])
    row_off = np.bincount(rows[off], absdata, S.shape[0])
    col_off = np.bincount(S.indices[off], absdata, S.shape[1])
    return S.diagonal(), row_off, col_off


def _is_symmetric(S: SparseMatrix) -> bool:
    """Symmetry within 1e-12 relative to the largest entry magnitude (at
    least 1)."""
    diff = (S.csr() - S.csr_transpose()).tocoo()
    if not diff.nnz:
        return True
    scale = max(1.0, float(np.abs(S.csr().data).max(initial=0.0)))
    return bool(np.abs(diff.data).max() <= 1e-12 * scale)


def check_rcdd(S, strict_slack: float = 0.0) -> bool:
    """Row-column diagonal dominance with relative slack.

    ``S`` is a :class:`SparseMatrix`, a CSR matrix or a dense array.  Every
    row and column must satisfy
    ``S_ii - sum_{j != i} |S_ij| >= -strict_slack * (|S_ii| + 1)``;
    ``strict_slack=0`` checks exact RCDD.
    """
    if S.shape[0] != S.shape[1]:
        raise ValueError("RCDD is defined for square matrices")
    diag, row_off, col_off = _line_sums(S)
    allow = -strict_slack * (np.abs(diag) + 1.0)
    return bool(np.all(diag - row_off >= allow) and np.all(diag - col_off >= allow))


def check_sdd(S: SparseMatrix, strict_slack: float = 0.0) -> bool:
    """Symmetric diagonal dominance: symmetry within 1e-12 (relative, see
    :func:`_is_symmetric`) plus the same dominance margins as
    :func:`check_rcdd`."""
    if not S.is_square:
        raise ValueError("SDD is defined for square matrices")
    return _is_symmetric(S) and check_rcdd(S, strict_slack)


def apply_scaling(L, M: SparseMatrix, R) -> SparseMatrix:
    """Return ``diag(L) @ M @ diag(R)`` with the same sparsity pattern."""
    left = as_vector(L, M.n_rows, "L")
    right = as_vector(R, M.n_cols, "R")
    if np.any(left <= 0.0) or np.any(right <= 0.0):
        raise ValueError("scaling vectors must be strictly positive")
    rows, cols, values = M.entries()
    return SparseMatrix(M.n_rows, M.n_cols, rows, cols, left[rows] * values * right[cols])


def shifted_m_matrix(A: SparseMatrix, s: float, alpha: float = 0.0) -> SparseMatrix:
    """The shifted matrix ``(1 + alpha) * s * I - A``."""
    if not A.is_square:
        raise ValueError("shift requires a square matrix")
    n = A.n_rows
    shifted = sp.identity(n, format="csr") * ((1.0 + alpha) * s) - A.csr()
    return SparseMatrix.from_scipy(shifted)


# -- file I/O ----------------------------------------------------------


def load_matrix(path) -> SparseMatrix:
    """Read a Matrix Market coordinate file (real, general or symmetric).

    Symmetric storage is expanded to general form; duplicates are summed and
    explicit zeros dropped per the Matrix Market convention.  Raises
    :class:`MatrixMarketParseError` with a line number on malformed input.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()
    if not lines:
        raise MatrixMarketParseError("empty file", 1)

    header = lines[0].strip().lower().split()
    if len(header) < 4 or header[0] not in ("%%matrixmarket", "%matrixmarket"):
        raise MatrixMarketParseError("missing MatrixMarket header", 1)
    if header[1] != "matrix" or header[2] != "coordinate":
        raise MatrixMarketParseError("only coordinate matrices are supported", 1)
    field = header[3]
    if field not in ("real", "integer"):
        raise MatrixMarketParseError(f"unsupported field type {field!r}", 1)
    symmetry = header[4] if len(header) > 4 else "general"
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketParseError(f"unsupported symmetry {symmetry!r}", 1)

    size_line = None
    body_start = None
    for idx in range(1, len(lines)):
        stripped = lines[idx].strip()
        if not stripped or stripped.startswith("%"):
            continue
        size_line = (idx + 1, stripped)
        body_start = idx + 1
        break
    if size_line is None:
        raise MatrixMarketParseError("missing size line", len(lines))

    lineno, text = size_line
    parts = text.split()
    if len(parts) != 3:
        raise MatrixMarketParseError("size line must be 'rows cols nnz'", lineno)
    try:
        n_rows, n_cols, nnz = (int(p) for p in parts)
    except ValueError as exc:
        raise MatrixMarketParseError(f"bad size line: {exc}", lineno) from None
    if n_rows < 0 or n_cols < 0 or nnz < 0:
        raise MatrixMarketParseError("negative dimension", lineno)
    if symmetry == "symmetric" and n_rows != n_cols:
        raise MatrixMarketParseError("symmetric matrix must be square", lineno)

    rows, cols, values = [], [], []
    count = 0
    for idx in range(body_start, len(lines)):
        lineno = idx + 1
        stripped = lines[idx].strip()
        if not stripped or stripped.startswith("%"):
            continue
        parts = stripped.split()
        if len(parts) != 3:
            raise MatrixMarketParseError("entry must be 'row col value'", lineno)
        try:
            i, j = int(parts[0]), int(parts[1])
            v = float(parts[2])
        except ValueError as exc:
            raise MatrixMarketParseError(f"bad entry: {exc}", lineno) from None
        if not (1 <= i <= n_rows) or not (1 <= j <= n_cols):
            raise MatrixMarketParseError(
                f"index ({i}, {j}) outside {n_rows} x {n_cols}", lineno
            )
        if not np.isfinite(v):
            raise MatrixMarketParseError("non-finite value", lineno)
        rows.append(i - 1)
        cols.append(j - 1)
        values.append(v)
        if symmetry == "symmetric" and i != j:
            rows.append(j - 1)
            cols.append(i - 1)
            values.append(v)
        count += 1
    if count != nnz:
        raise MatrixMarketParseError(
            f"declared {nnz} entries but found {count}", len(lines)
        )
    return SparseMatrix(n_rows, n_cols, rows, cols, values)


def load_vector(path) -> np.ndarray:
    """Read a plain-text vector, one value per line (blank lines ignored)."""
    values = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("%"):
                continue
            for tok in stripped.split():
                try:
                    values.append(float(tok))
                except ValueError:
                    raise ValueError(f"{path}: line {lineno}: bad value {tok!r}") from None
    return as_vector(values, name=str(path))


def save_vector(path, x) -> None:
    x = as_vector(x, name="x")
    with open(path, "w", encoding="ascii") as fh:
        for v in x:
            fh.write(f"{float(v)!r}\n")
