"""Sparse matrix storage, norms, structural checks, scaling, and file I/O.

Matrices are stored once, in canonical compressed sparse row form.  The
scaling loops need both ``M @ x`` and ``M.T @ x``, and a transposed product
runs scipy's compressed column kernel on the same arrays, read as the
compressed column form of the transpose (what ``csr.T`` views them as):
``csc_matvec`` adds each output's terms in the order ``csr_matvec`` adds
them on the sorted transpose, so the bits are the same, with no second
copy.  A transpose CSR is built only when a caller asks for one
(:meth:`SparseMatrix.csr_transpose`, :meth:`SparseMatrix.transpose`) and
kept.  Instances are immutable after construction and safe for concurrent
reads.  A matrix derived from another
(:meth:`SparseMatrix.scaled`, :func:`apply_scaling`,
:func:`shifted_m_matrix`) shares its parent's pattern, a :class:`_Pattern`:
it takes new values on the parent's index arrays and drops new zeros by a
mask, so it stores the triplets the constructor would give without its COO
round trip.

Every sparse product in the package's double-precision loops, those of a
:class:`SparseMatrix` (``SparseMatrix._product``), the halving scan's
residuals, the Krylov solver's and a refinement's, is one call of
:func:`_kernel_product`: scipy's CSR kernel on the stored arrays, or its
CSC kernel for the transpose, the bits of ``csr @ x`` and ``csr.T @ x``
without their dispatch; :meth:`SparseMatrix.matvec` checks its vector
first.  The exception is a refinement's ``np.longdouble`` products, which
the kernel cannot take.

Every matrix the engine forms from ``A`` to check or solve with, shifted or
scaled and shifted, is a :class:`_PatternCSR` on one pattern, that of ``A +
I``, which ``A``'s :class:`_Pattern` builds once and keeps, at every size.
One function writes the values of each, :func:`_shift_values`: ``shift I +
factor A`` on that pattern, for :func:`shifted_m_matrix`, a problem's scaled
shift and the bracket's step matrix.
Vectors are plain 1-D ``numpy.float64`` arrays; constructors and file
loaders reject non-finite entries.  The dominance checks and ``rcdd``'s condition
bound all take their line sums of ``|S|`` from one pass over a CSR matrix,
:func:`_line_sums`, which reuses the row index and diagonal positions its
pattern keeps; a caller's dense array is converted to CSR first.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools
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


def _check_square_nonnegative(A: SparseMatrix) -> None:
    """Raise ``ValueError`` unless ``A`` is square and entrywise nonnegative."""
    if not A.is_square:
        raise ValueError("expected a square matrix")
    if not A.is_nonnegative():
        raise ValueError("matrix must be entrywise nonnegative")


def as_vector(x, n=None, name="x") -> np.ndarray:
    """Coerce to a finite, C-ordered 1-D float64 array, optionally checking
    length."""
    v = np.asarray(x, dtype=np.float64, order="C")
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    if n is not None and v.shape[0] != n:
        raise ValueError(f"{name} has length {v.shape[0]}, expected {n}")
    return v


def _kernel_product(mat: sp.csr_matrix, x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """``mat @ x`` for a CSR matrix by the kernel ``mat @ x`` ends in,
    ``csr_matvec``, on its stored arrays, into a fresh zero vector: the same
    bits, without scipy's dispatch.  With ``transpose`` it is ``mat.T @ x``
    by ``csc_matvec`` on the same arrays, read as the compressed column form
    of the transpose.  ``x`` must already be a float64, C-ordered vector of
    the right length, which is checked in O(1) (the kernel checks no
    bounds); its finiteness is not."""
    n_out, n_in = mat.shape[::-1] if transpose else mat.shape
    if x.shape != (n_in,) or x.dtype != np.float64 or not x.flags.c_contiguous:
        raise ValueError(
            f"product needs a C-ordered float64 vector of length {n_in}, "
            f"got {x.dtype} of shape {x.shape}"
        )
    y = np.zeros(n_out)
    kernel = _sparsetools.csc_matvec if transpose else _sparsetools.csr_matvec
    kernel(n_out, n_in, mat.indptr, mat.indices, mat.data, x, y)
    return y


@dataclass(frozen=True)
class NormReport:
    """Induced matrix norms: ``norm_1`` is the max column absolute sum,
    ``norm_inf`` the max row absolute sum."""

    norm_1: float
    norm_inf: float


class _Pattern:
    """The index arrays of a canonical CSR matrix, ``indptr`` and
    ``indices``: the pattern every matrix derived from it shares.  What
    follows from the pattern alone, the row of each entry, the positions of
    the diagonal entries, the transposition and the pattern of ``M + I``,
    is computed on first use and kept for every matrix on the pattern, so a
    matrix pays only for what some caller asks of it.  The row index takes
    the dtype of ``indptr``, int32 wherever scipy's index arrays are: half
    the memory of int64, and gathers by ``take`` as fast.  Positions that
    values are written to (the diagonal's, ``a_pos``) stay ``intp``, as
    numpy converts any other index dtype on every scatter.

    What it keeps lives as long as the matrix, and the caller that keeps
    the matrix pays for it: once a problem is built on ``A``, about 18
    bytes per stored entry (28 MB more than without the caches at n =
    262144 with 1.57 million entries, held after ``compute_perron``
    returns).  A caller that runs one bracket per matrix gains nothing
    from that reuse, and drops it with the matrix."""

    def __init__(self, shape, indptr, indices):
        self.shape = shape
        self.indptr, self.indices = indptr, indices

    @cached_property
    def rows(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr)).astype(self.indptr.dtype)

    @cached_property
    def diagonal(self) -> np.ndarray:
        """The position of each stored diagonal entry, in row order."""
        return np.flatnonzero(self.rows == self.indices)

    @cached_property
    def transposition(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(t_indptr, t_indices, perm)``: the canonical CSR pattern of the
        transpose, and the forward position of each of its entries, so that
        values ``data`` on this pattern have the transpose values
        ``data[perm]``.  Entry numbers moved by ``csr_tocsc``, the kernel
        that transposes a CSR matrix, into sorted columns."""
        numbers = np.arange(self.indices.size)
        csc = sp.csr_matrix((numbers, self.indices, self.indptr), shape=self.shape).tocsc()
        return csc.indptr, csc.indices, csc.data

    @cached_property
    def shifted(self) -> tuple["_Pattern", np.ndarray]:
        """:func:`_with_diagonal` of this pattern, built on first use: every
        matrix formed from one on this pattern by a shift, scaled or not, is
        stored on the pattern of ``M + I``, so it is built once for them
        all."""
        return _with_diagonal(self)


def _with_diagonal(pattern: _Pattern) -> tuple[_Pattern, np.ndarray]:
    """``(shifted, a_pos)``: the canonical CSR pattern of ``M + I``, ``M``
    square on ``pattern``, its diagonal positions set (so that no row index
    is built for them), and the new position of each entry of ``M``.  An
    entry moves past the diagonals added in earlier rows, and past its own
    row's when it lies right of it."""
    indptr, indices, rows = pattern.indptr, pattern.indices, pattern.rows
    n = indptr.size - 1
    added = np.ones(n, dtype=bool)
    added[rows[indices == rows]] = False
    before = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(added, out=before[1:])
    new_indptr = (indptr + before).astype(indptr.dtype)
    a_pos = np.arange(indices.size) + before[rows] + (added[rows] & (indices > rows))
    diag = new_indptr[:-1] + np.bincount(rows[indices < rows], minlength=n)
    new_indices = np.empty(new_indptr[-1], dtype=indices.dtype)
    new_indices[a_pos] = indices
    new_indices[diag] = np.arange(n)
    shifted = _Pattern(pattern.shape, new_indptr, new_indices)
    shifted.diagonal = diag
    return shifted, a_pos


class SparseMatrix:
    """Immutable sparse matrix, stored once in CSR form.

    Duplicate coordinates are summed and explicit zeros dropped on
    construction, so the stored triplet set is canonical.  Derived matrices
    (:meth:`_derived`) keep that form on their parent's pattern.  The
    transpose's CSR is built on first use and kept; it is deterministic, so
    two threads racing through a first use at most build it twice.  Both
    CSRs are :class:`_PatternCSR` matrices, which keep their pattern and,
    once a check takes them, their line sums.
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
        csr = _PatternCSR((values, (rows, cols)), shape=(int(n_rows), int(n_cols)))
        csr.sum_duplicates()
        csr.eliminate_zeros()
        csr.sort_indices()
        csr.pattern = _Pattern(csr.shape, csr.indptr, csr.indices)
        self._csr = csr

    @classmethod
    def _derived(cls, pattern: _Pattern, data: np.ndarray) -> "SparseMatrix":
        """The matrix with values ``data`` on the canonical ``pattern``: the
        triplets the constructor gives for them.  Entries that are 0 are
        dropped by a mask, on a new pattern; the values must be finite."""
        if not np.isfinite(data).all():
            raise ValueError("matrix entries must be finite")
        keep = data != 0.0
        if not keep.all():
            count = np.concatenate([[0], np.cumsum(keep)])
            indptr = count[pattern.indptr].astype(pattern.indptr.dtype)
            pattern = _Pattern(pattern.shape, indptr, pattern.indices[keep])
            data = data[keep]
        self = cls.__new__(cls)
        self._csr = _PatternCSR.on(pattern, data)
        return self

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
    def _pattern(self) -> _Pattern:
        return self._csr.pattern

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def csr(self) -> sp.csr_matrix:
        """Forward CSR view (do not mutate: a dominance check keeps its line
        sums on it, see :func:`_kept_line_sums`)."""
        return self._csr

    def csr_transpose(self) -> sp.csr_matrix:
        """The transpose in canonical CSR form (do not mutate), built on the
        first call from the pattern's transposition and kept."""
        return self._csr_t

    @cached_property
    def _csr_t(self) -> sp.csr_matrix:
        t_indptr, t_indices, perm = self._pattern.transposition
        return _PatternCSR.on(_Pattern(self.shape[::-1], t_indptr, t_indices), self._csr.data[perm])

    def entries(self):
        """Return ``(rows, cols, values)`` of the stored nonzeros."""
        coo = self._csr.tocoo()
        return coo.row.copy(), coo.col.copy(), coo.data.copy()

    def to_dense(self) -> np.ndarray:
        """A dense copy of the matrix, formed anew at each call."""
        return self._csr.toarray()

    def transpose(self) -> "SparseMatrix":
        """The transpose, on :meth:`csr_transpose`'s arrays (built on first
        use); its own transpose CSR is this matrix's."""
        t = SparseMatrix.__new__(SparseMatrix)
        t._csr, t._csr_t = self.csr_transpose(), self._csr
        return t

    def scaled(self, factor: float) -> "SparseMatrix":
        """Matrix multiplied by a scalar, on this one's pattern."""
        if not np.isfinite(factor):
            raise ValueError("scale factor must be finite")
        return SparseMatrix._derived(self._pattern, self._csr.data * factor)

    def is_nonnegative(self) -> bool:
        return bool(self._csr.nnz == 0 or self._csr.data.min() >= 0.0)

    def matvec(self, x, transpose: bool = False) -> np.ndarray:
        """Exact sparse product ``A @ x`` or ``A.T @ x`` in double precision:
        ``x`` checked by :func:`as_vector`, then the one product,
        :meth:`_product`."""
        x = as_vector(x, self.n_rows if transpose else self.n_cols)
        return self._product(x, transpose)

    def _product(self, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        """``A @ x`` or ``A.T @ x`` by :func:`_kernel_product` on the stored
        CSR, transposed by ``csc_matvec`` on its arrays: the bits of ``csr @
        x`` and of ``csr_transpose() @ x``.  ``x`` must already be a
        float64, C-ordered vector of the right length."""
        return _kernel_product(self._csr, x, transpose)

    def __repr__(self):
        return f"SparseMatrix(shape={self.shape}, nnz={self.nnz})"


class _PatternCSR(sp.csr_matrix):
    """A CSR matrix on a canonical :class:`_Pattern`'s arrays (:meth:`on`),
    which keeps that ``pattern``: the CSRs of a :class:`SparseMatrix` and
    the matrices the engine forms.  :func:`_line_sums` sums one with the row
    index and diagonal positions its pattern keeps, and, as its values
    never change, :func:`_kept_line_sums` keeps the sums.  The one matrix
    whose values do change is the bracket's step matrix above the dense
    cutoff, refreshed in place at each step: its kept sums would go stale,
    so nothing takes them (see ``scaling._CWBracket._step_solver``).  A
    matrix scipy derives from one reads ``pattern`` None and keeps
    nothing."""

    pattern = None

    @classmethod
    def on(cls, pattern: _Pattern, data: np.ndarray) -> "_PatternCSR":
        """The matrix with values ``data`` on ``pattern``, whose arrays it
        shares, marked canonical so that scipy checks them no more."""
        csr = cls((data, pattern.indices, pattern.indptr), shape=pattern.shape)
        csr.has_canonical_format = True
        csr.pattern = pattern
        return csr

    @cached_property
    def line_sums(self):
        """:func:`_line_sums` of this matrix, taken on first use."""
        return _line_sums(self)


# -- operations --------------------------------------------------------


def matvec(A: SparseMatrix, x, transpose: bool = False) -> np.ndarray:
    """Sparse matrix-vector product; errors on dimension mismatch."""
    return A.matvec(x, transpose=transpose)


def induced_norms(A: SparseMatrix) -> NormReport:
    """Exact induced 1- and infinity-norms (max column/row absolute sums)."""
    absdata = np.abs(A.csr().data)
    # bincount adds each line's entries in storage order, as np.add.at does
    row_sums = np.bincount(A._pattern.rows, absdata, A.n_rows)
    col_sums = np.bincount(A.csr().indices, absdata, A.n_cols)
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
    ``(diag, row_off, col_off)``, of a sparse matrix: the one pass behind
    every dominance margin (``diag - off``) and line sum of ``|S|`` (``|diag|
    + off``).

    ``S`` is summed on its :class:`_Pattern`, whose row index and diagonal
    positions it reuses: the pattern a :class:`_PatternCSR` (a
    :class:`SparseMatrix`'s CSR or a matrix the engine formed) keeps, and a
    throwaway one for any other matrix, its duplicates summed first on a
    copy.  Off-diagonal sums accumulate only off-diagonal entries, the
    diagonal's terms zeroed (no subtraction of the diagonal afterwards,
    which would leak rounding into exact margins).
    """
    pattern = getattr(S, "pattern", None)
    if pattern is None:
        S = S.tocsr()
        if not S.has_canonical_format:
            S = S.copy()
            S.sum_duplicates()
        pattern = _Pattern(S.shape, S.indptr, S.indices)
    rows, cols, on_diag = pattern.rows, pattern.indices, pattern.diagonal
    diag = np.zeros(min(S.shape))
    # added to 0, as csr.diagonal() adds them: a stored -0.0 reads +0.0
    diag[cols.take(on_diag)] += S.data.take(on_diag)
    # adding a zeroed term, +0.0, changes no sum of nonnegative terms
    absdata = np.abs(S.data)
    absdata[on_diag] = 0.0
    return diag, np.bincount(rows, absdata, S.shape[0]), np.bincount(cols, absdata, S.shape[1])


def _kept_line_sums(S):
    """:func:`_line_sums` of ``S``, a :class:`SparseMatrix`, a sparse matrix
    or a dense array (summed as its CSR), taken once and kept when its
    values cannot change: on the :class:`_PatternCSR` of a
    :class:`SparseMatrix` or one the engine formed.  A check and the solve
    of the matrix it passed, which needs its condition bound, then sum it
    once."""
    if isinstance(S, SparseMatrix):
        S = S.csr()
    elif isinstance(S, np.ndarray):
        S = sp.csr_matrix(S)
    return S.line_sums if getattr(S, "pattern", None) is not None else _line_sums(S)


def _is_symmetric(S: SparseMatrix) -> bool:
    """Symmetry within 1e-12 relative to the largest entry magnitude,
    whatever the scale of ``S``.  When the forward and transpose CSRs share
    one pattern their values are compared directly."""
    fwd, bwd = S.csr(), S.csr_transpose()
    if np.array_equal(fwd.indptr, bwd.indptr) and np.array_equal(fwd.indices, bwd.indices):
        diff = fwd.data - bwd.data
    else:
        diff = (fwd - bwd).data
    scale = float(np.abs(fwd.data).max(initial=0.0))
    return bool(np.abs(diff).max(initial=0.0) <= 1e-12 * scale)


def check_rcdd(S, strict_slack: float = 0.0) -> bool:
    """Row-column diagonal dominance with relative slack.

    ``S`` is a :class:`SparseMatrix`, a CSR matrix or a dense array.  Every
    row and column must satisfy
    ``S_ii - sum_{j != i} |S_ij| >= -strict_slack * (|S_ii| + 1)``;
    ``strict_slack=0`` checks exact RCDD.
    """
    if S.shape[0] != S.shape[1]:
        raise ValueError("RCDD is defined for square matrices")
    diag, row_off, col_off = _kept_line_sums(S)
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
    """Return ``diag(L) @ M @ diag(R)`` on the sparsity pattern of ``M``,
    less any entry that underflows to 0."""
    left = as_vector(L, M.n_rows, "L")
    right = as_vector(R, M.n_cols, "R")
    if np.any(left <= 0.0) or np.any(right <= 0.0):
        raise ValueError("scaling vectors must be strictly positive")
    pattern = M._pattern
    data = left.take(pattern.rows) * M.csr().data * right.take(pattern.indices)
    return SparseMatrix._derived(pattern, data)


def _shift_values(A: SparseMatrix, factor: float, shift: float, out: np.ndarray) -> np.ndarray:
    """``out`` holding the values of ``shift I + factor A`` on the pattern of
    ``A + I`` (:attr:`_Pattern.shifted`): ``A``'s entries times ``factor``
    first, then ``shift`` added to each diagonal, 0 where ``A`` stores none;
    the one writer of a shifted matrix's values.  A factor ``-1`` gives the
    bits of ``-A``, and ``-1 / scale`` those of ``-(A / scale)`` (scipy
    divides a CSR matrix by a scalar through its reciprocal)."""
    pattern, a_pos = A._pattern.shifted
    out.fill(0.0)
    out[a_pos] = A.csr().data * factor
    # shift + (-a) has the bits of shift - a
    out[pattern.diagonal] += shift
    return out


def shifted_m_matrix(A: SparseMatrix, s: float, alpha: float = 0.0) -> SparseMatrix:
    """The shifted matrix ``(1 + alpha) * s * I - A``, on the pattern of
    ``A`` with every diagonal added (``A``'s :attr:`_Pattern.shifted`, built
    once), less any diagonal the shift cancels.  Its transpose, gathered on
    request, is ``A.T``'s shifted matrix."""
    if not A.is_square:
        raise ValueError("shift requires a square matrix")
    pattern = A._pattern.shifted[0]
    values = _shift_values(A, -1.0, (1.0 + alpha) * s, np.empty(pattern.indices.size))
    return SparseMatrix._derived(pattern, values)


# -- file I/O ----------------------------------------------------------


# a Matrix Market entry line: 1-based row and column, then the value
_ENTRY_DTYPE = np.dtype([("row", np.int64), ("col", np.int64), ("value", np.float64)])


def _loadtxt(lines: list[str], dtype):
    """``lines`` parsed by one ``np.loadtxt`` pass, or None should it raise
    or warn.  Tokens are separated by whitespace and no character starts a
    comment, so a ``%`` anywhere, which no number contains, fails the pass.
    Warnings count as failures: an empty input warns, and numpy < 2 parses
    ``1.0`` into an integer column with only a ``DeprecationWarning``."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1)
    except (ValueError, OverflowError, Warning):
        return None


def load_matrix(path) -> SparseMatrix:
    """Read a Matrix Market coordinate file (real or integer, general or
    symmetric).

    Entry lines are ``row col value`` with integer 1-based indices; ``%``
    comments stand on lines of their own.  Symmetric storage is expanded to
    general form; duplicates are summed and explicit zeros dropped per the
    Matrix Market convention.  The body is parsed by one numpy pass and
    checked as whole arrays; only a body with comments, or one that pass or
    its checks reject, is read line by line, which names the first bad
    line.  Raises :class:`MatrixMarketParseError` with a line number on
    malformed input.
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

    i, j, values = _entries(lines, body_start, n_rows, n_cols, nnz)
    if symmetry == "symmetric":
        # each off-diagonal entry followed by its mirror, in file order
        keep = np.ones(2 * i.size, dtype=bool)
        keep[1::2] = i != j
        i, j = np.column_stack([i, j]).ravel()[keep], np.column_stack([j, i]).ravel()[keep]
        values = np.repeat(values, 2)[keep]
    return SparseMatrix(n_rows, n_cols, i - 1, j - 1, values)


def _entries(lines: list[str], body_start: int, n_rows: int, n_cols: int, nnz: int):
    """The 1-based ``(rows, cols, values)`` arrays of the Matrix Market body
    ``lines[body_start:]``, which must hold ``nnz`` entries, parsed by
    :func:`_loadtxt` and checked as whole arrays.  Should the body hold a
    comment, or the pass or any check fail, each line is checked in turn by
    :func:`_entry`, so that the error names the first bad line and its first
    failed check; the entry count is checked last."""
    body = lines[body_start:]
    table = _loadtxt(body, _ENTRY_DTYPE)
    if table is not None:
        i, j, values = table["row"], table["col"], table["value"]
        if (
            i.size == nnz
            and np.all((i >= 1) & (i <= n_rows) & (j >= 1) & (j <= n_cols))
            and np.isfinite(values).all()
        ):
            return i, j, values
    entries = [
        _entry(lineno, parts, n_rows, n_cols)
        for lineno, parts in enumerate(map(str.split, body), start=body_start + 1)
        if parts and not parts[0].startswith("%")
    ]
    if len(entries) != nnz:
        raise MatrixMarketParseError(
            f"declared {nnz} entries but found {len(entries)}", len(lines)
        )
    return tuple(
        np.array([entry[k] for entry in entries], dtype=dtype)
        for k, dtype in enumerate((np.int64, np.int64, np.float64))
    )


def _entry(lineno: int, parts: list[str], n_rows: int, n_cols: int) -> tuple[int, int, float]:
    """One body line's ``(row, col, value)``, 1-based, or the parse error
    of its first failed check."""
    if len(parts) != 3:
        raise MatrixMarketParseError("entry must be 'row col value'", lineno)
    try:
        i, j = int(parts[0]), int(parts[1])
        v = float(parts[2])
    except ValueError as exc:
        raise MatrixMarketParseError(f"bad entry: {exc}", lineno) from None
    if not (1 <= i <= n_rows) or not (1 <= j <= n_cols):
        raise MatrixMarketParseError(f"index ({i}, {j}) outside {n_rows} x {n_cols}", lineno)
    if not math.isfinite(v):
        raise MatrixMarketParseError("non-finite value", lineno)
    return i, j, v


def load_vector(path) -> np.ndarray:
    """Read a plain-text vector: whitespace-separated values in file order,
    any number to a line; blank lines and lines starting with ``%`` are
    skipped.  A file without comments and with as many values on every line
    is parsed by one numpy pass; any other file is read line by line, so
    that a bad value names its line."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()
    table = _loadtxt(lines, np.float64)
    if table is not None:
        return as_vector(table.ravel(), name=str(path))
    values = []
    for lineno, line in enumerate(lines, start=1):
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
    """Write ``x`` one value to a line, each as the shortest ``repr`` that
    reads back to the same double."""
    x = as_vector(x, name="x")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join(f"{v!r}\n" for v in x.tolist()))
