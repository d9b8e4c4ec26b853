"""Sparse storage, norms, structural checks, scaling, and Matrix Market I/O."""

import functools
import warnings

import numpy as np
import pytest
import scipy.io
import scipy.sparse
from hypothesis import given, settings, strategies as st

import perronkit.sparse as sparse_module
from perronkit import (
    MatrixMarketParseError,
    NotSDD,
    SparseMatrix,
    apply_scaling,
    build_sdd_solver,
    check_rcdd,
    check_sdd,
    induced_norms,
    is_irreducible,
    load_matrix,
    load_vector,
    m_decide,
    matvec,
    save_vector,
    shifted_m_matrix,
    symm_solve,
)
from perronkit.scaling import _normalized_comparison

from conftest import random_factor_width2_dense, ring_digraph

from pathlib import Path

DATA = Path(__file__).parent / "data"


def dense_matvec_oracle(M, x, transpose=False):
    """Triple-loop reference product."""
    M = M.T if transpose else M
    out = np.zeros(M.shape[0])
    for i in range(M.shape[0]):
        acc = 0.0
        for j in range(M.shape[1]):
            acc += M[i, j] * x[j]
        out[i] = acc
    return out


def boolean_power_irreducible_oracle(M):
    """Reachability closure of boolean powers: irreducible iff all pairs
    connect within n steps in both the pattern and its transpose."""
    n = M.shape[0]
    B = (M != 0).astype(np.int64)
    reach = np.eye(n, dtype=np.int64)
    acc = np.eye(n, dtype=np.int64)
    for _ in range(n):
        acc = (acc @ B != 0).astype(np.int64)
        reach |= acc
    return bool(reach.all() and reach.T.all())


class TestStorage:
    def test_duplicates_summed_and_zeros_dropped(self):
        A = SparseMatrix(2, 2, [0, 0, 1], [1, 1, 0], [2.0, 3.0, -0.0])
        assert A.nnz == 1
        assert A.to_dense()[0, 1] == 5.0

    def test_entries_round_trip(self):
        M = np.array([[0.0, 1.5], [2.5, 0.0]])
        A = SparseMatrix.from_dense(M)
        rows, cols, vals = A.entries()
        rebuilt = np.zeros((2, 2))
        rebuilt[rows, cols] = vals
        assert np.array_equal(rebuilt, M)

    def test_transpose_agrees_with_forward(self):
        rng = np.random.default_rng(0)
        M = np.where(rng.random((7, 5)) < 0.4, rng.normal(size=(7, 5)), 0.0)
        A = SparseMatrix.from_dense(M)
        assert np.array_equal(A.csr_transpose().toarray(), M.T)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SparseMatrix(1, 1, [0], [0], [np.nan])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SparseMatrix(2, 2, [2], [0], [1.0])


class TestMatvec:
    def test_permutation(self):
        A = SparseMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(matvec(A, [1.0, 2.0]), [2.0, 1.0])

    def test_zero_matrix(self):
        A = SparseMatrix.zeros(3)
        assert np.array_equal(matvec(A, [1.0, 2.0, 3.0]), np.zeros(3))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        M = np.where(rng.random((10, 10)) < 0.5, rng.normal(size=(10, 10)), 0.0)
        A = SparseMatrix.from_dense(M)
        x = rng.normal(size=10)
        for transpose in (False, True):
            got = matvec(A, x, transpose=transpose)
            want = dense_matvec_oracle(M, x, transpose=transpose)
            assert np.linalg.norm(got - want) <= 1e-14 * max(1.0, np.linalg.norm(want))

    def test_dimension_mismatch(self):
        A = SparseMatrix.zeros(3, 2)
        with pytest.raises(ValueError):
            matvec(A, np.ones(3))
        with pytest.raises(ValueError):
            matvec(A, np.ones(2), transpose=True)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 2**31 - 1))
    def test_transpose_equals_explicit_transpose(self, n, seed):
        rng = np.random.default_rng(seed)
        M = np.where(rng.random((n, n)) < 0.5, rng.normal(size=(n, n)), 0.0)
        A = SparseMatrix.from_dense(M)
        At = SparseMatrix.from_dense(M.T)
        x = rng.normal(size=n)
        assert np.array_equal(matvec(A, x, transpose=True), matvec(At, x))

    def test_strided_vector(self):
        """``matvec`` makes a strided vector C-ordered before the product."""
        A = SparseMatrix.from_dense([[0.0, 1.0], [2.0, 0.0]])
        x = np.arange(4.0)[::2]
        assert np.array_equal(matvec(A, x), A.csr() @ x)


def product_cases():
    """Random matrices, square and not, and the edge cases."""
    rng = np.random.default_rng(9)
    for m, n in [(10, 10), (40, 40), (7, 13), (13, 7)]:
        M = np.where(rng.random((m, n)) < 0.3, rng.normal(size=(m, n)), 0.0)
        yield pytest.param(SparseMatrix.from_dense(M), id=f"random-{m}x{n}")
    M = np.where(rng.random((6, 6)) < 0.5, rng.uniform(1.0, 2.0, (6, 6)), 0.0)
    M[2, :] = 0.0
    M[:, 4] = 0.0
    yield pytest.param(SparseMatrix.from_dense(M), id="empty-row-and-column")
    yield pytest.param(SparseMatrix.from_dense([[3.5]]), id="n-1")
    yield pytest.param(SparseMatrix.zeros(1), id="n-1-zero")
    yield pytest.param(SparseMatrix.zeros(5), id="zero")
    yield pytest.param(SparseMatrix.zeros(3, 2), id="non-square-zero")
    # derived matrices: a pattern masked by underflow, a diagonal-extended
    # one, and a transpose's transpose
    M = np.where(rng.random((30, 30)) < 0.2, rng.uniform(0.5, 2.0, (30, 30)), 0.0)
    A = SparseMatrix.from_dense(M)
    tiny = np.where(np.arange(30) % 3 == 0, 1e-170, 1.0)
    masked = apply_scaling(tiny, A, tiny)
    assert masked.nnz < A.nnz
    yield pytest.param(masked, id="masked-by-underflow")
    yield pytest.param(shifted_m_matrix(A, 2.0, 0.1), id="shifted")
    yield pytest.param(A.transpose().transpose(), id="transpose-twice")


@pytest.mark.parametrize("A", list(product_cases()))
def test_product_gives_the_bits_of_matmul(A):
    """``_product`` runs the kernel ``csr @ x`` ends in: the same bits, forward
    on the CSR and, transposed by the column kernel on the CSR's arrays,
    those of the transpose CSR's product, with the result a fresh
    vector."""
    rng = np.random.default_rng(10)
    for transpose, mat in ((False, A.csr()), (True, A.csr_transpose())):
        x = rng.normal(size=mat.shape[1])
        got = A._product(x, transpose)
        assert got.dtype == np.float64 and got.shape == (mat.shape[0],)
        assert got.tobytes() == (mat @ x).tobytes()
        assert A._product(x, transpose) is not got


@pytest.mark.parametrize(
    "x",
    [np.ones(3), np.ones(5), np.ones(4, dtype=np.float32), np.ones(8)[::2], np.ones((4, 1))],
    ids=["short", "long", "float32", "strided", "2-d"],
)
def test_product_refuses_what_the_kernel_cannot_check(x):
    """The kernel checks no bounds, so ``_product`` refuses a vector of the
    wrong length, dtype, order or shape before calling it."""
    A = SparseMatrix.from_dense(np.ones((4, 4)))
    with pytest.raises(ValueError, match="C-ordered float64 vector of length 4"):
        A._product(x)
    with pytest.raises(ValueError, match="C-ordered float64 vector of length 4"):
        A._product(x, transpose=True)


def test_product_checks_the_transpose_length():
    """On a non-square matrix each side wants its own length."""
    A = SparseMatrix.zeros(3, 2)
    assert A._product(np.ones(2)).shape == (3,)
    assert A._product(np.ones(3), transpose=True).shape == (2,)
    for x, transpose in ((np.ones(3), False), (np.ones(2), True)):
        with pytest.raises(ValueError):
            A._product(x, transpose)


class TestNorms:
    def test_exchange(self):
        rep = induced_norms(SparseMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]]))
        assert (rep.norm_1, rep.norm_inf) == (1.0, 1.0)

    def test_upper_triangular(self):
        rep = induced_norms(SparseMatrix.from_dense([[1.0, 2.0], [0.0, 3.0]]))
        assert (rep.norm_1, rep.norm_inf) == (5.0, 3.0)

    def test_matches_dense(self):
        # the oracle accumulates in plain row-major order, the same
        # elementary sums the sparse path performs
        rng = np.random.default_rng(2)
        n = 20
        M = np.where(rng.random((n, n)) < 0.3, rng.normal(size=(n, n)), 0.0)
        row = np.zeros(n)
        col = np.zeros(n)
        for i in range(n):
            for j in range(n):
                row[i] += abs(M[i, j])
                col[j] += abs(M[i, j])
        rep = induced_norms(SparseMatrix.from_dense(M))
        assert rep.norm_1 == col.max()
        assert rep.norm_inf == row.max()

    def test_nonnegative_inf_norm_is_max_row_sum_of_ones_product(self):
        # for nonnegative B the inf-norm equals max_i (B 1)_i
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            B = np.where(rng.random((n, n)) < 0.5, rng.random((n, n)), 0.0)
            A = SparseMatrix.from_dense(B)
            assert induced_norms(A).norm_inf == matvec(A, np.ones(n)).max(initial=0.0)


class TestIrreducibility:
    def test_two_cycle(self):
        assert is_irreducible(SparseMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]]))

    def test_triangular_not_irreducible(self):
        assert not is_irreducible(SparseMatrix.from_dense([[1.0, 1.0], [0.0, 1.0]]))

    def test_one_by_one(self):
        assert is_irreducible(SparseMatrix.from_dense([[2.0]]))
        assert not is_irreducible(SparseMatrix.from_dense([[0.0]]))

    def test_matches_boolean_power_oracle(self):
        rng = np.random.default_rng(4)
        seen = {True: 0, False: 0}
        for _ in range(40):
            n = int(rng.integers(2, 31))
            density = rng.uniform(0.05, 0.35)
            M = np.where(rng.random((n, n)) < density, 1.0, 0.0)
            got = is_irreducible(SparseMatrix.from_dense(M))
            assert got == boolean_power_irreducible_oracle(M)
            seen[got] += 1
        assert seen[True] > 0 and seen[False] > 0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 10), st.integers(0, 2**31 - 1))
    def test_invariant_under_symmetric_permutation(self, n, seed):
        rng = np.random.default_rng(seed)
        M = np.where(rng.random((n, n)) < 0.25, 1.0, 0.0)
        perm = rng.permutation(n)
        P = np.eye(n)[perm]
        assert is_irreducible(SparseMatrix.from_dense(M)) == is_irreducible(
            SparseMatrix.from_dense(P @ M @ P.T)
        )


class TestRCDD:
    def test_equality_dominance(self):
        S = shifted_m_matrix(SparseMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]]), 2.0)
        assert check_rcdd(S, 0.0)

    def test_violating(self):
        S = shifted_m_matrix(SparseMatrix.from_dense([[0.0, 2.0], [2.0, 0.0]]), 1.0)
        assert not check_rcdd(S, 0.0)

    def test_row_but_not_column_dominant(self):
        S = SparseMatrix.from_dense([[2.0, 1.0], [-2.9, 3.0]])
        assert not check_rcdd(S, 0.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 10), st.integers(0, 2**31 - 1))
    def test_closed_under_nonnegative_diagonal(self, n, seed):
        rng = np.random.default_rng(seed)
        M = rng.normal(size=(n, n))
        np.fill_diagonal(M, 0.0)
        # accumulate in the same elementary order as the margin check so the
        # boundary case sits at exactly zero margin
        row = np.zeros(n)
        col = np.zeros(n)
        for i in range(n):
            for j in range(n):
                if i != j:
                    row[i] += abs(M[i, j])
                    col[j] += abs(M[i, j])
        np.fill_diagonal(M, np.maximum(row, col))
        S = SparseMatrix.from_dense(M)
        assert check_rcdd(S, 0.0)
        bumped = SparseMatrix.from_dense(M + np.diag(rng.random(n)))
        assert check_rcdd(bumped, 0.0)

    def test_sdd_requires_symmetry(self):
        S = SparseMatrix.from_dense([[3.0, 1.0], [-1.0, 3.0]])
        assert check_rcdd(S, 0.0)
        assert not check_sdd(S, 0.0)


class TestApplyScaling:
    def test_identity_scaling(self):
        M = SparseMatrix.from_dense([[1.0, -2.0], [0.5, 3.0]])
        out = apply_scaling(np.ones(2), M, np.ones(2))
        assert np.array_equal(out.to_dense(), M.to_dense())

    def test_reciprocal_pair(self):
        M = SparseMatrix.identity(2)
        out = apply_scaling([2.0, 2.0], M, [0.5, 0.5])
        assert np.array_equal(out.to_dense(), np.eye(2))

    def test_matches_dense(self):
        rng = np.random.default_rng(5)
        M = np.where(rng.random((8, 8)) < 0.4, rng.normal(size=(8, 8)), 0.0)
        ell = rng.random(8) + 0.1
        r = rng.random(8) + 0.1
        out = apply_scaling(ell, SparseMatrix.from_dense(M), r)
        want = np.diag(ell) @ M @ np.diag(r)
        assert np.abs(out.to_dense() - want).max() <= 1e-15 * np.abs(want).max()

    def test_rejects_nonpositive(self):
        M = SparseMatrix.identity(2)
        with pytest.raises(ValueError):
            apply_scaling([1.0, 0.0], M, [1.0, 1.0])


class TestMatrixMarketIO:
    def test_basic_general(self):
        A = load_matrix(DATA / "basic_general.mtx")
        assert A.shape == (2, 2) and A.nnz == 2
        assert np.array_equal(A.to_dense(), [[0.0, 1.0], [1.0, 0.0]])

    def test_zero_matrix(self):
        A = load_matrix(DATA / "zero_3x3.mtx")
        assert A.shape == (3, 3) and A.nnz == 0

    def test_duplicates_summed(self):
        A = load_matrix(DATA / "duplicates.mtx")
        assert A.to_dense()[0, 0] == 5.0
        assert A.to_dense()[1, 2] == 1.75
        assert A.nnz == 3

    @pytest.mark.parametrize(
        "name",
        ["basic_general", "zero_3x3", "duplicates", "symmetric", "integer_dups"],
    )
    def test_agrees_with_reference_reader(self, name):
        path = DATA / f"{name}.mtx"
        ours = load_matrix(path).to_dense()
        reference = np.asarray(scipy.io.mmread(path).todense())
        assert np.array_equal(ours, reference)

    @staticmethod
    def assert_matches_the_line_by_line_reader(tmp_path, symmetry, inserted):
        """A random body, ``inserted`` lines placed after its tenth entry,
        loads to the same bits as reading it line by line, mirrors placed
        right after their entries and duplicates summed in file order."""
        rng = np.random.default_rng(8)
        n, m = 40, 600
        i = rng.integers(1, n + 1, m)
        j = rng.integers(1, n + 1, m)
        values = rng.uniform(-1.0, 1.0, m) * 10.0 ** rng.integers(-8, 8, m)
        lines = [f"{a} {b} {float(v)!r}" for a, b, v in zip(i, j, values)]
        lines[10:10] = inserted
        path = tmp_path / "m.mtx"
        path.write_text(
            f"%%MatrixMarket matrix coordinate real {symmetry}\n{n} {n} {m}\n"
            + "\n".join(lines) + "\n"
        )
        rows, cols, vals = [], [], []
        for a, b, v in zip(i, j, values):
            rows.append(a - 1)
            cols.append(b - 1)
            vals.append(v)
            if symmetry == "symmetric" and a != b:
                rows.append(b - 1)
                cols.append(a - 1)
                vals.append(v)
        ours = load_matrix(path).csr()
        reference = SparseMatrix(n, n, rows, cols, vals).csr()
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(ours, name), getattr(reference, name))

    @pytest.mark.parametrize("symmetry", ["general", "symmetric"])
    def test_matches_the_line_by_line_reader(self, tmp_path, symmetry):
        """On a body with a comment, blank lines and duplicates."""
        self.assert_matches_the_line_by_line_reader(
            tmp_path, symmetry, ["% a comment", "", "   "]
        )

    @pytest.mark.parametrize("symmetry", ["general", "symmetric"])
    def test_one_numpy_pass_matches_the_line_by_line_reader(
        self, tmp_path, monkeypatch, symmetry
    ):
        """A body with no comment is parsed by the numpy pass alone: no
        line is read on its own, and the bits are those of the line-by-line
        reading."""

        def no_line_by_line(lineno, *args):
            raise AssertionError(f"line {lineno} read on its own")

        monkeypatch.setattr(sparse_module, "_entry", no_line_by_line)
        self.assert_matches_the_line_by_line_reader(tmp_path, symmetry, ["", "   "])

    # name -> (field, size line and body); "crlf" is written with CRLF endings
    LOADER_CORPUS = {
        "plain": ("real", "2 2 2\n1 1 1.5\n2 1 -0.25\n"),
        "one entry": ("real", "2 2 1\n1 2 1.5\n"),
        "blank lines": ("real", "2 2 2\n\n1 1 1.5\n  \n2 1 -0.25\n\n"),
        "comment line": ("real", "2 2 2\n1 1 1.5\n% note\n2 1 -0.25\n"),
        "trailing comment": ("real", "2 2 2\n1 1 1.5 % note\n2 1 -0.25\n"),
        "trailing hash": ("real", "2 2 2\n1 1 1.5 # note\n2 1 -0.25\n"),
        "tabs": ("real", "2 2 2\n1\t1\t1.5\n2\t1\t-0.25\n"),
        "crlf": ("real", "2 2 2\n1 1 1.5\n2 1 -0.25\n"),
        "plus index": ("real", "2 2 2\n+1 1 1.5\n2 +1 -0.25\n"),
        "index 1.0": ("real", "2 2 2\n1 1 1.5\n1.0 1 -0.25\n"),
        "index 1e0": ("real", "2 2 2\n1 1 1.5\n1e0 1 -0.25\n"),
        "index 1_0": ("real", "10 10 2\n1 1 1.5\n1_0 1 -0.25\n"),
        "value 1_0": ("real", "2 2 2\n1 1 1_0\n2 1 -0.25\n"),
        "four tokens": ("real", "2 2 2\n1 1 1.5\n2 1 -0.25 4\n"),
        "two tokens": ("real", "2 2 2\n1 1 1.5\n2 1\n"),
        "integer field": ("integer", "2 2 3\n1 1 3\n2 1 -4\n1 1 2\n"),
        "empty body": ("real", "2 2 0\n"),
        "too few entries": ("real", "2 2 3\n1 1 1.5\n2 1 -0.25\n"),
        "too many entries": ("real", "2 2 1\n1 1 1.5\n2 1 -0.25\n"),
        "index out of range": ("real", "2 2 2\n1 1 1.5\n2 3 -0.25\n"),
        "index zero": ("real", "2 2 2\n0 1 1.5\n2 1 -0.25\n"),
        "index overflow": ("real", "2 2 2\n1 1 1.5\n99999999999999999999 1 1.0\n"),
        "value nan": ("real", "2 2 2\n1 1 nan\n2 1 -0.25\n"),
        "value inf": ("real", "2 2 2\n1 1 1.5\n2 1 -inf\n"),
    }

    @staticmethod
    def load_outcome(path):
        """The CSR bits of ``load_matrix(path)``, or its error's text and
        line number."""
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                csr = load_matrix(path).csr()
        except MatrixMarketParseError as exc:
            return "error", str(exc), exc.line_number
        finally:
            assert not caught, [str(w.message) for w in caught]
        return "matrix", csr.shape, csr.indptr.tobytes(), csr.indices.tobytes(), csr.data.tobytes()

    @pytest.mark.parametrize("case", sorted(LOADER_CORPUS))
    def test_numpy_pass_agrees_with_the_line_by_line_path(self, tmp_path, monkeypatch, case):
        """Each file loads to the same bits, or fails with the same message
        and line number, with and without the numpy pass; no warning
        escapes either."""
        field, body = self.LOADER_CORPUS[case]
        text = f"%%MatrixMarket matrix coordinate {field} general\n{body}"
        path = tmp_path / "m.mtx"
        path.write_bytes(text.replace("\n", "\r\n" if case == "crlf" else "\n").encode())
        with_pass = self.load_outcome(path)
        monkeypatch.setattr(sparse_module, "_loadtxt", lambda lines, dtype: None)
        assert with_pass == self.load_outcome(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        bad = tmp_path / "bad.mtx"
        bad.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 oops 1.0\n"
        )
        with pytest.raises(MatrixMarketParseError) as err:
            load_matrix(bad)
        assert err.value.line_number == 3

    def test_dimension_mismatch(self, tmp_path):
        bad = tmp_path / "oob.mtx"
        bad.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n"
        )
        with pytest.raises(MatrixMarketParseError) as err:
            load_matrix(bad)
        assert err.value.line_number == 3

    @pytest.mark.parametrize(
        "body, line_number, message",
        [
            ("1 1 1 4\n1 x 1.0\n", 3, "entry must be"),
            ("1 x 1.0\n1 1\n", 3, "bad entry"),
            ("3 1 1.0\n1 1 zz\n", 3, "outside 2 x 2"),
            ("1 1 inf\n5 2 1.0\n", 3, "non-finite"),
            ("% note\n\n1 1 1.0\n1 2\n", 6, "entry must be"),
            ("1 1 1.0\n99999999999999999999 1 1.0\n", 4, "outside 2 x 2"),
        ],
    )
    def test_parse_error_names_the_first_bad_line(self, tmp_path, body, line_number, message):
        """The entries are checked as whole arrays; the error still names
        the first bad line and its first failed check, whatever fails later."""
        bad = tmp_path / "bad.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n" + body)
        with pytest.raises(MatrixMarketParseError, match=message) as err:
            load_matrix(bad)
        assert err.value.line_number == line_number

    def test_wrong_entry_count(self, tmp_path):
        bad = tmp_path / "count.mtx"
        bad.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n"
        )
        with pytest.raises(MatrixMarketParseError):
            load_matrix(bad)


class TestVectorIO:
    def test_round_trip(self, tmp_path):
        x = np.array([1.5, -2.25, 0.0, 1e-17])
        path = tmp_path / "v.txt"
        save_vector(path, x)
        assert np.array_equal(load_vector(path), x)

    def test_rejects_nonfinite(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("1.0\ninf\n")
        with pytest.raises(ValueError):
            load_vector(path)

    def test_writes_one_repr_to_a_line(self, tmp_path):
        x = np.random.default_rng(3).standard_normal(50) * 10.0 ** np.arange(-25, 25)
        path = tmp_path / "v.txt"
        save_vector(path, x)
        assert path.read_text() == "".join(f"{float(v)!r}\n" for v in x)

    def test_one_numpy_pass_reads_a_file_without_comments(self, tmp_path, monkeypatch):
        x = np.random.default_rng(4).uniform(-1.0, 1.0, 300) * 10.0 ** np.arange(-150, 150)
        path = tmp_path / "v.txt"
        save_vector(path, x)
        tables = []
        real = sparse_module._loadtxt

        def recorded(lines, dtype):
            tables.append(real(lines, dtype))
            return tables[-1]

        monkeypatch.setattr(sparse_module, "_loadtxt", recorded)
        assert load_vector(path).tobytes() == x.tobytes()
        assert len(tables) == 1 and tables[0] is not None

    VECTOR_CORPUS = {
        "plain": "1.5\n-0.25\n",
        "one value": "1.5\n",
        "blank lines": "\n1.5\n  \n-0.25\n\n",
        "two to a line": "1 2\n3 4\n",
        "ragged lines": "1\n2 3\n",
        "tabs": "1\t2\n3\t4\n",
        "crlf": "1.5\n-0.25\n",
        "comment line": "% note\n1.5\n",
        "trailing comment": "1.5 % note\n",
        "trailing hash": "1.5 # note\n",
        "plus sign": "+1.5\n",
        "exponent": "1e0\n2E-3\n",
        "underscore": "1_0\n",
        "bad value": "1.5\nabc\n",
        "non-finite": "1.5\ninf\n",
        "empty": "",
    }

    @staticmethod
    def load_outcome(path):
        """The bits of ``load_vector(path)``, or its error's text."""
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                return "vector", load_vector(path).tobytes()
        except ValueError as exc:
            return "error", str(exc)
        finally:
            assert not caught, [str(w.message) for w in caught]

    @pytest.mark.parametrize("case", sorted(VECTOR_CORPUS))
    def test_numpy_pass_agrees_with_the_line_by_line_path(self, tmp_path, monkeypatch, case):
        """Each file reads to the same bits, or fails with the same message,
        with and without the numpy pass; no warning escapes either."""
        text = self.VECTOR_CORPUS[case]
        path = tmp_path / "v.txt"
        path.write_bytes(text.replace("\n", "\r\n" if case == "crlf" else "\n").encode())
        with_pass = self.load_outcome(path)
        monkeypatch.setattr(sparse_module, "_loadtxt", lambda lines, dtype: None)
        assert with_pass == self.load_outcome(path)


# ----------------------------------------------------------------------
# derived matrices on their parent's pattern store the constructor's triplets


def constructed_scaled(A, factor):
    return SparseMatrix.from_scipy(A.csr() * factor)


def constructed_scaling(L, M, R):
    rows, cols, values = M.entries()
    return SparseMatrix(M.n_rows, M.n_cols, rows, cols, L[rows] * values * R[cols])


def constructed_shift(A, s, alpha):
    eye = scipy.sparse.identity(A.n_rows, format="csr")
    return SparseMatrix.from_scipy(eye * ((1.0 + alpha) * s) - A.csr())


def constructed_comparison(M):
    """The comparison matrix by the full constructor, twice: the matrix of
    ``s' - M_ii`` and ``|M_ij|``, then scaled by ``1 / s'``."""
    rows, cols, values = M.entries()
    diag_mask = rows == cols
    diag = np.zeros(M.n_rows)
    diag[rows[diag_mask]] = values[diag_mask]
    s_prime = float(diag.max())
    off = ~diag_mask
    a_rows = np.concatenate([np.arange(M.n_rows), rows[off]])
    a_cols = np.concatenate([np.arange(M.n_rows), cols[off]])
    a_vals = np.concatenate([s_prime - diag, np.abs(values[off])])
    A_comp = SparseMatrix(M.n_rows, M.n_cols, a_rows, a_cols, a_vals)
    return constructed_scaled(A_comp, 1.0 / s_prime)


def stored(A):
    """Every array of the CSR and of the transpose CSR, copied."""
    return [a.copy() for m in (A.csr(), A.csr_transpose()) for a in (m.indptr, m.indices, m.data)]


def assert_same_storage(got, want):
    """The CSRs and the transpose CSRs hold the same ``indptr``,
    ``indices`` and ``data``, bit for bit."""
    assert got.shape == want.shape
    for g, w in zip(stored(got), stored(want)):
        assert g.shape == w.shape and g.tobytes() == w.astype(g.dtype).tobytes()


def derived_inputs():
    """Square and non-square matrices with and without stored diagonals,
    with empty rows and columns, and values over many decades."""
    rng = np.random.default_rng(64)
    base = np.where(rng.random((30, 30)) < 0.15, 10.0 ** rng.uniform(-10, 0, (30, 30)), 0.0)
    base *= np.where(rng.random((30, 30)) < 0.3, -1.0, 1.0)
    no_diag = base.copy()
    np.fill_diagonal(no_diag, 0.0)
    full_diag = base.copy()
    np.fill_diagonal(full_diag, rng.uniform(1.0, 2.0, 30))
    holes = full_diag.copy()
    holes[[0, 11, 29], :] = 0.0
    holes[:, [3, 11]] = 0.0
    return {
        "some-diag": base,
        "no-diag": no_diag,
        "full-diag": full_diag,
        "holes": holes,
        "wide": base[:20, :],
        "empty": np.zeros((5, 5)),
    }


@pytest.mark.parametrize("name", list(derived_inputs()))
def test_derived_matrices_store_the_constructors_triplets(name):
    """``scaled``, ``transpose`` (twice), ``apply_scaling`` and, for square
    inputs, ``shifted_m_matrix`` give the CSR and transpose CSR of the full
    constructor, bit for bit, and leave their parent's arrays unchanged."""
    dense = derived_inputs()[name]
    A = SparseMatrix.from_dense(dense)
    before = stored(A)
    rng = np.random.default_rng(65)
    L, R = rng.uniform(0.5, 2.0, A.n_rows), rng.uniform(0.5, 2.0, A.n_cols)
    pairs = [
        (A.scaled(0.3), constructed_scaled(A, 0.3)),
        (A.scaled(-7.0), constructed_scaled(A, -7.0)),
        (A.transpose(), SparseMatrix.from_scipy(A.csr_transpose())),
        (A.transpose().transpose(), A),
        (apply_scaling(L, A, R), constructed_scaling(L, A, R)),
        (apply_scaling(R, A.transpose(), L), constructed_scaling(R, A.transpose(), L)),
    ]
    if A.is_square:
        pairs += [
            (shifted_m_matrix(A, 2.0, 0.1), constructed_shift(A, 2.0, 0.1)),
            (shifted_m_matrix(A, 1.0), constructed_shift(A, 1.0, 0.0)),
            (shifted_m_matrix(A.transpose(), 3.0), constructed_shift(A.transpose(), 3.0, 0.0)),
        ]
    for got, want in pairs:
        assert_same_storage(got, want)
        # a matrix derived from a derived one is on the right pattern too
        assert_same_storage(got.scaled(0.5), constructed_scaled(want, 0.5))
    for after, was in zip(stored(A), before):
        assert after.tobytes() == was.tobytes()


def test_derived_matrices_drop_new_zeros_as_the_constructor_does():
    """Entries a derivation rounds or cancels to 0 are dropped, from the
    CSR and the transpose CSR, exactly where the constructor drops them: an
    ``apply_scaling`` that underflows, a factor that rounds small entries
    to 0, shifts that cancel stored diagonals, and the scaled matrices of
    all of them."""
    dense = derived_inputs()["full-diag"]
    A = SparseMatrix.from_dense(dense)
    before = stored(A)
    L = np.where(np.arange(30) % 3 == 0, 1e-170, 1.0)
    R = np.where(np.arange(30) % 4 == 0, 1e-170, 1.0)
    shift = dense.copy()
    shift[[2, 5, 17], [2, 5, 17]] = 3.0  # (1 + 0.5) * 2
    S = SparseMatrix.from_dense(shift)
    pairs = [
        (apply_scaling(L, A, R), constructed_scaling(L, A, R)),
        (A.scaled(1e-315), constructed_scaled(A, 1e-315)),
        (A.scaled(0.0), constructed_scaled(A, 0.0)),
        (shifted_m_matrix(S, 2.0, 0.5), constructed_shift(S, 2.0, 0.5)),
    ]
    for got, want in pairs:
        assert want.nnz < A.nnz + A.n_rows
        assert_same_storage(got, want)
        assert_same_storage(got.transpose(), want.transpose())
        assert_same_storage(got.scaled(1e-5), constructed_scaled(want, 1e-5))
    assert pairs[0][0].nnz < A.nnz and pairs[1][0].nnz < A.nnz and pairs[2][0].nnz == 0
    assert pairs[3][0].nnz == A.nnz - 3
    for after, was in zip(stored(A), before):
        assert after.tobytes() == was.tobytes()


@pytest.mark.parametrize("ties", [False, True], ids=["one-largest", "tied-largest"])
def test_the_comparison_matrix_stores_the_constructors_triplets(ties):
    """The normalized comparison matrix of a factor-width-2 matrix zeroes
    its largest diagonal (every one of them when they tie) and equals the full
    constructor's, bit for bit, leaving ``M`` unchanged."""
    dense = random_factor_width2_dense(np.random.default_rng(66), 30)
    if ties:
        top = dense.diagonal().max()
        dense[[4, 9], [4, 9]] = top  # with the one already largest, three
    M = SparseMatrix.from_dense(dense)
    before = stored(M)
    got, want = _normalized_comparison(M), constructed_comparison(M)
    assert_same_storage(got, want)
    largest = (dense.diagonal() == dense.diagonal().max()).sum()
    assert largest == (3 if ties else 1) and got.nnz == M.nnz - largest
    for after, was in zip(stored(M), before):
        assert after.tobytes() == was.tobytes()


def test_a_derived_matrix_rejects_entries_that_overflow():
    """As the constructor does, derived values that overflow raise."""
    A = SparseMatrix.from_dense([[1e300, 1.0], [0.0, 2.0]])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        A.scaled(1e10)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        apply_scaling([1e10, 1.0], A, [1.0, 1.0])


def test_induced_norms_sum_in_storage_order():
    """The line sums equal a sequential ``np.add.at`` over the stored
    entries, bit for bit."""
    A = SparseMatrix.from_dense(derived_inputs()["holes"] * 3.7)
    coo = A.csr().tocoo()
    rows, cols = np.zeros(A.n_rows), np.zeros(A.n_cols)
    np.add.at(rows, coo.row, np.abs(coo.data))
    np.add.at(cols, coo.col, np.abs(coo.data))
    norms = induced_norms(A)
    assert (norms.norm_1, norms.norm_inf) == (cols.max(), rows.max())


# ----------------------------------------------------------------------
# symmetry is relative to the matrix's own scale

SCALES = [1.0, 1e-6, 1e-13, 1e-300]


@pytest.mark.parametrize("scale", SCALES)
def test_symmetry_is_relative_at_every_scale(scale):
    """An asymmetry of half the largest entry is one at every scale:
    ``check_sdd`` says no, ``build_sdd_solver`` raises ``NotSDD`` and
    ``symm_solve`` rejects the matrix.  An exactly symmetric matrix, and one
    off by 1e-13 of its largest entry, pass at every scale."""
    asym = SparseMatrix.from_dense(np.array([[2.0, -1.0], [0.0, 2.0]]) * scale)
    assert not check_sdd(asym)
    with pytest.raises(NotSDD):
        build_sdd_solver(asym, 0.1)
    with pytest.raises(ValueError, match="symmetric"):
        A = SparseMatrix.from_dense(np.array([[0.0, 0.5], [0.1, 0.0]]) * scale)
        symm_solve(A, np.ones(2), 1e-6)
    assert check_sdd(SparseMatrix.from_dense(np.array([[2.0, -1.0], [-1.0, 2.0]]) * scale))
    near = np.array([[2.0, -1.0], [-1.0 - 1e-13, 2.0]]) * scale
    assert check_sdd(SparseMatrix.from_dense(near))


def test_a_transpose_csr_is_formed_only_on_request_and_once(monkeypatch):
    """Loading, ``scaled``, ``apply_scaling``, ``shifted_m_matrix`` and an
    ``m_decide`` run above the dense cutoff, whose bracket takes transposed
    products, form no transpose CSR.  The first ``csr_transpose`` of a
    matrix forms it, from one transposition of its pattern; later calls and
    ``transpose`` reuse it, and a matrix derived on the same pattern reuses
    the transposition."""
    transpositions = []
    real = sparse_module._Pattern.transposition.func

    def transposition(self):
        transpositions.append(self)
        return real(self)

    counted = functools.cached_property(transposition)
    counted.__set_name__(sparse_module._Pattern, "transposition")
    monkeypatch.setattr(sparse_module._Pattern, "transposition", counted)
    A = load_matrix(DATA / "basic_general.mtx")
    ones = np.ones(A.n_rows)
    derived = [A.scaled(2.0), apply_scaling(ones, A, 2.0 * ones), shifted_m_matrix(A, 3.0)]
    big = ring_digraph(np.random.default_rng(12), 400, 1)
    big = big.scaled(0.9 / np.abs(np.linalg.eigvals(big.to_dense())).max())
    decision = m_decide(big, 0.1, 1e3)
    assert decision.is_m_matrix and decision.report.info["bracket_steps"] >= 1
    assert transpositions == []
    for M in [A, *derived, big]:
        assert "_csr_t" not in M.__dict__
    first = A.csr_transpose()
    assert transpositions == [A._pattern]
    assert A.csr_transpose() is first and A.transpose().csr() is first
    assert A.transpose().transpose().csr() is A.csr()
    scaled_t = derived[0].csr_transpose()
    assert transpositions == [A._pattern]
    assert scaled_t.data.tobytes() == (2.0 * first.data).tobytes()


# ----------------------------------------------------------------------
# symmetry decided once per pattern


def counted_transpositions(monkeypatch):
    """Record each pattern :func:`sparse._transposition` transposes: the only
    builder of a transposition; a pattern that inherits its parent's builds
    none."""
    built = []
    real = sparse_module._transposition

    def counted(pattern):
        built.append(pattern)
        return real(pattern)

    monkeypatch.setattr(sparse_module, "_transposition", counted)
    return built


def test_symmetry_is_decided_once_per_pattern(monkeypatch):
    """A pattern whose row counts differ from its column counts is not its
    own transpose, and no transposition is built to say so.  A symmetric
    pattern is decided from one transposition, kept for every matrix on
    it: ``C + C.T`` is exactly symmetric and, with one entry moved by an
    ulp, symmetric within 1e-12 only, on the same pattern, and neither
    check forms a transpose CSR."""
    built = counted_transpositions(monkeypatch)
    C = ring_digraph(np.random.default_rng(3), 60, 2)
    assert not C._pattern.symmetric and not C._exactly_symmetric
    assert built == []
    A = SparseMatrix.from_scipy(C.csr() + C.csr().T)
    data = A.csr().data.copy()
    data[0] = np.nextafter(data[0], np.inf)
    moved = SparseMatrix._derived(A._pattern, data)
    assert A._pattern.symmetric and A._exactly_symmetric
    assert moved._pattern is A._pattern and not moved._exactly_symmetric
    assert sparse_module._is_symmetric(A) and sparse_module._is_symmetric(moved)
    assert built == [A._pattern]
    for M in (C, A, moved):
        assert "_csr_t" not in M.__dict__
    # a pattern that is not its own transpose but has equal line counts
    cycle = SparseMatrix.from_dense(np.roll(np.eye(5), 1, axis=1))
    assert not cycle._pattern.symmetric and built[-1] is cycle._pattern


def test_a_diagonal_drop_inherits_its_parents_caches(monkeypatch):
    """A matrix derived by dropping only diagonal entries (the normalized
    comparison matrix drops its largest diagonal) takes the row index,
    transposition, symmetry and pattern of ``M + I`` of its parent's
    pattern, restricted by the mask, with the arrays a pattern of its own
    computes; once the parent has them, it builds no transposition and
    calls no ``_with_diagonal``.  A drop of an entry off the diagonal makes
    a pattern of its own."""
    M = SparseMatrix.from_dense(random_factor_width2_dense(np.random.default_rng(9), 40))
    parent = M._pattern
    parent.transposition, parent.shifted  # computed, and kept
    built = counted_transpositions(monkeypatch)
    widened = []
    real_with_diagonal = sparse_module._with_diagonal
    monkeypatch.setattr(
        sparse_module, "_with_diagonal", lambda p: widened.append(p) or real_with_diagonal(p)
    )
    child = _normalized_comparison(M)._pattern
    assert child.indices.size == parent.indices.size - 1
    fresh = sparse_module._Pattern(child.shape, child.indptr, child.indices)
    for got, want in zip(child.transposition, fresh.transposition):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(child.rows, fresh.rows) and child.rows.dtype == fresh.rows.dtype
    assert child.symmetric and fresh.symmetric
    shifted, a_pos = child.shifted
    fresh_shifted, fresh_a_pos = fresh.shifted
    assert shifted is parent.shifted[0] and np.array_equal(a_pos, fresh_a_pos)
    assert np.array_equal(shifted.indices, fresh_shifted.indices)
    assert built == [fresh] and widened == [fresh]
    data = M.csr().data.copy()
    data[np.flatnonzero(parent.rows != parent.indices)[0]] = 0.0
    assert SparseMatrix._derived(parent, data)._pattern._parent is None
