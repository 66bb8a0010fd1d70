"""File format tests: parsing, round trips, binarization, masking."""

import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mebf.boolmat import BinaryMatrix, bool_product, elementwise
from mebf.matio import (
    MatrixFormatError,
    RealMatrix,
    binarize,
    mask_denoise,
    read_matrix,
    write_matrix,
)


# The per-line readers and line-joining writers that the bulk numpy code in
# mebf.matio replaced.  They are the spec: the bulk code must give the same
# matrix, the same message or the same bytes.  Their one change from the
# replaced code: a wrong coordinate line count names a line.  ref_read_coo
# keeps int() parsing, so it still accepts tokens such as '+1', '1_0' or
# '-1' that are not plain ASCII digits and that the bulk parser rejects;
# the random edits below never make them.

def ref_read_dense01(lines):
    rows = []
    width = None
    for lineno, line in enumerate(lines, start=1):
        entries = line.replace(" ", "")
        for ch in entries:
            if ch not in "01":
                raise MatrixFormatError(
                    f"line {lineno}: invalid character {ch!r}, expected "
                    f"'0' or '1'")
        if width is None:
            width = len(entries)
        elif len(entries) != width:
            raise MatrixFormatError(
                f"line {lineno}: expected {width} entries, got "
                f"{len(entries)}")
        rows.append([int(ch) for ch in entries])
    if not rows:
        return BinaryMatrix.zeros(0, 0)
    return BinaryMatrix.from_dense(rows)


def ref_read_coo(lines):
    if not lines:
        raise MatrixFormatError("line 1: missing 'n m nnz' header")
    header = lines[0].split()
    if len(header) != 3:
        raise MatrixFormatError("line 1: header must be 'n m nnz'")
    try:
        n, m, nnz = (int(tok) for tok in header)
    except ValueError:
        raise MatrixFormatError("line 1: header must be three integers") \
            from None
    if n < 0 or m < 0 or nnz < 0:
        raise MatrixFormatError("line 1: header values must be non-negative")
    if len(lines) - 1 != nnz:
        raise MatrixFormatError(
            f"line {min(len(lines) - 1, nnz) + 2}: expected {nnz} coordinate "
            f"lines, found {len(lines) - 1}")
    dense = np.zeros((n, m), dtype=np.uint8)
    seen = set()
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != 2:
            raise MatrixFormatError(
                f"line {lineno}: expected 'i j', got {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise MatrixFormatError(
                f"line {lineno}: coordinates must be integers") from None
        if not (1 <= i <= n and 1 <= j <= m):
            raise MatrixFormatError(
                f"line {lineno}: coordinate ({i}, {j}) outside {n}x{m}")
        if (i, j) in seen:
            raise MatrixFormatError(
                f"line {lineno}: duplicate coordinate ({i}, {j})")
        seen.add((i, j))
        dense[i - 1, j - 1] = 1
    return BinaryMatrix(n, m, np.packbits(dense, axis=1))


def ref_read(content: bytes, fmt):
    lines = content.decode("ascii").splitlines()
    return (ref_read_dense01 if fmt == "dense01" else ref_read_coo)(lines)


def ref_text(mat, fmt) -> bytes:
    if fmt == "dense01":
        lines = ["".join(map(str, row)) for row in mat.to_dense().tolist()]
    else:
        rows, cols = np.nonzero(mat.to_dense())
        lines = [f"{mat.n_rows} {mat.n_cols} {len(rows)}"]
        lines.extend(f"{i + 1} {j + 1}" for i, j in zip(rows, cols))
    return "".join(line + "\n" for line in lines).encode("ascii")


def outcome(read, *args):
    """The matrix a reader returns, or the message it raises."""
    try:
        mat = read(*args)
    except MatrixFormatError as exc:
        return str(exc)
    return mat.shape, mat.to_dense().tolist()


def read_content(content: bytes, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.dat")
        with open(path, "wb") as fh:
            fh.write(content)
        return read_matrix(path, fmt)


EDIT_BYTES = b"01 \t\r\n2x\v"
EDIT_OPS = ("insert", "delete", "replace")


def apply_edits(content: bytes, edits) -> bytes:
    """Insert, delete or replace one byte for each (op, position, byte)."""
    out = bytearray(content)
    for op, pos, byte in edits:
        pos %= len(out) + 1
        if op == "insert":
            out.insert(pos, byte)
        elif pos < len(out):
            if op == "delete":
                del out[pos]
            else:
                out[pos] = byte
    return bytes(out)


small_matrices = arrays(np.uint8,
                        st.tuples(st.integers(0, 6), st.integers(0, 10)),
                        elements=st.integers(0, 1))
byte_edits = st.lists(st.tuples(st.sampled_from(EDIT_OPS),
                                st.integers(0, 200),
                                st.sampled_from(EDIT_BYTES)), max_size=5)


class TestRealMatrix:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            RealMatrix([[1.0, float("nan")]])
        with pytest.raises(ValueError, match="finite"):
            RealMatrix([[float("inf")]])

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError, match="2-D"):
            RealMatrix([1.0, 2.0])

    def test_equality(self):
        assert RealMatrix([[1.5, 0.0]]) == RealMatrix([[1.5, 0.0]])
        assert RealMatrix([[1.5, 0.0]]) != RealMatrix([[1.5, 1.0]])


class TestDense01:
    def test_read_identity(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("10\n01\n")
        assert read_matrix(path, "dense01") == BinaryMatrix.identity(2)

    def test_read_with_spaces(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("1 0\n0 1\n")
        assert read_matrix(path, "dense01") == BinaryMatrix.identity(2)

    def test_invalid_character_reports_line(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("10\n0x\n")
        with pytest.raises(MatrixFormatError, match="line 2"):
            read_matrix(path, "dense01")

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("10\n011\n")
        with pytest.raises(MatrixFormatError, match="line 2"):
            read_matrix(path, "dense01")

    def test_written_form_is_canonical(self, tmp_path):
        path = tmp_path / "x.txt"
        write_matrix(BinaryMatrix.identity(2), path, "dense01")
        assert path.read_text() == "10\n01\n"


class TestCoo:
    def test_read_single_coordinate(self, tmp_path):
        path = tmp_path / "x.coo"
        path.write_text("2 2 1\n1 2\n")
        mat = read_matrix(path, "coo")
        assert mat.to_dense().tolist() == [[0, 1], [0, 0]]

    @pytest.mark.parametrize("content,message", [
        ("", "header"),
        ("2 2\n", "header"),
        ("a 2 1\n1 1\n", "integers"),
        ("2 2 2\n1 1\n", "coordinate lines"),
        ("2 2 1\n3 1\n", "outside"),
        ("2 2 1\n0 1\n", "outside"),
        ("2 2 2\n1 1\n1 1\n", "duplicate"),
        ("2 2 1\n1\n", "expected 'i j'"),
    ])
    def test_malformed(self, tmp_path, content, message):
        path = tmp_path / "x.coo"
        path.write_text(content)
        with pytest.raises(MatrixFormatError, match=message):
            read_matrix(path, "coo")

    def test_preserves_empty_shape(self, tmp_path):
        path = tmp_path / "x.coo"
        write_matrix(BinaryMatrix.zeros(0, 5), path, "coo")
        out = read_matrix(path, "coo")
        assert out.shape == (0, 5)


    @pytest.mark.parametrize("content,message", [
        ("2 2 1\n1 1\n2 2\n", "line 3: expected 1 coordinate lines, found 2"),
        ("2 2 2\n1 1\n", "line 3: expected 2 coordinate lines, found 1"),
        ("2 2 3\n", "line 2: expected 3 coordinate lines, found 0"),
        ("2 2 0\n1 1\n", "line 2: expected 0 coordinate lines, found 1"),
    ])
    def test_line_count_error_names_a_line(self, tmp_path, content,
                                           message):
        path = tmp_path / "x.coo"
        path.write_text(content)
        with pytest.raises(MatrixFormatError, match=f"^{message}$"):
            read_matrix(path, "coo")

    @pytest.mark.parametrize("token", ["+1", "1_0", "-1", "1.0"])
    def test_tokens_are_plain_digits(self, tmp_path, token):
        path = tmp_path / "x.coo"
        path.write_text(f"20 20 2\n1 1\n{token} 2\n")
        with pytest.raises(MatrixFormatError,
                           match="^line 3: coordinates must be integers$"):
            read_matrix(path, "coo")

    def test_token_count_past_a_byte(self, tmp_path):
        # 258 distinct in-range tokens on one line: a per-line count kept
        # mod 256 alone would read 2
        tokens = " ".join(f"1 {j}" for j in range(1, 130))
        path = tmp_path / "x.coo"
        path.write_text(f"300 300 1\n{tokens}\n")
        with pytest.raises(MatrixFormatError, match="^line 2: expected 'i j'"):
            read_matrix(path, "coo")

    def test_first_bad_line_wins(self, tmp_path):
        # the duplicate on line 3 comes before the bad token on line 4
        path = tmp_path / "x.coo"
        path.write_text("3 3 3\n2 2\n2 2\n1 x\n")
        with pytest.raises(MatrixFormatError,
                           match=r"^line 3: duplicate coordinate \(2, 2\)$"):
            read_matrix(path, "coo")

    def test_huge_coordinate_reports_its_value(self, tmp_path):
        path = tmp_path / "x.coo"
        path.write_text("2 2 1\n1 99999999999999999999999\n")
        with pytest.raises(MatrixFormatError, match=re.escape(
                "line 2: coordinate (1, 99999999999999999999999) outside "
                "2x2")):
            read_matrix(path, "coo")

    def test_reads_crlf_tabs_and_no_final_newline(self, tmp_path):
        path = tmp_path / "x.coo"
        path.write_bytes(b"2 2 2\r\n 1\t2 \r\n2   1")
        mat = read_matrix(path, "coo")
        assert mat.to_dense().tolist() == [[0, 1], [1, 0]]

    def test_sparse_read_peak_memory(self, tmp_path):
        # 8192 x 8192 with 1000 ones: the packed matrix is 8 MiB, a dense
        # n x m intermediate would be 8x that
        n = 8192
        rng = np.random.default_rng(8192)
        linear = rng.choice(n * n, 1000, replace=False)
        path = tmp_path / "sparse.coo"
        path.write_text(f"{n} {n} 1000\n" + "".join(
            f"{i // n + 1} {i % n + 1}\n" for i in linear))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            mat = read_matrix(path, "coo")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        rows, cols = mat.nonzero()
        assert np.array_equal(rows * n + cols, np.sort(linear))
        assert peak <= 2 * mat._packed.nbytes


class TestNonAscii:
    @pytest.mark.parametrize("fmt,content", [
        ("dense01", "10\n0\u00e9\n"),
        ("coo", "2 2 1\n1 \u00e9\n"),
        ("csv", "1.0\n2\u00e9\n"),
    ])
    def test_names_the_line_of_the_first_non_ascii_byte(self, tmp_path, fmt,
                                                        content):
        path = tmp_path / "x.dat"
        path.write_bytes(content.encode("utf-8"))
        with pytest.raises(MatrixFormatError, match=re.escape(
                "line 2: invalid character '\\xc3', expected ASCII text")):
            read_matrix(path, fmt)

    def test_counts_every_line_break(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_bytes(b"1\r0\r\n1\v1\xff\n")
        with pytest.raises(MatrixFormatError, match="^line 4: invalid "):
            read_matrix(path, "dense01")


class TestBulkParsersMatchReference:
    """Random byte edits of valid files: same matrix or same message."""

    @pytest.mark.parametrize("fmt", ["dense01", "coo"])
    @given(dense=small_matrices, edits=byte_edits)
    @settings(max_examples=400, deadline=None)
    def test_random_edits(self, fmt, dense, edits):
        content = apply_edits(ref_text(BinaryMatrix.from_dense(dense), fmt),
                              edits)
        assert (outcome(read_content, content, fmt)
                == outcome(ref_read, content, fmt))

    @pytest.mark.parametrize("fmt", ["dense01", "coo"])
    def test_seeded_sweep(self, fmt):
        rng = np.random.default_rng(17)
        errors = 0
        for _ in range(1000):
            dense = rng.random((rng.integers(0, 7), rng.integers(0, 11)))
            edits = [(EDIT_OPS[rng.integers(0, 3)], int(rng.integers(0, 200)),
                      EDIT_BYTES[rng.integers(0, len(EDIT_BYTES))])
                     for _ in range(rng.integers(0, 6))]
            content = apply_edits(
                ref_text(BinaryMatrix.from_dense(dense < 0.4), fmt), edits)
            expected = outcome(ref_read, content, fmt)
            errors += isinstance(expected, str)
            assert outcome(read_content, content, fmt) == expected
        assert errors > 300  # the edits reach the error paths


class TestWritersMatchReference:
    """Byte-identical to the line-joining writers."""

    @pytest.mark.parametrize("n_cols", [1, 7, 8, 9, 63, 64, 65, 127, 129])
    @pytest.mark.parametrize("fmt", ["dense01", "coo"])
    def test_word_widths(self, tmp_path, fmt, n_cols):
        # 300 rows cross the 255-row block; one all-ones, one all-zero row
        rng = np.random.default_rng(n_cols)
        dense = (rng.random((300, n_cols)) < 0.3).astype(np.uint8)
        dense[0] = 1
        dense[254] = 0
        mat = BinaryMatrix.from_dense(dense)
        path = tmp_path / "m"
        write_matrix(mat, path, fmt)
        assert path.read_bytes() == ref_text(mat, fmt)
        assert read_matrix(path, fmt) == mat

    @pytest.mark.parametrize("shape", [(9, 10), (10, 9), (99, 100),
                                       (100, 101), (999, 1000),
                                       (1001, 1000)])
    def test_coo_digit_count_edges(self, tmp_path, shape):
        edges = [1, 2, 9, 10, 11, 99, 100, 101, 999, 1000, 1001]
        dense = np.zeros(shape, dtype=np.uint8)
        rows = [i - 1 for i in edges if i <= shape[0]]
        cols = [j - 1 for j in edges if j <= shape[1]]
        dense[np.ix_(rows, cols)] = 1
        mat = BinaryMatrix.from_dense(dense)
        path = tmp_path / "m.coo"
        write_matrix(mat, path, "coo")
        assert path.read_bytes() == ref_text(mat, "coo")
        assert read_matrix(path, "coo") == mat

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (3, 0), (300, 0)])
    @pytest.mark.parametrize("fmt", ["dense01", "coo"])
    def test_empty_axes(self, tmp_path, fmt, shape):
        mat = BinaryMatrix.zeros(*shape)
        path = tmp_path / "m"
        write_matrix(mat, path, fmt)
        assert path.read_bytes() == ref_text(mat, fmt)


class TestCsv:
    def test_read_reals(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.5,0\n0,2.0\n")
        assert read_matrix(path, "csv") == RealMatrix([[1.5, 0.0],
                                                       [0.0, 2.0]])

    def test_bad_token_reports_line(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.5,0\n0,two\n")
        with pytest.raises(MatrixFormatError, match="line 2"):
            read_matrix(path, "csv")

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.0,nan\n")
        with pytest.raises(MatrixFormatError, match="non-finite"):
            read_matrix(path, "csv")

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(MatrixFormatError, match="line 2"):
            read_matrix(path, "csv")


def _round_trips(mat, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.dat")
        write_matrix(mat, path, fmt)
        return read_matrix(path, fmt) == mat


class TestRoundTrips:
    @given(arrays(np.uint8,
                  st.tuples(st.integers(1, 10), st.integers(0, 12)),
                  elements=st.integers(0, 1)))
    @settings(max_examples=60)
    def test_dense01(self, dense):
        assert _round_trips(BinaryMatrix.from_dense(dense), "dense01")

    @given(arrays(np.uint8,
                  st.tuples(st.integers(0, 10), st.integers(0, 12)),
                  elements=st.integers(0, 1)))
    @settings(max_examples=60)
    def test_coo(self, dense):
        assert _round_trips(BinaryMatrix.from_dense(dense), "coo")

    @given(arrays(np.float64,
                  st.tuples(st.integers(1, 8), st.integers(0, 8)),
                  elements=st.floats(allow_nan=False, allow_infinity=False,
                                     width=64)))
    @settings(max_examples=60)
    def test_csv(self, values):
        assert _round_trips(RealMatrix(values), "csv")

    def test_empty_matrix(self, tmp_path):
        for fmt, mat in (("dense01", BinaryMatrix.zeros(0, 0)),
                         ("coo", BinaryMatrix.zeros(0, 0)),
                         ("csv", RealMatrix(np.zeros((0, 0))))):
            path = tmp_path / f"empty.{fmt}"
            write_matrix(mat, path, fmt)
            assert read_matrix(path, fmt) == mat

    def test_large_random(self, tmp_path):
        rng = np.random.default_rng(131)
        big = BinaryMatrix.from_dense(rng.random((1000, 1000)) < 0.01)
        for fmt in ("dense01", "coo"):
            path = tmp_path / f"big.{fmt}"
            write_matrix(big, path, fmt)
            assert read_matrix(path, fmt) == big
        real = RealMatrix(np.round(rng.random((300, 120)), 6))
        path = tmp_path / "big.csv"
        write_matrix(real, path, "csv")
        assert read_matrix(path, "csv") == real


class TestFormatDispatch:
    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="unknown format"):
            read_matrix(tmp_path / "x", "tsv")
        with pytest.raises(ValueError, match="unknown format"):
            write_matrix(BinaryMatrix.zeros(1, 1), tmp_path / "x", "tsv")

    def test_type_mismatch(self, tmp_path):
        with pytest.raises(MatrixFormatError, match="binary"):
            write_matrix(RealMatrix([[1.0]]), tmp_path / "x", "dense01")
        with pytest.raises(MatrixFormatError, match="real"):
            write_matrix(BinaryMatrix.zeros(1, 1), tmp_path / "x", "csv")

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_matrix(tmp_path / "nope.txt", "dense01")


class TestBinarize:
    def test_zeros_stay_zero(self):
        assert binarize(RealMatrix(np.zeros((3, 3)))).count() == 0

    def test_strictly_positive_only(self):
        real = RealMatrix([[-1.0, 0.0], [0.5, -0.001]])
        assert binarize(real).to_dense().tolist() == [[0, 0], [1, 0]]

    def test_hand_example(self):
        real = RealMatrix([[1.5, 0.0], [0.0, 2.0]])
        assert binarize(real) == BinaryMatrix.identity(2)

    def test_threshold_override(self):
        real = RealMatrix([[1.5, 0.0], [0.0, 2.0]])
        assert binarize(real, threshold=1.6).to_dense().tolist() == [[0, 0],
                                                                     [0, 1]]


class TestMaskDenoise:
    def test_full_support_keeps_everything(self):
        real = RealMatrix([[1.5, -2.0], [0.25, 3.0]])
        a = BinaryMatrix.ones(2, 1)
        b = BinaryMatrix.ones(1, 2)
        assert mask_denoise(real, a, b) == real

    def test_empty_support_zeroes_everything(self):
        real = RealMatrix([[1.5, -2.0], [0.25, 3.0]])
        a = BinaryMatrix.zeros(2, 1)
        b = BinaryMatrix.zeros(1, 2)
        assert mask_denoise(real, a, b) == RealMatrix(np.zeros((2, 2)))

    def test_hand_example(self):
        real = RealMatrix([[1.5, 0.0], [0.0, 2.0]])
        a, b = (BinaryMatrix.from_dense([[1], [0]]),
                BinaryMatrix.from_dense([[1, 1]]))
        assert mask_denoise(real, a, b) == RealMatrix([[1.5, 0.0],
                                                       [0.0, 0.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            mask_denoise(RealMatrix([[1.0]]), BinaryMatrix.zeros(2, 1),
                         BinaryMatrix.zeros(1, 2))

    def test_binarize_commutes_with_masking(self):
        rng = np.random.default_rng(137)
        for _ in range(40):
            n, m = rng.integers(1, 9, size=2)
            k = int(rng.integers(1, 4))
            real = RealMatrix(rng.normal(size=(n, m)))
            a = BinaryMatrix.from_dense(rng.random((n, k)) < 0.5)
            b = BinaryMatrix.from_dense(rng.random((k, m)) < 0.5)
            lhs = binarize(mask_denoise(real, a, b))
            rhs = elementwise("and", binarize(real), bool_product(a, b))
            assert lhs == rhs
