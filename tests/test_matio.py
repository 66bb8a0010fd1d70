"""File format tests: parsing, round trips, binarization, masking."""

import os
import re
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mebf import matio
from mebf.boolmat import BinaryMatrix, bool_product, elementwise
from mebf.matio import (
    MatrixFormatError,
    RealMatrix,
    binarize,
    mask_denoise,
    read_matrix,
    write_matrix,
)
from mebf.simulate import SimulationSpec, simulate
from reference import identity, ones


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


def in_file(content: bytes, chunk_bytes, read):
    """read(path) of a file of the content, in reads of chunk_bytes if given."""
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as mp:
        if chunk_bytes is not None:
            mp.setattr(matio, "_CHUNK_BYTES", chunk_bytes)
        path = os.path.join(tmp, "m.dat")
        with open(path, "wb") as fh:
            fh.write(content)
        return read(path)


def read_content(content: bytes, fmt, chunk_bytes=None):
    """read_matrix of the content, in reads of chunk_bytes if given."""
    return in_file(content, chunk_bytes, lambda path: read_matrix(path, fmt))


# The module's own read size, then reads that cut almost every line, and
# CRLF pairs, at every offset.
CHUNK_SIZES = (None, 1, 2, 7, 64)


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

    def test_constructor_copies_the_callers_array(self):
        values = np.array([[1.5, 0.0]])
        mat = RealMatrix(values)
        values[0, 0] = 2.5
        assert mat.values.tolist() == [[1.5, 0.0]]


class TestDense01:
    def test_read_identity(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("10\n01\n")
        assert read_matrix(path, "dense01") == identity(2)

    def test_read_with_spaces(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("1 0\n0 1\n")
        assert read_matrix(path, "dense01") == identity(2)

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
        write_matrix(identity(2), path, "dense01")
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
        ("2 -1 0\n", "line 1: header values must be non-negative"),
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
        # the header is too large to allocate, yet the missing lines win
        ("9223372036854775807 1 1\n",
         "line 2: expected 1 coordinate lines, found 0"),
    ])
    def test_line_count_error_names_a_line(self, tmp_path, content,
                                           message):
        path = tmp_path / "x.coo"
        path.write_text(content)
        with pytest.raises(MatrixFormatError, match=f"^{message}$"):
            read_matrix(path, "coo")

    def test_unallocatable_header_outranks_a_bad_line(self, tmp_path):
        # the line count holds, so the allocation fails before any line check
        path = tmp_path / "x.coo"
        path.write_text("9223372036854775807 1 1\n1 x\n")
        with pytest.raises(MemoryError, match="^Unable to allocate"):
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

    @pytest.mark.parametrize("bad_line,extra_lines", [
        (b"1 x", 0), (b"1 1", 0), (b"99 9", 0), (b"1 2 3", 0),
        # the line count outranks the bad line, which still ends the scan
        (b"1 x", 1), (b"1 x", -1),
    ])
    def test_lines_after_the_first_error_are_only_counted(
            self, bad_line, extra_lines, monkeypatch):
        # line 4 of 401 is bad, in reads of 64 bytes: the scan checks lines
        # 2 to 4 and counts the remaining chunks in bulk
        coords = [f"{i} {j}" for i in range(1, 21) for j in range(1, 21)]
        lines = [b"20 20 %d" % (len(coords) - extra_lines)]
        lines += [c.encode() for c in coords]
        lines[3] = bad_line
        content = b"\n".join(lines) + b"\n"
        assert len(content) > 30 * 64
        checked = []
        split = []
        line_error, lines_of = matio._coo_line_error, matio._lines

        def recording(line, lineno, n, m, seen):
            checked.append(lineno)
            return line_error(line, lineno, n, m, seen)

        def recording_lines(chunks):
            for lineno, line in lines_of(chunks):
                split.append(lineno)
                yield lineno, line

        monkeypatch.setattr(matio, "_coo_line_error", recording)
        monkeypatch.setattr(matio, "_lines", recording_lines)
        got = outcome(read_content, content, "coo", 64)
        assert checked == split == [2, 3, 4]
        assert got == outcome(ref_read, content, "coo")
        assert got.startswith("line ")

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
        found = np.concatenate([np.flatnonzero(block) + start * n
                                for start, block in mat.row_blocks()])
        assert np.array_equal(found, np.sort(linear))
        assert peak <= 2 * mat._packed.nbytes


class TestReadPeakMemory:
    """A read holds the packed matrix once or twice plus a few chunks' work.

    A csv read holds its float64 matrix about twice.

    The bounds are the measured peaks, in reads of the module's own size;
    lower them as the readers allocate less, never raise them.
    """

    @pytest.mark.parametrize("fmt,spec,copies,chunks", [
        # 4 MB file, 0.5 MB packed: each chunk is packed, then joined;
        # measured 2 x packed + 2.98 chunks (25.1 x packed when the whole
        # file was read at once, 3.98 chunks when the chunk reader held
        # its read block while it cut the chunk)
        ("dense01", SimulationSpec(2000, 2000, 5, 0.2, 0.01, 0), 2, 3.0),
        # 14.5 MB file, 1.0 MB packed: the bits are set in place;
        # measured 1 x packed + 6.16 chunks (92.8 x packed when the whole
        # file was read at once, 7.16 chunks when the chunk reader held
        # its read block while it cut the chunk)
        ("coo", SimulationSpec(16000, 500, 5, 0.2, 0.01, 0), 1, 6.19),
    ])
    def test_peak_is_packed_copies_plus_chunks(self, tmp_path, fmt, spec,
                                               copies, chunks):
        path = tmp_path / f"x.{fmt}"
        x = simulate(spec).X
        write_matrix(x, path, fmt)
        # warm up, so that one-off allocations of a first call stay out
        write_matrix(identity(3), tmp_path / "warm", fmt)
        read_matrix(tmp_path / "warm", fmt)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            mat = read_matrix(path, fmt)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert mat == x
        assert peak <= (copies * mat._packed.nbytes
                        + chunks * matio._CHUNK_BYTES)

    def test_csv_peak_is_about_twice_the_matrix(self, tmp_path):
        # 3.1 MB file, 2.9 MB of float64: each row is kept as an array,
        # then the rows are stacked and held as they are; measured 2.08 x
        # the matrix (2.17 x while RealMatrix copied the stack and checked
        # it again, 5.27 x when each row was kept as a list of Python
        # floats)
        rng = np.random.default_rng(600)
        values = np.where(rng.random((600, 600)) < 0.3,
                          rng.standard_normal((600, 600)), 0.0)
        path = tmp_path / "x.csv"
        write_matrix(RealMatrix(values), path, "csv")
        write_matrix(RealMatrix([[1.5, 0.0]]), tmp_path / "warm", "csv")
        read_matrix(tmp_path / "warm", "csv")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            mat = read_matrix(path, "csv")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert np.array_equal(mat.values, values)
        assert peak <= 2.09 * values.nbytes


    def test_late_bad_coo_line(self, tmp_path):
        # the one pass scans the last chunk against the packed matrix the
        # chunks before it built, so a bad last line holds the packed
        # matrix once plus the chunk work: 0.73 MB file, 1.0 MB packed,
        # measured 1 x packed + 6.02 chunks (7.02 when the chunk reader
        # held its read block while it cut the chunk, 8.87 when the file
        # was read a second time to name the line, 59 with a set of every
        # coordinate)
        n, m = 4000, 2000
        flat = np.unique(np.random.default_rng(137).integers(0, n * m,
                                                             80_000))
        lines = [f"{n} {m} {flat.size}"] + [
            f"{i + 1} {j + 1}" for i, j in zip(*np.divmod(flat, m))]
        lines[-1] = lines[-1].replace(" ", " x ")
        path = tmp_path / "x.coo"
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        warm = tmp_path / "warm.coo"
        warm.write_bytes(b"2 2 1\n1 x\n")
        with pytest.raises(MatrixFormatError):
            read_matrix(warm, "coo")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with pytest.raises(MatrixFormatError) as raised:
                read_matrix(path, "coo")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert str(raised.value) == (f"line {flat.size + 1}: expected 'i j', "
                                     f"got {lines[-1]!r}")
        packed = n * ((m + 7) // 8)
        assert peak <= packed + 6.05 * matio._CHUNK_BYTES


class TestWritePeakMemory:
    """A dense01 or coo write holds one unpacked block of rows and the text
    of one block at a time, plus the column digits of a coo file.  A block
    holds at most 255 rows and unpacks to at most the packed matrix, or 64
    KiB if that is more: 125 rows at 1000 x 1000, 250 at 2000 x 2000.  A coo
    block's text is filled in place and then cut to its digits once.

    The bounds are the measured peaks, as multiples of the packed matrix;
    lower them as the writers allocate less, never raise them.
    """

    @pytest.mark.parametrize("fmt,spec,bound", [
        # a block is 1.0 x packed and its text 1.0 x; measured 2.030 x
        # (2.070 x with blocks of 255 rows, 3.091 x while the block and the
        # text before were still held)
        ("dense01", SimulationSpec(2000, 2000, 5, 0.2, 0.01, 0), 2.08),
        # a block is 0.13 x packed; measured 0.196 x (0.285 x while a
        # block's text was held three times, 0.486 x)
        ("coo", SimulationSpec(16000, 500, 12, 0.06, 0.003, 0), 0.20),
        # the bench scenario 1000x1000_d0.2_n0.01: a block is 1.0 x packed;
        # measured 2.118 x (4.199 x with blocks of 255 rows)
        ("dense01", SimulationSpec(1000, 1000, 5, 0.2, 0.01, 0), 2.12),
        # a block's text is 1.9 x packed, its cut copy 1.6 x; measured
        # 4.457 x (15.741 x with blocks of 255 rows, int64 indices and the
        # text held three times)
        ("coo", SimulationSpec(1000, 1000, 5, 0.2, 0.01, 0), 4.46),
    ])
    def test_one_block_and_one_text_at_a_time(self, tmp_path, fmt, spec,
                                              bound):
        x = simulate(spec).X
        path = tmp_path / f"x.{fmt}"
        write_matrix(x, path, fmt)  # one-off allocations stay out
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            write_matrix(x, path, fmt)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert read_matrix(path, fmt) == x
        assert peak <= bound * x._packed.nbytes, peak / x._packed.nbytes


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


class TestChunkBoundaries:
    """Reads cut into tiny chunks: lines, breaks and messages span them."""

    @pytest.mark.parametrize("chunk_bytes", range(1, 12))
    @pytest.mark.parametrize("fmt,content", [
        ("dense01", b"10\r\n01\r\n11\r\n"),
        ("coo", b"2 2 2\r\n1 2\r\n2 1\r\n"),
        ("csv", b"1.5,0\r\n0,2.5\r\n"),
    ])
    def test_crlf_at_every_offset(self, fmt, content, chunk_bytes):
        # a CR that ends one read and the LF that starts the next are one
        # break; two breaks would make an empty line and a format error
        expected = read_content(content.replace(b"\r\n", b"\n"), fmt)
        assert read_content(content, fmt, chunk_bytes) == expected

    @pytest.mark.parametrize("chunk_bytes", [1, 2, 3, 4, 5, 8])
    def test_no_final_line_end(self, chunk_bytes):
        assert read_content(b"10\n01", "dense01", chunk_bytes) == \
            identity(2)
        assert read_content(b"2 2 1\n1 2", "coo", chunk_bytes) == \
            BinaryMatrix.from_dense([[0, 1], [0, 0]])
        assert read_content(b"1.5\r", "csv", chunk_bytes) == \
            RealMatrix([[1.5]])

    def test_lines_longer_than_a_chunk(self):
        rng = np.random.default_rng(23)
        mat = BinaryMatrix.from_dense(rng.random((5, 300)) < 0.5)
        content = ref_text(mat, "dense01")
        assert read_content(content, "dense01", 7) == mat
        rows = content.split(b"\n")
        rows[3] = rows[3][:-1]
        assert outcome(read_content, b"\n".join(rows), "dense01", 7) == (
            "line 4: expected 300 entries, got 299")

    @pytest.mark.parametrize("fmt,line40,message", [
        ("dense01", b"0110x011", "invalid character 'x', expected '0' or '1'"),
        ("dense01", b"011", "expected 8 entries, got 3"),
        ("dense01", b"0110\xff011", "invalid character '\\xff', expected "
                                    "ASCII text"),
        ("coo", b"7 8", "duplicate coordinate (7, 8)"),
        ("coo", b"7 1 1", "expected 'i j', got '7 1 1'"),
        ("coo", b"1 \xc3", "invalid character '\\xc3', expected ASCII text"),
        ("csv", b"1.0,x", "invalid numeric field 'x'"),
    ])
    def test_faults_in_a_later_chunk_name_their_line(self, fmt, line40,
                                                     message):
        # 32-byte reads: line 40 is several chunks into the file
        lines = {
            "dense01": [b"01101001"] * 60,
            "coo": [b"60 8 59"] + [b"%d %d" % (i, i % 8 + 1)
                                   for i in range(1, 60)],
            "csv": [b"1.0,2.0"] * 60,
        }[fmt]
        lines[39] = line40
        content = b"\n".join(lines) + b"\n"
        assert len(b"\n".join(lines[:39])) > 4 * 32
        assert outcome(read_content, content, fmt, 32) == f"line 40: {message}"

    @pytest.mark.parametrize("fmt,line2", [
        ("dense01", b"0x"), ("dense01", b"0"),
        ("coo", b"1 x"), ("coo", b"1 1"), ("coo", b"9 9"),
        ("csv", b"x,1"),
    ])
    def test_later_non_ascii_byte_outranks_earlier_faults(self, fmt, line2):
        # the ASCII check covers the whole file before any other check
        line1, good = {"dense01": (b"10", b"10"), "coo": (b"2 2 3", b"1 1"),
                       "csv": (b"1,2", b"1,2")}[fmt]
        content = b"\n".join([line1, good, line2] + [good] * 30
                             + [b"1\xe9"]) + b"\n"
        message = "line 34: invalid character '\\xe9', expected ASCII text"
        for chunk_bytes in (None, 4, 64):
            assert outcome(read_content, content, fmt, chunk_bytes) == message


class TestBulkParsersMatchReference:
    """Random byte edits of valid files: same matrix or same message."""

    @pytest.mark.parametrize("fmt", ["dense01", "coo"])
    @given(dense=small_matrices, edits=byte_edits)
    @settings(max_examples=400, deadline=None)
    def test_random_edits(self, fmt, dense, edits):
        content = apply_edits(ref_text(BinaryMatrix.from_dense(dense), fmt),
                              edits)
        expected = outcome(ref_read, content, fmt)
        for chunk_bytes in CHUNK_SIZES:
            assert outcome(read_content, content, fmt, chunk_bytes) == expected

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
            for chunk_bytes in CHUNK_SIZES:
                assert (outcome(read_content, content, fmt, chunk_bytes)
                        == expected)
        assert errors > 300  # the edits reach the error paths


def chunk_first_lines(content: bytes, chunk_bytes: int) -> list[int]:
    """The first line number of each chunk the reader cuts the content into."""
    return in_file(content, chunk_bytes, lambda path: [
        first for first, _ in matio._text_chunks(path)])


class TestOnePassCoo:
    """A coo file is read once, in any line order, faults and pipes too."""

    def test_unordered_lines_and_repeats(self):
        # shuffled lines; a repeat of the line before, of the first line at
        # the end, or of the last line of a 64-byte chunk at the next
        # chunk's first line
        rng = np.random.default_rng(29)
        repeats = 0
        for trial in range(240):
            n, m = (int(v) for v in rng.integers(1, 30, 2))
            rows, cols = np.nonzero(rng.random((n, m)) < 0.3)
            order = rng.permutation(rows.size)
            lines = [b"%d %d %d" % (n, m, rows.size)] + [
                b"%d %d" % (i + 1, j + 1)
                for i, j in zip(rows[order], cols[order])]
            kind = trial % 4
            repeated = kind > 0 and len(lines) > 3
            if repeated:
                if kind == 1:
                    b = int(rng.integers(2, len(lines)))
                    a = b - 1
                elif kind == 2:
                    a, b = 1, len(lines) - 1
                else:
                    content = b"\n".join(lines) + b"\n"
                    edges = [e for e in chunk_first_lines(content, 64)
                             if e > 2]
                    if not edges:
                        continue
                    b = edges[int(rng.integers(0, len(edges)))] - 1
                    a = b - 1
                lines[b] = lines[a]
                repeats += 1
            content = b"\n".join(lines) + b"\n"
            expected = outcome(ref_read, content, "coo")
            assert repeated == ("duplicate coordinate" in str(expected))
            for chunk_bytes in CHUNK_SIZES:
                assert (outcome(read_content, content, "coo", chunk_bytes)
                        == expected)
        assert repeats > 150

    @pytest.mark.parametrize("line40", [b"7 8", b"7 1 1", b"61 1", b"7 x"])
    def test_a_later_bad_line_scans_only_its_chunk(self, monkeypatch,
                                                   line40):
        # 32-byte reads: every chunk up to line 40's is checked in bulk,
        # only line 40's chunk is scanned line by line, up to line 40, and
        # the chunks after it are not checked at all
        lines = [b"60 8 59"] + [b"%d %d" % (i, i % 8 + 1)
                                for i in range(1, 60)]
        lines[39] = line40
        content = b"\n".join(lines) + b"\n"
        firsts = chunk_first_lines(content, 32)
        failing = max(i for i, first in enumerate(firsts) if first <= 40)
        assert failing > 3 and failing + 1 < len(firsts)
        bulk, checked = [], []
        add_coords, line_error = matio._add_coords, matio._coo_line_error

        def recording_bulk(body, packed, m):
            bulk.append(body)
            return add_coords(body, packed, m)

        def recording(line, lineno, n, m, seen):
            checked.append(lineno)
            return line_error(line, lineno, n, m, seen)

        monkeypatch.setattr(matio, "_add_coords", recording_bulk)
        monkeypatch.setattr(matio, "_coo_line_error", recording)
        got = outcome(read_content, content, "coo", 32)
        assert got == outcome(ref_read, content, "coo")
        assert got.startswith("line 40: ")
        assert len(bulk) == failing + 1
        assert checked == list(range(firsts[failing], 41))

    @pytest.mark.parametrize("content", [
        b"2 2 2\n1 2\n2 1\n",
        b"",
        b"2 2 2\n1 1\n1 1\n",
        b"2 2 1\n1 x\n",
        b"2 2 1\n3 1\n",
        b"2 2 2\n1 1\n",
        b"2 2 1\n1 \xc3\n",
        b"9223372036854775807 1 1\n1 x\n",
    ])
    def test_opens_the_file_once(self, tmp_path, monkeypatch, content):
        path = tmp_path / "x.coo"
        path.write_bytes(content)
        opened = []

        def recording_open(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(matio, "open", recording_open, raising=False)
        try:
            read_matrix(path, "coo")
        except (MatrixFormatError, MemoryError):
            pass
        assert opened == [path]

    @pytest.mark.parametrize("content", [
        b"2 3 2\n1 1\n1 1\n",
        b"2 3 2\n1 1\n3 1\n",
        b"2 3 2\n1 1\n1 2\n2 2\n",
        b"2 3 2\n1 1\n2 3\n",
    ])
    def test_cli_reads_a_pipe(self, content):
        src = os.path.dirname(os.path.dirname(matio.__file__))
        path = os.pathsep.join(filter(None, [src,
                                             os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "mebf.cli", "factorize", "--input",
             "/dev/stdin", "--format", "coo", "--t", "0.5", "--k", "2"],
            input=content, capture_output=True,
            env=dict(os.environ, PYTHONPATH=path), check=False)
        expected = outcome(ref_read, content, "coo")
        if isinstance(expected, str):
            assert (proc.returncode, proc.stderr.decode()) == (
                1, f"error: {expected}\n")
        else:
            assert proc.returncode == 0
            assert proc.stderr.decode().startswith("2x3 input: ")


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

    def test_write_peak_is_about_one_row_of_text(self, tmp_path):
        # each row is formatted on its own: measured 0.0243 x the float64
        # matrix (4.03 x when the whole matrix was turned into lists of
        # Python floats first); lower the bound as the writer allocates
        # less, never raise it
        rng = np.random.default_rng(600)
        values = np.where(rng.random((600, 600)) < 0.3,
                          rng.standard_normal((600, 600)), 0.0)
        mat = RealMatrix(values)
        write_matrix(RealMatrix([[1.5, 0.0]]), tmp_path / "warm", "csv")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            write_matrix(mat, tmp_path / "x.csv", "csv")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert read_matrix(tmp_path / "x.csv", "csv") == mat
        assert peak <= 0.025 * values.nbytes


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
        with pytest.raises(ValueError, match="unknown format") as info:
            write_matrix(BinaryMatrix.zeros(1, 1), tmp_path / "x", "tsv")
        assert str(info.value) == ("unknown format 'tsv', expected one of "
                                   "('dense01', 'coo', 'csv')")
        assert not (tmp_path / "x").exists()

    def test_type_mismatch(self, tmp_path):
        with pytest.raises(MatrixFormatError, match="binary"):
            write_matrix(RealMatrix([[1.0]]), tmp_path / "x", "dense01")
        with pytest.raises(MatrixFormatError, match="real"):
            write_matrix(BinaryMatrix.zeros(1, 1), tmp_path / "x", "csv")
        with pytest.raises(MatrixFormatError) as info:
            write_matrix(RealMatrix([[1.0]]), tmp_path / "x", "coo")
        assert str(info.value) == (
            "format 'coo' stores binary matrices, got RealMatrix")
        assert not (tmp_path / "x").exists()

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
        assert binarize(real) == identity(2)

    def test_threshold_override(self):
        real = RealMatrix([[1.5, 0.0], [0.0, 2.0]])
        assert binarize(real, threshold=1.6).to_dense().tolist() == [[0, 0],
                                                                     [0, 1]]


class TestMaskDenoise:
    def test_full_support_keeps_everything(self):
        real = RealMatrix([[1.5, -2.0], [0.25, 3.0]])
        a = ones(2, 1)
        b = ones(1, 2)
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

    def test_masked_negative_entries_are_positive_zero(self, tmp_path):
        real = RealMatrix([[-1.5, 2.0], [3.0, -4.0]])
        a, b = BinaryMatrix.from_dense([[1], [0]]), ones(1, 2)
        masked = mask_denoise(real, a, b)
        assert not np.signbit(masked.values[1]).any()
        path = tmp_path / "masked.csv"
        write_matrix(masked, path, "csv")
        assert path.read_bytes() == b"-1.5,2.0\n0.0,0.0\n"

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            mask_denoise(RealMatrix([[1.0]]), BinaryMatrix.zeros(2, 1),
                         BinaryMatrix.zeros(1, 2))

    def test_peak_is_about_one_float64_matrix(self):
        # the result is held as np.where builds it, beside the unpacked
        # product and its mask; measured 1.141 x the float64 matrix (2.141
        # x while RealMatrix copied the result); lower the bound as
        # mask_denoise allocates less, never raise it
        rng = np.random.default_rng(600)
        real = RealMatrix(np.where(rng.random((600, 600)) < 0.3,
                                   rng.standard_normal((600, 600)), 0.0))
        a = BinaryMatrix.from_dense(rng.random((600, 5)) < 0.3)
        b = BinaryMatrix.from_dense(rng.random((5, 600)) < 0.3)
        mask_denoise(real, a, b)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            masked = mask_denoise(real, a, b)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert not np.shares_memory(masked.values, real.values)
        support = bool_product(a, b).to_dense() == 1
        assert np.array_equal(masked.values,
                              np.where(support, real.values, 0.0))
        assert peak <= 1.15 * real.values.nbytes, peak / real.values.nbytes

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
