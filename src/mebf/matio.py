"""Matrix file formats, binarization, and mask-based denoising.

Three bit-exact text formats, each declared once in a table that gives its
kind, its matrix type (``BinaryMatrix``, or ``np.ndarray`` for csv), its
parser and its chunk writer.  Files are ASCII.  On read, a line ends at
LF, at CRLF, or at any other break ``str.splitlines`` knows in ASCII (CR,
VT, FF, 0x1c-0x1e), and the final line end is optional; written files end
every line with LF.

* ``dense01`` -- one line per matrix row, characters '0'/'1'.  Spaces
  anywhere in a line are ignored on read.  Binary matrices.
* ``coo`` -- header line ``n m nnz`` followed by nnz lines ``i j`` of
  1-based coordinates of the ones; the coordinates are plain ASCII digits
  separated by spaces or tabs, and duplicates are rejected.  Binary
  matrices.
* ``csv`` -- comma-separated numeric fields with '.' as the decimal
  separator.  Real matrices, held as 2-D float64 ``np.ndarray``s of finite
  values; floats are written in shortest round-trip form, so
  write-then-read is the identity.

The one exception, in ``dense01`` and ``csv``: a matrix with no rows and
some columns (0 x m) is written as an empty file, which reads back as
0 x 0.  ``coo`` keeps the width in its header.

A malformed file raises :class:`MatrixFormatError` with a message that
starts ``line N:`` at the first bad line.  Files are read in line-aligned
chunks, so a ``dense01`` read holds about twice the packed matrix and a
``coo`` read about once, plus the work on a few chunks, whatever the file's
size; a ``csv`` read holds its float64 matrix about twice (at most 2.1
times).  ``dense01`` and ``coo`` are parsed in numpy passes over each chunk
and formatted in numpy passes over blocks of rows, one unpacked block and
one block's text alive at a time; a ``coo`` block's text is filled in place
and cut to its digits once.  A file is read once, so a pipe works too:
the first ``coo`` chunk that fails a bulk check is scanned line by line to
name its bad line, and the rest are only counted.
"""

from __future__ import annotations

import io
import itertools
import math

import numpy as np

from .boolmat import BinaryMatrix, bool_product

__all__ = [
    "BINARY_FORMATS",
    "FORMATS",
    "MatrixFormatError",
    "binarize",
    "mask_denoise",
    "read_matrix",
    "write_matrix",
]

class MatrixFormatError(ValueError):
    """Raised for unparseable or inconsistent matrix files."""


# Besides LF, str.splitlines breaks ASCII text at CR, VT, FF and 0x1c-0x1e.
_OTHER_BREAKS = b"\r\v\f\x1c\x1d\x1e"
_TO_LF = bytes.maketrans(_OTHER_BREAKS, b"\n" * len(_OTHER_BREAKS))

# Bytes per read.  A chunk is one read plus the partial line carried over
# from the read before, cut back to its last line end, so a reader's
# temporaries stay a small multiple of this whatever the file's size.
_CHUNK_BYTES = 1 << 18


def _char(byte: int) -> str:
    """A byte as repr() shows it; for ASCII the same as repr(chr(byte))."""
    return repr(bytes([byte]))[1:]


def _text_chunks(path):
    """Yield (number of its first line, chunk) for the lines of a file.

    A chunk is whole lines of ASCII bytes, every line break made LF; the
    last line gets an LF if the file has none.  Raises at the first
    non-ASCII byte, once the lines before it have been yielded.
    """
    lineno = 1
    carry = b""
    with open(path, "rb") as fh:
        while True:
            # a line longer than a read doubles the next one, so that its
            # pieces are joined in linear time
            block = fh.read(max(_CHUNK_BYTES, len(carry)))
            data = carry + block
            # the read is released before the cut copies the chunk
            more = bool(block)
            del block
            # a CR that ends a read may be the first half of a CRLF
            held = b"\r" if more and data.endswith(b"\r") else b""
            if held:
                data = data[:-1]
            # a scan for each break byte is cheaper than a translate that
            # finds none
            if any(byte in data for byte in _OTHER_BREAKS):
                data = data.replace(b"\r\n", b"\n").translate(_TO_LF)
            if more:
                cut = data.rfind(b"\n") + 1
                data, carry = data[:cut], data[cut:] + held
            elif data and not data.endswith(b"\n"):
                data += b"\n"
            if data:
                if not data.isascii():
                    pos = int(np.argmax(
                        np.frombuffer(data, dtype=np.uint8) >= 0x80))
                    bad_line = lineno + data.count(b"\n", 0, pos)
                    raise MatrixFormatError(
                        f"line {bad_line}: invalid character "
                        f"{_char(data[pos])}, expected ASCII text")
                yield lineno, data
                # numpy counts bytes faster than bytes.count
                lineno += int(np.count_nonzero(
                    np.frombuffer(data, dtype=np.uint8) == 10))
            if not more:
                return


def _lines(chunks):
    """Yield (line number, line without its LF), cut one at a time."""
    for lineno, chunk in chunks:
        for offset, line in enumerate(io.BytesIO(chunk), lineno):
            yield offset, line[:-1]


def _parse_dense01(chunks) -> BinaryMatrix:
    parts = []
    width = None
    for lineno, chunk in chunks:
        buf = np.frombuffer(chunk.replace(b" ", b""), dtype=np.uint8)
        ends = np.flatnonzero(buf == 10)
        n_rows = ends.size
        widths = np.diff(ends, prepend=-1) - 1
        if width is None:
            width = int(widths[0])
        invalid = (buf | 1) != 49
        invalid[ends] = False
        ragged = widths != width
        # the first bad line wins; on a line with both faults, the character
        char_line = width_line = n_rows
        if invalid.any():
            pos = int(invalid.argmax())
            char_line = int(np.searchsorted(ends, pos))
        if ragged.any():
            width_line = int(ragged.argmax())
        if char_line < n_rows and char_line <= width_line:
            raise MatrixFormatError(
                f"line {lineno + char_line}: invalid character "
                f"{_char(buf[pos])}, expected '0' or '1'")
        if width_line < n_rows:
            raise MatrixFormatError(
                f"line {lineno + width_line}: expected {width} entries, got "
                f"{widths[width_line]}")
        bits = buf.reshape(n_rows, width + 1)[:, :width] == 49
        parts.append(np.packbits(bits, axis=1))
    if not parts:
        return BinaryMatrix.zeros(0, 0)
    packed = np.concatenate(parts)
    return BinaryMatrix(len(packed), width, packed)


def _coo_header(chunks):
    """n, m and nnz from the header, and the chunks of coordinate lines."""
    _, first = next(chunks, (1, b""))
    if not first:
        raise MatrixFormatError("line 1: missing 'n m nnz' header")
    split = first.index(b"\n")
    header = first[:split].decode("ascii").split()
    if len(header) != 3:
        raise MatrixFormatError("line 1: header must be 'n m nnz'")
    try:
        n, m, nnz = (int(tok) for tok in header)
    except ValueError:
        raise MatrixFormatError("line 1: header must be three integers") \
            from None
    if n < 0 or m < 0 or nnz < 0:
        raise MatrixFormatError("line 1: header values must be non-negative")
    return n, m, nnz, itertools.chain([(2, first[split + 1:])], chunks)


def _parse_coo(chunks) -> BinaryMatrix:
    """The matrix of a coo file, read in one streamed pass.

    Each chunk of coordinate lines is checked in bulk and its bits are set
    straight into the packed matrix.  The first chunk that fails is scanned
    line by line against the bits of the chunks before it, to name its bad
    line; the lines after it are only counted.  The faults rank as in a
    check of the whole file: the coordinate line count, the allocation of
    the packed matrix, then the first bad line.
    """
    n, m, nnz, bodies = _coo_header(chunks)
    failure = error = None
    # allocated first, so that the bit index arithmetic cannot overflow
    try:
        mat = BinaryMatrix.zeros(n, m)
    except (MemoryError, ValueError) as exc:
        failure = exc
    first, body = 2, b""
    for first, body in bodies:
        # after the first fault the lines are only counted
        if failure or error or not body or _add_coords(body, mat._packed, m):
            continue
        # a chunk that fails in bulk is added line by line up to its first
        # bad line
        seen = memoryview(mat._packed)
        errors = (_coo_line_error(line, lineno, n, m, seen)
                  for lineno, line in _lines([(first, body)]))
        error = next(filter(None, errors), None)
    # the lines before the last chunk are counted by its first line number
    found = first - 2 + body.count(b"\n")
    if found != nnz:
        raise MatrixFormatError(
            f"line {min(found, nnz) + 2}: expected {nnz} coordinate lines, "
            f"found {found}")
    if failure or error:
        raise failure or error
    return mat


def _add_coords(body: bytes, packed: np.ndarray, m: int) -> bool:
    """Set the bits of a chunk of coordinate lines if every line holds.

    A line holds when it is two digit runs amid spaces and tabs that name
    an entry inside the matrix that no line before it has set.  If a line
    fails, no bit is set.
    """
    if not _two_tokens_per_line(np.frombuffer(body, dtype=np.uint8)):
        return False
    # every line is two digit runs, so text-mode parsing reads them all; a
    # value past int64 saturates and fails the range check
    coords = np.fromstring(body, dtype=np.int64, sep=" ").reshape(-1, 2)
    coords -= 1
    rows, cols = coords[:, 0], coords[:, 1]
    if not ((rows >= 0) & (rows < packed.shape[0]) & (cols >= 0)
            & (cols < m)).all():
        return False
    # the bit index of each coordinate, in place of its row; files written
    # row by row have them increasing, with no sort needed to find repeats
    bits = rows
    bits *= 8 * packed.shape[1]
    bits += cols
    if not (bits[1:] > bits[:-1]).all():
        ordered = np.sort(bits)
        if (ordered[1:] == ordered[:-1]).any():
            return False
    # each coordinate's bit in its byte, then the byte's index
    masks = np.right_shift(0x80, bits.astype(np.uint8) & 7)
    bits >>= 3
    flat = packed.reshape(-1)
    if (flat[bits] & masks).any():
        return False
    # no bit is set twice, so adding ORs; numpy's add.at is the fast one
    np.add.at(flat, bits, masks)
    return True


def _two_tokens_per_line(buf: np.ndarray) -> bool:
    """Whether each LF-ended line is two digit runs amid spaces and tabs.

    Per-byte temporaries are bool or uint8; int64 arrays are per line.
    """
    digits = (buf - 48) < 10
    if not (digits | (buf == 32) | (buf == 9) | (buf == 10)).all():
        return False
    token_starts = digits.copy()
    token_starts[1:] &= ~digits[:-1]
    line_starts = np.append(0, np.flatnonzero(buf[:-1] == 10) + 1)
    # counted mod 256, as an int64 count would cast every byte; with 2
    # tokens per line in all, 2 mod 256 on each line means exactly 2
    tokens = np.add.reduceat(token_starts.view(np.uint8), line_starts,
                             dtype=np.uint8)
    return bool(np.count_nonzero(token_starts) == 2 * line_starts.size
                and (tokens == 2).all())


def _coo_line_error(line: bytes, lineno: int, n: int, m: int,
                    seen: memoryview) -> MatrixFormatError | None:
    """The error of one coordinate line, or None after marking it in seen."""
    parts = line.split()
    if len(parts) != 2:
        return MatrixFormatError(
            f"line {lineno}: expected 'i j', got {line.decode()!r}")
    if not (parts[0].isdigit() and parts[1].isdigit()):
        return MatrixFormatError(f"line {lineno}: coordinates must be integers")
    i, j = int(parts[0]), int(parts[1])
    if not (1 <= i <= n and 1 <= j <= m):
        return MatrixFormatError(
            f"line {lineno}: coordinate ({i}, {j}) outside {n}x{m}")
    byte = (i - 1, (j - 1) >> 3)
    bit = 0x80 >> ((j - 1) & 7)
    if seen[byte] & bit:
        return MatrixFormatError(
            f"line {lineno}: duplicate coordinate ({i}, {j})")
    seen[byte] |= bit
    return None


def _read_csv(chunks) -> np.ndarray:
    rows = []
    width = None
    for lineno, line in _lines(chunks):
        tokens = line.decode("ascii").split(",") if line else []
        row = []
        for token in tokens:
            try:
                value = float(token)
            except ValueError:
                raise MatrixFormatError(
                    f"line {lineno}: invalid numeric field {token!r}") \
                    from None
            if not math.isfinite(value):
                raise MatrixFormatError(
                    f"line {lineno}: non-finite value {token!r}")
            row.append(value)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise MatrixFormatError(
                f"line {lineno}: expected {width} fields, got {len(row)}")
        # a float64 array holds a row in a fraction of a list's memory
        rows.append(np.array(row))
    return np.stack(rows) if rows else np.zeros((0, 0))


def _dense01_chunks(mat: BinaryMatrix):
    for _, block in mat.row_blocks():
        text = np.full((len(block), mat.n_cols + 1), 10, dtype=np.uint8)
        np.add(block, 48, out=text[:, :-1])
        del block
        yield text
        del text


def _decimal_lines(first: int, count: int, width: int, end: int):
    """ASCII lines of the integers first .. first+count-1, one void item
    of ``width + 1`` bytes each.

    Each line holds the digits right-aligned in ``width`` bytes, with NUL
    bytes in place of the leading zeros, then the byte ``end``.
    """
    values = np.arange(first, first + count, dtype=np.int64)[:, None]
    powers = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
    text = np.full((count, width + 1), end, dtype=np.uint8)
    text[:, :width] = np.where(values >= powers, values // powers % 10 + 48,
                               0)
    return text.view(np.dtype((np.void, width + 1))).ravel()


def _coo_chunks(mat: BinaryMatrix):
    yield f"{mat.n_rows} {mat.n_cols} {mat.count()}\n".encode("ascii")
    # digits per column once and per row once: each coordinate line is
    # two gathers, with the NUL padding cut out
    col_text = _decimal_lines(1, mat.n_cols, len(str(mat.n_cols)),
                              ord("\n"))
    row_width = len(str(mat.n_rows))
    for start, block in mat.row_blocks():
        row_text = _decimal_lines(start + 1, len(block), row_width, ord(" "))
        flat = np.flatnonzero(block.view(bool))
        del block
        # the narrowest indices that hold a row of the block and a column
        rows = np.empty(len(flat), np.min_scalar_type(len(row_text)))
        cols = np.empty(len(flat), np.min_scalar_type(mat.n_cols))
        np.divmod(flat, mat.n_cols, out=(rows, cols), casting="unsafe")
        del flat
        # the lines fill one buffer in place, the block's only text until
        # its padding is cut out
        text = bytearray(len(rows) * (row_text.itemsize + col_text.itemsize))
        lines = np.frombuffer(text, dtype=[("row", row_text.dtype),
                                           ("col", col_text.dtype)])
        lines["row"] = row_text[rows]
        lines["col"] = col_text[cols]
        del rows, cols, lines
        yield text.translate(None, b"\0")
        del text


def _csv_chunks(arr: np.ndarray):
    """The lines of a 2-D finite float64 array, checked when called, so
    that no file is opened for an array that would not read back."""
    if arr.ndim != 2 or arr.dtype != np.float64:
        raise MatrixFormatError(f"format 'csv' stores 2-D float64 arrays, "
                                f"got {arr.ndim}-D {arr.dtype}")
    # NaN propagates through min and max, which need no n x m temporary
    if arr.size and not np.isfinite([arr.min(), arr.max()]).all():
        raise MatrixFormatError("format 'csv' stores finite values only")
    return ((",".join(repr(v) for v in row.tolist()) + "\n").encode("ascii")
            for row in arr)


# Each format's kind, its matrix type, its parser and its chunk writer.
_TABLE = {
    "dense01": ("binary", BinaryMatrix, _parse_dense01, _dense01_chunks),
    "coo": ("binary", BinaryMatrix, _parse_coo, _coo_chunks),
    "csv": ("real", np.ndarray, _read_csv, _csv_chunks),
}
FORMATS = tuple(_TABLE)
BINARY_FORMATS = tuple(name for name, (kind, *_) in _TABLE.items()
                       if kind == "binary")


def _lookup(format: str) -> tuple:
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}, expected one of "
                         f"{FORMATS}")
    return _TABLE[format]


def read_matrix(path, format: str) -> BinaryMatrix | np.ndarray:
    """Parse a matrix file; dense01/coo yield binary, csv a float64 array."""
    _, _, parse, _ = _lookup(format)
    chunks = _text_chunks(path)
    try:
        return parse(chunks)
    except MatrixFormatError:
        # a non-ASCII byte anywhere in the file outranks every other fault:
        # read the rest for the ASCII check before raising
        for _ in chunks:
            pass
        raise


def write_matrix(mat, path, format: str) -> None:
    """Write a matrix in the given format; inverse of :func:`read_matrix`."""
    kind, matrix_type, _, chunks = _lookup(format)
    # exactly the type: an np.matrix row would be written as "[1.5, 0.0]"
    if type(mat) is not matrix_type:
        raise MatrixFormatError(
            f"format {format!r} stores {kind} matrices, got "
            f"{type(mat).__name__}")
    # the csv writer checks its array here, before the file is opened
    text = chunks(mat)
    with open(path, "wb") as fh:
        # holds no chunk while it asks for the next
        fh.writelines(text)


def binarize(real: np.ndarray, threshold: float = 0.0) -> BinaryMatrix:
    """1 where the value strictly exceeds the threshold, else 0."""
    return BinaryMatrix.from_dense(real > threshold)


def mask_denoise(real: np.ndarray, a_mat: BinaryMatrix,
                 b_mat: BinaryMatrix) -> np.ndarray:
    """Keep entries supported by the Boolean product of A and B, zero rest."""
    recon = bool_product(a_mat, b_mat)
    if recon.shape != real.shape:
        raise ValueError(
            f"support {recon.shape} does not match matrix {real.shape}")
    return np.where(recon.to_dense() == 1, real, 0.0)
