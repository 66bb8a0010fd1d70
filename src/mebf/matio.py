"""Matrix file formats, binarization, and mask-based denoising.

Three bit-exact text formats.  Files are ASCII.  On read, a line ends at
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
  separator.  Real matrices; floats are written in shortest round-trip
  form, so write-then-read is the identity.

A malformed file raises :class:`MatrixFormatError` with a message that
starts ``line N:`` at the first bad line.  ``dense01`` and ``coo`` are
parsed and formatted in whole-buffer numpy passes; only a file that fails
a bulk check is scanned line by line, to name that line.
"""

from __future__ import annotations

import numpy as np

from .boolmat import BinaryMatrix, bool_product

__all__ = [
    "FORMATS",
    "MatrixFormatError",
    "RealMatrix",
    "binarize",
    "mask_denoise",
    "read_matrix",
    "write_matrix",
]

FORMATS = ("dense01", "coo", "csv")


class MatrixFormatError(ValueError):
    """Raised for unparseable or inconsistent matrix files."""


class RealMatrix:
    """Dense matrix of finite float64 values."""

    __slots__ = ("n_rows", "n_cols", "values")

    def __init__(self, values):
        arr = np.array(values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D array, got ndim={arr.ndim}")
        if arr.size and not np.isfinite(arr).all():
            raise ValueError("all values must be finite")
        self.values = arr
        self.n_rows, self.n_cols = arr.shape

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RealMatrix):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(
            self.values, other.values)

    def __repr__(self) -> str:
        return f"RealMatrix(shape={self.n_rows}x{self.n_cols})"


# Besides LF, str.splitlines breaks ASCII text at CR, VT, FF and 0x1c-0x1e.
_OTHER_BREAKS = b"\r\v\f\x1c\x1d\x1e"
_TO_LF = bytes.maketrans(_OTHER_BREAKS, b"\n" * len(_OTHER_BREAKS))


def _char(byte: int) -> str:
    """A byte as repr() shows it; for ASCII the same as repr(chr(byte))."""
    return repr(bytes([byte]))[1:]


def _read_text(path) -> bytes:
    """The file's ASCII bytes, every line break made LF, with a final LF."""
    with open(path, "rb") as fh:
        data = fh.read()
    # a scan for each break byte is cheaper than a translate that finds none
    if any(byte in data for byte in _OTHER_BREAKS):
        data = data.replace(b"\r\n", b"\n").translate(_TO_LF)
    if data and not data.endswith(b"\n"):
        data += b"\n"
    if not data.isascii():
        pos = int(np.argmax(np.frombuffer(data, dtype=np.uint8) >= 0x80))
        lineno = data.count(b"\n", 0, pos) + 1
        raise MatrixFormatError(
            f"line {lineno}: invalid character {_char(data[pos])}, expected "
            f"ASCII text")
    return data


def _parse_dense01(data: bytes) -> BinaryMatrix:
    buf = np.frombuffer(data.replace(b" ", b""), dtype=np.uint8)
    ends = np.flatnonzero(buf == 10)
    n_rows = ends.size
    if n_rows == 0:
        return BinaryMatrix.zeros(0, 0)
    widths = np.diff(ends, prepend=-1) - 1
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
            f"line {char_line + 1}: invalid character {_char(buf[pos])}, "
            f"expected '0' or '1'")
    if width_line < n_rows:
        raise MatrixFormatError(
            f"line {width_line + 1}: expected {width} entries, got "
            f"{widths[width_line]}")
    bits = buf.reshape(n_rows, width + 1)[:, :width] == 49
    return BinaryMatrix(n_rows, width, np.packbits(bits, axis=1))


def _parse_coo(data: bytes) -> BinaryMatrix:
    if not data:
        raise MatrixFormatError("line 1: missing 'n m nnz' header")
    split = data.index(b"\n")
    header = data[:split].decode("ascii").split()
    if len(header) != 3:
        raise MatrixFormatError("line 1: header must be 'n m nnz'")
    try:
        n, m, nnz = (int(tok) for tok in header)
    except ValueError:
        raise MatrixFormatError("line 1: header must be three integers") \
            from None
    if n < 0 or m < 0 or nnz < 0:
        raise MatrixFormatError("line 1: header values must be non-negative")
    body = data[split + 1:]
    found = body.count(b"\n")
    if found != nnz:
        raise MatrixFormatError(
            f"line {min(found, nnz) + 2}: expected {nnz} coordinate lines, "
            f"found {found}")

    # allocated first: a header too large to hold fails here, before any
    # coordinate arithmetic could overflow
    packed = np.zeros((n, (m + 7) // 8), dtype=np.uint8)
    coords = _coo_coordinates(body, n, m)
    if coords is None:
        raise _coo_error(body, n, m)
    rows, cols = coords
    # no duplicates, so the bits added into one byte are distinct: sum == OR
    np.add.at(packed.reshape(-1), rows * packed.shape[1] + (cols >> 3),
              (0x80 >> (cols & 7)).astype(np.uint8))
    return BinaryMatrix(n, m, packed)


def _coo_coordinates(body: bytes, n: int, m: int):
    """0-based (rows, cols) of a coo body, or None if a bulk check fails."""
    if not body:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    if not _two_tokens_per_line(np.frombuffer(body, dtype=np.uint8)):
        return None
    # every line is two digit runs, so text-mode parsing reads them all; a
    # value past int64 saturates and fails the range check
    coords = np.fromstring(body, dtype=np.int64, sep=" ").reshape(-1, 2)
    coords -= 1
    rows, cols = coords[:, 0], coords[:, 1]
    if not ((rows >= 0) & (rows < n) & (cols >= 0) & (cols < m)).all():
        return None
    linear = rows * m + cols
    linear.sort()
    if (linear[1:] == linear[:-1]).any():
        return None
    return rows, cols


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


def _coo_error(body: bytes, n: int, m: int) -> MatrixFormatError:
    """The error of the first bad line of a body that failed a bulk check.

    Checks each line in order for its token count, digit-only tokens, the
    range and an earlier equal coordinate, as the bulk checks do.
    """
    seen: set[tuple[int, int]] = set()
    for lineno, line in enumerate(body.split(b"\n")[:-1], start=2):
        parts = line.split()
        if len(parts) != 2:
            return MatrixFormatError(
                f"line {lineno}: expected 'i j', got {line.decode()!r}")
        if not (parts[0].isdigit() and parts[1].isdigit()):
            return MatrixFormatError(
                f"line {lineno}: coordinates must be integers")
        i, j = int(parts[0]), int(parts[1])
        if not (1 <= i <= n and 1 <= j <= m):
            return MatrixFormatError(
                f"line {lineno}: coordinate ({i}, {j}) outside {n}x{m}")
        if (i, j) in seen:
            return MatrixFormatError(
                f"line {lineno}: duplicate coordinate ({i}, {j})")
        seen.add((i, j))
    raise AssertionError("a coo body failed a bulk check but has no bad line")


def _read_csv(lines: list[str]) -> RealMatrix:
    rows = []
    width = None
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split(",") if line else []
        row = []
        for token in tokens:
            try:
                value = float(token)
            except ValueError:
                raise MatrixFormatError(
                    f"line {lineno}: invalid numeric field {token!r}") \
                    from None
            if not np.isfinite(value):
                raise MatrixFormatError(
                    f"line {lineno}: non-finite value {token!r}")
            row.append(value)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise MatrixFormatError(
                f"line {lineno}: expected {width} fields, got {len(row)}")
        rows.append(row)
    if not rows:
        return RealMatrix(np.zeros((0, 0)))
    return RealMatrix(rows)


def read_matrix(path, format: str) -> BinaryMatrix | RealMatrix:
    """Parse a matrix file; dense01/coo yield binary, csv yields real."""
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}, expected one of "
                         f"{FORMATS}")
    data = _read_text(path)
    if format == "dense01":
        return _parse_dense01(data)
    if format == "coo":
        return _parse_coo(data)
    return _read_csv(data.decode("ascii").splitlines())


def _dense01_chunks(mat: BinaryMatrix):
    for _, block in mat.row_blocks():
        text = np.full((len(block), mat.n_cols + 1), 10, dtype=np.uint8)
        np.add(block, 48, out=text[:, :-1])
        yield text


def _decimal_lines(first: int, count: int, width: int, end: int):
    """ASCII lines of the integers first .. first+count-1, one per row.

    Each row holds the digits right-aligned in ``width`` bytes, with NUL
    bytes in place of the leading zeros, then the byte ``end``.
    """
    values = np.arange(first, first + count, dtype=np.int64)[:, None]
    powers = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
    text = np.full((count, width + 1), end, dtype=np.uint8)
    text[:, :width] = np.where(values >= powers, values // powers % 10 + 48,
                               0)
    return text


def _coo_chunks(mat: BinaryMatrix):
    yield f"{mat.n_rows} {mat.n_cols} {mat.count()}\n".encode("ascii")
    # digits per column once and per row once: each coordinate line is
    # two gathers, with the NUL padding cut out
    col_text = _decimal_lines(1, mat.n_cols, len(str(mat.n_cols)),
                              ord("\n"))
    row_width = len(str(mat.n_rows))
    for start, block in mat.row_blocks():
        row_text = _decimal_lines(start + 1, len(block), row_width, ord(" "))
        rows, cols = np.divmod(np.flatnonzero(block.view(bool)), mat.n_cols)
        text = np.hstack([np.take(row_text, rows, axis=0),
                          np.take(col_text, cols, axis=0)])
        yield text.tobytes().replace(b"\0", b"")


def _csv_chunks(mat: RealMatrix):
    for row in mat.values.tolist():
        yield (",".join(repr(v) for v in row) + "\n").encode("ascii")


def write_matrix(mat, path, format: str) -> None:
    """Write a matrix in the given format; inverse of :func:`read_matrix`."""
    if format in ("dense01", "coo"):
        if not isinstance(mat, BinaryMatrix):
            raise MatrixFormatError(
                f"format {format!r} stores binary matrices, got "
                f"{type(mat).__name__}")
        chunks = (_dense01_chunks(mat) if format == "dense01"
                  else _coo_chunks(mat))
    elif format == "csv":
        if not isinstance(mat, RealMatrix):
            raise MatrixFormatError(
                f"format 'csv' stores real matrices, got "
                f"{type(mat).__name__}")
        chunks = _csv_chunks(mat)
    else:
        raise ValueError(f"unknown format {format!r}, expected one of "
                         f"{FORMATS}")
    with open(path, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)


def binarize(real: RealMatrix, threshold: float = 0.0) -> BinaryMatrix:
    """1 where the value strictly exceeds the threshold, else 0."""
    return BinaryMatrix.from_dense(real.values > threshold)


def mask_denoise(real: RealMatrix, a_mat: BinaryMatrix,
                 b_mat: BinaryMatrix) -> RealMatrix:
    """Keep entries supported by the Boolean product of A and B, zero rest."""
    recon = bool_product(a_mat, b_mat)
    if recon.shape != real.shape:
        raise ValueError(
            f"support {recon.shape} does not match matrix {real.shape}")
    return RealMatrix(real.values * recon.to_dense())
