"""Text formats: color matrices (.ccm) and digraphs (.dg).

Both formats are line oriented; lines whose first non-blank character
is `#` are comments, blank lines are skipped.  Readers accept a path or
an open text stream and report errors with source name and line number.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO

import numpy as np

from .core import _color_ids, _decimal_text, _integer_matrix, require_points
from .digraph import Digraph
from .errors import SchemeError


class ParseError(SchemeError):
    """Malformed input file; carries the source name and line number."""

    def __init__(self, source: str, line: int, message: str):
        self.source = source
        self.line = line
        self.message = message
        super().__init__(f"{source}:{line}: {message}")


def _content_lines(source: str | Path | IO[str]) -> tuple[str, list[tuple[int, str]]]:
    """The source's name and its numbered lines that are neither blank
    nor comments, stripped.  A path is read as UTF-8; a byte its
    encoding cannot decode, in a file or a stream, raises ParseError
    naming the line it is on."""
    stream = hasattr(source, "read")
    name = getattr(source, "name", "<stream>") if stream else str(source)
    try:
        text = source.read() if stream else Path(source).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        # the byte's line is the last of the decodable text before it, plus
        # a stand-in for the byte, as ``splitlines`` numbers the lines below
        before = exc.object[:exc.start].decode(exc.encoding, "replace")
        raise ParseError(name, len((before + "x").splitlines()),
                         f"byte {exc.object[exc.start]:#04x} is not valid {exc.encoding}") from None
    lines = []
    for i, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lines.append((i, stripped))
    return name, lines


def _header(source: str | Path | IO[str], tag: str, fields: str
            ) -> tuple[str, int, int, int, list[tuple[int, str]]]:
    """The header of a .ccm or .dg source: its name, the header's line
    number, the header's two integers, then the content lines after it.
    The header is ``tag`` and two integer fields, which ``fields`` names
    in the message of a header of another shape."""
    name, lines = _content_lines(source)
    if not lines:
        raise ParseError(name, 1, "empty input")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 3 or parts[0] != tag:
        raise ParseError(name, lineno, f"expected header '{tag} {fields}', got {header!r}")
    try:
        a, b = int(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError(name, lineno, "non-integer header fields") from None
    return name, lineno, a, b, lines[1:]


def _write(text: str, dest: str | Path | IO[str]) -> None:
    """Write text to a stream, or to the file at a path as UTF-8."""
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        Path(dest).write_text(text, encoding="utf-8")


def _ints(name: str, lineno: int, line: str, expect: int) -> list[int]:
    parts = line.split()
    if len(parts) != expect:
        raise ParseError(name, lineno, f"expected {expect} fields, got {len(parts)}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ParseError(name, lineno, f"non-integer field in: {line!r}") from None


def _int64_rows(name: str, lines: list[tuple[int, str]], n: int) -> np.ndarray:
    """Parse matrix rows one line at a time, raising ParseError at the
    first line with the wrong field count or a non-integer field, and
    then at the first line with a field outside int64."""
    rows = [_ints(name, lineno, line, n) for lineno, line in lines]
    for (lineno, line), row in zip(lines, rows):
        if not all(-2 ** 63 <= x < 2 ** 63 for x in row):
            raise ParseError(name, lineno, f"field out of range in: {line!r}")
    return np.array(rows, dtype=np.int64)


# The class of each byte value in matrix rows: 1 for an ASCII digit, 2
# for a space or tab, 3 for the newline that joins the rows, 0 otherwise.
_BYTE_CLASS = np.zeros(256, dtype=np.uint8)
_BYTE_CLASS[48:58] = 1
_BYTE_CLASS[[9, 32]] = 2
_BYTE_CLASS[10] = 3
# Up to 18 digits a field is below 10**18 < 2**63, so it parses within int64.
_MAX_DIGITS = 18


def _digit_rows(lines: list[tuple[int, str]], n: int) -> np.ndarray | None:
    """The n x n int64 matrix of n stripped rows of ASCII digit fields,
    or None unless every byte is an ASCII digit, space or tab, every row
    has n fields and no field has more than 18 digits.

    The rows are read as one byte array, each with a newline before it
    and the last with one after.  As the rows are stripped, the flips
    between digit and non-digit bytes alternate: a field's start, then
    its end.  With n^2 fields, every row has n when field k * n starts
    just after a newline for each row k.  Values come by Horner's rule
    over at most 18 digit places, read right to left from each field's
    end, so they stay within int64.  Such a field is just what ``int``
    reads, so the values are those of the per-line parse.
    """
    text = "".join(f"\n{line}" for _, line in lines) + "\n"
    if not text.isascii():
        return None
    data = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    kind = np.take(_BYTE_CLASS, data)
    if not kind.all():
        return None
    digit = kind == 1
    flips = np.flatnonzero(digit[1:] != digit[:-1]) + 1
    starts, ends = flips[::2], flips[1::2]
    if starts.size != n * n or not (kind[starts[::n] - 1] == 3).all():
        return None
    lengths = ends - starts
    width = int(lengths.max())
    if width > _MAX_DIGITS:
        return None
    values = np.zeros(n * n, dtype=np.int64)
    digits = data - np.uint8(48)
    for k in range(width - 1, -1, -1):
        # place k of every field: the digit k bytes before its end, or 0
        # when the field is shorter (clip keeps those indices in range)
        place = np.take(digits, ends - 1 - k, mode="clip")
        place *= lengths > k
        values *= 10
        values += place
    return values.reshape(n, n)


def read_ccm(source: str | Path | IO[str]) -> np.ndarray:
    """Parse a .ccm file into a color matrix.

    The matrix is checked for shape and contiguous color ids (a gap
    raises NonContiguousColors with the repair map) but not for the
    configuration axioms; run validate for those.

    Rows of plain ASCII digit fields, n per row and none longer than 18
    digits, are parsed at the byte level in one pass (``_digit_rows``).
    Any other rows, with signs, underscores, other Unicode digits or
    blanks, longer fields or a wrong field count, are parsed one line at
    a time as ``int`` reads them, which raises ParseError naming the
    first bad line.
    """
    name, lineno, n, r, rows = _header(source, "ccm", "<n> <r>")
    if n < 1 or r < 1:
        raise ParseError(name, lineno, f"n and r must be positive, got n={n} r={r}")
    require_points(n, f"{name}:{lineno}: header")
    if len(rows) != n:
        raise ParseError(name, lineno, f"expected {n} matrix rows, found {len(rows)}")
    values = _digit_rows(rows, n)
    if values is None:
        values = _int64_rows(name, rows, n)
    matrix = _color_ids(values)
    actual_r = int(matrix.max()) + 1
    if actual_r != r:
        raise ParseError(name, lineno,
                         f"header says r={r} but the matrix has {actual_r} colors")
    return matrix


def ccm_text(matrix: np.ndarray) -> str:
    """The .ccm text of a color matrix: the header, then each row's
    decimal entries joined by single spaces, every row ending in a
    newline, from ``core._decimal_text`` with no ``str`` per entry.  The
    matrix is checked by ``core._color_ids``, as ``read_ccm`` and
    ``validate`` check theirs, so what they reject raises the same
    SchemeError here and is never written; an int64 matrix is not
    copied."""
    arr = _color_ids(_integer_matrix(matrix))
    n = arr.shape[0]
    r = int(arr.max()) + 1
    return f"ccm {n} {r}\n" + _decimal_text(arr, " ", "\n").decode("ascii")


def write_ccm(matrix: np.ndarray, dest: str | Path | IO[str]) -> None:
    _write(ccm_text(matrix), dest)


def read_dg(source: str | Path | IO[str]) -> Digraph:
    """Parse a .dg file; duplicate arcs are rejected, loops are fine."""
    name, lineno, n, m, lines = _header(source, "dg", "<n> <m>")
    if n < 0 or m < 0:
        raise ParseError(name, lineno, "n and m must be non-negative")
    if len(lines) != m:
        raise ParseError(name, lineno, f"expected {m} arcs, found {len(lines)}")
    arcs: set[tuple[int, int]] = set()
    for lineno, line in lines:
        u, v = _ints(name, lineno, line, 2)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(name, lineno, f"arc ({u},{v}) out of range for n={n}")
        if (u, v) in arcs:
            raise ParseError(name, lineno, f"duplicate arc ({u},{v})")
        arcs.add((u, v))
    return Digraph(n, frozenset(arcs))


def dg_text(g: Digraph) -> str:
    lines = [f"dg {g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_arcs())
    return "\n".join(lines) + "\n"


def write_dg(g: Digraph, dest: str | Path | IO[str]) -> None:
    _write(dg_text(g), dest)
