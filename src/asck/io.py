"""Text formats: color matrices (.ccm) and digraphs (.dg).

Both formats are line oriented; lines whose first non-blank character
is `#` are comments, blank lines are skipped.  Readers accept a path or
an open text stream and report errors with source name and line number.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO

import numpy as np

from .core import _decimal_words, _integer_matrix, as_color_matrix, require_points
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
    if hasattr(source, "read"):
        name = getattr(source, "name", "<stream>")
        text = source.read()
    else:
        name = str(source)
        text = Path(source).read_text()
    lines = []
    for i, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lines.append((i, stripped))
    return name, lines


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


def read_ccm(source: str | Path | IO[str]) -> np.ndarray:
    """Parse a .ccm file into a color matrix.

    The matrix is checked for shape and contiguous color ids (a gap
    raises NonContiguousColors with the repair map) but not for the
    configuration axioms; run validate for those.

    Once every row has n fields, one ``np.array`` call parses all the
    tokens; it accepts exactly what ``int`` accepts, and raises
    ValueError or OverflowError otherwise.  On any failure the rows are
    parsed again one line at a time, which raises ParseError naming the
    first bad line.
    """
    name, lines = _content_lines(source)
    if not lines:
        raise ParseError(name, 1, "empty input")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 3 or parts[0] != "ccm":
        raise ParseError(name, lineno, f"expected header 'ccm <n> <r>', got {header!r}")
    try:
        n, r = int(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError(name, lineno, "non-integer header fields") from None
    if n < 1 or r < 1:
        raise ParseError(name, lineno, f"n and r must be positive, got n={n} r={r}")
    require_points(n, f"{name}:{lineno}: header")
    if len(lines) - 1 != n:
        raise ParseError(name, lineno,
                         f"expected {n} matrix rows, found {len(lines) - 1}")
    tokens = [line.split() for _, line in lines[1:]]
    values = None
    if all(len(row) == n for row in tokens):
        try:
            values = np.array(tokens, dtype=np.int64)
        except (ValueError, OverflowError):
            pass
    if values is None:
        values = _int64_rows(name, lines[1:], n)
    matrix = as_color_matrix(values)
    actual_r = int(matrix.max()) + 1
    if actual_r != r:
        raise ParseError(name, lines[0][0],
                         f"header says r={r} but the matrix has {actual_r} colors")
    return matrix


def ccm_text(matrix: np.ndarray) -> str:
    """The .ccm text of a matrix.  It is coerced as ``validate`` coerces
    its input, so a matrix that is empty, not square or not integral
    raises the same SchemeError and is never written truncated or with
    a header ``read_ccm`` rejects."""
    arr = _integer_matrix(matrix)
    n = arr.shape[0]
    r = int(arr.max()) + 1
    body = "\n".join(" ".join(row) for row in _decimal_words(arr).tolist())
    return f"ccm {n} {r}\n{body}\n"


def write_ccm(matrix: np.ndarray, dest: str | Path | IO[str]) -> None:
    text = ccm_text(matrix)
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        Path(dest).write_text(text)


def read_dg(source: str | Path | IO[str]) -> Digraph:
    """Parse a .dg file; duplicate arcs are rejected, loops are fine."""
    name, lines = _content_lines(source)
    if not lines:
        raise ParseError(name, 1, "empty input")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 3 or parts[0] != "dg":
        raise ParseError(name, lineno, f"expected header 'dg <n> <m>', got {header!r}")
    try:
        n, m = int(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError(name, lineno, "non-integer header fields") from None
    if n < 0 or m < 0:
        raise ParseError(name, lineno, "n and m must be non-negative")
    if len(lines) - 1 != m:
        raise ParseError(name, lineno, f"expected {m} arcs, found {len(lines) - 1}")
    arcs: set[tuple[int, int]] = set()
    for lineno, line in lines[1:]:
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
    text = dg_text(g)
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        Path(dest).write_text(text)
