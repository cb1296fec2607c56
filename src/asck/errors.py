"""Exception types shared across the toolkit.

Every error raised on bad mathematical input derives from SchemeError and
carries enough of a witness (cell coordinates, color ids, counts) to debug
the offending matrix without re-running the computation.
"""

from __future__ import annotations


class SchemeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidColor(SchemeError):
    """A color id outside 0..r-1 was passed to an operation."""

    def __init__(self, color: int, r: int):
        self.color = color
        self.r = r
        super().__init__(f"color {color} out of range 0..{r - 1}")


class NonContiguousColors(SchemeError):
    """Color ids are not exactly 0..r-1.

    Recoverable: ``remap`` maps each id found to the contiguous id it
    would get under ascending relabeling.
    """

    def __init__(self, remap: dict[int, int]):
        self.remap = dict(remap)
        super().__init__(
            f"color ids are not contiguous from 0; remap to apply: {self.remap}"
        )


class NotAPartitionOfDiagonal(SchemeError):
    """Some color has cells both on and off the diagonal."""

    def __init__(self, color: int, diagonal_cell: tuple[int, int],
                 off_diagonal_cell: tuple[int, int]):
        self.color = color
        self.diagonal_cell = diagonal_cell
        self.off_diagonal_cell = off_diagonal_cell
        super().__init__(
            f"color {color} mixes diagonal cell {diagonal_cell} "
            f"and off-diagonal cell {off_diagonal_cell}"
        )


class NotTransposeClosed(SchemeError):
    """No involution on colors maps each relation onto its transpose."""

    def __init__(self, cell: tuple[int, int], color: int,
                 expected: int, found: int):
        self.cell = cell
        self.color = color
        self.expected = expected
        self.found = found
        u, v = cell
        super().__init__(
            f"cell ({u},{v}) has color {color} whose transpose partner should "
            f"be {expected}, but ({v},{u}) has color {found}"
        )


class InconsistentIntersectionNumbers(SchemeError):
    """Two cells of the same color disagree on an intermediate-point count."""

    def __init__(self, color: int, rs: tuple[int, int],
                 cell_a: tuple[int, int], count_a: int,
                 cell_b: tuple[int, int], count_b: int):
        self.color = color
        self.rs = rs
        self.cell_a = cell_a
        self.count_a = count_a
        self.cell_b = cell_b
        self.count_b = count_b
        super().__init__(
            f"color {color}: cells {cell_a} and {cell_b} see "
            f"{count_a} vs {count_b} intermediate points through colors {rs}"
        )


class NotHomogeneous(SchemeError):
    """Operation requires a homogeneous (single-fiber) scheme."""

    def __init__(self, n_fibers: int):
        self.n_fibers = n_fibers
        super().__init__(f"scheme has {n_fibers} fibers; expected exactly 1")


class TooFewPoints(SchemeError):
    """Operation is undefined on schemes with fewer than two points."""


class RankTooLarge(SchemeError):
    """Lattice enumeration refused: rank exceeds the supported cap."""

    def __init__(self, r: int, cap: int):
        self.r = r
        self.cap = cap
        super().__init__(f"rank {r} exceeds enumeration cap {cap}")


class NotASchemeEquivalence(SchemeError):
    """Point partition is not a union of the scheme's basis relations."""


class NotABlock(SchemeError):
    """Point set is not a class of any scheme equivalence, nor a fiber."""


class InvalidGroupTable(SchemeError):
    """Multiplication table is not a group."""


class NotStronglyConnected(SchemeError):
    """Digraph operation requires strong connectivity."""


class NoArcs(SchemeError):
    """Period is undefined for an arcless digraph."""


class InvalidP(SchemeError):
    """Cyclic partiteness requires an integer p >= 2."""

    def __init__(self, p: int):
        self.p = p
        super().__init__(f"p must be an integer of at least 2, got {p!r}")


class NotSymmetric(SchemeError):
    """Graph operation requires a symmetric arc set."""

    def __init__(self, arc: tuple[int, int]):
        self.arc = arc
        super().__init__(f"arc {arc} present without its reverse")


class HasLoops(SchemeError):
    """Graph operation requires a loopless digraph."""

    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"loop at vertex {vertex}")


class DiagonalColor(SchemeError):
    """Basis graphs of diagonal colors are empty; handle them explicitly."""

    def __init__(self, color: int):
        self.color = color
        super().__init__(f"color {color} is diagonal; its basis graph is empty")


class NotPrime(SchemeError):
    """p-scheme checks require a prime p."""

    def __init__(self, p: int):
        self.p = p
        super().__init__(f"{p!r} is not prime")
