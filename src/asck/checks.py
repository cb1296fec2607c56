"""Executable checks tying relation sizes to basis-digraph structure.

Each check computes a left-hand and a right-hand predicate by
independent code paths and packages both verdicts in a TheoremReport.
The size-based side never touches the digraph machinery and vice versa;
the two paths share only the Scheme type.  For biconditional statements
agreement means lhs == rhs; for implication-shaped ones it means
(not lhs) or rhs, with a vacuous pass when the hypothesis fails.

Each check validates its prime once, in ``_begin``, which also fills
the fields every report shares.  Below it nothing validates p again:
every size verdict a check reads, of the scheme or of a fiber, block,
class or quotient of it, comes from the private memo reader
``_p_verdict``.  ``is_p_scheme`` is the validating door for callers
outside the checks.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .constructions import _class_pair_runs, _class_restriction, quotient
from .core import Scheme, _index
from .digraph import basis_periods
from .errors import NotPrime, SchemeError
from .lattice import (
    Equivalence,
    all_equivalences,
    is_primitive,
    is_regular,
    maximal_below_full,
)


# Miller-Rabin on the prime bases 2..37 decides every p below this bound
# exactly (Sorenson & Webster, Math. Comp. 86, 2017): the least strong
# pseudoprime to all twelve bases is 318665857834031151167461.
_MILLER_RABIN_EXACT = 318665857834031151167461
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Sizes and powers of p are int64, so the checks take p below 2**63.
_P_BOUND = 2 ** 63


def is_prime(p: int) -> bool:
    """Whether p is a prime int or numpy integer; 2.0, "3" and None are
    not.  Raises SchemeError from 318665857834031151167461 on, where
    Miller-Rabin on the bases 2..37 is no longer known to be exact."""
    q = _index(p)
    return q is not None and _is_prime(q)


@functools.cache
def _is_prime(p: int) -> bool:
    if p >= _MILLER_RABIN_EXACT:
        raise SchemeError(f"primality of {p} is decided only below {_MILLER_RABIN_EXACT}")
    if p < 2 or any(p % a == 0 for a in _BASES):
        return p in _BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2**s with d odd
    for a in _BASES:  # a strong probable prime to base a, or composite
        x = pow(a, (p - 1) >> s, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


def require_prime(p: int) -> int:
    """p as a Python int, or NotPrime when ``is_prime`` says no; p of
    2**63 or more raises SchemeError, as sizes and powers are int64."""
    q = _index(p)
    if q is not None and q >= _P_BOUND:
        raise SchemeError(f"p = {q} is not below 2**63 = {_P_BOUND}: sizes and powers are int64")
    if q is None or not _is_prime(q):
        raise NotPrime(p if q is None else q)
    return q


def _first(failing: np.ndarray) -> int | None:
    """The least color set in an r-entry mask, or None."""
    color = int(failing.argmax())
    return color if failing[color] else None


@dataclass(frozen=True)
class PSchemeVerdict:
    """Outcome of the power-of-p size test, with the first offender if any."""

    value: bool
    offender_color: int | None = None
    offender_size: int | None = None

    def __bool__(self) -> bool:
        return self.value


_INT64_MAX = int(np.iinfo(np.int64).max)


@functools.cache
def _largest_int64_power(p: int) -> int:
    power = p
    while power <= _INT64_MAX // p:
        power *= p
    return power


def is_p_scheme(scheme: Scheme, p: int) -> PSchemeVerdict:
    """True iff every color's cell count is a power of p (diagonal
    included): p is validated by ``require_prime`` and the verdict read
    by ``_p_verdict``.  The door for callers outside the checks."""
    return _p_verdict(scheme, require_prime(p))


def _p_verdict(scheme: Scheme, p: int) -> PSchemeVerdict:
    """``is_p_scheme`` for a p that ``require_prime`` has returned; every
    size verdict inside a check is read here, with no second validation.

    As p is prime, the divisors of its largest int64 power are exactly
    the powers of p that fit in int64, so the offenders are the sizes
    that leave a remainder in that power, tested as one vector; the first
    is taken by ``argmax``.  The verdict is kept in the ``derived`` memo
    per prime."""
    def build() -> PSchemeVerdict:
        color = _first(np.remainder(_largest_int64_power(p), scheme.sizes) != 0)
        if color is None:
            return PSchemeVerdict(True)
        return PSchemeVerdict(False, color, int(scheme.sizes[color]))

    return scheme.derived(("p-scheme", p), build)


@dataclass(frozen=True)
class TheoremReport:
    """Two independently computed verdicts for one statement.

    ``mode`` is "iff" for biconditionals and "implies" for one-way
    statements; ``agree`` is the corresponding truth-functional check.
    ``elapsed`` appears only in the human-readable form so that machine
    output stays byte-reproducible.
    """

    check: str
    scheme_hash: str
    n: int
    r: int
    p: int
    mode: str
    lhs: bool
    rhs: bool
    witnesses: dict[str, str] = field(default_factory=dict)
    elapsed: float = 0.0
    lhs_name: str = "lhs"
    rhs_name: str = "rhs"

    @property
    def agree(self) -> bool:
        if self.mode == "iff":
            return self.lhs == self.rhs
        return (not self.lhs) or self.rhs

    def text(self) -> str:
        lines = [
            f"check: {self.check}",
            f"scheme: {self.scheme_hash[:12]} (n={self.n}, r={self.r})",
            f"p: {self.p}",
            f"{self.lhs_name}: {_fmt(self.lhs)}",
            f"{self.rhs_name}: {_fmt(self.rhs)}",
        ]
        if self.mode == "implies" and not self.lhs:
            lines.append("agree: true (vacuous: hypothesis fails)")
        else:
            lines.append(f"agree: {_fmt(self.agree)}")
        for key in sorted(self.witnesses):
            lines.append(f"witness {key}: {self.witnesses[key]}")
        lines.append(f"elapsed: {self.elapsed:.3f}s")
        return "\n".join(lines)

    def machine(self) -> str:
        pairs = {
            "check": self.check,
            "scheme": self.scheme_hash,
            "n": str(self.n),
            "r": str(self.r),
            "p": str(self.p),
            "mode": self.mode,
            "lhs": _fmt(self.lhs),
            "rhs": _fmt(self.rhs),
            "agree": _fmt(self.agree),
        }
        for key, value in self.witnesses.items():
            pairs[f"witness.{key}"] = value
        return "\n".join(f"{k}={pairs[k]}" for k in sorted(pairs))


def _fmt(value: bool) -> str:
    return "true" if value else "false"


def _begin(check: str, scheme: Scheme, p: int) -> tuple[
        int, dict[str, str], Callable[..., TheoremReport]]:
    """Validate a check's prime by ``require_prime``, the one place a check
    does, and start timing the check.  Returns p as an int, the witness
    dict, and a function that adds the name, scheme, p, witnesses and
    elapsed time to the other report fields."""
    p = require_prime(p)
    start = time.perf_counter()
    witnesses: dict[str, str] = {}

    def report(**fields) -> TheoremReport:
        return TheoremReport(
            check=check, scheme_hash=scheme.hash, n=scheme.n, r=scheme.r, p=p,
            witnesses=witnesses, elapsed=time.perf_counter() - start, **fields)

    return p, witnesses, report


def _size_verdict(scheme: Scheme, p: int,
                  witnesses: dict[str, str]) -> PSchemeVerdict:
    """``_p_verdict``, recording its first offender as "size-offender"."""
    verdict = _p_verdict(scheme, p)
    if not verdict:
        witnesses["size-offender"] = (
            f"color {verdict.offender_color} has size {verdict.offender_size}")
    return verdict


def _non_diagonal(scheme: Scheme) -> np.ndarray:
    """The r-entry mask of the colors off the diagonal: a diagonal color
    lies wholly on the diagonal, so a color is off it exactly when its
    first cell is."""
    u, v = scheme.first_cells.T
    return u != v


def check_partite_criterion(scheme: Scheme, p: int) -> TheoremReport:
    """p-scheme iff every non-reflexive basis digraph is cyclically p-partite.

    The left side only inspects relation sizes; the right side reads
    ``basis_periods``, exactly: each weak component of a homogeneous basis
    digraph holds a cycle, whose labels cover all p residues once p | d,
    so the digraph is cyclically p-partite exactly when p divides d.
    """
    scheme.require_homogeneous()
    p, witnesses, report = _begin("partite-criterion", scheme, p)

    verdict = _size_verdict(scheme, p, witnesses)

    color = _first(_non_diagonal(scheme) & (basis_periods(scheme) % p != 0))
    rhs = color is None
    if not rhs:
        witnesses["unpartitioned-color"] = (
            f"color {color} admits no cyclic {p}-partition")

    return report(
        mode="iff", lhs=bool(verdict), rhs=rhs,
        lhs_name="p-scheme", rhs_name="all basis digraphs cyclically p-partite")


def check_bipartite_criterion(scheme: Scheme) -> TheoremReport:
    """2-scheme iff every basis graph (color joined with its transpose,
    diagonal dropped) is bipartite.  Works on any scheme.

    The right side reads ``basis_periods``, exactly: for a non-diagonal
    color a semicycle has odd net length exactly when its underlying
    closed walk has odd length, so the basis graph is bipartite exactly
    when d is even.  A cross-fiber color never fails: its arcs run from
    one fiber X to another fiber Y, so each semicycle alternates X and Y
    and has even length, hence even net length, and d is even.
    """
    _, witnesses, report = _begin("bipartite-criterion", scheme, 2)

    verdict = _size_verdict(scheme, 2, witnesses)

    color = _first(_non_diagonal(scheme) & (basis_periods(scheme) % 2 != 0))
    rhs = color is None
    if not rhs:
        witnesses["odd-color"] = f"color {color} has a non-bipartite basis graph"

    return report(
        mode="iff", lhs=bool(verdict), rhs=rhs,
        lhs_name="2-scheme", rhs_name="all basis graphs bipartite")


def check_fiber_reduction(scheme: Scheme, p: int) -> TheoremReport:
    """p-scheme iff the restriction to every fiber is a p-scheme.

    Each fiber is restricted by ``_class_restriction`` with no
    ``is_block`` test: a fiber is a block by definition, and the memo
    entry ``("restriction", fiber)`` is the one ``restriction`` reads.
    """
    p, witnesses, report = _begin("fiber-reduction", scheme, p)

    verdict = _size_verdict(scheme, p, witnesses)

    rhs = True
    for i, fiber in enumerate(scheme.fibers):
        sub = _p_verdict(_class_restriction(scheme, fiber), p)
        if not sub:
            rhs = False
            witnesses["fiber-offender"] = (
                f"fiber {i} restriction has color {sub.offender_color} "
                f"of size {sub.offender_size}")
            break

    return report(
        mode="iff", lhs=bool(verdict), rhs=rhs,
        lhs_name="p-scheme", rhs_name="all fiber restrictions p-schemes")


def verify_size_factorization(scheme: Scheme, e: Equivalence) -> None:
    """Check |R| = (nonempty class pairs of R) x (constant block count)
    for every color; raises with a witness on any violation, and
    NotASchemeEquivalence when the classes do not partition the points.

    A pass is kept in the ``derived`` memo per ``e.classes``, so each
    scheme and partition is verified once, whatever the prime."""
    scheme.derived(("size-factorization", e.classes),
                   lambda: _size_factorization(scheme, e.classes))


def _size_factorization(scheme: Scheme, classes: tuple[tuple[int, ...], ...]) -> None:
    """One pass over all colors at once.

    ``_class_pair_runs`` counts every color's cells in every class pair
    (and rejects classes that do not partition the points).  Per color,
    the number of class pairs met and the least and greatest count are
    gathered from those runs; the least failing color is the witness
    (``argmax``), and its message is chosen in the order of the
    per-color loop this replaces: vanished, unequal counts, wrong size.
    """
    r = scheme.r
    _, colors, counts = _class_pair_runs(scheme, classes)
    blocks = np.bincount(colors, minlength=r)
    low = np.full(r, np.iinfo(np.int64).max)
    np.minimum.at(low, colors, counts)
    high = np.zeros(r, dtype=np.int64)
    np.maximum.at(high, colors, counts)
    vanished = blocks == 0
    color = _first(vanished | (low != high) | (blocks * high != scheme.sizes))
    if color is None:
        return
    if vanished[color]:
        raise SchemeError(f"color {color} vanished")
    lo, hi, m = int(low[color]), int(high[color]), int(blocks[color])
    if lo != hi:
        raise SchemeError(f"color {color} has unequal block counts {lo} vs {hi}")
    raise SchemeError(
        f"color {color}: {m} blocks x {hi} != size {int(scheme.sizes[color])}")


def check_quotient_factorization(scheme: Scheme, e: Equivalence,
                                 p: int) -> TheoremReport:
    """p-scheme iff the quotient by e and the restriction to a class of e
    are both p-schemes.  Only the class of point 0 is restricted to:
    every class of e gives the same verdict (``_class_restriction`` says
    why).  The size factorization across class pairs is verified too."""
    scheme.require_homogeneous()
    p, witnesses, report = _begin("quotient-factorization", scheme, p)

    verdict = _size_verdict(scheme, p, witnesses)

    # ``quotient`` has checked that e.classes are the classes of the
    # equivalence of e.colors, so e.classes[0] is a block
    quotient_verdict = _p_verdict(quotient(scheme, e), p)
    class_verdict = _p_verdict(_class_restriction(scheme, e.classes[0]), p)
    rhs = bool(quotient_verdict) and bool(class_verdict)
    if not quotient_verdict:
        witnesses["quotient-offender"] = (
            f"quotient color {quotient_verdict.offender_color} has size "
            f"{quotient_verdict.offender_size}")
    if not class_verdict:
        witnesses["class-offender"] = "class restrictions are not p-schemes"

    verify_size_factorization(scheme, e)
    witnesses["size-factorization"] = "verified"

    return report(
        mode="iff", lhs=bool(verdict), rhs=rhs,
        lhs_name="p-scheme", rhs_name="quotient and class restrictions p-schemes")


def check_primitive_structure(scheme: Scheme, p: int) -> TheoremReport:
    """A primitive p-scheme is regular on exactly p points and every
    non-reflexive basis digraph is a directed p-cycle.

    The cycle test reads ``degrees`` and ``basis_periods``, exactly: a
    non-diagonal color of a homogeneous scheme spans all n points, it is
    a permutation exactly when its degree is 1, and a permutation of p
    points is a single p-cycle exactly when d = p.
    """
    scheme.require_homogeneous()
    p, witnesses, report = _begin("primitive-structure", scheme, p)

    lhs = is_primitive(scheme) and bool(_p_verdict(scheme, p))

    regular = is_regular(scheme)
    point_count_ok = scheme.n == p
    cycle = point_count_ok & (scheme.degrees == 1) & (basis_periods(scheme) == p)
    color = _first(_non_diagonal(scheme) & ~cycle)
    cycles_ok = color is None
    if not cycles_ok:
        witnesses["non-cycle-color"] = f"color {color} is not a directed {p}-cycle"
    rhs = regular and point_count_ok and cycles_ok
    if not regular:
        witnesses["not-regular"] = "some color has degree > 1"
    if not point_count_ok:
        witnesses["point-count"] = f"n={scheme.n} differs from p={p}"

    return report(
        mode="implies", lhs=lhs, rhs=rhs,
        lhs_name="primitive p-scheme",
        rhs_name="regular, n=p, basis digraphs are directed p-cycles")


def _block_restrictions(scheme: Scheme) -> tuple[
        int, tuple[tuple[int, ...], ...], tuple[Scheme, ...]]:
    """The prime-independent half of the block criterion, built once per
    scheme and kept in the ``derived`` memo: the number of equivalences
    maximal below the full one, the class of point 0 of each other lattice
    equivalence (a proper block) by size and then by points, and their
    restrictions by ``_class_restriction`` in the same order."""
    def build():
        blocks = sorted((e.classes[0] for e in all_equivalences(scheme) if not e.is_full),
                        key=lambda c: (len(c), c))
        return (len(maximal_below_full(scheme)), tuple(blocks),
                tuple(_class_restriction(scheme, b) for b in blocks))

    return scheme.derived("block-restrictions", build)


def check_block_criterion(scheme: Scheme, p: int) -> TheoremReport:
    """If at least two equivalences are maximal below the full one and
    the restriction to every proper block is a p-scheme, then the whole
    scheme is a p-scheme.

    The lattice, the maximal count and the block restrictions do not
    depend on p and are read from ``_block_restrictions``; per prime only
    the memoized ``_p_verdict`` verdicts of the restrictions are read.

    No block is re-tested with ``is_block``, and each equivalence is
    tested at the class of point 0 alone; ``_class_restriction`` argues
    both.  The first failing block is the one a test of every class
    would report: the classes of one equivalence have one size, the class
    of point 0 sorts first among them, and no block is met twice, as its
    inner colors fix its equivalence."""
    scheme.require_homogeneous()
    p, witnesses, report = _begin("block-criterion", scheme, p)

    top, blocks, subs = _block_restrictions(scheme)
    cond_spread = top >= 2
    witnesses["maximal-below-full"] = str(top)

    cond_blocks = True
    for block, restricted in zip(blocks, subs):
        sub = _p_verdict(restricted, p)
        if not sub:
            cond_blocks = False
            witnesses["block-offender"] = (
                f"block {list(block)} restriction has color "
                f"{sub.offender_color} of size {sub.offender_size}")
            break

    witnesses["blocks-p-schemes"] = _fmt(cond_blocks)
    lhs = cond_spread and cond_blocks
    verdict = _size_verdict(scheme, p, witnesses)

    return report(
        mode="implies", lhs=lhs, rhs=bool(verdict),
        lhs_name="two maximal equivalences and p-scheme blocks",
        rhs_name="p-scheme")
