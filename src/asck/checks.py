"""Executable checks tying relation sizes to basis-digraph structure.

Each check computes a left-hand and a right-hand predicate by
independent code paths and packages both verdicts in a TheoremReport.
The size-based side never touches the digraph machinery and vice versa;
the two paths share only the Scheme type.  For biconditional statements
agreement means lhs == rhs; for implication-shaped ones it means
(not lhs) or rhs, with a vacuous pass when the hypothesis fails.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .constructions import quotient, restriction
from .core import Scheme
from .digraph import (
    basis_digraph,
    basis_graph,
    cyclically_p_partite,
    is_bipartite,
    is_strongly_connected,
)
from .errors import NotPrime, SchemeError
from .lattice import (
    Equivalence,
    all_equivalences,
    is_primitive,
    is_regular,
    maximal_below_full,
)


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def require_prime(p: int) -> int:
    if not is_prime(p):
        raise NotPrime(p)
    return p


def is_power_of(x: int, p: int) -> bool:
    """Whether x = p^k for some k >= 0, by repeated division."""
    if x < 1:
        return False
    while x % p == 0:
        x //= p
    return x == 1


@dataclass(frozen=True)
class PSchemeVerdict:
    """Outcome of the power-of-p size test, with the first offender if any."""

    value: bool
    offender_color: int | None = None
    offender_size: int | None = None

    def __bool__(self) -> bool:
        return self.value


def is_p_scheme(scheme: Scheme, p: int) -> PSchemeVerdict:
    """True iff every color's cell count is a power of p (diagonal included)."""
    require_prime(p)
    for color in range(scheme.r):
        size = scheme.relation_size(color)
        if not is_power_of(size, p):
            return PSchemeVerdict(False, color, size)
    return PSchemeVerdict(True)


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
    p: int | None
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
        ]
        if self.p is not None:
            lines.append(f"p: {self.p}")
        lines.append(f"{self.lhs_name}: {_fmt(self.lhs)}")
        lines.append(f"{self.rhs_name}: {_fmt(self.rhs)}")
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
            "mode": self.mode,
            "lhs": _fmt(self.lhs),
            "rhs": _fmt(self.rhs),
            "agree": _fmt(self.agree),
        }
        if self.p is not None:
            pairs["p"] = str(self.p)
        for key, value in self.witnesses.items():
            pairs[f"witness.{key}"] = value
        return "\n".join(f"{k}={pairs[k]}" for k in sorted(pairs))


def _fmt(value: bool) -> str:
    return "true" if value else "false"


def _size_verdict(scheme: Scheme, p: int,
                  witnesses: dict[str, str]) -> PSchemeVerdict:
    """``is_p_scheme``, recording its first offender as "size-offender"."""
    verdict = is_p_scheme(scheme, p)
    if not verdict:
        witnesses["size-offender"] = (
            f"color {verdict.offender_color} has size {verdict.offender_size}")
    return verdict


def _non_diagonal_colors(scheme: Scheme) -> list[int]:
    return [c for c in range(scheme.r) if not scheme.is_diagonal_color(c)]


def check_partite_criterion(scheme: Scheme, p: int) -> TheoremReport:
    """p-scheme iff every non-reflexive basis digraph is cyclically p-partite.

    The left side only inspects relation sizes; the right side only runs
    the digraph partition search.
    """
    scheme.require_homogeneous()
    require_prime(p)
    start = time.perf_counter()
    witnesses: dict[str, str] = {}

    verdict = _size_verdict(scheme, p, witnesses)

    rhs = True
    for color in _non_diagonal_colors(scheme):
        partition = cyclically_p_partite(basis_digraph(scheme, color), p)
        if partition is None:
            rhs = False
            witnesses["unpartitioned-color"] = (
                f"color {color} admits no cyclic {p}-partition")
            break

    return TheoremReport(
        check="partite-criterion", scheme_hash=scheme.hash, n=scheme.n,
        r=scheme.r, p=p, mode="iff", lhs=bool(verdict), rhs=rhs,
        witnesses=witnesses, elapsed=time.perf_counter() - start,
        lhs_name="p-scheme", rhs_name="all basis digraphs cyclically p-partite")


def check_bipartite_criterion(scheme: Scheme) -> TheoremReport:
    """2-scheme iff every basis graph (color joined with its transpose,
    diagonal dropped) is bipartite.  Works on any scheme; a cross-fiber
    color whose graph failed to 2-color would be an internal bug."""
    start = time.perf_counter()
    witnesses: dict[str, str] = {}

    verdict = _size_verdict(scheme, 2, witnesses)

    rhs = True
    for color in _non_diagonal_colors(scheme):
        coloring = is_bipartite(basis_graph(scheme, color))
        if coloring is None:
            u, v = scheme.cells(color)[0]
            if scheme.fiber_of(u) != scheme.fiber_of(v):
                raise SchemeError(
                    f"cross-fiber color {color} produced a non-bipartite graph")
            rhs = False
            witnesses["odd-color"] = f"color {color} has a non-bipartite basis graph"
            break

    return TheoremReport(
        check="bipartite-criterion", scheme_hash=scheme.hash, n=scheme.n,
        r=scheme.r, p=2, mode="iff", lhs=bool(verdict), rhs=rhs,
        witnesses=witnesses, elapsed=time.perf_counter() - start,
        lhs_name="2-scheme", rhs_name="all basis graphs bipartite")


def check_fiber_reduction(scheme: Scheme, p: int) -> TheoremReport:
    """p-scheme iff the restriction to every fiber is a p-scheme."""
    require_prime(p)
    start = time.perf_counter()
    witnesses: dict[str, str] = {}

    verdict = _size_verdict(scheme, p, witnesses)

    rhs = True
    for i, fiber in enumerate(scheme.fibers):
        sub = is_p_scheme(restriction(scheme, fiber), p)
        if not sub:
            rhs = False
            witnesses["fiber-offender"] = (
                f"fiber {i} restriction has color {sub.offender_color} "
                f"of size {sub.offender_size}")
            break

    return TheoremReport(
        check="fiber-reduction", scheme_hash=scheme.hash, n=scheme.n,
        r=scheme.r, p=p, mode="iff", lhs=bool(verdict), rhs=rhs,
        witnesses=witnesses, elapsed=time.perf_counter() - start,
        lhs_name="p-scheme", rhs_name="all fiber restrictions p-schemes")


def verify_size_factorization(scheme: Scheme, e: Equivalence) -> None:
    """Check |R| = (nonempty class pairs of R) x (constant block count)
    for every color; raises with a witness on any violation."""
    classes = e.classes
    k = len(classes)
    cls = np.zeros(scheme.n, dtype=np.int64)
    for i, c in enumerate(classes):
        cls[list(c)] = i
    pair_index = np.add.outer(cls * k, cls)
    for color in range(scheme.r):
        counts = np.bincount(pair_index[scheme.matrix == color],
                             minlength=k * k)
        nonzero = counts[counts > 0]
        if nonzero.size == 0:
            raise SchemeError(f"color {color} vanished")
        if nonzero.min() != nonzero.max():
            raise SchemeError(
                f"color {color} has unequal block counts "
                f"{int(nonzero.min())} vs {int(nonzero.max())}")
        if int(nonzero.size) * int(nonzero[0]) != scheme.relation_size(color):
            raise SchemeError(
                f"color {color}: {int(nonzero.size)} blocks x {int(nonzero[0])} "
                f"!= size {scheme.relation_size(color)}")


def check_quotient_factorization(scheme: Scheme, e: Equivalence,
                                 p: int) -> TheoremReport:
    """p-scheme iff the quotient by e and the restriction to a class of e
    are both p-schemes.  All classes are tested and must agree with each
    other; the size factorization across class pairs is verified too."""
    scheme.require_homogeneous()
    require_prime(p)
    start = time.perf_counter()
    witnesses: dict[str, str] = {}

    verdict = _size_verdict(scheme, p, witnesses)

    quotient_verdict = is_p_scheme(quotient(scheme, e), p)
    class_verdicts = [
        bool(is_p_scheme(restriction(scheme, cls), p)) for cls in e.classes]
    if len(set(class_verdicts)) > 1:
        raise SchemeError("class restrictions disagree with each other")
    rhs = bool(quotient_verdict) and class_verdicts[0]
    if not quotient_verdict:
        witnesses["quotient-offender"] = (
            f"quotient color {quotient_verdict.offender_color} has size "
            f"{quotient_verdict.offender_size}")
    if not class_verdicts[0]:
        witnesses["class-offender"] = "class restrictions are not p-schemes"

    verify_size_factorization(scheme, e)
    witnesses["size-factorization"] = "verified"

    return TheoremReport(
        check="quotient-factorization", scheme_hash=scheme.hash, n=scheme.n,
        r=scheme.r, p=p, mode="iff", lhs=bool(verdict), rhs=rhs,
        witnesses=witnesses, elapsed=time.perf_counter() - start,
        lhs_name="p-scheme", rhs_name="quotient and class restrictions p-schemes")


def check_primitive_structure(scheme: Scheme, p: int) -> TheoremReport:
    """A primitive p-scheme is regular on exactly p points and every
    non-reflexive basis digraph is a directed p-cycle."""
    scheme.require_homogeneous()
    require_prime(p)
    start = time.perf_counter()
    witnesses: dict[str, str] = {}

    lhs = is_primitive(scheme) and bool(is_p_scheme(scheme, p))

    regular = is_regular(scheme)
    point_count_ok = scheme.n == p
    cycles_ok = True
    for color in _non_diagonal_colors(scheme):
        g = basis_digraph(scheme, color)
        if not (g.n == p and is_strongly_connected(g)
                and all(len(out) == 1 for out in g.out_adj)):
            cycles_ok = False
            witnesses["non-cycle-color"] = (
                f"color {color} is not a directed {p}-cycle")
            break
    rhs = regular and point_count_ok and cycles_ok
    if not regular:
        witnesses["not-regular"] = "some color has degree > 1"
    if not point_count_ok:
        witnesses["point-count"] = f"n={scheme.n} differs from p={p}"

    return TheoremReport(
        check="primitive-structure", scheme_hash=scheme.hash, n=scheme.n,
        r=scheme.r, p=p, mode="implies", lhs=lhs, rhs=rhs,
        witnesses=witnesses, elapsed=time.perf_counter() - start,
        lhs_name="primitive p-scheme",
        rhs_name="regular, n=p, basis digraphs are directed p-cycles")


def check_block_criterion(scheme: Scheme, p: int) -> TheoremReport:
    """If at least two equivalences are maximal below the full one and
    the restriction to every proper block is a p-scheme, then the whole
    scheme is a p-scheme."""
    scheme.require_homogeneous()
    require_prime(p)
    start = time.perf_counter()
    witnesses: dict[str, str] = {}

    eqs = all_equivalences(scheme)
    top = maximal_below_full(scheme)
    cond_spread = len(top) >= 2
    witnesses["maximal-below-full"] = str(len(top))

    blocks = sorted(
        {cls for e in eqs for cls in e.classes if len(cls) < scheme.n},
        key=lambda c: (len(c), c))
    cond_blocks = True
    for block in blocks:
        sub = is_p_scheme(restriction(scheme, block), p)
        if not sub:
            cond_blocks = False
            witnesses["block-offender"] = (
                f"block {list(block)} restriction has color "
                f"{sub.offender_color} of size {sub.offender_size}")
            break

    witnesses["blocks-p-schemes"] = _fmt(cond_blocks)
    lhs = cond_spread and cond_blocks
    verdict = _size_verdict(scheme, p, witnesses)

    return TheoremReport(
        check="block-criterion", scheme_hash=scheme.hash, n=scheme.n,
        r=scheme.r, p=p, mode="implies", lhs=lhs, rhs=bool(verdict),
        witnesses=witnesses, elapsed=time.perf_counter() - start,
        lhs_name="two maximal equivalences and p-scheme blocks",
        rhs_name="p-scheme")
