"""Deterministic scheme corpus and the bulk check runner.

Families: thin schemes of cyclic, abelian, and dihedral groups; rank-2
schemes; wreath products (pairs, triples, mixed); quotients by minimal
equivalences; coherent closures of seeded circulant digraphs (always
homogeneous since circulants are vertex transitive); and coherent
closures of assorted random digraphs, kept only when non-homogeneous.
The same spec and seed always reproduce the same members in the same
order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from math import gcd
from typing import Callable, Iterable

from .checks import (
    TheoremReport,
    check_bipartite_criterion,
    check_block_criterion,
    check_fiber_reduction,
    check_partite_criterion,
    check_primitive_structure,
    check_quotient_factorization,
    require_prime,
)
from .constructions import (
    CayleyTable,
    cyclic_table,
    digraph_color_matrix,
    dihedral_table,
    direct_product,
    quotient,
    rank_two_scheme,
    thin_scheme,
    wl_closure,
    wreath,
)
from .core import Scheme
from .digraph import Digraph
from .errors import SchemeError
from .lattice import RANK_CAP, minimal_equivalences

DEFAULT_PRIMES = (2, 3, 5, 7, 11)
DEFAULT_MAX_N = 27
DEFAULT_SEED = 271828


@dataclass(frozen=True)
class CorpusSpec:
    """Corpus parameters; every member is a pure function of these."""

    max_n: int = DEFAULT_MAX_N
    primes: tuple[int, ...] = DEFAULT_PRIMES
    seed: int = DEFAULT_SEED
    circulant_count: int = 80
    nonhomogeneous_count: int = 60

    def __post_init__(self):
        if not (1 <= self.max_n <= 64):
            raise SchemeError(f"max_n must be in 1..64, got {self.max_n}")
        if not self.primes:
            raise SchemeError("prime list must be nonempty")
        for i, p in enumerate(self.primes):
            require_prime(p)
            if p in self.primes[:i]:
                raise SchemeError(f"prime {p} is repeated")


@dataclass(frozen=True, eq=False)
class CorpusMember:
    name: str
    family: str
    scheme: Scheme


# -- group helpers ------------------------------------------------------------


def _partitions(k: int, cap: int | None = None) -> list[tuple[int, ...]]:
    """Integer partitions of k into parts of at most ``cap`` (default k),
    parts descending, lexicographically largest first."""
    if k == 0:
        return [()]
    return [(part,) + rest for part in range(min(cap or k, k), 0, -1)
            for rest in _partitions(k - part, part)]


def _factorize(n: int) -> list[tuple[int, int]]:
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            factors.append((d, e))
        d += 1
    if n > 1:
        factors.append((n, 1))
    return factors


def abelian_tables(order: int) -> list[tuple[str, CayleyTable]]:
    """All abelian groups of the given order as (name, table) pairs.

    Names list the cyclic factor sizes, e.g. "2x2x4"; the cyclic group
    itself is included (named by its order).
    """
    options_per_prime = []
    for p, e in _factorize(order):
        options_per_prime.append([tuple(p ** part for part in parts)
                                  for parts in _partitions(e)])
    # each cyclic factor is built once
    sizes = {f for options in options_per_prime for parts in options for f in parts}
    cyclic = {f: cyclic_table(f) for f in sizes}
    result = []
    for combo in product(*options_per_prime):
        factors = sorted(f for group in combo for f in group)
        table = cyclic[factors[0]]
        for f in factors[1:]:
            table = direct_product(table, cyclic[f])
        result.append(("x".join(str(f) for f in factors), table))
    result.sort(key=lambda item: item[0])
    return result


# -- digraph generators -------------------------------------------------------


def random_circulant_digraph(rng: random.Random, n: int) -> Digraph:
    """A strongly connected circulant digraph on n vertices.

    Its jump set J has gcd(J u {n}) = 1 (the fallback J = {1} too), so
    the jumps generate Z_n: every vertex reaches every other, and the
    digraph is strongly connected.  Half the time the jump set is
    forced into a single residue class 1 mod d for a divisor d of n,
    which makes the digraph cyclically d-partite and gives the corpus
    basis digraphs of varied period.
    """
    divisors = [d for d in range(2, n) if n % d == 0]
    for _ in range(50):
        if divisors and rng.random() < 0.5:
            d = rng.choice(divisors)
            candidates = [j for j in range(1, n) if j % d == 1]
        else:
            candidates = list(range(1, n))
        k = rng.randint(1, min(3, len(candidates)))
        jumps = sorted(rng.sample(candidates, k))
        if gcd(*jumps, n) == 1:
            break
    else:
        jumps = [1]
    arcs = frozenset((u, (u + j) % n) for u in range(n) for j in jumps)
    return Digraph(n, arcs)


def _random_digraph(rng: random.Random, kind: int) -> Digraph:
    if kind == 0:
        n = rng.randint(3, 10)
        p = rng.choice([0.2, 0.3, 0.45, 0.6])
        arcs = {(u, v) for u in range(n) for v in range(n)
                if u != v and rng.random() < p}
        return Digraph(n, frozenset(arcs))
    if kind == 1:
        n = rng.randint(3, 9)
        return Digraph(n, frozenset((u, u + 1) for u in range(n - 1)))
    if kind == 2:
        a = rng.randint(2, 5)
        b = rng.randint(2, 5)
        if a == b:
            b += 1
        arcs = {(u, (u + 1) % a) for u in range(a)}
        arcs |= {(a + u, a + (u + 1) % b) for u in range(b)}
        return Digraph(a + b, frozenset(arcs))
    n = rng.randint(3, 8)
    arcs = {(u, v) for u in range(n) for v in range(n) if rng.random() < 0.3}
    return Digraph(n, frozenset(arcs))


# -- families -----------------------------------------------------------------


def _thin_cyclic(spec: CorpusSpec, earlier: list[CorpusMember]) -> list[CorpusMember]:
    return [
        CorpusMember(f"thin-cyclic-{m:02d}", "thin-cyclic",
                     thin_scheme(cyclic_table(m)))
        for m in range(1, min(24, spec.max_n) + 1)]


def _thin_abelian(spec: CorpusSpec, earlier: list[CorpusMember]) -> list[CorpusMember]:
    members = []
    for order in range(4, min(27, spec.max_n) + 1):
        for name, table in abelian_tables(order):
            if "x" not in name:
                continue  # cyclic groups already covered
            members.append(CorpusMember(
                f"thin-abelian-{name}", "thin-abelian", thin_scheme(table)))
    return members


def _thin_dihedral(spec: CorpusSpec, earlier: list[CorpusMember]) -> list[CorpusMember]:
    return [
        CorpusMember(f"thin-dihedral-{k:02d}", "thin-dihedral",
                     thin_scheme(dihedral_table(k)))
        for k in range(3, min(12, spec.max_n // 2) + 1)]


def _rank_two(spec: CorpusSpec, earlier: list[CorpusMember]) -> list[CorpusMember]:
    return [
        CorpusMember(f"rank-two-{n:02d}", "rank-two", rank_two_scheme(n))
        for n in range(2, min(24, spec.max_n) + 1)]


def _thin_cyclic_bases(earlier: list[CorpusMember]) -> dict[int, Scheme]:
    """The thin-cyclic members made so far, by order.  Every base a
    wreath family reads is there: thin-cyclic covers 1..min(24, max_n),
    and a wreath reads Z_a only for a <= 8 and a * 2 <= max_n."""
    return {m.scheme.n: m.scheme for m in earlier if m.family == "thin-cyclic"}


def _wreath_cyclic(spec: CorpusSpec, earlier: list[CorpusMember]) -> list[CorpusMember]:
    thin = _thin_cyclic_bases(earlier)
    return [
        CorpusMember(f"wreath-cyclic-{a}-{b}", "wreath-cyclic", wreath(thin[a], thin[b]))
        for a in range(2, 9) for b in range(2, 9) if a * b <= spec.max_n]


def _wreath_triple(spec: CorpusSpec, earlier: list[CorpusMember]) -> list[CorpusMember]:
    thin = _thin_cyclic_bases(earlier)
    return [
        CorpusMember(f"wreath-triple-{a}-{b}-{c}", "wreath-triple",
                     wreath(wreath(thin[a], thin[b]), thin[c]))
        for a, b, c in product((2, 3), repeat=3) if a * b * c <= spec.max_n]


def _wreath_mixed(spec: CorpusSpec, earlier: list[CorpusMember]) -> list[CorpusMember]:
    """Wreaths of Z_2 with dihedral, rank-two and Klein bases, each base
    the member of that name in ``earlier``.  A base that is not there is
    larger than max_n, so no pair holding it fits."""
    made = {m.name: m.scheme for m in earlier}
    z2 = "thin-cyclic-02"
    pairs: list[tuple[str, str, str]] = []
    for k in range(3, 7):
        dk = f"thin-dihedral-{k:02d}"
        pairs.append((f"dihedral{k}-z2", dk, z2))
        pairs.append((f"z2-dihedral{k}", z2, dk))
    for k in range(3, 6):
        rk = f"rank-two-{k:02d}"
        pairs.append((f"rank2of{k}-z2", rk, z2))
        pairs.append((f"z2-rank2of{k}", z2, rk))
    klein = "thin-abelian-2x2"
    pairs.append(("klein-z2", klein, z2))
    pairs.append(("z2-klein", z2, klein))
    return [
        CorpusMember(f"wreath-mixed-{name}", "wreath-mixed", wreath(made[i], made[o]))
        for name, i, o in pairs
        if i in made and o in made and made[i].n * made[o].n <= spec.max_n]


def _quotients(spec: CorpusSpec, earlier: list[CorpusMember]) -> list[CorpusMember]:
    """Quotients of the thin abelian and thin dihedral members, in order."""
    members = []
    bases = [m for m in earlier if m.family in ("thin-abelian", "thin-dihedral")]
    for base in bases:
        scheme = base.scheme
        if scheme.r > RANK_CAP:
            continue
        for i, e in enumerate(minimal_equivalences(scheme)[:2]):
            members.append(CorpusMember(
                f"quotient-{base.name}-min{i}", "quotient", quotient(scheme, e)))
    return members


def _wl_circulant(spec: CorpusSpec, earlier: list[CorpusMember]) -> list[CorpusMember]:
    """Closures of seeded circulants, strongly connected by
    ``random_circulant_digraph``.  Each closure is homogeneous with no
    check: Z_n acts regularly on the points by automorphisms of the
    circulant, the coarsest coherent refinement is invariant under
    automorphisms, so every diagonal cell has one color."""
    if spec.max_n < 5:
        return []
    rng = random.Random(spec.seed * 1000003 + 1)
    members = []
    for i in range(spec.circulant_count):
        n = rng.randint(5, min(12, spec.max_n))
        g = random_circulant_digraph(rng, n)
        members.append(CorpusMember(
            f"wl-circulant-{i:03d}", "wl-circulant", wl_closure(digraph_color_matrix(g))))
    return members


def _wl_random(spec: CorpusSpec, earlier: list[CorpusMember]) -> list[CorpusMember]:
    rng = random.Random(spec.seed * 1000003 + 2)
    members = []
    attempts = 0
    while len(members) < spec.nonhomogeneous_count and attempts < 600:
        g = _random_digraph(rng, attempts % 4)
        attempts += 1
        scheme = wl_closure(digraph_color_matrix(g))
        if scheme.is_homogeneous:
            continue
        members.append(CorpusMember(
            f"wl-random-{len(members):03d}", "wl-random", scheme))
    if len(members) < spec.nonhomogeneous_count:
        raise SchemeError("could not generate enough non-homogeneous closures")
    return members


# Each family is called with the spec and the members made before it;
# the wreath and quotient families take their bases from those.
_FAMILIES: tuple[Callable[[CorpusSpec, list[CorpusMember]], list[CorpusMember]], ...] = (
    _thin_cyclic,
    _thin_abelian,
    _thin_dihedral,
    _rank_two,
    _wreath_cyclic,
    _wreath_triple,
    _wreath_mixed,
    _quotients,
    _wl_circulant,
    _wl_random,
)


def generate_corpus(spec: CorpusSpec = CorpusSpec()) -> list[CorpusMember]:
    members: list[CorpusMember] = []
    for family in _FAMILIES:
        members.extend(family(spec, members))
    names = [m.name for m in members]
    if len(set(names)) != len(names):
        raise SchemeError("corpus member names are not unique")
    return members


# -- bulk checks --------------------------------------------------------------


def member_reports(member: CorpusMember,
                   primes: Iterable[int]) -> list[TheoremReport]:
    """Every applicable check for one member, in a fixed order: the
    partite reports of a homogeneous member, the bipartite report, the
    fiber reports, and on a homogeneous member of at least two points
    and rank at most RANK_CAP the primitive, block and quotient reports."""
    s = member.scheme
    primes = tuple(primes)
    reports: list[TheoremReport] = []
    if s.is_homogeneous:
        reports += [check_partite_criterion(s, p) for p in primes]
    reports.append(check_bipartite_criterion(s))
    reports += [check_fiber_reduction(s, p) for p in primes]
    if s.is_homogeneous and s.n >= 2 and s.r <= RANK_CAP:
        reports += [check(s, p) for p in primes
                    for check in (check_primitive_structure, check_block_criterion)]
        reports += [check_quotient_factorization(s, e, p)
                    for e in minimal_equivalences(s)[:2] for p in primes[:2]]
    return reports


def run_corpus_checks(members: list[CorpusMember], primes: Iterable[int],
                      threads: int | None = None
                      ) -> list[tuple[CorpusMember, TheoremReport]]:
    """Run member_reports on each member, serially and in corpus order.

    ``threads`` is accepted for existing callers and ignored: the checks
    are pure Python under the GIL, where a thread pool was slower."""
    primes = tuple(primes)
    return [(m, rep) for m in members for rep in member_reports(m, primes)]
