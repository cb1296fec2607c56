"""Seeded benchmark inputs, made with the standard library only.

The program under test receives only the files written here: `.dg`
digraphs for the closure ladder and `.ccm` thin schemes of small groups
for the cold lattice sweep.  The same seed always gives the same bytes.
"""

from __future__ import annotations

import random
from math import gcd
from pathlib import Path

# -- closure ladder -----------------------------------------------------------


def circulant_arcs(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Undirected circulant: jumps +a and -a for a seeded unit a mod n.

    Every such digraph is isomorphic to the n-cycle, so its coherent
    closure has rank n // 2 + 1 and needs about n / 2 refinement rounds
    whatever the seed; the seed only moves the labels.
    """
    units = [a for a in range(1, n // 2) if gcd(a, n) == 1]
    a = rng.choice(units)
    return sorted({(u, (u + j) % n) for u in range(n) for j in (a, n - a)})


def chord_arcs(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A spanning cycle through a seeded vertex order plus n // 2 random chords."""
    order = list(range(n))
    rng.shuffle(order)
    arcs = {(order[i], order[(i + 1) % n]) for i in range(n)}
    while len(arcs) < n + n // 2:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            arcs.add((u, v))
    return sorted(arcs)


def dg_text(n: int, arcs: list[tuple[int, int]]) -> str:
    return "".join([f"dg {n} {len(arcs)}\n"] + [f"{u} {v}\n" for u, v in arcs])


def ladder_inputs(seed: int, rungs: tuple[int, ...]) -> dict[tuple[int, str], str]:
    """The two `.dg` texts of every rung, keyed by (n, kind)."""
    rng = random.Random(f"closure-ladder:{seed}")
    texts = {}
    for n in rungs:
        texts[(n, "circulant")] = dg_text(n, circulant_arcs(rng, n))
        texts[(n, "chords")] = dg_text(n, chord_arcs(rng, n))
    return texts


# -- group tables -------------------------------------------------------------


def _partitions(k: int, cap: int | None = None) -> list[tuple[int, ...]]:
    cap = k if cap is None else cap
    if k == 0:
        return [()]
    return [(part,) + rest for part in range(min(k, cap), 0, -1)
            for rest in _partitions(k - part, part)]


def _prime_powers(m: int) -> list[tuple[int, int]]:
    out, d = [], 2
    while d * d <= m:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if m > 1:
        out.append((m, 1))
    return out


def abelian_factorizations(m: int) -> list[tuple[int, ...]]:
    """Cyclic factor sizes of every abelian group of order m, one per group."""
    combos: list[tuple[int, ...]] = [()]
    for p, e in _prime_powers(m):
        combos = [c + tuple(p ** k for k in parts)
                  for c in combos for parts in _partitions(e)]
    return sorted(tuple(sorted(c)) for c in combos)


def abelian_table(factors: tuple[int, ...]) -> list[list[int]]:
    """Multiplication table of Z_f1 x ... x Z_fk, elements in mixed radix."""
    elems = [()]
    for f in factors:
        elems = [e + (i,) for e in elems for i in range(f)]
    index = {e: i for i, e in enumerate(elems)}
    return [[index[tuple((x + y) % f for x, y, f in zip(a, b, factors))]
             for b in elems] for a in elems]


def dihedral_table(k: int) -> list[list[int]]:
    """Dihedral group of order 2k; element a*k + i is flip^a rot^i."""
    m = 2 * k
    table = []
    for x in range(m):
        a, i = divmod(x, k)
        row = []
        for y in range(m):
            b, j = divmod(y, k)
            rot = (i + j) % k if a == 0 else (i - j) % k
            row.append(((a + b) % 2) * k + rot)
        table.append(row)
    return table


def _identity(table: list[list[int]]) -> int:
    m = len(table)
    return next(e for e in range(m) if table[e] == list(range(m)))


def subgroup_count(table: list[list[int]]) -> int:
    """Number of subgroups, by joining subgroups with cyclic ones.

    Every subgroup is the join of the cyclic subgroups it contains, so
    starting from the cyclic subgroups and joining each subgroup found
    with each cyclic one reaches all of them.
    """
    e = _identity(table)

    def generated(gens: frozenset[int]) -> frozenset[int]:
        group = {e} | set(gens)
        frontier = list(group)
        while frontier:
            x = frontier.pop()
            for g in list(group):
                for y in (table[x][g], table[g][x]):
                    if y not in group:
                        group.add(y)
                        frontier.append(y)
        return frozenset(group)

    cyclic = {generated(frozenset({g})) for g in range(len(table))}
    family, todo = set(cyclic), list(cyclic)
    while todo:
        h = todo.pop()
        for c in cyclic:
            if not c <= h:
                joined = generated(h | c)
                if joined not in family:
                    family.add(joined)
                    todo.append(joined)
    return len(family)


def thin_ccm_text(table: list[list[int]], rng: random.Random) -> str:
    """`.ccm` of the thin scheme of a group, points relabelled by the rng.

    The pair (u, v) gets the color inv(u) * v; point u is written at
    position perm[u].
    """
    m = len(table)
    e = _identity(table)
    inv = [next(h for h in range(m) if table[g][h] == e) for g in range(m)]
    perm = list(range(m))
    rng.shuffle(perm)
    rows = [[0] * m for _ in range(m)]
    for u in range(m):
        for v in range(m):
            rows[perm[u]][perm[v]] = table[inv[u]][v]
    body = "".join(" ".join(map(str, row)) + "\n" for row in rows)
    return f"ccm {m} {m}\n{body}"


def lattice_groups(orders: range) -> list[tuple[str, list[list[int]]]]:
    """Every abelian group and every dihedral group with order in the range."""
    groups = []
    for m in orders:
        for factors in abelian_factorizations(m):
            groups.append(("z" + "x".join(map(str, factors)), abelian_table(factors)))
    for k in range(3, orders.stop):
        if 2 * k in orders:
            groups.append((f"d{2 * k}", dihedral_table(k)))
    return groups


def lattice_inputs(seed: int, orders: range) -> list[tuple[str, str, int]]:
    """(file stem, `.ccm` text, expected closed-set count) per group."""
    rng = random.Random(f"lattice-cold:{seed}")
    return [(name, thin_ccm_text(table, rng), subgroup_count(table))
            for name, table in lattice_groups(orders)]


def write_texts(directory: Path, texts: dict[str, str]) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for stem, text in texts.items():
        path = directory / stem
        path.write_text(text, encoding="ascii")
        paths[stem] = path
    return paths
