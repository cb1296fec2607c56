"""Mutation checks of asck: one exact text edit of ``src/asck`` per mutant,
and the tests that must catch it.

    python tools/mutants.py     # every mutant; JSON on stdout

For each mutant the runner copies ``src``, ``tests``, ``perfbench`` and
``pyproject.toml`` into a temporary directory, replaces the mutant's old
text (which must occur exactly once in its file) with the new text, and
runs the mutant's tests there with pytest.  A failing run (pytest exit 1)
means "killed", a passing one "survived".  A mutant that breaks scheme
certification can make a test module fail at import, so pytest exits 2
(collection error) or 4 (node not found) instead; that run counts as
"killed" only when the same tests, run again on the copy with the old
text put back, pass (a baseline run), and as "error" otherwise.
Equivalent mutants are not run; each carries the argument why no test
can tell it apart.  The exit code is 0 when every mutant that was run
was killed.

Uses the standard library only; the tests themselves need what the
suite needs.  The suite's ``tests/test_mutants.py`` checks only that the
table still applies to ``src/asck``; it runs no mutant.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    id: str
    file: str  # relative to src/asck
    old: str
    new: str
    killers: tuple[str, ...] = ()  # pytest node ids, relative to the root
    equivalent: str = ""  # why no test can kill it; then it is not run


DIGRAPH = "tests/test_digraph.py"
TRAVERSALS = f"{DIGRAPH}::TestAgainstPreviousTraversals::test_seeded_random_digraphs"
FOREST = f"{DIGRAPH}::TestForestDefects::test_seeded_random_digraphs"
SHIFT_CYCLE = f"{DIGRAPH}::TestBasisDigraph::test_shift_color_is_cycle"
ALL_CELLS = f"{DIGRAPH}::TestBasisPeriods::test_matches_all_cells_build"
POINT_BOUND = "tests/test_io_cli.py::TestPointBound::test_bound_plus_one"
CLOSE_BY_ONE = "tests/test_lattice.py::TestCloseByOne::test_each_set_and_color_closed_once"
WORK_PIN = f"{CLOSE_BY_ONE}[Z2^4]"
STOPPED = "tests/test_lattice.py::TestStoppedClosure::test_matches_full_closures"
CHUNK_BOUNDARY = ("tests/test_core.py::TestChunkedWalk::"
                  "test_witness_just_before_at_and_after_a_chunk_boundary")
WALK_ORACLE = ("tests/test_core.py::TestNarrowSingletonWalk::"
               "test_outcomes_match_int64_all_cells_oracle")
ROW_ZERO_PREMISE = ("tests/test_core.py::TestRowZeroWalk::"
                    "test_non_invariant_coloring_consistent_on_row_zero")
ROW_ZERO_ORBITS = "tests/test_core.py::TestRowZeroWalk::test_recolored_orbits_match_full_walk"
CIRCULANT_PEAK = "tests/test_core.py::TestCertifiedMemory::test_circulant_peak"
COUNT_WITNESS = "tests/test_core.py::TestCountMismatchWitness"
SIZE_ORACLE = "tests/test_checks.py::TestSizeFactorizationOracle"
CAYLEY = "tests/test_constructions.py::TestCayleyTables"
CLOSURE_ORACLE = "tests/test_constructions.py::TestClosureOracle"
ROW_ZERO_ROUNDS = "tests/test_constructions.py::TestRowZeroRounds::test_directed_circulants"
DISCRETE_STOP = "tests/test_constructions.py::TestDiscreteStop"
CAYLEY_PERIODS = f"{DIGRAPH}::TestCayleyPeriods::test_match_forest_and_relabeled_copies"
CAYLEY_PATH = f"{DIGRAPH}::TestCayleyPeriods::test_path"
DEEP_COMPONENTS = f"{DIGRAPH}::TestDeepComponents"
ONE_CALL_PARSE = "tests/test_io_cli.py::TestOneCallParse"
PER_ROW_JOIN = "tests/test_io_cli.py::TestCcmFormat::test_text_matches_per_row_join"
# one worklist step of lattice._close, and the stop check before it
STOP_CHECK = "        if pending & stop:\n            return None\n"
CLOSE_STEP = ("        bit = pending & -pending\n"
              "        pending ^= bit\n"
              "        closed |= bit\n"
              "        c = bit.bit_length() - 1\n"
              "        members.append(c)\n"
              "        row = rows[c]\n"
              "        found = 0\n"
              "        for m in members:\n"
              "            found |= row[m]\n")

MUTANTS = (
    # _forest_defects: hook and jump
    Mutant("hook-larger-root", "digraph.py",
           "hi, lo = np.maximum(ru, rv), np.minimum(ru, rv)",
           "lo, hi = np.maximum(ru, rv), np.minimum(ru, rv)", (FOREST,)),
    Mutant("hook-offset-sign", "digraph.py",
           "np.where(ru[arc] == hooked, -step, step)",
           "np.where(ru[arc] == hooked, step, -step)", (SHIFT_CYCLE,)),
    Mutant("jump-without-offsets", "digraph.py",
           "            shift[hooked] += shift[above]\n", "", (SHIFT_CYCLE,)),
    Mutant("one-round", "digraph.py",
           "        root = parent[root]\n",
           "        root = parent[root]\n"
           "        return root, label, label[tails] + 1 - label[heads]\n", (TRAVERSALS,)),
    Mutant("hook-last-arc", "digraph.py",
           "np.minimum.at(best, hi, lo * m + np.arange(m))\n"
           "        hooked = np.flatnonzero(best < n * m)\n"
           "        arc = best[hooked] % m\n",
           "np.minimum.at(best, hi, lo * m + np.arange(m)[::-1])\n"
           "        hooked = np.flatnonzero(best < n * m)\n"
           "        arc = m - 1 - best[hooked] % m\n",
           equivalent="the key still picks the least root a hooking root reaches, "
                      "through some arc to it; any such arc is a valid tree arc, the "
                      "hook targets (so roots and rounds) do not change, and every "
                      "reader uses only what no forest changes"),
    Mutant("hook-first-arc-any-smaller-root", "digraph.py",
           "np.minimum.at(best, hi, lo * m + np.arange(m))",
           "np.minimum.at(best, hi, np.arange(m))",
           (f"{DIGRAPH}::TestForestDefects::test_stars[5]",)),
    Mutant("jump-once", "digraph.py",
           "while hooked.size:", "if hooked.size:", (FOREST,)),
    # Tarjan's strong components
    Mutant("tarjan-parent-lowlink-dropped", "digraph.py",
           "                    low[parent] = min(low[parent], low[v])\n", "",
           (f"{DEEP_COMPONENTS}::test_closed_path_is_one_cycle",)),
    Mutant("tarjan-stack-flag-kept", "digraph.py",
           "                        on_stack[w] = False\n", "",
           (f"{DEEP_COMPONENTS}::test_seeded_random_digraphs",)),
    # basis_periods: fiber-by-fiber numbering of the (color, point) vertices
    Mutant("fiber-numbering-no-skip", "digraph.py",
           "skip = np.where(source != target, count[source], 0)",
           "skip = np.zeros_like(source)", (ALL_CELLS,)),
    Mutant("fiber-numbering-point-rank", "digraph.py",
           "rank[order] = np.arange(n) - (np.cumsum(count) - count)[fiber[order]]",
           "rank[order] = order", (ALL_CELLS,)),
    # the witnesses read the forest's labels
    Mutant("partite-start-zero", "digraph.py",
           "start = np.where(width < p, lo[roots] % p, 0)",
           "start = np.zeros_like(width)", (TRAVERSALS,)),
    Mutant("partite-no-size-guard", "digraph.py",
           "    if p > g.n:\n        return None\n", "",
           (f"{DIGRAPH}::TestCyclicPartition::"
            "test_more_classes_than_vertices_allocate_nothing[18446744073709551616]",)),
    Mutant("partite-no-defect-test", "digraph.py",
           "    if (defect % p).any():\n        return None\n", "", (TRAVERSALS,)),
    Mutant("partite-accepts-fewer-classes", "digraph.py",
           "if len(classes) == p else None", "if len(classes) <= p else None",
           (f"{DIGRAPH}::TestCyclicPartition::test_residues_short_of_p_classes",)),
    Mutant("bipartite-mod-four", "digraph.py",
           "(defect % 2).any()", "(defect % 4).any()", (TRAVERSALS,)),
    # primality and the bounds on p and on n
    Mutant("miller-rabin-four-bases", "checks.py",
           "_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)",
           "_BASES = (2, 3, 5, 7)",
           ("tests/test_checks.py::TestArithmetic::test_is_prime_past_trial_division",)),
    Mutant("p-bound-off-by-one", "checks.py",
           "q >= _P_BOUND", "q > _P_BOUND",
           ("tests/test_checks.py::TestArithmetic::test_require_prime_below_two_to_the_63",)),
    # the one door for a check's prime, and the reader below it
    Mutant("begin-skips-prime-check", "checks.py",
           "    p = require_prime(p)\n    start = time.perf_counter()\n",
           "    start = time.perf_counter()\n",
           ("tests/test_checks.py::TestPartiteCriterion::test_requires_prime",)),
    # equal output: only the count of validations tells it apart
    Mutant("size-verdict-revalidates", "checks.py",
           "    verdict = _p_verdict(scheme, p)\n", "    verdict = is_p_scheme(scheme, p)\n",
           ("tests/test_checks.py::TestPrimeIndependentWork::test_one_prime_check_per_report",)),
    Mutant("cyclic-table-unbounded", "constructions.py",
           '    require_points(m, "cyclic group table")\n', "",
           (f"{POINT_BOUND}[cyclic_table]",)),
    Mutant("wreath-bounds-a-factor", "constructions.py",
           'require_points(n1 * n2, "wreath product")',
           'require_points(max(n1, n2), "wreath product")',
           (f"{POINT_BOUND}[wreath]",)),
    # the certificate's walk: multi-cell colors only, first cells unflagged
    Mutant("walk-skips-two-cell-colors", "core.py",
           "shared = sizes > 1", "shared = sizes > 2", (WALK_ORACLE,)),
    # refuses every scheme with two multi-cell colors, so test modules that
    # build one at import do not collect; the baseline run makes that a kill
    Mutant("walk-first-cells-shifted", "core.py",
           "flagged[np.cumsum(sizes[shared]) - sizes[shared]] = False",
           "flagged[np.cumsum(sizes[shared]) - sizes[shared] + 1] = False", (WALK_ORACLE,)),
    # the walk's chunks, the copy, the range test and the n^2 guard
    Mutant("walk-chunks-overlap", "core.py",
           "for lo in range(0, len(walk), chunk):",
           "for lo in range(0, len(walk), max(1, chunk - 1)):",
           (CHUNK_BOUNDARY,)),
    Mutant("walk-skips-last-cell-of-chunk", "core.py",
           "np.divmod(walk[lo:lo + chunk], n)", "np.divmod(walk[lo:lo + chunk - 1], n)",
           (CHUNK_BOUNDARY,)),
    Mutant("walk-chaining-row-from-last-but-one", "core.py",
           "codes[0] = codes[k]", "codes[0] = codes[k - 1]", (CHUNK_BOUNDARY,)),
    Mutant("walk-without-chaining-row", "core.py",
           "        codes[0] = codes[k]\n", "", (CHUNK_BOUNDARY,)),
    Mutant("walk-row-against-itself", "core.py",
           "np.not_equal(rows, codes[:k], out=differs[:k])",
           "np.not_equal(rows, codes[1:k + 1], out=differs[:k])", (WALK_ORACLE,)),
    Mutant("walk-buffers-full-chunk", "core.py",
           "chunk = max(1, min(len(walk), _WALK_CODES // n))",
           "chunk = max(1, _WALK_CODES // n)",
           ("tests/test_core.py::TestChunkedWalk::test_buffers_fit_a_short_walk",)),
    # the witness: least flagged position, least differing code, first cells
    Mutant("witness-latest-cell", "core.py",
           "cell = divmod(int(walk[flagged].min()), n)",
           "cell = divmod(int(walk[flagged].max()), n)", (WALK_ORACLE,)),
    Mutant("witness-code-max", "core.py",
           "code = int(min(a[i], b[i]))", "code = int(max(a[i], b[i]))",
           (f"{COUNT_WITNESS}::test_matches_counter_oracle",)),
    Mutant("first-cells-run-ends", "core.py",
           "order[offsets[:-1]]", "order[offsets[1:] - 1]",
           ("tests/test_core.py::TestSchemeAccessors::test_cell_index_matches_argwhere",)),
    Mutant("tensor-first-cell-swapped", "core.py",
           "self.matrix[us, :]) * r + self.matrix[:, ws].T",
           "self.matrix[ws, :]) * r + self.matrix[:, us].T",
           ("tests/test_core.py::TestSchemeAccessors::test_tensor_consistency",)),
    Mutant("check-color-by-int", "core.py",
           "        index = _index(color)\n", "        index = int(color)\n",
           ("tests/test_core.py::test_integer_arguments[degree]",)),
    Mutant("unreferenced-private-def", "core.py",
           "def _groups(labels: np.ndarray)",
           "def _unused() -> None:\n    pass\n\n\ndef _groups(labels: np.ndarray)",
           ("tests/test_callers.py::test_every_definition_in_src_has_a_caller",)),
    Mutant("color-matrix-without-copy", "core.py",
           "_color_ids(_integer_matrix(matrix, copy=True))", "_color_ids(_integer_matrix(matrix))",
           ("tests/test_core.py::TestValidate::"
            "test_callers_array_is_neither_frozen_nor_aliased",)),
    Mutant("bincount-without-cell-count-guard", "core.py",
           "if int(arr.max()) >= arr.size or not np.bincount",
           "if not np.bincount",
           ("tests/test_core.py::TestValidate::"
            "test_ids_above_cell_count_raise_with_remap[9223372036854775807]",)),
    Mutant("int64-rows-without-range-test", "io.py",
           "    for (lineno, line), row in zip(lines, rows):\n"
           "        if not all(-2 ** 63 <= x < 2 ** 63 for x in row):\n"
           "            raise ParseError(name, lineno, f\"field out of range in: {line!r}\")\n",
           "", (f"{ONE_CALL_PARSE}::test_matches_per_line_parse",
                "tests/test_io_cli.py::TestCliBasics::test_out_of_range_entry_is_an_input_error")),
    # the byte-level .ccm parse: its row check and its digit bound
    Mutant("digit-rows-without-row-check", "io.py",
           "if starts.size != n * n or not (kind[starts[::n] - 1] == 3).all():",
           "if starts.size != n * n:",
           (f"{ONE_CALL_PARSE}::test_row_field_counts_total_n_squared",)),
    Mutant("digit-bound-nineteen", "io.py",
           "_MAX_DIGITS = 18", "_MAX_DIGITS = 19",
           (f"{ONE_CALL_PARSE}::test_digit_bound",)),
    # the byte encoder behind .ccm text, Scheme.hash and the info lists
    Mutant("digit-table-keeps-leading-zeros", "core.py",
           "        if run > 1:\n            table[:run, j] = 0\n", "", (PER_ROW_JOIN,)),
    Mutant("decimal-text-without-row-end", "core.py",
           "    text[:, -1, -1] = ord(end)\n", "", (PER_ROW_JOIN,)),
    # the shift test, and the walk and rounds on row 0 that it admits
    Mutant("shift-test-always-true", "core.py",
           "    return bool(np.array_equal(matrix[1:, 1:], matrix[:-1, :-1])\n",
           "    return True or bool(np.array_equal(matrix[1:, 1:], matrix[:-1, :-1])\n",
           (ROW_ZERO_PREMISE,)),
    Mutant("row-zero-walk-on-row-one", "core.py",
           "keys, counts = arr[0], np.bincount(arr[0], minlength=r)",
           "keys, counts = arr[1 % n], np.bincount(arr[1 % n], minlength=r)",
           (ROW_ZERO_ORBITS,)),
    # equal output: only the peak of the full sort tells it apart
    Mutant("certify-circulant-keys-off", "core.py",
           "    if circulant:\n", "    if False:\n", (CIRCULANT_PEAK,)),
    Mutant("row-zero-rounds-unexpanded", "constructions.py",
           "    return full\n", "    return top\n", (ROW_ZERO_ROUNDS,)),
    Mutant("row-zero-rounds-transposed-shift", "constructions.py",
           "shift = (np.arange(n) - np.arange(n)[:, None]) % n",
           "shift = (np.arange(n)[:, None] - np.arange(n)) % n", (ROW_ZERO_ROUNDS,)),
    # the discrete stop: a round too early stops on a partition it would split
    Mutant("discrete-stop-one-color-early", "constructions.py",
           "if r == top.size:", "if r >= top.size - 1:",
           (f"{DISCRETE_STOP}::test_one_color_short_of_discrete_still_rounds",)),
    Mutant("discrete-stop-one-past", "constructions.py",
           "if r == top.size:", "if r == top.size + 1:",
           (f"{DISCRETE_STOP}::test_thin_cyclic_returns_at_once",
            f"{DISCRETE_STOP}::test_chords_ladder_closures")),
    # periods of a shift-invariant scheme from row 0
    Mutant("cayley-period-without-gcd", "digraph.py",
           "return g // np.gcd(g, s)", "return g", (CAYLEY_PERIODS,)),
    Mutant("cayley-switch-off", "digraph.py",
           "if scheme.circulant:", "if False:", (CAYLEY_PATH,)),
    Mutant("circulant-verdict-false", "core.py",
           "first_cells=first, circulant=circulant)", "first_cells=first, circulant=False)",
           (CAYLEY_PATH,)),
    # equal output: only the bytes an interned scheme holds tell it apart
    Mutant("intern-second-key-always", "core.py",
           "        if key != canonical_key:\n            _interned[key] = scheme\n",
           "        _interned[key] = scheme\n",
           ("tests/test_core.py::TestCertifiedMemory::"
            "test_interned_scheme_holds_one_copy_of_its_bytes",)),
    Mutant("scheme-sizes-writeable", "core.py",
           "    for a in (arr, first, sizes, degrees, sigma):\n",
           "    for a in (arr, first, degrees, sigma):\n",
           ("tests/test_core.py::TestFrozenArrays::test_writes_raise",)),
    Mutant("is-prime-without-index", "checks.py",
           "    q = _index(p)\n    return q is not None and _is_prime(q)\n",
           "    return _is_prime(p)\n",
           ("tests/test_core.py::test_integer_arguments[is_prime]",)),
    # the one point grouping behind fibers, classes, components and partitions
    Mutant("groups-first-seen-order", "core.py",
           "    return tuple(tuple(groups[label]) for label in sorted(groups))\n",
           "    return tuple(map(tuple, groups.values()))\n",
           ("tests/test_core.py::TestGroups::test_random_diagonal_labelings",)),
    # Digraph and .ccm writer input: what the readers reject is not made
    Mutant("digraph-endpoints-unchecked", "digraph.py",
           "        if not all(type(u) is int and type(v) is int for u, v in self.arcs):\n",
           "        if False:\n",
           (f"{DIGRAPH}::TestDigraphType::test_rejects_float_endpoint",
            f"{DIGRAPH}::TestDigraphType::test_bool_endpoint_is_its_int")),
    Mutant("ccm-text-without-color-check", "io.py",
           "arr = _color_ids(_integer_matrix(matrix))", "arr = np.asarray(matrix, dtype=np.int64)",
           ("tests/test_io_cli.py::TestCcmFormat::test_writers_refuse_what_read_ccm_rejects",)),
    # the one .ccm/.dg header reader
    Mutant("header-without-tag-check", "io.py",
           "if len(parts) != 3 or parts[0] != tag:", "if len(parts) != 3:",
           ("tests/test_io_cli.py::TestDgFormat::test_header_messages",
            "tests/test_io_cli.py::TestCcmFormat::test_header_messages_match_per_line_parse")),
    # the closure rows and the closure itself
    Mutant("closure-rows-one-way", "lattice.py",
           "            rows[b][a] |= 1 << c\n", "",
           ("tests/test_core.py::TestSchemeAccessors::test_closure_rows_match_tensor",)),
    Mutant("close-shares-member-list", "lattice.py",
           "    members = members.copy()\n", "",
           ("tests/test_lattice.py::TestStoppedClosure::test_matches_full_closures",
            "tests/test_lattice.py::TestPreviousEngineOracle")),
    Mutant("equivalence-equality-reads-colors", "lattice.py",
           "colors: frozenset[int] = field(compare=False)", "colors: frozenset[int] = field()",
           ("tests/test_lattice.py::TestValueEquality::test_equivalence_colors_not_compared",)),
    Mutant("is-discrete-not-full", "lattice.py",
           "return len(self.classes) == self.scheme.n", "return len(self.classes) != 1",
           ("tests/test_lattice.py::TestMinimalMaximal::test_cyclic_four",)),
    Mutant("equivalence-without-transitivity-check", "lattice.py",
           "    if not np.array_equal(member, labels[:, None] == labels[None, :]):\n"
           "        raise NotASchemeEquivalence(\"union of relations is not transitive\")\n",
           "", ("tests/test_lattice.py::TestEquivalenceConstructors::"
                "test_from_colors_matches_brute_force",)),
    Mutant("memo-miss-builds-unchecked", "lattice.py",
           "lambda: equivalence_from_colors(scheme, colors))",
           "lambda: _unchecked_equivalence(scheme, list(colors)))",
           ("tests/test_constructions.py::TestQuotient::test_rejects_foreign_equivalence",)),
    Mutant("thin-radical-scatter-transposed", "lattice.py",
           "table[index[row0[reached[i]]], index[rows[i, w]]] = index[row0[w]]",
           "table[index[rows[i, w]], index[row0[reached[i]]]] = index[row0[w]]",
           ("tests/test_lattice.py::TestThinRadical",)),
    # the checks: primitive structure, size factorization, restrictions
    Mutant("primitive-cycle-without-point-count", "checks.py",
           "cycle = point_count_ok & (scheme.degrees == 1) & (basis_periods(scheme) == p)",
           "cycle = (scheme.degrees == 1) & (basis_periods(scheme) % p == 0)",
           ("tests/test_checks.py::TestPrimitiveStructure",)),
    Mutant("primitive-cycle-p-divides-period", "checks.py",
           "(basis_periods(scheme) == p)", "(basis_periods(scheme) % p == 0)",
           equivalent="the mask also requires n = p and degree 1, and a permutation "
                      "of p points whose cycle lengths all have a multiple of p as "
                      "their gcd is one p-cycle, whose period is p"),
    Mutant("size-factorization-vanished-not-first", "checks.py",
           "    if vanished[color]:\n        raise SchemeError(f\"color {color} vanished\")\n"
           "    lo, hi, m = int(low[color]), int(high[color]), int(blocks[color])\n"
           "    if lo != hi:\n"
           "        raise SchemeError(f\"color {color} has unequal block counts {lo} vs {hi}\")\n",
           "    lo, hi, m = int(low[color]), int(high[color]), int(blocks[color])\n"
           "    if lo != hi:\n"
           "        raise SchemeError(f\"color {color} has unequal block counts {lo} vs {hi}\")\n"
           "    if vanished[color]:\n        raise SchemeError(f\"color {color} vanished\")\n",
           (f"{SIZE_ORACLE}::test_each_message",)),
    Mutant("size-factorization-without-size-test", "checks.py",
           " | (blocks * high != scheme.sizes))", ")",
           (f"{SIZE_ORACLE}::test_each_message",)),
    Mutant("size-factorization-least-by-maximum", "checks.py",
           "np.minimum.at(low, colors, counts)", "np.maximum.at(low, colors, counts)",
           (f"{SIZE_ORACLE}::test_arbitrary_partitions",)),
    Mutant("fiber-check-restricts-first-fiber", "checks.py",
           "_class_restriction(scheme, fiber)", "_class_restriction(scheme, scheme.fibers[0])",
           ("tests/test_checks.py::TestFiberReduction::test_restrictions_are_those_of_restriction",)),
    Mutant("quotient-check-last-class", "checks.py",
           "_class_restriction(scheme, e.classes[0])", "_class_restriction(scheme, e.classes[-1])",
           ("tests/test_checks.py::TestPrimeIndependentWork::test_call_counts",)),
    Mutant("block-criterion-last-classes", "checks.py",
           "blocks = sorted((e.classes[0] for e", "blocks = sorted((e.classes[-1] for e",
           ("tests/test_checks.py::TestBlockCriterion::test_matches_all_classes_oracle_on_corpus",)),
    Mutant("corpus-summary-bad-from-results", "cli.py",
           "bad_count = Counter(member.family for member, _ in disagreements)",
           "bad_count = Counter(member.family for member, _ in results)",
           ("tests/test_io_cli.py::TestCliCorpus::test_default_text_output_is_pinned",)),
    Mutant("corpus-spec-allows-repeated-prime", "corpus.py",
           "            if p in self.primes[:i]:\n", "            if False:\n",
           ("tests/test_io_cli.py::TestCliCorpus::test_repeated_prime_exits_2",)),
    # group tables: the Latin and identity tests and the greedy generation
    Mutant("latin-test-rows-only", "constructions.py",
           "(np.sort(arr, axis=1) != ids).any(axis=1)\n"
           "                 | (np.sort(arr, axis=0) != ids[:, None]).any(axis=0))",
           "(np.sort(arr, axis=1) != ids).any(axis=1))",
           (f"{CAYLEY}::test_matches_row_by_row_oracle", f"{CAYLEY}::test_rejects_non_latin")),
    Mutant("identity-test-rows-only", "constructions.py",
           "is_identity = (arr == ids).all(axis=1) & (arr == ids[:, None]).all(axis=0)",
           "is_identity = (arr == ids).all(axis=1)", (f"{CAYLEY}::test_matches_row_by_row_oracle",)),
    Mutant("generation-from-element-zero", "constructions.py",
           "generated[identity] = True", "generated[0] = True",
           (f"{CAYLEY}::test_rejects_non_associative_loop_whose_identity_is_not_zero",)),
    Mutant("generation-one-closure-step", "constructions.py",
           "while closed < len(h) < m:", "if closed < len(h) < m:",
           (f"{CAYLEY}::test_light_tests_one_greedy_generating_set",)),
    # blocks, closure rounds and quotient labels
    Mutant("restriction-skips-block-test", "constructions.py",
           "    if not is_block(scheme, pts):\n"
           "        raise NotABlock(f\"{pts} is not a class of any scheme equivalence\")\n", "",
           ("tests/test_constructions.py::TestBlocksAndRestriction::test_non_block_rejected",)),
    Mutant("is-block-count-at-least", "constructions.py",
           "== len(pts) ** 2", ">= len(pts) ** 2",
           ("tests/test_constructions.py::TestBlocksAndRestriction::"
            "test_row_count_matches_generated_equivalence",)),
    Mutant("round-hash-symmetric-weights", "constructions.py",
           "        x, y = _hash_weights(rng, r, width)\n",
           "        x, y = _hash_weights(rng, r, width)\n        x = y\n",
           (f"{CLOSURE_ORACLE}::test_seeded_random_digraphs",
            "tests/test_constructions.py::TestRoundKeyOracle::test_one_fixpoint_per_closure")),
    Mutant("round-key-k-minus-one", "constructions.py",
           "np.unique(top * k + rank.reshape(top.shape)",
           "np.unique(top * (k - 1) + rank.reshape(top.shape)",
           (f"{CLOSURE_ORACLE}::test_seeded_random_digraphs",
            "tests/test_constructions.py::TestRoundKeyOracle::test_one_fixpoint_per_closure")),
    Mutant("quotient-label-greatest-color", "constructions.py",
           "colors[np.flatnonzero(np.diff(pairs, prepend=-1))]",
           "colors[np.flatnonzero(np.diff(pairs, append=k * k))]",
           equivalent="the colors of a class pair are one double coset TsT, and "
                      "double cosets partition the colors, so the greatest color "
                      "names a class pair's set as exactly as the least; "
                      "canonical_scheme renames the ids by first cell, whatever "
                      "they are"),
    # the lattice: least-point labels, the Close-by-One search and its stop
    Mutant("labels-by-argmin", "lattice.py",
           "labels = member.argmax(axis=1)", "labels = member.argmin(axis=1)",
           ("tests/test_lattice.py::TestUncheckedClassBuild::test_small_thin_groups",)),
    Mutant("stop-check-dropped", "lattice.py", STOP_CHECK, "", (WORK_PIN,)),
    Mutant("stop-mask-holds-own-color", "lattice.py",
           "1 << c, (1 << c) - 1)", "1 << c, (1 << c + 1) - 1)", (WORK_PIN,)),
    Mutant("stop-check-after-member-loop", "lattice.py",
           STOP_CHECK + CLOSE_STEP, CLOSE_STEP + STOP_CHECK, (WORK_PIN, STOPPED)),
    Mutant("cbo-skips-symmetric-colors", "lattice.py",
           "c not in bottom and sigma[c] >= c]", "c not in bottom and sigma[c] > c]",
           (f"{CLOSE_BY_ONE}[Z2^4]",)),
    Mutant("cbo-both-colors-of-a-transpose-pair", "lattice.py",
           "c not in bottom and sigma[c] >= c]", "c not in bottom]",
           (f"{CLOSE_BY_ONE}[Z2xZ2xZ6]",)),
    Mutant("cbo-child-starts-at-own-color", "lattice.py",
           "stack.append((*join, i + 1))", "stack.append((*join, i))",
           equivalent="the child's first color is the color c that made it, and c is in "
                      "the join, so the child skips it with no closure"),
)


def occurrences(mutant: Mutant, src: Path) -> int:
    """How often the mutant's old text occurs in its file under src/asck."""
    return (src / "asck" / mutant.file).read_text().count(mutant.old)


def run(mutant: Mutant) -> dict:
    """Apply one mutant to a copy of the tree and run its tests there."""
    with tempfile.TemporaryDirectory(prefix="asck-mutant-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, tree / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, tree / name)
        if occurrences(mutant, tree / "src") != 1:
            return {"id": mutant.id, "status": "stale", "seconds": 0.0}
        path = tree / "src" / "asck" / mutant.file
        original = path.read_text()
        path.write_text(original.replace(mutant.old, mutant.new))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env["PYTHONPATH"] = str(tree / "src")

        def pytest() -> int:
            return subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                 *mutant.killers],
                cwd=tree, env=env, capture_output=True, text=True).returncode

        start = time.perf_counter()
        code = pytest()
        status = {0: "survived", 1: "killed"}.get(code, f"error {code}")
        if code in (2, 4):
            # a collection error or a missing node is evidence only when the
            # unmutated copy collects and passes the same tests
            path.write_text(original)
            if pytest() == 0:
                status = "killed"
        seconds = round(time.perf_counter() - start, 2)
    return {"id": mutant.id, "status": status, "seconds": seconds}


def main() -> int:
    results = [{"id": m.id, "status": "equivalent", "argument": m.equivalent}
               if m.equivalent else run(m) for m in MUTANTS]
    sys.stdout.write(json.dumps(results, indent=1) + "\n")
    run_ones = [r for r in results if r["status"] != "equivalent"]
    return 0 if all(r["status"] == "killed" for r in run_ones) else 1


if __name__ == "__main__":
    sys.exit(main())
