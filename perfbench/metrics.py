"""Metric definitions: the end-to-end set and the per-layer set.

`END_TO_END` and `per_layer_names()` are the names BENCHMARK.json lists;
the self-test checks that the two agree.  Per-layer values come from the
traced passes and are given per pass.
"""

from __future__ import annotations

import numpy as np

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "pass_s": "s"}

# Statistics reported for each traced span name.
CS = ("calls", "self_s")
CTS = ("calls", "total_s", "self_s")
CSR = ("calls", "self_s", "repeat_ratio")
SPAN_STATS: dict[str, tuple[str, ...]] = {
    "io.read_ccm": CS, "io.read_dg": CS, "io.ccm_text": CS, "io.write_ccm": CS,
    "core.validate": CS, "core.canonical_recolor": CS, "core.Scheme.tensor": CS,
    "core.Scheme.composition_colors": CS, "core.Scheme.hash": CS,
    "constructions.wl_closure": CS,
    "constructions.quotient": CSR, "constructions.restriction": CSR,
    "constructions.thin_scheme": ("self_s",), "constructions.wreath": ("self_s",),
    "constructions.is_block": ("self_s",),
    "lattice.all_equivalences": CSR,
    "lattice.generated_closed_set": CS, "lattice.equivalence_from_colors": CS,
    "lattice.minimal_equivalences": CS, "lattice.thin_radical": CS,
    "digraph.basis_digraph": CS, "digraph.basis_graph": CS,
    "digraph.cyclically_p_partite": CS, "digraph.is_bipartite": CS,
    "digraph.strongly_connected_components": CS,
    "checks.check_partite_criterion": CTS, "checks.check_bipartite_criterion": CTS,
    "checks.check_fiber_reduction": CTS, "checks.check_quotient_factorization": CTS,
    "checks.check_primitive_structure": CTS, "checks.check_block_criterion": CTS,
    "checks.is_p_scheme": CTS,
    "corpus.generate_corpus": ("total_s",),
    **{f"cli.{sub}": ("total_s",) for sub in
       ("gen", "validate", "info", "theorem1", "corollary2", "closed-sets")},
}
STAT_UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "repeat_ratio": "ratio"}

FAMILIES = ("thin-cyclic", "thin-abelian", "thin-dihedral", "rank-two",
            "wreath-cyclic", "wreath-triple", "wreath-mixed", "quotient",
            "wl-circulant", "wl-random")
COUNTERS = {
    "io.bytes_in": "bytes",
    "constructions.wl_closure.out_rank": "count",
    "lattice.size": "count",
    **{f"corpus.member_reports.total_s.{f}": "s" for f in FAMILIES},
    "corpus.member_reports.wait_s": "s",
}

# Share of the self time under a marker span that lies in the named spans.
# key: (marker span names, span-name prefixes counted in the share)
ATTRIBUTION = {
    "attrib.check_primitive_structure.lattice_share": (
        ("checks.check_primitive_structure",),
        ("lattice.", "core.Scheme.composition_colors")),
    "attrib.generate_corpus.lattice_share": (
        ("corpus.generate_corpus",), ("lattice.", "core.Scheme.composition_colors")),
    "attrib.ladder_circulant.wl_closure_share": (
        tuple(f"bench.ladder.circulant.n{n}" for n in (64, 96, 128)),
        ("constructions.wl_closure",)),
    "attrib.ladder_chords_n128.basis_graph_share": (
        ("bench.ladder.chords.n128",),
        ("digraph.basis_graph", "checks.check_bipartite_criterion")),
}
TRACE_STATS = {"trace.overhead_s": "s", "trace.spans": "count"}


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    names = {f"{span}.{stat}": STAT_UNITS[stat]
             for span, stats in SPAN_STATS.items() for stat in stats}
    names.update(COUNTERS)
    names.update({k: "ratio" for k in ATTRIBUTION})
    names.update(TRACE_STATS)
    return names


def attribution(tracer, sp, self_s) -> dict[str, tuple[float, str]]:
    """For each ATTRIBUTION entry: (share, name of the largest self time)."""
    out = {}
    names = np.array(tracer.names, dtype=object)
    for metric, (markers, counted) in ATTRIBUTION.items():
        under = tracer.nearest_marker(sp, set(markers)) >= 0
        if not under.any():
            out[metric] = (0.0, "-")
            continue
        per_name = np.bincount(sp["name"][under], weights=self_s[under],
                               minlength=len(names))
        share = sum(per_name[i] for i, nm in enumerate(names)
                    if nm.startswith(counted)) / per_name.sum()
        out[metric] = (float(share), str(names[int(np.argmax(per_name))]))
    return out


def per_layer(tracer, passes: int, overhead_s: float) -> tuple[dict, dict]:
    """(metrics as {name: (value, unit)}, attribution tops {metric: span name})."""
    sp = tracer.spans()
    self_s = tracer.self_times(sp)
    dur = sp["end"] - sp["start"]
    k = len(tracer.names)
    calls = np.bincount(sp["name"], minlength=k)
    totals = np.bincount(sp["name"], weights=dur, minlength=k)
    selfs = np.bincount(sp["name"], weights=self_s, minlength=k)
    index = {nm: i for i, nm in enumerate(tracer.names)}
    c = tracer.counters

    values: dict[str, float] = {}
    for span, stats in SPAN_STATS.items():
        i = index.get(span)  # None: the span never opened in this run
        n_calls = int(calls[i]) if i is not None else 0
        summed = {
            "calls": n_calls,
            "total_s": totals[i] if i is not None else 0.0,
            "self_s": selfs[i] if i is not None else 0.0,
        }
        for stat in stats:
            if stat == "repeat_ratio":
                values[f"{span}.{stat}"] = c.get(f"{span}.repeats", 0) / n_calls if n_calls else 0.0
            else:
                values[f"{span}.{stat}"] = float(summed[stat]) / passes
    for name in COUNTERS:
        values[name] = float(c.get(name, 0)) / passes
    tops = {}
    for metric, (share, top) in attribution(tracer, sp, self_s).items():
        values[metric] = share
        tops[metric] = top
    values["trace.overhead_s"] = overhead_s
    values["trace.spans"] = len(sp["name"]) / passes
    units = per_layer_names()
    return {name: (values[name], unit) for name, unit in units.items()}, tops
