"""Span tracing of `asck` from outside the program.

`Tracer.install` replaces each traced public function by a wrapper in
every `asck.*` namespace that holds it (a function imported by several
modules is replaced everywhere), and wraps the traced `Scheme` methods
and properties on the class.  `Tracer.restore` puts every original back.

Each span records its name, start, end, parent span and thread.  Spans
are appended to per-thread arrays, so threads never share a buffer, and
stay in memory until the run ends.  A span opened on a thread with no
open span of its own (a worker of the corpus thread pool) takes the
innermost open span of the installing thread as its parent.

Self time is a span's duration minus the part of it covered by its
children: same-thread children nest and are summed, children on other
threads may overlap and their intervals are merged first.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
import weakref
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

ROW_BITS = 32
NO_PARENT = -1

# (module, attribute) under `asck`; the module name is the layer, and a
# dotted attribute is a Scheme method or property.
TARGETS: tuple[tuple[str, str], ...] = (
    ("io", "read_ccm"),
    ("io", "read_dg"),
    ("io", "ccm_text"),
    ("io", "write_ccm"),
    ("core", "validate"),
    ("core", "canonical_recolor"),
    ("core", "Scheme.tensor"),
    ("core", "Scheme.composition_colors"),
    ("core", "Scheme.hash"),
    ("constructions", "wl_closure"),
    ("constructions", "quotient"),
    ("constructions", "restriction"),
    ("constructions", "thin_scheme"),
    ("constructions", "wreath"),
    ("constructions", "is_block"),
    ("lattice", "all_equivalences"),
    ("lattice", "generated_closed_set"),
    ("lattice", "equivalence_from_colors"),
    ("lattice", "minimal_equivalences"),
    ("lattice", "thin_radical"),
    ("digraph", "basis_digraph"),
    ("digraph", "basis_graph"),
    ("digraph", "cyclically_p_partite"),
    ("digraph", "is_bipartite"),
    ("digraph", "strongly_connected_components"),
    ("checks", "check_partite_criterion"),
    ("checks", "check_bipartite_criterion"),
    ("checks", "check_fiber_reduction"),
    ("checks", "check_quotient_factorization"),
    ("checks", "check_primitive_structure"),
    ("checks", "check_block_criterion"),
    ("checks", "is_p_scheme"),
    ("corpus", "generate_corpus"),
    ("corpus", "run_corpus_checks"),
    ("corpus", "member_reports"),
)


class _Buffer:
    """Spans opened on one thread, as parallel typed arrays."""

    def __init__(self, index: int):
        self.base = index << ROW_BITS
        self.thread = threading.get_ident()
        self.parent = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._buffers: list[_Buffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._home: _Buffer | None = None
        self._patches: list[tuple[object, str, object]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._seen: dict[str, weakref.WeakKeyDictionary] = defaultdict(
            weakref.WeakKeyDictionary)

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _open(self, name_id: int) -> tuple[_Buffer, int]:
        buf = self._buffer()
        if buf.stack:
            parent = buf.stack[-1]
        elif self._home is not None and self._home is not buf and self._home.stack:
            parent = self._home.stack[-1]
        else:
            parent = NO_PARENT
        row = len(buf.start)
        buf.parent.append(parent)
        buf.name.append(name_id)
        buf.start.append(0.0)
        buf.end.append(0.0)
        buf.stack.append(buf.base | row)
        return buf, row

    @staticmethod
    def _close(buf: _Buffer, row: int, start: float, end: float) -> None:
        buf.stack.pop()
        buf.start[row] = start
        buf.end[row] = end

    def wrap(self, name: str, fn, after=None):
        """Wrap fn in a span; after(args, result, wall_s, cpu_s) runs on success."""
        name_id = self._name_id(name)
        clock = time.perf_counter
        cpu_clock = time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf, row = self._open(name_id)
            cpu0 = cpu_clock() if after is not None else 0.0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._close(buf, row, t0, t1)
            if after is not None:
                after(args, result, t1 - t0, cpu_clock() - cpu0)
            return result

        return traced

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self._name_id(name))

    def count(self, key: str, value: float = 1) -> None:
        """Add to a counter; hooks run on pool threads, hence the lock."""
        with self._lock:
            self.counters[key] += value

    def seen_before(self, key_name: str, scheme, arg) -> bool:
        """Whether (scheme, arg) was passed to key_name before; records it."""
        with self._lock:
            seen = self._seen[key_name].setdefault(scheme, set())
            if arg in seen:
                return True
            seen.add(arg)
            return False

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; call restore() to undo."""
        self._home = self._buffer()
        hooks = self._after_hooks()
        for module, attr in TARGETS:
            name = f"{module}.{attr}"
            after = hooks.get(name)
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(sys.modules[f"asck.{module}"], cls_name)
                raw = cls.__dict__[member]
                if isinstance(raw, property):
                    new = property(self.wrap(name, raw.fget, after), doc=raw.__doc__)
                else:
                    new = self.wrap(name, raw, after)
                self._patches.append((cls, member, raw))
                setattr(cls, member, new)
                continue
            original = getattr(sys.modules[f"asck.{module}"], attr)
            wrapper = self.wrap(name, original, after)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "asck" and not mod_name.startswith("asck."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _after_hooks(self) -> dict:
        """Per span name, a hook that updates counters after a call."""
        count = self.count

        def read_file(args, result, wall, cpu):
            if isinstance(args[0], (str, Path)):
                count("io.bytes_in", os.path.getsize(args[0]))

        def closure(args, result, wall, cpu):
            count("constructions.wl_closure.out_rank", result.r)

        def memo_probe(name, key):
            def hook(args, result, wall, cpu):
                if self.seen_before(name, args[0], key(args)):
                    count(f"{name}.repeats")
            return hook

        def lattice(args, result, wall, cpu):
            if self.seen_before("lattice.all_equivalences", args[0], None):
                count("lattice.all_equivalences.repeats")
            else:
                count("lattice.size", len(result))

        def member(args, result, wall, cpu):
            count(f"corpus.member_reports.total_s.{args[0].family}", wall)
            count("corpus.member_reports.wait_s", wall - cpu)

        return {
            "io.read_ccm": read_file,
            "io.read_dg": read_file,
            "constructions.wl_closure": closure,
            "constructions.quotient": memo_probe(
                "constructions.quotient", lambda a: a[1].classes),
            "constructions.restriction": memo_probe(
                "constructions.restriction", lambda a: tuple(sorted({int(p) for p in a[1]}))),
            "lattice.all_equivalences": lattice,
            "corpus.member_reports": member,
        }

    # -- analysis ------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """All spans as arrays; parent holds a row index into them, or -1,
        and thread the id of the thread that ran the span."""
        bufs = self._buffers
        offsets = np.cumsum([0] + [len(b.start) for b in bufs])[:-1]

        def cat(field, dtype):
            return np.concatenate(
                [np.frombuffer(getattr(b, field), dtype=dtype) for b in bufs]
                + [np.zeros(0, dtype)])

        parent = cat("parent", np.int64)
        has = parent >= 0
        parent[has] = (offsets[parent[has] >> ROW_BITS]
                       + (parent[has] & ((1 << ROW_BITS) - 1)))
        thread = np.concatenate([np.full(len(b.start), b.thread, dtype=np.int64)
                                 for b in bufs] + [np.zeros(0, np.int64)])
        return {"parent": parent, "name": cat("name", np.int32),
                "start": cat("start", np.float64), "end": cat("end", np.float64),
                "thread": thread}

    @staticmethod
    def self_times(sp: dict[str, np.ndarray]) -> np.ndarray:
        dur = sp["end"] - sp["start"]
        parent, thread = sp["parent"], sp["thread"]
        n = len(dur)
        has = parent >= 0
        same = np.zeros(n, dtype=bool)
        same[has] = thread[has] == thread[parent[has]]
        cover = np.bincount(parent[same], weights=dur[same], minlength=n)
        cross: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for i in np.nonzero(has & ~same)[0]:
            cross[int(parent[i])].append((sp["start"][i], sp["end"][i]))
        for p, intervals in cross.items():
            lo, hi = sp["start"][p], sp["end"][p]
            covered, cur_s, cur_e = 0.0, None, None
            for s, e in sorted(intervals):
                s, e = max(s, lo), min(e, hi)
                if cur_e is None or s > cur_e:
                    if cur_e is not None:
                        covered += cur_e - cur_s
                    cur_s, cur_e = s, e
                else:
                    cur_e = max(cur_e, e)
            if cur_e is not None:
                covered += cur_e - cur_s
            cover[p] += covered
        return dur - cover

    def nearest_marker(self, sp: dict[str, np.ndarray], markers: set[str]) -> np.ndarray:
        """For each span, the row of its nearest ancestor-or-self whose name
        is a marker, or -1."""
        n = len(sp["parent"])
        marker_ids = [i for i, nm in enumerate(self.names) if nm in markers]
        is_marker = np.isin(sp["name"], marker_ids)
        root = n  # sentinel row standing for "no marker above"
        up = np.where(sp["parent"] >= 0, sp["parent"], root)
        jump = np.where(is_marker, np.arange(n), up)
        jump = np.append(jump, root)
        while True:  # pointer doubling; markers and the sentinel are fixed points
            nxt = jump[jump]
            if np.array_equal(nxt, jump):
                break
            jump = nxt
        out = jump[:n]
        return np.where(out == root, -1, out)

    def dump(self, path: Path) -> None:
        """Write every span, with the name table, to one uncompressed .npz
        file (compressing millions of timestamps takes seconds)."""
        sp = self.spans()
        np.savez(path, names=np.array(self.names, dtype=str),
                 parent=sp["parent"].astype(np.int32), name=sp["name"].astype(np.uint16),
                 thread=sp["thread"], start=sp["start"], end=sp["end"])


class _Span:
    __slots__ = ("tracer", "name_id", "buf", "row", "t0")

    def __init__(self, tracer: Tracer, name_id: int):
        self.tracer, self.name_id = tracer, name_id

    def __enter__(self):
        self.buf, self.row = self.tracer._open(self.name_id)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.buf, self.row, self.t0, time.perf_counter())
        return False
