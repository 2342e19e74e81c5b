"""Wall-clock span recorder, Chrome-trace files, and self-time analysis.

This recorder is the benchmark's own and is separate from the
virtual-clock :class:`repro.obs.Tracer`.  A span is a name, a layer,
start and end from ``perf_counter_ns`` (``CLOCK_MONOTONIC``, so spans
from the client, the gateway server and its workers share one time
axis), its id, its parent's id within the same thread, and the op id
shared by every span of one op.  Spans stay in memory and are written
when the run ends.

Analysis joins spans per op.  A span whose parent is in another thread
or process (a server span under the client's HTTP exchange, a worker
span under the server's request handler) gets as its parent the span
of the same op that overlaps it most.  A span's self time is the part
of its parent's interval it covers, minus the part of that its
children cover.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import os
import threading
from array import array
from collections import defaultdict, namedtuple
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

__all__ = ["Recorder", "Span", "OpBreakdown", "breakdown", "load_dump",
           "read_chrome", "write_chrome"]

Span = namedtuple("Span", "name layer start end pid tid id parent op")

#: the layer of each op's root span (the benchmark's own timing of it)
ROOT_LAYER = "op"

_ROW = 7        # name index, start, end, id, parent, op, tid


class Recorder:
    """In-memory spans of one process."""

    def __init__(self, role: str) -> None:
        self.role = role
        self.pid = os.getpid()
        self._names: dict[tuple[str, str], int] = {}
        self._table: list[tuple[str, str]] = []
        self._names_lock = threading.Lock()
        self._buf = array("q")
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- recording --------------------------------------------------- #

    def _index(self, name: str, layer: str) -> int:
        with self._names_lock:
            idx = self._names.get((name, layer))
            if idx is None:
                idx = self._names[(name, layer)] = len(self._table)
                self._table.append((name, layer))
            return idx

    def _thread(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.op = -1
        return local

    def _emit(self, idx, start, end, sid, parent, op) -> None:
        # One ``extend`` call appends the whole row while holding the
        # interpreter lock, so rows from concurrent threads never
        # interleave.
        self._buf.extend((idx, start, end, sid, parent, op,
                          threading.get_native_id()))

    def wrap(self, fn, name: str, layer: str, *, op_of=None,
             on_return=None):
        """``fn`` recording one span per call.

        ``op_of(args, kwargs)`` may name the op the call belongs to
        (``None`` keeps the thread's current op); ``on_return(result,
        op)`` sees each result.
        """
        idx = self._index(name, layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = self._thread()
            prev_op = op = local.op
            if op_of is not None:
                found = op_of(args, kwargs)
                if found is not None:
                    op = local.op = found
            sid = next(self._ids)
            parent = local.stack[-1] if local.stack else 0
            local.stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                local.stack.pop()
                local.op = prev_op
                self._emit(idx, start, end, sid, parent, op)
            if on_return is not None:
                on_return(result, op)
            return result

        return traced

    @contextmanager
    def op(self, op_id: int, name: str = "op", layer: str = ROOT_LAYER):
        """The root span of op ``op_id``; spans inside belong to it."""
        idx = self._index(name, layer)
        local = self._thread()
        prev_op, local.op = local.op, op_id
        sid = next(self._ids)
        parent = local.stack[-1] if local.stack else 0
        local.stack.append(sid)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            local.stack.pop()
            local.op = prev_op
            self._emit(idx, start, end, sid, parent, op_id)

    def add(self, name: str, layer: str, start: int, end: int, *,
            op: int, parent: int = 0) -> int:
        """Record a span measured elsewhere; returns its id."""
        sid = next(self._ids)
        self._emit(self._index(name, layer), start, end, sid, parent, op)
        return sid

    def current_op(self) -> int:
        return self._thread().op

    # -- output ------------------------------------------------------- #

    def spans(self) -> list[Span]:
        buf, table = self._buf, self._table
        out = []
        for i in range(0, len(buf), _ROW):
            name, layer = table[buf[i]]
            out.append(Span(name, layer, buf[i + 1], buf[i + 2], self.pid,
                            buf[i + 6], buf[i + 3], buf[i + 4], buf[i + 5]))
        return out

    def dump(self, path: Path, facts: list | None = None) -> None:
        """Write the spans (and ``facts``) as JSON lines."""
        buf = self._buf
        with open(path, "w") as fh:
            fh.write(json.dumps({"role": self.role, "pid": self.pid,
                                 "names": self._table,
                                 "facts": facts or []}) + "\n")
            for i in range(0, len(buf), _ROW):
                fh.write(json.dumps(buf[i:i + _ROW].tolist()) + "\n")

    def after_fork(self, spans_dir: Path) -> None:
        """Start a forked child with no spans and dump its own at exit.

        Registered with ``multiprocessing.util.register_after_fork``,
        which runs after the child clears its inherited finalizers.
        """
        from multiprocessing.util import Finalize

        self.role = "worker"
        self.pid = os.getpid()
        self._buf = array("q")
        self._local = threading.local()
        self._names_lock = threading.Lock()
        Finalize(self, self.dump,
                 args=(Path(spans_dir) / f"spans-{self.pid}.jsonl",),
                 exitpriority=100)


def load_dump(path: Path) -> tuple[str, int, list[Span], list]:
    """``(role, pid, spans, facts)`` from one :meth:`Recorder.dump`."""
    with open(path) as fh:
        head = json.loads(fh.readline())
        names = head["names"]
        pid = head["pid"]
        spans = []
        for line in fh:
            idx, start, end, sid, parent, op, tid = json.loads(line)
            name, layer = names[idx]
            spans.append(Span(name, layer, start, end, pid, tid, sid,
                              parent, op))
    return head["role"], pid, spans, head["facts"]


# ------------------------------------------------------------------ #
# Chrome trace files                                                  #
# ------------------------------------------------------------------ #

def _open(path: Path, mode: str):
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t", compresslevel=3)
    return open(path, mode)


def write_chrome(path: Path, spans, roles: dict, meta: dict) -> None:
    """One Chrome-trace JSON file (gzip when ``path`` ends in ``.gz``),
    one event per line.  ``ts``/``dur`` are microseconds after the
    earliest span (``otherData.base_ns``), which keeps nanoseconds
    exact in a double."""
    base = min((s.start for s in spans), default=0)
    with _open(path, "w") as fh:
        fh.write('{"displayTimeUnit": "ms", "otherData": '
                 + json.dumps({**meta, "base_ns": base})
                 + ', "traceEvents": [\n')
        first = True
        for pid, role in sorted(roles.items()):
            fh.write(("" if first else ",\n") + json.dumps(
                {"name": "process_name", "ph": "M", "pid": pid,
                 "args": {"name": role}}))
            first = False
        for s in spans:
            fh.write(("" if first else ",\n") + json.dumps(
                {"name": s.name, "cat": s.layer, "ph": "X",
                 "ts": (s.start - base) / 1000,
                 "dur": (s.end - s.start) / 1000,
                 "pid": s.pid, "tid": s.tid,
                 "args": {"id": s.id, "parent": s.parent, "op": s.op}},
                separators=(",", ":")))
            first = False
        fh.write("\n]}\n")


def read_chrome(path: Path) -> tuple[list[Span], dict]:
    """Spans and ``otherData`` of a :func:`write_chrome` file (read line
    by line, so a large trace never sits in memory as JSON objects)."""
    spans = []
    with _open(path, "r") as fh:
        head = fh.readline()
        meta = json.loads(head[head.index("{", 1):head.rindex(
            ', "traceEvents"')])
        base = meta["base_ns"]
        for line in fh:
            line = line.strip().rstrip(",")
            if not line.startswith("{"):
                continue
            ev = json.loads(line)
            if ev.get("ph") != "X":
                continue
            start = base + round(ev["ts"] * 1000)
            args = ev["args"]
            spans.append(Span(ev["name"], ev["cat"], start,
                              start + round(ev["dur"] * 1000), ev["pid"],
                              ev["tid"], args["id"], args["parent"],
                              args["op"]))
    return spans, meta


# ------------------------------------------------------------------ #
# Analysis                                                            #
# ------------------------------------------------------------------ #

class OpBreakdown:
    """Where one op's time went."""

    __slots__ = ("latency_ns", "root_self_ns", "layer_self_ns",
                 "layer_calls")

    def __init__(self, latency_ns, root_self_ns, layer_self_ns,
                 layer_calls) -> None:
        self.latency_ns = latency_ns
        self.root_self_ns = root_self_ns
        #: layer -> self time summed over the op's spans of that layer
        self.layer_self_ns = layer_self_ns
        #: layer -> calls into the layer from outside it
        self.layer_calls = layer_calls


def _key(s: Span) -> tuple[int, int]:
    return s.pid, s.id


def _order(s: Span) -> tuple:
    """Spans sorted by this key list every parent before its children:
    by start, the longer span first, then by key."""
    return s.start, s.start - s.end, _key(s)


def assign_parents(group: list[Span]) -> dict:
    """``span key -> parent key`` (``None`` for the root) within one op.

    The parent is the recorded same-thread parent, else, of the spans
    before it in :func:`_order`, the one that overlaps it most (then the
    one that started last, the deepest; then the shortest; then the one
    recorded later).  Overlap rather than containment, because a
    server's handler may end after the client has read the response.
    Every parent comes earlier in :func:`_order` than its child, so no
    cycle can form.
    """
    keys = {_key(s) for s in group}
    ordered = sorted(group, key=_order)
    parents = {}
    for i, s in enumerate(ordered):
        if s.parent and (s.pid, s.parent) in keys:
            parents[_key(s)] = (s.pid, s.parent)
            continue
        best = max(ordered[:i], default=None, key=lambda c: (
            min(c.end, s.end) - max(c.start, s.start), c.start,
            c.start - c.end, _key(c)))
        parents[_key(s)] = _key(best) if best is not None else None
    return parents


def self_times(group: list[Span], parents: dict) -> dict:
    """``span key -> self ns``: the span's interval clipped to its
    parent's (clipped) interval, minus the union of its children's.
    Time a span spends outside its parent belongs to no op, so the self
    times of an op's spans sum to its root's duration."""
    by_key = {_key(s): s for s in group}
    clipped: dict = {}

    def clip(key):
        if key not in clipped:
            s, parent = by_key[key], parents.get(key)
            lo, hi = s.start, s.end
            if parent is not None:
                plo, phi = clip(parent)
                lo = max(lo, plo)
                hi = max(lo, min(hi, phi))
            clipped[key] = (lo, hi)
        return clipped[key]

    children = defaultdict(list)
    for key in by_key:
        clip(key)
        parent = parents.get(key)
        if parent is not None:
            children[parent].append(clipped[key])
    out = {}
    for key, (lo, hi) in clipped.items():
        covered, cursor = 0, lo
        for start, end in sorted(children[key]):
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        out[key] = (hi - lo) - covered
    return out


def breakdown(spans) -> dict[int, OpBreakdown]:
    """Per-op latency, uncovered root time, and per-layer self time.

    Only ops with a root span (layer :data:`ROOT_LAYER`) appear; spans
    of negative ops (warm-up, ``/stats`` polls) are ignored.
    """
    groups = defaultdict(list)
    for s in spans:
        if s.op >= 0:
            groups[s.op].append(s)
    out = {}
    for op, group in groups.items():
        roots = [s for s in group if s.layer == ROOT_LAYER]
        if len(roots) != 1:
            continue
        root = roots[0]
        parents = assign_parents(group)
        selfs = self_times(group, parents)
        layer_of = {_key(s): s.layer for s in group}
        layer_self = defaultdict(int)
        calls = defaultdict(int)
        for s in group:
            if s is root:
                continue
            layer_self[s.layer] += selfs[_key(s)]
            if layer_of.get(parents.get(_key(s))) != s.layer:
                calls[s.layer] += 1
        out[op] = OpBreakdown(root.end - root.start, selfs[_key(root)],
                              dict(layer_self), dict(calls))
    return out


def coverage(ops: dict[int, OpBreakdown]) -> float:
    """Share of the ops' summed latency that layer spans cover."""
    total = sum(b.latency_ns for b in ops.values())
    if total == 0:
        return 0.0
    return 1.0 - sum(b.root_self_ns for b in ops.values()) / total
