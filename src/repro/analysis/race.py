"""Dynamic race detector for the virtual GPU (``repro.analysis``).

A :class:`RaceDetector` plugs into the :mod:`repro.vgpu.instrument` hook
point and shadows every access the simulated device issues, in the
spirit of ``cuda-memcheck --tool racecheck`` / ThreadSanitizer:

* **Phase analysis** — plain (non-atomic) writes recorded by the
  instrumented :mod:`repro.vgpu.atomics` are buffered per kernel scope
  and barrier phase.  At each barrier the phase's accesses are analyzed:
  two accesses to the same address from different simulated threads,
  at least one of which is a plain write, are a race — unless the
  address is covered by the conflict engine's ownership marks (below).
  Atomic operations are treated as synchronization and never conflict.

* **Marking-protocol audit** — the 3-phase engine's internal mark
  stores are intentionally racy (``intent="mark"``); they are excluded
  from phase analysis and instead the *outcome* of every marking round
  is audited via :meth:`on_marking`: if two "winning" threads end up
  owning overlapping element sets, that is precisely the Section 7.3
  write-write race (the 2-phase scheme's bug), reported with thread,
  kernel, and phase attribution.  Disjoint winners register exclusive
  element ownership for the remainder of the enclosing kernel scope, so
  winners' apply-phase stores to their own elements stay silent.

* **Memory checking** — allocations from
  :class:`repro.vgpu.memory.DeviceAllocator` are tracked so accesses to
  freed arrays (e.g. a stale reference kept across ``realloc``) report
  use-after-free, repeated frees report double-free, and indices
  outside an array's extent (including negative indices, which NumPy
  would silently wrap) report out-of-bounds.

* **Barrier-divergence checking** — :func:`repro.vgpu.kernel.\
spmd_launch` hands the per-thread barrier counts of every generator
  kernel to :meth:`on_spmd_barriers`; threads reaching different
  barrier counts (the lost-update / deadlock pattern Section 7.3
  reasons about) are reported as findings.

Ownership is registered in the *element-id space*: the marking protocol
grants a thread exclusive access to graph elements, whose state is
conventionally spread over several parallel arrays indexed by element
id, so ownership exempts same-index accesses on any array.  Ownership
tables are replaced wholesale by each marking round (marks are only
valid until the next round) and dropped when their kernel scope ends.

Device arrays are identified by their base buffer; pass whole
allocations (not views) to the instrumented primitives.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..vgpu.instrument import SANITIZER, SanitizerHooks
from .reports import (BARRIER_DIVERGENCE, DOUBLE_FREE, Finding, OUT_OF_BOUNDS,
                      READ_WRITE, USE_AFTER_FREE, WRITE_WRITE,
                      format_findings)

__all__ = ["RaceDetector"]

_MAX_THREADS_PER_FINDING = 8


class _Frame:
    """One kernel scope: buffered accesses plus element ownership."""

    __slots__ = ("name", "phase", "events", "owned")

    def __init__(self, name: str) -> None:
        self.name = name
        self.phase = 0
        #: list of (key, addr int64[], tid int64[], is_write bool)
        self.events: list = []
        #: element id -> owning thread id (replaced per marking round)
        self.owned: dict[int, int] = {}


class RaceDetector(SanitizerHooks):
    """Shadow-memory race detector, memory checker, and barrier checker.

    Usage::

        det = RaceDetector()
        with det.activate():
            result = refine_gpu(mesh)     # or any instrumented driver
        det.assert_clean()                # raises listing findings

    ``reports`` holds :class:`~repro.analysis.reports.Finding` records
    (capped at ``max_reports``; the overflow count is in
    ``suppressed``).
    """

    def __init__(self, *, max_reports: int = 200) -> None:
        self.reports: list[Finding] = []
        self.suppressed = 0
        self.max_reports = max_reports
        self._frames: list[_Frame] = [_Frame("<global>")]
        self._bases: dict[int, np.ndarray] = {}    # key -> base (stable ids)
        self._labels: dict[int, str] = {}
        self._freed: dict[int, np.ndarray] = {}
        self._next_label = 0
        self._anon_tid = 0

    # ------------------------------------------------------------------ #
    # public API                                                         #
    # ------------------------------------------------------------------ #
    @property
    def clean(self) -> bool:
        return not self.reports and not self.suppressed

    @contextmanager
    def activate(self):
        """Context manager installing this detector as the sanitizer.

        Pending accesses of all open scopes are analyzed on exit.
        """
        with SANITIZER.activate(self):
            try:
                yield self
            finally:
                self.flush()

    @contextmanager
    def kernel(self, name: str):
        """Manual kernel scope for hand-written (test) kernels."""
        self.on_kernel_begin(name)
        try:
            yield self
        finally:
            self.on_kernel_end(name)

    def watch(self, arr: np.ndarray, label: str) -> np.ndarray:
        """Attach a human-readable label to ``arr`` for reports."""
        key = self._key(arr)
        self._labels[key] = label
        return arr

    def flush(self) -> None:
        """Analyze all buffered accesses (innermost scope outward)."""
        for frame in reversed(self._frames):
            self._flush_frame(frame)

    def summary(self) -> str:
        lines = [f"repro.analysis: {len(self.reports)} finding(s)"
                 + (f" (+{self.suppressed} suppressed)" if self.suppressed
                    else "")]
        body = format_findings(self.reports)
        if body:
            lines.append(body)
        return "\n".join(lines)

    def assert_clean(self) -> None:
        """Raise ``AssertionError`` with the full report unless clean."""
        if not self.clean:
            raise AssertionError(self.summary())

    # ------------------------------------------------------------------ #
    # SanitizerHooks implementation                                      #
    # ------------------------------------------------------------------ #
    def on_kernel_begin(self, name: str, **info) -> None:
        self._frames.append(_Frame(name))

    def on_kernel_end(self, name: str) -> None:
        frame = self._frames[-1]
        self._flush_frame(frame)
        if len(self._frames) > 1:
            self._frames.pop()

    def on_barrier(self) -> None:
        frame = self._frames[-1]
        self._flush_frame(frame)
        frame.phase += 1

    def on_write(self, arr, idx, *, tids=None, kind="plain",
                 intent="store") -> None:
        key = self._register(arr)
        addr, extent = self._flatten(arr, idx)
        self._check_memory(key, arr, addr, extent)
        if kind == "atomic" or intent == "mark":
            # Atomics synchronize (never conflict); marking-protocol
            # stores are adjudicated by on_marking instead.
            return
        self._frames[-1].events.append(
            (key, addr, self._tids(tids, addr.size), True))

    def on_read(self, arr, idx, *, tids=None, intent="load") -> None:
        key = self._register(arr)
        addr, extent = self._flatten(arr, idx)
        self._check_memory(key, arr, addr, extent)
        if intent == "mark":
            return
        self._frames[-1].events.append(
            (key, addr, self._tids(tids, addr.size), False))

    def on_alloc(self, arr) -> None:
        key = self._register(arr)
        self._freed.pop(key, None)

    def on_free(self, arr) -> None:
        key = self._register(arr)
        if key in self._freed:
            self._report(Finding(
                kind=DOUBLE_FREE, message="device array freed twice",
                kernel=self._frames[-1].name, phase=self._frames[-1].phase,
                array=self._label(key, arr)))
            return
        self._freed[key] = self._bases[key]

    def on_marking(self, name, claims, winners, *, scheme: str) -> None:
        frame = self._frames[-1]
        winners = np.asarray(winners, dtype=bool)
        if claims.num_rows == 0 or not winners.any():
            return
        rows = claims.row_ids()
        vals = np.asarray(claims.values, dtype=np.int64)
        wmask = winners[rows]
        if not wmask.any():
            self._set_ownership({})
            return
        pairs = np.unique(np.stack([vals[wmask], rows[wmask]]), axis=1)
        waddr, wtid = pairs[0], pairs[1]
        # Elements claimed by >= 2 distinct winning threads: the marking
        # protocol failed to serialize "exclusive" ownership — this is
        # the Section 7.3 write-write race.
        u, start, counts = np.unique(waddr, return_index=True,
                                     return_counts=True)
        overlap = u[counts >= 2]
        for a in overlap.tolist():
            tids = wtid[waddr == a]
            self._report(Finding(
                kind=WRITE_WRITE,
                message=(f"{scheme} marking granted overlapping exclusive "
                         f"ownership of element {a} to "
                         f"{tids.size} threads"),
                kernel=name, phase=frame.phase, array="<elements>",
                address=int(a),
                threads=tuple(int(t) for t in
                              tids[:_MAX_THREADS_PER_FINDING])))
        good = counts == 1
        self._set_ownership(dict(zip(u[good].tolist(),
                                     wtid[start[good]].tolist())))

    def on_spmd_barriers(self, name, counts) -> None:
        counts = np.asarray(counts, dtype=np.int64)
        if counts.size == 0 or int(counts.min()) == int(counts.max()):
            return
        lo, hi = int(counts.min()), int(counts.max())
        laggards = np.flatnonzero(counts < hi)
        self._report(Finding(
            kind=BARRIER_DIVERGENCE,
            message=(f"threads reached differing barrier counts "
                     f"(min {lo}, max {hi}; {laggards.size} of "
                     f"{counts.size} threads diverged)"),
            kernel=name, phase=self._frames[-1].phase,
            threads=tuple(int(t) for t in
                          laggards[:_MAX_THREADS_PER_FINDING])))

    # ------------------------------------------------------------------ #
    # internals                                                          #
    # ------------------------------------------------------------------ #
    def _key(self, arr: np.ndarray) -> int:
        base = arr
        while isinstance(base, np.ndarray) and base.base is not None \
                and isinstance(base.base, np.ndarray):
            base = base.base
        return id(base)

    def _register(self, arr: np.ndarray) -> int:
        base = arr
        while isinstance(base, np.ndarray) and base.base is not None \
                and isinstance(base.base, np.ndarray):
            base = base.base
        key = id(base)
        if key not in self._bases:
            self._bases[key] = base    # strong ref keeps id() stable
        return key

    def _label(self, key: int, arr: np.ndarray) -> str:
        if key not in self._labels:
            self._labels[key] = f"arr{self._next_label}" \
                                f"<{arr.dtype}[{arr.size}]>"
            self._next_label += 1
        return self._labels[key]

    def _tids(self, tids, n: int) -> np.ndarray:
        if tids is None:
            # Anonymous lanes: each batch element is its own simulated
            # thread; negative ids keep them apart from caller-named ids.
            out = -1 - np.arange(self._anon_tid, self._anon_tid + n,
                                 dtype=np.int64)
            self._anon_tid += n
            return out
        t = np.asarray(tids, dtype=np.int64).ravel()
        if t.size == n:
            return t
        if t.size == 1:
            return np.full(n, t[0], dtype=np.int64)
        raise ValueError(f"tids length {t.size} != batch length {n}")

    def _flatten(self, arr: np.ndarray, idx) -> tuple[np.ndarray, int]:
        """Flat element addresses plus the checked extent."""
        if isinstance(idx, tuple):
            parts = [np.asarray(p, dtype=np.int64).ravel() for p in idx]
            flat = np.zeros(max((p.size for p in parts), default=0),
                            dtype=np.int64)
            for dim, p in enumerate(parts):
                stride = int(np.prod(arr.shape[dim + 1:], dtype=np.int64))
                flat = flat + p * stride
            return flat, arr.size
        idx = np.asarray(idx)
        if idx.dtype == bool:
            return np.flatnonzero(idx), int(idx.size)
        extent = int(arr.shape[0]) if arr.ndim else 1
        return idx.astype(np.int64, copy=False).ravel(), extent

    def _check_memory(self, key: int, arr: np.ndarray, addr: np.ndarray,
                      extent: int) -> None:
        frame = self._frames[-1]
        if key in self._freed:
            self._report(Finding(
                kind=USE_AFTER_FREE,
                message="access to a freed device array (stale reference "
                        "after free/realloc?)",
                kernel=frame.name, phase=frame.phase,
                array=self._label(key, arr),
                address=int(addr[0]) if addr.size else -1))
        if addr.size:
            bad = (addr < 0) | (addr >= extent)
            if bad.any():
                first = int(addr[np.argmax(bad)])
                self._report(Finding(
                    kind=OUT_OF_BOUNDS,
                    message=(f"{int(bad.sum())} access(es) outside extent "
                             f"[0, {extent}) (negative indices wrap in "
                             f"NumPy but are out of bounds on the device)"),
                    kernel=frame.name, phase=frame.phase,
                    array=self._label(key, arr), address=first))

    def _set_ownership(self, owned: dict[int, int]) -> None:
        # Ownership outlives the marking kernel: it covers the apply
        # stores in the *enclosing* scope, until the next marking round
        # or the end of that scope.
        target = self._frames[-2] if len(self._frames) >= 2 \
            else self._frames[-1]
        target.owned = owned

    def _owner_of(self, a: int) -> int | None:
        for frame in reversed(self._frames):
            if a in frame.owned:
                return frame.owned[a]
        return None

    def _flush_frame(self, frame: _Frame) -> None:
        if not frame.events:
            return
        events, frame.events = frame.events, []
        by_key: dict[int, list] = {}
        for ev in events:
            by_key.setdefault(ev[0], []).append(ev)
        for key, evs in by_key.items():
            addr = np.concatenate([e[1] for e in evs]) if evs else \
                np.empty(0, dtype=np.int64)
            tid = np.concatenate([e[2] for e in evs])
            isw = np.concatenate([np.full(e[1].size, e[3]) for e in evs])
            self._analyze(key, frame, addr, tid, isw)

    def _analyze(self, key: int, frame: _Frame, addr: np.ndarray,
                 tid: np.ndarray, isw: np.ndarray) -> None:
        if addr.size == 0:
            return
        label = self._label(key, self._bases[key])
        u, counts = np.unique(addr, return_counts=True)
        multi = u[counts >= 2]
        # A hazard needs a plain write; restrict to written addresses.
        cand = np.intersect1d(multi, np.unique(addr[isw]),
                              assume_unique=True)
        owned_now = {a for f in self._frames for a in f.owned} \
            | set(frame.owned)
        if owned_now:
            owned_hit = u[np.isin(u, np.fromiter(owned_now, dtype=np.int64,
                                                 count=len(owned_now)))]
            cand = np.union1d(cand, owned_hit)
        for a in cand.tolist():
            sel = addr == a
            t_sel, w_sel = tid[sel], isw[sel]
            writers = np.unique(t_sel[w_sel])
            readers = np.unique(t_sel[~w_sel])
            owner = self._owner_of(a)
            if owner is not None:
                bad_w = writers[writers != owner]
                bad_r = readers[readers != owner]
                if bad_w.size:
                    self._report(Finding(
                        kind=WRITE_WRITE,
                        message=(f"plain write to element {a} exclusively "
                                 f"owned by thread {owner}"),
                        kernel=frame.name, phase=frame.phase, array=label,
                        address=int(a),
                        threads=tuple(int(t) for t in
                                      bad_w[:_MAX_THREADS_PER_FINDING])))
                elif bad_r.size and writers.size:
                    self._report(Finding(
                        kind=READ_WRITE,
                        message=(f"unsynchronized read of element {a} "
                                 f"while owner thread {owner} writes it"),
                        kernel=frame.name, phase=frame.phase, array=label,
                        address=int(a),
                        threads=tuple(int(t) for t in
                                      bad_r[:_MAX_THREADS_PER_FINDING])))
                continue
            if writers.size >= 2:
                self._report(Finding(
                    kind=WRITE_WRITE,
                    message=(f"{writers.size} threads issue unsynchronized "
                             f"plain writes to the same address within one "
                             f"barrier phase; the surviving value is "
                             f"unspecified"),
                    kernel=frame.name, phase=frame.phase, array=label,
                    address=int(a),
                    threads=tuple(int(t) for t in
                                  writers[:_MAX_THREADS_PER_FINDING])))
            elif writers.size == 1:
                others = readers[readers != writers[0]]
                if others.size:
                    self._report(Finding(
                        kind=READ_WRITE,
                        message=(f"read races an unsynchronized plain write "
                                 f"by thread {int(writers[0])} in the same "
                                 f"barrier phase"),
                        kernel=frame.name, phase=frame.phase, array=label,
                        address=int(a),
                        threads=tuple(int(t) for t in np.concatenate(
                            [writers, others])[:_MAX_THREADS_PER_FINDING])))

    def _report(self, finding: Finding) -> None:
        if len(self.reports) >= self.max_reports:
            self.suppressed += 1
            return
        self.reports.append(finding)
