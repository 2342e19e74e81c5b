"""Simulated device atomics and unsynchronized scatter writes.

Kernels in this reproduction are vectorized NumPy passes, so "thousands of
threads writing concurrently" becomes a batch of ``(index, value)`` pairs.
Two memory semantics matter for morph algorithms:

* **Atomic read-modify-write** (``atomicMin``/``atomicMax``/``atomicAdd``/
  ``atomicOr``/``atomicCAS``): each operation is applied exactly once; the
  *final* memory state is order-independent for commutative ops, and each
  simulated thread can be handed the value it observed under a chosen
  serialization order.

* **Plain (racy) stores**: when several threads store to the same address
  in the same phase without synchronization, hardware keeps *one* of the
  values — which one is unspecified.  The paper's 3-phase conflict scheme
  (Section 7.3) exists precisely because of this.  :func:`scatter_write`
  models it faithfully: duplicate indices keep the value of the
  *last writer under a randomly shuffled order*, so tests can exercise all
  interleavings by reseeding.

All functions operate in place on NumPy arrays (device global memory).

Every function reports its access batch to the active sanitizer (see
:mod:`repro.vgpu.instrument` and :mod:`repro.analysis`) *before* touching
memory, so shadow recording observes exactly one consistent code path per
primitive regardless of fast paths taken afterwards.  The optional
``tids`` argument attributes each batch element to a simulated thread id;
without it the sanitizer treats every element as a distinct anonymous
thread (which is the right default for one-element-per-thread kernels).
"""

from __future__ import annotations

import numpy as np

from .instrument import SANITIZER

__all__ = [
    "scatter_write",
    "atomic_add",
    "atomic_min",
    "atomic_max",
    "atomic_or",
    "atomic_cas_batch",
    "fetch_add_serialized",
]


def scatter_write(dest: np.ndarray, idx: np.ndarray, val: np.ndarray,
                  rng: np.random.Generator | None = None, *,
                  tids: np.ndarray | None = None,
                  intent: str = "store") -> None:
    """Racy concurrent stores: ``dest[idx] = val`` with unspecified winner.

    When ``idx`` contains duplicates, NumPy fancy assignment keeps the last
    occurrence — a fixed, unrealistic order.  Shuffling the pairs first
    makes the surviving writer uniformly random among the racers, which is
    the adversarial model the 3-phase scheme must tolerate.

    ``intent="mark"`` tags the store as conflict-engine marking-protocol
    traffic: the race there is *by design* and is adjudicated by the
    protocol itself, so the race detector excludes it from generic phase
    analysis and instead audits the protocol's outcome (see
    :meth:`repro.vgpu.instrument.SanitizerHooks.on_marking`).
    """
    idx = np.asarray(idx)
    val = np.asarray(val)
    san = SANITIZER.current
    if san is not None:
        # Recorded unconditionally, before any fast path below.
        san.on_write(dest, idx, tids=tids, kind="plain", intent=intent)
    if rng is not None and idx.size > 1:
        perm = rng.permutation(idx.size)
        idx = idx[perm]
        val = val[perm] if val.ndim else val
    elif rng is not None:
        # Explicit fast path: a permutation of zero or one (index, value)
        # pairs is the identity, so the shuffle is skipped on purpose and
        # the generator stream is left untouched.  There is exactly one
        # store below either way; only the shuffle is elided.
        pass
    dest[idx] = val


def atomic_add(dest: np.ndarray, idx: np.ndarray, val) -> None:
    """``atomicAdd`` without observed return values: exact final state."""
    san = SANITIZER.current
    if san is not None:
        san.on_write(dest, idx, kind="atomic")
    np.add.at(dest, idx, val)


def atomic_min(dest: np.ndarray, idx: np.ndarray, val) -> None:
    """``atomicMin``: exact final state (order-independent)."""
    san = SANITIZER.current
    if san is not None:
        san.on_write(dest, idx, kind="atomic")
    np.minimum.at(dest, idx, val)


def atomic_max(dest: np.ndarray, idx: np.ndarray, val) -> None:
    """``atomicMax``: exact final state (order-independent)."""
    san = SANITIZER.current
    if san is not None:
        san.on_write(dest, idx, kind="atomic")
    np.maximum.at(dest, idx, val)


def atomic_or(dest: np.ndarray, idx, val) -> None:
    """``atomicOr``: exact final state (order-independent).

    ``idx`` may be a tuple of index arrays for multi-dimensional
    destinations (the bit-matrix case in :mod:`repro.pta.bitset`).
    """
    san = SANITIZER.current
    if san is not None:
        san.on_write(dest, idx, kind="atomic")
    np.bitwise_or.at(dest, idx, val)


def fetch_add_serialized(dest: np.ndarray, idx: np.ndarray, val: np.ndarray,
                         rng: np.random.Generator | None = None) -> np.ndarray:
    """``atomicAdd`` that also returns each thread's *observed* old value.

    The observed values depend on the serialization order of same-address
    operations; a random order is used when ``rng`` is given (hardware
    gives no guarantee), else program order.  This is the primitive behind
    concurrent worklist appends: ``slot = atomicAdd(&tail, 1)``.

    Returns the per-operation old values, aligned with ``idx``/``val``.
    Deterministic for a fixed ``rng`` state (same seed, same history ->
    same observed values); an empty ``idx`` batch is a no-op returning an
    empty array and consuming no randomness.
    """
    idx = np.asarray(idx)
    val = np.asarray(val)
    san = SANITIZER.current
    if san is not None:
        san.on_write(dest, idx, kind="atomic")
    if idx.size == 0:
        return np.empty(0, dtype=dest.dtype)
    if val.ndim == 0:
        val = np.full(idx.shape, val)
    order = np.arange(idx.size)
    if rng is not None and idx.size > 1:
        order = rng.permutation(idx.size)
    # Serialize same-address ops: group by index (stable in the chosen
    # order), old value = base + exclusive prefix sum within the group.
    sidx = idx[order]
    sval = val[order]
    grp = np.argsort(sidx, kind="stable")
    gi = sidx[grp]
    gv = sval[grp]
    csum = np.cumsum(gv)
    # exclusive prefix within each equal-index run
    starts = np.flatnonzero(np.concatenate(([True], gi[1:] != gi[:-1])))
    run_base = np.repeat(csum[starts] - gv[starts], np.diff(np.concatenate((starts, [gi.size]))))
    excl = csum - gv - run_base
    old = dest[gi] + excl
    np.add.at(dest, idx, val)
    # un-permute back to caller order
    out = np.empty(idx.size, dtype=dest.dtype)
    out[order[grp]] = old
    return out


def atomic_cas_batch(dest: np.ndarray, idx: np.ndarray, expected, new,
                     rng: np.random.Generator | None = None) -> np.ndarray:
    """Batch ``atomicCAS``: per-op success flags under a serialization order.

    For each operation ``k``: if ``dest[idx[k]] == expected[k]`` at the
    moment it executes, store ``new[k]`` and report success.  Same-address
    operations execute in a (optionally shuffled) serial order.  This is
    the general-purpose lock/claim primitive.  An empty batch succeeds
    vacuously (empty result, no stores, no randomness consumed).
    """
    idx = np.asarray(idx)
    san = SANITIZER.current
    if san is not None:
        san.on_write(dest, idx, kind="atomic")
    expected = np.broadcast_to(np.asarray(expected), idx.shape)
    new = np.broadcast_to(np.asarray(new), idx.shape)
    order = np.arange(idx.size)
    if rng is not None and idx.size > 1:
        order = rng.permutation(idx.size)
    success = np.zeros(idx.size, dtype=bool)
    # Fast path: addresses touched exactly once -> vectorized.
    uniq, counts = np.unique(idx, return_counts=True)
    once = np.isin(idx, uniq[counts == 1])
    ok = once & (dest[idx] == expected)
    dest[idx[ok]] = new[ok]
    success[ok] = True
    # Contended addresses: serialize in the chosen order.
    contended = order[~once[order]]
    for k in contended:
        if dest[idx[k]] == expected[k]:
            dest[idx[k]] = new[k]
            success[k] = True
    return success
