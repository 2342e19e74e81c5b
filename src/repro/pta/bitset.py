"""Bit-matrix points-to sets.

Points-to sets are dense bit vectors over the variable universe — the
representation GPU points-to analyses use ([18]) — stored as one
``(num_vars, words)`` uint64 matrix so whole-set operations (union,
difference, population count) are single vectorized passes.
"""

from __future__ import annotations

import numpy as np

from ..vgpu.atomics import atomic_or

__all__ = ["BitMatrix"]


class BitMatrix:
    """``num_sets`` bit sets over a ``universe``-sized domain."""

    def __init__(self, num_sets: int, universe: int) -> None:
        self.universe = universe
        self.words = max(1, -(-universe // 64))
        self.bits = np.zeros((num_sets, self.words), dtype=np.uint64)

    # ------------------------------------------------------------------ #
    def add(self, set_ids, members) -> None:
        """Insert ``members[i]`` into set ``set_ids[i]`` (vectorized)."""
        set_ids = np.asarray(set_ids, dtype=np.int64)
        members = np.asarray(members, dtype=np.int64)
        w = members >> 6
        b = np.uint64(1) << (members & 63).astype(np.uint64)
        # atomicOr, as on the device: duplicate (set, word) pairs are
        # commutative and the sanitizer sees the access batch.
        atomic_or(self.bits, (set_ids, w), b)

    def contains(self, set_id: int, member: int) -> bool:
        w, b = member >> 6, np.uint64(1) << np.uint64(member & 63)
        return bool(self.bits[set_id, w] & b)

    def members(self, set_id: int) -> np.ndarray:
        """Sorted member ids of one set."""
        return self.members_of(np.asarray([set_id], dtype=np.int64))[1]

    def members_of(self, set_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Members of several sets at once, as ``(pos, member)`` pairs.

        ``pos[i]`` indexes ``set_ids``; pairs come grouped by position
        and sorted by member within a group.  Only nonzero words are
        unpacked, through a little-endian byte view, so bit ``b`` of
        word ``w`` is member ``64 * w + b`` on any host.
        """
        rows = self.bits[np.asarray(set_ids, dtype=np.int64)]
        pos, word = np.nonzero(rows)
        octets = rows[pos, word].astype("<u8", copy=False).view(np.uint8)
        hit, bit = np.nonzero(np.unpackbits(octets.reshape(-1, 8), axis=1,
                                            bitorder="little"))
        return pos[hit], (word[hit] << 6) + bit

    def union_into(self, dst: int, srcs: np.ndarray) -> bool:
        """``bits[dst] |= OR of bits[srcs]``; True if dst changed."""
        if len(srcs) == 0:
            return False
        acc = np.bitwise_or.reduce(self.bits.take(srcs, axis=0), axis=0)
        row = self.bits[dst]
        acc |= row
        if acc.tobytes() == row.tobytes():
            return False
        row[:] = acc
        return True

    def counts(self) -> np.ndarray:
        """Population count per set."""
        return np.bitwise_count(self.bits).sum(axis=1).astype(np.int64)

    def copy(self) -> "BitMatrix":
        out = BitMatrix.__new__(BitMatrix)
        out.universe = self.universe
        out.words = self.words
        out.bits = self.bits.copy()
        return out

    def equal(self, other: "BitMatrix") -> bool:
        return bool(np.array_equal(self.bits, other.bits))
