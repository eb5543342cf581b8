"""Reproducible, splittable random-number streams.

Streams are backed by the counter-based Philox generator keyed by
(seed, stream_id): identical keys reproduce identical draw sequences, and
distinct stream ids give statistically independent streams, so block k of
an experiment's replications can use ``stream_for(seed, e).substream(k)``
and run in any order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

__all__ = ["RngStream", "stream_for"]

_MASK64 = (1 << 64) - 1


def _mix64(a: int, b: int) -> int:
    """SplitMix64-style finalizer combining two 64-bit values."""
    x = (a * 0x9E3779B97F4A7C15 + b + 0xD1B54A32D192ED03) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


@dataclass(frozen=True)
class RngStream:
    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array(
            [self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64
        )
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, index: int) -> "RngStream":
        """Independent child stream; substream(i) == substream(i) always."""
        return RngStream(self.seed, _mix64(self.stream_id, index))


def stream_for(seed: int, experiment: str) -> RngStream:
    """Stream of a named experiment; its replications draw from substreams."""
    digest = hashlib.blake2b(experiment.encode(), digest_size=8).digest()
    base = int.from_bytes(digest, "little")
    return RngStream(seed, _mix64(base, 0))
