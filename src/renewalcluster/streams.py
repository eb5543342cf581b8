"""Reproducible, splittable random-number streams.

Streams are backed by the counter-based Philox generator keyed by
(seed, stream_id): identical keys reproduce identical draw sequences, and
distinct stream ids give statistically independent streams, so block k of
an experiment's replications can use ``stream_for(seed, e).substream(k)``
and run in any order.
"""

from __future__ import annotations

import functools
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


class _Key(tuple):
    """Two 64-bit Philox key words as the bit generator's seed sequence,
    which reads its key as ``generate_state(2, np.uint64)``."""

    def generate_state(self, n_words, dtype):
        return self


@functools.cache
def _register_key():
    # on first use, so that importing this module does not import numpy.random
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_Key)


@dataclass(frozen=True)
class RngStream:
    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """``Generator(Philox(key=(seed, stream_id) mod 2^64))``, word for word.

        The key goes in as the bit generator's seed sequence, so no
        ``SeedSequence`` is built, which would read OS entropy for nothing
        and triple the cost.
        """
        _register_key()
        key = _Key((self.seed & _MASK64, self.stream_id & _MASK64))
        return np.random.Generator(np.random.Philox(key))

    def substream(self, index: int) -> "RngStream":
        """Independent child stream; substream(i) == substream(i) always."""
        return RngStream(self.seed, _mix64(self.stream_id, index))


def stream_for(seed: int, experiment: str) -> RngStream:
    """Stream of a named experiment; its replications draw from substreams."""
    digest = hashlib.blake2b(experiment.encode(), digest_size=8).digest()
    base = int.from_bytes(digest, "little")
    return RngStream(seed, _mix64(base, 0))
