"""Counter-based random number streams.

Every stochastic component of a run draws from its own Philox stream,
keyed by (seed, stream id) with the sweep index placed in the counter
block.  Streams are therefore independent of execution order: a level
kernel running on sweep t sees the same draws whether the levels are
updated serially or on parallel workers.
"""

from __future__ import annotations

import numpy as np

_U64 = 0xFFFFFFFFFFFFFFFF

# Fixed stream-id layout.  Levels 0..n use ids 0..n directly.
SWAP_STREAM = (1 << 32) + 1
LEAP_STREAM = (1 << 32) + 2
EXPLORE_STREAM = (1 << 32) + 3
SCALING_STREAM = (1 << 32) + 4


def substream(seed: int, stream: int, counter: int = 0) -> np.random.Generator:
    """Generator for one (stream, counter) cell of the keyed family.

    The 128-bit Philox key holds (seed, stream); `counter` selects a
    disjoint 2^128-long block of the counter space, so per-sweep
    substreams never overlap.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    key = np.array([seed & _U64, stream & _U64], dtype=np.uint64)
    ctr = np.array([0, 0, counter & _U64, (counter >> 64) & _U64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=ctr, key=key))


class StreamFactory:
    """Bound (seed -> substream) helper used by the run orchestrators."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self.seed = int(seed)

    def stream(self, stream: int, counter: int = 0) -> np.random.Generator:
        return substream(self.seed, stream, counter)

    def level_stream(self, level: int, sweep: int) -> np.random.Generator:
        return substream(self.seed, level, sweep)
