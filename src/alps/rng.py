"""Counter-based random number streams.

Every stochastic component of a run draws from its own Philox stream,
keyed by (seed, stream id) with the sweep index placed in the counter
block.  Streams are therefore independent of execution order: a phase
running on sweep t sees the same draws whatever ran before it.  The RWM
phase draws every level's steps of the sweep as one block from the RWM
stream: first all the z ~ N(0, I), then all the acceptance uniforms.
The leap phase draws its V leaps as one block from the leap stream: the
V component uniforms, one (V, dim) block of z ~ N(0, I), then the V
acceptance uniforms.
"""

from __future__ import annotations

import numpy as np

_U64 = 0xFFFFFFFFFFFFFFFF
# The seed is one 64-bit word of the Philox key.
SEED_LIMIT = 1 << 64
# Philox holds four 64-bit words of output; a full buffer_pos marks it empty.
_EMPTY_BUFFER = (0, 0, 0, 0)

# Fixed stream-id layout: one stream per kind of move, each sweep its own
# counter block.  The RWM stream holds all of a sweep's RWM draws, every
# level's; the leap stream all of its leap draws.
RWM_STREAM = 1 << 32
SWAP_STREAM = (1 << 32) + 1
LEAP_STREAM = (1 << 32) + 2
EXPLORE_STREAM = (1 << 32) + 3
SCALING_STREAM = (1 << 32) + 4


def _check_seed(seed: int) -> None:
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError("seed must be a non-negative integer below 2^64")


def substream(seed: int, stream: int, counter: int = 0,
              generator: np.random.Generator | None = None
              ) -> np.random.Generator:
    """Generator for one (stream, counter) cell of the keyed family.

    The 128-bit Philox key holds (seed, stream); `counter` selects a
    disjoint 2^128-long block of the counter space, so per-sweep
    substreams never overlap.  Given a Philox `generator` from an earlier
    call, its state is rewound to this cell instead: the key, the counter
    block and an emptied output buffer, so it draws exactly what a newly
    built generator would.  Seeds outside [0, SEED_LIMIT) are errors, so
    no two seeds share a key.
    """
    _check_seed(seed)
    key = (seed, stream & _U64)
    ctr = (0, 0, counter & _U64, (counter >> 64) & _U64)
    if generator is None:
        return np.random.Generator(np.random.Philox(
            counter=np.array(ctr, dtype=np.uint64),
            key=np.array(key, dtype=np.uint64)))
    generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": ctr, "key": key},
        "buffer": _EMPTY_BUFFER, "buffer_pos": len(_EMPTY_BUFFER),
        "has_uint32": 0, "uinteger": 0}
    return generator


class StreamFactory:
    """Bound (seed -> substream) helper used by the run orchestrators.

    It keeps one generator per stream id.  A later request for the same
    id rewinds the generator returned earlier to the requested counter
    block, so a caller must be done with a stream's previous generator
    before it asks for that stream again.  Different ids never share a
    generator.
    """

    def __init__(self, seed: int):
        _check_seed(seed)
        self.seed = int(seed)
        self._generators: dict = {}

    def stream(self, stream: int, counter: int = 0) -> np.random.Generator:
        gen = substream(self.seed, stream, counter,
                        self._generators.get(stream))
        self._generators[stream] = gen
        return gen
