import numpy as np
import pytest

from alps.rng import (EXPLORE_STREAM, LEAP_STREAM, RWM_STREAM,
                      SCALING_STREAM, SWAP_STREAM, StreamFactory, substream)


def test_substream_reproducible():
    a = substream(7, 3, 11).standard_normal(50)
    b = substream(7, 3, 11).standard_normal(50)
    np.testing.assert_array_equal(a, b)


def test_substream_distinct_keys_differ():
    base = substream(7, 3, 11).standard_normal(20)
    assert not np.array_equal(base, substream(8, 3, 11).standard_normal(20))
    assert not np.array_equal(base, substream(7, 4, 11).standard_normal(20))
    assert not np.array_equal(base, substream(7, 3, 12).standard_normal(20))


def test_seeds_outside_the_64_bit_key_are_rejected():
    # the key used to take seed mod 2^64, so 2^64 + 1 drew what 1 draws
    for seed in (-1, 2 ** 64, 2 ** 64 + 1):
        with pytest.raises(ValueError, match="seed"):
            substream(seed, 3)
        with pytest.raises(ValueError, match="seed"):
            StreamFactory(seed)
    top = substream(2 ** 64 - 1, 3).random(4)
    np.testing.assert_array_equal(
        StreamFactory(2 ** 64 - 1).stream(3).random(4), top)


def test_stream_constants_distinct():
    names = {RWM_STREAM, SWAP_STREAM, LEAP_STREAM, EXPLORE_STREAM,
             SCALING_STREAM}
    assert len(names) == 5


def test_factory_rwm_stream_matches_substream():
    factory = StreamFactory(seed=42)
    a = factory.stream(RWM_STREAM, 17).random(10)
    b = substream(42, RWM_STREAM, 17).random(10)
    np.testing.assert_array_equal(a, b)


def test_factory_streams_independent_of_call_order():
    f1 = StreamFactory(seed=5)
    x = f1.stream(LEAP_STREAM, 3).random(4)
    y = f1.stream(RWM_STREAM, 0).random(4)
    f2 = StreamFactory(seed=5)
    y2 = f2.stream(RWM_STREAM, 0).random(4)
    x2 = f2.stream(LEAP_STREAM, 3).random(4)
    np.testing.assert_array_equal(x, x2)
    np.testing.assert_array_equal(y, y2)


def test_factory_rewinds_one_generator_per_stream():
    factory = StreamFactory(seed=9)
    generators = {}
    for counter in (0, 1, 7, (1 << 64) + 3, 1):
        for sid in (RWM_STREAM, SWAP_STREAM, LEAP_STREAM, EXPLORE_STREAM):
            gen = factory.stream(sid, counter)
            fresh = substream(9, sid, counter)
            np.testing.assert_array_equal(gen.standard_normal(5),
                                          fresh.standard_normal(5))
            np.testing.assert_array_equal(gen.random(3), fresh.random(3))
            # leaves a buffered uint32 for the next request to discard
            assert (gen.integers(0, 1000, dtype=np.uint32)
                    == fresh.integers(0, 1000, dtype=np.uint32))
            assert generators.setdefault(sid, gen) is gen
    assert len({id(gen) for gen in generators.values()}) == 4
