"""`seeding.rng_streams` makes the streams of many rows in one hash pass,
and each must be the stream `rng_for` makes of that row, bit for bit.

SeedSequence folds each int part into one uint32 word below 2**32 (0
included) and two above, so the parts below sit on both sides of that
edge, and the batches mix rows of different word counts. The hash stage is
also checked on its own against numpy's SeedSequence for every entropy
length from 1 to 9 words: the second stage hashes a one-word subseed only
when the subseed's high word is 0, which real seeds almost never reach.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idxlab.seeding import _generate, _pool, rng_for, rng_streams, seed_words, subseed

EDGES = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)

parts = st.one_of(
    st.sampled_from(EDGES),
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**32 - 1),
    st.sampled_from(("model", "execute", "")),
)
rows = st.lists(st.tuples() | st.lists(parts, max_size=7).map(tuple), max_size=12)


def draws(rng) -> list:
    """What a stream gives: floats, ints and its state after them."""
    floats, ints = rng.random(3).tolist(), rng.integers(0, 2**63, 2).tolist()
    return floats, ints, rng.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(rows)
def test_batched_streams_draw_exactly_what_rng_for_draws(batch):
    streams = rng_streams(batch)
    assert len(streams) == len(batch)
    for row, stream in zip(batch, streams):
        assert draws(stream) == draws(rng_for(*row))


def test_every_word_count_edge_in_one_batch():
    batch = [(a, b) for a in EDGES for b in EDGES] + [(7, "x", 2**64 - 1, 0, 2**32)]
    for row, stream in zip(batch, rng_streams(batch)):
        assert draws(stream) == draws(rng_for(*row))


def test_negative_and_wide_ints_keep_their_low_64_bits():
    batch = [(-1,), (2**64 + 5,), (-(2**40), 3)]
    for row, stream in zip(batch, rng_streams(batch)):
        assert draws(stream) == draws(rng_for(*row))


def test_seed_words_are_what_pcg64_asks_of_the_subseeds_seedsequence():
    batch = [(3, "model"), (2**64 - 1, 0, 17), ()]
    for row, words in zip(batch, seed_words(batch)):
        inner = np.random.SeedSequence(subseed(*row))
        assert words.tolist() == inner.generate_state(4, np.uint64).tolist()
    assert seed_words([]).shape == (0, 4)
    assert rng_streams([]) == []


words32 = st.integers(0, 2**32 - 1) | st.sampled_from((0, 1, 2**32 - 1))


@pytest.mark.parametrize("length", range(1, 10))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_hash_stage_is_seedsequences(length, data):
    words = data.draw(st.lists(words32, min_size=length, max_size=length))
    pool = _pool(np.array([words], dtype=np.uint32))
    for n_words in (2, 8):
        want = np.random.SeedSequence(words).generate_state(n_words)
        assert _generate(pool, n_words)[0].tolist() == want.tolist()
