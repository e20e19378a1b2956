"""``generators(seed_words(rows))`` makes the streams of many rows in one
hash pass, and each must be the stream `rng_for` makes of that row, bit for
bit.

SeedSequence folds each int part into one uint32 word below 2**32 (0
included) and two above, so the parts below sit on both sides of that
edge, and the batches mix rows of different word counts. The hash stage is
also checked on its own against numpy's SeedSequence for every entropy
length from 1 to 9 words: the second stage hashes a one-word subseed only
when the subseed's high word is 0, which real seeds almost never reach.
Rows of more than 16 entropy words run past the hash constants made at
import, which `seeding._pool` then extends. `subseed` folds its parts
through the same `seeding._words` as `seed_words`, and `reference_subseed`,
which hands SeedSequence the parts' ints whole, is its oracle.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idxlab.seeding import _generate, _pool, generators, rng_for, seed_words, subseed

EDGES = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)

parts = st.one_of(
    st.sampled_from(EDGES),
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**32 - 1),
    st.sampled_from(("model", "execute", "")),
)
rows = st.lists(st.tuples() | st.lists(parts, max_size=7).map(tuple), max_size=12)


def batched_streams(rows) -> list:
    return generators(seed_words(rows))


def draws(rng) -> list:
    """What a stream gives: floats, ints and its state after them."""
    floats, ints = rng.random(3).tolist(), rng.integers(0, 2**63, 2).tolist()
    return floats, ints, rng.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(rows)
def test_batched_streams_draw_exactly_what_rng_for_draws(batch):
    streams = batched_streams(batch)
    assert len(streams) == len(batch)
    for row, stream in zip(batch, streams):
        assert draws(stream) == draws(rng_for(*row))


def test_every_word_count_edge_in_one_batch():
    batch = [(a, b) for a in EDGES for b in EDGES] + [(7, "x", 2**64 - 1, 0, 2**32)]
    for row, stream in zip(batch, batched_streams(batch)):
        assert draws(stream) == draws(rng_for(*row))


def test_negative_and_wide_ints_keep_their_low_64_bits():
    batch = [(-1,), (2**64 + 5,), (-(2**40), 3)]
    for row, stream in zip(batch, batched_streams(batch)):
        assert draws(stream) == draws(rng_for(*row))


def test_seed_words_are_what_pcg64_asks_of_the_subseeds_seedsequence():
    batch = [(3, "model"), (2**64 - 1, 0, 17), ()]
    for row, words in zip(batch, seed_words(batch)):
        inner = np.random.SeedSequence(subseed(*row))
        assert words.tolist() == inner.generate_state(4, np.uint64).tolist()
    assert seed_words([]).shape == (0, 4)
    assert batched_streams([]) == []


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


# two uint32 words per part: 9 parts fill 18 words, past the 16 that the
# import-time hash constants cover
wide_rows = st.lists(st.integers(2**32, 2**64 - 1), min_size=9, max_size=40).map(tuple)


@settings(max_examples=25, deadline=None)
@given(st.lists(wide_rows, min_size=1, max_size=4))
def test_rows_past_sixteen_entropy_words_draw_what_rng_for_draws(batch):
    for row, stream in zip(batch, batched_streams(batch)):
        assert draws(stream) == draws(rng_for(*row))


def reference_subseed(*parts) -> int:
    """`subseed` with each part folded to one int, crc32 of a string or the
    low 64 bits of an int, for SeedSequence to split into uint32 words."""
    entropy = []
    for p in parts:
        if isinstance(p, str):
            entropy.append(zlib.crc32(p.encode("utf-8")))
        else:
            entropy.append(int(p) & 0xFFFFFFFFFFFFFFFF)
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


# strings, 0, ints below and above 2**32, negative ints and ints past 2**64
any_parts = st.lists(
    parts | st.integers(-(2**70), -1) | st.integers(2**64, 2**80) | st.text(max_size=8),
    max_size=9,
)


@settings(max_examples=200, deadline=None)
@given(any_parts)
def test_subseed_folds_its_parts_as_seedsequence_folds_whole_ints(row):
    assert subseed(*row) == reference_subseed(*row)
