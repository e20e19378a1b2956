"""Deterministic sub-seed derivation.

Every random decision in the package flows from an explicit seed through
numpy's SeedSequence. String parts are folded in via crc32 so derivation never
depends on Python's salted hash().

`rng_for(*parts)` makes one stream: its parts go through one SeedSequence to
a 64-bit `subseed`, and that seed through a second one, inside
`np.random.default_rng`, to PCG64's four 64-bit seed words.
``generators(seed_words(rows))`` makes the streams of many rows at once,
bit-identical to `rng_for` of each row. SeedSequence's hash is fixed uint32
arithmetic (numpy's NEP 19), so `seed_words` runs both stages over every
row as columns of uint32 arrays, and `generators` hands each row's words to
numpy's own PCG64 through a minimal `ISeedSequence`, so numpy still does
the PCG seeding. tests/test_seeding.py checks both stages against numpy's
own. A batch costs a fixed couple of hundred microseconds and then a few
microseconds a row, so a lone stream is cheaper from `rng_for`; the
tuning loop makes its noise streams in batches.
"""

import zlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK = 0xFFFFFFFFFFFFFFFF
_MASK32 = 0xFFFFFFFF

# SeedSequence's constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
# PCG64 is seeded from four uint64 words, eight uint32 ones
_PCG_WORDS = 8


def subseed(*parts) -> int:
    """Fold (int | str) parts into one 64-bit seed, deterministically."""
    entropy = []
    for p in parts:
        if isinstance(p, str):
            entropy.append(zlib.crc32(p.encode("utf-8")))
        else:
            entropy.append(int(p) & _MASK)
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def rng_for(*parts) -> np.random.Generator:
    return np.random.default_rng(subseed(*parts))


def seed_words(rows) -> np.ndarray:
    """PCG64's four uint64 seed words for ``rng_for(*parts)`` of each row
    of ``rows``, one row each.

    Both SeedSequence stages run over every row at once: the parts to the
    64-bit `subseed`, then that seed to the four words. SeedSequence splits
    each int part into uint32 words, one for a value below 2**32 (0
    included) and two above, so the first stage runs once per word count.
    """
    entropies = [_words(parts) for parts in rows]
    sub = np.empty((len(entropies), 2), dtype=np.uint32)
    by_count = {}
    for i, words in enumerate(entropies):
        by_count.setdefault(len(words), []).append(i)
    for positions in by_count.values():
        batch = np.array([entropies[i] for i in positions], dtype=np.uint32)
        sub[positions] = _generate(_pool(batch), 2)
    # the subseed is one word when its high word is 0, and the pool pads a
    # short entropy with zero words, so every row's second stage is the same
    words = np.ascontiguousarray(_generate(_pool(sub), _PCG_WORDS), "<u4")
    # SeedSequence joins each pair of uint32 words low word first
    return words.view("<u8").astype(np.uint64, copy=False)


def generators(words) -> list:
    """A `np.random.Generator` over numpy's PCG64 per row of ``words``,
    each row a row of `seed_words`: ``generators(seed_words(rows))`` is
    ``[rng_for(*parts) for parts in rows]``, bit for bit."""
    return [np.random.Generator(np.random.PCG64(_SeedWords(row))) for row in words]


class _SeedWords(ISeedSequence):
    """One row of `seed_words`, handed to PCG64 in place of a SeedSequence:
    PCG64 asks it once, on construction, for its four uint64 seed words."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _words(parts) -> list:
    """SeedSequence's uint32 words of ``parts`` as `subseed` folds them:
    crc32 of a string, the low 64 bits of an int; one word for a value below
    2**32 (0 included), and the low then the high word of any other."""
    out = []
    for p in parts:
        value = zlib.crc32(p.encode("utf-8")) if isinstance(p, str) else int(p) & _MASK
        if value > _MASK32:
            out += (value & _MASK32, value >> 32)
        else:
            out.append(value)
    return out


def _chain(init: int, mult: int, n: int) -> np.ndarray:
    """``init``, ``init * mult``, ... mod 2**32: SeedSequence's ``n``
    successive hash constants."""
    out = [init]
    while len(out) < n:
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


# Hash call k xors its value with constant k and multiplies it by constant
# k + 1. The pool's first fill makes calls 0-3 and its all-to-all mix calls
# 4-15; each entropy word w past the pool then makes calls 4w to 4w + 3, one
# per pool word. 16 words cover every row this package makes.
_HASH_A = _chain(_INIT_A, _MULT_A, 4 * 16 + 1)
_HASH_B = _chain(_INIT_B, _MULT_B, _PCG_WORDS + 1)


def _mix_constants():
    """Row s: the xor and the multiplier constants of the hash that source
    word s makes for each other pool word in the all-to-all mix, by that
    word; s's own column is unused."""
    xor = np.zeros((_POOL_SIZE, _POOL_SIZE), dtype=np.uint32)
    mult = np.zeros_like(xor)
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if dst != src:
                xor[src, dst], mult[src, dst] = _HASH_A[k], _HASH_A[k + 1]
                k += 1
    return xor, mult


_MIX_XOR, _MIX_MULT = _mix_constants()


def _hashmix(values, xor, mult) -> np.ndarray:
    """SeedSequence's hashmix of ``values`` under the constants ``xor`` and
    ``mult``, broadcast; a new array."""
    out = values ^ xor
    out *= mult
    out ^= out >> _XSHIFT
    return out


def _mix(x, y) -> np.ndarray:
    out = _MIX_MULT_L * x
    out -= _MIX_MULT_R * y
    out ^= out >> _XSHIFT
    return out


def _pool(entropy) -> np.ndarray:
    """SeedSequence's mixed pool of each row of ``entropy``, an (n, words)
    uint32 array; a row shorter than the pool is padded with zero words."""
    n, length = entropy.shape
    consts = _HASH_A
    if len(consts) < 4 * length + 1:
        consts = _chain(_INIT_A, _MULT_A, 4 * length + 1)
    head = np.zeros((n, _POOL_SIZE), dtype=np.uint32)
    head[:, : min(length, _POOL_SIZE)] = entropy[:, :_POOL_SIZE]
    pool = _hashmix(head, consts[0:4], consts[1:5])
    for src in range(_POOL_SIZE):
        # every other word takes the source's hash; the source keeps its value
        source = pool[:, src].copy()
        hashed = _hashmix(source[:, None], _MIX_XOR[src], _MIX_MULT[src])
        pool = _mix(pool, hashed)
        pool[:, src] = source
    for src in range(_POOL_SIZE, length):
        k = 4 * src
        xor, mult = consts[k : k + 4], consts[k + 1 : k + 5]
        hashed = _hashmix(entropy[:, src : src + 1], xor, mult)
        pool = _mix(pool, hashed)
    return pool


def _generate(pool, n_words: int) -> np.ndarray:
    """SeedSequence's ``generate_state(n_words)`` of each row of ``pool``,
    as uint32 words: word i hashes pool word i mod 4."""
    cycled = np.tile(pool, -(-n_words // _POOL_SIZE))[:, :n_words]
    return _hashmix(cycled, _HASH_B[:n_words], _HASH_B[1 : n_words + 1])
