"""Seed-derived random streams.

Every stochastic step draws from its own generator, keyed by the master
seed plus integer labels, so results never depend on scheduling order or
on how many draws an unrelated step consumed.

Each stream is numpy's `Generator(PCG64(SeedSequence(master_seed,
spawn_key=key)))`, bit for bit. The SeedSequence hash is computed here on
uint32 arrays instead: the master seed's pool once (cached), then each
key word mixed into an (n, 4) pool for a whole batch of keys that differ
only in their client id, and the eight state words of every stream in one
(n, 8) pass. PCG64 seeds itself from those words exactly as it would from
numpy's SeedSequence. In each round, each run derives the data streams of
all its selected clients in one call, and their train streams in another.
`tests/test_rng.py` pins every stream kind to numpy's own SeedSequence.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

# Stream labels. Values are part of the reproducibility contract: changing
# them changes every downstream result for a given master seed.
_INIT = 0
_POPULATION = 1
_SELECTION = 2
_CLIENT_DATA = 3
_CLIENT_TRAIN = 4

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK = 0xFFFF_FFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_SHIFT = 16


def _words(value: int) -> list[int]:
    """A non-negative int as numpy's 32-bit entropy words, least significant first."""
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    words = [value & _MASK]
    while value := value >> 32:
        words.append(value & _MASK)
    return words


@functools.lru_cache(maxsize=64)
def _hash_consts(first: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's hash constants INIT_A * MULT_A**k for k = first ... first + 3, and the next ones."""
    consts = [_INIT_A * pow(_MULT_A, k, 1 << 32) & _MASK for k in range(first, first + 5)]
    consts = np.array(consts, np.uint32)
    return consts[:-1], consts[1:]


# generate_state hashes output word i, pool word i % 4, with INIT_B * MULT_B**i
# and the next one
_OUT_CONSTS = np.array([_INIT_B * pow(_MULT_B, k, 1 << 32) & _MASK for k in range(9)], np.uint32)


# uint32 arrays throughout: numpy warns on a scalar's wrap-around, not an array's
def _hashmix(value: np.ndarray, xor, mult) -> np.ndarray:
    """numpy's hashmix: xor a word with a hash constant, multiply it by the next one."""
    value = (value ^ xor) * mult
    return value ^ value >> _SHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """numpy's mix of the hashed word y into the pool word x."""
    result = _MIX_L * x - _MIX_R * y
    return result ^ result >> _SHIFT


def _mix_word(pool: np.ndarray, word, word_index: int) -> np.ndarray:
    """Mix the word_index-th word past the seed's 4 (an int, or a (n, 1) column) into the pool.

    Filling and mixing the pool takes 16 hash constants and each later word
    4 more, one per pool word.
    """
    return _mix(pool, _hashmix(word, *_hash_consts(_POOL_SIZE * (_POOL_SIZE + word_index))))


@functools.lru_cache(maxsize=16)
def _seed_pool(master_seed: int) -> tuple[np.ndarray, int]:
    """The (1, 4) pool after the master seed's words, and the index of the next word.

    A non-empty spawn key pads the seed to at least 4 words. Those fill the
    pool and are mixed together; any seed word past the fourth is mixed in
    as a key word would be.
    """
    words = _words(master_seed)
    words += [0] * (_POOL_SIZE - len(words))
    pool = _hashmix(np.array([words[:_POOL_SIZE]], np.uint32), *_hash_consts(0))
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                xor, mult = _hash_consts(k)
                pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src], xor[0], mult[0]))
                k += 1
    for word_index, word in enumerate(words[_POOL_SIZE:]):
        pool = _mix_word(pool, word, word_index)
    pool.flags.writeable = False
    return pool, len(words) - _POOL_SIZE


def _client_words(client_ids) -> np.ndarray:
    """Client ids as a (n, 1) uint32 column; each must be one 32-bit word."""
    ids = np.asarray(client_ids)
    if ids.ndim != 1:
        raise ValueError(f"client ids must be a 1-D sequence, got shape {ids.shape}")
    if ids.size == 0 or (ids.dtype.kind in "iu" and ids.min() >= 0 and ids.max() <= _MASK):
        return ids.astype(np.uint32)[:, None]
    bad = [v for v in ids.tolist() if not (isinstance(v, int) and 0 <= v <= _MASK)]
    raise ValueError(f"client ids must be integers in [0, 2**32), got {bad}")


@functools.cache
def _state_words_type() -> type:
    """numpy's ISeedSequence for one stream's state: the 4 uint64 words PCG64 asks for.

    Defined on first use, because importing numpy.random (~20 ms) would
    otherwise fall on every import of the package, not on the first draw.
    """
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return StateWords


def _streams(master_seed: int, key: tuple) -> list[np.random.Generator]:
    """One Generator per row of the batch of spawn keys `key` under master_seed.

    Each key entry is an int, mixed in as all of its 32-bit words, or a
    sequence of client ids, one word per id and one stream per id; with
    no such entry the batch is one stream.
    """
    pool, word_index = _seed_pool(operator.index(master_seed))
    for entry in key:
        if isinstance(entry, (int, np.integer)):
            for word in _words(operator.index(entry)):
                pool = _mix_word(pool, word, word_index)
                word_index += 1
        else:
            pool = _mix_word(pool, _client_words(entry), word_index)
            word_index += 1
    state = _hashmix(np.concatenate([pool, pool], axis=1), _OUT_CONSTS[:-1], _OUT_CONSTS[1:])
    state_words = _state_words_type()
    return [np.random.Generator(np.random.PCG64(state_words(row)))
            for row in state.view("<u8")]


def init_stream(master_seed: int) -> np.random.Generator:
    """Stream used once to initialize the global model parameters."""
    [stream] = _streams(master_seed, (_INIT,))
    return stream


def population_stream(master_seed: int) -> np.random.Generator:
    """Stream used once to draw client sizes and country assignments."""
    [stream] = _streams(master_seed, (_POPULATION,))
    return stream


def selection_stream(master_seed: int, round_index: int) -> np.random.Generator:
    """Per-round stream for sampling the participating clients."""
    [stream] = _streams(master_seed, (_SELECTION, round_index))
    return stream


def client_data_stream(master_seed: int, client_ids, round_index: int
                       ) -> list[np.random.Generator]:
    """Per-(client, round) streams driving survey synthesis, one per client id, in order."""
    return _streams(master_seed, (_CLIENT_DATA, client_ids, round_index))


def client_train_stream(master_seed: int, client_ids, round_index: int
                        ) -> list[np.random.Generator]:
    """Per-(client, round) streams driving minibatch shuffling, one per client id, in order."""
    return _streams(master_seed, (_CLIENT_TRAIN, client_ids, round_index))
