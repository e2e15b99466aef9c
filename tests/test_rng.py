"""The keyed streams against numpy's own SeedSequence, key by key and bit by bit.

Every stream must be exactly `Generator(PCG64(SeedSequence(master,
spawn_key=key)))`: the same `bit_generator.state` and the same raw words
after it. A batch of client streams must equal its rows derived one by
one, and a key the vectorised derivation cannot express must be refused.
"""

import numpy as np
import pytest

from fedsymptoms import rng
from fedsymptoms.rng import (
    client_data_stream,
    client_train_stream,
    init_stream,
    population_stream,
    selection_stream,
)

MASTER_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)
ROUNDS = (0, 1, 4, 2**32 - 1)
CLIENT_IDS = (0, 1, 99_999)
# unsorted, with a repeat and the largest id that is one 32-bit word
MIXED_BATCH = (99_999, 0, 7, 2**32 - 1, 1, 7, 4_096)
CLIENT_STREAMS = ((client_data_stream, rng._CLIENT_DATA),
                  (client_train_stream, rng._CLIENT_TRAIN))
CLIENT_STREAM_IDS = ("data", "train")


def reference(master_seed, key):
    seq = np.random.SeedSequence(master_seed, spawn_key=key)
    return np.random.Generator(np.random.PCG64(seq))


def assert_same_stream(stream, expected):
    assert stream.bit_generator.state == expected.bit_generator.state
    assert np.array_equal(stream.bit_generator.random_raw(8),
                          expected.bit_generator.random_raw(8))


@pytest.mark.parametrize("master_seed", MASTER_SEEDS)
def test_init_and_population_streams_are_numpys(master_seed):
    assert_same_stream(init_stream(master_seed), reference(master_seed, (rng._INIT,)))
    assert_same_stream(population_stream(master_seed),
                       reference(master_seed, (rng._POPULATION,)))


@pytest.mark.parametrize("round_index", ROUNDS)
@pytest.mark.parametrize("master_seed", MASTER_SEEDS)
def test_selection_stream_is_numpys(master_seed, round_index):
    assert_same_stream(selection_stream(master_seed, round_index),
                       reference(master_seed, (rng._SELECTION, round_index)))


@pytest.mark.parametrize("derive, purpose", CLIENT_STREAMS, ids=CLIENT_STREAM_IDS)
@pytest.mark.parametrize("round_index", ROUNDS)
@pytest.mark.parametrize("master_seed", MASTER_SEEDS)
def test_client_streams_are_numpys(master_seed, round_index, derive, purpose):
    for batch in [[client_id] for client_id in CLIENT_IDS] + [list(MIXED_BATCH)]:
        streams = derive(master_seed, batch, round_index)
        assert len(streams) == len(batch)
        for client_id, stream in zip(batch, streams):
            assert_same_stream(stream, reference(master_seed, (purpose, client_id, round_index)))


@pytest.mark.parametrize("derive", [client_data_stream, client_train_stream],
                         ids=CLIENT_STREAM_IDS)
def test_a_batch_row_is_its_batch_of_one(derive):
    # ids as a list of ints and as the int64 array a selection draws
    for batch in (list(MIXED_BATCH), np.array(MIXED_BATCH, dtype=np.int64)):
        streams = derive(5, batch, 3)
        for client_id, stream in zip(MIXED_BATCH, streams):
            [alone] = derive(5, [client_id], 3)
            assert_same_stream(stream, alone)


def test_an_empty_batch_derives_no_streams():
    assert client_data_stream(1, [], 0) == []
    assert client_train_stream(1, np.array([], dtype=np.int64), 0) == []


@pytest.mark.parametrize("round_index", [2**32, 2**32 + 5, 2**64 + 1, 2**200])
def test_a_scalar_entry_of_several_words_is_numpys(round_index):
    # numpy mixes an entry in as all of its 32-bit words, so later words shift too
    assert_same_stream(selection_stream(7, round_index),
                       reference(7, (rng._SELECTION, round_index)))
    for derive, purpose in CLIENT_STREAMS:
        for client_id, stream in zip(MIXED_BATCH, derive(7, list(MIXED_BATCH), round_index)):
            assert_same_stream(stream, reference(7, (purpose, client_id, round_index)))


@pytest.mark.parametrize("master_seed", [2**96 + 3, 2**128, 2**160 - 1])
def test_a_master_seed_past_four_words_is_numpys(master_seed):
    assert_same_stream(init_stream(master_seed), reference(master_seed, (rng._INIT,)))
    [stream] = client_data_stream(master_seed, [12], 2)
    assert_same_stream(stream, reference(master_seed, (rng._CLIENT_DATA, 12, 2)))


@pytest.mark.parametrize("bad", [-1, 2**32, 2**40, 2**64])
@pytest.mark.parametrize("derive", [client_data_stream, client_train_stream],
                         ids=CLIENT_STREAM_IDS)
def test_a_client_id_outside_one_word_is_refused_by_name(derive, bad):
    with pytest.raises(ValueError, match=rf"\[{bad}\]"):
        derive(1, [3, bad, 4], 0)
    if -2**63 <= bad < 2**63:
        with pytest.raises(ValueError, match=rf"\[{bad}\]"):
            derive(1, np.array([3, bad, 4], dtype=np.int64), 0)


def test_a_negative_scalar_entry_is_refused():
    with pytest.raises(ValueError, match="-2"):
        selection_stream(1, -2)
    with pytest.raises(ValueError, match="-3"):
        init_stream(-3)
