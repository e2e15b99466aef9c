"""Noise mechanisms and synthetic survey generation.

Monte-Carlo checks compare empirical rates against closed-form firing
probabilities using a 99.9% binomial interval (z = 3.2905).
"""

import json
import math
import re
from dataclasses import fields

import numpy as np
import pytest

from fedsymptoms import sampling
from fedsymptoms.mlp import TrainConfig, Window, init_params, mean_loss, train_local
from fedsymptoms.sampling import (
    LAPLACE_DP,
    NO_NOISE,
    NORMAL_THRESHOLD,
    UNIFORM_THRESHOLD,
    ClientDataset,
    NoiseMechanism,
    build_phrase_table,
    simulate_person,
    synthesize_client,
)
from fedsymptoms.surveys import CountrySurvey, build_distribution

from conftest import matrix_phrase_table, tiny_table

Z999 = 3.2905


def firing_rate(mech, n, seed=0):
    rng = np.random.default_rng(seed)
    return sum(mech.fires(rng) for _ in range(n)) / n


def assert_rate(mech, expected, n=200_000):
    rate = firing_rate(mech, n)
    sigma = math.sqrt(expected * (1 - expected) / n)
    assert abs(rate - expected) < Z999 * sigma, (rate, expected)


def test_mechanism_validation():
    with pytest.raises(ValueError):
        NoiseMechanism(kind="bogus", noise_level=0.5)
    with pytest.raises(ValueError):
        NoiseMechanism(kind=UNIFORM_THRESHOLD, noise_level=1.5)
    with pytest.raises(ValueError):
        NoiseMechanism(kind=LAPLACE_DP, noise_level=0.5)
    with pytest.raises(ValueError):
        NoiseMechanism(kind=LAPLACE_DP, noise_level=0.5, epsilon=0.0)
    with pytest.raises(ValueError, match="epsilon"):
        NoiseMechanism(kind=LAPLACE_DP, noise_level=0.5, epsilon=math.nan)
    with pytest.raises(ValueError, match="epsilon"):
        NoiseMechanism(kind=UNIFORM_THRESHOLD, noise_level=0.5, epsilon=3.0)


@pytest.mark.parametrize("kind, level, epsilon, name", [
    (UNIFORM_THRESHOLD, True, None, "noise_level"),
    (NORMAL_THRESHOLD, False, None, "noise_level"),
    (LAPLACE_DP, True, 2.0, "noise_level"),
    (UNIFORM_THRESHOLD, "0.5", None, "noise_level"),
    (LAPLACE_DP, 0.5, True, "epsilon"),
    (LAPLACE_DP, 0.5, "2", "epsilon"),
], ids=["uniform-level-true", "normal-level-false", "laplace-level-true", "level-string",
        "epsilon-true", "epsilon-string"])
def test_mechanism_refuses_a_bool_or_other_type_for_a_number(kind, level, epsilon, name):
    # True would pass the range checks as 1: level 1.0, or an epsilon written as True
    with pytest.raises(ValueError, match=f"{name} must be a number"):
        NoiseMechanism(kind, level, epsilon)


def test_mechanism_takes_integer_and_numpy_numbers():
    assert NoiseMechanism(UNIFORM_THRESHOLD, 1).noise_level == 1.0
    assert NoiseMechanism(LAPLACE_DP, np.float64(0.5), np.int64(2)).epsilon == 2


def test_mechanism_stores_its_numbers_as_python_floats():
    # a float32 level kept as it is would be spelled 0.1 in the CSVs but drawn against
    # 0.10000000149011612, keep the Laplace scale 1 / epsilon in float32, and fail json.dumps
    mech = NoiseMechanism(LAPLACE_DP, np.float32(0.1), np.float32(2.0))
    assert type(mech.noise_level) is float and type(mech.epsilon) is float
    assert mech.noise_level == 0.10000000149011612 and mech.epsilon == 2.0
    assert json.dumps([mech.noise_level, mech.epsilon]) == "[0.10000000149011612, 2.0]"
    assert type(NoiseMechanism(UNIFORM_THRESHOLD, np.int64(1)).noise_level) is float


def test_uniform_threshold_fire_rate_equals_level():
    assert_rate(NoiseMechanism(UNIFORM_THRESHOLD, 0.3), 0.3)


def test_uniform_threshold_edge_levels():
    rng = np.random.default_rng(0)
    never = NoiseMechanism(UNIFORM_THRESHOLD, 0.0)
    assert not any(never.fires(rng) for _ in range(10_000))
    always = NoiseMechanism(UNIFORM_THRESHOLD, 1.0)
    assert all(always.fires(rng) for _ in range(10_000))


def test_normal_threshold_fire_rate_is_gaussian_cdf():
    # P(N(0,1) < 0.5) = Phi(0.5)
    expected = 0.5 * (1 + math.erf(0.5 / math.sqrt(2)))
    assert_rate(NoiseMechanism(NORMAL_THRESHOLD, 0.5), expected)


@pytest.mark.parametrize("epsilon", [1.0, 2.0, 10.0])
def test_laplace_fire_rate_matches_tail_formula(epsilon):
    # P(Laplace(0, 1/eps) > level) = exp(-eps * level) / 2 for level >= 0
    expected = 0.5 * math.exp(-epsilon * 0.5)
    assert_rate(NoiseMechanism(LAPLACE_DP, 0.5, epsilon), expected)


def test_laplace_high_epsilon_rarely_fires():
    mech = NoiseMechanism(LAPLACE_DP, 0.5, 100.0)
    assert firing_rate(mech, 100_000) == 0.0


def make_fixture():
    survey = CountrySurvey(
        country="Testland",
        total=1000,
        symptom_counts={"alpha": 800, "beta": 200, "gamma": 0},
    )
    dist = build_distribution(survey)
    corpus = ("alpha", "beta", "gamma", "delta", "epsilon")
    table = tiny_table(["alpha", "beta", "gamma", "delta", "epsilon"])
    return dist, corpus, build_phrase_table(table, corpus, [dist])


def quiet_fixture():
    """A one-symptom survey shown to 1 in 10**9 persons: a few persons emit nothing."""
    dist = build_distribution(CountrySurvey(country="Quiet", total=10**9,
                                            symptom_counts={"alpha": 1}))
    corpus = ("alpha", "beta")
    return dist, corpus, build_phrase_table(tiny_table(["alpha", "beta"]), corpus, [dist])


def test_simulate_person_no_noise_emits_prominent_only():
    dist, corpus, _ = make_fixture()
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(2000):
        seen.update(simulate_person(dist, corpus, NO_NOISE, rng))
    assert seen == {"alpha", "beta"}


def test_simulate_person_display_frequency_oracle():
    dist, corpus, _ = make_fixture()
    rng = np.random.default_rng(6)
    n = 50_000
    counts = {"alpha": 0, "beta": 0}
    for _ in range(n):
        for phrase in simulate_person(dist, corpus, NO_NOISE, rng):
            counts[phrase] += 1
    for name, p in dist.entries:
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(counts[name] / n - p) < Z999 * sigma


def test_simulate_person_full_noise_fills_every_slot():
    # at level 1.0 the miss branch always fires, so each prominent-symptom
    # slot emits either the true phrase or a random corpus term
    dist, corpus, _ = make_fixture()
    mech = NoiseMechanism(UNIFORM_THRESHOLD, 1.0)
    rng = np.random.default_rng(7)
    for _ in range(500):
        assert len(simulate_person(dist, corpus, mech, rng)) == len(dist.entries)


def test_simulate_person_noise_draws_corpus_terms():
    dist, corpus, _ = make_fixture()
    mech = NoiseMechanism(UNIFORM_THRESHOLD, 1.0)
    rng = np.random.default_rng(8)
    emitted = set()
    for _ in range(2000):
        emitted.update(simulate_person(dist, corpus, mech, rng))
    assert emitted <= set(corpus)
    assert "delta" in emitted and "epsilon" in emitted


def test_synthesize_client_balances_labels():
    dist, _, table = make_fixture()
    ds = synthesize_client(200, dist, NO_NOISE, table,
                           np.random.default_rng(9))
    n_positive = int(ds.labels.sum())
    assert abs(n_positive - (len(ds) - n_positive)) <= 1


def test_synthesize_client_positive_count_oracle():
    # positives per client ~ sum of Bernoulli draws with mean n * sum(p)
    dist, _, table = make_fixture()
    n = 2000
    ds = synthesize_client(n, dist, NO_NOISE, table,
                           np.random.default_rng(10))
    expected = n * sum(p for _, p in dist.entries)
    variance = n * sum(p * (1 - p) for _, p in dist.entries)
    assert abs(ds.labels.sum() - expected) < Z999 * math.sqrt(variance)


def test_synthesize_client_negatives_come_from_outside_prominent():
    dist, _, table = make_fixture()
    ds = synthesize_client(300, dist, NO_NOISE, table,
                           np.random.default_rng(11))
    for ex in ds.examples:
        if ex.label == 0:
            assert ex.source_symptom.lower() not in dist.prominent_lower
        else:
            assert ex.source_symptom in ("alpha", "beta")


def test_synthesize_client_bit_identical_for_same_stream():
    dist, _, table = make_fixture()
    a = synthesize_client(100, dist, NO_NOISE, table,
                          np.random.default_rng(12))
    b = synthesize_client(100, dist, NO_NOISE, table,
                          np.random.default_rng(12))
    assert len(a) == len(b)
    for ex_a, ex_b in zip(a.examples, b.examples):
        assert ex_a.label == ex_b.label
        assert ex_a.source_symptom == ex_b.source_symptom
    assert np.array_equal(a.rows, b.rows)


def ref_synthesize_examples(n_persons, dist, corpus, noise, rng):
    """Frozen copy of the earlier object-based synthesis: (label, phrase) pairs."""
    emitted = []
    for _ in range(n_persons):
        for symptom, p in dist.entries:
            if rng.random() < p:
                emitted.append(symptom)
            elif noise.fires(rng):
                emitted.append(corpus[rng.integers(len(corpus))])
    if not emitted:
        return []
    pool = tuple(t for t in corpus if t.lower() not in dist.prominent_lower)
    examples = [(1, s) for s in emitted]
    picks = rng.integers(len(pool), size=len(emitted))
    examples.extend((0, pool[i]) for i in picks)
    order = rng.permutation(len(examples))
    return [examples[i] for i in order]


@pytest.mark.parametrize("noise", [NO_NOISE, NoiseMechanism(UNIFORM_THRESHOLD, 0.5),
                                   NoiseMechanism(NORMAL_THRESHOLD, 0.0),
                                   NoiseMechanism(LAPLACE_DP, 0.5, 2.0)])
@pytest.mark.parametrize("replayed_picks", [0, sampling._REPLAYED_PICKS, 10**9])
def test_synthesize_client_matches_frozen_object_reference(noise, replayed_picks, monkeypatch):
    # under a cap of 0 numpy draws every client's negative picks, and under 10**9 the
    # replay does; at the default, the 1- and 2-person clients replay them, and all but
    # one 60-person client, of 49 to 86 positives, do not
    monkeypatch.setattr(sampling, "_REPLAYED_PICKS", replayed_picks)
    survey = CountrySurvey(country="Testland", total=1000,
                           symptom_counts={"beta": 300, "alpha": 600, "gamma": 0})
    dist = build_distribution(survey)
    # repeated and reordered terms, so a term's corpus index is not its table row
    corpus = ("delta", "alpha", "delta", "epsilon", "beta", "gamma", "delta")
    table = build_phrase_table(tiny_table(["alpha", "beta", "gamma", "delta", "epsilon"]),
                               corpus, [dist])
    assert table.term_rows != tuple(range(len(corpus)))
    for seed, n_persons in zip(range(10), (60, 1, 2) * 4):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        ds = synthesize_client(n_persons, dist, noise, table, rng)
        expected = ref_synthesize_examples(n_persons, dist, corpus, noise, ref_rng)
        assert [tuple(ex) for ex in ds.examples] == expected
        assert ds.labels.tolist() == [float(label) for label, _ in expected]
        assert ds.rows.tolist() == [table.names.index(phrase) for _, phrase in expected]
        # both consumed the same draws, and PCG64 keeps the same unused 32-bit half,
        # which only a 32-bit draw such as integers(97) reads
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rng.integers(97) == ref_rng.integers(97)
        assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("bit_generator", [np.random.Philox, np.random.MT19937])
@pytest.mark.parametrize("noise", [NoiseMechanism(UNIFORM_THRESHOLD, 0.5),
                                   NoiseMechanism(LAPLACE_DP, 0.5, 2.0)])
def test_synthesize_client_refuses_a_generator_other_than_pcg64(noise, bit_generator):
    # the replay reads PCG64 words, the bit generator of every stream rng.py makes; any
    # other is refused before any draw
    dist, _, table = make_fixture()
    rng, untouched = (np.random.Generator(bit_generator(3)) for _ in range(2))
    message = f"needs a PCG64 generator, got {bit_generator.__name__}$"
    with pytest.raises(ValueError, match=message):
        synthesize_client(30, dist, noise, table, rng)
    # the states hold arrays, so the next words stand in for them
    assert np.array_equal(rng.bit_generator.random_raw(8), untouched.bit_generator.random_raw(8))


# p = 1.0 always displays and p = 0.0 always reaches the noise draw
REPLAY_WALK = (("a", 0.6), ("b", 1.0), ("c", 0.05), ("d", 0.0))
REPLAY_NOISES = [NoiseMechanism(UNIFORM_THRESHOLD, level) for level in (0.0, 0.5, 1.0)] + [
    NoiseMechanism(LAPLACE_DP, level, epsilon)
    for level in (0.0, 0.5, 1.0) for epsilon in (1e-3, 0.1, 2.0, 100.0)]


def replay_walks(entries, terms, noise, rng, n_persons, items):
    """`_replay_walks` of (item, probability) entries on rng's words, the state written back."""
    raw = sampling._RawWords(rng)
    sampling._replay_walks([(item, sampling.word_threshold(p)) for item, p in entries], terms,
                           noise, raw, n_persons, items)
    raw.close()


def scalar_and_replayed_walks(entries, terms, noise, n_persons, rng_of):
    """(items, final PCG64 state) of `_walk` n_persons times, then of `_replay_walks`."""
    results = []
    for replay in (False, True):
        rng, items = rng_of(), []
        if replay:
            replay_walks(entries, terms, noise, rng, n_persons, items)
        else:
            for _ in range(n_persons):
                sampling._walk(entries, terms, noise, rng, items)
        results.append((items, rng.bit_generator.state))
    return results


def seeded(seed, kept_half):
    """A PCG64 generator; with kept_half, one 32-bit draw leaves it holding a word's high half."""
    def make():
        rng = np.random.default_rng(seed)
        if kept_half:
            rng.integers(97)
            assert rng.bit_generator.state["has_uint32"] == 1
        return rng
    return make


@pytest.mark.parametrize("noise", REPLAY_NOISES,
                         ids=lambda m: f"{m.kind}-{m.noise_level}-{m.epsilon}")
@pytest.mark.parametrize("n_terms", [1, 2, 97, 2**31 + 1])
def test_replayed_walks_match_the_scalar_walk_and_its_final_state(noise, n_terms):
    # 2**31 + 1 terms reject about half of the 32-bit draws; 300 persons take
    # several full blocks of words, and the last blocks shrink to one word
    for seed, kept_half, n_persons in ((0, False, 300), (1, True, 300), (2, True, 1),
                                       (3, False, 2)):
        scalar, replayed = scalar_and_replayed_walks(REPLAY_WALK, range(n_terms), noise,
                                                     n_persons, seeded(seed, kept_half))
        assert replayed == scalar


def pcg64_whose_word(index, word):
    """A maker of PCG64 generators whose index-th raw word (from 1) is `word`.

    PCG64 steps its 128-bit LCG state, then outputs high ^ low rotated by
    the state's top 6 bits. A state whose top 6 bits are 0 outputs
    high ^ low, so the state is set there and stepped back `index` times.
    """
    inverse_multiplier = pow((2549297995355413924 << 64) + 4865540595714422341, -1, 2**128)
    high = 0x0123456789ABCDEF  # top 6 bits 0

    def make():
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        target = high << 64 | (high ^ word)
        for _ in range(index):
            target = (target - state["state"]["inc"]) * inverse_multiplier % 2**128
        state["state"]["state"] = target
        rng.bit_generator.state = state
        return rng

    assert make().bit_generator.random_raw(index)[-1] == word
    return make


def test_replayed_laplace_redraws_a_zero_uniform_like_numpy():
    # p = 0.0 sends word 1 to the display draw and the zero word 2 to the noise draw
    for level in (0.0, 0.5):
        noise = NoiseMechanism(LAPLACE_DP, level, 2.0)
        scalar, replayed = scalar_and_replayed_walks((("a", 0.0),), range(97), noise, 1,
                                                     pcg64_whose_word(2, 0))
        assert replayed == scalar


def test_replayed_pick_keeps_a_draw_exactly_at_the_rejection_bound():
    # k = 3 * 2**30 rejects a 32-bit draw r while (r * k) % 2**32 < 2**30; r = 3
    # lands on 2**30 exactly and is kept, picking term (3 * k) >> 32 = 2
    always = NoiseMechanism(UNIFORM_THRESHOLD, 1.0)
    scalar, replayed = scalar_and_replayed_walks((("a", 0.0),), range(3 * 2**30), always, 1,
                                                 pcg64_whose_word(3, 0xDEADBEEF << 32 | 3))
    assert scalar[0] == [2]
    assert replayed == scalar


def numpy_and_replayed_picks(k, n, rng_of):
    """(values, final PCG64 state) of rng.integers(k, size=n), then of `_replay_picks`.

    range(k) stands in for the pool, so the replay's values are the picks
    themselves and no pool of k rows is built.
    """
    rng = rng_of()
    expected = (rng.integers(k, size=n).tolist(), rng.bit_generator.state)
    rng, picks = rng_of(), []
    raw = sampling._RawWords(rng)
    sampling._replay_picks(raw, range(k), n, picks)
    raw.close()
    return expected, (picks, rng.bit_generator.state)


@pytest.mark.parametrize("k", [2, 97, 3 * 2**30, 2**32 - 1])
@pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 1000])
def test_replayed_picks_match_numpys_batch_and_its_final_state(k, n):
    # k = 3 * 2**30 rejects a quarter of the 32-bit draws; a kept half goes first, and
    # 1,000 picks take several blocks of words
    for seed, kept_half in ((6, False), (7, True)):
        expected, replayed = numpy_and_replayed_picks(k, n, seeded(seed, kept_half))
        assert replayed == expected


def test_replayed_picks_keep_a_draw_exactly_at_the_rejection_bound():
    # word 1's low half r = 3 lands on the bound 2**30 of k = 3 * 2**30 and is kept
    # (term 2); its high half 0 is rejected, and word 2's low half picks again
    k = 3 * 2**30
    expected, replayed = numpy_and_replayed_picks(k, 2, pcg64_whose_word(1, 3))
    assert expected[0][0] == 2
    assert replayed == expected


def test_replayed_picks_from_a_pool_of_one_draw_no_word():
    expected, replayed = numpy_and_replayed_picks(1, 5, seeded(8, True))
    assert expected[0] == [0] * 5
    assert replayed == expected


def test_replayed_picks_from_an_empty_pool_raise_numpys_error():
    with pytest.raises(ValueError) as numpy_error:
        np.random.default_rng(8).integers(0, size=5)
    with pytest.raises(ValueError) as replay_error:
        sampling._replay_picks(sampling._RawWords(np.random.default_rng(8)), range(0), 5, [])
    assert str(replay_error.value) == str(numpy_error.value)


@pytest.mark.parametrize("p", [0.0, 2.0**-53, 0.1, 0.5, 1.0 - 2.0**-53, 1.0])
def test_word_threshold_gives_the_float_compares_answer(p):
    # (w >> 11) * 2**-53 < p, for the words just either side of the threshold and of
    # its 2**11-word step
    threshold = sampling.word_threshold(p)
    words = [w for w in (0, 1, threshold - 2049, threshold - 2048, threshold - 1, threshold,
                         threshold + 1, threshold + 2047, threshold + 2048, 2**64 - 1)
             if 0 <= w < 2**64]
    assert words
    for w in words:
        assert (w < threshold) == ((w >> 11) * 2.0**-53 < p), w


def test_replay_with_no_terms_raises_numpys_error_only_when_a_pick_is_due():
    never = NoiseMechanism(UNIFORM_THRESHOLD, 0.0)
    scalar, replayed = scalar_and_replayed_walks(REPLAY_WALK, (), never, 50, seeded(5, True))
    assert replayed == scalar
    always = NoiseMechanism(UNIFORM_THRESHOLD, 1.0)
    with pytest.raises(ValueError) as scalar_error:
        sampling._walk(REPLAY_WALK, (), always, np.random.default_rng(5), [])
    with pytest.raises(ValueError) as replay_error:
        replay_walks(REPLAY_WALK, (), always, np.random.default_rng(5), 50, [])
    assert str(replay_error.value) == str(scalar_error.value)


def test_synthesize_client_empty_when_nothing_emitted():
    dist, _, table = quiet_fixture()
    ds = synthesize_client(5, dist, NO_NOISE, table,
                           np.random.default_rng(13))
    assert len(ds) == 0
    assert table.matrix[ds.rows].shape == (0, 4)


def test_synthesize_client_requires_negative_pool():
    survey = CountrySurvey(country="X", total=10, symptom_counts={"alpha": 9})
    dist = build_distribution(survey)
    corpus = ("alpha",)
    table = build_phrase_table(tiny_table(["alpha"]), corpus, [dist])
    with pytest.raises(ValueError):
        synthesize_client(50, dist, NO_NOISE, table,
                          np.random.default_rng(14))


class CountingTerms(tuple):
    """Corpus terms that count how often they are walked in full."""

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def test_negative_pool_is_built_once_per_table():
    dist, _, _ = make_fixture()
    terms = CountingTerms(("alpha", "beta", "gamma", "delta", "epsilon"))
    terms.walks = 0
    table = build_phrase_table(tiny_table(list(terms)), terms, [dist])
    pool = table.negatives[dist.country]
    assert [table.names[row] for row in pool] == ["gamma", "delta", "epsilon"]
    assert type(pool) is tuple and all(type(row) is int for row in pool)
    walks = terms.walks
    for seed in range(3):
        ds = synthesize_client(40, dist, NO_NOISE, table,
                               np.random.default_rng(seed))
        assert (ds.labels == 0.0).any()
    assert terms.walks == walks


def test_missing_negative_pool_fails_only_for_a_client_that_emits():
    corpus = ("alpha",)
    quiet = build_distribution(CountrySurvey(country="Quiet", total=10**9,
                                             symptom_counts={"alpha": 1}))
    loud = build_distribution(CountrySurvey(country="X", total=10,
                                            symptom_counts={"alpha": 9}))
    table = build_phrase_table(tiny_table(["alpha"]), corpus, [quiet, loud])
    ds = synthesize_client(5, quiet, NO_NOISE, table, np.random.default_rng(17))
    assert len(ds) == 0
    with pytest.raises(ValueError, match="corpus has no terms outside the prominent-symptom set"):
        synthesize_client(50, loud, NO_NOISE, table, np.random.default_rng(17))


def test_synthesize_client_rejects_zero_persons():
    dist, _, table = make_fixture()
    with pytest.raises(ValueError):
        synthesize_client(0, dist, NO_NOISE, table,
                          np.random.default_rng(15))


@pytest.mark.parametrize("noise", [NO_NOISE, NoiseMechanism(NORMAL_THRESHOLD, 0.5)])
@pytest.mark.parametrize("n_persons", [True, False, 2.0, 2.5, "2", None, np.float64(2.0)])
def test_synthesize_client_refuses_a_bool_or_non_integer_person_count(n_persons, noise):
    # True would synthesize one person, 2.0 fail inside islice and 2.5 in range();
    # the check comes before any draw
    dist, _, table = make_fixture()
    rng = np.random.default_rng(15)
    state = rng.bit_generator.state
    message = f"n_persons must be an integer, got {n_persons!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        synthesize_client(n_persons, dist, noise, table, rng)
    assert rng.bit_generator.state == state


def test_synthesize_client_takes_numpy_integer_person_counts():
    dist, _, table = make_fixture()
    for n_persons in (np.int64(3), np.int32(3), np.uint8(3)):
        ds = synthesize_client(n_persons, dist, NO_NOISE, table, np.random.default_rng(16))
        expected = synthesize_client(3, dist, NO_NOISE, table, np.random.default_rng(16))
        assert np.array_equal(ds.rows, expected.rows)
        assert np.array_equal(ds.labels, expected.labels)


def test_feature_matrix_shapes():
    dist, _, table = make_fixture()
    ds = synthesize_client(50, dist, NO_NOISE, table,
                           np.random.default_rng(16))
    x = ds.phrases.matrix[ds.rows]
    y = ds.labels
    assert x.shape == (len(ds), table.matrix.shape[1])
    assert y.shape == (len(ds),)
    assert set(np.unique(y)) <= {0.0, 1.0}
    assert not ds.phrases.matrix.flags.writeable
    # the labels are built once, with the dataset, and are read-only
    assert ds.labels is y
    assert not y.flags.writeable
    assert sum(ex.label for ex in ds.examples) == int(y.sum())
    # row i encodes example i, whatever the shuffle
    for row, ex in zip(x, ds.examples):
        assert np.array_equal(row, table.matrix[table.names.index(ex.source_symptom)])


@pytest.mark.parametrize("fixture, noise, n_persons", [
    (make_fixture, NoiseMechanism(UNIFORM_THRESHOLD, 0.5), 50),
    (make_fixture, NoiseMechanism(NORMAL_THRESHOLD, 0.5), 50),
    (make_fixture, NoiseMechanism(LAPLACE_DP, 0.5, epsilon=2.0), 50),
    (quiet_fixture, NO_NOISE, 5),
], ids=["uniform", "normal", "laplace", "empty-client"])
def test_synthesized_dataset_holds_read_only_intp_rows_and_float64_labels(fixture, noise,
                                                                          n_persons):
    # the ClientDataset constructor stores its arrays unchecked, so synthesize_client must
    # build them typed, shaped and inside the table
    dist, _, table = fixture()
    ds = synthesize_client(n_persons, dist, noise, table, np.random.default_rng(16))
    assert (len(ds) == 0) == (fixture is quiet_fixture)
    assert ds.rows.dtype == np.intp and ds.rows.shape == (len(ds),)
    assert ds.labels.dtype == np.float64 and ds.labels.shape == (len(ds),)
    assert not ds.rows.flags.writeable and not ds.labels.flags.writeable
    assert ((ds.rows >= 0) & (ds.rows < len(table.names))).all()
    assert ((ds.labels == 0.0) | (ds.labels == 1.0)).all()
    assert ds.labels.sum() == len(ds) / 2


def test_phrase_table_encodes_each_phrase_once(monkeypatch):
    dist, corpus, _ = make_fixture()
    raw = tiny_table(["alpha", "beta", "gamma", "delta", "epsilon"])
    encoded = []
    real_encode = sampling.encode_phrase
    monkeypatch.setattr(sampling, "encode_phrase",
                        lambda t, phrase: encoded.append(phrase) or real_encode(t, phrase))
    table = build_phrase_table(raw, corpus, [dist, dist])
    # alpha and beta are both surveyed and corpus terms; gamma has a zero
    # count, so only the corpus puts it in the table
    assert encoded == list(corpus)
    assert table.names == corpus
    assert table.matrix.shape == (len(corpus), 4)
    assert not table.matrix.flags.writeable
    for row, phrase in enumerate(table.names):
        assert np.array_equal(table.matrix[row], raw[phrase])


def test_phrase_table_refuses_two_different_distributions_of_one_country():
    # the table finds a distribution's walks and negatives by its country alone
    dist, corpus, _ = make_fixture()
    other = build_distribution(CountrySurvey(country=dist.country, total=1000,
                                             symptom_counts={"alpha": 500}))
    raw = tiny_table(["alpha", "beta", "gamma", "delta", "epsilon"])
    with pytest.raises(ValueError, match="two different distributions of country 'Testland'"):
        build_phrase_table(raw, corpus, [dist, other])
    twice = build_phrase_table(raw, corpus, [dist, dist])
    assert list(twice.walks) == list(twice.word_walks) == list(twice.negatives) == ["Testland"]
    assert twice.walks["Testland"] == build_phrase_table(raw, corpus, [dist]).walks["Testland"]


def test_synthesis_refuses_a_distribution_the_table_was_not_built_from():
    # the table's rows are found by country: a distribution of its country that is not its
    # own would be walked with the table's entries, so it is refused before any draw
    dist, corpus, table = make_fixture()
    other = build_distribution(CountrySurvey(country=dist.country, total=1000,
                                             symptom_counts={"alpha": 500}))
    stranger = build_distribution(CountrySurvey(country="Elsewhere", total=1000,
                                                symptom_counts={"alpha": 500}))
    for wrong in (other, stranger):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"not built from this distribution of "
                                             f"'{wrong.country}'"):
            synthesize_client(3, wrong, NO_NOISE, table, rng)
        assert rng.bit_generator.state == state
    # the table's own distribution, and an equal one built apart, give the same dataset
    equal = build_distribution(CountrySurvey(country=dist.country, total=1000,
                                             symptom_counts={"alpha": 800, "beta": 200,
                                                             "gamma": 0}))
    assert equal == dist and equal is not dist and table.distributions == {dist.country: dist}
    own, twin = (synthesize_client(40, d, NO_NOISE, table, np.random.default_rng(6))
                 for d in (dist, equal))
    assert np.array_equal(own.rows, twin.rows) and np.array_equal(own.labels, twin.labels)


def test_client_dataset_stores_the_arrays_it_is_given_read_only():
    # no copy and no check: synthesize_client builds the arrays typed, and they are frozen
    # in place
    phrases = matrix_phrase_table(np.zeros((3, 4)))
    rows, labels = np.array([2, 0], dtype=np.intp), np.array([1.0, 0.0])
    ds = ClientDataset(phrases=phrases, rows=rows, labels=labels)
    assert ds.phrases is phrases and ds.rows is rows and ds.labels is labels
    assert not rows.flags.writeable and not labels.flags.writeable
    assert len(ds) == 2 and [tuple(ex) for ex in ds.examples] == [(1, "row2"), (0, "row0")]


def test_a_dataset_stores_only_its_index_arrays():
    # training gathers each example's features from the shared table when it needs them
    dist, _, table = make_fixture()
    ds = synthesize_client(50, dist, NO_NOISE, table, np.random.default_rng(18))
    assert [f.name for f in fields(ds)] == ["phrases", "rows", "labels"]
    assert set(vars(ds)) == {f.name for f in fields(ds)}
    assert ds.phrases is table


def test_examples_align_with_features_and_labels():
    dist, _, table = make_fixture()
    mech = NoiseMechanism(UNIFORM_THRESHOLD, 0.5)
    ds = synthesize_client(80, dist, mech, table, np.random.default_rng(19))
    examples, x, y = ds.examples, table.matrix[ds.rows], ds.labels
    assert len(examples) == len(x) == len(y) == len(ds)
    for i, ex in enumerate(examples):
        assert type(ex.label) is int and ex.label == y[i]
        assert np.array_equal(x[i], table.matrix[table.names.index(ex.source_symptom)])
        assert ex.source_symptom == table.names[ds.rows[i]]
    # at level 0.5 some noise terms are labeled positive
    assert any(ex.label == 1 and ex.source_symptom.lower() not in dist.prominent_lower
               for ex in examples)


def test_synthesis_and_training_build_no_labeled_example(monkeypatch, table, corpus,
                                                         distributions):
    phrases = build_phrase_table(table, corpus, distributions)
    built = []
    real = sampling.LabeledExample
    monkeypatch.setattr(sampling, "LabeledExample",
                        lambda *args: built.append(args) or real(*args))
    noise = NoiseMechanism(UNIFORM_THRESHOLD, 0.5)
    ds = synthesize_client(60, distributions[0], noise, phrases,
                           np.random.default_rng(20))
    window = Window((ds,))
    block = train_local([init_params(np.random.default_rng(21))], window,
                        TrainConfig(local_epochs=2), [np.random.default_rng(22)])
    mean_loss(block, window)
    assert len(ds) > 0
    assert built == []
    # the derived view is the one place that builds them
    assert len(ds.examples) == len(built) == len(ds)
