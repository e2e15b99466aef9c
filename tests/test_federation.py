"""Topology scaling, population assignment, FedAvg algebra, round loop and its windows."""

import gc
import math
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsymptoms import federation, mlp
from fedsymptoms.embeddings import UnembeddablePhraseError
from fedsymptoms.federation import (
    SimulationSpec,
    WEIGHT_UNIFORM,
    build_population,
    fedavg_aggregate,
    run_simulation,
    scaled_count,
    simulation_spec,
)
from fedsymptoms.mlp import N_PARAMS, init_params, layer_views
from fedsymptoms.rng import client_data_stream, population_stream, selection_stream
from fedsymptoms.sampling import (
    NO_NOISE,
    NoiseMechanism,
    UNIFORM_THRESHOLD,
    build_phrase_table,
    synthesize_client,
)
from fedsymptoms.surveys import build_distribution
from fedsymptoms.surveys import CountrySurvey


def test_scaled_count_rounds_before_ceiling():
    assert scaled_count(900, 0.1) == 90       # 900*0.1 = 90.00000000000001 in float
    assert scaled_count(60000, 0.01) == 600
    assert scaled_count(2, 0.01) == 1         # floor of 1
    assert scaled_count(55, 0.1) == 6         # 5.5 rounds up
    assert scaled_count(100000, 1.0) == 100000


def test_topology_table_full_scale():
    expected = {
        "I": ((60000, 60000), 20, 1.0),
        "II": ((10000, 20000), 80, 1.0),
        "III": ((500, 2000), 900, 1.0),
        "IV": ((2, 12), 100000, 0.05),
    }
    for sim_id, (size_range, n_clients, participation) in expected.items():
        spec = simulation_spec(sim_id)
        assert spec.size_range == size_range
        assert spec.n_clients == n_clients
        assert spec.participation_fraction == participation
        assert spec.global_epochs == 5


def test_topology_desk_scale():
    spec = simulation_spec("I", scale=0.01)
    assert spec.size_range == (600, 600)
    assert spec.n_clients == 1
    spec4 = simulation_spec("IV", scale=0.01)
    assert spec4.size_range == (1, 1)
    assert spec4.n_clients == 1000


def test_simulation_spec_validation():
    with pytest.raises(ValueError):
        simulation_spec("V")
    with pytest.raises(ValueError):
        simulation_spec("I", scale=0.0)
    with pytest.raises(ValueError):
        SimulationSpec(id="I", size_range=(0, 5), n_clients=3)
    with pytest.raises(ValueError):
        SimulationSpec(id="I", size_range=(2, 5), n_clients=100,
                       participation_fraction=0.001)
    with pytest.raises(ValueError, match="weighting must be one of"):
        simulation_spec("I", weighting="by_persons")
    with pytest.raises(ValueError, match="local_epochs must be at least 1"):
        simulation_spec("I", local_epochs=0)


@pytest.mark.parametrize("value", [2.5, 3.0, float("nan"), True, False])
@pytest.mark.parametrize("name", ["local_epochs", "global_epochs"])
def test_simulation_spec_refuses_a_non_integer_epoch_count(name, value):
    # refused while the spec is built, before any survey is synthesized
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        simulation_spec("I", scale=0.01, **{name: value})


@pytest.mark.parametrize("build, name, what", [
    (lambda: simulation_spec("I", scale=True), "scale", "a number"),
    (lambda: simulation_spec("III", scale=0.01, participation_fraction=True),
     "participation_fraction", "a number"),
    (lambda: SimulationSpec(id="I", size_range=(True, 5), n_clients=3), "size_range",
     "an integer"),
    (lambda: SimulationSpec(id="I", size_range=(1, 2.5), n_clients=3), "size_range",
     "an integer"),
    (lambda: SimulationSpec(id="I", size_range=(1, 5), n_clients=True), "n_clients",
     "an integer"),
    (lambda: SimulationSpec(id="I", size_range=(1, 5), n_clients=3.0), "n_clients",
     "an integer"),
    (lambda: SimulationSpec(id="I", size_range=(1, 5), n_clients=3,
                            participation_fraction="1"), "participation_fraction",
     "a number"),
], ids=["scale-true", "fraction-true", "size-true", "size-float", "clients-true",
        "clients-float", "fraction-string"])
def test_simulation_spec_refuses_a_bool_or_other_type_for_a_number(build, name, what):
    # True would pass every range check as 1: a full-scale spec, a fraction of 1, one client
    with pytest.raises(ValueError, match=f"{name} must be {what}"):
        build()


def test_simulation_spec_takes_numpy_numbers():
    spec = SimulationSpec(id="I", size_range=(np.int64(2), 5), n_clients=np.int64(3),
                          participation_fraction=np.float64(0.5))
    assert spec.clients_per_round == 2
    assert simulation_spec("I", scale=np.float64(0.01)).size_range == (600, 600)
    spec = simulation_spec("III", local_epochs=np.int64(2), global_epochs=np.int64(2))
    assert spec.train.local_epochs == spec.global_epochs == 2


@pytest.mark.parametrize("value", ["no", 1, 0, None])
def test_simulation_spec_refuses_a_non_bool_fixed_client_data(value):
    # "no" is truthy: taken as it is, it would reuse round-0 data every round
    with pytest.raises(ValueError, match="fixed_client_data must be a bool"):
        simulation_spec("III", fixed_client_data=value)


def test_build_population_sizes_and_indices(surveys):
    spec = simulation_spec("III", scale=0.1)
    pop = build_population(spec, surveys, population_stream(3))
    assert len(pop) == spec.n_clients
    lo, hi = spec.size_range
    assert len(pop.sizes) == len(pop.countries) == spec.n_clients
    assert np.all((lo <= pop.sizes) & (pop.sizes <= hi))
    assert np.all((0 <= pop.countries) & (pop.countries < len(surveys)))


def test_build_population_deterministic(surveys):
    spec = simulation_spec("III", scale=0.1)
    a = build_population(spec, surveys, population_stream(9))
    b = build_population(spec, surveys, population_stream(9))
    assert np.array_equal(a.sizes, b.sizes)
    assert np.array_equal(a.countries, b.countries)


def reference_population(spec, surveys, rng):
    """The earlier one-object-per-client construction, frozen as the reference:
    (client_id, n_persons, country_index) per client, in client order."""
    lo, hi = spec.size_range
    sizes = rng.integers(lo, hi + 1, size=spec.n_clients)
    grand = sum(s.total for s in surveys)
    weights = np.array([s.total / grand for s in surveys], dtype=np.float64)
    countries = [int(i) for i in rng.choice(len(surveys), size=spec.n_clients, p=weights)]
    return [(i, int(sizes[i]), countries[i]) for i in range(spec.n_clients)]


@pytest.mark.parametrize("sim_id", ["I", "III", "IV"])
@pytest.mark.parametrize("seed", [1, 12, 2021])
def test_build_population_matches_per_client_reference(surveys, sim_id, seed):
    spec = simulation_spec(sim_id)
    pop = build_population(spec, surveys, population_stream(seed))
    reference = reference_population(spec, surveys, population_stream(seed))
    assert list(zip(range(len(pop)), pop.sizes.tolist(), pop.countries.tolist())) == reference


def test_population_arrays_are_read_only_integers(surveys):
    pop = build_population(simulation_spec("III", scale=0.1), surveys, population_stream(5))
    for column in (pop.sizes, pop.countries):
        assert column.ndim == 1 and np.issubdtype(column.dtype, np.integer)
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 1


def test_full_scale_population_memory_is_two_arrays(surveys):
    spec = simulation_spec("IV")
    rng = population_stream(6)
    tracemalloc.start()
    try:
        pop = build_population(spec, surveys, rng)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pop) == 100_000
    # two int64 columns are 1.53 MiB; one object per client was 12.96 MiB
    assert held < 2 * 2**20


def random_params(seed):
    return init_params(np.random.default_rng(seed))


def test_fedavg_identical_updates_is_exact_fixed_point():
    params = random_params(0)
    for weights in ([1, 1, 1], [3, 5], [7, 11, 13, 17]):
        merged = fedavg_aggregate([(params, n) for n in weights])
        assert np.array_equal(merged, params)


def test_fedavg_matches_extended_precision_oracle():
    updates = [(random_params(i), n) for i, n in enumerate([600, 1400, 250], start=1)]
    merged = fedavg_aggregate(updates)
    total = sum(n for _, n in updates)
    flats = [p for p, _ in updates]
    oracle = np.array([
        math.fsum(flats[k][j] * updates[k][1] for k in range(len(updates))) / total
        for j in range(len(merged))
    ])
    # a mean can cancel to near zero, so measure relative to the inputs too
    scale = np.maximum(np.abs(oracle), np.abs(np.stack(flats)).max(axis=0))
    scale = np.maximum(scale, 1e-30)
    assert np.max(np.abs(merged - oracle) / scale) <= 1e-12


def test_fedavg_stays_in_convex_hull():
    updates = [(random_params(i), n) for i, n in enumerate([2, 9, 5], start=10)]
    merged = fedavg_aggregate(updates)
    flats = np.stack([p for p, _ in updates])
    lo = flats.min(axis=0) - 1e-12
    hi = flats.max(axis=0) + 1e-12
    assert np.all(merged >= lo) and np.all(merged <= hi)


def test_fedavg_equal_weights_equals_plain_mean():
    updates = [(random_params(i), 4) for i in range(20, 23)]
    merged = fedavg_aggregate(updates)
    plain = np.mean(np.stack([p for p, _ in updates]), axis=0)
    scale = np.maximum(np.abs(plain), 1e-30)
    assert np.max(np.abs(merged - plain) / scale) <= 1e-12


def test_fedavg_weight_scaling_invariance():
    params = [random_params(i) for i in range(30, 33)]
    a = fedavg_aggregate(list(zip(params, [1, 2, 3])))
    b = fedavg_aggregate(list(zip(params, [10, 20, 30])))
    assert np.array_equal(a, b)


def test_fedavg_returns_a_read_only_vector_of_its_own():
    # the merged vector is frozen in place, so no update may hold it;
    # the last case cancels 1e300 against -1e300 and takes the exact path
    huge = np.full(N_PARAMS, 1e300)
    for updates in ([(random_params(40), 3)],
                    [(random_params(41), 2), (random_params(42), 5)],
                    [(huge, 1), (-huge, 1)]):
        merged = fedavg_aggregate(updates)
        assert merged.dtype == np.float64 and merged.shape == (N_PARAMS,)
        assert not merged.flags.writeable
        for params, _ in updates:
            assert not np.shares_memory(merged, params)
    assert not merged.any()


def test_fedavg_rejects_empty_and_bad_weights():
    with pytest.raises(ValueError):
        fedavg_aggregate([])
    with pytest.raises(ValueError):
        fedavg_aggregate([(random_params(1), 0)])


@st.composite
def weighted_scalars(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    values = draw(st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=n, max_size=n))
    weights = draw(st.lists(st.integers(min_value=1, max_value=10**6),
                            min_size=n, max_size=n))
    return values, weights


def params_with_value(value, where):
    """A parameter vector holding value at the coordinates `where` and 0.0 elsewhere."""
    flat = np.zeros(N_PARAMS)
    flat[where] = value
    return flat


@given(weighted_scalars())
# large updates that cancel: "first update plus weighted deltas" alone misses by ~1e-12
@example(([15625.0, 0.0], [1, 16915]))
@example(([26594.0, 0.0, 0.0, 1.0, 0.0], [1, 1, 1, 1, 8108]))
# updates whose difference overflows to -inf, with exact means 0, -8.5e307 and ~7.29e307
@example(([1.7e308, -1.7e308], [1, 1]))
@example(([1.7e308, -1.7e308], [1, 3]))
@example(([1.7e308, -1.7e308], [5, 2]))
@settings(max_examples=50, deadline=None)
def test_fedavg_scalar_property(case):
    values, weights = case
    # the exact weighted mean, rounded once
    oracle = float(sum(Fraction(v) * n for v, n in zip(values, weights)) / sum(weights))
    # each update holds its value in every coordinate, or in coordinate 7 alone
    for where in (slice(None), 7):
        merged = fedavg_aggregate([(params_with_value(v, where), n)
                                   for v, n in zip(values, weights)])
        got = merged[7]
        assert abs(got - oracle) <= 1e-12 * max(1.0, abs(oracle))
        assert min(values) - 1e-9 <= got <= max(values) + 1e-9
        assert np.array_equal(merged, params_with_value(got, where))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("position", [0, 1])
def test_fedavg_refuses_a_non_finite_update(bad, position):
    # the one check on updates that a library caller passes in
    updates = [(random_params(i), n) for i, n in enumerate([3, 5])]
    flat = updates[position][0].copy()
    flat[11] = bad
    updates[position] = (flat, updates[position][1])
    with pytest.raises(ValueError, match="non-finite parameters"):
        fedavg_aggregate(updates)


def test_run_simulation_snapshots_and_reports(surveys, corpus, table):
    spec = simulation_spec("I", scale=0.01)
    [(snapshots, reports)] = run_simulation(spec, surveys, corpus, table, [(NO_NOISE, 1)])
    assert len(snapshots) == spec.global_epochs + 1
    assert len(reports) == spec.global_epochs
    for report in reports:
        assert report.participating_clients + report.skipped_empty_clients == 1
        assert report.wall_time >= 0.0
        assert math.isfinite(report.mean_local_loss)
        stages = (report.synthesis_s, report.training_s, report.aggregation_s)
        assert all(seconds > 0.0 for seconds in stages)
        assert sum(stages) <= report.wall_time


@pytest.mark.parametrize("fraction, per_round", [(0.07, 7), (0.14, 14)])
def test_round_trains_the_rounded_share_of_clients(surveys, corpus, table, fraction, per_round):
    # 100 * 0.07 is 7.000000000000001 in float, which must not round up to 8
    spec = simulation_spec("IV", scale=0.001, participation_fraction=fraction, global_epochs=1)
    assert spec.n_clients == 100
    [(_, reports)] = run_simulation(spec, surveys, corpus, table, [(NO_NOISE, 1)])
    assert reports[0].participating_clients + reports[0].skipped_empty_clients == per_round


def test_run_simulation_deterministic(surveys, corpus, table):
    spec = simulation_spec("I", scale=0.01)
    run = (NoiseMechanism(UNIFORM_THRESHOLD, 0.5), 2)
    [(a, _)] = run_simulation(spec, surveys, corpus, table, [run])
    [(b, _)] = run_simulation(spec, surveys, corpus, table, [run])
    assert all(np.array_equal(ma, mb) for ma, mb in zip(a, b, strict=True))


def test_population_independent_of_noise(surveys, corpus, table):
    # same master seed, different noise: identical client layout
    spec = simulation_spec("I", scale=0.01)
    pop = build_population(spec, surveys, population_stream(4))
    again = build_population(spec, surveys, population_stream(4))
    assert np.array_equal(pop.sizes, again.sizes)
    assert np.array_equal(pop.countries, again.countries)


def test_fixed_client_data_changes_dynamics(surveys, corpus, table):
    fresh = simulation_spec("I", scale=0.01, fixed_client_data=False)
    fixed = simulation_spec("I", scale=0.01, fixed_client_data=True)
    [(a, _)] = run_simulation(fresh, surveys, corpus, table, [(NO_NOISE, 5)])
    [(b, _)] = run_simulation(fixed, surveys, corpus, table, [(NO_NOISE, 5)])
    # first round uses round-0 data either way
    assert np.array_equal(a[1], b[1])
    # later rounds diverge once fresh data kicks in
    assert not np.array_equal(layer_views(a[-1])[0][0], layer_views(b[-1])[0][0])


def test_uniform_weighting_single_client_matches(surveys, corpus, table):
    spec = simulation_spec("I", scale=0.01)
    [(by_examples, _)] = run_simulation(spec, surveys, corpus, table, [(NO_NOISE, 6)])
    [(uniform, _)] = run_simulation(replace(spec, weighting=WEIGHT_UNIFORM), surveys, corpus,
                                    table, [(NO_NOISE, 6)])
    assert np.array_equal(by_examples[-1], uniform[-1])


def test_unembeddable_surveyed_symptom_fails_at_run_start(corpus, table):
    survey = CountrySurvey(country="Odd", total=1000,
                           symptom_counts={"Fever": 500, "Zzxq blorp": 1})
    # no round runs, so the phrase is refused before any client is synthesized
    spec = simulation_spec("I", scale=0.01, global_epochs=0)
    with pytest.raises(UnembeddablePhraseError, match="Zzxq blorp") as err:
        run_simulation(spec, [survey], corpus, table, [(NO_NOISE, 1)])
    assert err.value.phrase == "Zzxq blorp"


def chunked_round_results(monkeypatch, spec, run, surveys, corpus, table, settings):
    """One round's updates, client sizes, mean local loss and final model, by setting.

    A setting is a (chunk, cap, budget) triple: the round runs with
    mlp.LOCKSTEP_CLIENTS, mlp.LOCKSTEP_MAX_CLIENTS and federation.WINDOW_EXAMPLES
    set to it; the two caps bound both the training chunks and the scoring
    stacks. Every update is recorded as bytes, in input order.
    """
    real = federation.train_local
    results = {}
    for chunk, cap, budget in settings:
        cohorts, sizes, updates = [], [], []

        def recorded(params, dataset, config, rngs):
            block = real(params, dataset, config, rngs)
            order = dataset.order
            cohorts.append(len(order))
            # block row p is input client order[p]
            by_input = sorted(range(len(order)), key=order.__getitem__)
            sizes.extend(dataset.sizes[p] for p in by_input)
            updates.extend(block[p].tobytes() for p in by_input)
            return block

        monkeypatch.setattr(mlp, "LOCKSTEP_CLIENTS", chunk)
        monkeypatch.setattr(mlp, "LOCKSTEP_MAX_CLIENTS", cap)
        monkeypatch.setattr(federation, "WINDOW_EXAMPLES", budget)
        monkeypatch.setattr(federation, "train_local", recorded)
        [(snapshots, reports)] = run_simulation(spec, surveys, corpus, table, [run])
        # a budget of one row gives each client a window, and so a call, of its own
        assert set(cohorts) == ({1} if budget == 1 else {spec.clients_per_round})
        results[chunk, cap, budget] = (updates, sizes, repr(reports[0].mean_local_loss),
                                       snapshots[-1].tobytes())
    return results


def test_round_output_does_not_depend_on_chunk_size_or_window(monkeypatch, surveys, corpus,
                                                               table):
    # 27 clients of 108-906 rows: several steps an epoch, finishing at different steps
    spec = simulation_spec("III", scale=0.03, global_epochs=1, local_epochs=2)
    run = (NoiseMechanism(UNIFORM_THRESHOLD, 0.5), 3)
    results = chunked_round_results(
        monkeypatch, spec, run, surveys, corpus, table,
        [(chunk, mlp.LOCKSTEP_MAX_CLIENTS, budget) for chunk in (1, 3, 8, 64)
         for budget in (1, federation.WINDOW_EXAMPLES)])
    first = next(iter(results.values()))
    assert len(first[0]) == spec.clients_per_round
    assert all(result == first for result in results.values())


def test_round_output_does_not_depend_on_chunking_where_sizes_repeat(monkeypatch, surveys,
                                                                     corpus, table):
    # 250 clients of one or two persons: few sizes, each shared by many clients, so ties
    # extend chunks, and scoring stacks, up to each cap
    spec = simulation_spec("IV", scale=0.1, participation_fraction=0.025, global_epochs=1,
                           local_epochs=2)
    run = (NoiseMechanism(UNIFORM_THRESHOLD, 0.5), 5)
    results = chunked_round_results(
        monkeypatch, spec, run, surveys, corpus, table,
        [(chunk, cap, budget) for chunk in (1, 3, 8, 32) for cap in (1, 3, 8, 32, 64)
         for budget in (1, federation.WINDOW_EXAMPLES)])
    first = next(iter(results.values()))
    assert len(first[0]) == spec.clients_per_round
    # 18 sizes, up to 31 clients of one: ties carry chunks of 8 past 8 clients
    assert max(Counter(first[1]).values()) > 8
    assert all(result == first for result in results.values())


@pytest.mark.parametrize("spec, seed, pinned", [
    (simulation_spec("IV", scale=0.01, participation_fraction=0.05, global_epochs=2,
                     local_epochs=3), 4, None),
    # a round of run_IV_wide: 250 clients of 1-2 persons in one window, 3,566 examples
    # trained for 5 local epochs
    (simulation_spec("IV", scale=0.1, participation_fraction=0.025, global_epochs=1), 1, 17830),
], ids=["two-rounds", "run_IV_wide-round"])
def test_counting_examples_at_the_train_local_seam_stays_exact(monkeypatch, surveys, corpus,
                                                               table, spec, seed, pinned):
    # wraps federation.train_local as perfbench's ExampleCounter does, four positional
    # arguments, and reads the window's len()
    noise = NoiseMechanism(UNIFORM_THRESHOLD, 0.5)
    counted = []
    real = federation.train_local

    def counter(params, dataset, config, rng):
        counted.append(len(dataset) * config.local_epochs)
        return real(params, dataset, config, rng)

    monkeypatch.setattr(federation, "train_local", counter)
    run_simulation(spec, surveys, corpus, table, [(noise, seed)])

    # the same keyed streams, derived here a round at a time, in selection order
    population = build_population(spec, surveys, population_stream(seed))
    distributions = [build_distribution(s) for s in surveys]
    phrases = build_phrase_table(table, corpus, distributions)
    expected = 0
    for round_index in range(spec.global_epochs):
        chosen = selection_stream(seed, round_index).choice(
            len(population), size=spec.clients_per_round, replace=False)
        data_rngs = client_data_stream(seed, chosen, round_index)
        for client_id, data_rng in zip(chosen.tolist(), data_rngs):
            dataset = synthesize_client(int(population.sizes[client_id]),
                                        distributions[int(population.countries[client_id])],
                                        noise, phrases, data_rng)
            expected += len(dataset) * spec.train.local_epochs
    assert len(counted) == spec.global_epochs
    assert expected > 0 and sum(counted) == expected
    assert pinned in (None, expected)


@pytest.mark.parametrize("budget", [federation.WINDOW_EXAMPLES, 40],
                         ids=["one-window", "windows-of-40"])
def test_a_round_holds_no_dataset_while_its_windows_train(monkeypatch, surveys, corpus, table,
                                                          budget):
    # a window, once built, is the one holder of its clients' examples: no dataset the
    # round synthesized is alive at any train_local or mean_loss call
    spec = simulation_spec("III", scale=0.01, global_epochs=1)
    monkeypatch.setattr(federation, "WINDOW_EXAMPLES", budget)
    datasets, live = [], []
    real_synthesize = federation.synthesize_client

    def synthesize(*args):
        dataset = real_synthesize(*args)
        datasets.append(weakref.ref(dataset))
        return dataset

    def counted(real):
        def call(*args):
            gc.collect()
            live.append(sum(ref() is not None for ref in datasets))
            return real(*args)
        return call

    monkeypatch.setattr(federation, "synthesize_client", synthesize)
    monkeypatch.setattr(federation, "train_local", counted(federation.train_local))
    monkeypatch.setattr(federation, "mean_loss", counted(federation.mean_loss))
    [(_, [report])] = run_simulation(spec, surveys, corpus, table,
                                     [(NoiseMechanism(UNIFORM_THRESHOLD, 0.5), 1)])
    assert len(datasets) == report.participating_clients == 9
    # a train_local and a mean_loss call a window: one window, or several of 40 examples
    assert len(live) > 2 if budget == 40 else len(live) == 2
    assert live == [0] * len(live)


# 3 fever-or-cough respondents in 100: without noise, seed 5's first round is empty
QUIET = [CountrySurvey(country="Quiet", total=1000, symptom_counts={"Fever": 30, "Cough": 10})]


def run_bytes(snapshots, reports):
    """A run's snapshots as float64 bytes and its reports without their wall times."""
    return ([params.tobytes() for params in snapshots],
            [(r.round, r.participating_clients, r.skipped_empty_clients,
              repr(r.mean_local_loss)) for r in reports])


@pytest.mark.parametrize("settings", [{}, {"weighting": WEIGHT_UNIFORM},
                                      {"fixed_client_data": True}],
                         ids=["default", "uniform", "fixed-data"])
def test_a_run_keeps_its_bytes_in_any_group(monkeypatch, corpus, table, settings):
    spec = simulation_spec("III", scale=0.01, participation_fraction=0.25, global_epochs=3,
                           local_epochs=2, **settings)
    noisy = NoiseMechanism(UNIFORM_THRESHOLD, 0.5)
    runs = [(noisy, 1), (NoiseMechanism(UNIFORM_THRESHOLD, 0.9), 2), (noisy, 3), (NO_NOISE, 5)]
    alone = [run_bytes(*run_simulation(spec, QUIET, corpus, table, [run])[0])
             for run in runs]
    assert alone[3][1][0] == (1, 0, spec.clients_per_round, "None")
    assert alone[3][0][1] == alone[3][0][0]
    assert len({snapshots[-1] for snapshots, _ in alone}) == len(runs)
    monkeypatch.setattr(mlp, "LOCKSTEP_CLIENTS", 3)
    # one client a window, windows that close inside a run, and one window a round
    for budget in (1, 40, federation.WINDOW_EXAMPLES):
        monkeypatch.setattr(federation, "WINDOW_EXAMPLES", budget)
        for group in (runs, runs[::-1], runs[1:3]):
            results = run_simulation(spec, QUIET, corpus, table, group)
            assert [run_bytes(*result) for result in results] == [
                alone[runs.index(run)] for run in group], (budget, group)


def test_every_snapshot_is_a_read_only_parameter_vector(corpus, table):
    # the init, rounds that merge, and seed 5's first round, which carries the init forward
    spec = simulation_spec("III", scale=0.01, participation_fraction=0.25, global_epochs=2)
    runs = [(NO_NOISE, 5), (NoiseMechanism(UNIFORM_THRESHOLD, 0.5), 1)]
    [(carried, [empty, _]), (merged, reports)] = run_simulation(spec, QUIET, corpus, table, runs)
    assert empty.participating_clients == 0 and carried[1] is carried[0]
    assert all(report.participating_clients for report in reports)
    for snapshot in carried + merged:
        assert snapshot.dtype == np.float64 and snapshot.shape == (N_PARAMS,)
        assert not snapshot.flags.writeable


def test_run_simulation_refuses_no_runs(surveys, corpus, table):
    spec = simulation_spec("I", scale=0.01, global_epochs=1)
    with pytest.raises(ValueError, match="no runs"):
        run_simulation(spec, surveys, corpus, table, [])
