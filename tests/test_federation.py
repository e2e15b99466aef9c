"""Topology scaling, population assignment, FedAvg algebra, round loop."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsymptoms.embeddings import UnembeddablePhraseError
from fedsymptoms.federation import (
    FederationConfig,
    SimulationSpec,
    WEIGHT_UNIFORM,
    build_population,
    fedavg_aggregate,
    run_simulation,
    scaled_count,
    simulation_spec,
)
from fedsymptoms.mlp import LAYER_SIZES, MlpParameters, init_params
from fedsymptoms.rng import population_stream
from fedsymptoms.sampling import NO_NOISE, NoiseMechanism, UNIFORM_THRESHOLD
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


def as_flat(params):
    return np.concatenate([np.concatenate([w.ravel(), b.ravel()])
                           for w, b in params.layers])


def test_fedavg_identical_updates_is_exact_fixed_point():
    params = random_params(0)
    for weights in ([1, 1, 1], [3, 5], [7, 11, 13, 17]):
        merged = fedavg_aggregate([(params, n) for n in weights])
        for (wm, bm), (wp, bp) in zip(merged.layers, params.layers):
            assert np.array_equal(wm, wp)
            assert np.array_equal(bm, bp)


def test_fedavg_matches_extended_precision_oracle():
    updates = [(random_params(i), n) for i, n in enumerate([600, 1400, 250], start=1)]
    merged = as_flat(fedavg_aggregate(updates))
    total = sum(n for _, n in updates)
    flats = [as_flat(p) for p, _ in updates]
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
    merged = as_flat(fedavg_aggregate(updates))
    flats = np.stack([as_flat(p) for p, _ in updates])
    lo = flats.min(axis=0) - 1e-12
    hi = flats.max(axis=0) + 1e-12
    assert np.all(merged >= lo) and np.all(merged <= hi)


def test_fedavg_equal_weights_equals_plain_mean():
    updates = [(random_params(i), 4) for i in range(20, 23)]
    merged = as_flat(fedavg_aggregate(updates))
    plain = np.mean(np.stack([as_flat(p) for p, _ in updates]), axis=0)
    scale = np.maximum(np.abs(plain), 1e-30)
    assert np.max(np.abs(merged - plain) / scale) <= 1e-12


def test_fedavg_weight_scaling_invariance():
    params = [random_params(i) for i in range(30, 33)]
    a = as_flat(fedavg_aggregate(list(zip(params, [1, 2, 3]))))
    b = as_flat(fedavg_aggregate(list(zip(params, [10, 20, 30]))))
    assert np.array_equal(a, b)


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


def params_with_value(value):
    layers = tuple(
        (np.full((LAYER_SIZES[i], LAYER_SIZES[i + 1]), value),
         np.full(LAYER_SIZES[i + 1], value))
        for i in range(len(LAYER_SIZES) - 1))
    return MlpParameters.from_layers(layers)


@given(weighted_scalars())
@settings(max_examples=50, deadline=None)
def test_fedavg_scalar_property(case):
    values, weights = case
    updates = [(params_with_value(v), n) for v, n in zip(values, weights)]
    merged = fedavg_aggregate(updates)
    got = merged.layers[0][0][0, 0]
    oracle = math.fsum(v * n for v, n in zip(values, weights)) / sum(weights)
    assert abs(got - oracle) <= 1e-12 * max(1.0, abs(oracle))
    assert min(values) - 1e-9 <= got <= max(values) + 1e-9


def test_run_simulation_snapshots_and_reports(surveys, corpus, table):
    spec = simulation_spec("I", scale=0.01)
    config = FederationConfig(noise=NO_NOISE)
    snapshots, reports = run_simulation(spec, surveys, corpus, table, config, 1)
    assert len(snapshots) == spec.global_epochs + 1
    assert len(reports) == spec.global_epochs
    for report in reports:
        assert report.participating_clients + report.skipped_empty_clients == 1
        assert report.wall_time >= 0.0
        assert math.isfinite(report.mean_local_loss)


def test_run_simulation_deterministic(surveys, corpus, table):
    spec = simulation_spec("I", scale=0.01)
    config = FederationConfig(noise=NoiseMechanism(UNIFORM_THRESHOLD, 0.5))
    a, _ = run_simulation(spec, surveys, corpus, table, config, 2)
    b, _ = run_simulation(spec, surveys, corpus, table, config, 2)
    for ma, mb in zip(a, b):
        for (wa, ba), (wb, bb) in zip(ma.layers, mb.layers):
            assert np.array_equal(wa, wb) and np.array_equal(ba, bb)


def test_population_independent_of_noise(surveys, corpus, table):
    # same master seed, different noise: identical client layout
    spec = simulation_spec("I", scale=0.01)
    pop = build_population(spec, surveys, population_stream(4))
    again = build_population(spec, surveys, population_stream(4))
    assert np.array_equal(pop.sizes, again.sizes)
    assert np.array_equal(pop.countries, again.countries)


def test_fixed_client_data_changes_dynamics(surveys, corpus, table):
    spec = simulation_spec("I", scale=0.01)
    fresh = FederationConfig(noise=NO_NOISE, fixed_client_data=False)
    fixed = FederationConfig(noise=NO_NOISE, fixed_client_data=True)
    a, _ = run_simulation(spec, surveys, corpus, table, fresh, 5)
    b, _ = run_simulation(spec, surveys, corpus, table, fixed, 5)
    # first round uses round-0 data either way
    wa0, _ = a[1].layers[0]
    wb0, _ = b[1].layers[0]
    assert np.array_equal(wa0, wb0)
    # later rounds diverge once fresh data kicks in
    wa, _ = a[-1].layers[0]
    wb, _ = b[-1].layers[0]
    assert not np.array_equal(wa, wb)


def test_uniform_weighting_single_client_matches(surveys, corpus, table):
    spec = simulation_spec("I", scale=0.01)
    by_examples, _ = run_simulation(
        spec, surveys, corpus, table, FederationConfig(noise=NO_NOISE), 6)
    uniform, _ = run_simulation(
        spec, surveys, corpus, table,
        FederationConfig(noise=NO_NOISE, weighting=WEIGHT_UNIFORM), 6)
    wa, _ = by_examples[-1].layers[0]
    wb, _ = uniform[-1].layers[0]
    assert np.array_equal(wa, wb)


def test_unembeddable_surveyed_symptom_fails_at_run_start(corpus, table):
    survey = CountrySurvey(country="Odd", total=1000,
                           symptom_counts={"Fever": 500, "Zzxq blorp": 1})
    # no round runs, so the phrase is refused before any client is synthesized
    spec = simulation_spec("I", scale=0.01, global_epochs=0)
    with pytest.raises(UnembeddablePhraseError, match="Zzxq blorp") as err:
        run_simulation(spec, [survey], corpus, table, FederationConfig(noise=NO_NOISE), 1)
    assert err.value.phrase == "Zzxq blorp"
