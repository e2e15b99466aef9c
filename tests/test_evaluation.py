"""Evaluation table, accuracy metric, sweeps, CSV round-trips."""

import numpy as np
import pytest

from fedsymptoms import evaluation
from fedsymptoms.evaluation import (
    ACCURACY_HEADER,
    GROUP_HIGH,
    GROUP_LOW,
    HIGH_FRACTION_CUTOFF,
    PREDICTION_HEADER,
    AccuracyRow,
    EvalSet,
    PredictionRow,
    build_evalset,
    read_accuracy_csv,
    record_run,
    sweep,
    write_accuracy_csv,
    write_predictions_csv,
)
from fedsymptoms.federation import run_simulation, simulation_spec
from fedsymptoms.mlp import LAYER_SIZES, MlpParameters
from fedsymptoms.sampling import (
    LAPLACE_DP,
    NO_NOISE,
    NORMAL_THRESHOLD,
    UNIFORM_THRESHOLD,
    NoiseMechanism,
)

from conftest import TIMED_FIELDS


def zero_params():
    layers = tuple(
        (np.zeros((LAYER_SIZES[i], LAYER_SIZES[i + 1])), np.zeros(LAYER_SIZES[i + 1]))
        for i in range(len(LAYER_SIZES) - 1))
    return MlpParameters.from_layers(layers)


def test_evalset_covers_all_sixteen_symptoms(evalset):
    assert len(evalset.symptoms) == 16
    assert evalset.group_high | evalset.group_low == set(evalset.symptoms)
    assert not (evalset.group_high & evalset.group_low)


def test_evalset_partition_matches_aggregate_fractions(surveys, evalset):
    grand = sum(s.total for s in surveys)
    for name in evalset.symptoms:
        aggregate = sum(s.symptom_counts.get(name, 0) for s in surveys)
        expected = GROUP_HIGH if aggregate / grand > HIGH_FRACTION_CUTOFF else GROUP_LOW
        assert evalset.group_of(name) == expected


def test_evalset_group_sizes(evalset):
    assert len(evalset.group_high) == 7
    assert len(evalset.group_low) == 9


def test_evalset_validation():
    with pytest.raises(ValueError):
        EvalSet(symptoms=("a", "b"), group_high=frozenset({"a"}),
                group_low=frozenset())
    with pytest.raises(ValueError):
        EvalSet(symptoms=("a",), group_high=frozenset({"a"}),
                group_low=frozenset({"a"}))


def test_accuracy_counts_threshold_ties_as_positive(evalset, table):
    # zero weights push every sigmoid output to exactly 0.5
    params = zero_params()
    spec = simulation_spec("I", scale=0.01)
    result = record_run(spec, [params, params], evalset, table, NO_NOISE, seed=1)
    assert [r.prediction for r in result.predictions] == [0.5] * len(evalset.symptoms)
    assert [r.accuracy for r in result.accuracies] == [1.0]


def test_accuracy_is_a_sixteenth_multiple(surveys, corpus, table, evalset):
    spec = simulation_spec("I", scale=0.01)
    [(snapshots, _)] = run_simulation(spec, surveys, corpus, table, [(NO_NOISE, 1)])
    result = record_run(spec, snapshots, evalset, table, NO_NOISE, seed=1)
    for row in result.accuracies:
        assert abs(row.accuracy * 16 - round(row.accuracy * 16)) < 1e-12
        predictions = [r.prediction for r in result.predictions
                       if r.global_epoch == row.global_epoch]
        assert row.accuracy == sum(p >= 0.5 for p in predictions) / 16


def test_record_run_row_counts_and_epoch_numbering(surveys, corpus, table, evalset):
    spec = simulation_spec("I", scale=0.01)
    [(snapshots, _)] = run_simulation(spec, surveys, corpus, table, [(NO_NOISE, 1)])
    result = record_run(spec, snapshots, evalset, table, NO_NOISE, seed=1)
    assert len(result.predictions) == 16 * spec.global_epochs
    assert len(result.accuracies) == spec.global_epochs
    assert [r.global_epoch for r in result.accuracies] == [1, 2, 3, 4, 5]
    assert {r.group for r in result.predictions} == {GROUP_HIGH, GROUP_LOW}
    for row in result.predictions:
        assert 0.0 < row.prediction < 1.0


def test_noise_sweep_row_counts(surveys, corpus, table, evalset):
    spec = simulation_spec("I", scale=0.01)
    mechanisms = [NoiseMechanism(NORMAL_THRESHOLD, level) for level in (0.0, 0.5)]
    result = sweep(spec, mechanisms, [1, 2], surveys, corpus, table, evalset)
    assert len(result.accuracies) == 2 * 2 * spec.global_epochs
    assert len(result.predictions) == 2 * 2 * spec.global_epochs * 16
    assert all(r.mechanism == NORMAL_THRESHOLD for r in result.accuracies)
    assert all(r.epsilon is None for r in result.accuracies)


def test_epsilon_sweep_rows_record_epsilon(surveys, corpus, table, evalset):
    spec = simulation_spec("I", scale=0.01)
    mechanisms = [NoiseMechanism(LAPLACE_DP, 0.5, epsilon=eps) for eps in (2.0, 10.0)]
    result = sweep(spec, mechanisms, [1], surveys, corpus, table, evalset)
    assert len(result.accuracies) == 2 * spec.global_epochs
    assert {r.epsilon for r in result.accuracies} == {2.0, 10.0}
    assert all(r.mechanism == LAPLACE_DP for r in result.accuracies)
    assert all(r.noise_level == 0.5 for r in result.accuracies)


def test_sweep_rows_do_not_depend_on_the_grouping(monkeypatch, surveys, corpus, table, evalset):
    # 1 client a round over 2 rounds: each run holds 1 + 2 + 1 vectors
    spec = simulation_spec("I", scale=0.01, global_epochs=2)
    mechanisms = [NoiseMechanism(UNIFORM_THRESHOLD, level) for level in (0.5, 0.0)]
    real = evaluation.run_simulation
    groups = []

    def recorded(spec, surveys, corpus, embeddings, runs):
        groups.append(len(runs))
        return real(spec, surveys, corpus, embeddings, runs)

    monkeypatch.setattr(evaluation, "run_simulation", recorded)
    results = {}
    for budget, expected in ((1, [1, 1, 1, 1]), (8, [2, 2]), (12, [3, 1]), (96, [4])):
        groups.clear()
        monkeypatch.setattr(evaluation, "GROUP_VECTORS", budget)
        results[budget] = sweep(spec, mechanisms, [2, 1], surveys, corpus, table, evalset)
        assert groups == expected
    first = results[1]
    assert [(r.noise_level, r.seed) for r in first.accuracies[::spec.global_epochs]] == [
        (0.0, 1), (0.0, 2), (0.5, 1), (0.5, 2)]
    # every row and round report holds, apart from the times of the group's rounds
    def untimed(result):
        return (result.predictions, result.accuracies,
                [{k: v for k, v in r.items() if k not in TIMED_FIELDS} for r in result.rounds])

    assert len(first.rounds) == 4 * spec.global_epochs
    assert all(untimed(result) == untimed(first) for result in results.values())


@pytest.mark.parametrize("levels, seeds, message", [
    ((0.5, 0.0, 0.5), (1, 2), r"mechanisms repeat NoiseMechanism\(kind='uniform_threshold', "
                              r"noise_level=0.5, epsilon=None\)$"),
    ((0.5,), (3, 1, 3, 1, 2), "seeds repeat 3, 1$"),
])
def test_sweep_refuses_a_repeated_mechanism_or_seed(monkeypatch, surveys, corpus, table,
                                                    evalset, levels, seeds, message):
    # refused before any run starts: a repeat would write a run's rows twice
    monkeypatch.setattr(evaluation, "run_simulation", None)
    spec = simulation_spec("I", scale=0.01)
    mechanisms = [NoiseMechanism(UNIFORM_THRESHOLD, level) for level in levels]
    with pytest.raises(ValueError, match=message):
        sweep(spec, mechanisms, list(seeds), surveys, corpus, table, evalset)


@pytest.mark.parametrize("levels, seeds, message", [
    ((), (1,), "sweep has no mechanisms$"),
    ((0.5,), (), "sweep has no seeds$"),
    ((), (), "sweep has no mechanisms$"),
])
def test_sweep_refuses_an_empty_mechanism_or_seed_list(monkeypatch, surveys, corpus, table,
                                                       evalset, levels, seeds, message):
    # refused before any run starts, as run_simulation refuses no runs; it used to return
    # an empty SweepResult
    monkeypatch.setattr(evaluation, "run_simulation", None)
    spec = simulation_spec("I", scale=0.01)
    mechanisms = [NoiseMechanism(UNIFORM_THRESHOLD, level) for level in levels]
    with pytest.raises(ValueError, match=message):
        sweep(spec, mechanisms, list(seeds), surveys, corpus, table, evalset)


def test_prediction_csv_format(tmp_path):
    rows = [
        PredictionRow(simulation="I", mechanism=UNIFORM_THRESHOLD,
                      noise_level=0.25, epsilon=None, seed=1, global_epoch=1,
                      symptom="Fever", group=GROUP_HIGH, prediction=0.875),
        PredictionRow(simulation="I", mechanism=LAPLACE_DP,
                      noise_level=0.5, epsilon=2.0, seed=1, global_epoch=1,
                      symptom="Chills", group=GROUP_LOW, prediction=0.125),
    ]
    path = tmp_path / "p.csv"
    write_predictions_csv(rows, str(path))
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    assert lines[0] == ",".join(PREDICTION_HEADER)
    assert lines[1] == "I,uniform_threshold,0.25,,1,1,Fever,high,0.875"
    assert lines[2] == "I,laplace_dp,0.5,2.0,1,1,Chills,low,0.125"
    assert text.endswith("\n")


def test_accuracy_csv_roundtrip(tmp_path):
    rows = [
        AccuracyRow(simulation="I", mechanism=UNIFORM_THRESHOLD, noise_level=0.1,
                    epsilon=None, seed=3, global_epoch=2, accuracy=0.9375),
        AccuracyRow(simulation="II", mechanism=LAPLACE_DP, noise_level=0.5,
                    epsilon=10.0, seed=4, global_epoch=5, accuracy=1.0),
    ]
    path = tmp_path / "a.csv"
    write_accuracy_csv(rows, str(path))
    assert read_accuracy_csv(str(path)) == rows


def test_accuracy_csv_floats_use_repr(tmp_path):
    rows = [AccuracyRow(simulation="I", mechanism=UNIFORM_THRESHOLD,
                        noise_level=0.1, epsilon=None, seed=1, global_epoch=1,
                        accuracy=1 / 3)]
    path = tmp_path / "a.csv"
    write_accuracy_csv(rows, str(path))
    assert repr(1 / 3) in path.read_text(encoding="utf-8")


def test_read_accuracy_csv_rejects_missing_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("simulation,seed\nI,1\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_accuracy_csv(str(path))


def test_csv_writes_are_byte_stable(tmp_path, surveys, corpus, table, evalset):
    spec = simulation_spec("I", scale=0.01)
    result = sweep(spec, [NoiseMechanism(UNIFORM_THRESHOLD, 0.0)], [1], surveys, corpus,
                   table, evalset)
    p1, p2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
    write_predictions_csv(result.predictions, str(p1))
    write_predictions_csv(result.predictions, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
