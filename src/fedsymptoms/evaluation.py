"""Symptom predictions, 16-symptom accuracy, and noise / epsilon sweeps.

Accuracy is threshold classification over the full symptom table with
all-positive ground truth: every table row is a genuine disease symptom,
so the score is the fraction (k/16) predicted at or above
DECISION_THRESHOLD. Symptoms are split into a high-display group (aggregate
display fraction above 10% of the surveyed population) and the low
group, mirroring the two curves of the sweep figures. `sweep` runs one
simulation per (noise mechanism, seed), several side by side under one
SimulationSpec; the caller builds the mechanisms of its level or epsilon axis.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .config import check_seed
from .embeddings import EmbeddingTable, encode_phrase
from .federation import SIMULATION_IDS, SimulationSpec, run_simulation
from .mlp import MlpParameters, forward
from .sampling import NoiseMechanism
from .surveys import CountrySurvey

GROUP_HIGH = "high"
GROUP_LOW = "low"
HIGH_FRACTION_CUTOFF = 0.10
DECISION_THRESHOLD = 0.5

# parameter vectors of 18.4 KB (~3.5 MB) that the runs of one sweep group
# hold at once; a run that needs more runs alone. Against 96, the 12 runs of a
# 4 x 3 III sweep at scale 0.01 train as one group, not two, and the process's
# peak RSS rose 1.9% (45.05 -> 45.92 MB, 30 s of such sweeps, 1 BLAS thread)
GROUP_VECTORS = 192


@dataclass(frozen=True)
class EvalSet:
    """The scored symptom table, split at the 10% display fraction."""

    symptoms: tuple[str, ...]
    group_high: frozenset[str]
    group_low: frozenset[str]

    def __post_init__(self):
        if self.group_high | self.group_low != set(self.symptoms):
            raise ValueError("groups must cover the symptom list")
        if self.group_high & self.group_low:
            raise ValueError("groups must be disjoint")

    def group_of(self, symptom: str) -> str:
        return GROUP_HIGH if symptom in self.group_high else GROUP_LOW

    def accuracy(self, predictions: list[float]) -> float:
        """Fraction of the symptoms' predictions at or above the threshold."""
        hits = sum(1 for p in predictions if p >= DECISION_THRESHOLD)
        return hits / len(self.symptoms)


def build_evalset(surveys: list[CountrySurvey]) -> EvalSet:
    """Collect all surveyed symptoms and split them at 10% aggregate display.

    Symptom order follows the survey table rows; the aggregate fraction
    of a symptom is its summed count over all countries divided by the
    total surveyed population.
    """
    symptoms: list[str] = []
    for survey in surveys:
        for name in survey.symptom_counts:
            if name not in symptoms:
                symptoms.append(name)
    grand_total = sum(s.total for s in surveys)
    high = []
    for name in symptoms:
        aggregate = sum(s.symptom_counts.get(name, 0) for s in surveys)
        if aggregate / grand_total > HIGH_FRACTION_CUTOFF:
            high.append(name)
    return EvalSet(
        symptoms=tuple(symptoms),
        group_high=frozenset(high),
        group_low=frozenset(s for s in symptoms if s not in high),
    )


class PredictionRow(NamedTuple):
    """One line of predictions.csv; the fields are its columns, in order."""

    simulation: str
    mechanism: str
    noise_level: float
    epsilon: float | None
    seed: int
    global_epoch: int
    symptom: str
    group: str
    prediction: float


class AccuracyRow(NamedTuple):
    """One line of accuracy.csv; the fields are its columns, in order."""

    simulation: str
    mechanism: str
    noise_level: float
    epsilon: float | None
    seed: int
    global_epoch: int
    accuracy: float


PREDICTION_HEADER = PredictionRow._fields
ACCURACY_HEADER = AccuracyRow._fields


@dataclass
class SweepResult:
    predictions: list[PredictionRow] = field(default_factory=list)
    accuracies: list[AccuracyRow] = field(default_factory=list)
    # sweep's rounds.jsonl records: a run's mechanism, noise_level, epsilon and
    # seed, then one RoundReport's fields
    rounds: list[dict] = field(default_factory=list)


def record_run(spec: SimulationSpec, snapshots: list[MlpParameters],
               evalset: EvalSet, embeddings: EmbeddingTable,
               mechanism: NoiseMechanism, seed: int) -> SweepResult:
    """Turn one run's post-round snapshots into sweep rows.

    The symptoms are encoded once, stacked, and scored in one forward
    call per snapshot, each as a lone row; the accuracy row is derived
    from those same predictions. Epoch numbering starts at 1 for the
    first aggregated model; the pre-training snapshot is not recorded.
    """
    vectors = np.stack([encode_phrase(embeddings, s) for s in evalset.symptoms])
    run = dict(simulation=spec.id, mechanism=mechanism.kind,
               noise_level=mechanism.noise_level, epsilon=mechanism.epsilon, seed=seed)
    result = SweepResult()
    for epoch, params in enumerate(snapshots[1:], start=1):
        predictions = forward(params, vectors).tolist()
        result.predictions.extend(
            PredictionRow(**run, global_epoch=epoch, symptom=symptom,
                          group=evalset.group_of(symptom), prediction=p)
            for symptom, p in zip(evalset.symptoms, predictions))
        result.accuracies.append(AccuracyRow(**run, global_epoch=epoch,
                                             accuracy=evalset.accuracy(predictions)))
    return result


def sweep(spec: SimulationSpec, mechanisms: list[NoiseMechanism], seeds: list[int],
          surveys: list[CountrySurvey], corpus, embeddings: EmbeddingTable,
          evalset: EvalSet) -> SweepResult:
    """One full run per (mechanism, seed), every run under spec.

    Runs go in canonical order, mechanisms by (kind, noise level, epsilon)
    and then seeds ascending, and each run's rows come by epoch and then
    symptom, so the rows do not depend on the order the caller lists them.
    A repeated mechanism or seed would repeat a run's rows, and an empty
    mechanism or seed list would give no run, so each is refused, before
    any run. The canonical list is cut into consecutive groups of runs
    that hold at most GROUP_VECTORS parameter vectors between them; each
    group runs in one run_simulation call under spec, and each of its runs
    is recorded as the group ends, its round reports in `rounds`. A run's
    rows do not depend on its group.
    """
    for name, items in (("mechanisms", mechanisms), ("seeds", seeds)):
        if not items:
            raise ValueError(f"sweep has no {name}")
        repeated = [x for i, x in enumerate(items) if x in items[:i]]
        if repeated:
            raise ValueError(f"sweep {name} repeat {', '.join(map(repr, dict.fromkeys(repeated)))}")
    # epsilon is None or positive, so 0.0 puts None before any epsilon
    runs = [(mechanism, seed)
            for mechanism in sorted(mechanisms,
                                    key=lambda m: (m.kind, m.noise_level, m.epsilon or 0.0))
            for seed in sorted(seeds)]
    # a run holds a round's updates until its FedAvg, and its snapshots until recorded
    per_run = spec.clients_per_round + spec.global_epochs + 1
    group_size = max(1, GROUP_VECTORS // per_run)
    merged = SweepResult()
    for start in range(0, len(runs), group_size):
        group = runs[start:start + group_size]
        results = run_simulation(spec, surveys, corpus, embeddings, group)
        for (mechanism, seed), (snapshots, reports) in zip(group, results):
            run = record_run(spec, snapshots, evalset, embeddings, mechanism, seed)
            merged.predictions.extend(run.predictions)
            merged.accuracies.extend(run.accuracies)
            key = dict(mechanism=mechanism.kind, noise_level=mechanism.noise_level,
                       epsilon=mechanism.epsilon, seed=seed)
            merged.rounds.extend({**key, **asdict(report)} for report in reports)
    return merged


def _write_csv(path: str, header: tuple[str, ...], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_predictions_csv(rows: list[PredictionRow], path: str) -> None:
    _write_csv(path, PREDICTION_HEADER, rows)


def write_accuracy_csv(rows: list[AccuracyRow], path: str) -> None:
    _write_csv(path, ACCURACY_HEADER, rows)


_ACCURACY_PARSERS = dict(simulation=str, mechanism=str, noise_level=float,
                         epsilon=lambda text: float(text) if text else None,
                         seed=int, global_epoch=int, accuracy=float)


def read_accuracy_csv(path: str) -> list[AccuracyRow]:
    """Read accuracy.csv, refusing any row that would skew a seed mean.

    A row with a missing or unreadable field, a simulation, mechanism or
    seed run would refuse, a global epoch below 1 (record_run numbers them
    from 1), an accuracy outside [0, 1] (NaN included), or the same run and
    epoch as an earlier row raises ValueError naming ``path:line``.
    """
    rows: list[AccuracyRow] = []
    first_line: dict[tuple, int] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(ACCURACY_HEADER) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"{path}: missing columns {sorted(missing)}")
        for rec in reader:
            where = f"{path}:{reader.line_num}"
            values = {}
            for name, parse in _ACCURACY_PARSERS.items():
                if rec[name] is None:
                    raise ValueError(f"{where}: no {name} field")
                try:
                    values[name] = parse(rec[name])
                except ValueError:
                    raise ValueError(f"{where}: cannot read {name} {rec[name]!r}") from None
            # the checks run and sweep make of the settings that wrote the row
            try:
                NoiseMechanism(values["mechanism"], values["noise_level"], values["epsilon"])
                check_seed(values["seed"], "seed")
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            row = AccuracyRow(**values)
            if row.simulation not in SIMULATION_IDS:
                raise ValueError(f"{where}: unknown simulation {row.simulation!r}; "
                                 f"expected one of {SIMULATION_IDS}")
            if row.global_epoch < 1:
                raise ValueError(f"{where}: global_epoch {row.global_epoch} is below 1")
            if not 0.0 <= row.accuracy <= 1.0:
                raise ValueError(f"{where}: accuracy {row.accuracy} outside [0, 1]")
            run_and_epoch = row[:-1]
            if run_and_epoch in first_line:
                raise ValueError(f"{where}: repeats the run and epoch of line "
                                 f"{first_line[run_and_epoch]}")
            first_line[run_and_epoch] = reader.line_num
            rows.append(row)
    return rows
