"""Symptom predictions, 16-symptom accuracy, and noise / epsilon sweeps.

Accuracy is threshold classification over the full symptom table with
all-positive ground truth: every table row is a genuine disease symptom,
so the score is the fraction (k/16) predicted at or above
DECISION_THRESHOLD. Symptoms are split into a high-display group (aggregate
display fraction above 10% of the surveyed population) and the low
group, mirroring the two curves of the sweep figures. `sweep` runs one
simulation per (noise mechanism, seed); the caller builds the mechanisms
for its axis, varying the noise level or epsilon.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

from .embeddings import EmbeddingTable, encode_phrase
from .federation import FederationConfig, SimulationSpec, run_simulation
from .mlp import MlpParameters, forward
from .sampling import NoiseMechanism
from .surveys import CountrySurvey

GROUP_HIGH = "high"
GROUP_LOW = "low"
HIGH_FRACTION_CUTOFF = 0.10
DECISION_THRESHOLD = 0.5

PREDICTION_HEADER = ("simulation", "mechanism", "noise_level", "epsilon",
                     "seed", "global_epoch", "symptom", "group", "prediction")
ACCURACY_HEADER = ("simulation", "mechanism", "noise_level", "epsilon",
                   "seed", "global_epoch", "accuracy")


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


@dataclass(frozen=True)
class PredictionRow:
    simulation: str
    mechanism: str
    noise_level: float
    epsilon: float | None
    seed: int
    global_epoch: int
    symptom: str
    group: str
    prediction: float


@dataclass(frozen=True)
class AccuracyRow:
    simulation: str
    mechanism: str
    noise_level: float
    epsilon: float | None
    seed: int
    global_epoch: int
    accuracy: float


@dataclass
class SweepResult:
    predictions: list[PredictionRow] = field(default_factory=list)
    accuracies: list[AccuracyRow] = field(default_factory=list)

    def extend(self, other: "SweepResult") -> None:
        self.predictions.extend(other.predictions)
        self.accuracies.extend(other.accuracies)

    def sort(self, symptom_order: tuple[str, ...]) -> None:
        """Canonical row order so merged sweeps are byte-stable."""
        index = {name: i for i, name in enumerate(symptom_order)}

        def run_key(row: PredictionRow | AccuracyRow):
            return (row.simulation, row.mechanism, row.noise_level,
                    row.epsilon if row.epsilon is not None else -1.0,
                    row.seed, row.global_epoch)

        self.predictions.sort(key=lambda row: (*run_key(row),
                                               index.get(row.symptom, len(index))))
        self.accuracies.sort(key=run_key)


def record_run(spec: SimulationSpec, snapshots: list[MlpParameters],
               evalset: EvalSet, embeddings: EmbeddingTable,
               mechanism: NoiseMechanism, seed: int) -> SweepResult:
    """Turn one run's post-round snapshots into sweep rows.

    Each symptom is encoded once and scored once per snapshot; the
    accuracy row is derived from those same predictions. Epoch numbering
    starts at 1 for the first aggregated model; the pre-training
    snapshot is not recorded.
    """
    vectors = [encode_phrase(embeddings, s) for s in evalset.symptoms]
    run = dict(simulation=spec.id, mechanism=mechanism.kind,
               noise_level=mechanism.noise_level, epsilon=mechanism.epsilon, seed=seed)
    result = SweepResult()
    for epoch, params in enumerate(snapshots[1:], start=1):
        predictions = [forward(params, v) for v in vectors]
        result.predictions.extend(
            PredictionRow(**run, global_epoch=epoch, symptom=symptom,
                          group=evalset.group_of(symptom), prediction=p)
            for symptom, p in zip(evalset.symptoms, predictions))
        result.accuracies.append(AccuracyRow(**run, global_epoch=epoch,
                                             accuracy=evalset.accuracy(predictions)))
    return result


def sweep(spec: SimulationSpec, mechanisms: list[NoiseMechanism], seeds: list[int],
          surveys: list[CountrySurvey], corpus, embeddings: EmbeddingTable,
          base_config: FederationConfig, evalset: EvalSet) -> SweepResult:
    """One full run per (mechanism, seed) under base_config; rows in canonical order."""
    merged = SweepResult()
    for mechanism in mechanisms:
        config = replace(base_config, noise=mechanism)
        for seed in seeds:
            snapshots, _ = run_simulation(spec, surveys, corpus, embeddings,
                                          config, seed)
            merged.extend(record_run(spec, snapshots, evalset, embeddings,
                                     mechanism, seed))
    merged.sort(evalset.symptoms)
    return merged


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_predictions_csv(rows: list[PredictionRow], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PREDICTION_HEADER)
        for r in rows:
            writer.writerow([r.simulation, r.mechanism, _format(r.noise_level),
                             _format(r.epsilon), r.seed, r.global_epoch,
                             r.symptom, r.group, _format(r.prediction)])


def write_accuracy_csv(rows: list[AccuracyRow], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(ACCURACY_HEADER)
        for r in rows:
            writer.writerow([r.simulation, r.mechanism, _format(r.noise_level),
                             _format(r.epsilon), r.seed, r.global_epoch,
                             _format(r.accuracy)])


def read_accuracy_csv(path: str) -> list[AccuracyRow]:
    rows: list[AccuracyRow] = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(ACCURACY_HEADER) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"{path}: missing columns {sorted(missing)}")
        for rec in reader:
            rows.append(AccuracyRow(
                simulation=rec["simulation"],
                mechanism=rec["mechanism"],
                noise_level=float(rec["noise_level"]),
                epsilon=float(rec["epsilon"]) if rec["epsilon"] else None,
                seed=int(rec["seed"]),
                global_epoch=int(rec["global_epoch"]),
                accuracy=float(rec["accuracy"]),
            ))
    return rows
