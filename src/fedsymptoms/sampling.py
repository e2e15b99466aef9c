"""Per-person symptom display simulation and per-client dataset synthesis.

A simulated survey respondent walks the country's prominent-symptom list
in order. Each symptom is displayed with its survey probability; when it
is not displayed, a noise statistic decides whether a random corpus term
is reported instead. Displayed symptoms become positive training
examples, balanced 1:1 by corpus terms drawn from outside the
prominent-symptom set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .embeddings import EmbeddingTable, encode_phrase
from .surveys import MedicalCorpus, SymptomDistribution

UNIFORM_THRESHOLD = "uniform_threshold"
NORMAL_THRESHOLD = "normal_threshold"
LAPLACE_DP = "laplace_dp"

MECHANISM_KINDS = (UNIFORM_THRESHOLD, NORMAL_THRESHOLD, LAPLACE_DP)


@dataclass(frozen=True)
class NoiseMechanism:
    """How the not-displayed branch decides to report a random term.

    uniform_threshold fires when a uniform [0,1) draw falls below
    noise_level; normal_threshold fires when a standard normal draw
    falls below noise_level; laplace_dp fires when a Laplace(0, 1/eps)
    draw exceeds noise_level.
    """

    kind: str
    noise_level: float
    epsilon: float | None = None

    def __post_init__(self):
        if self.kind not in MECHANISM_KINDS:
            raise ValueError(f"unknown noise mechanism kind {self.kind!r}")
        if not 0.0 <= self.noise_level <= 1.0:
            raise ValueError(f"noise_level {self.noise_level} outside [0, 1]")
        if self.kind == LAPLACE_DP:
            if self.epsilon is None or self.epsilon <= 0:
                raise ValueError("laplace_dp requires epsilon > 0")

    def fires(self, rng: np.random.Generator) -> bool:
        """Draw the noise statistic and report whether it fires."""
        if self.kind == UNIFORM_THRESHOLD:
            return rng.random() < self.noise_level
        if self.kind == NORMAL_THRESHOLD:
            return rng.standard_normal() < self.noise_level
        return rng.laplace(0.0, 1.0 / self.epsilon) > self.noise_level


NO_NOISE = NoiseMechanism(kind=UNIFORM_THRESHOLD, noise_level=0.0)


@dataclass(frozen=True)
class PhraseTable:
    """Every phrase a run can emit, each encoded once.

    Row ``rows[phrase]`` of the read-only ``matrix`` is that phrase's embedding;
    ``negatives[dist.prominent_lower]`` holds the corpus terms outside dist's
    prominent-symptom set, in corpus order (possibly none).
    """

    matrix: np.ndarray
    rows: dict[str, int]
    negatives: dict[frozenset[str], tuple[str, ...]]


def build_phrase_table(embeddings: EmbeddingTable, corpus: MedicalCorpus,
                       distributions: list[SymptomDistribution]) -> PhraseTable:
    """Encode every corpus term and every positive-count symptom once.

    An unembeddable phrase raises UnembeddablePhraseError, naming it,
    before any client is synthesized.
    """
    phrases = dict.fromkeys([*corpus.terms, *(name for d in distributions for name in d.names)])
    matrix = np.stack([encode_phrase(embeddings, phrase) for phrase in phrases])
    matrix.flags.writeable = False
    negatives = {d.prominent_lower: tuple(t for t in corpus.terms
                                          if t.lower() not in d.prominent_lower)
                 for d in distributions}
    return PhraseTable(matrix, {phrase: i for i, phrase in enumerate(phrases)}, negatives)


class LabeledExample(NamedTuple):
    """Provenance of one feature row: its label and the phrase it encodes."""

    label: int
    source_symptom: str


@dataclass(frozen=True)
class ClientDataset:
    """One simulated client's labeled training examples.

    Row i of the read-only ``features`` matrix encodes ``examples[i]``,
    and entry i of the read-only float64 ``labels`` is its label.
    """

    client_id: int
    examples: tuple[LabeledExample, ...]
    n_persons: int
    features: np.ndarray
    labels: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.features.shape[0] != len(self.examples):
            raise ValueError(f"{self.features.shape[0]} feature rows "
                             f"for {len(self.examples)} examples")
        object.__setattr__(self, "labels", np.array([ex.label for ex in self.examples], float))
        self.labels.flags.writeable = False

    def __len__(self) -> int:
        return len(self.examples)

    @property
    def n_positive(self) -> int:
        return int(self.labels.sum())

    @property
    def n_negative(self) -> int:
        return len(self) - self.n_positive

    def label_vector(self) -> np.ndarray:
        return self.labels


def simulate_person(dist: SymptomDistribution, corpus: MedicalCorpus,
                    noise: NoiseMechanism, rng: np.random.Generator) -> list[str]:
    """Walk the prominent-symptom list once and return displayed phrases.

    For each symptom, one uniform draw against its probability; only
    when that misses, one noise draw; only when that fires, one more
    draw to pick the random corpus term. The list may be empty.
    """
    displayed: list[str] = []
    for symptom, p in dist.entries:
        if rng.random() < p:
            displayed.append(symptom)
        elif noise.fires(rng):
            displayed.append(corpus.terms[rng.integers(len(corpus.terms))])
    return displayed


def synthesize_client(client_id: int, n_persons: int, dist: SymptomDistribution,
                      corpus: MedicalCorpus, noise: NoiseMechanism,
                      phrases: PhraseTable,
                      rng: np.random.Generator) -> ClientDataset:
    """Simulate n_persons respondents and build the balanced dataset.

    Draw order is fixed: all persons, then the negative corpus picks as
    one batch, then one shuffle. Changing it would change every dataset
    produced from a given stream. `phrases` must be built from `corpus`
    and from a list of distributions that includes `dist`.
    """
    if n_persons < 1:
        raise ValueError("n_persons must be at least 1")

    emitted: list[str] = []
    for _ in range(n_persons):
        emitted.extend(simulate_person(dist, corpus, noise, rng))

    if not emitted:
        return ClientDataset(client_id=client_id, examples=(), n_persons=n_persons,
                             features=phrases.matrix[:0])

    negative_pool = phrases.negatives[dist.prominent_lower]
    if not negative_pool:
        raise ValueError("corpus has no terms outside the prominent-symptom set")

    examples = [LabeledExample(1, s) for s in emitted]
    picks = rng.integers(len(negative_pool), size=len(emitted))
    examples.extend(LabeledExample(0, negative_pool[i]) for i in picks)

    order = rng.permutation(len(examples))
    shuffled = tuple(examples[i] for i in order)
    features = phrases.matrix[[phrases.rows[ex.source_symptom] for ex in shuffled]]
    features.flags.writeable = False
    return ClientDataset(client_id=client_id, examples=shuffled,
                         n_persons=n_persons, features=features)
