"""Per-person symptom display simulation and per-client dataset synthesis.

A simulated survey respondent walks the country's prominent-symptom list
in order. Each symptom is displayed with its survey probability; when it
is not displayed, a noise statistic decides whether a random corpus term
is reported instead. Displayed symptoms become positive training
examples, balanced 1:1 by corpus terms drawn from outside the
prominent-symptom set. Every phrase is encoded once per run into a
read-only PhraseTable; a client dataset is only an array of row indices
into that table and an array of 0/1 labels, so the walk appends row ids
and no per-example object or feature copy is kept.
"""

from __future__ import annotations

import math
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
            raise ValueError(f"mechanism must be one of {MECHANISM_KINDS}, got {self.kind!r}")
        # + 0.0 turns -0.0 into 0.0, so one level has one CSV spelling
        object.__setattr__(self, "noise_level", self.noise_level + 0.0)
        if not 0.0 <= self.noise_level <= 1.0:
            raise ValueError(f"noise_level {self.noise_level} outside [0, 1]")
        if self.kind == LAPLACE_DP:
            # a NaN or infinite epsilon never fires, at any level
            if self.epsilon is None or not (self.epsilon > 0 and math.isfinite(self.epsilon)):
                raise ValueError("laplace_dp requires a finite epsilon > 0")
        elif self.epsilon is not None:
            raise ValueError(f"epsilon applies only to laplace_dp, not {self.kind}")

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
    """Every phrase a run can emit, each encoded once, and the walks over it.

    Row i of the read-only ``matrix`` is the embedding of phrase
    ``names[i]``. ``walks[dist]`` is dist's prominent-symptom list as
    (row, display probability) pairs, in order;
    ``term_rows[i]`` is the row of corpus term i. ``negatives[dist.prominent_lower]``
    holds the rows of the corpus terms outside dist's prominent-symptom set,
    in corpus order (possibly none), as a read-only intp array.
    """

    matrix: np.ndarray
    names: tuple[str, ...]
    walks: dict[SymptomDistribution, tuple[tuple[int, float], ...]]
    term_rows: tuple[int, ...]
    negatives: dict[frozenset[str], np.ndarray]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def build_phrase_table(embeddings: EmbeddingTable, corpus: MedicalCorpus,
                       distributions: list[SymptomDistribution]) -> PhraseTable:
    """Encode every corpus term and every positive-count symptom once.

    An unembeddable phrase raises UnembeddablePhraseError, naming it,
    before any client is synthesized. The command line never gets here:
    its loaders refuse such phrases first, so only a library caller that
    loads without an embedding table reaches this raise.
    """
    names = tuple(dict.fromkeys([*corpus.terms,
                                 *(name for d in distributions for name, _ in d.entries)]))
    rows = {phrase: i for i, phrase in enumerate(names)}
    matrix = _read_only(np.stack([encode_phrase(embeddings, phrase) for phrase in names]))
    walks = {d: tuple((rows[name], p) for name, p in d.entries) for d in distributions}
    negatives = {d.prominent_lower: _read_only(np.array(
        [rows[t] for t in corpus.terms if t.lower() not in d.prominent_lower], dtype=np.intp))
        for d in distributions}
    return PhraseTable(matrix, names, walks,
                       tuple(rows[t] for t in corpus.terms), negatives)


class LabeledExample(NamedTuple):
    """Provenance of one feature row: its label and the phrase it encodes."""

    label: int
    source_symptom: str


@dataclass(frozen=True)
class ClientDataset:
    """One simulated client's labeled training examples, as rows of a phrase table.

    Example i is row ``rows[i]`` of ``phrases.matrix``, labeled ``labels[i]``
    (read-only float64, each 0.0 or 1.0). ``examples`` is derived from
    these on each access and never stored.
    """

    phrases: PhraseTable = field(repr=False)
    rows: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows)
        if rows.size and not np.issubdtype(rows.dtype, np.integer):
            raise ValueError(f"rows must be integers, got {rows.dtype}")
        rows = _read_only(rows.astype(np.intp))
        labels = _read_only(np.array(self.labels, dtype=np.float64))
        if rows.ndim != 1 or labels.shape != rows.shape:
            raise ValueError(f"labels of shape {labels.shape} for rows of shape {rows.shape}")
        if rows.size and not 0 <= rows.min() <= rows.max() < len(self.phrases.names):
            raise ValueError(f"rows outside the phrase table's {len(self.phrases.names)} rows")
        if not ((labels == 0.0) | (labels == 1.0)).all():
            raise ValueError("labels must be 0 or 1")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def examples(self) -> tuple[LabeledExample, ...]:
        """(label, source phrase) of each example, aligned with ``rows``."""
        names = self.phrases.names
        return tuple(LabeledExample(label, names[row])
                     for row, label in zip(self.rows.tolist(), self.labels.astype(int).tolist()))


def _walk(entries, terms, noise: NoiseMechanism, rng: np.random.Generator,
          displayed: list) -> None:
    """Append one person's displayed items: `entries` are (item, p), `terms` the noise pool.

    For each entry, one uniform draw against its probability; only
    when that misses, one noise draw; only when that fires, one more
    draw to pick the random term.
    """
    for item, p in entries:
        if rng.random() < p:
            displayed.append(item)
        elif noise.fires(rng):
            displayed.append(terms[rng.integers(len(terms))])


def simulate_person(dist: SymptomDistribution, corpus: MedicalCorpus,
                    noise: NoiseMechanism, rng: np.random.Generator) -> list[str]:
    """Walk the prominent-symptom list once and return displayed phrases (maybe none)."""
    displayed: list[str] = []
    _walk(dist.entries, corpus.terms, noise, rng, displayed)
    return displayed


def synthesize_client(n_persons: int, dist: SymptomDistribution, noise: NoiseMechanism,
                      phrases: PhraseTable, rng: np.random.Generator) -> ClientDataset:
    """Simulate n_persons respondents and build the balanced dataset.

    Draw order is fixed: all persons, then the negative corpus picks as
    one batch, then one shuffle. Changing it would change every dataset
    produced from a given stream. `phrases` must be built from a list of
    distributions that includes `dist`; the persons walk its rows (``walks[dist]``, ``term_rows``), so no phrase is looked
    up, and no example object or feature row is made, per example.
    """
    if n_persons < 1:
        raise ValueError("n_persons must be at least 1")

    walk, terms = phrases.walks[dist], phrases.term_rows
    emitted: list[int] = []
    for _ in range(n_persons):
        _walk(walk, terms, noise, rng, emitted)

    n_pos = len(emitted)
    if not n_pos:
        return ClientDataset(phrases=phrases, rows=np.empty(0, np.intp), labels=np.empty(0))

    negative_pool = phrases.negatives[dist.prominent_lower]
    if not negative_pool.size:
        raise ValueError("corpus has no terms outside the prominent-symptom set")

    picks = rng.integers(len(negative_pool), size=n_pos)
    order = rng.permutation(2 * n_pos)
    rows = np.concatenate([np.array(emitted, dtype=np.intp), negative_pool[picks]])
    # positives come first before the shuffle, so a row is positive iff it came from [0, n_pos)
    return ClientDataset(phrases=phrases, rows=rows[order], labels=order < n_pos)
