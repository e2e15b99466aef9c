"""Country survey tables, display-probability distributions, medical corpus.

Survey records hold absolute respondent counts per symptom; the display
probability of a symptom is its count divided by the country total. The
medical corpus is the pool of phrases from which noise symptoms and
negative training examples are drawn.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embeddings import EmbeddingTable, encode_phrase


@dataclass(frozen=True)
class CountrySurvey:
    """One country's surveyed population and per-symptom counts."""

    country: str
    total: int
    symptom_counts: dict[str, int]

    def __post_init__(self):
        if self.total <= 0:
            raise ValueError(f"{self.country}: total must be positive")
        for name, count in self.symptom_counts.items():
            if count < 0 or count > self.total:
                raise ValueError(f"{self.country}: count for {name!r} outside [0, total]")
        if not any(c > 0 for c in self.symptom_counts.values()):
            raise ValueError(f"{self.country}: no symptom has a positive count")


@dataclass(frozen=True)
class SymptomDistribution:
    """Prominent symptoms of one country with exact display probabilities."""

    country: str
    entries: tuple[tuple[str, float], ...]
    prominent_lower: frozenset[str] = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "prominent_lower", frozenset(name.lower() for name, _ in self.entries)
        )


@dataclass(frozen=True)
class MedicalCorpus:
    """Ordered pool of symptom/condition phrases."""

    terms: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.terms)


def load_surveys(path: str) -> list[CountrySurvey]:
    """Parse the bundled survey file.

    Format: blocks introduced by ``country: NAME`` followed by
    ``total: N`` and one ``Symptom name: count`` line per symptom.
    Blank lines and ``#`` comments are ignored. Symptom order inside a
    block is preserved.
    """
    surveys: list[CountrySurvey] = []
    country: str | None = None
    total: int | None = None
    counts: dict[str, int] = {}

    def flush():
        nonlocal country, total, counts
        if country is None:
            return
        if total is None:
            raise ValueError(f"survey for {country!r} has no total")
        surveys.append(CountrySurvey(country=country, total=total, symptom_counts=counts))
        country, total, counts = None, None, {}

    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if ":" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key: value'")
            key, value = (part.strip() for part in line.split(":", 1))
            if key == "country":
                flush()
                country = value
            elif key == "total":
                total = int(value)
            else:
                if country is None:
                    raise ValueError(f"{path}:{lineno}: symptom line before any country")
                if key in counts:
                    raise ValueError(f"{path}:{lineno}: duplicate symptom {key!r}")
                counts[key] = int(value)
    flush()
    if not surveys:
        raise ValueError(f"no survey records in {path}")
    return surveys


def load_corpus(path: str, embeddings: EmbeddingTable | None = None) -> MedicalCorpus:
    """Load the corpus file (one term per line, ``#`` comments allowed).

    Terms must be distinct after lowercasing and at least 50 in number.
    When an embedding table is supplied, every term is checked to be
    embeddable; offenders are reported in one error.
    """
    terms: list[str] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            term = raw.strip()
            if not term or term.startswith("#"):
                continue
            low = term.lower()
            if low in seen:
                raise ValueError(f"{path}:{lineno}: duplicate corpus term {term!r}")
            seen.add(low)
            terms.append(term)
    if len(terms) < 50:
        raise ValueError(f"{path}: corpus has {len(terms)} terms, need at least 50")
    if embeddings is not None:
        bad = [t for t in terms if not _embeddable(embeddings, t)]
        if bad:
            raise ValueError(f"{path}: unembeddable corpus terms: {', '.join(bad)}")
    return MedicalCorpus(terms=tuple(terms))


def _embeddable(embeddings: EmbeddingTable, phrase: str) -> bool:
    try:
        encode_phrase(embeddings, phrase)
        return True
    except ValueError:
        return False


def build_distribution(survey: CountrySurvey) -> SymptomDistribution:
    """Extract the positive-count symptoms with probability count/total.

    Entry order matches the survey record's row order.
    """
    entries = tuple(
        (name, count / survey.total)
        for name, count in survey.symptom_counts.items()
        if count > 0
    )
    return SymptomDistribution(country=survey.country, entries=entries)


def assign_countries(n_clients: int, surveys: list[CountrySurvey],
                     rng: np.random.Generator) -> np.ndarray:
    """Assign each client a country index, weighted by surveyed totals.

    Returns the drawn (n_clients,) integer array; entry i is client i's.

    Weights are exact integer ratios total_c / sum(totals), so scaling
    every total by a common factor leaves the draw stream unchanged.
    """
    if n_clients <= 0:
        raise ValueError("n_clients must be positive")
    if not surveys:
        raise ValueError("surveys must be non-empty")
    grand = sum(s.total for s in surveys)
    weights = np.array([s.total / grand for s in surveys], dtype=np.float64)
    return rng.choice(len(surveys), size=n_clients, p=weights)
