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
    """Prominent symptoms of one country with exact display probabilities.

    Its hash is computed once, at construction: a distribution keys the
    phrase table's walks, looked up once a synthesized client, and the
    generated hash would re-hash every entry on each lookup. Equality is
    the generated field-by-field one.
    """

    country: str
    entries: tuple[tuple[str, float], ...]
    prominent_lower: frozenset[str] = field(init=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "prominent_lower", frozenset(name.lower() for name, _ in self.entries)
        )
        object.__setattr__(self, "_hash",
                           hash((self.country, self.entries, self.prominent_lower)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class MedicalCorpus:
    """Ordered pool of symptom/condition phrases."""

    terms: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.terms)


def load_surveys(path: str, embeddings: EmbeddingTable | None = None) -> list[CountrySurvey]:
    """Parse the survey file.

    Format: blocks introduced by ``country: NAME`` followed by
    ``total: N`` and one ``Symptom name: count`` line per symptom.
    Blank lines and ``#`` comments are ignored. Symptom order inside a
    block is preserved. A format error, a country or symptom with no
    name, a repeated country, total or symptom and a total or count that
    is not an optional ``-`` and ASCII digits raise ValueError naming the
    file and line. When an embedding table is supplied, every
    symptom, zero counts included, is checked to be embeddable;
    offenders are reported in one error.
    """
    starts: dict[str, str] = {}  # country -> "path:line" of its country row
    totals: dict[str, int] = {}
    counts: dict[str, dict[str, int]] = {}
    country: str | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{path}:{lineno}"
            if ":" not in line:
                raise ValueError(f"{where}: expected 'key: value'")
            key, value = (part.strip() for part in line.split(":", 1))
            if key == "country":
                if not value:
                    raise ValueError(f"{where}: country line with no name")
                if value in starts:
                    raise ValueError(f"{where}: repeated country {value!r}")
                country, starts[value], counts[value] = value, where, {}
            elif country is None:
                raise ValueError(f"{where}: {key!r} line before any country")
            elif key == "total":
                if country in totals:
                    raise ValueError(f"{where}: second total for {country!r}")
                totals[country] = _integer(where, value)
            elif not key:
                raise ValueError(f"{where}: symptom line with no name")
            elif key in counts[country]:
                raise ValueError(f"{where}: duplicate symptom {key!r}")
            else:
                counts[country][key] = _integer(where, value)
    if not starts:
        raise ValueError(f"no survey records in {path}")
    surveys = []
    for country, where in starts.items():
        if country not in totals:
            raise ValueError(f"{where}: survey for {country!r} has no total")
        try:
            surveys.append(CountrySurvey(country=country, total=totals[country],
                                         symptom_counts=counts[country]))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    _check_embeddable(path, "survey symptoms", embeddings,
                      (name for s in surveys for name in s.symptom_counts))
    return surveys


def integer(text: str) -> int:
    """An optional '-' and ASCII digits; int() alone would also read '1_00', '+5' and '٣'.

    The one integer syntax of the survey file and of every integer flag.
    """
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


def _integer(where: str, value: str) -> int:
    try:
        return integer(value)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


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
    _check_embeddable(path, "corpus terms", embeddings, terms)
    return MedicalCorpus(terms=tuple(terms))


def _check_embeddable(path: str, what: str, embeddings: EmbeddingTable | None,
                      phrases) -> None:
    """Raise one error naming every distinct phrase with no embedding; no table, no check."""
    if embeddings is None:
        return
    bad = []
    for phrase in dict.fromkeys(phrases):
        try:
            encode_phrase(embeddings, phrase)
        except ValueError:
            bad.append(phrase)
    if bad:
        raise ValueError(f"{path}: unembeddable {what}: {', '.join(bad)}")


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
