"""Word embeddings: loading and phrase encoding.

The embeddings are a plain dict from lowercase tokens to read-only
vectors of one length, read from a plain-text file (one token plus its
components per line). Multi-word phrases are encoded as the arithmetic
mean of their token vectors.
"""

from __future__ import annotations

import logging

import numpy as np

log = logging.getLogger(__name__)


class UnembeddablePhraseError(ValueError):
    """Raised when no token of a phrase is present in the embeddings."""

    def __init__(self, phrase: str):
        super().__init__(f"unembeddable phrase: {phrase!r}")
        self.phrase = phrase


def load_embeddings(path: str, dimension: int) -> dict[str, np.ndarray]:
    """Parse a text embedding file into a dict of read-only (dimension,) vectors.

    Each line must be ``token v1 v2 ... v_dimension`` with single-space
    separation. Malformed lines (wrong component count, non-numeric
    component) are skipped with a warning that names the line number.
    Duplicate tokens keep the first occurrence. A missing file raises
    FileNotFoundError and a file yielding no entries raises ValueError.
    """
    if dimension <= 0:
        raise ValueError(f"dimension must be positive, got {dimension}")
    entries: dict[str, np.ndarray] = {}
    skipped = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.rstrip("\n").split(" ")
            if len(fields) != dimension + 1 or not fields[0]:
                skipped += 1
                log.warning("%s:%d: expected token plus %d components, skipping",
                            path, lineno, dimension)
                continue
            try:
                vec = np.array([float(f) for f in fields[1:]], dtype=np.float64)
            except ValueError:
                skipped += 1
                log.warning("%s:%d: non-numeric component, skipping", path, lineno)
                continue
            if not np.all(np.isfinite(vec)):
                skipped += 1
                log.warning("%s:%d: non-finite component, skipping", path, lineno)
                continue
            token = fields[0].lower()
            if token not in entries:
                vec.flags.writeable = False
                entries[token] = vec
    if not entries:
        raise ValueError(f"empty embedding table: {path}")
    if skipped:
        log.warning("%s: skipped %d malformed line(s)", path, skipped)
    return entries


def tokenize(phrase: str) -> list[str]:
    """Lowercase and split on whitespace and '/'."""
    return phrase.lower().replace("/", " ").split()


def encode_phrase(embeddings: dict[str, np.ndarray], phrase: str) -> np.ndarray:
    """Encode a phrase as the read-only mean of its in-vocabulary token vectors.

    Out-of-vocabulary tokens are skipped. Raises UnembeddablePhraseError
    when every token is out of vocabulary, so callers can never train on
    an accidental zero vector.
    """
    if not phrase.strip():
        raise ValueError("empty phrase")
    hits = [embeddings[t] for t in tokenize(phrase) if t in embeddings]
    if not hits:
        raise UnembeddablePhraseError(phrase)
    values = np.mean(hits, axis=0)
    values.flags.writeable = False
    return values
