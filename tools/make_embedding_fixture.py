"""Generate the bundled 50-dimensional embedding fixture.

The vocabulary is everything the surveys and corpus need, plus a few
generic words. Geometry is the point: words that belong to the surveyed
symptoms share one cluster direction (standing in for the semantic
neighborhood a pretrained space would give them), distractor condition
words sit in random directions away from that cluster, and function
words are short vectors near the origin. Within the cluster, all tokens
of one symptom phrase share a single jitter direction, so a multi-word
symptom keeps the same spread radius as a single word. The classifier
can then learn "near the symptom cluster means positive" from a handful
of prominent symptoms and still be forced to tell individual symptoms
apart when noise floods the data.

Run from the repository root after installing the package:

    python tools/make_embedding_fixture.py
"""

from __future__ import annotations

import argparse
import os

import numpy as np

from fedsymptoms.embeddings import tokenize
from fedsymptoms.surveys import load_corpus, load_surveys

DIMENSION = 50
FIXTURE_SEED = 10

# geometry knobs, tuned against the acceptance sweeps
CLUSTER_NORM = 2.0      # shared component of symptom words
JITTER_NORM = 0.095     # per-phrase spread inside the cluster
DISTRACTOR_NORM = 2.2   # distractor condition words
FUNCTION_NORM = 0.8     # function words diluting multi-word phrases
FILLER_NORM = 1.5       # generic extra words

FUNCTION_WORDS = ("of", "or", "the", "and", "a", "with")
FILLER_WORDS = ("patient", "clinic", "hospital", "doctor")


def _unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(DIMENSION)
    return v / np.linalg.norm(v)


def build_vocabulary(
    surveys_path: str, corpus_path: str
) -> tuple[list[str], set[str], list[str]]:
    """All tokens to embed, the symptom subset, and the symptom phrases."""
    surveys = load_surveys(surveys_path)
    corpus = load_corpus(corpus_path)

    # every token of a symptom phrase joins the cluster, function words
    # included, so multi-word symptoms are not diluted toward the origin
    symptom_tokens: set[str] = set()
    phrases: list[str] = []
    for survey in surveys:
        for name in survey.symptom_counts:
            if name not in phrases:
                phrases.append(name)
            symptom_tokens.update(tokenize(name))

    vocabulary: list[str] = []
    seen: set[str] = set()

    def add(token: str) -> None:
        if token not in seen:
            seen.add(token)
            vocabulary.append(token)

    for survey in surveys:
        for name in survey.symptom_counts:
            for token in tokenize(name):
                add(token)
    for term in corpus:
        for token in tokenize(term):
            add(token)
    for token in FUNCTION_WORDS + FILLER_WORDS:
        add(token)
    return vocabulary, symptom_tokens, phrases


def build_vectors(vocabulary: list[str], symptom_tokens: set[str],
                  phrases: list[str],
                  seed: int = FIXTURE_SEED) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    cluster_direction = _unit(rng)

    # one shared jitter direction per symptom phrase; a token appearing
    # in several phrases keeps the direction of the first one
    phrase_direction: dict[str, np.ndarray] = {}
    for phrase in phrases:
        direction = _unit(rng)
        for token in tokenize(phrase):
            phrase_direction.setdefault(token, direction)

    vectors: dict[str, np.ndarray] = {}
    for token in vocabulary:
        # every token consumes exactly one direction draw, so the branch
        # taken for one token never shifts the vectors of later tokens
        own_direction = _unit(rng)
        if token in symptom_tokens:
            vectors[token] = (CLUSTER_NORM * cluster_direction
                              + JITTER_NORM * phrase_direction[token])
        elif token in FUNCTION_WORDS:
            vectors[token] = FUNCTION_NORM * own_direction
        elif token in FILLER_WORDS:
            vectors[token] = FILLER_NORM * own_direction
        else:
            vectors[token] = DISTRACTOR_NORM * own_direction
    return vectors


def write_fixture(vectors: dict[str, np.ndarray], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for token, vec in vectors.items():
            fh.write(token + " " + " ".join(f"{x:.6f}" for x in vec) + "\n")


def main() -> None:
    here = os.path.dirname(os.path.abspath(__file__))
    data_dir = os.path.join(here, "..", "src", "fedsymptoms", "data")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--surveys", default=os.path.join(data_dir, "surveys.txt"))
    parser.add_argument("--corpus", default=os.path.join(data_dir, "medical_corpus.txt"))
    parser.add_argument("--out", default=os.path.join(data_dir, "mini_embeddings_50d.txt"))
    parser.add_argument("--seed", type=int, default=FIXTURE_SEED)
    args = parser.parse_args()

    vocabulary, symptom_tokens, phrases = build_vocabulary(args.surveys, args.corpus)
    vectors = build_vectors(vocabulary, symptom_tokens, phrases, seed=args.seed)
    write_fixture(vectors, args.out)
    print(f"wrote {len(vectors)} vectors of dimension {DIMENSION} to {args.out}")
    print(f"symptom-cluster tokens: {len(symptom_tokens & set(vocabulary))}")


if __name__ == "__main__":
    main()
