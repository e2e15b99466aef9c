"""Shared fixtures: bundled data assets and small synthetic stand-ins."""

import numpy as np
import pytest

from fedsymptoms import assets, mlp
from fedsymptoms.embeddings import load_embeddings
from fedsymptoms.evaluation import build_evalset
from fedsymptoms.mlp import LAYER_SIZES, N_PARAMS, forward, layer_views
from fedsymptoms.sampling import ClientDataset, PhraseTable
from fedsymptoms.surveys import (
    CountrySurvey,
    build_distribution,
    load_corpus,
    load_surveys,
)

# the RoundReport fields that time a round; the others repeat exactly
TIMED_FIELDS = ("wall_time", "synthesis_s", "training_s", "aggregation_s")


@pytest.fixture(scope="session")
def table():
    return load_embeddings(assets.default_embeddings_path(), 50)


@pytest.fixture(scope="session")
def surveys():
    return load_surveys(assets.default_surveys_path())


@pytest.fixture(scope="session")
def corpus():
    return load_corpus(assets.default_corpus_path())


@pytest.fixture(scope="session")
def evalset(surveys):
    return build_evalset(surveys)


@pytest.fixture(scope="session")
def distributions(surveys):
    return [build_distribution(s) for s in surveys]


def tiny_table(tokens, dimension=4, seed=0):
    """Deterministic small embeddings for unit tests: a dict of read-only vectors."""
    rng = np.random.default_rng(seed)
    entries = {}
    for token in tokens:
        vec = rng.standard_normal(dimension)
        vec.flags.writeable = False
        entries[token] = vec
    return entries


@pytest.fixture
def tiny_survey():
    return CountrySurvey(
        country="Testland",
        total=1000,
        symptom_counts={"alpha": 800, "beta": 200, "gamma": 0},
    )


@pytest.fixture
def tiny_corpus():
    return ("alpha", "beta", "gamma", "delta", "epsilon")


def matrix_phrase_table(matrix):
    """A PhraseTable over the rows of `matrix`, named "row0", "row1", ...

    It has no walks, corpus rows or negative pools, so it serves datasets
    built by hand, not synthesize_client.
    """
    matrix = np.array(matrix, dtype=np.float64)
    matrix.flags.writeable = False
    names = tuple(f"row{i}" for i in range(len(matrix)))
    return PhraseTable(matrix=matrix, names=names, word_walks={}, term_rows=(), negatives={},
                       distributions={})


def client_dataset(phrases, rows, labels):
    """A ClientDataset of fresh intp rows and float64 labels, from any integer rows and 0/1 labels.

    The constructor stores the arrays it is given as they are, typed as
    synthesize_client builds them; a test that writes its rows and labels
    by hand builds its datasets here.
    """
    return ClientDataset(phrases=phrases, rows=np.array(rows, dtype=np.intp),
                         labels=np.array(labels, dtype=np.float64))


def separable_dataset(seed, n=200):
    """Balanced fixture on the first axis: positives at +e1, negatives at -e1.

    The seed only shuffles the interleaving; the points themselves are fixed.
    """
    rng = np.random.default_rng(seed)
    labels = np.repeat([1, 0], n // 2)
    points = np.zeros((2, LAYER_SIZES[0]))
    points[:, 0] = [1.0, -1.0]  # row 0 positive, row 1 negative
    order = rng.permutation(len(labels))
    return client_dataset(matrix_phrase_table(points), np.where(labels[order] == 1, 0, 1),
                          labels[order])


def training_accuracy(params, dataset):
    p = forward(params, dataset.phrases.matrix[dataset.rows])
    return float(np.mean((p >= 0.5) == (dataset.labels == 1.0)))


def perturbed(params, layer, which, index, delta):
    """params with one weight (which "w") or bias (which "b") of `layer` moved by delta."""
    flat = params.copy()
    w, b = layer_views(flat)[layer]
    (w if which == "w" else b)[index] += delta
    return flat


def loss_and_gradient(params, x, y):
    """Mean binary cross-entropy over an (n, 50) batch and its exact gradient, a flat vector.

    The package's training step computes the gradient alone
    (mlp._backprop) and mean_loss the loss alone; this frozen reference
    joins them, with mlp._row_bce, for the gradient checks.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    grad = np.empty(N_PARAMS)
    p = mlp._backprop(layer_views(params), x, y[:, None], layer_views(grad))
    return float(np.mean(mlp._row_bce(p.ravel(), y))), grad


def batch_loss(params, x, y):
    """The mean loss of loss_and_gradient, for finite differences."""
    loss, _ = loss_and_gradient(params, x, y)
    return loss
