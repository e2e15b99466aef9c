"""Time one fresh interpreter's set-up: import plus loading every input.

Usage: python3 setup_probe.py SRC_DIR

Prints the seconds from the top of this script through importing the
CLI entry point, loading the embeddings, surveys and corpus (with the
corpus embeddability check) and building the evaluation set, then the
host speed factor sampled right after (see speed.py).
"""

import time

started = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

from fedsymptoms import assets  # noqa: E402
from fedsymptoms.cli import EMBEDDING_DIMENSION  # noqa: E402
from fedsymptoms.embeddings import load_embeddings  # noqa: E402
from fedsymptoms.evaluation import build_evalset  # noqa: E402
from fedsymptoms.surveys import load_corpus, load_surveys  # noqa: E402

table = load_embeddings(assets.default_embeddings_path(), EMBEDDING_DIMENSION)
surveys = load_surveys(assets.default_surveys_path())
load_corpus(assets.default_corpus_path(), embeddings=table)
build_evalset(surveys)
elapsed = time.perf_counter() - started

import speed  # noqa: E402  (this script's directory is on sys.path)

print(elapsed, speed.factor([speed.warm_kernel_cpu_s() for _ in range(speed.PROBE_SAMPLES)]))
