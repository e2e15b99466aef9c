"""Golden sha256 digests of the CSVs of four small runs.

The simulator promises byte-identical CSVs for a given seed and config.
These digests pin that output across commits, so a refactor or a faster
path cannot shift the numbers, even in the last bits, without failing
here. Each run is checked twice against the same table: in process,
and as a ``python -m fedsymptoms.cli`` subprocess with 4 BLAS threads.
The digests were recorded under the numpy ``major.minor`` in
``RECORDED_NUMPY``; another numpy may round differently, so the tests
skip there and say why.

To re-record after a change that is meant to alter the numbers, run
``PYTHONPATH=src python tests/test_golden.py`` and paste its output.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import fedsymptoms
from fedsymptoms.cli import main

RECORDED_NUMPY = "2.4"
CSV_NAMES = ("predictions.csv", "accuracy.csv")

CONFIGS = {
    "I_uniform_0.5": ("--simulation", "I", "--mechanism", "uniform_threshold",
                      "--noise-level", "0.5"),
    "III_normal": ("--simulation", "III", "--mechanism", "normal_threshold"),
    "IV_laplace_eps2": ("--simulation", "IV", "--mechanism", "laplace_dp",
                        "--epsilon", "2"),
    "I_fixed_client_data": ("--simulation", "I", "--mechanism", "uniform_threshold",
                            "--noise-level", "0.5", "--fixed-client-data"),
}

GOLDEN = {
    "III_normal": {
        "predictions.csv": "10575b687ec5a706e4ef313c37aa6a081a3007ba464be01205510e7d145199be",
        "accuracy.csv": "bbf57f6513439c9cce6e266ebc3c0da918bbe5288650ff8f631638572c80557e",
    },
    "IV_laplace_eps2": {
        "predictions.csv": "415719c18d4450c73da586bc80a11bc707513da557bbdab0d966d4702c0a092c",
        "accuracy.csv": "3859a18a1ea5f0578afa7bb1fc34672a2b86a1810931507c7825ea051896aab8",
    },
    "I_fixed_client_data": {
        "predictions.csv": "375c5f0fee2fd67aa90f50a5b6c830e5001a0cc8fd274818cb11aaeee6f87e36",
        "accuracy.csv": "85674178ecc69e85494a88bced8682c6f0970e4502beb043c6c0908e0762a166",
    },
    "I_uniform_0.5": {
        "predictions.csv": "b9d181e0bf0d8dafb0a521740e3d405967029e0b64018bb7a3b7806575f5b4b5",
        "accuracy.csv": "85674178ecc69e85494a88bced8682c6f0970e4502beb043c6c0908e0762a166",
    },
}


def run_argv(name: str, out_dir) -> list[str]:
    return ["run", "--seed", "1", "--scale", "0.01", *CONFIGS[name],
            "--output-dir", str(out_dir)]


def csv_digests(out_dir) -> dict[str, str]:
    return {csv: hashlib.sha256((out_dir / csv).read_bytes()).hexdigest()
            for csv in CSV_NAMES}


def run_digests(name: str, out_dir) -> dict[str, str]:
    if main(run_argv(name, out_dir)) != 0:
        raise RuntimeError(f"run {name} failed")
    return csv_digests(out_dir)


def subprocess_digests(name: str, out_dir) -> dict[str, str]:
    """The same run as run_digests, in a fresh interpreter with 4 BLAS threads."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fedsymptoms.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="4", OMP_NUM_THREADS="4", MKL_NUM_THREADS="4",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-m", "fedsymptoms.cli", *run_argv(name, out_dir)],
                          capture_output=True, text=True, env=env)
    if done.returncode != 0:
        raise RuntimeError(f"run {name} failed: {done.stderr}")
    return csv_digests(out_dir)


def skip_under_other_numpy():
    here = ".".join(np.__version__.split(".")[:2])
    if here != RECORDED_NUMPY:
        pytest.skip(f"digests recorded under numpy {RECORDED_NUMPY}, "
                    f"this is numpy {np.__version__}")


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_csv_digests_match_golden(name, tmp_path):
    skip_under_other_numpy()
    assert run_digests(name, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_csv_digests_match_golden_at_4_blas_threads(name, tmp_path):
    skip_under_other_numpy()
    assert subprocess_digests(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    import contextlib
    import io
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CONFIGS):
            with contextlib.redirect_stdout(io.StringIO()):
                digests = run_digests(name, pathlib.Path(tmp) / name)
            print(f'    "{name}": {{')
            for csv in CSV_NAMES:
                print(f'        "{csv}": "{digests[csv]}",')
            print("    },")
