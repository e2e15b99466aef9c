"""Golden sha256 digests of the CSVs of five small runs and a sweep, and the runs' losses.

The simulator promises byte-identical CSVs for a given seed and config.
These digests pin that output across commits, so a refactor or a faster
path cannot shift the numbers, even in the last bits, without failing
here. Each command is checked twice against the same table: in process,
and as a ``python -m fedsymptoms.cli`` subprocess with 4 BLAS threads.
The runs and the sweep between them set every training setting a
simulation call shares: uniform weighting and two local epochs change
``predictions.csv`` of both commands, and the sweep's eight runs train
in one group of runs, and in process also in two (groups of 6 and 2).
The digests were recorded under the numpy ``major.minor`` in
``RECORDED_NUMPY``; another numpy may round differently, so the tests
skip there and say why. ``MEAN_LOCAL_LOSS`` pins the ``repr`` of each
round's ``mean_local_loss`` in ``rounds.jsonl``, which no CSV carries,
and is checked the same two ways. The digests also belong to OpenBLAS's
SkylakeX kernel, so a failing check names the kernel its run's
``manifest.json`` records.

Topology II has no digest. Its run is checked for the same bytes at 1
and 4 BLAS threads instead, on this host's kernel and on the Haswell
kernel that ``OPENBLAS_CORETYPE`` forces, whose bits differ from the
golden ones.

To re-record after a change that is meant to alter the numbers, run
``PYTHONPATH=src python tests/test_golden.py`` and paste its output.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import fedsymptoms
from fedsymptoms import evaluation
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
    "III_uniform_weighting_2_local_epochs": ("--simulation", "III",
                                             "--mechanism", "uniform_threshold",
                                             "--noise-level", "0.5", "--weighting", "uniform",
                                             "--local-epochs", "2"),
}

# 8 runs of 9 clients and 5 rounds, 15 parameter vectors each: one sweep group, and
# groups of 6 and 2 at TWO_GROUP_VECTORS
SWEEP_ARGV = ("sweep", "--axis", "noise", "--values", "0,0.5", "--seeds", "1,2,3,4",
              "--simulation", "III", "--scale", "0.01", "--mechanism", "uniform_threshold",
              "--weighting", "uniform", "--local-epochs", "2")

GOLDEN = {
    "III_normal": {
        "predictions.csv": "10575b687ec5a706e4ef313c37aa6a081a3007ba464be01205510e7d145199be",
        "accuracy.csv": "bbf57f6513439c9cce6e266ebc3c0da918bbe5288650ff8f631638572c80557e",
    },
    "III_uniform_weighting_2_local_epochs": {
        "predictions.csv": "da4d777b2b6ef5831cc62d8c4c482d5f2993038a5daf1ab1a06f1f736812ed62",
        "accuracy.csv": "4bde3aabf6b2170a2cc408c66ed52bd1ef75c8fd185fd6e569f316895c52ee27",
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

# a sweep group budget that cuts SWEEP_ARGV's runs into groups of 6 and 2
TWO_GROUP_VECTORS = 96

SWEEP_GOLDEN = {
    "predictions.csv": "750fc42e8a519c85a50271800a7e2939a79ca473952d2cb39a64f8e3672cb277",
    "accuracy.csv": "7d044c59a47817cc4d3054f497b63c12dfcc811a92d57eaef5db240da13e3dc2",
}


MEAN_LOCAL_LOSS = {
    "III_normal": (
        "0.6490059861195671",
        "0.6220378281067348",
        "0.5959509632686885",
        "0.5703881875627954",
        "0.5337539164047667",
    ),
    "III_uniform_weighting_2_local_epochs": (
        "0.6728655860348773",
        "0.663555594196906",
        "0.6553229067200576",
        "0.6432859236847401",
        "0.6219889218833707",
    ),
    "IV_laplace_eps2": (
        "0.6646005189291262",
        "0.6589425921304675",
        "0.657413785050589",
        "0.6455488248163739",
        "0.6481134861118092",
    ),
    "I_fixed_client_data": (
        "0.5829096488536077",
        "0.5794362099314355",
        "0.5801610131474314",
        "0.5737203978882125",
        "0.5695487724274486",
    ),
    "I_uniform_0.5": (
        "0.5829096488536077",
        "0.5851649405323809",
        "0.586542562677464",
        "0.583996251165356",
        "0.5779398386296234",
    ),
}

def run_argv(name: str, out_dir) -> list[str]:
    return ["run", "--seed", "1", "--scale", "0.01", *CONFIGS[name],
            "--output-dir", str(out_dir)]


def sweep_argv(out_dir) -> list[str]:
    return [*SWEEP_ARGV, "--output-dir", str(out_dir)]


def csv_digests(out_dir) -> dict[str, str]:
    return {csv: hashlib.sha256((out_dir / csv).read_bytes()).hexdigest()
            for csv in CSV_NAMES}


def round_losses(out_dir) -> tuple[str, ...]:
    """The repr of each round's mean_local_loss, in round order."""
    lines = (out_dir / "rounds.jsonl").read_text(encoding="utf-8").splitlines()
    return tuple(repr(json.loads(line)["mean_local_loss"]) for line in lines)


def kernel(out_dir) -> str:
    """A failure note: the BLAS kernel that out_dir's manifest.json records."""
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    return f"run on the {manifest['blas']['kernel']} kernel"


def cli_digests(argv: list[str], out_dir) -> dict[str, str]:
    if main(argv) != 0:
        raise RuntimeError(f"{argv[0]} failed")
    return csv_digests(out_dir)


# the CLI with federation.WINDOW_EXAMPLES set from its first argument
WINDOWED_CLI = ("import sys; from fedsymptoms import cli, federation; "
                "federation.WINDOW_EXAMPLES = int(sys.argv.pop(1)); "
                "sys.exit(cli.main(sys.argv[1:]))")


def run_subprocess(argv: list[str], threads: int = 4, coretype: str | None = None,
                   window_examples: int | None = None) -> None:
    """Run the CLI in a fresh interpreter with `threads` BLAS threads.

    `coretype` forces an OpenBLAS kernel, and `window_examples` sets the
    round's window budget.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(fedsymptoms.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               MKL_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    entry = (["-m", "fedsymptoms.cli"] if window_examples is None
             else ["-c", WINDOWED_CLI, str(window_examples)])
    done = subprocess.run([sys.executable, *entry, *argv], capture_output=True, text=True,
                          env=env)
    if done.returncode != 0:
        raise RuntimeError(f"{argv[0]} failed: {done.stderr}")


def subprocess_digests(argv: list[str], out_dir) -> dict[str, str]:
    """The same command as cli_digests, in a fresh interpreter with 4 BLAS threads."""
    run_subprocess(argv)
    return csv_digests(out_dir)


def skip_under_other_numpy():
    here = ".".join(np.__version__.split(".")[:2])
    if here != RECORDED_NUMPY:
        pytest.skip(f"digests recorded under numpy {RECORDED_NUMPY}, "
                    f"this is numpy {np.__version__}")


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_csv_digests_match_golden(name, tmp_path):
    skip_under_other_numpy()
    assert cli_digests(run_argv(name, tmp_path), tmp_path) == GOLDEN[name], kernel(tmp_path)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_mean_local_loss_matches_golden(name, tmp_path):
    skip_under_other_numpy()
    cli_digests(run_argv(name, tmp_path), tmp_path)
    assert round_losses(tmp_path) == MEAN_LOCAL_LOSS[name], kernel(tmp_path)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_csv_digests_match_golden_at_4_blas_threads(name, tmp_path):
    skip_under_other_numpy()
    assert subprocess_digests(run_argv(name, tmp_path), tmp_path) == GOLDEN[name], \
        kernel(tmp_path)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_mean_local_loss_matches_golden_at_4_blas_threads(name, tmp_path):
    skip_under_other_numpy()
    subprocess_digests(run_argv(name, tmp_path), tmp_path)
    assert round_losses(tmp_path) == MEAN_LOCAL_LOSS[name], kernel(tmp_path)


def test_sweep_csv_digests_match_golden(tmp_path):
    skip_under_other_numpy()
    assert cli_digests(sweep_argv(tmp_path), tmp_path) == SWEEP_GOLDEN, kernel(tmp_path)


def test_two_group_sweep_csv_digests_match_golden(monkeypatch, tmp_path):
    skip_under_other_numpy()
    real = evaluation.run_simulation
    groups = []

    def recorded(spec, surveys, corpus, embeddings, runs):
        groups.append(len(runs))
        return real(spec, surveys, corpus, embeddings, runs)

    monkeypatch.setattr(evaluation, "run_simulation", recorded)
    monkeypatch.setattr(evaluation, "GROUP_VECTORS", TWO_GROUP_VECTORS)
    assert cli_digests(sweep_argv(tmp_path), tmp_path) == SWEEP_GOLDEN, kernel(tmp_path)
    assert groups == [6, 2]


def test_sweep_csv_digests_match_golden_at_4_blas_threads(tmp_path):
    skip_under_other_numpy()
    assert subprocess_digests(sweep_argv(tmp_path), tmp_path) == SWEEP_GOLDEN, kernel(tmp_path)


# two clients of 200 to 400 persons; each run takes about 0.65 s
II_ARGV = ("run", "--seed", "4", "--simulation", "II", "--scale", "0.02",
           "--mechanism", "uniform_threshold", "--noise-level", "0.5")


@pytest.mark.parametrize("window_examples", [None, 1], ids=["default-windows", "a-window-a-client"])
@pytest.mark.parametrize("coretype", [None, "Haswell"], ids=["native-kernel", "haswell-kernel"])
def test_topology_II_is_byte_identical_at_1_and_4_blas_threads(tmp_path, coretype,
                                                               window_examples):
    outputs = []
    for threads in (1, 4):
        out_dir = tmp_path / f"{threads}-threads"
        run_subprocess([*II_ARGV, "--output-dir", str(out_dir)], threads, coretype,
                       window_examples)
        outputs.append({name: (out_dir / name).read_bytes()
                        for name in (*CSV_NAMES, "model_final.npz")})
    assert outputs[0] == outputs[1], kernel(out_dir)


if __name__ == "__main__":
    import contextlib
    import io
    import pathlib
    import tempfile

    losses = {}
    with tempfile.TemporaryDirectory() as tmp:
        print("GOLDEN = {")
        for name in sorted(CONFIGS):
            out_dir = pathlib.Path(tmp) / name
            with contextlib.redirect_stdout(io.StringIO()):
                digests = cli_digests(run_argv(name, out_dir), out_dir)
            losses[name] = round_losses(out_dir)
            print(f'    "{name}": {{')
            for csv in CSV_NAMES:
                print(f'        "{csv}": "{digests[csv]}",')
            print("    },")
        print("}")
        print()
        out_dir = pathlib.Path(tmp) / "sweep"
        with contextlib.redirect_stdout(io.StringIO()):
            digests = cli_digests(sweep_argv(out_dir), out_dir)
        print("SWEEP_GOLDEN = {")
        for csv in CSV_NAMES:
            print(f'    "{csv}": "{digests[csv]}",')
        print("}")
    print()
    print("MEAN_LOCAL_LOSS = {")
    for name, values in losses.items():
        print(f'    "{name}": (')
        for value in values:
            print(f'        "{value}",')
        print("    ),")
    print("}")
