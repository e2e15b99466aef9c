"""End-to-end command-line behavior: artifacts, exit codes, messages."""

import hashlib
import json
import platform
import subprocess
import sys

import numpy as np
import pytest

from fedsymptoms import assets
from fedsymptoms.cli import main
from fedsymptoms.evaluation import AccuracyRow, read_accuracy_csv, write_accuracy_csv
from fedsymptoms.federation import WEIGHTINGS
from fedsymptoms.sampling import UNIFORM_THRESHOLD
from fedsymptoms.surveys import load_corpus

ARTIFACTS = ("predictions.csv", "accuracy.csv", "rounds.jsonl",
             "model_final.npz", "manifest.json")


def small_run(out_dir, *extra):
    return ["run", "--seed", "1", "--scale", "0.01",
            "--mechanism", "uniform_threshold", "--noise-level", "0",
            "--output-dir", str(out_dir), *extra]


def test_validate_passes_on_bundled_data(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "16 symptoms" in out
    assert "all embeddable" in out
    assert "7 above 10 percent" in out


def test_run_writes_all_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(small_run(out_dir)) == 0
    for name in ARTIFACTS:
        assert (out_dir / name).exists()

    rows = read_accuracy_csv(str(out_dir / "accuracy.csv"))
    assert [r.global_epoch for r in rows] == [1, 2, 3, 4, 5]
    assert all(r.simulation == "I" and r.seed == 1 for r in rows)

    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "run"
    assert manifest["config"]["master_seed"] == 1
    assert manifest["resolved_topology"]["n_clients"] == 1
    assert manifest["resolved_topology"]["size_range"] == [600, 600]

    lines = (out_dir / "rounds.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 5
    for line in lines:
        record = json.loads(line)
        assert record["participating_clients"] + record["skipped_empty_clients"] == 1

    assert "accuracy at epoch 5" in capsys.readouterr().out


def test_rerun_is_byte_identical(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    for out_dir in (first, second):
        args = small_run(out_dir)
        args[args.index("--noise-level") + 1] = "0.25"
        assert main(args) == 0
    for name in ("predictions.csv", "accuracy.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_run_reports_requested_epoch(tmp_path, capsys):
    assert main(small_run(tmp_path / "out", "--epoch", "3")) == 0
    assert "accuracy at epoch 3:" in capsys.readouterr().out


def test_run_rejects_epoch_beyond_schedule(tmp_path, capsys):
    assert main(small_run(tmp_path / "out", "--epoch", "9")) == 1
    assert "epoch 9 not in run (1..5)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # a run of no rounds reports no epoch
    assert main(small_run(tmp_path / "none", "--global-epochs", "0", "--epoch", "9")) == 0
    assert "no training rounds requested" in capsys.readouterr().out


def test_sweep_noise_axis_writes_rows(tmp_path):
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--axis", "noise", "--values", "0,0.5", "--seeds", "1",
                 "--scale", "0.01", "--mechanism", "uniform_threshold",
                 "--output-dir", str(out_dir)]) == 0
    rows = read_accuracy_csv(str(out_dir / "accuracy.csv"))
    assert len(rows) == 2 * 1 * 5
    assert {r.noise_level for r in rows} == {0.0, 0.5}
    assert all(r.epsilon is None for r in rows)
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "sweep"
    assert manifest["axis"] == "noise"
    assert manifest["values"] == [0.0, 0.5]
    assert manifest["seeds"] == [1]


def test_sweep_epsilon_axis_defaults_to_half_level(tmp_path):
    out_dir = tmp_path / "eps"
    assert main(["sweep", "--axis", "epsilon", "--values", "100", "--seeds", "1",
                 "--scale", "0.01", "--output-dir", str(out_dir)]) == 0
    rows = read_accuracy_csv(str(out_dir / "accuracy.csv"))
    assert len(rows) == 5
    assert all(r.mechanism == "laplace_dp" for r in rows)
    assert all(r.noise_level == 0.5 for r in rows)
    assert all(r.epsilon == 100.0 for r in rows)


def test_sweep_noise_axis_rejects_laplace(tmp_path, capsys):
    # an absent embeddings file shows the check comes before any input loads
    assert main(["sweep", "--axis", "noise", "--values", "0.5", "--seeds", "1",
                 "--mechanism", "laplace_dp", "--epsilon", "2",
                 "--embeddings", str(tmp_path / "absent.txt"),
                 "--output-dir", str(tmp_path / "out")]) == 1
    assert "--axis epsilon" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_rejects_repeated_values_and_seeds(tmp_path, capsys):
    base = ["sweep", "--axis", "noise", "--scale", "0.01",
            "--mechanism", "uniform_threshold", "--output-dir", str(tmp_path / "out")]
    assert main(base + ["--values", "0,0.5,0.50", "--seeds", "1"]) == 1
    assert "--values repeats 0.5" in capsys.readouterr().err
    assert main(base + ["--values", "0", "--seeds", "3,1,3"]) == 1
    assert "--seeds repeats 3" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_manifest_records_input_digests_and_versions(tmp_path):
    sweep = ["sweep", "--axis", "noise", "--values", "0", "--seeds", "1",
             "--scale", "0.01", "--output-dir", str(tmp_path / "sweep")]
    assert main(small_run(tmp_path / "run")) == 0
    assert main(sweep) == 0
    inputs = {"embeddings_path": assets.default_embeddings_path(),
              "surveys_path": assets.default_surveys_path(),
              "corpus_path": assets.default_corpus_path()}
    for command in ("run", "sweep"):
        manifest_path = tmp_path / command / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert manifest["python_version"] == platform.python_version()
        assert manifest["numpy_version"] == np.__version__
        assert set(manifest["input_sha256"]) == set(inputs)
        for key, path in inputs.items():
            with open(path, "rb") as fh:
                assert manifest["input_sha256"][key] == hashlib.sha256(fh.read()).hexdigest()


def test_round_with_only_empty_clients_carries_the_model_forward(tmp_path, capsys):
    # one respondent in 10**9 shows the symptom, so no-noise clients emit nothing
    quiet = tmp_path / "surveys.txt"
    quiet.write_text("country: Quiet\ntotal: 1000000000\nFever: 1\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(small_run(out_dir, "--surveys", str(quiet))) == 0
    lines = (out_dir / "rounds.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 5
    for line in lines:
        record = json.loads(line)
        assert record["participating_clients"] == 0
        assert record["skipped_empty_clients"] == 1
        assert record["mean_local_loss"] is None
    # the untrained model is scored every epoch: one prediction throughout
    predictions = (out_dir / "predictions.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert len(predictions) == 5
    assert len({row.split(",")[-1] for row in predictions}) == 1


def test_report_prints_seed_means(tmp_path, capsys):
    def row(seed, epoch, acc):
        return AccuracyRow(simulation="I", mechanism=UNIFORM_THRESHOLD,
                           noise_level=0.0, epsilon=None, seed=seed,
                           global_epoch=epoch, accuracy=acc)

    write_accuracy_csv([row(1, 1, 0.25), row(1, 5, 1.0), row(2, 5, 0.5)],
                       str(tmp_path / "accuracy.csv"))

    assert main(["report", "--input", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "mean accuracy at global epoch 5" in out
    assert "0.7500" in out

    assert main(["report", "--input", str(tmp_path), "--epoch", "1"]) == 0
    assert "0.2500" in capsys.readouterr().out


def test_missing_embeddings_file_is_io_error(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    assert main(["validate", "--embeddings", str(missing)]) == 2
    assert str(missing) in capsys.readouterr().err


def test_out_of_range_noise_level_fails_validation(capsys):
    assert main(["run", "--seed", "1", "--noise-level", "1.2"]) == 1
    assert "noise_level" in capsys.readouterr().err


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"master_seed": 1, "bogus": 2}', encoding="utf-8")
    assert main(["run", "--config", str(cfg)]) == 1
    assert "bogus" in capsys.readouterr().err


def test_unknown_weighting_in_config_file_names_the_accepted_values(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"master_seed": 1, "weighting": "by_persons"}', encoding="utf-8")
    assert main(["run", "--config", str(cfg), "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "weighting must be one of" in err
    for accepted in WEIGHTINGS:
        assert repr(accepted) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("simulation", "V"),
    ("scale", 0),
    ("participation_fraction", 0.5),  # of the one client at scale 0.01
    ("global_epochs", -1),
    ("local_epochs", 0),
    ("weighting", "by_persons"),
    # values of the wrong type
    ("noise_level", True),
    ("local_epochs", 2.5),
    ("global_epochs", 1.5),
    ("fixed_client_data", "no"),
    ("epsilon", "2"),
    ("surveys_path", 3),
])
def test_bad_config_value_fails_before_inputs_load(tmp_path, capsys, key, value):
    # the embeddings file is absent: reading it would exit 2, not 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"master_seed": 1, "scale": 0.01,
                               "embeddings_path": str(tmp_path / "absent.txt"),
                               "output_dir": str(tmp_path / "out"), key: value}),
                   encoding="utf-8")
    assert main(["run", "--config", str(cfg)]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_integer_noise_level_in_config_file_is_a_float(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"master_seed": 1, "scale": 0.01,
                               "mechanism": "uniform_threshold", "noise_level": 0,
                               "output_dir": str(tmp_path / "file")}),
                   encoding="utf-8")
    assert main(["run", "--config", str(cfg)]) == 0
    assert main(small_run(tmp_path / "flag")) == 0
    for name in ("predictions.csv", "accuracy.csv"):
        assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "flag" / name).read_bytes()


def test_malformed_json_config_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json", encoding="utf-8")
    assert main(["run", "--config", str(cfg)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_laplace_requires_epsilon(capsys):
    assert main(["run", "--seed", "1", "--scale", "0.01",
                 "--mechanism", "laplace_dp", "--noise-level", "0.5"]) == 1
    assert "epsilon" in capsys.readouterr().err


def test_run_requires_seed(capsys):
    assert main(["run", "--scale", "0.01"]) == 1
    assert "master_seed" in capsys.readouterr().err


def test_validate_names_unembeddable_corpus_term(tmp_path, capsys):
    terms = load_corpus(assets.default_corpus_path()).terms[:49]
    bad = tmp_path / "corpus.txt"
    bad.write_text("\n".join(list(terms) + ["zzxq"]) + "\n", encoding="utf-8")
    assert main(["validate", "--corpus", str(bad)]) == 1
    assert "zzxq" in capsys.readouterr().err


def test_report_on_missing_directory_is_io_error(tmp_path, capsys):
    assert main(["report", "--input", str(tmp_path / "absent")]) == 2
    assert "not found" in capsys.readouterr().err


def test_flag_overrides_config_file_value(tmp_path):
    out_dir = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"master_seed": 1, "scale": 0.01,
                               "noise_level": 0.25,
                               "output_dir": str(out_dir)}),
                   encoding="utf-8")
    assert main(["run", "--config", str(cfg), "--noise-level", "0"]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["noise_level"] == 0.0
    assert manifest["config"]["master_seed"] == 1


def test_module_entry_point_reports_version():
    proc = subprocess.run([sys.executable, "-m", "fedsymptoms.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip()
