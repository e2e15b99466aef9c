"""End-to-end command-line behavior: artifacts, exit codes, messages."""

import dataclasses
import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fedsymptoms import assets, cli, evaluation
from fedsymptoms.cli import main
from fedsymptoms.config import RunConfig
from fedsymptoms.evaluation import AccuracyRow, read_accuracy_csv, write_accuracy_csv
from fedsymptoms.federation import SIMULATION_IDS, WEIGHTINGS, simulation_spec
from fedsymptoms.sampling import MECHANISM_KINDS, NO_NOISE, UNIFORM_THRESHOLD
from fedsymptoms.surveys import integer, load_corpus

from conftest import TIMED_FIELDS

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
        # each stage's seconds, a part of the round's
        stages = [record[name] for name in ("synthesis_s", "training_s", "aggregation_s")]
        assert all(seconds > 0.0 for seconds in stages)
        assert sum(stages) <= record["wall_time"]

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


def test_sweep_writes_each_runs_rounds_in_canonical_order(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--axis", "noise", "--values", "0.5,0", "--seeds", "2,1",
                 "--scale", "0.01", "--global-epochs", "2", "--mechanism", "uniform_threshold",
                 "--output-dir", str(out_dir)]) == 0
    assert "rounds.jsonl" in capsys.readouterr().out
    lines = (out_dir / "rounds.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    assert [(r["mechanism"], r["noise_level"], r["epsilon"], r["seed"], r["round"])
            for r in records] == [("uniform_threshold", level, None, seed, round_index)
                                  for level in (0.0, 0.5) for seed in (1, 2)
                                  for round_index in (1, 2)]
    # a sweep's run reports the rounds the run command reports for its noise and seed
    run_dir = tmp_path / "run"
    assert main(["run", "--seed", "2", "--scale", "0.01", "--global-epochs", "2",
                 "--mechanism", "uniform_threshold", "--noise-level", "0.5",
                 "--output-dir", str(run_dir)]) == 0
    alone = [json.loads(line) for line in
             (run_dir / "rounds.jsonl").read_text(encoding="utf-8").splitlines()]
    swept = [r for r in records if (r["noise_level"], r["seed"]) == (0.5, 2)]
    for record in (*alone, *swept):
        for timed in TIMED_FIELDS:
            del record[timed]
    assert [{k: r[k] for k in alone[0]} for r in swept] == alone


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


@pytest.mark.parametrize("axis, source, key, value", [
    ("noise", "flag", "epoch", 3),
    ("noise", "flag", "epsilon", 3),
    ("noise", "flag", "noise_level", 0.9),
    ("noise", "file", "noise_level", 0),  # given, though equal to the default
    ("epsilon", "flag", "epoch", 3),
    ("epsilon", "file", "epsilon", 3),
    ("epsilon", "flag", "mechanism", "normal_threshold"),
    ("epsilon", "file", "mechanism", "uniform_threshold"),
])
def test_sweep_refuses_settings_its_runs_never_use(tmp_path, capsys, axis, source, key, value):
    # an absent embeddings file shows the check comes before any input loads
    args = ["sweep", "--axis", axis, "--values", "0.2", "--seeds", "1",
            "--embeddings", str(tmp_path / "absent.txt"),
            "--output-dir", str(tmp_path / "out")]
    if source == "flag":
        args += [f"--{key.replace('_', '-')}", str(value)]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}), encoding="utf-8")
        args += ["--config", str(cfg)]
    assert main(args) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_refuses_a_master_seed(tmp_path, capsys):
    # each run takes its seed from --seeds, so the manifest records no master_seed
    base = ["sweep", "--axis", "noise", "--values", "0", "--seeds", "1", "--scale", "0.01"]
    assert main(base + ["--output-dir", str(tmp_path / "none")]) == 0
    manifest = json.loads((tmp_path / "none" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["master_seed"] is None
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"master_seed": 7}', encoding="utf-8")
    # an absent embeddings file shows the check comes before any input loads
    assert main(base + ["--config", str(cfg), "--embeddings", str(tmp_path / "absent.txt"),
                        "--output-dir", str(tmp_path / "seven")]) == 1
    assert "does not use master_seed" in capsys.readouterr().err
    assert not (tmp_path / "seven").exists()


def test_sweep_rejects_repeated_values_and_seeds(tmp_path, capsys):
    base = ["sweep", "--axis", "noise", "--scale", "0.01",
            "--mechanism", "uniform_threshold", "--output-dir", str(tmp_path / "out")]
    assert main(base + ["--values", "0,0.5,0.50", "--seeds", "1"]) == 1
    assert "--values repeats 0.5" in capsys.readouterr().err
    assert main(base + ["--values", "0", "--seeds", "3,1,3"]) == 1
    assert "--seeds repeats 3" in capsys.readouterr().err
    # each entry is named in full, not rounded to six significant digits
    assert main(base + ["--values", "0.123456789,0.123456789", "--seeds", "1"]) == 1
    assert "--values repeats 0.123456789" in capsys.readouterr().err
    assert main(base + ["--values", "0", "--seeds", "9007199254740993,9007199254740993"]) == 1
    assert "--seeds repeats 9007199254740993" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("axis, shuffled, ordered", [
    ("epsilon", ("100,0.5,10,2", "3,1,2"), ("0.5,2,10,100", "1,2,3")),
    ("noise", ("0.5,0", "2,1"), ("0,0.5", "1,2")),
], ids=["epsilon", "noise"])
def test_sweep_rows_do_not_depend_on_flag_order(tmp_path, axis, shuffled, ordered):
    for name, (values, seeds) in (("shuffled", shuffled), ("ordered", ordered)):
        assert main(["sweep", "--axis", axis, "--values", values, "--seeds", seeds,
                     "--scale", "0.01", "--global-epochs", "1",
                     "--output-dir", str(tmp_path / name)]) == 0
    for csv_name in ("predictions.csv", "accuracy.csv"):
        assert ((tmp_path / "shuffled" / csv_name).read_bytes()
                == (tmp_path / "ordered" / csv_name).read_bytes())


@pytest.mark.parametrize("args, message", [
    (["run", "--seed", "1", "--mechanism", "laplace_dp", "--epsilon", "nan"], "epsilon > 0"),
    (["run", "--seed", "1", "--mechanism", "laplace_dp", "--epsilon", "inf"], "finite epsilon"),
    (["sweep", "--axis", "epsilon", "--values", "nan,2", "--seeds", "1"], "epsilon > 0"),
    (["run", "--seed", "1", "--mechanism", "uniform_threshold", "--epsilon", "3"],
     "epsilon applies only to laplace_dp"),
    (["sweep", "--axis", "noise", "--values", ",", "--seeds", "1"], "--values"),
    (["sweep", "--axis", "noise", "--values", "0", "--seeds=18446744073709551616"],
     "--seeds must fit in 64 bits"),
    (["sweep", "--axis", "noise", "--values", "0", "--seeds=-1"], "--seeds must fit in 64 bits"),
], ids=["run-epsilon-nan", "run-epsilon-inf", "sweep-epsilon-nan",
        "run-epsilon-without-laplace", "sweep-no-values", "sweep-seed-above-64-bits",
        "sweep-negative-seed"])
def test_noise_setting_no_run_can_use_fails_before_inputs_load(tmp_path, capsys, args,
                                                               message):
    # an absent embeddings file shows the check comes before any input loads
    assert main(args + ["--embeddings", str(tmp_path / "absent.txt"),
                        "--output-dir", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("values, seeds, message", [
    ("0,,1", "1", "--values has an empty entry in '0,,1'"),
    ("0,1,", "1", "--values has an empty entry in '0,1,'"),
    ("0", "1,,2", "--seeds has an empty entry in '1,,2'"),
    ("0,abc", "1", "--values: cannot read 'abc'"),
    ("0", "1.5", "--seeds: cannot read '1.5'"),
    ("1_0,\u0663", "1", "--values: cannot read '1_0'"),
    ("0,\u0663", "1", "--values: cannot read '\u0663'"),
    ("0", "1_0", "--seeds: cannot read '1_0'"),
    ("0", "+1", "--seeds: cannot read '+1'"),
    ("0", "1,\u0663", "--seeds: cannot read '\u0663'"),
], ids=["values-inner", "values-trailing", "seeds-inner", "values-not-a-number",
        "seeds-not-an-integer", "values-underscore", "values-arabic-digit", "seeds-underscore",
        "seeds-plus", "seeds-arabic-digit"])
def test_sweep_refuses_an_empty_or_unreadable_list_entry(tmp_path, capsys, values, seeds,
                                                         message):
    # an empty entry was dropped, so a typo silently lost a sweep cell
    assert main(["sweep", "--axis", "noise", "--values", values, "--seeds", seeds,
                 "--scale", "0.01", "--output-dir", str(tmp_path / "out")]) == 1
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_negative_zero_noise_level_writes_the_csvs_of_zero(tmp_path):
    for name, level in (("negative", "-0"), ("positive", "0")):
        assert main(["run", "--seed", "1", "--scale", "0.01", "--global-epochs", "1",
                     "--noise-level", level, "--output-dir", str(tmp_path / name)]) == 0
    for csv_name in ("predictions.csv", "accuracy.csv"):
        assert ((tmp_path / "negative" / csv_name).read_bytes()
                == (tmp_path / "positive" / csv_name).read_bytes())


def test_manifest_records_input_digests_and_versions(tmp_path):
    sweep = ["sweep", "--axis", "noise", "--values", "0", "--seeds", "1",
             "--scale", "0.01", "--output-dir", str(tmp_path / "sweep")]
    assert main(small_run(tmp_path / "run")) == 0
    assert main(sweep) == 0
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    inputs = {"embeddings_path": assets.default_embeddings_path(),
              "surveys_path": assets.default_surveys_path(),
              "corpus_path": assets.default_corpus_path()}
    for command in ("run", "sweep"):
        manifest_path = tmp_path / command / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert manifest["python_version"] == platform.python_version()
        assert manifest["numpy_version"] == np.__version__
        assert manifest["blas"] == {"name": blas["name"], "version": blas["version"],
                                    "kernel": cli._blas()["kernel"]}
        assert manifest["blas"]["kernel"]
        # one process a CPU of this process's affinity; no CSV carries it
        assert manifest["train_processes"] == len(os.sched_getaffinity(0))
        assert set(manifest["input_sha256"]) == set(inputs)
        for key, path in inputs.items():
            with open(path, "rb") as fh:
                assert manifest["input_sha256"][key] == hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the Haswell kernel is an x86-64 kernel")
def test_manifest_records_a_forced_openblas_kernel(tmp_path):
    if cli._blas()["kernel"] == "unknown":
        pytest.skip("numpy's BLAS does not name its kernel")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-m", "fedsymptoms.cli",
                           *small_run(tmp_path, "--global-epochs", "1")],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["blas"]["kernel"] == "Haswell"


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


ACCURACY_HEADER_LINE = "simulation,mechanism,noise_level,epsilon,seed,global_epoch,accuracy\n"
ACCURACY_LINE = "I,uniform_threshold,0.0,,1,5,0.75\n"


@pytest.mark.parametrize("bad_line, message", [
    ("I,uniform_threshold,0.0,,2,5\n", "no accuracy field"),
    ("I,uniform_threshold,0.0,,2,5,abc\n", "cannot read accuracy 'abc'"),
    ("I,uniform_threshold,0.0,,x,5,0.5\n", "cannot read seed 'x'"),
    (ACCURACY_LINE, "repeats the run and epoch of line 2"),
    ("I,uniform_threshold,0.0,,2,5,nan\n", "accuracy nan outside [0, 1]"),
    ("I,uniform_threshold,0.0,,2,5,1.5\n", "accuracy 1.5 outside [0, 1]"),
    ("I,uniform_threshold,nan,,2,5,0.5\n", "noise_level nan outside [0, 1]"),
    ("I,uniform_threshold,7,,2,5,0.5\n", "noise_level 7.0 outside [0, 1]"),
    ("I,laplace_dp,0.5,inf,2,5,0.5\n", "laplace_dp requires a finite epsilon > 0"),
    ("I,uniform_threshold,0.0,2.0,2,5,0.5\n",
     "epsilon applies only to laplace_dp, not uniform_threshold"),
    ("I,bogus,0.0,,2,5,0.5\n", f"mechanism must be one of {MECHANISM_KINDS}, got 'bogus'"),
    ("I,uniform_threshold,0.0,,-1,5,0.5\n", "seed must fit in 64 bits, got -1"),
    ("V,uniform_threshold,0.0,,2,5,0.5\n",
     "unknown simulation 'V'; expected one of ('I', 'II', 'III', 'IV')"),
    ("I,uniform_threshold,0.0,,2,-3,0.5\n", "global_epoch -3 is below 1"),
    ("I,uniform_threshold,0.0,,2,0,0.5\n", "global_epoch 0 is below 1"),
], ids=["missing-field", "non-numeric-accuracy", "non-numeric-seed", "repeated-row",
        "nan-accuracy", "accuracy-above-one", "nan-level", "level-above-one",
        "infinite-epsilon", "epsilon-without-laplace", "unknown-mechanism", "negative-seed",
        "unknown-simulation", "negative-epoch", "zero-epoch"])
def test_report_refuses_a_bad_row_naming_its_file_and_line(tmp_path, capsys, bad_line,
                                                           message):
    path = tmp_path / "accuracy.csv"
    path.write_text(ACCURACY_HEADER_LINE + ACCURACY_LINE + bad_line, encoding="utf-8")
    assert main(["report", "--input", str(tmp_path)]) == 1
    assert f"error: {path}:3: {message}\n" in capsys.readouterr().err


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


@pytest.mark.parametrize("key", ["noise_level", "epsilon", "scale", "participation_fraction"])
def test_a_config_integer_too_large_for_a_float_is_refused_by_name(tmp_path, key):
    # JSON reads 10**400 as an int, and float() of it raises OverflowError, which is not
    # a ValueError: the command would print a traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"master_seed": 1, "output_dir": str(tmp_path / "out"),
                               key: 10**400}), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "fedsymptoms.cli", "run", "--config", str(cfg)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == f"error: {key} is too large for a float\n"
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


def test_run_requires_seed(tmp_path, capsys):
    # an absent embeddings file shows the check comes before any input loads
    assert main(["run", "--scale", "0.01", "--embeddings", str(tmp_path / "absent.txt"),
                 "--output-dir", str(tmp_path / "out")]) == 1
    assert "master_seed is required" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("simulation", "V"),
    ("mechanism", "bogus"),
    ("weighting", "by_persons"),
])
def test_bad_name_flag_fails_like_the_config_file(tmp_path, capsys, key, value):
    base = ["run", "--seed", "1", "--embeddings", str(tmp_path / "absent.txt"),
            "--output-dir", str(tmp_path / "out")]
    assert main(base + [f"--{key}", value]) == 1
    from_flag = capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}), encoding="utf-8")
    assert main(base + ["--config", str(cfg)]) == 1
    assert capsys.readouterr().err == from_flag
    assert key in from_flag
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args, flag", [
    (["run", "--seed", "1_0"], "--seed"),
    (["run", "--seed", "\u0661"], "--seed"),
    (["run", "--seed", "1", "--local-epochs", "+3"], "--local-epochs"),
    (["run", "--seed", "1", "--global-epochs", "2.0"], "--global-epochs"),
    (["run", "--seed", "1", "--epoch", "1_0"], "--epoch"),
    (["run", "--seed", "1", "--noise-level", "\u0660.5"], "--noise-level"),
    (["run", "--seed", "1", "--scale", "0.0_1"], "--scale"),
    (["run", "--seed", "1", "--participation", "\uff10.5"], "--participation"),
    (["run", "--seed", "1", "--mechanism", "laplace_dp", "--epsilon", "1_0"], "--epsilon"),
    (["sweep", "--axis", "noise", "--values", "0", "--seeds", "1", "--local-epochs", "1_0"],
     "--local-epochs"),
], ids=["seed-underscore", "seed-arabic-digit", "local-epochs-plus", "global-epochs-float",
        "epoch-underscore", "noise-level-arabic-digit", "scale-underscore",
        "participation-fullwidth-digit", "epsilon-underscore", "sweep-local-epochs-underscore"])
def test_number_flag_refuses_a_spelling_the_survey_parser_refuses(tmp_path, capsys, args,
                                                                  flag):
    # int() and float() read '1_0' as 10 and Arabic-Indic digits as ASCII ones;
    # an absent embeddings file keeps a flag that is wrongly read from running
    with pytest.raises(SystemExit) as exc:
        main(args + ["--embeddings", str(tmp_path / "absent.txt"),
                     "--output-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_report_epoch_refuses_a_spelling_the_survey_parser_refuses(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["report", "--input", str(tmp_path), "--epoch", "+1"])
    assert exc.value.code == 2
    assert "argument --epoch: invalid integer value: '+1'" in capsys.readouterr().err


def test_number_flags_share_the_survey_integer_rule_and_read_plain_decimals():
    assert cli.integer is integer
    assert cli._comma_list(" 1, -0 ,18446744073709551615", "--seeds", cli.integer) == \
        [1, 0, 2**64 - 1]
    for text, value in (("0.5", 0.5), ("+0.5", 0.5), ("-0", -0.0), ("1e-3", 1e-3),
                        (".5", 0.5), ("2", 2.0), ("inf", math.inf)):
        assert cli.decimal(text) == value, text


def test_non_number_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--seed", "1", "--scale", "x"])
    assert exc.value.code == 2


def test_validate_names_unembeddable_corpus_term(tmp_path, capsys):
    terms = load_corpus(assets.default_corpus_path())[:49]
    bad = tmp_path / "corpus.txt"
    bad.write_text("\n".join(list(terms) + ["zzxq"]) + "\n", encoding="utf-8")
    assert main(["validate", "--corpus", str(bad)]) == 1
    assert "zzxq" in capsys.readouterr().err


def surveys_with_unembeddable_zero_count(tmp_path):
    """The bundled survey table with a zero-count "Zzxq blorp" row in every country."""
    text = Path(assets.default_surveys_path()).read_text(encoding="utf-8")
    path = tmp_path / "surveys.txt"
    path.write_text(re.sub(r"^(total: \d+)$", r"\1\nZzxq blorp: 0", text, flags=re.M),
                    encoding="utf-8")
    return path


def test_validate_names_unembeddable_survey_symptom_once(tmp_path, capsys):
    bad = surveys_with_unembeddable_zero_count(tmp_path)
    assert main(["validate", "--surveys", str(bad)]) == 1
    err = capsys.readouterr().err
    assert f"{bad}: unembeddable survey symptoms: Zzxq blorp\n" in err
    assert err.count("Zzxq blorp") == 1


@pytest.mark.parametrize("args", [
    ["run", "--seed", "1"],
    ["sweep", "--axis", "noise", "--values", "0", "--seeds", "1"],
], ids=["run", "sweep"])
def test_unembeddable_zero_count_symptom_fails_before_training(tmp_path, capsys,
                                                               monkeypatch, args):
    def never(*args, **kwargs):
        pytest.fail("training started before the survey symptoms were checked")

    monkeypatch.setattr(cli, "run_simulation", never)
    monkeypatch.setattr(evaluation, "run_simulation", never)
    bad = surveys_with_unembeddable_zero_count(tmp_path)
    assert main(args + ["--scale", "0.01", "--mechanism", "uniform_threshold",
                        "--surveys", str(bad), "--output-dir", str(tmp_path / "out")]) == 1
    assert "unembeddable survey symptoms: Zzxq blorp" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_run_config_defaults_are_the_library_defaults():
    config = RunConfig(master_seed=1)
    assert config.spec() == simulation_spec("I")
    assert config.noise_mechanism() == NO_NOISE
    # IV has its own participation default, which a RunConfig must leave to the topology
    for sim_id in SIMULATION_IDS:
        assert RunConfig(master_seed=1, simulation=sim_id).spec() == simulation_spec(sim_id)
    defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    assert simulation_spec.__kwdefaults__ == {
        name: defaults[name] for name in simulation_spec.__kwdefaults__}


def test_module_entry_point_reports_version():
    proc = subprocess.run([sys.executable, "-m", "fedsymptoms.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip()
