"""Tests of the benchmark itself.

Run from the repository root: python3 -m pytest -q perfbench
"""

import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SEED = 1
SWEEP = run.WORKLOADS["sweep_eps_III"]


@pytest.fixture(scope="module")
def cli():
    return run._import_package()


def test_two_traced_runs_repeat_their_counts(cli):
    counts = []
    for _ in range(2):
        trace = tracer.Tracer()
        with trace.installed():
            outcome = run.call_cli(cli, SWEEP, SEED, None)
        assert outcome.problems == []
        assert tracer.unreached_sites(trace.counts, SWEEP.unused_sites) == []
        metrics = tracer.layer_metrics(trace.spans, trace.counts, outcome.wall_s, 2305)
        counts.append({name: metrics[name] for name in tracer.DETERMINISTIC_COUNTS})
    assert counts[0] == counts[1]
    assert all(value > 0 for value in counts[0].values())


def test_tracer_restores_every_wrapped_name(cli):
    import importlib

    before = [getattr(importlib.import_module(m), a) for m, a, _ in tracer.SITES]
    with tracer.Tracer().installed():
        during = [getattr(importlib.import_module(m), a) for m, a, _ in tracer.SITES]
    after = [getattr(importlib.import_module(m), a) for m, a, _ in tracer.SITES]
    assert all(b is not d for b, d in zip(before, during))
    assert all(b is a for b, a in zip(before, after))


def test_a_site_that_never_fires_is_reported():
    counts = {tracer.site_key(f"{m}.{a}"): 1 for m, a, _ in tracer.SITES}
    del counts[tracer.site_key("fedsymptoms.federation.train_local")]
    assert tracer.unreached_sites(counts) == ["fedsymptoms.federation.train_local"]
    assert tracer.unreached_sites(counts, frozenset({"fedsymptoms.federation.train_local"})) == []


def test_every_site_must_fire_on_some_workload():
    for module, attr, _ in tracer.SITES:
        site = f"{module}.{attr}"
        assert any(site not in w.unused_sites for w in run.WORKLOADS.values()), site


def test_self_time_and_step_period_from_spans():
    # train_local 0..100 holding Adam steps ending at 30, 50 and 70
    spans = [(0, 0, -1, "mlp.train_local", 0, 100_000),
             (0, 1, 0, "mlp.adam_step", 20_000, 30_000),
             (0, 2, 0, "mlp.adam_step", 40_000, 50_000),
             (0, 3, 0, "mlp.adam_step", 60_000, 70_000)]
    total, own, calls = tracer._durations(spans)
    assert total["mlp.train_local"] == pytest.approx(100e-6)
    assert own["mlp.train_local"] == pytest.approx(70e-6)
    assert calls["mlp.adam_step"] == 3
    assert tracer._step_period_us(spans) == pytest.approx(20.0)


@pytest.mark.parametrize("name", check.CSV_NAMES)
def test_output_check_rejects_one_changed_byte(cli, tmp_path, name):
    outcome = run.call_cli(cli, SWEEP, SEED, None)
    assert outcome.problems == []
    out_dir = tmp_path / "out"
    shutil.copytree(os.path.join(run.OUT, f"{SWEEP.name}-out"), out_dir)
    digests = check.digests_of(str(out_dir))
    assert check.check_outputs(str(out_dir), SWEEP.cells, run.EPOCHS, digests)[0] == []

    path = out_dir / name
    data = bytearray(path.read_bytes())
    last_digit = max(i for i, b in enumerate(data) if chr(b) in "123456789")
    data[last_digit] = ord("1") if data[last_digit] != ord("1") else ord("2")
    path.write_bytes(bytes(data))
    problems, _ = check.check_outputs(str(out_dir), SWEEP.cells, run.EPOCHS, digests)
    assert any(name in p for p in problems)


def test_output_check_rejects_wrong_row_count_and_range(tmp_path):
    (tmp_path / "predictions.csv").write_text(
        "simulation,mechanism,noise_level,epsilon,seed,global_epoch,symptom,group,prediction\n"
        "I,uniform_threshold,0.5,,1,1,Fever,high,1.0\n")
    (tmp_path / "accuracy.csv").write_text(
        "simulation,mechanism,noise_level,epsilon,seed,global_epoch,accuracy\n"
        "I,uniform_threshold,0.5,,1,1,0.5\n")
    problems, final = check.check_outputs(str(tmp_path), 1, 1, None)
    assert final == 0.5
    assert any("predictions.csv has 1 rows" in p for p in problems)
    assert any("outside (0, 1)" in p for p in problems)


def test_refuses_to_run_without_the_package_source(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", SWEEP.name, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_digests_under_another_numpy_are_skipped_with_the_reason():
    table = {"numpy": "1.26", "workloads": {SWEEP.name: {"1": {"accuracy.csv": "0" * 64}}}}
    digests, note = check.recorded_digests(table, SWEEP.name, 1, "2.4.6")
    assert digests is None
    assert "numpy 1.26" in note and "numpy 2.4.6" in note
    assert check.recorded_digests(table, SWEEP.name, 1, "1.26.4") == (
        {"accuracy.csv": "0" * 64}, "checked")
