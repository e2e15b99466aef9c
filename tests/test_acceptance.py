"""Acceptance battery for the simulator's headline behavior.

Ten gated checks: noise-free accuracy, the noise and privacy sweeps,
the person-walk frequency oracle, the Laplace tail oracle, gradient
and aggregation algebra, byte-level determinism, display-group
separation, and a separable-data sanity run. Each check prints one
bracketed PASS/FAIL line straight to the terminal before asserting.
The thousand-client topology is exercised last and only reported.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from fedsymptoms.evaluation import (
    GROUP_HIGH,
    GROUP_LOW,
    record_run,
    sweep,
)
from fedsymptoms.federation import (
    fedavg_aggregate,
    run_simulation,
    simulation_spec,
)
from fedsymptoms.mlp import (
    LAYER_SIZES,
    N_PARAMS,
    TrainConfig,
    Window,
    init_params,
    layer_views,
    loss_and_gradient,
    train_local,
)
from fedsymptoms.rng import client_train_stream, init_stream
from fedsymptoms.sampling import (
    LAPLACE_DP,
    NO_NOISE,
    UNIFORM_THRESHOLD,
    NoiseMechanism,
    simulate_person,
)
from fedsymptoms.surveys import build_distribution

from conftest import batch_loss, perturbed, separable_dataset, training_accuracy

SEEDS = (1, 2, 3, 4, 5)
NOISE_LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)
EPSILONS = (0.5, 2.0, 10.0, 100.0)
FINAL_EPOCH = 5
Z999 = 3.2905  # two-sided 99.9% normal quantile


def report(capsys, ok, label, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def random_params(rng, scale=0.3):
    flat = np.empty(N_PARAMS)
    for w, b in layer_views(flat):
        w[...] = rng.normal(0.0, scale, size=w.shape)
        b[...] = rng.normal(0.0, scale, size=b.shape)
    return flat


@pytest.fixture(scope="module")
def desk_spec():
    return simulation_spec("I", scale=0.01)


@pytest.fixture(scope="module")
def uniform_sweep(desk_spec, surveys, corpus, table, evalset):
    mechanisms = [NoiseMechanism(UNIFORM_THRESHOLD, level) for level in NOISE_LEVELS]
    return sweep(desk_spec, mechanisms, list(SEEDS), surveys, corpus, table, evalset)


@pytest.fixture(scope="module")
def laplace_sweep(desk_spec, surveys, corpus, table, evalset):
    mechanisms = [NoiseMechanism(LAPLACE_DP, 0.5, epsilon=eps) for eps in EPSILONS]
    return sweep(desk_spec, mechanisms, list(SEEDS), surveys, corpus, table, evalset)


def final_accuracies(result, **match):
    rows = [r for r in result.accuracies
            if r.global_epoch == FINAL_EPOCH
            and all(getattr(r, key) == value for key, value in match.items())]
    return {r.seed: r.accuracy for r in rows}


def test_01_full_accuracy_without_noise(uniform_sweep, capsys):
    accs = final_accuracies(uniform_sweep, noise_level=0.0)
    hits = sum(1 for a in accs.values() if a == 1.0)
    report(capsys, hits >= 4, "01 noise-free accuracy",
           f"{hits}/5 seeds at 1.0, per-seed {[accs[s] for s in SEEDS]}")


def test_02_accuracy_degrades_with_noise(uniform_sweep, capsys):
    means = []
    for level in NOISE_LEVELS:
        accs = final_accuracies(uniform_sweep, noise_level=level)
        means.append(sum(accs[s] for s in SEEDS) / len(SEEDS))
    monotone = all(means[i + 1] <= means[i] + 1e-12 for i in range(len(means) - 1))
    endpoint = means[-1] <= 0.75
    report(capsys, monotone and endpoint, "02 noise sweep trend",
           f"seed-means {[round(m, 4) for m in means]} over levels "
           f"{list(NOISE_LEVELS)}, full-noise mean {means[-1]:.4f} (cap 0.75)")


def test_03_accuracy_recovers_with_weaker_privacy(laplace_sweep, capsys):
    means = []
    for eps in EPSILONS:
        accs = final_accuracies(laplace_sweep, epsilon=eps)
        means.append(sum(accs[s] for s in SEEDS) / len(SEEDS))
    monotone = all(means[i] <= means[i + 1] + 1e-12 for i in range(len(means) - 1))
    top = final_accuracies(laplace_sweep, epsilon=EPSILONS[-1])
    hits = sum(1 for a in top.values() if a == 1.0)
    report(capsys, monotone and hits >= 4, "03 privacy sweep trend",
           f"seed-means {[round(m, 4) for m in means]} over eps {list(EPSILONS)}, "
           f"eps={EPSILONS[-1]:g} at 1.0 for {hits}/5 seeds")


def test_04_person_walk_matches_survey_rates(surveys, corpus, capsys):
    n = 100_000
    rng = np.random.default_rng(2024)
    ok = True
    worst_label, worst_z = "", 0.0
    example = None
    for survey in surveys:
        dist = build_distribution(survey)
        counts = {name: 0 for name, _ in dist.entries}
        for _ in range(n):
            for symptom in simulate_person(dist, corpus, NO_NOISE, rng):
                counts[symptom] += 1
        for name, p in dist.entries:
            sigma = math.sqrt(p * (1.0 - p) / n)
            z = abs(counts[name] / n - p) / sigma
            if z > worst_z:
                worst_label, worst_z = f"{survey.country}/{name}", z
            ok = ok and z <= Z999
            if survey.country == "Kenya" and name == "Fever":
                example = f"Kenya Fever {counts[name] / n:.5f} vs {p:.5f}"
    report(capsys, ok, "04 display frequency oracle",
           f"{n} persons per country, worst |z| {worst_z:.2f} at {worst_label} "
           f"(limit {Z999}); {example}")


def test_05_laplace_fire_rate_matches_tail(capsys):
    n = 1_000_000
    level = 0.5
    rng = np.random.default_rng(77)
    details = []
    ok = True
    for eps in (1.0, 2.0, 10.0):
        mech = NoiseMechanism(kind=LAPLACE_DP, noise_level=level, epsilon=eps)
        fired = sum(mech.fires(rng) for _ in range(n))
        expected = 0.5 * math.exp(-eps * level)
        sigma = math.sqrt(expected * (1.0 - expected) / n)
        z = abs(fired / n - expected) / sigma
        ok = ok and z <= 3.0
        details.append(f"eps={eps:g} rate {fired / n:.6f} vs {expected:.6f} |z|={z:.2f}")
    report(capsys, ok, "05 laplace tail oracle",
           f"{n} draws at level {level}; " + "; ".join(details))


def test_06_analytic_gradients_match_finite_differences(capsys):
    rng = np.random.default_rng(6)
    h = 1e-4
    ok = True
    rel_worst = abs_worst = 0.0

    for _ in range(20):
        params = random_params(rng)
        batch = [(rng.normal(0.0, 1.0, LAYER_SIZES[0]), int(rng.integers(0, 2)))
                 for _ in range(3)]
        x = np.stack([feature for feature, _ in batch])
        y = np.array([label for _, label in batch], dtype=np.float64)
        _, grad = loss_and_gradient(params, x, y)
        grad = layer_views(grad)
        for layer, (w, b) in enumerate(layer_views(params)):
            coords = [("w", (int(rng.integers(w.shape[0])), int(rng.integers(w.shape[1]))))
                      for _ in range(3)]
            coords.append(("b", int(rng.integers(b.shape[0]))))
            for which, idx in coords:
                analytic = grad[layer][0][idx] if which == "w" else grad[layer][1][idx]
                up = batch_loss(perturbed(params, layer, which, idx, +h), x, y)
                down = batch_loss(perturbed(params, layer, which, idx, -h), x, y)
                fd = (up - down) / (2.0 * h)
                denom = max(abs(analytic), abs(fd))
                if denom >= 1e-3:
                    err = abs(analytic - fd) / denom
                    rel_worst = max(rel_worst, err)
                    ok = ok and err <= 1e-5
                else:
                    err = abs(analytic - fd)
                    abs_worst = max(abs_worst, err)
                    ok = ok and err <= 1e-7
    report(capsys, ok, "06 gradient check",
           f"20 draws, worst relative {rel_worst:.2e} (limit 1e-5), "
           f"worst small-magnitude absolute {abs_worst:.2e} (limit 1e-7)")


def test_07_aggregation_algebra(capsys):
    rng = np.random.default_rng(7)
    checks = []

    base = random_params(rng)
    agg = fedavg_aggregate([(base, 1), (base, 2), (base, 3)])
    checks.append(("identical-update fixed point", bool(np.array_equal(agg, base))))

    updates = [(random_params(rng), n) for n in (3, 5, 7, 11)]
    total = sum(n for _, n in updates)
    agg = fedavg_aggregate(updates)
    flats = [(p, n / total) for p, n in updates]
    worst = 0.0
    for j in range(agg.size):
        oracle = math.fsum(arr[j] * weight for arr, weight in flats)
        # a mean can cancel toward zero; scale by the inputs too
        scale = max(abs(oracle), max(abs(arr[j]) for arr, _ in flats), 1e-30)
        worst = max(worst, abs(agg[j] - oracle) / scale)
    checks.append((f"weighted mean vs fsum, worst rel {worst:.1e}", worst <= 1e-12))

    stack = np.stack([p for p, _ in updates])
    hull = bool(np.all(agg >= stack.min(axis=0) - 1e-12)
                and np.all(agg <= stack.max(axis=0) + 1e-12))
    checks.append(("convex hull", hull))

    equal = fedavg_aggregate([(p, 4) for p, _ in updates])
    plain = bool(np.allclose(equal, stack.mean(axis=0), rtol=0.0, atol=1e-12))
    checks.append(("equal weights = plain mean", plain))

    ok = all(passed for _, passed in checks)
    report(capsys, ok, "07 aggregation algebra",
           "; ".join(f"{name} {'ok' if passed else 'FAIL'}" for name, passed in checks))


def test_08_byte_identical_reruns_across_thread_counts(tmp_path, capsys):
    out_dirs = []
    for threads, name in (("1", "a"), ("4", "b")):
        out_dir = tmp_path / name
        env = dict(os.environ, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "fedsymptoms.cli", "run", "--seed", "1",
             "--scale", "0.01", "--mechanism", "uniform_threshold",
             "--noise-level", "0", "--output-dir", str(out_dir)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        out_dirs.append(out_dir)
    same = {
        name: (out_dirs[0] / name).read_bytes() == (out_dirs[1] / name).read_bytes()
        for name in ("predictions.csv", "accuracy.csv")
    }
    report(capsys, all(same.values()), "08 determinism",
           "two subprocess runs, 1 vs 4 BLAS threads, byte-identical: "
           + ", ".join(f"{k}={v}" for k, v in same.items()))


def test_09_high_display_group_outscores_low(uniform_sweep, capsys):
    wins = 0
    margins = []
    for seed in SEEDS:
        rows = [r for r in uniform_sweep.predictions
                if r.noise_level == 0.0 and r.seed == seed
                and r.global_epoch == FINAL_EPOCH]
        high = [r.prediction for r in rows if r.group == GROUP_HIGH]
        low = [r.prediction for r in rows if r.group == GROUP_LOW]
        mean_high, mean_low = sum(high) / len(high), sum(low) / len(low)
        wins += mean_high >= mean_low
        margins.append(f"s{seed} {mean_high:.3f}/{mean_low:.3f}")
    report(capsys, wins >= 4, "09 display-group separation",
           f"high-group mean >= low-group mean for {wins}/5 seeds "
           f"(high/low: {', '.join(margins)})")


def test_10_separable_fixture_trains_to_perfection(capsys):
    # seeds feed the same stream helpers a real run uses
    perfect = []
    for seed in range(1, 11):
        dataset = separable_dataset(seed)
        params = init_params(init_stream(seed))
        block = train_local([params], Window((dataset,)), TrainConfig(local_epochs=5),
                            client_train_stream(seed, [0], 0))
        perfect.append(training_accuracy(block[0], dataset) == 1.0)
    report(capsys, all(perfect), "10 separable-data sanity",
           f"{sum(perfect)}/10 seeds reach training accuracy 1.0 "
           f"within 5 epochs on the 200-point fixture")


def test_11_many_tiny_clients_reported_only(surveys, corpus, table, evalset,
                                            uniform_sweep, capsys):
    """Thousand-client topology, reported for comparison, not gated."""
    spec = simulation_spec("IV", scale=0.01)
    lines = []
    all_preds = []
    for level in (0.0, 0.5, 1.0):
        mech = NoiseMechanism(kind=UNIFORM_THRESHOLD, noise_level=level)
        accs, mean_preds = [], []
        seeds = (1, 2)
        runs = run_simulation(spec, surveys, corpus, table, [(mech, seed) for seed in seeds])
        for seed, (snapshots, _) in zip(seeds, runs):
            rows = record_run(spec, snapshots, evalset, table, mech, seed)
            preds = [r.prediction for r in rows.predictions
                     if r.global_epoch == spec.global_epochs]
            all_preds.extend(preds)
            mean_preds.append(sum(preds) / len(preds))
            accs.append(rows.accuracies[-1].accuracy)
        lines.append(f"noise {level:g}: mean prediction "
                     f"{sum(mean_preds) / len(mean_preds):.3f}, "
                     f"mean accuracy {sum(accs) / len(accs):.3f}")
    single = [r.prediction for r in uniform_sweep.predictions
              if r.noise_level == 0.0 and r.global_epoch == FINAL_EPOCH]
    with capsys.disabled():
        print("[INFO] 11 thousand-client topology (reported, not gated): "
              + "; ".join(lines)
              + f"; single-client noise-0 mean prediction "
                f"{sum(single) / len(single):.3f}")
    assert all(0.0 < p < 1.0 for p in all_preds)
