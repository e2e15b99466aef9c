"""Classifier internals: forward pass, gradients, Adam, training loop.

The gradient check uses central finite differences as an independent
oracle; the Adam check replays the moment recursion in pure Python.
The ``ref_*`` functions are a frozen copy of an earlier, plainer
training step (masked sigmoid, loss computed on every step, Adam with
fresh temporaries), trained one client at a time, and whole-matrix
forward; the lockstep engine and the window scorer, stacked or blocked,
must match them bit for bit, client by client. Checks that depend on the
BLAS thread count run in a fresh interpreter with that many threads.
"""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import fedsymptoms
from fedsymptoms import mlp
from fedsymptoms.mlp import (
    BATCH_SIZE,
    BETA1,
    BETA2,
    Cohort,
    EPS_HAT,
    LAYER_SIZES,
    LEARNING_RATE,
    LOSS_CLAMP,
    MlpParameters,
    N_PARAMS,
    OUTPUT_CLIP,
    SCORE_ROWS,
    TrainConfig,
    _sigmoid,
    adam_step,
    forward,
    forward_batch,
    init_params,
    layer_views,
    load_checkpoint,
    loss_and_gradient,
    mean_loss,
    save_checkpoint,
    train_local,
)
from fedsymptoms.sampling import ClientDataset

from conftest import matrix_phrase_table, separable_dataset, training_accuracy


def train_one(params, dataset, config, rng):
    """train_local on a cohort of one client."""
    [trained] = train_local(params, Cohort((dataset,)), config, [rng])
    return trained


def score_one(params, dataset):
    """mean_loss on a cohort of one client."""
    [loss] = mean_loss([params], Cohort((dataset,)))
    return loss


def test_init_shapes_and_glorot_bounds():
    params = init_params(np.random.default_rng(0))
    assert len(params.layers) == len(LAYER_SIZES) - 1
    for i, (w, b) in enumerate(params.layers):
        fan_in, fan_out = LAYER_SIZES[i], LAYER_SIZES[i + 1]
        assert w.shape == (fan_in, fan_out)
        assert b.shape == (fan_out,)
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w) <= limit)
        assert np.all(b == 0.0)


def test_init_deterministic_per_stream():
    a = init_params(np.random.default_rng(42))
    b = init_params(np.random.default_rng(42))
    for (wa, ba), (wb, bb) in zip(a.layers, b.layers):
        assert np.array_equal(wa, wb) and np.array_equal(ba, bb)


def test_params_arrays_are_frozen():
    params = init_params(np.random.default_rng(0))
    with pytest.raises(ValueError):
        params.layers[0][0][0, 0] = 1.0
    trained = train_one(params, separable_dataset(0), TrainConfig(local_epochs=1),
                          np.random.default_rng(0))
    with pytest.raises(ValueError):
        trained.flat[0] = 1.0
    with pytest.raises(ValueError):
        trained.layers[-1][1][0] = 1.0


def test_layer_views_are_built_once_per_parameter_set():
    params = init_params(np.random.default_rng(0))
    layers = params.layers
    assert params.layers is layers
    offset = 0
    for w, b in layers:
        for view in (w, b):
            assert not view.flags.writeable
            assert np.shares_memory(view, params.flat)
            assert np.array_equal(view.ravel(), params.flat[offset:offset + view.size])
            offset += view.size
    assert offset == N_PARAMS
    # a new parameter set gets its own views
    other = MlpParameters(params.flat)
    assert other.layers is not layers
    assert np.shares_memory(other.layers[0][0], other.flat)


def test_params_rejects_wrong_length_and_nonfinite():
    with pytest.raises(ValueError):
        MlpParameters(np.zeros(N_PARAMS - 1))
    for bad in (np.nan, np.inf):
        flat = np.zeros(N_PARAMS)
        flat[7] = bad
        with pytest.raises(ValueError):
            MlpParameters(flat)


def test_from_layers_rejects_bad_layout():
    layers = list(init_params(np.random.default_rng(0)).layers)
    transposed = [(layers[0][0].T, layers[0][1])] + layers[1:]
    with pytest.raises(ValueError):
        MlpParameters.from_layers(transposed)
    with pytest.raises(ValueError):
        MlpParameters.from_layers(layers[:3])


def test_forward_matches_manual_chain():
    params = init_params(np.random.default_rng(1))
    rng = np.random.default_rng(2)
    x = rng.standard_normal((7, LAYER_SIZES[0]))

    h = x
    for w, b in params.layers[:-1]:
        h = np.maximum(h @ w + b, 0.0)
    w, b = params.layers[-1]
    z = (h @ w + b)[:, 0]
    expected = np.clip(1.0 / (1.0 + np.exp(-z)), OUTPUT_CLIP, 1.0 - OUTPUT_CLIP)

    got = forward_batch(params, x)
    assert np.max(np.abs(got - expected)) <= 1e-12
    assert forward(params, x[0]) == got[0]


def test_forward_output_strictly_inside_unit_interval():
    params = init_params(np.random.default_rng(5))
    x = 1e6 * np.ones((1, LAYER_SIZES[0]))
    p = forward_batch(params, x)[0]
    assert OUTPUT_CLIP <= p <= 1.0 - OUTPUT_CLIP


def test_forward_rejects_bad_shapes_and_nonfinite():
    params = init_params(np.random.default_rng(6))
    with pytest.raises(ValueError):
        forward_batch(params, np.zeros((3, LAYER_SIZES[0] + 1)))
    with pytest.raises(ValueError):
        forward(params, np.zeros(LAYER_SIZES[0] - 1))
    bad = np.zeros((1, LAYER_SIZES[0]))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        forward_batch(params, bad)


def perturbed(params, layer, which, index, delta):
    layers = []
    for i, (w, b) in enumerate(params.layers):
        w = w.copy()
        b = b.copy()
        if i == layer:
            if which == "w":
                w[index] += delta
            else:
                b[index] += delta
        layers.append((w, b))
    return MlpParameters.from_layers(layers)


def batch_loss(params, x, y):
    loss, _ = loss_and_gradient(params, x, y)
    return loss


def test_gradient_matches_finite_differences():
    h = 1e-4
    rng = np.random.default_rng(7)
    for _ in range(5):
        params = init_params(rng)
        x = rng.standard_normal((6, LAYER_SIZES[0]))
        y = rng.integers(0, 2, size=6)
        _, grad = loss_and_gradient(params, x, y)
        grad = layer_views(grad)
        for layer in range(len(params.layers)):
            gw, gb = grad[layer]
            w, b = params.layers[layer]
            w_checks = [tuple(int(v) for v in idx)
                        for idx in rng.integers(0, w.shape, size=(4, 2))]
            for idx in w_checks:
                up = batch_loss(perturbed(params, layer, "w", idx, h), x, y)
                down = batch_loss(perturbed(params, layer, "w", idx, -h), x, y)
                numeric = (up - down) / (2 * h)
                analytic = gw[idx]
                scale = max(abs(numeric), abs(analytic))
                if scale < 1e-3:
                    assert abs(numeric - analytic) < 1e-7
                else:
                    assert abs(numeric - analytic) / scale < 1e-5
            bidx = int(rng.integers(0, b.shape[0]))
            up = batch_loss(perturbed(params, layer, "b", bidx, h), x, y)
            down = batch_loss(perturbed(params, layer, "b", bidx, -h), x, y)
            numeric = (up - down) / (2 * h)
            analytic = gb[bidx]
            scale = max(abs(numeric), abs(analytic))
            if scale < 1e-3:
                assert abs(numeric - analytic) < 1e-7
            else:
                assert abs(numeric - analytic) / scale < 1e-5


def test_loss_matches_clamped_cross_entropy():
    params = init_params(np.random.default_rng(8))
    rng = np.random.default_rng(9)
    x = rng.standard_normal((10, LAYER_SIZES[0]))
    y = rng.integers(0, 2, size=10).astype(np.float64)
    loss, _ = loss_and_gradient(params, x, y)
    p = np.clip(forward_batch(params, x), LOSS_CLAMP, 1.0 - LOSS_CLAMP)
    expected = float(np.mean(-(y * np.log(p) + (1 - y) * np.log1p(-p))))
    assert abs(loss - expected) < 1e-12


def test_loss_rejects_empty_batch():
    params = init_params(np.random.default_rng(10))
    with pytest.raises(ValueError):
        loss_and_gradient(params, np.empty((0, LAYER_SIZES[0])), np.empty(0))


def test_adam_step_matches_scalar_recursion():
    rng = np.random.default_rng(11)
    theta = np.array([0.5])
    m = np.zeros(1)
    v = np.zeros(1)
    ref_theta, ref_m, ref_v = 0.5, 0.0, 0.0
    lr = 0.001
    for step in range(1, 101):
        g = float(rng.standard_normal())
        adam_step(theta, np.array([g]), m, v, step, lr, np.empty(1), np.empty(1))
        ref_m = BETA1 * ref_m + (1 - BETA1) * g
        ref_v = BETA2 * ref_v + (1 - BETA2) * g * g
        m_hat = ref_m / (1 - BETA1 ** step)
        v_hat = ref_v / (1 - BETA2 ** step)
        ref_theta = ref_theta - lr * m_hat / (math.sqrt(v_hat) + EPS_HAT)
        assert abs(theta[0] - ref_theta) < 1e-10


def test_adam_step_advances_with_the_step_count():
    start = init_params(np.random.default_rng(12)).flat
    theta, m, v = start.copy(), np.zeros(N_PARAMS), np.zeros(N_PARAMS)
    scratch, denom = np.empty(N_PARAMS), np.empty(N_PARAMS)
    adam_step(theta, np.ones(N_PARAMS), m, v, 1, 0.001, scratch, denom)
    assert not np.array_equal(theta, start)
    # the bias correction depends on the step count the caller advances
    at_one, at_two = theta.copy(), theta.copy()
    adam_step(at_one, np.ones(N_PARAMS), m.copy(), v.copy(), 1, 0.001, scratch, denom)
    adam_step(at_two, np.ones(N_PARAMS), m.copy(), v.copy(), 2, 0.001, scratch, denom)
    assert not np.array_equal(at_one, at_two)


def test_train_local_solves_separable_data():
    dataset = separable_dataset(13)
    params = init_params(np.random.default_rng(13))
    config = TrainConfig(local_epochs=5)
    trained = train_one(params, dataset, config, np.random.default_rng(13))
    assert training_accuracy(trained, dataset) == 1.0


def test_train_local_deterministic():
    dataset = separable_dataset(14)
    params = init_params(np.random.default_rng(14))
    config = TrainConfig(local_epochs=2)
    a = train_one(params, dataset, config, np.random.default_rng(15))
    b = train_one(params, dataset, config, np.random.default_rng(15))
    for (wa, ba), (wb, bb) in zip(a.layers, b.layers):
        assert np.array_equal(wa, wb) and np.array_equal(ba, bb)


def test_train_local_rejects_empty_dataset():
    params = init_params(np.random.default_rng(16))
    empty = ClientDataset(phrases=matrix_phrase_table(np.zeros((1, LAYER_SIZES[0]))),
                          rows=np.empty(0, np.intp), labels=np.empty(0))
    with pytest.raises(ValueError):
        train_one(params, empty, TrainConfig(), np.random.default_rng(16))


def test_train_local_refuses_a_non_finite_update():
    # a NaN table row gives a NaN gradient; the returned parameters refuse it
    x = np.ones((4, LAYER_SIZES[0]))
    x[2, 7] = np.nan
    dataset = ClientDataset(phrases=matrix_phrase_table(x),
                            rows=np.arange(4), labels=np.array([1, 0, 1, 0]))
    params = init_params(np.random.default_rng(16))
    with pytest.raises(ValueError, match="non-finite"):
        train_one(params, dataset, TrainConfig(local_epochs=1), np.random.default_rng(16))


def test_train_local_returns_a_read_only_vector_of_its_own():
    # the trained vector is adopted without a copy, so nothing else may hold it
    dataset = separable_dataset(18)
    params = init_params(np.random.default_rng(18))
    trained = train_one(params, dataset, TrainConfig(local_epochs=1),
                          np.random.default_rng(18))
    assert trained.flat.dtype == np.float64 and trained.flat.shape == (N_PARAMS,)
    assert not trained.flat.flags.writeable
    assert all(not w.flags.writeable and not b.flags.writeable for w, b in trained.layers)
    for held in (params.flat, dataset.rows, dataset.labels, dataset.phrases.matrix):
        assert not np.shares_memory(trained.flat, held)


def test_mean_loss_drops_after_training():
    dataset = separable_dataset(17)
    params = init_params(np.random.default_rng(17))
    trained = train_one(params, dataset, TrainConfig(local_epochs=3),
                          np.random.default_rng(17))
    assert score_one(trained, dataset) < score_one(params, dataset)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    params = init_params(np.random.default_rng(18))
    path = str(tmp_path / "model.npz")
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    for (wa, ba), (wb, bb) in zip(params.layers, loaded.layers):
        assert np.array_equal(wa, wb) and np.array_equal(ba, bb)


def test_checkpoint_rejects_nonfinite_weights(tmp_path):
    path = str(tmp_path / "model.npz")
    save_checkpoint(init_params(np.random.default_rng(19)), path)
    with np.load(path) as data:
        payload = dict(data)
    payload["w1"][0, 0] = np.nan
    np.savez(path, **payload)
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_missing_file():
    with pytest.raises(FileNotFoundError):
        load_checkpoint("/nonexistent/model.npz")


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(local_epochs=0)


def ref_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def ref_forward_batch(layers, x):
    h = x
    for w, b in layers[:-1]:
        h = np.maximum(h @ w + b, 0.0)
    w, b = layers[-1]
    return np.clip(ref_sigmoid(h @ w + b)[:, 0], OUTPUT_CLIP, 1.0 - OUTPUT_CLIP)


def ref_backprop(layers, x, y, grads):
    n = x.shape[0]
    pre, acts = [], [x]
    h = x
    for w, b in layers[:-1]:
        z = h @ w + b
        pre.append(z)
        h = np.maximum(z, 0.0)
        acts.append(h)
    w_out, b_out = layers[-1]
    p = np.clip(ref_sigmoid(h @ w_out + b_out)[:, 0], OUTPUT_CLIP, 1.0 - OUTPUT_CLIP)
    pc = np.clip(p, LOSS_CLAMP, 1.0 - LOSS_CLAMP)
    loss = float(np.mean(-(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))))
    active = (p > LOSS_CLAMP) & (p < 1.0 - LOSS_CLAMP)
    dz = (np.where(active, p - y, 0.0) / n)[:, None]
    for i in range(len(layers) - 1, -1, -1):
        if i < len(layers) - 1:
            dz = (dz @ layers[i + 1][0].T) * (pre[i] > 0.0)
        gw, gb = grads[i]
        gw[...] = acts[i].T @ dz
        gb[...] = dz.sum(axis=0)
    return loss


def same_bytes(a, b) -> bool:
    """Equal float64 bytes: unlike np.array_equal, -0.0 differs from +0.0."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def ref_adam_update(theta, grad, m, v, step, learning_rate):
    m *= BETA1
    m += (1.0 - BETA1) * grad
    v *= BETA2
    v += (1.0 - BETA2) * grad * grad
    m_hat = m / (1.0 - BETA1 ** step)
    v_hat = v / (1.0 - BETA2 ** step)
    theta -= learning_rate * m_hat / (np.sqrt(v_hat) + EPS_HAT)


def ref_train_local(flat, x, y, config, rng):
    theta = flat.copy()
    grad, m, v = np.empty(N_PARAMS), np.zeros(N_PARAMS), np.zeros(N_PARAMS)
    layers, grads = layer_views(theta), layer_views(grad)
    step = 0
    for _ in range(config.local_epochs):
        order = rng.permutation(len(y))
        for start in range(0, len(y), BATCH_SIZE):
            idx = order[start:start + BATCH_SIZE]
            ref_backprop(layers, x[idx], y[idx], grads)
            step += 1
            ref_adam_update(theta, grad, m, v, step, LEARNING_RATE)
    return theta


def ref_mean_loss(flat, x, y):
    return ref_backprop(layer_views(flat), x, y, layer_views(np.empty(N_PARAMS)))


def test_training_step_matches_frozen_reference_bit_for_bit():
    rng = np.random.default_rng(20)
    n = 83  # two full batches of 32 and a short one of 19
    x = rng.standard_normal((n, LAYER_SIZES[0]))
    x[::7] = 0.0  # rows whose logit is the output bias, exactly 0 at init
    labels = rng.integers(0, 2, size=n)
    dataset = ClientDataset(phrases=matrix_phrase_table(x),
                            rows=np.arange(n), labels=labels)
    params = MlpParameters(3.0 * init_params(np.random.default_rng(21)).flat)

    # the scaled start covers every branch of the sigmoid and the clamp
    h = x
    for w, b in params.layers[:-1]:
        h = np.maximum(h @ w + b, 0.0)
    logits = (h @ params.layers[-1][0] + params.layers[-1][1])[:, 0]
    p = ref_sigmoid(logits)
    assert (logits < 0).any() and (logits > 0).any() and (logits == 0).any()
    outside = (p <= LOSS_CLAMP) | (p >= 1.0 - LOSS_CLAMP)
    assert outside.any() and not outside.all()

    y = labels.astype(np.float64)
    config = TrainConfig(local_epochs=3)
    trained = train_one(params, dataset, config, np.random.default_rng(22))
    expected = ref_train_local(params.flat, x, y, config, np.random.default_rng(22))
    assert same_bytes(trained.flat, expected)
    for start in (params, trained):
        assert same_bytes(score_one(start, dataset), ref_mean_loss(start.flat, x, y))


def test_training_past_the_adam_cut_over_matches_frozen_reference_bit_for_bit():
    # adam_step drops its first-moment bias-correction divide once the
    # correction rounds to exactly 1.0
    corrections = [1.0 - BETA1 ** step for step in range(1, 401)]
    assert corrections.index(1.0) + 1 == 356
    assert all(c == 1.0 for c in corrections[355:])

    rng = np.random.default_rng(23)
    n = 70  # batches of 32, 32 and 6: 3 steps an epoch
    x = rng.standard_normal((n, LAYER_SIZES[0]))
    labels = rng.integers(0, 2, size=n)
    dataset = ClientDataset(phrases=matrix_phrase_table(x),
                            rows=np.arange(n), labels=labels)
    params = init_params(np.random.default_rng(24))
    config = TrainConfig(local_epochs=134)  # 402 steps
    trained = train_one(params, dataset, config, np.random.default_rng(25))
    expected = ref_train_local(params.flat, x, labels.astype(np.float64), config,
                               np.random.default_rng(25))
    assert same_bytes(trained.flat, expected)


def ragged_cohort(sizes, seed, table_rows=300):
    """A cohort of clients of the given sizes, drawn with repeats from one shared random table."""
    rng = np.random.default_rng(seed)
    table = matrix_phrase_table(rng.standard_normal((table_rows, LAYER_SIZES[0])))
    return Cohort(tuple(ClientDataset(phrases=table, rows=rng.integers(table_rows, size=n),
                                      labels=rng.integers(0, 2, size=n)) for n in sizes))


def check_cohort_matches_frozen_reference(params, cohort, config, seed):
    """Train the cohort in lockstep and each client alone on the frozen reference; compare bytes."""
    streams = [np.random.default_rng([seed, i]) for i in range(len(cohort.clients))]
    trained = train_local(params, cohort, config, streams)
    assert len(trained) == len(cohort.clients)
    for i, (client, update) in enumerate(zip(cohort.clients, trained)):
        x = client.phrases.matrix[client.rows]
        expected = ref_train_local(params.flat, x, client.labels, config,
                                   np.random.default_rng([seed, i]))
        assert same_bytes(update.flat, expected), (i, len(client))
    return trained


# around one and two batches, and one of ten, in no order: 13 clients fill one chunk and
# part of a second; over 5 epochs a 65-row client draws its shuffles as 3 + 2 epochs, and
# the 300-row client one epoch at a time
RAGGED_SIZES = (65, 1, 33, 32, 2, 64, 31, 300, 33, 1, 65, 2, 32)


@pytest.mark.parametrize("epochs", [1, 2, 3, 5])
def test_ragged_cohort_matches_frozen_reference_byte_for_byte(epochs):
    assert len(RAGGED_SIZES) > mlp.LOCKSTEP_CLIENTS
    cohort = ragged_cohort(RAGGED_SIZES, 50 + epochs)
    assert len(cohort) == sum(RAGGED_SIZES)
    start = init_params(np.random.default_rng(51))
    # 3x the start also puts outputs outside the LOSS_CLAMP band
    for params in (start, MlpParameters(3.0 * start.flat)):
        trained = check_cohort_matches_frozen_reference(
            params, cohort, TrainConfig(local_epochs=epochs), 52)
    for i, update in enumerate(trained):
        assert not update.flat.flags.writeable
        assert not any(np.shares_memory(update.flat, other.flat) for other in trained[i + 1:])


@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 255, 256, 257, 1000])
def test_permuted_rows_are_successive_permutations(n):
    # train_local draws b epochs' shuffles of a small client in one permuted call
    for b in range(1, 6):
        one, many = np.random.default_rng([n, b]), np.random.default_rng([n, b])
        orders = np.arange(n)[None].repeat(b, axis=0)
        many.permuted(orders, axis=1, out=orders)
        for order in orders:
            assert np.array_equal(order, one.permutation(n))
        assert many.bit_generator.state == one.bit_generator.state


class DrawRecorder:
    """A client's stream that records how many epochs each shuffle draw covers."""

    def __init__(self, rng):
        self.rng, self.draws = rng, []

    def permuted(self, x, axis, out):
        self.draws.append(len(x))
        return self.rng.permuted(x, axis=axis, out=out)


def test_small_clients_draw_several_epochs_shuffles_at_once():
    # SCORE_ROWS // n epochs a draw, at least one and at most the epochs left
    sizes = (65, SCORE_ROWS + 44, 1, SCORE_ROWS)
    cohort = ragged_cohort(sizes, 62)
    params = init_params(np.random.default_rng(63))
    config = TrainConfig(local_epochs=5)
    streams = [DrawRecorder(np.random.default_rng([64, i])) for i in range(len(sizes))]
    trained = train_local(params, cohort, config, streams)
    assert [stream.draws for stream in streams] == [[3, 2], [1] * 5, [5], [1] * 5]
    for i, (client, update) in enumerate(zip(cohort.clients, trained)):
        expected = ref_train_local(params.flat, client.phrases.matrix[client.rows],
                                   client.labels, config, np.random.default_rng([64, i]))
        assert same_bytes(update.flat, expected), len(client)


def test_clients_leave_the_lockstep_prefix_as_they_finish(monkeypatch):
    # 3, 2 and 1 steps an epoch: over 2 epochs the clients stop after steps 6, 4 and 2
    cohort = ragged_cohort((10, 70, 40), 54)
    steps = []
    real = mlp.adam_step

    def spy(theta, *args):
        # a lone client steps on its 1-D row
        steps.append((len(theta) if theta.ndim == 2 else 1, args[3]))
        return real(theta, *args)

    monkeypatch.setattr(mlp, "adam_step", spy)
    check_cohort_matches_frozen_reference(init_params(np.random.default_rng(55)), cohort,
                                          TrainConfig(local_epochs=2), 56)
    assert steps == [(3, 1), (3, 2), (2, 3), (2, 4), (1, 5), (1, 6)]


def test_a_run_of_one_client_between_runs_of_several(monkeypatch):
    # one step an epoch each; sorted by batch size: 20, 20 | 15 | 10, 10
    cohort = ragged_cohort((10, 20, 15, 20, 10), 57)
    shapes = []
    real = mlp._backprop

    def spy(layers, x, y, grads):
        shapes.append(x.shape)
        return real(layers, x, y, grads)

    monkeypatch.setattr(mlp, "_backprop", spy)
    check_cohort_matches_frozen_reference(init_params(np.random.default_rng(58)), cohort,
                                          TrainConfig(local_epochs=2), 59)
    step = [(2, 20, LAYER_SIZES[0]), (15, LAYER_SIZES[0]), (2, 10, LAYER_SIZES[0])]
    assert shapes == step * 2


def test_cohort_checks_its_clients_and_streams():
    cohort = ragged_cohort((3, 4), 60)
    params = init_params(np.random.default_rng(60))
    with pytest.raises(ValueError, match="2 streams"):
        train_local(params, Cohort(cohort.clients + cohort.clients[:1]), TrainConfig(),
                    [np.random.default_rng(0)] * 2)
    with pytest.raises(ValueError, match="share one phrase table"):
        Cohort(cohort.clients + (separable_dataset(60),))
    assert train_local(params, Cohort(()), TrainConfig(), []) == []


def backprop_cases():
    """(name, params, x, y) batches around BATCH_SIZE, with a dead unit and saturated outputs."""
    rng = np.random.default_rng(40)
    params = init_params(np.random.default_rng(41))
    cases = [(f"{n} rows", params, rng.standard_normal((n, LAYER_SIZES[0])),
              rng.integers(0, 2, size=n).astype(np.float64)) for n in (1, 2, 31, 32, 33)]
    # unit 5 of the first hidden layer and unit 3 of the second are 0 on every row
    layers = [(w.copy(), b.copy()) for w, b in params.layers]
    layers[0][1][5] = -1e3
    layers[1][1][3] = -1e3
    dead = MlpParameters.from_layers(layers)
    x = rng.standard_normal((32, LAYER_SIZES[0]))
    cases.append(("dead units", dead, x, rng.integers(0, 2, size=32).astype(np.float64)))
    # 3x the start puts some outputs outside the LOSS_CLAMP band and leaves others inside
    cases.append(("saturated", MlpParameters(3.0 * params.flat), 3.0 * x,
                  rng.integers(0, 2, size=32).astype(np.float64)))
    return cases


def test_backprop_matches_frozen_reference_byte_for_byte():
    for name, params, x, y in backprop_cases():
        loss, grad = loss_and_gradient(params, x, y)
        expected = np.empty(N_PARAMS)
        ref_loss = ref_backprop(params.layers, x, y, layer_views(expected))
        assert same_bytes(grad, expected), name
        assert same_bytes(loss, ref_loss), name
        if name == "dead units":
            gw0, gb0 = layer_views(grad)[0]
            assert not gw0[:, 5].any() and gb0[5] == 0.0
        if name == "saturated":
            p = forward_batch(params, x)
            outside = (p <= LOSS_CLAMP) | (p >= 1.0 - LOSS_CLAMP)
            assert outside.any() and not outside.all()


def test_forward_and_sigmoid_match_frozen_reference_on_extreme_logits():
    z = np.array([800.0, -800.0, 40.0, -40.0, 3.3, -3.3, 0.0, -0.0])
    assert np.array_equal(_sigmoid(z), ref_sigmoid(z))
    assert _sigmoid(z)[-1] == 0.5

    # units 0 and 1 pass straight through to the output, which reads
    # logit = x[0] - x[1]; the BLAS products never give -0.0, so that
    # case is pinned on the sigmoid alone, and the +-3.3 rows are the
    # ones OUTPUT_CLIP leaves alone
    layers = []
    for fan_in, fan_out in zip(LAYER_SIZES, LAYER_SIZES[1:]):
        w = np.zeros((fan_in, fan_out))
        if fan_out > 1:
            w[0, 0] = w[1, 1] = 1.0
        else:
            w[0, 0], w[1, 0] = 1.0, -1.0
        layers.append((w, np.zeros(fan_out)))
    params = MlpParameters.from_layers(layers)
    x = np.zeros((7, LAYER_SIZES[0]))
    x[:, :2] = [[800.0, 0.0], [0.0, 800.0], [40.0, 0.0], [0.0, 40.0],
                [3.3, 0.0], [0.0, 3.3], [0.0, 0.0]]
    assert np.array_equal(forward_batch(params, x), ref_forward_batch(params.layers, x))


def at_blas_threads(threads: int, code: str) -> str:
    """Run `code` in a fresh interpreter with `threads` BLAS threads; return its stdout.

    This test directory is on the child's path, so `code` can import this module.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(fedsymptoms.__file__)))
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join(filter(None, (src, here, os.environ.get("PYTHONPATH"))))
    count = str(threads)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=count, OMP_NUM_THREADS=count,
               MKL_NUM_THREADS=count, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout


def random_client(n, rng, table_rows=300):
    """A client of n rows drawn with repeats from a random table, like a synthesized one."""
    table = matrix_phrase_table(rng.standard_normal((table_rows, LAYER_SIZES[0])))
    return ClientDataset(phrases=table,
                         rows=rng.integers(table_rows, size=n), labels=rng.integers(0, 2, size=n))


# around each block boundary, and every 1-11-row tail that joins the block before it
REFERENCE_SIZES = sorted({1, 7, 1023, 1024, 1025, 2047, 2048, 2049, 3071, 3072, 13231, 59429,
                          *(SCORE_ROWS * k + r for k in range(1, 13) for r in range(1, 12))})


def check_blocked_scoring_matches_whole_matrix_reference():
    """forward_batch and mean_loss against one whole-matrix forward of every size."""
    rng = np.random.default_rng(23)
    start = init_params(np.random.default_rng(24))
    for params in (start, MlpParameters(3.0 * start.flat)):
        for n in REFERENCE_SIZES:
            dataset = random_client(n, rng)
            x = dataset.phrases.matrix[dataset.rows]
            assert np.array_equal(forward_batch(params, x), ref_forward_batch(params.layers, x)), n
            assert same_bytes(score_one(params, dataset),
                              ref_mean_loss(params.flat, x, dataset.labels)), n


def test_blocked_scoring_matches_whole_matrix_reference_at_1_blas_thread():
    # the reference is a whole-matrix forward, whose bits are pinned at one thread only
    at_blas_threads(1, "import test_mlp; "
                       "test_mlp.check_blocked_scoring_matches_whole_matrix_reference()")


def forward_digests() -> list[str]:
    """sha256 of forward_batch on 59,429 rows, for inputs whose whole-matrix
    forward changes a row at 4 OpenBLAS threads on a Haswell kernel."""
    digests = []
    for seed in (31, 33, 36):
        params = init_params(np.random.default_rng(seed))
        x = np.random.default_rng(seed + 1000).standard_normal((59429, LAYER_SIZES[0]))
        digests.append(hashlib.sha256(forward_batch(params, x).tobytes()).hexdigest())
    return digests


# one client of each size around the batch and block edges, and more than LOCKSTEP_CLIENTS
# clients of 31 rows: clients under 2 * SCORE_ROWS rows are scored in stacks of equal size
WINDOW_SIZES = (1, 2, 31, 32, 33, 255, 511, 512, 513, 769, 2) + (31,) * 16


def window_scoring_case():
    """A ragged cohort, one parameter set per client from 1x to 3x one start, and its losses."""
    cohort = ragged_cohort(WINDOW_SIZES, 65)
    start = init_params(np.random.default_rng(66))
    # 3x the start also puts outputs outside the LOSS_CLAMP band
    trained = [MlpParameters((1.0 + 2.0 * i / (len(WINDOW_SIZES) - 1)) * start.flat)
               for i in range(len(WINDOW_SIZES))]
    return cohort, trained, mean_loss(trained, cohort)


def check_window_scoring_matches_whole_matrix_reference():
    cohort, trained, losses = window_scoring_case()
    assert len(losses) == len(cohort.clients)
    for client, params, loss in zip(cohort.clients, trained, losses):
        expected = ref_mean_loss(params.flat, client.phrases.matrix[client.rows], client.labels)
        assert same_bytes(loss, expected), len(client)


def test_window_scoring_matches_whole_matrix_reference_at_1_blas_thread():
    at_blas_threads(1, "import test_mlp; "
                       "test_mlp.check_window_scoring_matches_whole_matrix_reference()")


def test_window_scoring_stacks_equal_sizes_and_matches_clients_scored_alone(monkeypatch):
    shapes = []
    real = mlp._forward

    def spy(layers, x):
        shapes.append(x.shape)
        return real(layers, x)

    monkeypatch.setattr(mlp, "_forward", spy)
    cohort, trained, losses = window_scoring_case()
    stacked = sorted(shape[:2] for shape in shapes if len(shape) == 3)
    # 16 + 1 clients of 31 rows: stacks of 8 and 8, then one alone; 2 clients of 2 rows
    assert stacked == [(2, 2), (8, 31), (8, 31)]
    # blocks of 256 rows, the last up to 511: 512 and 513 rows take two, 769 three
    assert sum(len(shape) == 2 for shape in shapes) == 6 + 2 + 2 + 3
    for client, params, loss in zip(cohort.clients, trained, losses):
        assert same_bytes(loss, score_one(params, client)), len(client)


def test_mean_loss_checks_its_clients():
    cohort = ragged_cohort((3, 4), 67)
    params = init_params(np.random.default_rng(67))
    with pytest.raises(ValueError, match="1 parameter sets for 2 clients"):
        mean_loss([params], cohort)
    empty = ClientDataset(phrases=cohort.clients[0].phrases, rows=np.arange(0),
                          labels=np.arange(0))
    with pytest.raises(ValueError, match="empty client"):
        mean_loss([params], Cohort((empty,)))
    assert mean_loss([], Cohort(())) == []


def test_forward_batch_bits_do_not_depend_on_blas_threads():
    code = "import test_mlp; print(test_mlp.forward_digests())"
    assert at_blas_threads(4, code) == at_blas_threads(1, code)


def test_training_and_scoring_memory_is_bounded_by_batch_and_block():
    dataset = random_client(100_000, np.random.default_rng(25))
    params = init_params(np.random.default_rng(26))
    tracemalloc.start()
    try:
        trained = train_one(params, dataset, TrainConfig(local_epochs=1),
                              np.random.default_rng(27))
        _, train_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        score_one(trained, dataset)
        _, score_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a whole-client gather alone is 100k x 50 x 8 B = 38 MiB
    assert train_peak < 4 * 2**20
    assert score_peak < 8 * 2**20
