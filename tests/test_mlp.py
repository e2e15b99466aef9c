"""Classifier internals: forward pass, gradients, Adam, training loop.

The gradient check uses central finite differences as an independent
oracle; the Adam check replays the moment recursion in pure Python.
The ``ref_*`` functions are a frozen copy of an earlier, plainer
training step (masked sigmoid, loss computed on every step, Adam with
fresh temporaries), trained one client at a time, and whole-matrix
forward; the lockstep engine and the window scorer must match them bit
for bit, client by client. Checks that depend on the BLAS thread count
run in a fresh interpreter with that many threads.
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
    EPS_HAT,
    LAYER_SIZES,
    LEARNING_RATE,
    LOSS_CLAMP,
    N_PARAMS,
    OUTPUT_CLIP,
    SCORE_ROWS,
    TrainConfig,
    Window,
    _sigmoid,
    adam_step,
    forward,
    init_params,
    layer_views,
    load_checkpoint,
    loss_and_gradient,
    mean_loss,
    save_checkpoint,
    train_local,
)
from conftest import (
    batch_loss,
    client_dataset,
    matrix_phrase_table,
    perturbed,
    separable_dataset,
    training_accuracy,
)


def train_one(params, dataset, config, rng):
    """train_local on a window of one client: its one block row."""
    window = Window((dataset,))
    block = train_local([params], window, config, [rng])
    assert window.order == (0,)
    return block[0]


def score_one(params, dataset):
    """mean_loss on a window of one client."""
    [loss] = mean_loss(params[None], Window((dataset,)))
    return loss


def by_client(block, order):
    """train_local's block rows in input order: client i's trained vector is row i."""
    rows = [None] * len(order)
    for p, i in enumerate(order):
        rows[i] = block[p]
    return rows


def test_init_shapes_and_glorot_bounds():
    params = init_params(np.random.default_rng(0))
    assert params.dtype == np.float64 and params.shape == (N_PARAMS,)
    assert len(layer_views(params)) == len(LAYER_SIZES) - 1
    for i, (w, b) in enumerate(layer_views(params)):
        fan_in, fan_out = LAYER_SIZES[i], LAYER_SIZES[i + 1]
        assert w.shape == (fan_in, fan_out)
        assert b.shape == (fan_out,)
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w) <= limit)
        assert np.all(b == 0.0)


def test_init_deterministic_per_stream():
    a = init_params(np.random.default_rng(42))
    b = init_params(np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_params_arrays_are_frozen():
    params = init_params(np.random.default_rng(0))
    with pytest.raises(ValueError):
        params[0] = 1.0
    trained = train_one(params, separable_dataset(0), TrainConfig(local_epochs=1),
                          np.random.default_rng(0))
    with pytest.raises(ValueError):
        trained[0] = 1.0


def test_layer_views_share_the_vector_and_are_read_only():
    params = init_params(np.random.default_rng(0))
    offset = 0
    for w, b in layer_views(params):
        for view in (w, b):
            assert not view.flags.writeable
            assert np.shares_memory(view, params)
            assert np.array_equal(view.ravel(), params[offset:offset + view.size])
            offset += view.size
    assert offset == N_PARAMS
    with pytest.raises(ValueError):
        layer_views(params)[-1][1][0] = 1.0


def test_forward_matches_manual_chain():
    params = init_params(np.random.default_rng(1))
    rng = np.random.default_rng(2)
    x = rng.standard_normal((7, LAYER_SIZES[0]))

    h = x
    for w, b in layer_views(params)[:-1]:
        h = np.maximum(h @ w + b, 0.0)
    w, b = layer_views(params)[-1]
    z = (h @ w + b)[:, 0]
    expected = np.clip(1.0 / (1.0 + np.exp(-z)), OUTPUT_CLIP, 1.0 - OUTPUT_CLIP)

    got = forward(params, x)
    assert np.max(np.abs(got - expected)) <= 1e-12
    assert forward(params, x[0]) == got[0]


def test_forward_output_strictly_inside_unit_interval():
    params = init_params(np.random.default_rng(5))
    x = 1e6 * np.ones((1, LAYER_SIZES[0]))
    p = forward(params, x)[0]
    assert OUTPUT_CLIP <= p <= 1.0 - OUTPUT_CLIP


def test_forward_rejects_bad_shapes_and_nonfinite():
    params = init_params(np.random.default_rng(6))
    with pytest.raises(ValueError):
        forward(params, np.zeros(LAYER_SIZES[0] - 1))
    # forward takes one row or an (m, 50) matrix of them, every value finite
    for shape in ((3, LAYER_SIZES[0] - 1), (2, 1, LAYER_SIZES[0]), ()):
        with pytest.raises(ValueError, match="expected shape"):
            forward(params, np.zeros(shape))
    bad = np.zeros((3, LAYER_SIZES[0]))
    bad[2, 7] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        forward(params, bad)


# row counts of the (m, 50) forward calls checked against one call per row
LONE_ROW_COUNTS = (1, 2, 16, 17, 300)


def check_forward_of_rows_matches_one_call_per_row():
    """An (m, 50) forward call against one (50,) call per row, and a frozen one-row reference.

    Parameter sets of several scales put outputs near 0.5, out in the
    sigmoid's tails and past OUTPUT_CLIP.
    """
    rng = np.random.default_rng(72)
    for trial in range(60):
        params = (0.05, 0.5, 3.0)[trial % 3] * rng.standard_normal(N_PARAMS)
        for m in LONE_ROW_COUNTS:
            x = rng.standard_normal((m, LAYER_SIZES[0]))
            got = forward(params, x)
            assert got.shape == (m,)
            one_by_one = [forward(params, row) for row in x]
            assert all(type(p) is float for p in one_by_one)
            assert same_bytes(got, one_by_one), (trial, m)
            assert same_bytes(got, [ref_forward_batch(layer_views(params), row[None, :])[0]
                                    for row in x]), (trial, m)


def test_forward_of_rows_matches_one_call_per_row():
    check_forward_of_rows_matches_one_call_per_row()


def test_forward_of_rows_matches_one_call_per_row_at_4_blas_threads():
    at_blas_threads(4, "import test_mlp; test_mlp.check_forward_of_rows_matches_one_call_per_row()")


def test_gradient_matches_finite_differences():
    h = 1e-4
    rng = np.random.default_rng(7)
    for _ in range(5):
        params = init_params(rng)
        x = rng.standard_normal((6, LAYER_SIZES[0]))
        y = rng.integers(0, 2, size=6)
        _, grad = loss_and_gradient(params, x, y)
        grad = layer_views(grad)
        for layer in range(len(layer_views(params))):
            gw, gb = grad[layer]
            w, b = layer_views(params)[layer]
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
    p = np.clip(forward(params, x), LOSS_CLAMP, 1.0 - LOSS_CLAMP)
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
    assert LEARNING_RATE == lr
    for step in range(1, 101):
        g = float(rng.standard_normal())
        adam_step(theta, np.array([g]), m, v, step, np.empty(1), np.empty(1))
        ref_m = BETA1 * ref_m + (1 - BETA1) * g
        ref_v = BETA2 * ref_v + (1 - BETA2) * g * g
        m_hat = ref_m / (1 - BETA1 ** step)
        v_hat = ref_v / (1 - BETA2 ** step)
        ref_theta = ref_theta - lr * m_hat / (math.sqrt(v_hat) + EPS_HAT)
        assert abs(theta[0] - ref_theta) < 1e-10


def test_adam_step_advances_with_the_step_count():
    start = init_params(np.random.default_rng(12))
    theta, m, v = start.copy(), np.zeros(N_PARAMS), np.zeros(N_PARAMS)
    scratch, denom = np.empty(N_PARAMS), np.empty(N_PARAMS)
    adam_step(theta, np.ones(N_PARAMS), m, v, 1, scratch, denom)
    assert not np.array_equal(theta, start)
    # the bias correction depends on the step count the caller advances
    at_one, at_two = theta.copy(), theta.copy()
    adam_step(at_one, np.ones(N_PARAMS), m.copy(), v.copy(), 1, scratch, denom)
    adam_step(at_two, np.ones(N_PARAMS), m.copy(), v.copy(), 2, scratch, denom)
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
    for (wa, ba), (wb, bb) in zip(layer_views(a), layer_views(b)):
        assert np.array_equal(wa, wb) and np.array_equal(ba, bb)


def test_train_local_rejects_empty_dataset():
    # the window refuses an empty client before train_local sees it
    empty = client_dataset(matrix_phrase_table(np.zeros((1, LAYER_SIZES[0]))), [], [])
    with pytest.raises(ValueError, match="empty client"):
        Window((empty,))


def test_train_local_refuses_a_non_finite_update():
    # a NaN table row gives a NaN gradient; the returned parameters refuse it
    x = np.ones((4, LAYER_SIZES[0]))
    x[2, 7] = np.nan
    dataset = client_dataset(matrix_phrase_table(x), np.arange(4), [1, 0, 1, 0])
    params = init_params(np.random.default_rng(16))
    with pytest.raises(ValueError, match="non-finite"):
        train_one(params, dataset, TrainConfig(local_epochs=1), np.random.default_rng(16))


def test_train_local_returns_a_read_only_vector_of_its_own():
    # the trained vector is a row of train_local's frozen block, so nothing else may hold it
    dataset = separable_dataset(18)
    params = init_params(np.random.default_rng(18))
    trained = train_one(params, dataset, TrainConfig(local_epochs=1),
                          np.random.default_rng(18))
    assert trained.dtype == np.float64 and trained.shape == (N_PARAMS,)
    assert not trained.flags.writeable
    assert all(not w.flags.writeable and not b.flags.writeable for w, b in layer_views(trained))
    for held in (params, dataset.rows, dataset.labels, dataset.phrases.matrix):
        assert not np.shares_memory(trained, held)


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
    assert loaded.dtype == np.float64 and loaded.shape == (N_PARAMS,)
    assert not loaded.flags.writeable
    assert loaded.tobytes() == params.tobytes()


def saved_payload(path):
    """A checkpoint's arrays by name, after saving a fresh parameter set at path."""
    save_checkpoint(init_params(np.random.default_rng(19)), path)
    with np.load(path) as data:
        return dict(data)


def test_checkpoint_rejects_nonfinite_weights(tmp_path):
    path = str(tmp_path / "model.npz")
    for bad in (np.nan, np.inf):
        payload = saved_payload(path)
        payload["w1"][0, 0] = bad
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="non-finite parameters"):
            load_checkpoint(path)


@pytest.mark.parametrize("case, match", [
    ("short w0", "w0: expected shape"),
    ("transposed w0", "w0: expected shape"),
    ("no w3", "lacks w3"),
    ("no layer_sizes", "lacks layer_sizes"),
    ("other layer sizes", "layer sizes"),
    ("complex w1", "w1 is not a real-valued array"),
    ("empty file", "not an .npz archive"),
    ("plain .npy file", "not an .npz archive"),
    ("truncated archive", "not an .npz archive"),
])
def test_checkpoint_rejects_a_bad_layout(tmp_path, case, match):
    path = str(tmp_path / "model.npz")
    payload = saved_payload(path)
    if case == "short w0":
        payload["w0"] = payload["w0"][:-1]
    elif case == "transposed w0":
        payload["w0"] = payload["w0"].T
    elif case == "other layer sizes":
        payload["layer_sizes"] = payload["layer_sizes"][::-1]
    elif case == "complex w1":
        payload["w1"] = payload["w1"].astype(complex)
    elif case.startswith("no "):
        del payload[case.removeprefix("no ")]
    if case == "empty file":
        open(path, "wb").close()
    elif case == "plain .npy file":
        with open(path, "wb") as f:
            np.save(f, payload["w0"])
    elif case == "truncated archive":
        with open(path, "rb") as f:
            head = f.read()[:1000]
        with open(path, "wb") as f:
            f.write(head)
    else:
        np.savez(path, **payload)
    with pytest.raises(ValueError, match=match):
        load_checkpoint(path)


def test_checkpoint_missing_file():
    with pytest.raises(FileNotFoundError):
        load_checkpoint("/nonexistent/model.npz")


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(local_epochs=0)


@pytest.mark.parametrize("epochs", [2.5, 3.0, float("nan"), True, "3", np.float64(3.0),
                                    np.True_])
def test_train_config_refuses_a_non_integer_epoch_count(epochs):
    with pytest.raises(ValueError, match="local_epochs must be an integer"):
        TrainConfig(local_epochs=epochs)


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
    dataset = client_dataset(matrix_phrase_table(x), np.arange(n), labels)
    params = 3.0 * init_params(np.random.default_rng(21))

    # the scaled start covers every branch of the sigmoid and the clamp
    h = x
    for w, b in layer_views(params)[:-1]:
        h = np.maximum(h @ w + b, 0.0)
    logits = (h @ layer_views(params)[-1][0] + layer_views(params)[-1][1])[:, 0]
    p = ref_sigmoid(logits)
    assert (logits < 0).any() and (logits > 0).any() and (logits == 0).any()
    outside = (p <= LOSS_CLAMP) | (p >= 1.0 - LOSS_CLAMP)
    assert outside.any() and not outside.all()

    y = labels.astype(np.float64)
    config = TrainConfig(local_epochs=3)
    trained = train_one(params, dataset, config, np.random.default_rng(22))
    expected = ref_train_local(params, x, y, config, np.random.default_rng(22))
    assert same_bytes(trained, expected)
    for start in (params, trained):
        assert same_bytes(score_one(start, dataset), ref_mean_loss(start, x, y))


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
    dataset = client_dataset(matrix_phrase_table(x), np.arange(n), labels)
    params = init_params(np.random.default_rng(24))
    config = TrainConfig(local_epochs=134)  # 402 steps
    trained = train_one(params, dataset, config, np.random.default_rng(25))
    expected = ref_train_local(params, x, labels.astype(np.float64), config,
                               np.random.default_rng(25))
    assert same_bytes(trained, expected)


def ragged_clients(sizes, seed, table_rows=300):
    """Clients of the given sizes, drawn with repeats from one shared random table."""
    rng = np.random.default_rng(seed)
    table = matrix_phrase_table(rng.standard_normal((table_rows, LAYER_SIZES[0])))
    return [client_dataset(table, rng.integers(table_rows, size=n), rng.integers(0, 2, size=n))
            for n in sizes]


def check_window_matches_frozen_reference(params, clients, config, seed):
    """Train the clients' window in lockstep and each client alone on the frozen reference.

    Compares bytes. `params` is every client's start, or a list of one
    start per client. Returns the block's rows in input order.
    """
    starts = params if isinstance(params, list) else [params] * len(clients)
    streams = [np.random.default_rng([seed, i]) for i in range(len(clients))]
    window = Window(clients)
    block = train_local(starts, window, config, streams)
    assert block.shape == (len(clients), N_PARAMS) and not block.flags.writeable
    trained = by_client(block, window.order)
    for i, (client, start, update) in enumerate(zip(clients, starts, trained)):
        x = client.phrases.matrix[client.rows]
        expected = ref_train_local(start, x, client.labels, config,
                                   np.random.default_rng([seed, i]))
        assert same_bytes(update, expected), (i, len(client))
    return trained


# around one and two batches, and one of ten, in no order: 13 clients fill one chunk and
# part of a second; over 5 epochs a 65-row client draws its shuffles as 3 + 2 epochs, and
# the 300-row client one epoch at a time
RAGGED_SIZES = (65, 1, 33, 32, 2, 64, 31, 300, 33, 1, 65, 2, 32)


@pytest.mark.parametrize("epochs", [1, 2, 3, 5])
def test_ragged_window_matches_frozen_reference_byte_for_byte(epochs):
    assert len(RAGGED_SIZES) > mlp.LOCKSTEP_CLIENTS
    clients = ragged_clients(RAGGED_SIZES, 50 + epochs)
    start = init_params(np.random.default_rng(51))
    # 3x the start also puts outputs outside the LOSS_CLAMP band
    for params in (start, 3.0 * start):
        trained = check_window_matches_frozen_reference(
            params, clients, TrainConfig(local_epochs=epochs), 52)
    for i, update in enumerate(trained):
        assert not update.flags.writeable
        assert not any(np.shares_memory(update, other) for other in trained[i + 1:])


def test_clients_of_one_chunk_train_from_their_own_starts():
    # as the clients of several runs do: each start is copied into its own row of the chunk
    clients = ragged_clients(RAGGED_SIZES, 71)
    starts = [init_params(np.random.default_rng([72, i % 4])) for i in range(len(RAGGED_SIZES))]
    trained = check_window_matches_frozen_reference(starts, clients,
                                                    TrainConfig(local_epochs=2), 73)
    for start in starts:
        assert not start.flags.writeable
        assert not any(np.shares_memory(update, start) for update in trained)


def test_a_window_lays_its_clients_out_by_size_once():
    # largest first, ties in input order; each client's rows and labels in one read-only
    # array each, at its offsets, and len() the examples of all clients
    clients = ragged_clients(RAGGED_SIZES, 90)
    window = Window(clients)
    assert len(window) == sum(RAGGED_SIZES) == window.offsets[-1]
    assert list(window.order) == sorted(range(len(clients)), key=lambda i: -RAGGED_SIZES[i])
    assert list(window.sizes) == sorted(RAGGED_SIZES, reverse=True)
    assert not window.rows.flags.writeable and not window.labels.flags.writeable
    assert window.table is clients[0].phrases.matrix
    for p, i in enumerate(window.order):
        lo, hi = window.offsets[p], window.offsets[p + 1]
        assert np.array_equal(window.rows[lo:hi], clients[i].rows)
        assert np.array_equal(window.labels[lo:hi], clients[i].labels)
    # a window of one client keeps that client's own arrays
    [client] = ragged_clients((600,), 91)
    alone = Window([client])
    assert len(alone) == 600 and alone.rows is client.rows and alone.labels is client.labels


def test_the_block_check_refuses_a_non_finite_output_row():
    # one client of three reads a NaN table row: its output row alone is non-finite, and
    # train_local refuses the block
    x = np.random.default_rng(92).standard_normal((6, LAYER_SIZES[0]))
    x[5, 3] = np.nan
    table = matrix_phrase_table(x)
    clients = [client_dataset(table, rows, np.arange(len(rows)) % 2)
               for rows in ([0, 1, 2, 3], [1, 5, 2], [4, 3])]
    params = init_params(np.random.default_rng(93))
    streams = [np.random.default_rng([94, i]) for i in range(3)]
    with pytest.raises(ValueError, match="non-finite"):
        train_local([params] * 3, Window(clients), TrainConfig(local_epochs=1), streams)
    block = train_local([params] * 2, Window([clients[0], clients[2]]),
                        TrainConfig(local_epochs=1), streams[:2])
    assert np.isfinite(block).all()


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


@pytest.mark.parametrize("k", [1, 2, 32])
@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 255, 256, 257])
def test_stacked_draws_are_each_clients_successive_permutations(k, n):
    # a size group of k clients draws its shuffles together, as many epochs a draw as
    # train_local asks for; rows k * n end to end, each its own index, show the orders
    rows = np.arange(k * n)
    labels = (rows % 3 == 0).astype(np.float64)
    for epochs in range(1, 6):
        streams = [np.random.default_rng([k, n, epochs, c]) for c in range(k)]
        refs = [np.random.default_rng([k, n, epochs, c]) for c in range(k)]
        left = epochs
        while left:
            drawn = mlp._draw_shuffles(rows, labels, streams, left)
            assert 1 <= len(drawn) <= left
            left -= len(drawn)
            for shuffled, columns in reversed(drawn):  # the next epoch last
                assert shuffled.shape == ((n,) if k == 1 else (k, n))
                assert columns.shape == shuffled.shape + (1,)
                for c, ref in enumerate(refs):
                    expected = c * n + ref.permutation(n)
                    assert np.array_equal(shuffled.reshape(k, n)[c], expected)
                    assert np.array_equal(columns.reshape(k, n)[c], labels[expected])
        assert [s.bit_generator.state for s in streams] == [r.bit_generator.state for r in refs]


def test_a_size_group_takes_one_gathered_piece_a_step(monkeypatch):
    # one chunk: 40 x 2, a lone 33, 20 x 3 and a lone 7, over 2 epochs. 40 and 33
    # take batches of 32 then 8 and 1; 20 and 7 one batch an epoch and so finish after 2
    # steps. Runs of one batch length take one gather, with a piece per size group
    clients = ragged_clients((20, 40, 7, 33, 20, 40, 20), 80)
    gathers = []
    real = mlp._gather

    def spy(table, pieces):
        gathers.append([rows.shape for rows, _ in pieces])
        return real(table, pieces)

    monkeypatch.setattr(mlp, "_gather", spy)
    check_window_matches_frozen_reference(init_params(np.random.default_rng(81)), clients,
                                          TrainConfig(local_epochs=2), 82)
    first, second = [[(2, 32), (32,)], [(3, 20)], [(7,)]], [[(2, 8)], [(1,)]]
    assert gathers == [*first, *second, [(3, 20)], [(7,)], first[0], *second]


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
    clients = ragged_clients(sizes, 62)
    params = init_params(np.random.default_rng(63))
    config = TrainConfig(local_epochs=5)
    streams = [DrawRecorder(np.random.default_rng([64, i])) for i in range(len(sizes))]
    window = Window(clients)
    trained = by_client(train_local([params] * len(sizes), window, config, streams), window.order)
    assert [stream.draws for stream in streams] == [[3, 2], [1] * 5, [5], [1] * 5]
    for i, (client, update) in enumerate(zip(clients, trained)):
        expected = ref_train_local(params, client.phrases.matrix[client.rows],
                                   client.labels, config, np.random.default_rng([64, i]))
        assert same_bytes(update, expected), len(client)


def test_clients_leave_the_lockstep_prefix_as_they_finish(monkeypatch):
    # 3, 2 and 1 steps an epoch: over 2 epochs the clients stop after steps 6, 4 and 2
    clients = ragged_clients((10, 70, 40), 54)
    steps = []
    real = mlp.adam_step

    def spy(theta, *args):
        # a lone client steps on its 1-D row
        steps.append((len(theta) if theta.ndim == 2 else 1, args[3]))
        return real(theta, *args)

    monkeypatch.setattr(mlp, "adam_step", spy)
    check_window_matches_frozen_reference(init_params(np.random.default_rng(55)), clients,
                                          TrainConfig(local_epochs=2), 56)
    assert steps == [(3, 1), (3, 2), (2, 3), (2, 4), (1, 5), (1, 6)]


def test_a_run_of_one_client_between_runs_of_several(monkeypatch):
    # one step an epoch each; sorted by batch size: 20, 20 | 15 | 10, 10
    clients = ragged_clients((10, 20, 15, 20, 10), 57)
    shapes = []
    real = mlp._backprop

    def spy(layers, x, y, grads):
        shapes.append(x.shape)
        return real(layers, x, y, grads)

    monkeypatch.setattr(mlp, "_backprop", spy)
    check_window_matches_frozen_reference(init_params(np.random.default_rng(58)), clients,
                                          TrainConfig(local_epochs=2), 59)
    step = [(2, 20, LAYER_SIZES[0]), (15, LAYER_SIZES[0]), (2, 10, LAYER_SIZES[0])]
    assert shapes == step * 2


# sizes around one and two batches, with a run of five ties at 33
CHUNKED_SIZES = (33, 64, 32, 65, 33, 64, 32, 65, 31, 33, 33, 33)

# the chunks of CHUNKED_SIZES at LOCKSTEP_CLIENTS = 3, by cap
CHUNKS_BY_CAP = {
    32: [[3, 7, 1, 5], [0, 4, 9, 10, 11], [2, 6, 8]],
    # the cap stops the ties at 33 after two, and the next chunk starts with the third
    4: [[3, 7, 1, 5], [0, 4, 9, 10], [11, 2, 6], [8]],
    # a cap of LOCKSTEP_CLIENTS or less cuts chunks of the cap, ties or not
    3: [[3, 7, 1], [5, 0, 4], [9, 10, 11], [2, 6, 8]],
    1: [[3], [7], [1], [5], [0], [4], [9], [10], [11], [2], [6], [8]],
}


def test_chunks_come_largest_first_with_ties_in_input_order(monkeypatch):
    # _train_chunk needs the clients still training to be a prefix of its chunk; a chunk
    # takes 3 clients, then each next client of its last one's size, up to the cap
    clients = ragged_clients(CHUNKED_SIZES, 68)
    real = mlp._train_chunk
    monkeypatch.setattr(mlp, "LOCKSTEP_CLIENTS", 3)
    for cap, expected in CHUNKS_BY_CAP.items():
        chunks = []

        def spy(theta, starts, window, chunk, rngs, epochs, workspace):
            chunks.append(list(window.order[chunk]))
            return real(theta, starts, window, chunk, rngs, epochs, workspace)

        monkeypatch.setattr(mlp, "LOCKSTEP_MAX_CLIENTS", cap)
        monkeypatch.setattr(mlp, "_train_chunk", spy)
        check_window_matches_frozen_reference(init_params(np.random.default_rng(69)), clients,
                                              TrainConfig(local_epochs=2), 70)
        assert chunks == expected, cap
        order = [i for chunk in chunks for i in chunk]
        assert all(CHUNKED_SIZES[a] > CHUNKED_SIZES[b]
                   or (CHUNKED_SIZES[a] == CHUNKED_SIZES[b] and a < b)
                   for a, b in zip(order, order[1:]))


def test_every_chunk_trains_in_one_block_with_one_workspace(monkeypatch):
    # ragged sizes in chunks of 3, the second extended over the ties at 31 (3 + 4 + 2):
    # each chunk trains in its own rows of one output block, on the first rows of the
    # same four workspace arrays
    sizes = (33, 1, 65, 32, 2, 64, 31, 31, 31)
    clients = ragged_clients(sizes, 74)
    calls = []
    real = mlp._train_chunk

    def spy(theta, starts, window, chunk, rngs, epochs, workspace):
        calls.append((theta, workspace))
        return real(theta, starts, window, chunk, rngs, epochs, workspace)

    monkeypatch.setattr(mlp, "LOCKSTEP_CLIENTS", 3)
    monkeypatch.setattr(mlp, "LOCKSTEP_MAX_CLIENTS", 32)
    monkeypatch.setattr(mlp, "_train_chunk", spy)
    trained = check_window_matches_frozen_reference(init_params(np.random.default_rng(75)),
                                                    clients, TrainConfig(local_epochs=2), 76)
    assert [len(theta) for theta, _ in calls] == [3, 4, 2]
    block, workspace = calls[0][0].base, calls[0][1]
    assert block.shape == (len(sizes), N_PARAMS)
    # four separate arrays, not views of one: grad, m and v with a row per client of
    # the largest chunk, and scratch with the rows of one adam_step block
    assert len(workspace) == 4
    assert [array.shape for array in workspace] == [(4, N_PARAMS)] * 3 + [(3, N_PARAMS)]
    assert all(array.base is None for array in workspace)
    row = 0
    for theta, used in calls:
        assert all(a is b for a, b in zip(used, workspace, strict=True))
        assert theta.base is block
        assert theta.ctypes.data == block[row].ctypes.data
        row += len(theta)
    # the block is what train_local returns: client i's result is the row of its place
    # in the sorted order
    order = sorted(range(len(sizes)), key=lambda i: sizes[i], reverse=True)
    for p, i in enumerate(order):
        assert trained[i].base is block
        assert trained[i].ctypes.data == block[p].ctypes.data
    assert not block.flags.writeable


def test_adam_steps_a_chunk_in_blocks_of_lockstep_clients_rows(monkeypatch):
    # five clients of one size share a chunk; Adam steps them in blocks of 2, 2 and a lone
    # client's 1-D rows, each block's gradient rows serving as its denom
    clients = ragged_clients((40,) * 5, 77)
    blocks = []
    real = mlp.adam_step

    def spy(theta, grad, m, v, step, scratch, denom):
        blocks.append((theta.shape, step, scratch.shape))
        assert denom is grad
        return real(theta, grad, m, v, step, scratch, denom)

    monkeypatch.setattr(mlp, "LOCKSTEP_CLIENTS", 2)
    monkeypatch.setattr(mlp, "LOCKSTEP_MAX_CLIENTS", 32)
    monkeypatch.setattr(mlp, "adam_step", spy)
    check_window_matches_frozen_reference(init_params(np.random.default_rng(78)), clients,
                                          TrainConfig(local_epochs=1), 79)
    # 40 rows: two steps an epoch
    assert blocks == [(shape, step, shape) for step in (1, 2)
                      for shape in ((2, N_PARAMS), (2, N_PARAMS), (N_PARAMS,))]


def test_window_checks_its_clients_and_train_local_its_streams():
    clients = ragged_clients((3, 4), 60)
    params = init_params(np.random.default_rng(60))
    three = Window(clients + clients[:1])
    with pytest.raises(ValueError, match="2 streams"):
        train_local([params] * 3, three, TrainConfig(), [np.random.default_rng(0)] * 2)
    with pytest.raises(ValueError, match="2 parameter sets"):
        train_local([params] * 2, three, TrainConfig(), [np.random.default_rng(0)] * 3)
    with pytest.raises(ValueError, match="share one phrase table"):
        Window(clients + [separable_dataset(60)])
    with pytest.raises(ValueError, match="at least one client"):
        Window([])


def backprop_cases():
    """(name, params, x, y) batches around BATCH_SIZE, with a dead unit and saturated outputs."""
    rng = np.random.default_rng(40)
    params = init_params(np.random.default_rng(41))
    cases = [(f"{n} rows", params, rng.standard_normal((n, LAYER_SIZES[0])),
              rng.integers(0, 2, size=n).astype(np.float64)) for n in (1, 2, 31, 32, 33)]
    # unit 5 of the first hidden layer and unit 3 of the second are 0 on every row
    dead = params.copy()
    layers = layer_views(dead)
    layers[0][1][5] = -1e3
    layers[1][1][3] = -1e3
    x = rng.standard_normal((32, LAYER_SIZES[0]))
    cases.append(("dead units", dead, x, rng.integers(0, 2, size=32).astype(np.float64)))
    # 3x the start puts some outputs outside the LOSS_CLAMP band and leaves others inside
    cases.append(("saturated", 3.0 * params, 3.0 * x,
                  rng.integers(0, 2, size=32).astype(np.float64)))
    return cases


def test_backprop_matches_frozen_reference_byte_for_byte():
    for name, params, x, y in backprop_cases():
        loss, grad = loss_and_gradient(params, x, y)
        expected = np.empty(N_PARAMS)
        ref_loss = ref_backprop(layer_views(params), x, y, layer_views(expected))
        assert same_bytes(grad, expected), name
        assert same_bytes(loss, ref_loss), name
        if name == "dead units":
            gw0, gb0 = layer_views(grad)[0]
            assert not gw0[:, 5].any() and gb0[5] == 0.0
        if name == "saturated":
            p = forward(params, x)
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
    params = np.zeros(N_PARAMS)
    for w, _ in layer_views(params):
        if w.shape[1] > 1:
            w[0, 0] = w[1, 1] = 1.0
        else:
            w[0, 0], w[1, 0] = 1.0, -1.0
    x = np.zeros((7, LAYER_SIZES[0]))
    x[:, :2] = [[800.0, 0.0], [0.0, 800.0], [40.0, 0.0], [0.0, 40.0],
                [3.3, 0.0], [0.0, 3.3], [0.0, 0.0]]
    assert same_bytes(forward(params, x), [ref_forward_batch(layer_views(params), row[None, :])[0]
                                           for row in x])


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
    return client_dataset(table, rng.integers(table_rows, size=n), rng.integers(0, 2, size=n))


# around each block boundary, and every 1-11-row tail that joins the block before it
REFERENCE_SIZES = sorted({1, 7, 1023, 1024, 1025, 2047, 2048, 2049, 3071, 3072, 13231, 59429,
                          *(SCORE_ROWS * k + r for k in range(1, 13) for r in range(1, 12))})


def check_blocked_scoring_matches_whole_matrix_reference():
    """mean_loss against one whole-matrix forward of every size."""
    rng = np.random.default_rng(23)
    start = init_params(np.random.default_rng(24))
    for params in (start, 3.0 * start):
        for n in REFERENCE_SIZES:
            dataset = random_client(n, rng)
            x = dataset.phrases.matrix[dataset.rows]
            assert same_bytes(score_one(params, dataset),
                              ref_mean_loss(params, x, dataset.labels)), n


def test_blocked_scoring_matches_whole_matrix_reference_at_1_blas_thread():
    # the reference is a whole-matrix forward, whose bits are pinned at one thread only
    at_blas_threads(1, "import test_mlp; "
                       "test_mlp.check_blocked_scoring_matches_whole_matrix_reference()")


def forward_digests() -> list[str]:
    """sha256 of the mean_loss of a 59,429-row client, for inputs whose
    whole-matrix forward changes a row at 4 OpenBLAS threads on a Haswell kernel."""
    digests = []
    for seed in (31, 33, 36):
        params = init_params(np.random.default_rng(seed))
        x = np.random.default_rng(seed + 1000).standard_normal((59429, LAYER_SIZES[0]))
        client = client_dataset(matrix_phrase_table(x), np.arange(len(x)),
                                np.random.default_rng(seed + 2000).integers(0, 2, len(x)))
        loss = np.float64(score_one(params, client))
        digests.append(hashlib.sha256(loss.tobytes()).hexdigest())
    return digests


# one client of each size around the batch and block edges, more than LOCKSTEP_CLIENTS
# clients of 31 rows and three of 769: clients under 2 * SCORE_ROWS rows are scored in
# stacks of equal size, and larger ones alone
WINDOW_SIZES = (1, 2, 31, 32, 33, 255, 511, 512, 513, 769, 2) + (31,) * 16 + (769, 769)
# a tie group of 40 rows wider than both client caps, ten clients of 500 rows that the
# row cap stacks 8 at a time, a 600-row client scored alone, and pairs of 1-3 rows
CAPPED_SIZES = (40,) * 40 + (3, 600, 1, 2) + (500,) * 10 + (3, 1, 2)


def window_scoring_case(sizes):
    """Clients, one parameter set each from 1x to 3x one start, and their losses in input order.

    The losses come from one mean_loss call on the clients' window, with
    the block rows in the window's order.
    """
    clients = ragged_clients(sizes, 65)
    start = init_params(np.random.default_rng(66))
    # 3x the start also puts outputs outside the LOSS_CLAMP band
    trained = [(1.0 + 2.0 * i / (len(sizes) - 1)) * start for i in range(len(sizes))]
    window = Window(clients)
    losses = by_client(mean_loss(np.stack([trained[i] for i in window.order]), window),
                       window.order)
    return clients, trained, losses


def check_window_scoring_matches_whole_matrix_reference():
    for sizes in (WINDOW_SIZES, CAPPED_SIZES):
        clients, trained, losses = window_scoring_case(sizes)
        for client, params, loss in zip(clients, trained, losses, strict=True):
            expected = ref_mean_loss(params, client.phrases.matrix[client.rows],
                                     client.labels)
            assert same_bytes(loss, expected), len(client)


def test_window_scoring_matches_whole_matrix_reference_at_1_blas_thread():
    at_blas_threads(1, "import test_mlp; "
                       "test_mlp.check_window_scoring_matches_whole_matrix_reference()")


def scored_shapes(monkeypatch, sizes):
    """The shapes of _forward's inputs in one mean_loss call, after checking its losses
    against each client scored alone."""
    shapes = []
    real = mlp._forward

    def spy(layers, x):
        shapes.append(x.shape)
        return real(layers, x)

    monkeypatch.setattr(mlp, "_forward", spy)
    clients, trained, losses = window_scoring_case(sizes)
    monkeypatch.setattr(mlp, "_forward", real)
    for client, params, loss in zip(clients, trained, losses, strict=True):
        assert same_bytes(loss, score_one(params, client)), len(client)
    return shapes


def test_window_scoring_stacks_equal_sizes_and_matches_clients_scored_alone(monkeypatch):
    shapes = scored_shapes(monkeypatch, WINDOW_SIZES)
    stacked = sorted(shape[:2] for shape in shapes if len(shape) == 3)
    # 16 + 1 clients of 31 rows in one stack, and 2 clients of 2 rows
    assert stacked == [(2, 2), (17, 31)]
    # blocks of 256 rows, the last up to 511: 512 and 513 rows take two, 769 three
    assert sum(len(shape) == 2 for shape in shapes) == 5 + 2 + 2 + 3 * 3
    # 769 is the first size in the window's order: each of its clients alone, block by block
    assert shapes[:9] == [(256, LAYER_SIZES[0]), (256, LAYER_SIZES[0]),
                          (257, LAYER_SIZES[0])] * 3


def test_window_scoring_caps_each_stack_by_clients_and_rows(monkeypatch):
    # largest first: the 600-row client alone in two blocks; 500 rows, 8 clients a stack
    # for the 4,096 rows of LOCKSTEP_CLIENTS stacks of 2 * SCORE_ROWS; 40 rows, up to
    # LOCKSTEP_MAX_CLIENTS a stack; then the pairs of 3, 2 and 1 rows
    shapes = scored_shapes(monkeypatch, CAPPED_SIZES)
    assert mlp.LOCKSTEP_CLIENTS * 2 * SCORE_ROWS // 500 == 8 < mlp.LOCKSTEP_MAX_CLIENTS == 32
    assert shapes == [(256, LAYER_SIZES[0]), (344, LAYER_SIZES[0]),
                      (8, 500, LAYER_SIZES[0]), (2, 500, LAYER_SIZES[0]),
                      (32, 40, LAYER_SIZES[0]), (8, 40, LAYER_SIZES[0]),
                      (2, 3, LAYER_SIZES[0]), (2, 2, LAYER_SIZES[0]), (2, 1, LAYER_SIZES[0])]


def test_mean_loss_checks_its_block():
    clients = ragged_clients((3, 4), 67)
    params = init_params(np.random.default_rng(67))
    with pytest.raises(ValueError, match="1 parameter sets for 2 clients"):
        mean_loss(params[None], Window(clients))
    empty = client_dataset(clients[0].phrases, [], [])
    with pytest.raises(ValueError, match="empty client"):
        Window(clients + [empty])


def test_scoring_bits_do_not_depend_on_blas_threads():
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
