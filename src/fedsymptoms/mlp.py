"""Binary MLP classifier (50, 32, 16, 8, 1) built on plain numpy.

Three ReLU hidden layers feed one sigmoid output neuron. Training is
binary cross-entropy under Adam. All 2,305 parameters live in one flat
float64 vector; each layer's weights and biases are views into it, built
once per parameter set. A parameter set is validated once, when it is
built, and is read-only from then on. train_local updates working
buffers that belong to that one call and returns a fresh read-only
snapshot, so concurrent training of disjoint clients needs no locking.
A client's examples are row indices into the run's shared phrase table:
each training step gathers its own minibatch from that table, and
scoring (mean_loss, forward_batch) runs in blocks of SCORE_ROWS rows, so
the memory a call holds is bounded by the batch and block size, not by
the client size. A training step computes the gradient only; the loss
lives in mean_loss (forward only) and loss_and_gradient. Every client
trains with the same Adam LEARNING_RATE and minibatches of BATCH_SIZE
rows; only the number of local epochs is set per run (TrainConfig).

Every scored row comes from one fixed partition into blocks of SCORE_ROWS
to 2 * SCORE_ROWS - 1 rows, the short tail merged into the block before
it. On OpenBLAS such blocks give each row the same bits as a one-thread
whole-matrix forward, at 1, 2 and 4 threads alike. A tail block of a few
rows does not, because BLAS takes other kernels for it, and neither does
a threaded whole-matrix forward, which splits the rows between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .sampling import ClientDataset

LAYER_SIZES = (50, 32, 16, 8, 1)
N_PARAMS = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(LAYER_SIZES, LAYER_SIZES[1:]))

LEARNING_RATE = 0.001
BATCH_SIZE = 32
BETA1 = 0.9
BETA2 = 0.999
EPS_HAT = 1e-8

# p is clamped here inside the loss so log never sees 0; the clamp's
# derivative (zero outside the band) is honored by the backward pass.
LOSS_CLAMP = 1e-7
# forward output is kept strictly inside (0,1) even when sigmoid underflows
OUTPUT_CLIP = 1e-12

# rows per scoring block; a client under 2 * SCORE_ROWS rows is one block
SCORE_ROWS = 256


def layer_views(flat: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(weight, bias) views of each layer; layer by layer, weights row-major then biases."""
    views = []
    offset = 0
    for fan_in, fan_out in zip(LAYER_SIZES, LAYER_SIZES[1:]):
        w = flat[offset:offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        views.append((w, flat[offset:offset + fan_out]))
        offset += fan_out
    return tuple(views)


@dataclass(frozen=True)
class MlpParameters:
    """All weights and biases in one read-only, finite vector of N_PARAMS."""

    flat: np.ndarray

    def __post_init__(self):
        flat = np.array(self.flat, dtype=np.float64)
        if flat.shape != (N_PARAMS,):
            raise ValueError(f"expected shape ({N_PARAMS},), got {flat.shape}")
        if not np.isfinite(flat).all():
            raise ValueError("non-finite parameters")
        flat.flags.writeable = False
        object.__setattr__(self, "flat", flat)

    @classmethod
    def from_layers(cls, layers) -> "MlpParameters":
        """Pack (weight, bias) pairs, checking each array's shape."""
        if len(layers) != len(LAYER_SIZES) - 1:
            raise ValueError(f"expected {len(LAYER_SIZES) - 1} layers, got {len(layers)}")
        parts = []
        for i, (w, b) in enumerate(layers):
            fan_in, fan_out = LAYER_SIZES[i], LAYER_SIZES[i + 1]
            for arr, shape, what in ((w, (fan_in, fan_out), "weights"),
                                     (b, (fan_out,), "biases")):
                arr = np.asarray(arr, dtype=np.float64)
                if arr.shape != shape:
                    raise ValueError(f"layer {i} {what}: expected shape {shape}, "
                                     f"got {arr.shape}")
                parts.append(arr.ravel())
        return cls(np.concatenate(parts))

    @cached_property
    def layers(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Read-only (weight, bias) views of each layer, built once per parameter set."""
        return layer_views(self.flat)


@dataclass(frozen=True)
class TrainConfig:
    local_epochs: int = 5
    # not settable; perfbench/tracer.py counts steps from config.batch_size
    batch_size: ClassVar[int] = BATCH_SIZE

    def __post_init__(self):
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be at least 1")


def init_params(rng: np.random.Generator) -> MlpParameters:
    """Glorot-uniform weights, zero biases."""
    layers = []
    for fan_in, fan_out in zip(LAYER_SIZES, LAYER_SIZES[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        layers.append((w, np.zeros(fan_out)))
    return MlpParameters.from_layers(layers)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows; each branch is the textbook form for its side of 0
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def _forward(layers, x: np.ndarray, acts: list | None = None) -> np.ndarray:
    """The unclipped output probabilities; each layer's input is appended to `acts` if given.

    Without `acts` only the current layer's input and output are alive, so a
    large batch never holds all its activations at once.
    """
    # np.dot runs the same BLAS kernels as @, with less dispatch overhead
    for w, b in layers[:-1]:
        if acts is not None:
            acts.append(x)
        # in place: the same bits as maximum(dot + b, 0) with one array per layer
        h = np.dot(x, w)
        h += b
        x = np.maximum(h, 0.0, out=h)
    if acts is not None:
        acts.append(x)
    w, b = layers[-1]
    z = np.dot(x, w)
    z += b
    return _sigmoid(z.ravel())


def _row_bce(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Binary cross-entropy of each row, with p clamped into the LOSS_CLAMP band."""
    p = np.clip(p, LOSS_CLAMP, 1.0 - LOSS_CLAMP)
    return -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))


def _blocked_forward(layers, x: np.ndarray, rows: np.ndarray | None = None):
    """Yield (slice, unclipped probabilities) for each scoring block of x, or of x[rows], in order.

    Only one block's gather and activations are alive at a time.
    """
    n = len(x) if rows is None else len(rows)
    count = max(1, n // SCORE_ROWS)
    for i in range(count):
        block = slice(i * SCORE_ROWS, n if i == count - 1 else (i + 1) * SCORE_ROWS)
        yield block, _forward(layers, x[block] if rows is None else x[rows[block]])


def forward_batch(params: MlpParameters, x: np.ndarray) -> np.ndarray:
    """Probabilities for a (n, 50) batch, each strictly inside (0, 1)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != LAYER_SIZES[0]:
        raise ValueError(f"expected shape (n, {LAYER_SIZES[0]}), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite input components")
    p = np.empty(len(x))
    for block, q in _blocked_forward(params.layers, x):
        p[block] = q
    return np.clip(p, OUTPUT_CLIP, 1.0 - OUTPUT_CLIP, out=p)


def forward(params: MlpParameters, x) -> float:
    """Probability for a single length-50 phrase vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (LAYER_SIZES[0],):
        raise ValueError(f"expected shape ({LAYER_SIZES[0]},), got {x.shape}")
    return float(forward_batch(params, x[None, :])[0])


def _backprop(layers, x: np.ndarray, y: np.ndarray, grads) -> np.ndarray:
    """Write a batch's mean binary cross-entropy gradient into `grads`; no loss.

    `layers` and `grads` are (weight, bias) views shaped like
    MlpParameters.layers. Returns the outputs unclipped: OUTPUT_CLIP only moves
    outputs outside the LOSS_CLAMP band, whose rows get zero gradient anyway.
    """
    acts: list[np.ndarray] = []
    p = _forward(layers, x, acts)
    # d(loss)/d(z_out); zero where the clamp flattened the loss
    active = (p > LOSS_CLAMP) & (p < 1.0 - LOSS_CLAMP)
    dz = (np.where(active, p - y, 0.0) / x.shape[0])[:, None]
    for i in range(len(layers) - 1, -1, -1):
        gw, gb = grads[i]
        np.dot(acts[i].T, dz, out=gw)
        np.add.reduce(dz, axis=0, out=gb)
        if i:
            # acts[i] > 0 exactly where the pre-activation is > 0
            dz = np.dot(dz, layers[i][0].T) * (acts[i] > 0.0)
    return p


def loss_and_gradient(params: MlpParameters, x, y) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy over an (n, 50) batch and its exact gradient.

    `y` holds the 0/1 labels. The gradient is a flat vector laid out
    like MlpParameters.flat.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    grad = np.empty(N_PARAMS)
    p = _backprop(params.layers, x, y, layer_views(grad))
    return float(np.mean(_row_bce(p, y))), grad


def adam_update(theta: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
                step: int, learning_rate: float) -> None:
    """One bias-corrected Adam update of theta, m and v, in place.

    `step` is the 1-based count including this update. Two scratch vectors
    hold the temporaries, each computed in the textbook evaluation order.
    """
    m *= BETA1
    scratch = (1.0 - BETA1) * grad
    m += scratch
    v *= BETA2
    np.multiply(1.0 - BETA2, grad, out=scratch)
    scratch *= grad
    v += scratch
    # theta -= (learning_rate * m_hat) / (sqrt(v_hat) + EPS_HAT)
    np.divide(m, 1.0 - BETA1 ** step, out=scratch)
    scratch *= learning_rate
    denom = v / (1.0 - BETA2 ** step)
    np.sqrt(denom, out=denom)
    denom += EPS_HAT
    theta -= np.divide(scratch, denom, out=scratch)


def adam_step(theta: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
              step: int, learning_rate: float) -> None:
    """Apply one Adam step to the flat parameter vector, refusing a non-finite gradient."""
    if not np.isfinite(grad).all():
        raise ValueError("non-finite gradient")
    adam_update(theta, grad, m, v, step, learning_rate)


def train_local(params: MlpParameters, dataset: ClientDataset, config: TrainConfig,
                rng: np.random.Generator) -> MlpParameters:
    """Run local_epochs of minibatch Adam over the client's examples.

    Each epoch reshuffles the client's row indices and labels with the
    caller's stream, and each step gathers its minibatch straight from
    the shared phrase table; the last short batch is trained on. The call
    trains a private copy of params.flat with a fresh optimizer state.
    """
    if len(dataset) == 0:
        raise ValueError("empty client")
    table, rows, y = dataset.phrases.matrix, dataset.rows, dataset.labels
    n = len(rows)
    theta = params.flat.copy()
    grad, m, v = np.empty(N_PARAMS), np.zeros(N_PARAMS), np.zeros(N_PARAMS)
    layers, grads = layer_views(theta), layer_views(grad)
    step = 0
    for _ in range(config.local_epochs):
        order = rng.permutation(n)
        rs, ys = rows[order], y[order]
        for start in range(0, n, BATCH_SIZE):
            stop = start + BATCH_SIZE
            # take(axis=0) gathers the same rows as table[...] with less dispatch overhead
            _backprop(layers, table.take(rs[start:stop], axis=0), ys[start:stop], grads)
            step += 1
            adam_step(theta, grad, m, v, step, LEARNING_RATE)
    return MlpParameters(theta)


def mean_loss(params: MlpParameters, dataset: ClientDataset) -> float:
    """Mean binary cross-entropy of the current params on a dataset, scored block by block.

    Each block's per-row losses go into one array, so the mean sums them
    in the same order as a whole-client forward would.
    """
    if len(dataset) == 0:
        raise ValueError("empty client")
    y = dataset.labels
    loss = np.empty(len(y))
    # fresh views, not the cached params.layers: each local update is scored
    # once, and a cache would hold its views until FedAvg merges the round
    for block, p in _blocked_forward(layer_views(params.flat), dataset.phrases.matrix,
                                     dataset.rows):
        loss[block] = _row_bce(p, y[block])
    return float(np.mean(loss))


def save_checkpoint(params: MlpParameters, path: str) -> None:
    """Write layer arrays to an .npz file that round-trips bit-exactly."""
    payload = {"layer_sizes": np.array(LAYER_SIZES, dtype=np.int64)}
    for i, (w, b) in enumerate(params.layers):
        payload[f"w{i}"] = w
        payload[f"b{i}"] = b
    np.savez(path, **payload)


def load_checkpoint(path: str) -> MlpParameters:
    with np.load(path) as data:
        sizes = tuple(int(s) for s in data["layer_sizes"])
        if sizes != LAYER_SIZES:
            raise ValueError(f"checkpoint layer sizes {sizes} do not match {LAYER_SIZES}")
        layers = tuple((data[f"w{i}"], data[f"b{i}"])
                       for i in range(len(LAYER_SIZES) - 1))
    return MlpParameters.from_layers(layers)
