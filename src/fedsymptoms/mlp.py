"""Binary MLP classifier (50, 32, 16, 8, 1) built on plain numpy.

Three ReLU hidden layers feed one sigmoid output neuron. Training is
binary cross-entropy under Adam. All 2,305 parameters live in one flat
float64 vector; each layer's weights and biases are views into it, built
once per parameter set. A parameter set is validated once, when it is
built, and is read-only from then on. init_params, train_local and
fedavg_aggregate hand their fresh private vectors to
MlpParameters._adopt, which checks only that each is finite and freezes
it, with no copy; the public constructor copies and checks everything.

A client's examples are row indices into the run's shared phrase table:
each training step gathers its own minibatch from that table, and
mean_loss scores in blocks of SCORE_ROWS rows, so the memory a call
holds is bounded by the batch, block and chunk size, not by the client
size. A training step computes the gradient only; the loss lives in
mean_loss (forward only) and loss_and_gradient. Every client trains with
the same Adam LEARNING_RATE and minibatches of BATCH_SIZE rows; only the
number of local epochs is set per run (TrainConfig).

Lockstep training. train_local trains a Cohort of clients, each from
its own start and with its own shuffling stream, and returns each
client's parameters as if it had trained alone. Numpy call overhead on
small minibatches dominates a step, so the clients step together. The
cohort is sorted by size, largest first, and cut into contiguous chunks:
a chunk takes LOCKSTEP_CLIENTS clients, then each next client of the
same size as its last, up to LOCKSTEP_MAX_CLIENTS, so clients of one
size share a chunk and its stacked passes; with all sizes distinct every
chunk but the last has LOCKSTEP_CLIENTS clients. A call holds one output
block with a row per client, in sorted order, and one workspace of four
arrays: gradients and Adam moments with a row per client of the largest
chunk, and Adam scratch of at most LOCKSTEP_CLIENTS rows. Each chunk
trains in place in its k rows of the block and reuses the workspace's
first rows, so a chunk allocates nothing of that size, and each result is
a read-only row of the block. At step j the clients still training are a
prefix of the chunk, all on Adam step j + 1, so adam_step updates that
prefix in blocks of at most LOCKSTEP_CLIENTS rows, past which its cost
per element rises; each block's gradient rows, read for the last time,
serve as its denom. The prefix is split into contiguous runs of size
groups (see Shuffles) whose minibatches have the same number of rows,
and each run takes one gather, with one piece a size group, and one
forward and backward pass over a slice of the chunk's arrays.

One forward pass. _activations writes the four layers out once, for
scoring (_forward) and training (_backprop) alike; _backprop adds only
the backward pass. It is rank-generic: one client's (n, 50) batch goes
through np.dot, and a (k, n, 50) stack of k clients through np.matmul,
which runs one small BLAS product per client and so gives each client
the bits np.dot gives it alone; tests compare the bytes of ragged
cohorts with a per-client reference, and the golden runs at 1 and 4 BLAS
threads. A run of one client steps on its own 1-D parameter row through
np.dot, which has less dispatch overhead. Each ReLU's gradient is masked
by multiplying in place with np.sign of its output, and adam_step skips
its first-moment bias-correction divide once that correction is exactly
1.0; both keep every bit.

Scoring. mean_loss scores a whole cohort, each client with its own
trained parameters, in one call and along one path. Clients of one size
are scored in stacks of up to LOCKSTEP_CLIENTS, and a client of
2 * SCORE_ROWS rows or more alone, so a call holds one large client's
losses at a time. Each stack is walked block by block, one take of its
(k, block) rows and one rank-generic _forward pass a block; each
client's mean sums its row of losses in the order of its own 1-D
np.add.reduce, so it has the bits of the client scored alone. forward
scores each row as a lone vector: an (m, 50) call takes one _forward
pass over an (m, 1, 50) stack, in which np.matmul runs BLAS's
matrix-vector kernel on each row, as a (50,) call does, so each row has
the bits of its own call at any BLAS thread count.

Shuffles. The clients of one size in a chunk, next to each other in the
sorted order, form a size group, which trains the same steps and draws
its epochs' shuffles min(epochs left, max(1, SCORE_ROWS // n)) epochs at
a time into one (k, epochs, n) order array, so a draw holds at most
k * max(n, SCORE_ROWS) rows. Each client fills its own slice with one
rng.permuted call of its own stream over a row of its indices per epoch;
those rows are the orders that one rng.permutation(n) call per epoch
gives, and the stream is left in the same state. One gather of the rows
and one of the labels then serve the whole group, and each step takes
one slice of them a group, so a small client pays one draw, not one per
epoch, and no gather of its own, for the same bits. A lone client's
slices are its own 1-D rows.

Every row mean_loss scores comes from one fixed partition into blocks of
SCORE_ROWS to 2 * SCORE_ROWS - 1 rows, the short tail merged into the
block before it. On OpenBLAS such blocks give each row the same bits as
a one-thread whole-matrix forward, at 1, 2 and 4 threads alike. A tail
block of a few rows does not, because BLAS takes other kernels for it,
and neither does a threaded whole-matrix forward, which splits the rows
between threads.
"""

from __future__ import annotations

import numbers
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

# clients per lockstep chunk before ties extend it, the rows of one adam_step block, and
# the rows of a train_local call's Adam scratch; a (rows, N_PARAMS) row is 18.4 KB
LOCKSTEP_CLIENTS = 8
# clients per lockstep chunk at most, ties included; the rows of a call's gradient and
# Adam moment arrays are its largest chunk's
LOCKSTEP_MAX_CLIENTS = 32


def layer_views(flat: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(weight, bias) views of each layer; layer by layer, weights row-major then biases.

    For a (k, N_PARAMS) stack of parameter rows the views are stacked
    too: (k, fan_in, fan_out) weights and (k, fan_out) biases.
    """
    lead = flat.shape[:-1]
    views = []
    offset = 0
    for fan_in, fan_out in zip(LAYER_SIZES, LAYER_SIZES[1:]):
        w = flat[..., offset:offset + fan_in * fan_out].reshape(*lead, fan_in, fan_out)
        offset += fan_in * fan_out
        views.append((w, flat[..., offset:offset + fan_out]))
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
    def _adopt(cls, flat: np.ndarray) -> "MlpParameters":
        """Wrap a fresh float64 vector of N_PARAMS that no one else holds, without a copy.

        For init_params', train_local's and fedavg_aggregate's own results; a
        train_local result is one row of the call's output block:
        the vector is refused if non-finite, as the constructor would, and
        is made read-only in place.
        """
        if not np.isfinite(flat).all():
            raise ValueError("non-finite parameters")
        flat.flags.writeable = False
        params = object.__new__(cls)
        object.__setattr__(params, "flat", flat)
        return params

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
class Cohort:
    """The clients one train_local call trains, none empty, all rows of one phrase table.

    Its len() is its number of examples, as a ClientDataset's is. This is
    the one check of the clients; train_local and mean_loss rely on it.
    """

    clients: tuple[ClientDataset, ...]

    def __post_init__(self):
        if not all(len(client) for client in self.clients):
            raise ValueError("empty client")
        if any(client.phrases is not self.clients[0].phrases for client in self.clients):
            raise ValueError("a cohort's clients must share one phrase table")

    def __len__(self) -> int:
        return sum(len(client) for client in self.clients)


@dataclass(frozen=True)
class TrainConfig:
    local_epochs: int = 5
    # not settable; perfbench/tracer.py counts steps from config.batch_size
    batch_size: ClassVar[int] = BATCH_SIZE

    def __post_init__(self):
        # checked here: True would train one epoch, and 2.5 fail in range() after synthesis
        if isinstance(self.local_epochs, bool) or not isinstance(self.local_epochs, numbers.Integral):
            raise ValueError(f"local_epochs must be an integer, got {self.local_epochs!r}")
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be at least 1")


def init_params(rng: np.random.Generator) -> MlpParameters:
    """Glorot-uniform weights, zero biases."""
    flat = np.zeros(N_PARAMS)
    for w, _ in layer_views(flat):
        fan_in, fan_out = w.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return MlpParameters._adopt(flat)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows; each side of 0 gets its textbook numerator,
    # 1 or e, over 1 + e: the same bits as 1 / d and e / d, with one divide
    e = np.exp(-np.abs(z))
    p = np.where(z >= 0, 1.0, e)
    p /= 1.0 + e
    return p


def _activations(layers, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """The ReLU outputs h1, h2, h3 and the (..., n, 1) output logits z of a batch.

    One client's (n, 50) rows take (weight, bias) views shaped like
    MlpParameters.layers; a stack of k clients' (k, n, 50) batches takes
    (k, fan_in, fan_out) weights and (k, 1, fan_out) biases.
    """
    # np.dot runs the same BLAS kernels as @, with less dispatch overhead
    mm = np.dot if x.ndim == 2 else np.matmul
    (w0, b0), (w1, b1), (w2, b2), (w3, b3) = layers
    # in place: the same bits as maximum(dot + b, 0) with one array per layer
    h1 = mm(x, w0)
    h1 += b0
    np.maximum(h1, 0.0, out=h1)
    h2 = mm(h1, w1)
    h2 += b1
    np.maximum(h2, 0.0, out=h2)
    h3 = mm(h2, w2)
    h3 += b2
    np.maximum(h3, 0.0, out=h3)
    z = mm(h3, w3)
    z += b3
    return h1, h2, h3, z


def _forward(layers, x: np.ndarray) -> np.ndarray:
    """The unclipped output probabilities of a batch, (n,) or (k, n); see _activations."""
    return _sigmoid(_activations(layers, x)[3][..., 0])


def _row_bce(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Binary cross-entropy of each row, with p clamped into the LOSS_CLAMP band."""
    # np.clip's bits, NaN included, without its Python-level wrapper
    p = np.maximum(p, LOSS_CLAMP)
    np.minimum(p, 1.0 - LOSS_CLAMP, out=p)
    return -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))


def forward(params: MlpParameters, x) -> float | np.ndarray:
    """Probability for a length-50 phrase vector, or an (m,) array of them for (m, 50) rows.

    Each row of an (m, 50) call gets the bits of a (50,) call of its own:
    the rows go through one (m, 1, 50) pass, a lone row each, on BLAS's
    matrix-vector kernel. Values lie strictly inside (0, 1).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim > 2 or x.shape[-1:] != (LAYER_SIZES[0],):
        raise ValueError(f"expected shape ({LAYER_SIZES[0]},) or (m, {LAYER_SIZES[0]}), "
                         f"got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite input components")
    p = _forward(params.layers, x.reshape(-1, 1, LAYER_SIZES[0]))[:, 0]
    np.clip(p, OUTPUT_CLIP, 1.0 - OUTPUT_CLIP, out=p)
    return float(p[0]) if x.ndim == 1 else p


def _backprop(layers, x: np.ndarray, y: np.ndarray, grads) -> np.ndarray:
    """Write a batch's mean binary cross-entropy gradient into `grads`; no loss.

    The forward pass is _activations, as for scoring, on the same layer
    views; one client's labels come as an (n, 1) column, and a stack's as
    (k, n, 1) with (k, fan_out) gradient biases. Each client gets the bits
    of its own 2-D call. Returns the (..., n, 1) outputs unclipped:
    OUTPUT_CLIP only moves outputs outside the LOSS_CLAMP band, whose rows
    get zero gradient anyway.

    The backward pass is written out layer by layer, so a 32-row step pays
    no loop or list overhead. Each ReLU's gradient is masked by
    ``dz *= np.sign(h)`` on its output h: h >= 0, and np.sign gives
    exactly 1.0 where h > 0 and +0.0 where h is +-0.0, so every finite
    product has the bits of ``dz * (h > 0.0)``, signed zeros included,
    without casting a bool mask to float.
    """
    h1, h2, h3, z = _activations(layers, x)
    # .mT transposes the last two axes, as .T does on one client's 2-D arrays
    mm = np.dot if x.ndim == 2 else np.matmul
    _, (w1, _), (w2, _), (w3, _) = layers
    (gw0, gb0), (gw1, gb1), (gw2, gb2), (gw3, gb3) = grads
    p = _sigmoid(z)
    # d(loss)/d(z_out); zero where the clamp flattened the loss
    active = (p > LOSS_CLAMP) & (p < 1.0 - LOSS_CLAMP)
    dz = np.where(active, p - y, 0.0) / x.shape[-2]
    # h > 0 exactly where the pre-activation is > 0, and there sign(h) is 1.0
    mm(h3.mT, dz, out=gw3)
    np.add.reduce(dz, axis=-2, out=gb3)
    dz = mm(dz, w3.mT)
    dz *= np.sign(h3)
    mm(h2.mT, dz, out=gw2)
    np.add.reduce(dz, axis=-2, out=gb2)
    dz = mm(dz, w2.mT)
    dz *= np.sign(h2)
    mm(h1.mT, dz, out=gw1)
    np.add.reduce(dz, axis=-2, out=gb1)
    dz = mm(dz, w1.mT)
    dz *= np.sign(h1)
    mm(x.mT, dz, out=gw0)
    np.add.reduce(dz, axis=-2, out=gb0)
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
    p = _backprop(params.layers, x, y[:, None], layer_views(grad))
    return float(np.mean(_row_bce(p.ravel(), y))), grad


def adam_step(theta: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
              step: int, scratch: np.ndarray, denom: np.ndarray) -> None:
    """One bias-corrected Adam update of theta, m and v at LEARNING_RATE, in place.

    The arrays are one client's vectors or the rows of several clients on
    the same step. `step` is the 1-based count including this update.
    `scratch` and `denom`, shaped like theta, hold the temporaries, each
    computed in the textbook evaluation order; denom may be grad itself,
    which is read for the last time before denom is written. From step
    356 on, 1 - BETA1 ** step rounds to exactly 1.0, and the first moment
    is used as it is, with no divide by its bias correction. The gradient
    is not checked here: a non-finite element leaves a NaN in theta that no
    later step clears, and the MlpParameters that train_local returns
    refuses it.
    """
    m *= BETA1
    np.multiply(1.0 - BETA1, grad, out=scratch)
    m += scratch
    v *= BETA2
    np.multiply(1.0 - BETA2, grad, out=scratch)
    scratch *= grad
    v += scratch
    # theta -= (LEARNING_RATE * m_hat) / (sqrt(v_hat) + EPS_HAT)
    correction = 1.0 - BETA1 ** step
    if correction == 1.0:
        # m / 1.0 is m itself, so this gives the same bits without the divide
        np.multiply(m, LEARNING_RATE, out=scratch)
    else:
        np.divide(m, correction, out=scratch)
        scratch *= LEARNING_RATE
    np.divide(v, 1.0 - BETA2 ** step, out=denom)
    np.sqrt(denom, out=denom)
    denom += EPS_HAT
    theta -= np.divide(scratch, denom, out=scratch)


def train_local(params: list[MlpParameters], dataset: Cohort, config: TrainConfig,
                rngs: list[np.random.Generator]) -> list[MlpParameters]:
    """Run local_epochs of minibatch Adam over each client of the cohort, in lockstep.

    Client i starts from params[i] with a fresh optimizer state and
    shuffles its row indices and labels for each of its epochs with
    rngs[i], a small client several epochs in one draw; each step gathers
    its minibatch straight from the shared phrase table, and the last
    short batch is trained on. Clients may start from different
    parameters, as the clients of several runs in one cohort do. Returns
    each client's trained vector, frozen, in input order; a non-finite
    one is refused. The clients train in sorted chunks of LOCKSTEP_CLIENTS,
    extended over clients of the chunk's last size up to
    LOCKSTEP_MAX_CLIENTS (see the module docstring), and each result has
    the bits of a run of its own.
    """
    clients = dataset.clients
    if not len(params) == len(rngs) == len(clients):
        raise ValueError(f"{len(params)} parameter sets and {len(rngs)} streams "
                         f"for {len(clients)} clients")
    # largest first, ties in input order: then no client has more steps than one before it
    order = sorted(range(len(clients)), key=lambda i: len(clients[i]), reverse=True)
    sizes = [len(clients[i]) for i in order]
    # chunks are contiguous slices of the sorted order: LOCKSTEP_CLIENTS clients, then
    # each next client of the last one's size, up to LOCKSTEP_MAX_CLIENTS in all
    bounds = [0]
    while bounds[-1] < len(order):
        limit = min(bounds[-1] + LOCKSTEP_MAX_CLIENTS, len(order))
        end = min(bounds[-1] + LOCKSTEP_CLIENTS, limit)
        while end < limit and sizes[end] == sizes[end - 1]:
            end += 1
        bounds.append(end)
    # a row per client in sorted order, each chunk training in place in its own rows,
    # and one workspace that every chunk reuses: grad, m and v rows for the largest
    # chunk, and scratch rows for one adam_step block
    rows = max((end - start for start, end in zip(bounds, bounds[1:])), default=0)
    out = np.empty((len(clients), N_PARAMS))
    workspace = tuple(np.empty((n, N_PARAMS))
                      for n in (rows, rows, rows, min(rows, LOCKSTEP_CLIENTS)))
    trained: list[MlpParameters | None] = [None] * len(clients)
    for start, end in zip(bounds, bounds[1:]):
        chunk = order[start:end]
        _train_chunk(out[start:end], [params[i].flat for i in chunk],
                     [clients[i] for i in chunk], [rngs[i] for i in chunk],
                     config.local_epochs, workspace)
        # no one else holds a row of the block, so each is adopted without a copy
        for p, i in enumerate(chunk, start):
            trained[i] = MlpParameters._adopt(out[p])
    return trained


def _stacked_layers(theta: np.ndarray) -> tuple:
    """(weight, bias) views of (k, N_PARAMS) rows for a stacked pass: biases as (k, 1, fan_out)."""
    return tuple((w, b[:, None]) for w, b in layer_views(theta))


def _run_views(theta: np.ndarray, grad: np.ndarray, first: int, end: int) -> tuple:
    """_backprop's (layers, grads) views for the run of chunk rows [first, end).

    A run of one client gets its own 1-D rows' 2-D views; a longer run gets
    stacked views, its biases broadcasting over its rows.
    """
    if end - first == 1:
        return layer_views(theta[first]), layer_views(grad[first])
    return _stacked_layers(theta[first:end]), layer_views(grad[first:end])


def _gather(table: np.ndarray, pieces: list) -> tuple[np.ndarray, np.ndarray]:
    """The table rows and label columns of pieces of one batch length n, in one stack.

    A piece is one client's (n,) rows and (n, 1) label column, or k clients'
    (k, n) rows and (k, n, 1) columns. One piece gives its rows' (n, 50) or
    (k, n, 50) gather and its labels unchanged; several give one stack of
    all their clients, in piece order, and their columns stacked alike.
    """
    if len(pieces) == 1:
        rows, labels = pieces[0]
        # take(axis=0) gathers the same rows as table[...] with less dispatch overhead
        return table.take(rows, axis=0), labels
    n = pieces[0][0].shape[-1]
    # axis=None flattens each piece's rows, a lone client's and a group's alike; the
    # columns join as columns, a group's reshaped, which is faster than flattening each
    rows = np.concatenate([rows for rows, _ in pieces], axis=None)
    labels = np.concatenate([labels if labels.ndim == 2 else labels.reshape(-1, 1)
                             for _, labels in pieces])
    return table.take(rows, axis=0).reshape(-1, n, LAYER_SIZES[0]), labels.reshape(-1, n, 1)


def _draw_shuffles(rows: np.ndarray, labels: np.ndarray, rngs: list, epochs_left: int) -> list:
    """A size group's shuffled (rows, label columns) of its next epochs, the next epoch last.

    rows and labels hold the group's k clients' n examples each, end to
    end. One (k, epochs, n) order array takes min(epochs_left, max(1,
    SCORE_ROWS // n)) epochs, so a draw holds at most k * max(n, SCORE_ROWS)
    rows. Each client shuffles its own (epochs, n) slice, a row of its own
    indices per epoch, with one rng.permuted call of its own stream: the
    orders of, and the stream left as by, one rng.permutation(n) call per
    epoch. Then one gather of the rows and one of the labels serve them
    all. An epoch is (n,) rows and an (n, 1) column for a lone client, and
    (k, n) rows and (k, n, 1) columns for several.
    """
    k = len(rngs)
    n = len(rows) // k
    # client c's indices start at c * n; a shuffle moves values, whatever they are
    order = np.arange(k * n).reshape(k, 1, n).repeat(min(epochs_left, max(1, SCORE_ROWS // n)),
                                                     axis=1)
    for c, rng in enumerate(rngs):
        rng.permuted(order[c], axis=1, out=order[c])
    # epoch by epoch: a lone client's (epochs, n) orders, or (epochs, k, n)
    order = order[0] if k == 1 else order.swapaxes(0, 1)
    # the labels as the (n, 1) columns _backprop takes; a view of the
    # gather, which is cheaper than gathering rows of a column
    return list(zip(rows[order][::-1], labels[order][..., None][::-1]))


def _train_chunk(theta: np.ndarray, starts: list[np.ndarray], clients: list[ClientDataset],
                 rngs: list[np.random.Generator], epochs: int, workspace: tuple) -> None:
    """Train clients sorted as train_local sorts them, each from its own start vector.

    theta is their (k, N_PARAMS) rows, which the starts are copied into and
    which end as the trained parameters. workspace holds the grad, m and v
    arrays of at least k rows each, of which the chunk uses the first k
    rows and zeroes its Adam moments before step 1, and the scratch rows of
    one adam_step block. Adam steps the clients still training in blocks of
    at most LOCKSTEP_CLIENTS rows, each block's gradient rows serving as
    its denom. Clients of one size sit next to each other in the sorted
    order and train the same steps: each such size group draws its
    shuffles together (_draw_shuffles) and takes one slice of them a step.
    """
    k = len(clients)
    table = clients[0].phrases.matrix
    for row, start in zip(theta, starts):
        row[...] = start
    grad, m, v = (array[:k] for array in workspace[:3])
    scratch = workspace[3]
    m[...] = 0.0
    v[...] = 0.0
    # size group g is the clients [edges[g], edges[g + 1])
    edges = [0, *(c for c in range(1, k) if len(clients[c]) != len(clients[c - 1])), k]
    groups = []  # per group: its rows and labels end to end, and its streams
    for first, end in zip(edges, edges[1:]):
        members = clients[first:end]
        if len(members) == 1:
            groups.append((members[0].rows, members[0].labels, rngs[first:end]))
        else:
            groups.append((np.concatenate([client.rows for client in members]),
                           np.concatenate([client.labels for client in members]),
                           rngs[first:end]))
    per_epoch = [-(-len(clients[first]) // BATCH_SIZE) for first in edges[:-1]]
    last_step = [steps * epochs for steps in per_epoch]
    # run_views[first][end]: _run_views of the run of groups [first, end), once it has been met
    run_views = [[None] * (len(groups) + 1) for _ in groups]
    shuffled: list = [None] * len(groups)  # each group's rows and label columns this epoch
    drawn: list[list] = [[] for _ in groups]  # each group's later epochs, already shuffled
    leaves = 0  # the next step at which the prefix shrinks; step 0 sets it up
    for j in range(last_step[0]):
        if j == leaves:
            # the groups still training are a prefix of the chunk, and so are their clients
            live = sum(last > j for last in last_step)
            leaves = last_step[live - 1]
            training = range(live)
            active = edges[live]
            blocks = []
            for first in range(0, active, LOCKSTEP_CLIENTS):
                n = min(LOCKSTEP_CLIENTS, active - first)
                # a block of one client steps on 1-D rows, which numpy iterates faster
                part, lead = (first, 0) if n == 1 else (slice(first, first + n), slice(n))
                blocks.append((theta[part], grad[part], m[part], v[part], scratch[lead]))
        pieces = []
        for g in training:
            position = j % per_epoch[g]
            if not position:
                if not drawn[g]:
                    drawn[g] = _draw_shuffles(*groups[g], epochs - j // per_epoch[g])
                shuffled[g] = drawn[g].pop()
            rows, labels = shuffled[g]
            start = position * BATCH_SIZE
            if rows.ndim == 1:  # a lone client's epoch is its own 1-D rows
                pieces.append((rows[start:start + BATCH_SIZE], labels[start:start + BATCH_SIZE]))
            else:
                pieces.append((rows[:, start:start + BATCH_SIZE],
                               labels[:, start:start + BATCH_SIZE]))
        # runs of groups whose batches have the same length take one pass each
        first = 0
        while first < live:
            size = pieces[first][0].shape[-1]
            end = first + 1
            while end < live and pieces[end][0].shape[-1] == size:
                end += 1
            x, labels = _gather(table, pieces[first:end])
            views = run_views[first][end]
            if views is None:
                views = run_views[first][end] = _run_views(theta, grad, edges[first], edges[end])
            _backprop(views[0], x, labels, views[1])
            first = end
        for theta_b, grad_b, m_b, v_b, scratch_b in blocks:
            # adam_step reads the gradient for the last time before it writes denom
            adam_step(theta_b, grad_b, m_b, v_b, j + 1, scratch_b, grad_b)


def mean_loss(trained: list[MlpParameters], dataset: Cohort) -> list[float]:
    """Mean binary cross-entropy of trained[i] on the cohort's client i, for each i, in order.

    Clients of one size are scored in stacks, each walked block by block
    (see the module docstring); each loss has the bits of the client scored alone.
    """
    clients = dataset.clients
    if len(trained) != len(clients):
        raise ValueError(f"{len(trained)} parameter sets for {len(clients)} clients")
    losses = [0.0] * len(clients)
    by_size: dict[int, list[int]] = {}
    for i, client in enumerate(clients):
        by_size.setdefault(len(client), []).append(i)
    for n, group in by_size.items():
        per_stack = LOCKSTEP_CLIENTS if n < 2 * SCORE_ROWS else 1
        count = max(1, n // SCORE_ROWS)
        for start in range(0, len(group), per_stack):
            stack = group[start:start + per_stack]
            if len(stack) == 1:
                # fresh views, not the cached params.layers: each local update is scored
                # once, and a cache would hold its views until FedAvg merges the round
                layers = layer_views(trained[stack[0]].flat)
                rows, labels = clients[stack[0]].rows, clients[stack[0]].labels
            else:
                layers = _stacked_layers(np.stack([trained[i].flat for i in stack]))
                rows = np.stack([clients[i].rows for i in stack])
                labels = np.stack([clients[i].labels for i in stack])
            loss = np.empty((len(stack), n))
            for b in range(count):
                block = slice(b * SCORE_ROWS, n if b == count - 1 else (b + 1) * SCORE_ROWS)
                # take(axis=0) gathers the same rows as table[...] with less dispatch overhead
                x = clients[0].phrases.matrix.take(rows[..., block], axis=0)
                loss[:, block] = _row_bce(_forward(layers, x), labels[..., block])
            # each client's row sum in the order of its own 1-D np.add.reduce
            for i, value in zip(stack, (np.add.reduce(loss, axis=-1) / n).tolist()):
                losses[i] = value
    return losses


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
