"""Binary MLP classifier (50, 32, 16, 8, 1) built on plain numpy.

Three ReLU hidden layers feed one sigmoid output neuron. Training is
binary cross-entropy under Adam. All 2,305 parameters live in one flat
float64 vector; each layer's weights and biases are views into it, built
once per parameter set. A parameter set is validated once, when it is
built, and is read-only from then on. train_local and fedavg_aggregate
hand their fresh private vectors to MlpParameters._adopt, which checks
only that each is finite and freezes it, with no copy; the public
constructor copies and checks everything.

A client's examples are row indices into the run's shared phrase table:
each training step gathers its own minibatch from that table, and
scoring (mean_loss, forward_batch) runs in blocks of SCORE_ROWS rows, so
the memory a call holds is bounded by the batch, block and chunk size,
not by the client size. A training step computes the gradient only; the
loss lives in mean_loss (forward only) and loss_and_gradient. Every
client trains with the same Adam LEARNING_RATE and minibatches of
BATCH_SIZE rows; only the number of local epochs is set per run
(TrainConfig).

Lockstep training. train_local trains a Cohort of clients, each from
the same start and with its own shuffling stream, and returns each
client's parameters as if it had trained alone. Numpy call overhead on
small minibatches dominates a step, so the clients step together. The
cohort is sorted by steps per epoch, then by last-batch size, both
descending, and cut into chunks of LOCKSTEP_CLIENTS. A chunk keeps its
clients' parameters, gradients, Adam moments and Adam scratch as rows of
(k, N_PARAMS) arrays. At step j the clients still training are a prefix
of the chunk, all on Adam step j + 1, so one adam_step over that prefix
updates them all. The prefix is split into contiguous runs of clients
whose minibatches have the same number of rows, and each run takes one
forward and backward pass over a slice of the chunk's arrays.

One kernel. _backprop and _forward are rank-generic: a (n, 50) batch
with one client's (weight, bias) views uses np.dot, and a (k, n, 50)
stack with the stack's (k, fan_in, fan_out) weights and (k, 1, fan_out)
biases uses np.matmul. np.matmul runs one small BLAS product per client,
which gives each client the bits np.dot gives it alone; tests compare the
bytes of ragged cohorts with a per-client reference, and the golden runs
at 1 and 4 BLAS threads. A run of one client steps on its own 1-D
parameter row through np.dot, which has less dispatch overhead.
The four layers are written out, forward and backward, with labels and
outputs kept as (..., n, 1) columns; each ReLU's gradient is masked by
multiplying in place with np.sign of its output (1.0 or 0.0, with no
bool-to-float cast), and adam_step skips its first-moment
bias-correction divide once that correction is exactly 1.0; all of
these keep every bit.

Scoring. mean_loss scores a whole cohort, each client with its own
trained parameters, in one call. A client under 2 * SCORE_ROWS rows is
one scoring block, so clients of equal size are stacked, up to
LOCKSTEP_CLIENTS at a time to bound the memory, and each stack takes one
rank-generic _forward pass, as a lockstep run takes one _backprop; a
client alone in its stack, and any larger client, is scored block by
block on its own. Either way each loss has the bits of the client scored
alone.

Shuffles. A client of n rows draws its epochs' shuffles min(epochs left,
max(1, SCORE_ROWS // n)) epochs at a time, so a draw holds at most
max(n, SCORE_ROWS) rows: one rng.permuted call over one row of arange(n)
per epoch, and one gather of rows and labels for them all. Those rows are
the orders that one rng.permutation(n) call per epoch gives, and the
stream is left in the same state, so a small client pays one draw, not
one per epoch, for the same bits.

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

# clients per lockstep chunk: each holds six (k, N_PARAMS) arrays, 18.4 KB a client each
LOCKSTEP_CLIENTS = 8


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

        For train_local's and fedavg_aggregate's own results: the vector
        is refused if non-finite, as the constructor would, and is made
        read-only in place.
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
    """The clients one train_local call trains, all rows of one phrase table.

    Its len() is its number of examples, as a ClientDataset's is.
    """

    clients: tuple[ClientDataset, ...]

    def __post_init__(self):
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
    # exp(-|z|) never overflows; each side of 0 gets its textbook numerator,
    # 1 or e, over 1 + e: the same bits as 1 / d and e / d, with one divide
    e = np.exp(-np.abs(z))
    p = np.where(z >= 0, 1.0, e)
    p /= 1.0 + e
    return p


def _forward(layers, x: np.ndarray) -> np.ndarray:
    """The unclipped output probabilities of a batch: (n,) for one client's (n, 50) rows.

    A stack of k clients' (k, n, 50) batches takes (k, fan_in, fan_out)
    weights and (k, 1, fan_out) biases, as _backprop does, and gives (k, n),
    each client with the bits of its own 2-D call. Only the current layer's
    input and output are alive, so a large batch never holds all its
    activations at once.
    """
    # np.dot runs the same BLAS kernels as @, with less dispatch overhead
    mm = np.dot if x.ndim == 2 else np.matmul
    for w, b in layers[:-1]:
        # in place: the same bits as maximum(dot + b, 0) with one array per layer
        h = mm(x, w)
        h += b
        x = np.maximum(h, 0.0, out=h)
    w, b = layers[-1]
    z = mm(x, w)
    z += b
    return _sigmoid(z[..., 0])


def _row_bce(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Binary cross-entropy of each row, with p clamped into the LOSS_CLAMP band."""
    # np.clip's bits, NaN included, without its Python-level wrapper
    p = np.maximum(p, LOSS_CLAMP)
    np.minimum(p, 1.0 - LOSS_CLAMP, out=p)
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

    One client's (n, 50) batch takes (weight, bias) views shaped like
    MlpParameters.layers, and its labels as an (n, 1) column. A stack of
    k clients' (k, n, 50) batches takes (k, fan_in, fan_out) weights,
    (k, 1, fan_out) biases, (k, fan_out) gradient biases and (k, n, 1)
    labels, and gives each client the bits of its own 2-D call. Returns the
    (..., n, 1) outputs unclipped: OUTPUT_CLIP only moves outputs outside
    the LOSS_CLAMP band, whose rows get zero gradient anyway.

    The four layers of LAYER_SIZES are written out, each with the numpy calls
    _forward makes, so a 32-row step pays no loop or list overhead. Each
    ReLU's gradient is masked by ``dz *= np.sign(h)`` on its output h:
    h >= 0, and np.sign gives exactly 1.0 where h > 0 and +0.0 where h is
    +-0.0, so every finite product has the bits of ``dz * (h > 0.0)``,
    signed zeros included, without casting a bool mask to float.
    """
    # np.dot has less dispatch overhead; np.matmul gives each client np.dot's bits.
    # .mT transposes the last two axes, as .T does on one client's 2-D arrays.
    mm = np.dot if x.ndim == 2 else np.matmul
    (w0, b0), (w1, b1), (w2, b2), (w3, b3) = layers
    (gw0, gb0), (gw1, gb1), (gw2, gb2), (gw3, gb3) = grads
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
              step: int, learning_rate: float, scratch: np.ndarray, denom: np.ndarray) -> None:
    """One bias-corrected Adam update of theta, m and v, in place.

    The arrays are one client's vectors or the rows of several clients on
    the same step. `step` is the 1-based count including this update.
    `scratch` and `denom`, shaped like theta, hold the temporaries, each
    computed in the textbook evaluation order. From step 356 on,
    1 - BETA1 ** step rounds to exactly 1.0, and the first moment is used
    as it is, with no divide by its bias correction. The gradient is not
    checked here: a non-finite element leaves a NaN in theta that no later
    step clears, and the MlpParameters that train_local returns refuses it.
    """
    m *= BETA1
    np.multiply(1.0 - BETA1, grad, out=scratch)
    m += scratch
    v *= BETA2
    np.multiply(1.0 - BETA2, grad, out=scratch)
    scratch *= grad
    v += scratch
    # theta -= (learning_rate * m_hat) / (sqrt(v_hat) + EPS_HAT)
    correction = 1.0 - BETA1 ** step
    if correction == 1.0:
        # m / 1.0 is m itself, so this gives the same bits without the divide
        np.multiply(m, learning_rate, out=scratch)
    else:
        np.divide(m, correction, out=scratch)
        scratch *= learning_rate
    np.divide(v, 1.0 - BETA2 ** step, out=denom)
    np.sqrt(denom, out=denom)
    denom += EPS_HAT
    theta -= np.divide(scratch, denom, out=scratch)


def _schedule(n: int) -> tuple[int, int]:
    """(steps per epoch, rows in the epoch's last batch) of a client of n rows."""
    steps = -(-n // BATCH_SIZE)
    return steps, n - (steps - 1) * BATCH_SIZE


def train_local(params: MlpParameters, dataset: Cohort, config: TrainConfig,
                rngs: list[np.random.Generator]) -> list[MlpParameters]:
    """Run local_epochs of minibatch Adam over each client of the cohort, in lockstep.

    Client i starts from params with a fresh optimizer state and shuffles
    its row indices and labels for each of its epochs with rngs[i], a
    small client several epochs in one draw; each step gathers its
    minibatch straight from the shared phrase table, and the last short
    batch is trained on. Returns each client's trained vector, frozen, in
    input order; a non-finite one is refused. The clients train in sorted
    chunks (see the module docstring), and each result has the bits of a
    run of its own.
    """
    clients = dataset.clients
    if len(rngs) != len(clients):
        raise ValueError(f"{len(rngs)} streams for {len(clients)} clients")
    if not all(len(client) for client in clients):
        raise ValueError("empty client")
    # steps per epoch, then last-batch size, descending; ties keep input order
    order = sorted(range(len(clients)), key=lambda i: _schedule(len(clients[i])), reverse=True)
    trained: list[MlpParameters | None] = [None] * len(clients)
    for start in range(0, len(order), LOCKSTEP_CLIENTS):
        chunk = order[start:start + LOCKSTEP_CLIENTS]
        theta = _train_chunk(params.flat, [clients[i] for i in chunk], [rngs[i] for i in chunk],
                             config.local_epochs)
        # each row is a vector no one else holds, adopted without a copy
        for i, row in zip(chunk, theta):
            trained[i] = MlpParameters._adopt(row)
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


def _draw_epochs(client: ClientDataset, rng: np.random.Generator, epochs_left: int) -> list:
    """The client's shuffled (rows, label column) of its next epochs, the next epoch last.

    Draws min(epochs_left, max(1, SCORE_ROWS // n)) epochs of a client of n
    rows in one call, so a draw holds at most max(n, SCORE_ROWS) rows.
    rng.permuted over one row of arange(n) per epoch gives the orders of,
    and leaves the stream as, one rng.permutation(n) call per epoch.
    """
    n = len(client)
    order = np.arange(n)[None].repeat(min(epochs_left, max(1, SCORE_ROWS // n)), axis=0)
    rng.permuted(order, axis=1, out=order)
    rows = client.rows[order]
    # the labels as the (n, 1) columns _backprop takes; a view of the
    # gather, which is cheaper than gathering rows of a column
    labels = client.labels[order][..., None]
    return list(zip(rows[::-1], labels[::-1]))


def _train_chunk(flat: np.ndarray, clients: list[ClientDataset],
                 rngs: list[np.random.Generator], epochs: int) -> np.ndarray:
    """Train clients sorted as train_local sorts them; their parameters as (k, N_PARAMS) rows."""
    k = len(clients)
    table = clients[0].phrases.matrix
    theta = np.empty((k, N_PARAMS))
    theta[...] = flat
    grad = np.empty((k, N_PARAMS))
    m, v = np.zeros((k, N_PARAMS)), np.zeros((k, N_PARAMS))
    scratch, denom = np.empty((k, N_PARAMS)), np.empty((k, N_PARAMS))
    per_epoch = [_schedule(len(client))[0] for client in clients]
    last_step = [steps * epochs for steps in per_epoch]
    # run_views[first][end]: _run_views of the run [first, end), once it has been met
    run_views = [[None] * (k + 1) for _ in range(k)]
    shuffled: list = [None] * k  # each client's rows and label column for this epoch
    drawn: list[list] = [[] for _ in range(k)]  # each client's later epochs, already shuffled
    leaves = 0  # the next step at which the prefix shrinks; step 0 sets it up
    for j in range(last_step[0]):
        if j == leaves:
            # the clients still training are a prefix of the chunk
            active = sum(last > j for last in last_step)
            leaves = last_step[active - 1]
            training = range(active)
            # one client alone steps on 1-D rows, which numpy iterates faster
            prefix = slice(active) if active > 1 else 0
            theta_p, grad_p, m_p, v_p, scratch_p, denom_p = [
                array[prefix] for array in (theta, grad, m, v, scratch, denom)]
        batches = []
        for i in training:
            position = j % per_epoch[i]
            if not position:
                if not drawn[i]:
                    drawn[i] = _draw_epochs(clients[i], rngs[i], epochs - j // per_epoch[i])
                shuffled[i] = drawn[i].pop()
            rows, labels = shuffled[i]
            start = position * BATCH_SIZE
            batches.append((rows[start:start + BATCH_SIZE], labels[start:start + BATCH_SIZE]))
        first = 0
        while first < active:
            rows, labels = batches[first]
            end = first + 1
            while end < active and len(batches[end][0]) == len(rows):
                end += 1
            if end - first == 1:
                # take(axis=0) gathers the same rows as table[...] with less dispatch overhead
                x = table.take(rows, axis=0)
            else:
                run = batches[first:end]
                shape = (end - first, len(rows))
                x = table.take(np.concatenate([batch for batch, _ in run]), axis=0)
                x = x.reshape(*shape, LAYER_SIZES[0])
                labels = np.concatenate([column for _, column in run]).reshape(*shape, 1)
            views = run_views[first][end]
            if views is None:
                views = run_views[first][end] = _run_views(theta, grad, first, end)
            _backprop(views[0], x, labels, views[1])
            first = end
        adam_step(theta_p, grad_p, m_p, v_p, j + 1, LEARNING_RATE, scratch_p, denom_p)
    return theta


def mean_loss(trained: list[MlpParameters], dataset: Cohort) -> list[float]:
    """Mean binary cross-entropy of trained[i] on the cohort's client i, for each i, in order.

    A client under 2 * SCORE_ROWS rows is one scoring block. Clients of such
    a size are scored in stacks of up to LOCKSTEP_CLIENTS clients of equal
    size, one stacked forward pass a stack; a client alone in its stack, or
    a larger one, is scored block by block on its own. Each loss has the
    bits the client gets scored alone.
    """
    clients = dataset.clients
    if len(trained) != len(clients):
        raise ValueError(f"{len(trained)} parameter sets for {len(clients)} clients")
    if not all(len(client) for client in clients):
        raise ValueError("empty client")
    losses = [0.0] * len(clients)
    # the clients of one scoring block, by size
    by_size: dict[int, list[int]] = {}
    for i, client in enumerate(clients):
        if len(client) < 2 * SCORE_ROWS:
            by_size.setdefault(len(client), []).append(i)
        else:
            losses[i] = _client_loss(trained[i], client)
    for n, group in by_size.items():
        for start in range(0, len(group), LOCKSTEP_CLIENTS):
            stack = group[start:start + LOCKSTEP_CLIENTS]
            k = len(stack)
            if k == 1:
                losses[stack[0]] = _client_loss(trained[stack[0]], clients[stack[0]])
                continue
            theta = np.stack([trained[i].flat for i in stack])
            rows = np.concatenate([clients[i].rows for i in stack])
            x = clients[0].phrases.matrix.take(rows, axis=0).reshape(k, n, LAYER_SIZES[0])
            y = np.concatenate([clients[i].labels for i in stack]).reshape(k, n)
            loss = _row_bce(_forward(_stacked_layers(theta), x), y)
            # each client's row sum in the order of its own 1-D np.add.reduce
            for i, value in zip(stack, (np.add.reduce(loss, axis=-1) / n).tolist()):
                losses[i] = value
    return losses


def _client_loss(params: MlpParameters, client: ClientDataset) -> float:
    """One client's mean binary cross-entropy, scored block by block.

    Each block's per-row losses go into one array, so the mean sums them
    in the same order as a whole-client forward would; np.add.reduce over
    len is np.mean's own sum and divide, without its Python-level wrapper.
    """
    y = client.labels
    loss = np.empty(len(y))
    # fresh views, not the cached params.layers: each local update is scored
    # once, and a cache would hold its views until FedAvg merges the round
    for block, p in _blocked_forward(layer_views(params.flat), client.phrases.matrix,
                                     client.rows):
        loss[block] = _row_bce(p, y[block])
    return float(np.add.reduce(loss) / len(loss))


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
