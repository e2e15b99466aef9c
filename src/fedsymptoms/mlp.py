"""Binary MLP classifier (50, 32, 16, 8, 1) built on plain numpy.

Three ReLU hidden layers feed one sigmoid output neuron. Training is
binary cross-entropy under Adam. A parameter set is all 2,305
parameters in one read-only float64 (N_PARAMS,) array; each layer's
weights and biases are views into it (layer_views), built by each call
that reads them. init_params freezes the vector it draws; train_local
checks and freezes its whole output block at once, whose rows are
parameter sets as they are. load_checkpoint is the one place a vector
enters from outside the program, and checks it there.

A client's examples are row indices into the run's shared phrase table:
each training step gathers its own minibatch from that table, and
mean_loss scores in blocks of SCORE_ROWS rows, so the memory a call
holds is bounded by the batch, block and chunk size, not by the client
size. A training step computes the gradient only; the loss lives in
mean_loss (forward only) and loss_and_gradient. Every client trains with
the same Adam LEARNING_RATE and minibatches of BATCH_SIZE rows; only the
number of local epochs is set per run (TrainConfig).

Lockstep training. train_local trains a Window of clients, each from
its own start and with its own shuffling stream, and returns the
parameters of each client as if it had trained alone. Numpy call
overhead on small minibatches dominates a step, so the clients step
together. A Window is its clients as one array layout, built once:
sorted by size, largest first, ties in input order, each size read once,
and all rows and labels concatenated in that order with their offsets,
so each run of equal sizes is one contiguous slice. train_local cuts
that order into contiguous chunks: a chunk takes LOCKSTEP_CLIENTS
clients, then each next client of the same size as its last, up to
LOCKSTEP_MAX_CLIENTS, so clients of one size share a chunk and its
stacked passes; with all sizes distinct every chunk but the last has
LOCKSTEP_CLIENTS clients. A call holds one output block with a row per
client, in the window's order, and each process that trains (see
Processes) one workspace of four arrays: gradients and Adam moments with
a row per client of its largest chunk, and Adam scratch of at most
LOCKSTEP_CLIENTS rows. Each chunk trains in place in its k rows of the
block from slices of the layout, and reuses the workspace's first rows,
so a chunk allocates nothing of that size. The block is checked for
finiteness once, frozen and returned whole; row
p is the window's position p. The block is what mean_loss scores and
what FedAvg merges, a row per update. At step j the clients still
training are a prefix of the chunk, all on Adam step j + 1, so adam_step updates that
prefix in blocks of at most LOCKSTEP_CLIENTS rows, past which its cost
per element rises; each block's gradient rows, read for the last time,
serve as its denom. The prefix is split into contiguous runs of size
groups (see Shuffles) whose minibatches have the same number of rows,
and each run takes one gather, with one piece a size group, and one
forward and backward pass over a slice of the chunk's arrays.

Processes. A window's chunks are independent: each has its own clients,
start vectors, streams and block rows, and zeroes the Adam moments it
reads. So train_local shares them out over P = min(train_processes(),
chunks) processes, train_processes() being the CPUs of the process's
affinity, interleaved: process w trains chunks w, w + P, ... . The
calling process forks P - 1 children with os.fork and trains share 0
meanwhile. The block is then an anonymous shared mmap made before the
fork, viewed with np.frombuffer, and each child writes its chunks' rows
straight into it. Nothing is pickled or sent: a child inherits the
window, the starts and the streams. Each chunk runs _train_chunk on the
same inputs whichever process runs it, on a workspace of its process, so
every byte is the same at any P. A stream advances only in the process
that trains its chunk. A child ends with os._exit: 0, or 1 after
writing its error's repr to its pipe. The caller reaps every child in a
finally (killing them first if its own share failed) before it checks
and freezes the block, so no process outlives the call, and a child's
failure fails the call with RuntimeError and that repr. A one-chunk
window or a one-CPU affinity trains in the calling process into an
ordinary array, forking nothing. The package starts no thread, and the
bundled OpenBLAS stops its own thread pool across a fork, so a call may
fork at any BLAS thread count; the golden runs check 4 threads.

One forward pass. _activations writes the four layers out once, for
scoring (_forward) and training (_backprop) alike; _backprop adds only
the backward pass. It is rank-generic: one client's (n, 50) batch goes
through np.dot, and a (k, n, 50) stack of k clients through np.matmul,
which runs one small BLAS product per client and so gives each client
the bits np.dot gives it alone; tests compare the bytes of ragged
windows with a per-client reference, and the golden runs at 1 and 4 BLAS
threads. _views picks a pass's layer views, in training and scoring
alike: a lone client's own 1-D row, through np.dot, which has less
dispatch overhead, or a stack's. Each ReLU's gradient is masked
by multiplying in place with np.sign of its output, and adam_step skips
its first-moment bias-correction divide once that correction is exactly
1.0; both keep every bit.

Scoring. mean_loss scores a whole window from train_local's block, each
client with its own row, in one call and along one path. Clients of one
size, next to each other in the window's order, are scored in stacks of
contiguous block rows and layout slices, with no copy: up to
LOCKSTEP_MAX_CLIENTS clients and LOCKSTEP_CLIENTS * 2 * SCORE_ROWS rows
a stack. A client of 2 * SCORE_ROWS rows or more is scored alone, so a
call holds one large client's losses at a time. Each stack is walked
block by block, one take of its (k, block) rows and one rank-generic
_forward pass a block; each client's mean sums its row of losses in the
order of its own 1-D np.add.reduce, so it has the bits of the client
scored alone. forward
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
import os
import zipfile
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate
from typing import ClassVar, NoReturn

import numpy as np

from .sampling import ClientDataset, check_number

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


class Window:
    """The clients one train_local call trains, as one size-sorted array layout.

    Position p is the p-th client largest first, ties in input order, and
    order[p] is its index in the input. Its sizes[p] examples are rows
    offsets[p] to offsets[p + 1] of rows and labels: row indices into
    table, the clients' shared phrase matrix, and their float64 0/1 labels.
    Each size is read once, and the clients' arrays are concatenated once
    in that order, read-only; a one-client window keeps its client's own
    arrays. Block row p of train_local and mean_loss is position p. Its
    len() is its number of examples. Building it is the one check of the
    clients: at least one, none empty, all rows of one phrase table;
    train_local and mean_loss rely on it.
    """

    def __init__(self, clients: Sequence[ClientDataset]):
        if not clients:
            raise ValueError("a window needs at least one client")
        sizes = [len(client) for client in clients]
        if not all(sizes):
            raise ValueError("empty client")
        phrases = clients[0].phrases
        if any(client.phrases is not phrases for client in clients):
            raise ValueError("a window's clients must share one phrase table")
        # largest first, ties in input order: then no client has more steps than one before it
        self.order = tuple(sorted(range(len(clients)), key=sizes.__getitem__, reverse=True))
        self.sizes = tuple(sizes[i] for i in self.order)
        self.offsets = (0, *accumulate(self.sizes))
        self.table = phrases.matrix
        if len(clients) == 1:
            self.rows, self.labels = clients[0].rows, clients[0].labels
        else:
            self.rows = np.concatenate([clients[i].rows for i in self.order])
            self.labels = np.concatenate([clients[i].labels for i in self.order])
            self.rows.flags.writeable = self.labels.flags.writeable = False

    def __len__(self) -> int:
        return self.offsets[-1]


@dataclass(frozen=True)
class TrainConfig:
    local_epochs: int = 5
    # not settable; perfbench/tracer.py counts steps from config.batch_size
    batch_size: ClassVar[int] = BATCH_SIZE

    def __post_init__(self):
        # checked here: True would train one epoch, and 2.5 fail in range() after synthesis
        check_number("local_epochs", self.local_epochs, numbers.Integral)
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be at least 1")


def init_params(rng: np.random.Generator) -> np.ndarray:
    """A read-only parameter set of Glorot-uniform weights and zero biases."""
    flat = np.zeros(N_PARAMS)
    for w, _ in layer_views(flat):
        fan_in, fan_out = w.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    flat.flags.writeable = False
    return flat


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows; each side of 0 gets its textbook numerator,
    # 1 or e, over 1 + e: the same bits as 1 / d and e / d, with one divide
    e = np.exp(-np.abs(z))
    p = np.where(z >= 0, 1.0, e)
    p /= 1.0 + e
    return p


def _activations(layers, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """The ReLU outputs h1, h2, h3 and the (..., n, 1) output logits z of a batch.

    One client's (n, 50) rows take the (weight, bias) views that
    layer_views gives of one parameter set; a stack of k clients' (k, n,
    50) batches takes (k, fan_in, fan_out) weights and (k, 1, fan_out)
    biases.
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


def forward(params: np.ndarray, x) -> float | np.ndarray:
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
    p = _forward(layer_views(params), x.reshape(-1, 1, LAYER_SIZES[0]))[:, 0]
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


def loss_and_gradient(params: np.ndarray, x, y) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy over an (n, 50) batch and its exact gradient.

    `y` holds the 0/1 labels. The gradient is a flat vector laid out
    like a parameter set.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    grad = np.empty(N_PARAMS)
    p = _backprop(layer_views(params), x, y[:, None], layer_views(grad))
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
    later step clears, and train_local's check of its output block refuses
    it.
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


def train_processes() -> int:
    """How many processes a train_local call may train in: the CPUs this process may run on.

    The process's CPU affinity sets it, so `taskset -c 0` gives one. A
    call uses at most one process a chunk. Without an affinity (not
    Linux) it is one.
    """
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def train_local(params: list[np.ndarray], dataset: Window, config: TrainConfig,
                rngs: list[np.random.Generator]) -> np.ndarray:
    """Run local_epochs of minibatch Adam over each client of the window, in lockstep.

    Client i (in input order) starts from params[i] with a fresh optimizer
    state and shuffles its row indices and labels for each of its epochs
    with rngs[i], a small client several epochs in one draw; each step
    gathers its minibatch straight from the shared phrase table, and the
    last short batch is trained on. Clients may start from different
    parameters, as the clients of several runs in one window do. The
    clients train in the window's size order, in chunks of
    LOCKSTEP_CLIENTS extended over clients of the chunk's last size up to
    LOCKSTEP_MAX_CLIENTS (see the module docstring), each from slices of
    the window's layout, and each result has the bits of a run of its own.
    The chunks are shared out over min(train_processes(), chunks)
    processes, this one and forked children (see Processes in the module
    docstring); the rngs advance in the process that trains their chunk
    only, so a caller must not draw from them afterwards.

    Returns the output block: row p is the trained vector of the client at
    window position p, which is client window.order[p] of the input. The
    block is checked once, and refused if any element is non-finite, then
    made read-only. A child's failure raises RuntimeError with its error's
    repr. (`dataset` keeps its name: perfbench's tracer reads the window's
    len() under it.)
    """
    window = dataset
    sizes = window.sizes
    if not len(params) == len(rngs) == len(sizes):
        raise ValueError(f"{len(params)} parameter sets and {len(rngs)} streams "
                         f"for {len(sizes)} clients")
    # chunks are contiguous runs of positions: LOCKSTEP_CLIENTS clients, then each next
    # client of the last one's size, up to LOCKSTEP_MAX_CLIENTS in all
    bounds = [0]
    while bounds[-1] < len(sizes):
        limit = min(bounds[-1] + LOCKSTEP_MAX_CLIENTS, len(sizes))
        end = min(bounds[-1] + LOCKSTEP_CLIENTS, limit)
        while end < limit and sizes[end] == sizes[end - 1]:
            end += 1
        bounds.append(end)
    chunks = list(map(slice, bounds, bounds[1:]))
    processes = min(train_processes(), len(chunks))

    def train(share: list[slice]) -> None:
        _train_share(out, share, params, window, rngs, config.local_epochs)

    # a row per position, each chunk training in place in its own rows
    if processes == 1:
        out = np.empty((len(sizes), N_PARAMS))
        train(chunks)
    else:
        import mmap  # here, not at the top: importing the package imports nothing new
        # shared with the children forked below, which write their chunks' rows into it
        out = np.frombuffer(mmap.mmap(-1, len(sizes) * N_PARAMS * 8)).reshape(-1, N_PARAMS)
        # interleaved: the chunks come largest clients first, so each share gets some of each
        _train_forked([chunks[w::processes] for w in range(processes)], train)
    if not np.isfinite(out).all():
        raise ValueError("non-finite parameters")
    out.flags.writeable = False
    return out


def _train_share(out: np.ndarray, chunks: list[slice], params: list[np.ndarray],
                 window: Window, rngs: list[np.random.Generator], epochs: int) -> None:
    """Train the chunks of one process into their rows of out, on one workspace.

    The workspace, which every chunk reuses, is grad, m and v rows for the
    largest chunk, and scratch rows for one adam_step block.
    """
    rows = max(chunk.stop - chunk.start for chunk in chunks)
    workspace = tuple(np.empty((n, N_PARAMS))
                      for n in (rows, rows, rows, min(rows, LOCKSTEP_CLIENTS)))
    for chunk in chunks:
        clients = window.order[chunk]
        _train_chunk(out[chunk], [params[i] for i in clients], window, chunk,
                     [rngs[i] for i in clients], epochs, workspace)


# the most bytes of a child's error report: under PIPE_BUF, so one write never blocks
_REPORT_BYTES = 512


def _train_forked(shares: list[list[slice]], train) -> None:
    """train(share) for each of shares[1:] in a forked child, and for shares[0] here meanwhile.

    A child reports an error's repr on its pipe and exits 1, or exits 0;
    it never returns. Every child is reaped before this returns or raises,
    and killed first if this process's own share failed, whose error then
    propagates. Otherwise the first failed child's report is raised as
    RuntimeError.
    """
    children = []  # (pid, read end of its pipe)
    trained = False
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _child(train, share, write)
            os.close(write)
            children.append((pid, read))
        train(shares[0])
        trained = True
    finally:
        failures = []
        for pid, read in children:
            if not trained:
                import signal  # here, not at the top, like mmap
                os.kill(pid, signal.SIGKILL)
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            report = os.read(read, _REPORT_BYTES).decode(errors="replace")
            os.close(read)
            if status:
                failures.append(report or f"training process exited with status {status}")
    if failures:
        raise RuntimeError(f"a training process failed: {failures[0]}")


def _child(train, share: list[slice], write: int) -> NoReturn:
    """A forked child's whole life: train its share, report an error on `write`, and exit."""
    status = 1
    try:
        train(share)
        status = 0
    # BaseException too: a child must never return into the parent's stack, even on Ctrl-C
    except BaseException as err:
        os.write(write, repr(err).encode()[:_REPORT_BYTES])
    finally:
        os._exit(status)


def _views(flat: np.ndarray, first: int, end: int) -> tuple:
    """(weight, bias) views of the parameter rows [first, end) of flat, for one pass.

    One row gets its own 1-D row's views, those of layer_views(flat[first]);
    several get stacked views: (k, fan_in, fan_out) weights and (k, 1,
    fan_out) biases, which broadcast over each client's rows.
    """
    if end - first == 1:
        return layer_views(flat[first])
    return tuple((w, b[:, None]) for w, b in layer_views(flat[first:end]))


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


def _train_chunk(theta: np.ndarray, starts: list[np.ndarray], window: Window, chunk: slice,
                 rngs: list[np.random.Generator], epochs: int, workspace: tuple) -> None:
    """Train the window's clients at the positions of chunk, each from its own start vector.

    theta is their (k, N_PARAMS) rows, which the starts are copied into and
    which end as the trained parameters. workspace holds the grad, m and v
    arrays of at least k rows each, of which the chunk uses the first k
    rows and zeroes its Adam moments before step 1, and the scratch rows of
    one adam_step block. Adam steps the clients still training in blocks of
    at most LOCKSTEP_CLIENTS rows, each block's gradient rows serving as
    its denom. Clients of one size sit next to each other in the window's
    order and train the same steps: each such size group draws its
    shuffles together (_draw_shuffles), from its slice of the window's
    layout, and takes one slice of them a step.
    """
    k = len(theta)
    table = window.table
    for row, start in zip(theta, starts):
        row[...] = start
    grad, m, v = (array[:k] for array in workspace[:3])
    scratch = workspace[3]
    m[...] = 0.0
    v[...] = 0.0
    sizes, offsets = window.sizes[chunk], window.offsets[chunk.start:chunk.stop + 1]
    # size group g is the clients [edges[g], edges[g + 1])
    edges = [0, *(c for c in range(1, k) if sizes[c] != sizes[c - 1]), k]
    # per group: its rows and labels end to end, a slice of the layout, and its streams
    groups = [(window.rows[offsets[first]:offsets[last]],
               window.labels[offsets[first]:offsets[last]], rngs[first:last])
              for first, last in zip(edges, edges[1:])]
    per_epoch = [-(-sizes[first] // BATCH_SIZE) for first in edges[:-1]]
    last_step = [steps * epochs for steps in per_epoch]
    # run_views[first][end]: _backprop's (layers, grads) views of groups [first, end), once met
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
                a, b = edges[first], edges[end]
                # a lone client steps on 1-D rows, its gradient as well as its parameters
                grads = layer_views(grad[a] if b - a == 1 else grad[a:b])
                views = run_views[first][end] = _views(theta, a, b), grads
            _backprop(views[0], x, labels, views[1])
            first = end
        for theta_b, grad_b, m_b, v_b, scratch_b in blocks:
            # adam_step reads the gradient for the last time before it writes denom
            adam_step(theta_b, grad_b, m_b, v_b, j + 1, scratch_b, grad_b)


def mean_loss(block: np.ndarray, window: Window) -> list[float]:
    """Mean binary cross-entropy of each block row on its window position's client, in order.

    block is train_local's (k, N_PARAMS) output: row p is scored on the
    client at position p. Each run of equal sizes is scored in stacks of
    contiguous block rows and layout slices, each walked block by block
    (see the module docstring); each loss has the bits of the client
    scored alone.
    """
    sizes, offsets = window.sizes, window.offsets
    k = len(sizes)
    if len(block) != k:
        raise ValueError(f"{len(block)} parameter sets for {k} clients")
    losses: list[float] = []
    first = 0
    while first < k:
        n = sizes[first]
        # a stack is the next clients of this size, as many as its caps allow; a client of
        # several blocks is scored alone, so a call holds one large client's losses at a time
        cap = (1 if n >= 2 * SCORE_ROWS
               else min(LOCKSTEP_MAX_CLIENTS, LOCKSTEP_CLIENTS * 2 * SCORE_ROWS // n))
        end = first + 1
        while end < k and end - first < cap and sizes[end] == n:
            end += 1
        rows = window.rows[offsets[first]:offsets[end]]
        labels = window.labels[offsets[first]:offsets[end]]
        # fresh views, not cached ones: each local update is scored once
        layers = _views(block, first, end)
        if end - first > 1:
            rows, labels = rows.reshape(end - first, n), labels.reshape(end - first, n)
        count = max(1, n // SCORE_ROWS)
        loss = np.empty((end - first, n))
        for b in range(count):
            part = slice(b * SCORE_ROWS, n if b == count - 1 else (b + 1) * SCORE_ROWS)
            # take(axis=0) gathers the same rows as table[...] with less dispatch overhead
            x = window.table.take(rows[..., part], axis=0)
            loss[:, part] = _row_bce(_forward(layers, x), labels[..., part])
        # each client's row sum in the order of its own 1-D np.add.reduce
        losses.extend((np.add.reduce(loss, axis=-1) / n).tolist())
        first = end
    return losses


def save_checkpoint(params: np.ndarray, path: str) -> None:
    """Write layer arrays to an .npz file that round-trips bit-exactly."""
    payload = {"layer_sizes": np.array(LAYER_SIZES, dtype=np.int64)}
    for i, (w, b) in enumerate(layer_views(params)):
        payload[f"w{i}"] = w
        payload[f"b{i}"] = b
    np.savez(path, **payload)


def load_checkpoint(path: str) -> np.ndarray:
    """The parameter set in a save_checkpoint file, as one read-only vector.

    This is where a parameter set enters from outside the program, so the
    file is checked here: that it is an .npz archive of real-valued arrays,
    its layer sizes, every layer's shape and every value. A file that fails
    is refused with ValueError.
    """
    names = ["layer_sizes", *(f"{kind}{i}" for i in range(len(LAYER_SIZES) - 1)
                              for kind in "wb")]
    try:
        archive = np.load(path)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ValueError(f"checkpoint {path} is not an .npz archive")
        with archive as data:
            missing = [name for name in names if name not in data.files]
            if missing:
                raise ValueError(f"checkpoint lacks {', '.join(missing)}")
            arrays = {name: data[name] for name in names}
    except (EOFError, zipfile.BadZipFile) as err:
        raise ValueError(f"checkpoint {path} is not an .npz archive") from err
    for name, array in arrays.items():
        # a member that is not an .npy file comes back as bytes
        if not isinstance(array, np.ndarray) or array.dtype.kind not in "iuf":
            raise ValueError(f"checkpoint {name} is not a real-valued array")
    sizes = arrays["layer_sizes"].tolist()
    if sizes != list(LAYER_SIZES):
        raise ValueError(f"checkpoint layer sizes {sizes} do not match {LAYER_SIZES}")
    flat = np.empty(N_PARAMS)
    for i, (w, b) in enumerate(layer_views(flat)):
        for name, view in ((f"w{i}", w), (f"b{i}", b)):
            if arrays[name].shape != view.shape:
                raise ValueError(f"checkpoint {name}: expected shape {view.shape}, "
                                 f"got {arrays[name].shape}")
            view[...] = arrays[name]
    if not np.isfinite(flat).all():
        raise ValueError("non-finite parameters")
    flat.flags.writeable = False
    return flat
