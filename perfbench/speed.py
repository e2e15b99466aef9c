"""Host speed sampling, to put timings in reference-speed seconds.

On a shared host the same code can run 1.5-2x slower, in spells that
last from well under a second to minutes, and no count of repeats inside
one run averages that out. So while a call is timed, a SIGALRM handler
samples a fixed kernel every 20 ms and records its thread CPU time. The
kernel is one minibatch step of a 50-32-16-8-1 MLP in plain numpy
(gather, forward, backward, a moment update) on a fixed array: the same
mix of small numpy calls that dominates the workloads, and so the same
sensitivity to the host. It is a frozen copy, not the package's code,
so that no change to the package's code moves the yardstick. Thread CPU
time leaves out time the thread spent descheduled or waiting for the
GIL, so what it tracks is how fast the CPU executes, which is what the
host's load changes.

Each sample runs the kernel twice and keeps the second time. The first
run refills the caches with the kernel's own small working set, which
the program's memory traffic may have evicted, so the kept time follows
the host and not the program's footprint. Sampling only between calls,
in a tight loop, was tried and does not work here: the host's fast and
slow spells flip within a call, and such samples did not narrow the
spread of one call's time repeated (see README.md).

The speed factor of a block is the mean of REFERENCE_S / kernel time
over its samples; samples are evenly spaced in wall time, so this is the
block's mean speed. A wall time times the factor is the time the block
would have taken at the reference speed.

The kernel runs in the main thread only. Work a program moves to other
threads or processes can slow that thread through shared caches and so
flatter a normalized time; compare the raw wall time as well.
"""

import itertools
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 200e-6  # kernel CPU time that counts as speed 1.0
INTERVAL_S = 0.02
PROBE_SAMPLES = 200  # samples after a set-up probe

_RNG = np.random.default_rng(0)
_X = _RNG.random((2048, 50))
_Y = (_RNG.random(2048) > 0.5).astype(np.float64)
_SIZES = (50, 32, 16, 8, 1)
_LAYERS = [(_RNG.uniform(-0.3, 0.3, (a, b)), np.zeros(b))
           for a, b in zip(_SIZES, _SIZES[1:])]
_MOMENTS = [(np.zeros_like(w), np.zeros_like(b)) for w, b in _LAYERS]
_BATCHES = _RNG.permutation(2048).reshape(-1, 32)
_next_batch = itertools.count()


def kernel_cpu_s() -> float:
    """Thread CPU time of one minibatch step of the frozen reference MLP."""
    start = time.thread_time()
    idx = _BATCHES[next(_next_batch) % len(_BATCHES)]
    h, y = _X[idx], _Y[idx]
    acts = [h]
    for w, b in _LAYERS[:-1]:
        h = np.maximum(h @ w + b, 0.0)
        acts.append(h)
    w, b = _LAYERS[-1]
    p = 1.0 / (1.0 + np.exp(-(h @ w + b)[:, 0]))
    d = ((p - y) / len(idx))[:, None]
    grads = []
    for i in range(len(_LAYERS) - 1, -1, -1):
        grads.append((acts[i].T @ d, d.sum(axis=0)))
        if i:
            d = (d @ _LAYERS[i][0].T) * (acts[i] > 0.0)
    for (gw, gb), (mw, mb) in zip(reversed(grads), _MOMENTS):
        np.sqrt((0.9 * mw + 0.1 * gw) ** 2 + 1e-8)
        np.sqrt((0.9 * mb + 0.1 * gb) ** 2 + 1e-8)
    return time.thread_time() - start


def warm_kernel_cpu_s() -> float:
    """Kernel time on caches the kernel itself has just refilled."""
    kernel_cpu_s()
    return kernel_cpu_s()


def factor(samples: list[float]) -> float:
    return statistics.fmean(REFERENCE_S / s for s in samples)


class SpeedSampler:
    """Samples the warm kernel every INTERVAL_S of wall time inside the block."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, _signum, _frame) -> None:
        self.samples.append(warm_kernel_cpu_s())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a block shorter than one interval
            self.samples.append(warm_kernel_cpu_s())

    def factor(self) -> float:
        return factor(self.samples)
