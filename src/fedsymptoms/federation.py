"""FedAvg orchestration over the four simulated client topologies.

One round = broadcast the global parameters, synthesize fresh survey
data per selected client, train locally, aggregate the surviving
updates as a weighted mean. Every random draw comes from a stream keyed
by (master seed, purpose, client, round), so results are independent of
scheduling order, and of how a round's clients are grouped for training.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import rng as streams
from .embeddings import EmbeddingTable
from .mlp import (
    MlpParameters,
    TrainConfig,
    Window,
    init_params,
    mean_loss,
    train_local,
)
from .sampling import (
    ClientDataset,
    NoiseMechanism,
    PhraseTable,
    build_phrase_table,
    synthesize_client,
)
from .surveys import CountrySurvey, assign_countries, build_distribution

SIMULATION_IDS = ("I", "II", "III", "IV")

# size range (min, max persons) and client count per simulation
_TOPOLOGY = {
    "I": ((60000, 60000), 20),
    "II": ((10000, 20000), 80),
    "III": ((500, 2000), 900),
    "IV": ((2, 12), 100000),
}

# IV defaults to partial participation to keep desk runs bounded
_DEFAULT_PARTICIPATION = {"I": 1.0, "II": 1.0, "III": 1.0, "IV": 0.05}

WEIGHT_BY_EXAMPLES = "by_examples"
WEIGHT_UNIFORM = "uniform"
WEIGHTINGS = (WEIGHT_BY_EXAMPLES, WEIGHT_UNIFORM)

# a round trains its clients in windows of about this many examples, so the
# datasets it holds at once stay bounded while its small clients train together
WINDOW_EXAMPLES = 2 ** 16


def _rounded_product(value: int, scale: float) -> float:
    """value * scale, rounded to 9 decimals.

    Float artifacts such as 900 * 0.1 = 90.000000000000014 and
    100 * 0.07 = 7.000000000000001 then read as 90 and 7.
    """
    return round(value * scale, 9)


def scaled_count(value: int, scale: float) -> int:
    """Scale a count down, rounding its _rounded_product up, never below 1."""
    return max(1, math.ceil(_rounded_product(value, scale)))


def _check_type(name: str, value, kind: type) -> None:
    """Refuse a value that is not a numbers.Integral or numbers.Real `kind`, or is a bool.

    A bool is an int to Python, but True for a count or a fraction is a mistake,
    not a 1.
    """
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if kind is numbers.Integral else "a number"
        raise ValueError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class SimulationSpec:
    """What every run of one simulation call shares; a run owns only its noise and seed.

    That is the client topology, the round schedule, local training, the
    FedAvg weighting and whether each client keeps its round-0 data.
    """

    id: str
    size_range: tuple[int, int]
    n_clients: int
    global_epochs: int = 5
    participation_fraction: float = 1.0
    train: TrainConfig = field(default_factory=TrainConfig)
    weighting: str = WEIGHT_BY_EXAMPLES
    fixed_client_data: bool = False

    def __post_init__(self):
        lo, hi = self.size_range
        _check_type("size_range", lo, numbers.Integral)
        _check_type("size_range", hi, numbers.Integral)
        if not (1 <= lo <= hi):
            raise ValueError(f"bad size_range {self.size_range}")
        _check_type("n_clients", self.n_clients, numbers.Integral)
        if self.n_clients < 1:
            raise ValueError("n_clients must be positive")
        _check_type("participation_fraction", self.participation_fraction, numbers.Real)
        if not 0.0 < self.participation_fraction <= 1.0:
            raise ValueError("participation_fraction must be in (0, 1]")
        if _rounded_product(self.n_clients, self.participation_fraction) < 1.0:
            raise ValueError("participation_fraction selects no clients")
        _check_type("global_epochs", self.global_epochs, numbers.Integral)
        if self.global_epochs < 0:
            raise ValueError("global_epochs must be non-negative")
        if self.weighting not in WEIGHTINGS:
            raise ValueError(f"weighting must be one of {WEIGHTINGS}")
        # any truthy value would otherwise reuse round-0 data every round
        if not isinstance(self.fixed_client_data, bool):
            raise ValueError(f"fixed_client_data must be a bool, got {self.fixed_client_data!r}")

    @property
    def clients_per_round(self) -> int:
        """participation_fraction of n_clients, rounded up; __post_init__ keeps it at least 1."""
        return scaled_count(self.n_clients, self.participation_fraction)


def simulation_spec(sim_id: str, *, scale: float = 1.0,
                    participation_fraction: float | None = None,
                    global_epochs: int = SimulationSpec.global_epochs,
                    local_epochs: int = TrainConfig.local_epochs,
                    weighting: str = SimulationSpec.weighting,
                    fixed_client_data: bool = SimulationSpec.fixed_client_data
                    ) -> SimulationSpec:
    """Build a spec from the standard topology table, optionally scaled.

    `scale` multiplies both the per-client size range and the client
    count, rounding up to at least 1, so desk-size runs keep the shape
    of the full topology. A participation_fraction of None takes the
    topology's own. Every keyword default is also config.RunConfig's
    default for the field of the same name, so each has this one home.
    """
    if sim_id not in _TOPOLOGY:
        raise ValueError(f"unknown simulation id {sim_id!r}; expected one of {SIMULATION_IDS}")
    _check_type("scale", scale, numbers.Real)
    if not 0.0 < scale <= 1.0:
        raise ValueError("scale must be in (0, 1]")
    (lo, hi), n_clients = _TOPOLOGY[sim_id]
    if participation_fraction is None:
        participation_fraction = _DEFAULT_PARTICIPATION[sim_id]
    return SimulationSpec(
        id=sim_id,
        size_range=(scaled_count(lo, scale), scaled_count(hi, scale)),
        n_clients=scaled_count(n_clients, scale),
        global_epochs=global_epochs,
        participation_fraction=participation_fraction,
        train=TrainConfig(local_epochs=local_epochs),
        weighting=weighting,
        fixed_client_data=fixed_client_data,
    )


@dataclass(frozen=True)
class Population:
    """Each client's survey size and country index; client i is row i.

    Both arrays are read-only integers fixed for the whole run.
    """

    sizes: np.ndarray
    countries: np.ndarray

    def __post_init__(self):
        self.sizes.flags.writeable = False
        self.countries.flags.writeable = False

    def __len__(self) -> int:
        return len(self.sizes)


@dataclass(frozen=True)
class RoundReport:
    round: int  # 1-based, like the epochs of the CSVs
    participating_clients: int
    skipped_empty_clients: int
    mean_local_loss: float | None  # None when no client trained
    wall_time: float
    # the round's seconds in synthesize_client, in train_local and mean_loss, and in
    # fedavg_aggregate; like wall_time, those of the whole run_round call
    synthesis_s: float
    training_s: float
    aggregation_s: float


def build_population(spec: SimulationSpec, surveys: list[CountrySurvey],
                     rng: np.random.Generator) -> Population:
    """Fix each client's size and country for the whole run."""
    lo, hi = spec.size_range
    sizes = rng.integers(lo, hi + 1, size=spec.n_clients)
    return Population(sizes, assign_countries(spec.n_clients, surveys, rng))


# ~2.3e-13: a merged value is within this share of max(1, |exact mean|), plus
# the final rounding. Trained updates spread far too little to reach the
# exact path (at K = 250 it needs a spread above ~4 * max(1, |mean|)).
_MERGE_TOLERANCE = 2.0 ** -42


def fedavg_aggregate(updates: list[tuple[MlpParameters, int]]) -> MlpParameters:
    """Weighted mean of parameter sets, weights n_k / sum(n_k).

    Computed as first update plus the weighted deltas of the rest, so a
    round where every client returns the same parameters reproduces them
    exactly, whatever the weights. Summation follows list order; callers
    pass updates in ascending client_id order so reruns are bit-identical.

    The round-off of that form grows with the spread of the updates, not
    with the mean: for K updates it is below (K + 2) * eps * spread, where
    spread = sum_k (n_k / total) * |x_k - x_1|. Where that bound could
    exceed _MERGE_TOLERANCE * max(1, |mean|), as when large updates cancel,
    the value is replaced by the exact weighted mean, rounded once.
    """
    if not updates:
        raise ValueError("no surviving clients this round")
    for _, n in updates:
        if n < 1:
            raise ValueError("update weights must be positive integers")
    total = sum(n for _, n in updates)
    base = updates[0][0].flat
    delta = np.zeros_like(base)
    spread = np.zeros_like(base)
    for params, n in updates[1:]:
        diff = params.flat - base
        delta += (n / total) * diff
        spread += (n / total) * np.abs(diff, out=diff)
    merged = base + delta
    bound = (len(updates) + 2) * np.finfo(np.float64).eps * spread
    inexact = np.flatnonzero(bound > _MERGE_TOLERANCE * np.maximum(1.0, np.abs(merged)))
    if inexact.size:
        weights = [n for _, n in updates]
        columns = np.stack([params.flat[inexact] for params, _ in updates], axis=1)
        merged[inexact] = [_exact_mean(values, weights) for values in columns.tolist()]
    # merged is this call's own array, so it is adopted without a copy
    return MlpParameters._adopt(merged)


def _exact_mean(values: list[float], weights: list[int]) -> float:
    """sum(n * v) / sum(n) on exact rationals, rounded once to a float."""
    return float(sum(Fraction(v) * n for v, n in zip(values, weights)) / sum(weights))


def run_round(params: list[MlpParameters], round_index: int, populations: list[Population],
              spec: SimulationSpec, distributions: list, phrases: PhraseTable,
              runs: list[tuple[NoiseMechanism, int]]
              ) -> tuple[list[MlpParameters], list[RoundReport]]:
    """Execute one broadcast / local-train / aggregate cycle of 0-based round_index for each run.

    Run r has global parameters params[r], population populations[r] and
    (noise, master_seed) runs[r]; all share spec's topology, local
    training, weighting and fixed_client_data. Each run selects
    its clients with its own stream and derives their data and training
    streams in one call each, and they are synthesized run by run,
    each run's in client_id order, into windows shared by the call. A
    window trains once it holds WINDOW_EXAMPLES examples, and once more
    after the last client, in one train_local call, as one mlp.Window
    (its clients' arrays in one size-sorted layout) with a start and a
    stream per client; from then on the round holds none of their
    datasets, so their examples are held once, in the window. train_local
    returns one output block, a row per client in the window's order, and
    one mean_loss call scores each row on its own client's data. The
    block's rows, wrapped without a copy, are the updates, each weighted
    by its client's size as the window read it. Each run then merges its
    updates, in ascending client_id order, with its own fedavg_aggregate.
    Clients that come up empty are skipped; a run in which every selected
    client does so carries its global parameters forward unchanged. Each
    run gets its own RoundReport; its wall_time and stage times
    (synthesis, training and aggregation) are those of the whole call's
    round.
    """
    started = time.perf_counter()
    synthesis_s = training_s = 0.0
    data_round = 0 if spec.fixed_client_data else round_index

    # per run: its updates, their local losses and its skipped clients
    updates: list[list[tuple[MlpParameters, int]]] = [[] for _ in runs]
    losses: list[list[float]] = [[] for _ in runs]
    skipped = [0] * len(runs)
    # this window's non-empty clients: their datasets, until the window takes them, and
    # their (run, training stream) pairs
    datasets: list[ClientDataset] = []
    pending: list[tuple[int, np.random.Generator]] = []
    by_examples = spec.weighting == WEIGHT_BY_EXAMPLES

    def train_window() -> None:
        nonlocal training_s
        window = Window(datasets)
        datasets.clear()  # the window holds the examples now
        begun = time.perf_counter()
        # positional, under this module's names: perfbench wraps them there
        block = train_local([params[r] for r, _ in pending], window, spec.train,
                            [rng for _, rng in pending])
        window_losses = mean_loss(block, window)
        training_s += time.perf_counter() - begun
        # block row p is client window.order[p]; each run takes its updates in input order
        position = [0] * len(pending)
        for p, i in enumerate(window.order):
            position[i] = p
        for (r, _), p in zip(pending, position):
            weight = window.sizes[p] if by_examples else 1
            updates[r].append((MlpParameters._wrap(block[p]), weight))
            losses[r].append(window_losses[p])
        pending.clear()

    held = 0
    for r, ((noise, master_seed), population) in enumerate(zip(runs, populations)):
        selection = streams.selection_stream(master_seed, round_index)
        # sorted() over Python ints: np.sort would map ~0.3 MB more numpy code into RSS
        chosen = sorted(selection.choice(len(population), size=spec.clients_per_round,
                                         replace=False).tolist())
        # keyed streams: a train stream derived for a client that comes up empty goes unused
        for client_id, data_rng, train_rng in zip(
                chosen, streams.client_data_stream(master_seed, chosen, data_round),
                streams.client_train_stream(master_seed, chosen, round_index)):
            n_persons = int(population.sizes[client_id])
            country = int(population.countries[client_id])
            begun = time.perf_counter()
            # unnamed, so that no variable still holds it once the window takes it
            datasets.append(synthesize_client(n_persons, distributions[country], noise,
                                              phrases, data_rng))
            synthesis_s += time.perf_counter() - begun
            examples = len(datasets[-1])
            if examples == 0:
                datasets.pop()
                skipped[r] += 1
                continue
            pending.append((r, train_rng))
            held += examples
            if held >= WINDOW_EXAMPLES:
                train_window()
                held = 0
    if pending:
        train_window()

    begun = time.perf_counter()
    merged = [fedavg_aggregate(run_updates) if run_updates else run_params
              for run_params, run_updates in zip(params, updates)]
    aggregation_s = time.perf_counter() - begun
    wall_time = time.perf_counter() - started
    reports = [RoundReport(
        round=round_index + 1,
        participating_clients=len(run_updates),
        skipped_empty_clients=run_skipped,
        mean_local_loss=float(np.mean(run_losses)) if run_losses else None,
        wall_time=wall_time,
        synthesis_s=synthesis_s,
        training_s=training_s,
        aggregation_s=aggregation_s,
    ) for run_updates, run_skipped, run_losses in zip(updates, skipped, losses)]
    return merged, reports


def run_simulation(spec: SimulationSpec, surveys: list[CountrySurvey], corpus,
                   embeddings: EmbeddingTable, runs: list[tuple[NoiseMechanism, int]]
                   ) -> list[tuple[list[MlpParameters], list[RoundReport]]]:
    """Run spec.global_epochs rounds of each (noise, master_seed) run under spec, side by side.

    Returns one (snapshots, reports) per run, in order: the parameters
    after init and after every round, and each round's report. The runs
    step their rounds together through run_round, so the clients of all
    of them train in shared lockstep windows, and each run keeps its own
    init, population and keyed streams. Since each client trains as if
    alone, a run's snapshots and reports (but for their times) do not depend
    on the runs it is simulated with.

    The population stream never sees the noise settings, so sweeps at a
    fixed seed share client sizes and countries across noise levels.
    Every phrase a client can emit is encoded once per call, up front.
    """
    if not runs:
        raise ValueError("no runs to simulate")
    distributions = [build_distribution(s) for s in surveys]
    phrases = build_phrase_table(embeddings, corpus, distributions)
    params = [init_params(streams.init_stream(seed)) for _, seed in runs]
    populations = [build_population(spec, surveys, streams.population_stream(seed))
                   for _, seed in runs]

    snapshots = [[run_params] for run_params in params]
    reports: list[list[RoundReport]] = [[] for _ in runs]
    for round_index in range(spec.global_epochs):
        params, round_reports = run_round(params, round_index, populations, spec,
                                          distributions, phrases, runs)
        for run_snapshots, run_reports, run_params, report in zip(snapshots, reports, params,
                                                                  round_reports):
            run_snapshots.append(run_params)
            run_reports.append(report)
    return list(zip(snapshots, reports))
