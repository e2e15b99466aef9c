"""FedAvg orchestration over the four simulated client topologies.

One round = broadcast the global parameters, synthesize fresh survey
data per selected client, train locally, aggregate the surviving
updates as a weighted mean. Every random draw comes from a stream keyed
by (master seed, purpose, client, round), so results are independent of
scheduling order, and of how a round's clients are grouped for training.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import rng as streams
from .embeddings import EmbeddingTable
from .mlp import (
    Cohort,
    MlpParameters,
    TrainConfig,
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


@dataclass(frozen=True)
class SimulationSpec:
    """Client topology and schedule of one simulation."""

    id: str
    size_range: tuple[int, int]
    n_clients: int
    global_epochs: int = 5
    participation_fraction: float = 1.0

    def __post_init__(self):
        lo, hi = self.size_range
        if not (1 <= lo <= hi):
            raise ValueError(f"bad size_range {self.size_range}")
        if self.n_clients < 1:
            raise ValueError("n_clients must be positive")
        if not 0.0 < self.participation_fraction <= 1.0:
            raise ValueError("participation_fraction must be in (0, 1]")
        if _rounded_product(self.n_clients, self.participation_fraction) < 1.0:
            raise ValueError("participation_fraction selects no clients")
        if self.global_epochs < 0:
            raise ValueError("global_epochs must be non-negative")

    @property
    def clients_per_round(self) -> int:
        """participation_fraction of n_clients, rounded up; __post_init__ keeps it at least 1."""
        return scaled_count(self.n_clients, self.participation_fraction)


def simulation_spec(sim_id: str, scale: float = 1.0,
                    participation_fraction: float | None = None,
                    global_epochs: int = 5) -> SimulationSpec:
    """Build a spec from the standard topology table, optionally scaled.

    `scale` multiplies both the per-client size range and the client
    count, rounding up to at least 1, so desk-size runs keep the shape
    of the full topology.
    """
    if sim_id not in _TOPOLOGY:
        raise ValueError(f"unknown simulation id {sim_id!r}; expected one of {SIMULATION_IDS}")
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


@dataclass(frozen=True)
class FederationConfig:
    """Everything about a run that is not topology or data."""

    noise: NoiseMechanism
    train: TrainConfig = field(default_factory=TrainConfig)
    weighting: str = WEIGHT_BY_EXAMPLES
    fixed_client_data: bool = False

    def __post_init__(self):
        if self.weighting not in WEIGHTINGS:
            raise ValueError(f"weighting must be one of {WEIGHTINGS}")


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


def run_round(params: MlpParameters, round_index: int, population: Population,
              spec: SimulationSpec, distributions: list, phrases: PhraseTable,
              config: FederationConfig, master_seed: int) -> tuple[MlpParameters, RoundReport]:
    """Execute one broadcast / local-train / aggregate cycle of 0-based round_index.

    The selected clients are synthesized in client_id order into windows.
    A window closes once it holds WINDOW_EXAMPLES examples, or at the last
    client, and its non-empty datasets train in one train_local call, as
    one Cohort with a stream per client. One mean_loss call then scores
    each update on its own client's data. Updates and losses stay in
    ascending client_id order.
    Clients that come up empty are skipped; a round in which every
    selected client does so carries the global parameters forward unchanged.
    """
    started = time.perf_counter()

    selection = streams.selection_stream(master_seed, round_index)
    # sorted() over Python ints: np.sort would map ~0.3 MB more numpy code into RSS
    chosen = sorted(selection.choice(len(population), size=spec.clients_per_round,
                                     replace=False).tolist())

    updates: list[tuple[MlpParameters, int]] = []
    losses: list[float] = []
    skipped = 0
    # this window's non-empty datasets, their training streams and their examples
    window: list[ClientDataset] = []
    rngs: list[np.random.Generator] = []
    held = 0
    data_round = 0 if config.fixed_client_data else round_index
    for position, client_id in enumerate(chosen, start=1):
        n_persons = int(population.sizes[client_id])
        country = int(population.countries[client_id])
        data_rng = streams.client_data_stream(master_seed, client_id, data_round)
        dataset = synthesize_client(n_persons, distributions[country], config.noise, phrases,
                                    data_rng)
        if len(dataset) == 0:
            skipped += 1
        else:
            window.append(dataset)
            rngs.append(streams.client_train_stream(master_seed, client_id, round_index))
            held += len(dataset)
        if window and (held >= WINDOW_EXAMPLES or position == len(chosen)):
            cohort = Cohort(tuple(window))
            # positional, under this module's names: perfbench wraps them there
            trained = train_local(params, cohort, config.train, rngs)
            losses += mean_loss(trained, cohort)
            for dataset, local in zip(window, trained):
                weight = len(dataset) if config.weighting == WEIGHT_BY_EXAMPLES else 1
                updates.append((local, weight))
            window, rngs, held = [], [], 0

    new_params = fedavg_aggregate(updates) if updates else params
    report = RoundReport(
        round=round_index + 1,
        participating_clients=len(updates),
        skipped_empty_clients=skipped,
        mean_local_loss=float(np.mean(losses)) if losses else None,
        wall_time=time.perf_counter() - started,
    )
    return new_params, report


def run_simulation(spec: SimulationSpec, surveys: list[CountrySurvey], corpus,
                   embeddings: EmbeddingTable, config: FederationConfig,
                   master_seed: int) -> tuple[list[MlpParameters], list[RoundReport]]:
    """Run global_epochs rounds; snapshot the parameters after init and every round.

    The population stream never sees the noise settings, so sweeps at a
    fixed seed share client sizes and countries across noise levels.
    Every phrase a client can emit is encoded once, up front.
    """
    params = init_params(streams.init_stream(master_seed))
    population = build_population(spec, surveys, streams.population_stream(master_seed))
    distributions = [build_distribution(s) for s in surveys]
    phrases = build_phrase_table(embeddings, corpus, distributions)

    snapshots = [params]
    reports: list[RoundReport] = []
    for round_index in range(spec.global_epochs):
        params, report = run_round(params, round_index, population, spec, distributions,
                                   phrases, config, master_seed)
        snapshots.append(params)
        reports.append(report)
    return snapshots, reports
