"""Run configuration: a JSON file merged with command-line overrides.

A run's seed is mandatory and never defaulted from the clock; a run is
meant to be reproducible from its manifest alone. A sweep takes its
seeds from --seeds, each checked like a master_seed, and refuses a
master_seed, so its manifest records None.
A RunConfig checks each value's type and builds the one SimulationSpec
that all its runs share (topology, schedule, local epochs, weighting and
fixed client data), so a bad setting fails before any input loads. The
noise settings stay out of it, as each run of a sweep has its own; the
NoiseMechanism that run and sweep build checks them, also up front.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

from . import assets
from .federation import SimulationSpec, simulation_spec
from .sampling import NO_NOISE, NoiseMechanism

MAX_SEED = 2 ** 64 - 1


def check_seed(seed: int, name: str) -> None:
    """Refuse a seed that does not fit in 64 bits, naming where it came from."""
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"{name} must fit in 64 bits, got {seed}")


# simulation_spec's keyword defaults, so each topology and training default has one home
_SPEC_DEFAULTS = simulation_spec.__kwdefaults__

# field annotation (without "| None") -> the accepted type; bool is not an int here
_TYPES = {"int": int, "float": float, "bool": bool, "str": str}


@dataclass(frozen=True)
class RunConfig:
    master_seed: int | None = None
    simulation: str = "I"
    mechanism: str = NO_NOISE.kind
    noise_level: float = NO_NOISE.noise_level
    epsilon: float | None = None
    scale: float = _SPEC_DEFAULTS["scale"]
    participation_fraction: float | None = _SPEC_DEFAULTS["participation_fraction"]
    local_epochs: int = _SPEC_DEFAULTS["local_epochs"]
    global_epochs: int = _SPEC_DEFAULTS["global_epochs"]
    weighting: str = _SPEC_DEFAULTS["weighting"]
    fixed_client_data: bool = _SPEC_DEFAULTS["fixed_client_data"]
    epoch: int | None = None
    output_dir: str = "out"
    embeddings_path: str = assets.default_embeddings_path()
    surveys_path: str = assets.default_surveys_path()
    corpus_path: str = assets.default_corpus_path()

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kind = f.type.removesuffix(" | None")
            if value is None and kind != f.type:
                continue
            if kind == "float" and type(value) is int:
                value = float(value)
                object.__setattr__(self, f.name, value)
            if type(value) is not _TYPES[kind]:
                raise ValueError(f"{f.name} must be of type {kind}, got {value!r}")
        if self.master_seed is not None:
            check_seed(self.master_seed, "master_seed")
        if self.epoch is not None and self.epoch < 1:
            raise ValueError("epoch must be at least 1")
        if not self.output_dir:
            raise ValueError("output_dir must be non-empty")
        # this constructor is the one check of the topology and training settings
        object.__setattr__(self, "_spec", simulation_spec(
            self.simulation, scale=self.scale,
            participation_fraction=self.participation_fraction,
            global_epochs=self.global_epochs, local_epochs=self.local_epochs,
            weighting=self.weighting, fixed_client_data=self.fixed_client_data))

    def spec(self) -> SimulationSpec:
        return self._spec

    def noise_mechanism(self) -> NoiseMechanism:
        return NoiseMechanism(kind=self.mechanism, noise_level=self.noise_level,
                              epsilon=self.epsilon)


FIELD_NAMES = tuple(f.name for f in fields(RunConfig))


def load_config_file(path: str) -> dict:
    """Read a JSON config file; unknown keys are rejected."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = set(data) - set(FIELD_NAMES)
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    return data


def given_settings(config_path: str | None, overrides: dict) -> dict:
    """The settings a config file and the flags give; a flag wins over the file.

    An override of None is a flag that was not given.
    """
    data = load_config_file(config_path) if config_path is not None else {}
    data.update((key, value) for key, value in overrides.items() if value is not None)
    return data
