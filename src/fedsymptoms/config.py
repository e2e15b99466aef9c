"""Run configuration: a JSON file merged with command-line overrides.

The seed is mandatory and never defaulted from the clock; a run is
meant to be reproducible from its manifest alone. A RunConfig checks
each value's type and builds the run's SimulationSpec and
FederationConfig once, so a bad setting fails before any input loads.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace

from . import assets
from .federation import WEIGHT_BY_EXAMPLES, FederationConfig, SimulationSpec, simulation_spec
from .mlp import TrainConfig
from .sampling import LAPLACE_DP, MECHANISM_KINDS, NO_NOISE, NoiseMechanism

MAX_SEED = 2 ** 64 - 1

# field annotation (without "| None") -> the accepted type; bool is not an int here
_TYPES = {"int": int, "float": float, "bool": bool, "str": str}


@dataclass(frozen=True)
class RunConfig:
    master_seed: int
    simulation: str = "I"
    mechanism: str = "uniform_threshold"
    noise_level: float = 0.0
    epsilon: float | None = None
    scale: float = 1.0
    participation_fraction: float | None = None
    local_epochs: int = 5
    global_epochs: int = 5
    weighting: str = WEIGHT_BY_EXAMPLES
    fixed_client_data: bool = False
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
        if not 0 <= self.master_seed <= MAX_SEED:
            raise ValueError("master_seed must fit in 64 bits")
        if self.mechanism not in MECHANISM_KINDS:
            raise ValueError(f"mechanism must be one of {MECHANISM_KINDS}")
        if not 0.0 <= self.noise_level <= 1.0:
            raise ValueError(f"noise_level {self.noise_level} outside [0, 1]")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.epoch is not None and self.epoch < 1:
            raise ValueError("epoch must be at least 1")
        if not self.output_dir:
            raise ValueError("output_dir must be non-empty")
        # these constructors are the one check of the topology and training settings
        object.__setattr__(self, "_spec", simulation_spec(
            self.simulation, scale=self.scale,
            participation_fraction=self.participation_fraction,
            global_epochs=self.global_epochs))
        object.__setattr__(self, "_federation", FederationConfig(
            noise=NO_NOISE, train=TrainConfig(local_epochs=self.local_epochs),
            weighting=self.weighting, fixed_client_data=self.fixed_client_data))

    def spec(self) -> SimulationSpec:
        return self._spec

    def federation(self, noise: NoiseMechanism) -> FederationConfig:
        return replace(self._federation, noise=noise)

    def noise_mechanism(self) -> NoiseMechanism:
        return NoiseMechanism(kind=self.mechanism, noise_level=self.noise_level,
                              epsilon=self.epsilon if self.mechanism == LAPLACE_DP else None)

    def manifest_dict(self) -> dict:
        return asdict(self)


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


def resolve_config(config_path: str | None, overrides: dict,
                   defaults: dict | None = None) -> RunConfig:
    """Merge file values with overrides; overrides win; seed required.

    `defaults` fill in only where neither the file nor an override
    provides the key.
    """
    data: dict = dict(defaults) if defaults else {}
    if config_path is not None:
        data.update(load_config_file(config_path))
    data.update((key, value) for key, value in overrides.items() if value is not None)
    if "master_seed" not in data:
        raise ValueError("master_seed is required (pass --seed or set it in the config file)")
    return RunConfig(**data)
