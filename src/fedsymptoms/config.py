"""Run configuration: a JSON file merged with command-line overrides.

The seed is mandatory and never defaulted from the clock; a run is
meant to be reproducible from its manifest alone.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

from . import assets
from .federation import SIMULATION_IDS, WEIGHT_BY_EXAMPLES, WEIGHTINGS
from .sampling import LAPLACE_DP, MECHANISM_KINDS, NoiseMechanism

MAX_SEED = 2 ** 64 - 1


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
        if isinstance(self.master_seed, bool) or not isinstance(self.master_seed, int):
            raise ValueError("master_seed must be an integer")
        if not 0 <= self.master_seed <= MAX_SEED:
            raise ValueError("master_seed must fit in 64 bits")
        if self.simulation not in SIMULATION_IDS:
            raise ValueError(f"simulation must be one of {SIMULATION_IDS}")
        if self.mechanism not in MECHANISM_KINDS:
            raise ValueError(f"mechanism must be one of {MECHANISM_KINDS}")
        if not 0.0 <= self.noise_level <= 1.0:
            raise ValueError(f"noise_level {self.noise_level} outside [0, 1]")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not 0.0 < self.scale <= 1.0:
            raise ValueError(f"scale {self.scale} outside (0, 1]")
        if self.participation_fraction is not None and not 0.0 < self.participation_fraction <= 1.0:
            raise ValueError("participation_fraction must be in (0, 1]")
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be at least 1")
        if self.global_epochs < 0:
            raise ValueError("global_epochs must be non-negative")
        if self.weighting not in WEIGHTINGS:
            raise ValueError(f"weighting must be one of {WEIGHTINGS}")
        if self.epoch is not None and self.epoch < 1:
            raise ValueError("epoch must be at least 1")
        if not self.output_dir:
            raise ValueError("output_dir must be non-empty")

    def noise_mechanism(self) -> NoiseMechanism:
        if self.mechanism == LAPLACE_DP and self.epsilon is None:
            raise ValueError("laplace_dp requires epsilon")
        return NoiseMechanism(kind=self.mechanism, noise_level=self.noise_level,
                              epsilon=self.epsilon if self.mechanism == LAPLACE_DP else None)

    def manifest_dict(self) -> dict:
        return asdict(self)


_FIELD_NAMES = {f.name for f in fields(RunConfig)}


def load_config_file(path: str) -> dict:
    """Read a JSON config file; unknown keys are rejected."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = set(data) - _FIELD_NAMES
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
    for key, value in overrides.items():
        if value is not None:
            if key not in _FIELD_NAMES:
                raise ValueError(f"unknown config field {key!r}")
            data[key] = value
    if "master_seed" not in data:
        raise ValueError("master_seed is required (pass --seed or set it in the config file)")
    return RunConfig(**data)
