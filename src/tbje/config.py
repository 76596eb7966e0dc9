"""RunConfig: one human-readable JSON file holding the encoder, training,
and mel settings plus file paths. Defaults give the full-scale bimodal
L+A recipe, so `tbje train` with no flags runs that configuration on
whatever bundle the paths point at."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

from .data import write_canonical_json
from .errors import ConfigError, check_section, read_section
from .features import MelConfig
from .model import EncoderConfig
from .tensor import read_json
from .training import TrainConfig

PATH_KEYS = ("manifest", "embeddings", "bundle", "out")


@dataclass
class RunConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    mel: MelConfig = field(default_factory=MelConfig)
    paths: dict = field(default_factory=dict)

    def __post_init__(self):
        unknown = set(self.paths) - set(PATH_KEYS)
        if unknown:
            raise ConfigError(f"unknown path keys {sorted(unknown)}; "
                              f"known: {list(PATH_KEYS)}")

    def path(self, key: str):
        value = self.paths.get(key)
        return None if value is None else Path(value)

    def require_path(self, key: str) -> Path:
        value = self.path(key)
        if value is None:
            raise ConfigError(f"no {key!r} path given; set paths.{key} in "
                              f"the config file or pass --{key}")
        return value

    def to_dict(self) -> dict:
        return {**asdict(self), "encoder": self.encoder.to_dict()}

    @staticmethod
    def from_dict(raw: dict) -> "RunConfig":
        raw = check_section(raw, dict.fromkeys(_SECTIONS, {}))
        return RunConfig(**{key: read(raw[key])
                            for key, read in _SECTIONS.items() if key in raw})


# the reader of each RunConfig section, in the order their errors are raised
_SECTIONS = {
    "encoder": EncoderConfig.from_dict,
    "training": TrainConfig.from_dict,
    "mel": lambda raw: read_section(MelConfig, raw, "mel"),
    "paths": lambda raw: check_section(raw, dict.fromkeys(PATH_KEYS, ""),
                                       "paths"),
}


def save_run_config(path, cfg: RunConfig) -> None:
    write_canonical_json(path, cfg.to_dict())


def load_run_config(path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no config file at {path}")
    return RunConfig.from_dict(read_json(path.read_bytes(),
                                         f"config file {path}"))
