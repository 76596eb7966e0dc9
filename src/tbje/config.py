"""RunConfig: one human-readable JSON file holding the encoder, training,
and mel settings plus file paths. Defaults give the full-scale bimodal
L+A recipe, so `tbje train` with no flags runs that configuration on
whatever bundle the paths point at."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, check_section
from .features import MelConfig
from .model import EncoderConfig
from .tensor import read_json
from .training import TrainConfig

PATH_KEYS = ("manifest", "embeddings", "bundle", "out")


def default_encoder() -> EncoderConfig:
    """The full-scale bimodal configuration: 6 joint blocks of width 512."""
    return EncoderConfig(
        modalities=("L", "A"), primary="L", blocks=6, width=512, heads=4,
        mlp_width=1024, lengths={"L": 50, "A": 40},
        input_widths={"L": 300, "A": 80}, task="sentiment-2",
        positional={"L": True})


def mel_to_dict(cfg: MelConfig) -> dict:
    return dataclasses.asdict(cfg)


def mel_from_dict(raw: dict) -> MelConfig:
    return MelConfig(**check_section(raw, mel_to_dict(MelConfig()), "mel"))


@dataclass
class RunConfig:
    encoder: EncoderConfig = field(default_factory=default_encoder)
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
        return {
            "encoder": self.encoder.to_dict(),
            "training": self.training.to_dict(),
            "mel": mel_to_dict(self.mel),
            "paths": dict(self.paths),
        }

    @staticmethod
    def from_dict(raw: dict) -> "RunConfig":
        check_section(raw, {"encoder": {}, "training": {}, "mel": {},
                            "paths": {}})
        kwargs = {}
        if "encoder" in raw:
            kwargs["encoder"] = EncoderConfig.from_dict(raw["encoder"])
        if "training" in raw:
            kwargs["training"] = TrainConfig.from_dict(raw["training"])
        if "mel" in raw:
            kwargs["mel"] = mel_from_dict(raw["mel"])
        if "paths" in raw:
            kwargs["paths"] = dict(check_section(
                raw["paths"], dict.fromkeys(PATH_KEYS, ""), "paths"))
        return RunConfig(**kwargs)


def save_run_config(path, cfg: RunConfig) -> None:
    text = json.dumps(cfg.to_dict(), sort_keys=True, indent=1,
                      ensure_ascii=False) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def load_run_config(path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no config file at {path}")
    return RunConfig.from_dict(read_json(path.read_bytes(),
                                         f"config file {path}"))
