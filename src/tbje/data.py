"""DatasetBundle: the on-disk interchange format between feature extraction,
training, and evaluation.

A bundle is a directory:

    manifest.json                       canonical JSON (sorted keys)
    vocab.json / vocab.embeddings.tbjt  optional vocabulary
    <split>/<M>.features.tbjt           (count, length, width) float64
    <split>/<M>.mask.tbjt               (count, length) 0/1
    <split>/labels.sentiment.tbjt       raw values in [-3, 3]
    <split>/labels.emotions.tbjt        (count, 6) 0/1 flags

Labels stay raw; binning to 2/7 sentiment classes happens at train/eval
time so one bundle serves every task.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, ContractError, json_kind
from .features import ModalityBatch, Vocabulary
from .metrics import EMOTIONS, SENTIMENT_MAX, SENTIMENT_MIN
from .tensor import load_array, read_json, save_array, write_dir, write_file

BUNDLE_VERSION = 1
MANIFEST_NAME = "manifest.json"


@dataclass
class Split:
    name: str
    ids: list[str]
    batches: dict[str, ModalityBatch]
    sentiment: np.ndarray
    emotions: np.ndarray

    def __post_init__(self):
        self.sentiment = np.asarray(self.sentiment, dtype=np.float64)
        self.emotions = np.asarray(self.emotions, dtype=np.int64)
        n = len(self.ids)
        for m, batch in self.batches.items():
            if len(batch) != n:
                raise ContractError(
                    f"split {self.name}: modality {m} holds {len(batch)} "
                    f"examples but there are {n} ids")
        if self.sentiment.shape != (n,):
            raise ContractError(
                f"split {self.name}: sentiment labels shaped "
                f"{self.sentiment.shape}, expected ({n},)")
        if self.emotions.shape != (n, len(EMOTIONS)):
            raise ContractError(
                f"split {self.name}: emotion labels shaped "
                f"{self.emotions.shape}, expected ({n}, {len(EMOTIONS)})")
        if n and (self.sentiment.min() < SENTIMENT_MIN
                  or self.sentiment.max() > SENTIMENT_MAX):
            raise ContractError(
                f"split {self.name}: sentiment outside "
                f"[{SENTIMENT_MIN:g}, {SENTIMENT_MAX:g}]")
        if np.any((self.emotions != 0) & (self.emotions != 1)):
            raise ContractError(
                f"split {self.name}: emotion flags must be 0/1")

    @property
    def size(self) -> int:
        return len(self.ids)


@dataclass
class DatasetBundle:
    modalities: dict[str, dict]          # tag -> {"width": int, "length": int}
    splits: dict[str, Split]
    vocab_hash: Optional[str] = None
    normalization: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, split in self.splits.items():
            if set(split.batches) != set(self.modalities):
                raise ConfigError(
                    f"split {name} carries modalities "
                    f"{sorted(split.batches)} but the bundle declares "
                    f"{sorted(self.modalities)}")
            for m, entry in self.modalities.items():
                got = split.batches[m].features.shape[1:]
                want = (entry["length"], entry["width"])
                if got != want:
                    raise ConfigError(
                        f"split {name} modality {m} shaped {got}, manifest "
                        f"says {want}")

    def manifest(self) -> dict:
        return {
            "format_version": BUNDLE_VERSION,
            "modalities": {m: dict(v) for m, v in self.modalities.items()},
            "splits": {name: {"ids": list(s.ids), "count": s.size}
                       for name, s in self.splits.items()},
            "vocab_hash": self.vocab_hash,
            "normalization": self.normalization,
        }


def write_canonical_json(path, obj) -> None:
    text = json.dumps(obj, sort_keys=True, indent=1, ensure_ascii=False)
    write_file(path, lambda fh: fh.write((text + "\n").encode("utf-8")))


def check_bundle_target(root) -> None:
    """Refuse a ``root`` that exists and is neither an empty directory nor
    a bundle, since ``write_bundle`` would replace it whole."""
    root = Path(root)
    if root.exists() and not (root.is_dir() and (
            (root / MANIFEST_NAME).is_file() or not any(root.iterdir()))):
        raise ConfigError(f"{root} is neither a bundle nor an empty "
                          f"directory; a bundle written there would replace "
                          f"it whole")


def write_bundle(root, bundle: DatasetBundle,
                 vocab: Optional[Vocabulary] = None) -> None:
    """Write ``bundle`` to the directory ``root``, replacing it whole (see
    ``tensor.write_dir``); a ``root`` that ``check_bundle_target`` refuses
    is left as it was."""
    check_bundle_target(root)

    def write(tmp: Path):
        write_canonical_json(tmp / MANIFEST_NAME, bundle.manifest())
        if vocab is not None:
            write_canonical_json(tmp / "vocab.json",
                                 {"tokens": vocab.tokens,
                                  "fallback_count": vocab.fallback_count})
            save_array(tmp / "vocab.embeddings.tbjt", vocab.embeddings)
        for name, split in bundle.splits.items():
            sub = tmp / name
            sub.mkdir()
            for m, batch in split.batches.items():
                save_array(sub / f"{m}.features.tbjt", batch.features)
                save_array(sub / f"{m}.mask.tbjt",
                           batch.mask.astype(np.float64))
            save_array(sub / "labels.sentiment.tbjt", split.sentiment)
            save_array(sub / "labels.emotions.tbjt",
                       split.emotions.astype(np.float64))
    write_dir(root, write)


def read_bundle(root, names=None) -> DatasetBundle:
    """The bundle at ``root`` with the splits ``names`` (default: all). The
    whole manifest is checked; only the named splits' files are read."""
    root = Path(root)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise FileNotFoundError(f"no bundle manifest at {manifest_path}")
    manifest = read_json(manifest_path.read_bytes(),
                         f"bundle manifest {manifest_path}",
                         required=("splits", "modalities"))
    if manifest.get("format_version") != BUNDLE_VERSION:
        raise ConfigError(
            f"bundle format version {manifest.get('format_version')} "
            f"unsupported; this build reads {BUNDLE_VERSION}")

    for key, fields in (
            ("splits", {"ids": "an array", "count": "an integer"}),
            ("modalities", dict.fromkeys(("width", "length"), "an integer"))):
        if not isinstance(manifest[key], dict):
            raise ConfigError(f"bundle manifest {manifest_path}: {key!r} "
                              f"must be a JSON object")
        for name, entry in manifest[key].items():
            if not isinstance(entry, dict) or not fields.keys() <= set(entry):
                raise ConfigError(f"bundle manifest {manifest_path}: {key} "
                                  f"entry {name!r} needs {sorted(fields)}")
            for part, want in fields.items():
                got = json_kind(entry[part])
                if got != want:
                    raise ConfigError(
                        f"bundle manifest {manifest_path}: {key} entry "
                        f"{name!r} key {part!r} must be {want}, got {got}")
    listed = manifest["splits"]
    for name, entry in listed.items():
        seen = set()
        for id_ in entry["ids"]:
            problem = ("is not a string" if not isinstance(id_, str) else
                       "is repeated" if id_ in seen else None)
            if problem:
                raise ConfigError(f"bundle manifest {manifest_path}: splits "
                                  f"entry {name!r} id {json.dumps(id_)} "
                                  f"{problem}")
            seen.add(id_)
    missing = [n for n in names or () if n not in listed]
    if missing:
        raise ConfigError(f"bundle lacks required splits {missing}; "
                          f"has {sorted(listed)}")
    wanted = {n: listed[n] for n in (listed if names is None else names)}
    files = [f"{m}.{kind}.tbjt" for m in manifest["modalities"]
             for kind in ("features", "mask")]
    files += ["labels.sentiment.tbjt", "labels.emotions.tbjt"]
    missing = [str(root / name / f) for name in wanted for f in files
               if not (root / name / f).is_file()]
    if missing:
        raise FileNotFoundError(
            "bundle is missing files:\n  " + "\n  ".join(missing))

    splits = {}
    for name, entry in wanted.items():
        batches = {}
        for m in manifest["modalities"]:
            feats = load_array(root / name / f"{m}.features.tbjt")
            mask = load_array(root / name / f"{m}.mask.tbjt").astype(bool)
            batches[m] = ModalityBatch(feats, mask, m)
        split = Split(name=name, ids=list(entry["ids"]), batches=batches,
                      sentiment=load_array(root / name / "labels.sentiment.tbjt"),
                      emotions=load_array(root / name / "labels.emotions.tbjt"))
        if split.size != entry["count"]:
            raise ConfigError(
                f"split {name} holds {split.size} examples, manifest "
                f"says {entry['count']}")
        splits[name] = split
    return DatasetBundle(modalities=manifest["modalities"], splits=splits,
                         vocab_hash=manifest.get("vocab_hash"),
                         normalization=manifest.get("normalization", {}))


def load_vocabulary(root) -> Vocabulary:
    root = Path(root)
    path = root / "vocab.json"
    meta = read_json(path.read_bytes(), f"vocabulary {path}",
                     required=("tokens", "fallback_count"))
    return Vocabulary(tokens=meta["tokens"],
                      embeddings=load_array(root / "vocab.embeddings.tbjt"),
                      fallback_count=meta["fallback_count"])
