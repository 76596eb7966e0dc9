"""Generates a miniature on-disk corpus (transcripts, wavs, visual feature
files, embedding table, manifest CSV) for exercising the CLI end to end,
and the byte offsets at which to cut toy artifacts in truncation tests."""

import csv
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from tbje.config import RunConfig, save_run_config
from tbje.features import MelConfig
from tbje.model import EncoderConfig
from tbje.tensor import TENSOR_MAGIC, save_array
from tbje.training import TrainConfig

TRANSCRIPTS = [
    "What a wonderful little film!",
    "I hated every minute of it.",
    "The acting was fine, nothing special.",
    "Brilliant soundtrack and a moving story.",
    "Terribly boring; I walked out early.",
    "A pleasant surprise from start to finish.",
    "Mediocre at best, forgettable at worst.",
    "An absolute joy to watch.",
]

SENTIMENTS = [2.5, -2.0, 0.5, 3.0, -2.8, 1.5, -0.5, 2.9]
SPLITS = ["train", "train", "train", "train", "valid", "valid",
          "test", "test"]

VOCAB_WITH_VECTORS = [
    "what", "a", "wonderful", "little", "film", "i", "hated", "every",
    "minute", "of", "it", "the", "acting", "was", "fine", "nothing",
    "brilliant", "and", "moving", "story", "boring", "walked", "out",
]

MEL = MelConfig(sample_rate=4000, n_fft=256, hop=64, window=128, bands=8,
                stride=4)


def write_embeddings(path: Path, seed: int = 0) -> None:
    rng = np.random.default_rng(seed)
    with open(path, "w", encoding="utf-8") as fh:
        for token in VOCAB_WITH_VECTORS:
            vector = rng.uniform(-0.5, 0.5, size=300)
            fh.write(token + " " + " ".join(f"{v:.6f}" for v in vector)
                     + "\n")


def build_toy_corpus(root, with_audio=True, with_visual=True,
                     seed: int = 0) -> Path:
    """Writes the corpus under root/ and returns the manifest path."""
    root = Path(root)
    (root / "text").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    columns = ["id", "split", "transcript", "sentiment"]
    if with_audio:
        (root / "audio").mkdir(exist_ok=True)
        columns.insert(3, "audio")
    if with_visual:
        (root / "visual").mkdir(exist_ok=True)
        columns.insert(3, "visual")
    columns += ["happy", "sad", "angry", "fear", "disgust", "surprise"]

    rows = []
    for i, (text, split, score) in enumerate(
            zip(TRANSCRIPTS, SPLITS, SENTIMENTS)):
        row = {"id": f"utt{i:02d}", "split": split,
               "transcript": f"text/utt{i:02d}.txt",
               "sentiment": str(score)}
        (root / row["transcript"]).write_text(text, encoding="utf-8")
        if with_audio:
            row["audio"] = f"audio/utt{i:02d}.wav"
            t = np.arange(int(0.2 * MEL.sample_rate)) / MEL.sample_rate
            freq = 200.0 + 150.0 * i
            wave = (0.4 * np.sin(2 * np.pi * freq * t)
                    + 0.05 * rng.normal(size=t.size))
            wavfile.write(root / row["audio"], MEL.sample_rate,
                          (wave * 32000).astype(np.int16))
        if with_visual:
            row["visual"] = f"visual/utt{i:02d}.tbjt"
            save_array(root / row["visual"],
                       rng.normal(size=(3 + i % 3, 5)))
        flags = [int(score > 1.0), int(score < -1.0), int(score < -2.5),
                 0, int(score < 0), int(abs(score) > 2.7)]
        for name, flag in zip(columns[-6:], flags):
            row[name] = str(flag)
        rows.append(row)

    manifest = root / "manifest.csv"
    with open(manifest, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    write_embeddings(root / "embeddings.txt")
    return manifest


def toy_run_config(root, with_audio=True, with_visual=True,
                   **training_overrides) -> Path:
    """RunConfig JSON sized to the toy corpus; returns the file path."""
    root = Path(root)
    modalities = ["L"]
    lengths = {"L": 6}
    widths = {"L": 300}
    if with_audio:
        modalities.append("A")
        lengths["A"] = 4
        widths["A"] = MEL.bands
    if with_visual:
        modalities.append("V")
        lengths["V"] = 3
        widths["V"] = 5
    encoder = EncoderConfig(
        modalities=tuple(modalities), primary="L", blocks=1, width=16,
        heads=2, mlp_width=24, lengths=lengths, input_widths=widths,
        task="sentiment-2", positional={"L": True})
    training = dict(lr=2e-3, batch_size=4, decay_factor=0.5, max_decays=2,
                    patience=150, max_epochs=3, ensemble_size=2, seed=0)
    training.update(training_overrides)
    cfg = RunConfig(
        encoder=encoder,
        training=TrainConfig(**training), mel=MEL,
        paths={"manifest": str(root / "manifest.csv"),
               "embeddings": str(root / "embeddings.txt"),
               "bundle": str(root / "bundle"),
               "out": str(root / "run")})
    path = root / "config.json"
    save_run_config(path, cfg)
    return path


def truncation_cuts(blob: bytes, stride: int, start: int = 0) -> list[int]:
    """Every offset of ``blob[start:]`` outside a TBJT float payload, and
    every ``stride``-th offset inside one."""
    cuts, pos = [], start
    while (head := blob.find(TENSOR_MAGIC, pos)) >= 0:
        rank = blob[head + 4]
        extents = np.frombuffer(blob, dtype="<u4", count=rank, offset=head + 5)
        payload = head + 5 + 4 * rank
        stop = payload + 8 * int(np.prod(extents))
        cuts += list(range(pos, payload)) + list(range(payload, stop, stride))
        pos = stop
    return cuts + list(range(pos, len(blob)))
