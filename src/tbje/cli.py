"""Command-line surface.

Subcommands: extract-features, train, evaluate, gradcheck, sweep-blocks.
Exit codes: 0 success, 2 configuration/contract problems, 3 I/O problems,
4 numeric failures (divergence, failed gradient check). Every command
honors --config (a RunConfig JSON file) and --seed (which sets
training.seed), and is reproducible given them.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from .config import RunConfig, load_run_config
from .data import DatasetBundle, Split, read_bundle, write_bundle
from .errors import ConfigError, ContractError, NumericError, ShapeError
from .features import (EMBEDDING_DIM, ModalityBatch, build_vocabulary,
                       load_waveform, make_batch, mel_spectrogram,
                       normalize_mel, tokenize)
from .gradcheck import DEFAULT_TOLERANCE, check_gradients
from .metrics import EMOTIONS, SENTIMENT_MAX, SENTIMENT_MIN, evaluation_report
from .model import (EncoderConfig, TbjeModel, forward_logits, init_model,
                    load_model, save_model)
from .rng import make_rng
from .tensor import load_array
from .training import (TrainConfig, cross_entropy, ensemble_predict,
                       evaluate_accuracy, fit, gold_labels,
                       predictions_from_probabilities, train_ensemble)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

REQUIRED_COLUMNS = ("id", "split", "transcript", "sentiment") + EMOTIONS
OPTIONAL_COLUMNS = ("audio", "visual")
KNOWN_SPLITS = ("train", "valid", "test")


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _resolve_config(args) -> RunConfig:
    cfg = (load_run_config(args.config) if getattr(args, "config", None)
           else RunConfig())
    if getattr(args, "seed", None) is not None:
        cfg.training = TrainConfig(
            **{**cfg.training.to_dict(), "seed": args.seed})
    for key in ("manifest", "embeddings", "bundle", "out"):
        value = getattr(args, key, None)
        if value is not None:
            cfg.paths[key] = value
    return cfg


def _check_bundle_compatibility(cfg: RunConfig, bundle: DatasetBundle) -> None:
    problems = []
    for m in cfg.encoder.modalities:
        if m not in bundle.modalities:
            problems.append(f"modality {m} missing from the bundle")
            continue
        entry = bundle.modalities[m]
        if cfg.encoder.input_widths[m] != entry["width"]:
            problems.append(
                f"modality {m}: configured input width "
                f"{cfg.encoder.input_widths[m]} vs bundle width {entry['width']}")
        if cfg.encoder.lengths[m] != entry["length"]:
            problems.append(
                f"modality {m}: configured length {cfg.encoder.lengths[m]} "
                f"vs bundle length {entry['length']}")
    if problems:
        raise ConfigError("config/bundle mismatch:\n  " +
                          "\n  ".join(problems))


def _require_splits(bundle: DatasetBundle, names) -> None:
    missing = [n for n in names if n not in bundle.splits]
    if missing:
        raise ConfigError(f"bundle lacks required splits {missing}; "
                          f"has {sorted(bundle.splits)}")


# ---------------------------------------------------------------------------
# extract-features
# ---------------------------------------------------------------------------

def _read_manifest(path: Path) -> tuple[list[dict], list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing:
            raise ConfigError(f"manifest {path} lacks required columns "
                              f"{missing}")
        unknown = [c for c in header
                   if c not in REQUIRED_COLUMNS + OPTIONAL_COLUMNS]
        if unknown:
            raise ConfigError(f"manifest {path} has unknown columns "
                              f"{unknown}")
        rows = list(reader)
    if not rows:
        raise ConfigError(f"manifest {path} holds no examples")
    modalities = ["L"]
    if "audio" in header:
        modalities.append("A")
    if "visual" in header:
        modalities.append("V")
    return rows, modalities


def _parse_labels(row: dict, path: Path) -> tuple[float, list[int]]:
    try:
        sentiment = float(row["sentiment"])
    except ValueError:
        raise ConfigError(f"manifest {path}, example {row['id']!r}: "
                          f"bad sentiment {row['sentiment']!r}")
    if not SENTIMENT_MIN <= sentiment <= SENTIMENT_MAX:
        raise ConfigError(f"manifest {path}, example {row['id']!r}: "
                          f"sentiment {sentiment} outside "
                          f"[{SENTIMENT_MIN:g}, {SENTIMENT_MAX:g}]")
    flags = []
    for e in EMOTIONS:
        if row[e] not in ("0", "1"):
            raise ConfigError(f"manifest {path}, example {row['id']!r}: "
                              f"emotion {e} must be 0 or 1, got {row[e]!r}")
        flags.append(int(row[e]))
    return sentiment, flags


def cmd_extract_features(args) -> int:
    cfg = _resolve_config(args)
    manifest_path = cfg.require_path("manifest")
    out = cfg.require_path("bundle")
    rows, modalities = _read_manifest(manifest_path)

    base = manifest_path.parent
    seen = set()
    for row in rows:
        if not row["id"]:
            raise ConfigError(f"manifest {manifest_path}: empty example id")
        if row["id"] in seen:
            raise ConfigError(f"manifest {manifest_path}: duplicate example "
                              f"id {row['id']!r}")
        seen.add(row["id"])
        if row["split"] not in KNOWN_SPLITS:
            raise ConfigError(f"manifest {manifest_path}, example "
                              f"{row['id']!r}: unknown split "
                              f"{row['split']!r}; expected one of "
                              f"{list(KNOWN_SPLITS)}")

    # every referenced file checked up front, all problems reported at once
    missing = []
    embeddings_path = cfg.require_path("embeddings")
    if not embeddings_path.is_file():
        missing.append(str(embeddings_path))
    columns = ["transcript"] + [c for c in OPTIONAL_COLUMNS
                                if ("A" in modalities and c == "audio")
                                or ("V" in modalities and c == "visual")]
    for row in rows:
        for column in columns:
            p = base / row[column]
            if not p.is_file():
                missing.append(f"{p} ({column} of example {row['id']!r})")
    if missing:
        raise FileNotFoundError("missing input files:\n  "
                                + "\n  ".join(missing))

    by_split = {}
    for row in rows:
        by_split.setdefault(row["split"], []).append(row)
    if "train" not in by_split:
        raise ConfigError("manifest has no train examples; the vocabulary "
                          "is built from the train split")

    token_lists = {row["id"]: tokenize((base / row["transcript"]).read_text(
        encoding="utf-8")) for row in rows}
    train_tokens = [token_lists[row["id"]] for row in by_split["train"]]
    vocab = build_vocabulary(train_tokens, embeddings_path)

    mel_frames = {}
    if "A" in modalities:
        for row in rows:
            wave = load_waveform(base / row["audio"], cfg.mel.sample_rate)
            mel_frames[row["id"]] = mel_spectrogram(wave, cfg.mel)
        train_stack = np.vstack(
            [mel_frames[row["id"]] for row in by_split["train"]])
        lo, hi = float(train_stack.min()), float(train_stack.max())
        if hi <= lo:
            hi = lo + 1.0
        mel_frames = {k: normalize_mel(v, lo, hi)
                      for k, v in mel_frames.items()}

    visual = {}
    if "V" in modalities:
        widths = set()
        for row in rows:
            feats = load_array(base / row["visual"])
            if feats.ndim != 2:
                raise ConfigError(f"visual features for {row['id']!r} have "
                                  f"rank {feats.ndim}, expected 2")
            widths.add(feats.shape[1])
            visual[row["id"]] = feats
        if len(widths) != 1:
            raise ConfigError(f"inconsistent visual widths {sorted(widths)}")

    widths = {"L": EMBEDDING_DIM}
    if "A" in modalities:
        widths["A"] = cfg.mel.bands
    if "V" in modalities:
        widths["V"] = next(iter(visual.values())).shape[1]
    lengths = {m: cfg.encoder.lengths.get(m, 40) for m in modalities}

    splits = {}
    for name, split_rows in by_split.items():
        sequences = {m: [] for m in modalities}
        sentiment = []
        emotions = []
        for row in split_rows:
            sequences["L"].append(vocab.embed(token_lists[row["id"]]))
            if "A" in modalities:
                sequences["A"].append(mel_frames[row["id"]])
            if "V" in modalities:
                sequences["V"].append(visual[row["id"]])
            s, flags = _parse_labels(row, manifest_path)
            sentiment.append(s)
            emotions.append(flags)
        splits[name] = Split(
            name=name, ids=[row["id"] for row in split_rows],
            batches={m: make_batch(sequences[m], lengths[m], m)
                     for m in modalities},
            sentiment=np.array(sentiment), emotions=np.array(emotions))

    bundle = DatasetBundle(
        modalities={m: {"width": widths[m], "length": lengths[m]}
                    for m in modalities},
        splits=splits, vocab_hash=vocab.content_hash(),
        normalization=({"A": {"lo": lo, "hi": hi}}
                       if "A" in modalities else {}))
    write_bundle(out, bundle, vocab=vocab)

    print(f"bundle written to {out}")
    print(f"modalities: {' '.join(modalities)}  widths: "
          + " ".join(f"{m}={widths[m]}" for m in modalities))
    for name in sorted(splits):
        print(f"split {name}: {splits[name].size} examples")
    print(f"vocabulary: {len(vocab.tokens)} tokens, "
          f"{vocab.fallback_count} without pretrained vectors")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    bundle = read_bundle(cfg.require_path("bundle"))
    _require_splits(bundle, ("train", "valid"))
    _check_bundle_compatibility(cfg, bundle)
    out = cfg.require_path("out")
    out.mkdir(parents=True, exist_ok=True)

    def make_model(seed: int) -> TbjeModel:
        return init_model(cfg.encoder, seed=seed,
                          vocab_hash=bundle.vocab_hash)

    members = train_ensemble(
        make_model, bundle.splits["train"], bundle.splits["valid"],
        cfg.training, log_dir=out, state_dir=out, resume=args.resume)

    summary = {"members": [], "task": cfg.encoder.task,
               "config": cfg.to_dict()}
    for i, (model, state) in enumerate(members):
        save_model(out / f"model-member{i}.tbjm", model)
        summary["members"].append({
            "member": i,
            "seed": cfg.training.seed + i,
            "epochs": state.epoch,
            "best_val_accuracy": state.best_accuracy,
            "decays_used": state.decays_used,
            "stopped_early": state.stopped,
        })
        print(f"member {i}: best val accuracy {state.best_accuracy:.4f} "
              f"after {state.epoch} epochs")
    (out / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=1) + "\n",
        encoding="utf-8")
    print(f"checkpoints and logs in {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _walk_report(prefix: tuple, value, lines: list) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _walk_report(prefix + (key,), value[key], lines)
    elif isinstance(value, str):
        lines.append(f"{'.'.join(prefix)} {value}")
    else:
        lines.append(f"{'.'.join(prefix)} {value:.4f}")


def format_report(report: dict) -> str:
    lines = []
    _walk_report((), report, lines)
    return "\n".join(lines) + "\n"


def cmd_evaluate(args) -> int:
    cfg = _resolve_config(args)
    bundle = read_bundle(cfg.require_path("bundle"))
    _require_splits(bundle, (args.split,))
    split = bundle.splits[args.split]

    paths = [Path(p) for p in args.checkpoints]
    if not paths:
        run_dir = cfg.require_path("out")
        paths = sorted(run_dir.glob("model-member*.tbjm"))
        if not paths:
            raise ConfigError(f"no model-member*.tbjm checkpoints in "
                              f"{run_dir}")
    configs = []

    def members():
        # one member at a time: load, check, hand over to be scored, drop
        for p in paths:
            model = load_model(p)
            if model.vocab_hash is not None and bundle.vocab_hash is not None \
                    and model.vocab_hash != bundle.vocab_hash:
                raise ConfigError(
                    f"checkpoint {p} was trained against a different "
                    f"vocabulary than this bundle")
            for m in model.config.modalities:
                if m not in bundle.modalities:
                    raise ConfigError(f"checkpoint {p} needs modality {m} "
                                      f"which the bundle lacks")
                entry = bundle.modalities[m]
                want = (model.config.lengths[m], model.config.input_widths[m])
                got = (entry["length"], entry["width"])
                if want != got:
                    raise ConfigError(
                        f"checkpoint {p}: modality {m} expects (length, "
                        f"width) {want}, bundle has {got}")
            configs.append(model.config)
            yield model
            del model

    probs = ensemble_predict(members(), split.batches)
    task = configs[0].task
    preds = predictions_from_probabilities(probs, task)
    gold = gold_labels(split, task, configs[0].sentiment_boundary)
    report = evaluation_report(task, preds, gold)
    text = (f"split {args.split}\nexamples {split.size}\n"
            f"ensemble {len(paths)}\n") + format_report(report)
    print(text, end="")
    if cfg.path("out") is not None:
        cfg.path("out").mkdir(parents=True, exist_ok=True)
        target = cfg.path("out") / f"report-{args.split}.txt"
        target.write_text(text, encoding="utf-8")
        print(f"report written to {target}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def toy_encoder() -> EncoderConfig:
    return EncoderConfig(
        modalities=("L", "A"), primary="L", blocks=2, width=16, heads=2,
        mlp_width=24, lengths={"L": 4, "A": 4},
        input_widths={"L": 5, "A": 3}, task="sentiment-2",
        positional={"L": True})


def _random_batches(config: EncoderConfig, rng) -> dict:
    batches = {}
    for m in config.modalities:
        n, w = config.lengths[m], config.input_widths[m]
        feats = rng.normal(size=(2, n, w))
        mask = np.ones((2, n), dtype=bool)
        mask[1, n - 1:] = False
        feats[~mask] = 0.0
        batches[m] = ModalityBatch(feats, mask, m)
    return batches


def cmd_gradcheck(args) -> int:
    cfg = _resolve_config(args)
    encoder = cfg.encoder if args.config else toy_encoder()
    if encoder.blocks > 2 or encoder.width > 16:
        raise ConfigError(
            f"gradcheck runs on toy configurations only: need blocks <= 2 "
            f"and width <= 16, got blocks={encoder.blocks} "
            f"width={encoder.width}")
    seed = cfg.training.seed
    model = init_model(encoder, seed=seed)
    rng = make_rng(seed, "gradcheck-data")
    batches = _random_batches(encoder, rng)
    labels = rng.integers(0, encoder.num_classes(), size=2)

    params = dict(model.named_parameters())

    def forward():
        logits = forward_logits(model, batches)
        return cross_entropy(logits, labels, encoder.num_classes())

    results = check_gradients(forward, params, max_coords=args.max_coords,
                              seed=seed)
    failed = []
    for name in sorted(results):
        err = results[name]
        verdict = "PASS" if err < DEFAULT_TOLERANCE else "FAIL"
        if verdict == "FAIL":
            failed.append(name)
        print(f"{verdict} {name} max_rel_err {err:.3e}")
    print(f"{len(results) - len(failed)}/{len(results)} parameter tensors "
          f"within {DEFAULT_TOLERANCE:g}")
    if failed:
        print(f"gradient check FAILED for: {', '.join(failed)}",
              file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep-blocks
# ---------------------------------------------------------------------------

def cmd_sweep_blocks(args) -> int:
    cfg = _resolve_config(args)
    try:
        block_counts = [int(b) for b in args.blocks.split(",") if b.strip()]
    except ValueError:
        raise ConfigError(f"--blocks wants a comma-separated integer list, "
                          f"got {args.blocks!r}")
    if not block_counts or any(b < 0 for b in block_counts):
        raise ConfigError(f"block counts must be >= 0, got {block_counts}")

    bundle = read_bundle(cfg.require_path("bundle"))
    _require_splits(bundle, ("train", "valid", "test"))
    _check_bundle_compatibility(cfg, bundle)

    rows = []
    for b in block_counts:
        encoder = EncoderConfig(**{**cfg.encoder.to_dict(), "blocks": b})
        model = init_model(encoder, seed=cfg.training.seed,
                           vocab_hash=bundle.vocab_hash)
        started = time.perf_counter()
        state = fit(model, bundle.splits["train"], bundle.splits["valid"],
                    cfg.training)
        elapsed = time.perf_counter() - started
        test_acc = evaluate_accuracy(model, bundle.splits["test"])
        rows.append((b, state.best_accuracy, test_acc, elapsed))

    lines = [f"{'blocks':>6} {'val_accuracy':>12} {'test_accuracy':>13} "
             f"{'seconds':>8}"]
    for b, val_acc, test_acc, elapsed in rows:
        lines.append(f"{b:>6d} {val_acc:>12.4f} {test_acc:>13.4f} "
                     f"{elapsed:>8.2f}")
    table = "\n".join(lines) + "\n"
    print(table, end="")
    if cfg.path("out") is not None:
        cfg.path("out").mkdir(parents=True, exist_ok=True)
        target = cfg.path("out") / "sweep-blocks.txt"
        target.write_text(table, encoding="utf-8")
        print(f"table written to {target}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tbje",
        description="Joint-encoding transformer for multimodal "
                    "sentiment and emotion classification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, paths=()):
        p.add_argument("--config", help="RunConfig JSON file")
        p.add_argument("--seed", type=int, default=None,
                       help="override training.seed")
        for key in paths:
            p.add_argument(f"--{key}", help=f"override paths.{key}")

    p = sub.add_parser("extract-features",
                       help="manifest CSV -> dataset bundle")
    common(p, paths=("manifest", "embeddings", "bundle"))
    p.set_defaults(func=cmd_extract_features)

    p = sub.add_parser("train", help="train an ensemble on a bundle")
    common(p, paths=("bundle", "out"))
    p.add_argument("--resume", action="store_true",
                   help="continue members from saved per-epoch states")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score checkpoints on a split")
    common(p, paths=("bundle", "out"))
    p.add_argument("--split", default="test")
    p.add_argument("checkpoints", nargs="*",
                   help="model files; default: paths.out/model-member*.tbjm")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check on a toy model")
    common(p)
    p.add_argument("--max-coords", type=int, default=6,
                   help="coordinates sampled per parameter tensor")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("sweep-blocks",
                       help="train/evaluate across block counts")
    common(p, paths=("bundle", "out"))
    p.add_argument("--blocks", default="1,2,4,6",
                   help="comma-separated block counts")
    p.set_defaults(func=cmd_sweep_blocks)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ContractError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
