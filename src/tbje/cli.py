"""Command-line surface.

Subcommands: extract-features, train, evaluate, gradcheck, sweep-blocks.
Exit codes: 0 success, 2 configuration/contract problems, 3 I/O or memory
failures, 4 numeric failures (divergence, failed gradient check). Every
command honors --config (a RunConfig JSON file) and --seed (which sets
training.seed), and is reproducible given them.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from .config import RunConfig, load_run_config
from .data import (DatasetBundle, Split, check_bundle_target, read_bundle,
                   write_bundle)
from .errors import ConfigError, ContractError, NumericError, ShapeError
from .features import (ModalityBatch, build_vocabulary, load_waveform,
                       make_batch, mel_spectrogram, normalize_mel,
                       not_utf8_error, tokenize)
from .gradcheck import DEFAULT_TOLERANCE, check_gradients
from .metrics import EMOTIONS, SENTIMENT_MAX, SENTIMENT_MIN, evaluation_report
from .model import EncoderConfig, forward_logits, init_model, load_model
from .rng import make_rng
from .tensor import clear_stale, load_array, read_json, write_file
from .training import (ensemble_predict, evaluate_accuracy, fit,
                       gold_labels, load_train_state, loss,
                       predictions_from_probabilities)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

REQUIRED_COLUMNS = ("id", "split", "transcript", "sentiment") + EMOTIONS
OPTIONAL_COLUMNS = ("audio", "visual")
# the manifest column that names each modality's input files
COLUMNS = {"L": "transcript", "A": "audio", "V": "visual"}
KNOWN_SPLITS = ("train", "valid", "test")


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _resolve_config(args) -> RunConfig:
    cfg = (load_run_config(args.config) if getattr(args, "config", None)
           else RunConfig())
    if getattr(args, "seed", None) is not None:
        cfg.training = dataclasses.replace(cfg.training, seed=args.seed)
    for key in ("manifest", "embeddings", "bundle", "out"):
        value = getattr(args, key, None)
        if value is not None:
            cfg.paths[key] = value
    return cfg


def _check_bundle_compatibility(encoder: EncoderConfig, bundle: DatasetBundle,
                                source: str) -> None:
    """``encoder``, from ``source`` (the config or a checkpoint), must find
    each of its modalities in the bundle at its input width and length."""
    problems = []
    for m in encoder.modalities:
        if m not in bundle.modalities:
            problems.append(f"modality {m} missing from the bundle")
            continue
        entry = bundle.modalities[m]
        if encoder.input_widths[m] != entry["width"]:
            problems.append(f"modality {m} input width "
                            f"{encoder.input_widths[m]} vs bundle width "
                            f"{entry['width']}")
        if encoder.lengths[m] != entry["length"]:
            problems.append(f"modality {m} length {encoder.lengths[m]} vs "
                            f"bundle length {entry['length']}")
    if problems:
        raise ConfigError(f"{source} does not match the bundle: "
                          + "; ".join(problems))


def _print_and_keep(cfg: RunConfig, text: str, name: str, what: str) -> None:
    """Print ``text`` and, when paths.out is set, keep it there as ``name``."""
    print(text, end="")
    if cfg.path("out") is not None:
        cfg.path("out").mkdir(parents=True, exist_ok=True)
        target = cfg.path("out") / name
        write_file(target, lambda fh: fh.write(text.encode("utf-8")))
        print(f"{what} written to {target}")


# ---------------------------------------------------------------------------
# extract-features
# ---------------------------------------------------------------------------

def _read_manifest(path: Path) -> tuple[list[dict], list[str]]:
    """The manifest's rows, each with one field per column, a non-empty,
    unique id and a known split, and the optional columns it has."""
    try:
        # utf-8-sig drops the byte-order mark a spreadsheet's UTF-8 export
        # puts before the header
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            # blank lines skipped, as csv.DictReader does
            lines = [(reader.line_num, fields) for fields in reader if fields]
    except UnicodeDecodeError:
        raise not_utf8_error(path, "manifest") from None
    except csv.Error as exc:
        # e.g. a field over csv's size limit, as an unbalanced quote makes
        raise ConfigError(f"manifest {path}:{reader.line_num}: {exc}") \
            from None
    repeated = sorted({c for c in header if header.count(c) > 1})
    if repeated:
        raise ConfigError(f"manifest {path} repeats columns {repeated}")
    missing = [c for c in REQUIRED_COLUMNS if c not in header]
    if missing:
        raise ConfigError(f"manifest {path} lacks required columns "
                          f"{missing}")
    unknown = [c for c in header
               if c not in REQUIRED_COLUMNS + OPTIONAL_COLUMNS]
    if unknown:
        raise ConfigError(f"manifest {path} has unknown columns {unknown}")
    for line, fields in lines:
        if len(fields) != len(header):
            raise ConfigError(f"manifest {path}:{line}: {len(fields)} fields "
                              f"for {len(header)} columns")
    rows = [dict(zip(header, fields)) for _, fields in lines]
    if not rows:
        raise ConfigError(f"manifest {path} holds no examples")
    seen = set()
    for row in rows:
        if not row["id"]:
            raise ConfigError(f"manifest {path}: empty example id")
        if row["id"] in seen:
            raise ConfigError(f"manifest {path}: duplicate example id "
                              f"{row['id']!r}")
        seen.add(row["id"])
        if row["split"] not in KNOWN_SPLITS:
            raise ConfigError(f"manifest {path}, example {row['id']!r}: "
                              f"unknown split {row['split']!r}; expected "
                              f"one of {list(KNOWN_SPLITS)}")
    return rows, [c for c in OPTIONAL_COLUMNS if c in header]


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


def _read_transcript(path: Path, ident: str) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise not_utf8_error(path,
                             f"transcript of example {ident!r}") from None


def cmd_extract_features(args) -> int:
    cfg = _resolve_config(args)
    manifest_path = cfg.require_path("manifest")
    out = cfg.require_path("bundle")
    check_bundle_target(out)
    rows, optional = _read_manifest(manifest_path)
    base = manifest_path.parent
    columns = ("transcript", *optional)
    unset = [f"encoder.lengths.{m}" for m, column in COLUMNS.items()
             if column in columns and m not in cfg.encoder.lengths]
    if unset:
        raise ConfigError(f"the manifest's inputs need a padded length, and "
                          f"the config sets no {', '.join(unset)}")

    # every referenced file checked up front, all problems reported at once
    embeddings_path = cfg.require_path("embeddings")
    missing = [] if embeddings_path.is_file() else [str(embeddings_path)]
    for row in rows:
        for column in columns:
            p = base / row[column]
            if not p.is_file():
                missing.append(f"{p} ({column} of example {row['id']!r})")
    if missing:
        raise FileNotFoundError("missing input files:\n  "
                                + "\n  ".join(missing))
    labels = {row["id"]: _parse_labels(row, manifest_path) for row in rows}

    by_split = {}
    for row in rows:
        by_split.setdefault(row["split"], []).append(row["id"])
    if "train" not in by_split:
        raise ConfigError("manifest has no train examples; the vocabulary "
                          "is built from the train split")

    # rows_of[m](example id): its (rows, width) array, asked for once per id
    tokens = {row["id"]: tokenize(_read_transcript(base / row["transcript"],
                                                   row["id"]))
              for row in rows}
    vocab = build_vocabulary([tokens[i] for i in by_split["train"]],
                             embeddings_path)
    rows_of = {"L": lambda i: vocab.embed(tokens[i])}
    normalization = {}
    if "audio" in optional:
        mel, lo, hi = {}, float("inf"), -float("inf")
        for row in rows:
            frames = mel_spectrogram(load_waveform(
                base / row["audio"], cfg.mel.sample_rate), cfg.mel)
            if row["split"] == "train":
                lo = min(lo, float(frames.min()))
                hi = max(hi, float(frames.max()))
            # a copy: a slice would keep the whole clip alive
            mel[row["id"]] = frames[:cfg.encoder.lengths["A"]].copy()
        hi = hi if hi > lo else lo + 1.0
        rows_of["A"] = lambda i: normalize_mel(mel.pop(i), lo, hi)
        normalization["A"] = {"lo": lo, "hi": hi}
    if "visual" in optional:
        visual = {}
        for row in rows:
            path = base / row["visual"]
            feats = load_array(path)
            if feats.ndim != 2:
                raise ConfigError(f"visual features for {row['id']!r} have "
                                  f"rank {feats.ndim}, expected 2")
            if not np.isfinite(feats).all():
                raise ConfigError(f"visual features for {row['id']!r} in "
                                  f"{path} hold a non-finite value")
            visual[row["id"]] = feats[:cfg.encoder.lengths["V"]].copy()
        widths = sorted({a.shape[1] for a in visual.values()})
        if len(widths) != 1:
            raise ConfigError(f"inconsistent visual widths {widths}")
        rows_of["V"] = visual.pop

    splits = {name: Split(
        name=name, ids=ids,
        batches={m: make_batch(ids, get, cfg.encoder.lengths[m], m)
                 for m, get in rows_of.items()},
        sentiment=[labels[i][0] for i in ids],
        emotions=[labels[i][1] for i in ids])
        for name, ids in by_split.items()}
    shapes = {m: {"width": b.features.shape[2], "length": b.features.shape[1]}
              for m, b in splits["train"].batches.items()}
    write_bundle(out, DatasetBundle(
        modalities=shapes, splits=splits, vocab_hash=vocab.content_hash(),
        normalization=normalization), vocab=vocab)

    print(f"bundle written to {out}")
    print(f"modalities: {' '.join(shapes)}  widths: "
          + " ".join(f"{m}={s['width']}" for m, s in shapes.items()))
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
    bundle = read_bundle(cfg.require_path("bundle"), ("train", "valid"))
    _check_bundle_compatibility(cfg.encoder, bundle, "config")
    out = cfg.require_path("out")
    out.mkdir(parents=True, exist_ok=True)
    # a kill in the middle of a write leaves a .tmp sibling; fit() removes
    # each member checkpoint's
    clear_stale(out / "summary.json")

    summary = {"members": [], "task": cfg.encoder.task,
               "config": cfg.to_dict()}
    for i in range(cfg.training.ensemble_size):
        seed = cfg.training.seed + i
        state_path = out / f"state-member{i}.tbjs"
        model = init_model(cfg.encoder, seed=seed,
                           vocab_hash=bundle.vocab_hash)
        state = None
        if args.resume and state_path.is_file():
            # [1] alone: a name for the model would outlive `del model`
            state = load_train_state(state_path, into=model)[1]
        with open(out / f"train-member{i}.ndjson", "w",
                  encoding="utf-8") as fh:
            state = fit(
                model, bundle.splits["train"], bundle.splits["valid"],
                dataclasses.replace(cfg.training, seed=seed), member=i,
                state=state, log_fh=fh, state_path=state_path,
                best_path=out / f"model-member{i}.tbjm")
        summary["members"].append({
            "member": i,
            "seed": seed,
            "epochs": state.epoch,
            "best_val_accuracy": state.best_accuracy,
            "decays_used": state.decays_used,
            "stopped_early": state.stopped,
        })
        print(f"member {i}: best val accuracy {state.best_accuracy:.4f} "
              f"after {state.epoch} epochs")
        # the next member trains with no other parameters resident
        del model, state
    text = json.dumps(summary, sort_keys=True, indent=1) + "\n"
    write_file(out / "summary.json", lambda fh: fh.write(text.encode("utf-8")))
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
    bundle = read_bundle(cfg.require_path("bundle"), (args.split,))
    split = bundle.splits[args.split]

    paths = [Path(p) for p in args.checkpoints]
    if not paths:
        # the members summary.json lists, not every checkpoint in the
        # directory: an earlier, larger run may have left more behind
        run_dir = cfg.require_path("out")
        listing = run_dir / "summary.json"
        if not listing.is_file():
            raise ConfigError(f"no run summary {listing}; name the "
                              f"checkpoints to score an unfinished run")
        members = read_json(listing.read_bytes(), f"run summary {listing}",
                            required=("members",))["members"]
        if not isinstance(members, list) or not members:
            raise ConfigError(f"run summary {listing} lists no members")
        paths = [run_dir / f"model-member{i}.tbjm"
                 for i in range(len(members))]
    configs = []

    def members():
        # one member at a time, each read into the first one's arrays: load,
        # check, hand over to be scored
        model = None
        for p in paths:
            model = load_model(p, into=model)
            if model.vocab_hash is not None and bundle.vocab_hash is not None \
                    and model.vocab_hash != bundle.vocab_hash:
                raise ConfigError(
                    f"checkpoint {p} was trained against a different "
                    f"vocabulary than this bundle")
            _check_bundle_compatibility(model.config, bundle,
                                        f"checkpoint {p}")
            configs.append(model.config)
            yield model

    probs = ensemble_predict(members(), split.batches)
    task = configs[0].task
    preds = predictions_from_probabilities(probs, task)
    gold = gold_labels(split, task, configs[0].sentiment_boundary)
    report = evaluation_report(task, preds, gold)
    text = (f"split {args.split}\nexamples {split.size}\n"
            f"ensemble {len(paths)}\n") + format_report(report)
    _print_and_keep(cfg, text, f"report-{args.split}.txt", "report")
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
    if args.max_coords < 1:
        raise ConfigError(f"--max-coords must be >= 1, got {args.max_coords}")
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
    # the labels of the configured task, audited through its training loss
    labels = (rng.integers(0, 2, size=(2, encoder.num_classes()))
              if encoder.task == "emotions-6"
              else rng.integers(0, encoder.num_classes(), size=2))

    params = dict(model.named_parameters())

    def forward():
        return loss(forward_logits(model, batches), labels, encoder.task)

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

    bundle = read_bundle(cfg.require_path("bundle"),
                         ("train", "valid", "test"))
    _check_bundle_compatibility(cfg.encoder, bundle, "config")

    rows = []
    for b in block_counts:
        encoder = dataclasses.replace(cfg.encoder, blocks=b)
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
    _print_and_keep(cfg, "\n".join(lines) + "\n", "sweep-blocks.txt",
                    "table")
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
                   help="model files; default: the members "
                        "paths.out/summary.json lists")
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
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
