"""End-to-end command-line tests: extraction, training, evaluation,
gradient checking, and the block sweep, plus exit-code discipline."""

import builtins
import contextlib
import dataclasses
import io
import json
import os
import resource
import shutil
import struct
import subprocess
import sys
import tempfile
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

import tbje.cli
import tbje.data
import tbje.model
import tbje.tensor as TT
import tbje.training as TR
from tbje.cli import (EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK,
                      format_report, main)
from tbje.config import (PATH_KEYS, RunConfig, load_run_config,
                         save_run_config)
from tbje.data import read_bundle
from tbje.errors import ConfigError
from tbje.features import DataWarning, MelConfig
from tbje.metrics import evaluation_report
from tbje.model import EncoderConfig, init_model, load_model, save_model
from tbje.training import (TrainConfig, ensemble_predict, gold_labels,
                           load_train_state, predictions_from_probabilities,
                           save_train_state)

from toy_corpus import build_toy_corpus, toy_run_config


SETTINGS = settings(derandomize=True, deadline=None, max_examples=50,
                    database=None)
SIZES = st.dictionaries(st.sampled_from("LAV"), st.integers(1, 64))


@st.composite
def encoder_configs(draw):
    modalities = draw(st.lists(st.sampled_from("LAV"), min_size=1,
                               unique=True))
    heads = draw(st.integers(1, 4))
    task = draw(st.sampled_from(["sentiment-2", "sentiment-7",
                                 "emotions-6"]))
    variants = ["auto", "joint"] + ["monomodal"] * (len(modalities) == 1)
    rate = st.floats(0.0, 1.0, exclude_max=True)
    return EncoderConfig(
        modalities=modalities, primary=draw(st.sampled_from(modalities)),
        blocks=draw(st.integers(0, 8)), heads=heads,
        width=heads * draw(st.integers(1, 128)),
        mlp_width=draw(st.integers(1, 2048)), dropout_block=draw(rate),
        dropout_classifier=draw(rate),
        lengths={**draw(SIZES), **{m: draw(st.integers(1, 64))
                                   for m in modalities}},
        input_widths={**draw(SIZES), **{m: draw(st.integers(1, 512))
                                        for m in modalities}},
        task=task, variant=draw(st.sampled_from(variants)),
        positional=draw(st.dictionaries(st.sampled_from("LAV"),
                                        st.booleans())),
        dropout_per_sublayer=draw(st.booleans()),
        sentiment_boundary=(draw(st.floats(-3.0, 3.0))
                            if task == "sentiment-2" else 0.0))


@st.composite
def mel_configs(draw):
    window = draw(st.integers(1, 4096))
    return MelConfig(sample_rate=draw(st.integers(1, 96000)),
                     n_fft=window + draw(st.integers(0, 4096)),
                     hop=draw(st.integers(1, 4096)), window=window,
                     bands=draw(st.integers(1, 256)),
                     stride=draw(st.integers(1, 64)),
                     floor=draw(st.floats(1e-12, 1.0)))


def run_configs():
    training = st.builds(
        TrainConfig, lr=st.floats(0.0, 1.0), batch_size=st.integers(1, 512),
        decay_factor=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        max_decays=st.integers(0, 5), patience=st.integers(1, 10),
        ensemble_size=st.integers(1, 10), seed=st.integers(0, 2 ** 63),
        max_epochs=st.integers(1, 1000))
    paths = st.dictionaries(st.sampled_from(PATH_KEYS),
                            st.text(st.characters(codec="utf-8")))
    return st.builds(RunConfig, encoder=encoder_configs(), training=training,
                     mel=mel_configs(), paths=paths)


def run_quiet(argv) -> int:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataWarning)
        return main(argv)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    build_toy_corpus(root)
    config = toy_run_config(root)
    assert run_quiet(["extract-features", "--config", str(config)]) == EXIT_OK
    return root


@pytest.fixture(scope="module")
def trained(corpus):
    assert main(["train", "--config", str(corpus / "config.json")]) == EXIT_OK
    return corpus / "run"


def variant_config(corpus, out_path, training=None, encoder=None,
                   paths=None) -> Path:
    raw = load_run_config(corpus / "config.json").to_dict()
    for patch, key in ((training, "training"), (encoder, "encoder"),
                       (paths, "paths")):
        if patch:
            raw[key].update(patch)
    save_run_config(out_path, RunConfig.from_dict(raw))
    return out_path


def tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def cut_writes_to(monkeypatch, name: str) -> list:
    """Make each file whose name starts with ``name`` fail as a full disk
    would once it is opened for writing: its first write stores half of
    its data and raises. Returns the names of the files so cut."""
    real_open = io.open
    cut = []

    class Cut:
        def __init__(self, fh):
            self.fh = fh

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            self.fh.flush()
            cut.append(Path(self.fh.name).name)
            raise OSError(28, "No space left on device")

        def __getattr__(self, attr):
            return getattr(self.fh, attr)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    def cutting_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "w" in mode and isinstance(file, (str, os.PathLike)) \
                and Path(file).name.startswith(name):
            return Cut(fh)
        return fh

    # pathlib opens through io.open, code in the package through open
    monkeypatch.setattr(io, "open", cutting_open)
    monkeypatch.setattr(builtins, "open", cutting_open)
    return cut


# ---------------------------------------------------------------------------
# RunConfig
# ---------------------------------------------------------------------------

class TestRunConfig:
    def test_defaults_are_the_full_scale_recipe(self):
        cfg = RunConfig()
        enc = cfg.encoder
        assert enc.modalities == ("L", "A")
        assert (enc.blocks, enc.width, enc.heads, enc.mlp_width) == \
            (6, 512, 4, 1024)
        assert enc.lengths == {"L": 50, "A": 40}
        assert enc.input_widths == {"L": 300, "A": 80}
        assert cfg.training.lr == 1e-4
        assert cfg.training.ensemble_size == 5

    def test_file_round_trip(self, tmp_path):
        cfg = RunConfig(training=TrainConfig(seed=5),
                        paths={"bundle": "b", "out": "o"})
        path = tmp_path / "cfg.json"
        save_run_config(path, cfg)
        assert load_run_config(path).to_dict() == cfg.to_dict()

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"optimizer": "sgd"}))
        with pytest.raises(ConfigError, match="optimizer"):
            load_run_config(path)

    def test_unknown_nested_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"training": {"warmup": 10}}))
        with pytest.raises(ConfigError, match="warmup"):
            load_run_config(path)

    def test_unknown_path_key_rejected(self):
        with pytest.raises(ConfigError, match="cache"):
            RunConfig(paths={"cache": "/tmp/x"})

    def test_top_level_seed_rejected(self, tmp_path):
        # training.seed is the one seed; a second one would be ignored
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 5}))
        with pytest.raises(ConfigError, match="unknown config keys.*seed"):
            load_run_config(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="valid JSON"):
            load_run_config(path)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_run_config(tmp_path / "absent.json")

    def test_mel_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="preemphasis"):
            RunConfig.from_dict({"mel": {"preemphasis": 0.97}})

    @pytest.mark.parametrize("raw, key", [
        ({"encoder": {"blocks": "6"}}, "encoder.blocks"),
        ({"training": {"lr": "0.1"}}, "training.lr"),
        ({"encoder": {"lengths": {"L": "50"}}}, "encoder.lengths.L"),
        ({"training": []}, "training"),
        ({"training": {"batch_size": 2.5}}, "training.batch_size"),
        ({"encoder": {"input_widths": {"A": 80.0}}}, "encoder.input_widths.A"),
        ({"encoder": {"positional": {"L": 1}}}, "encoder.positional.L"),
        ({"encoder": {"dropout_block": True}}, "encoder.dropout_block"),
        ({"encoder": {"modalities": ["L", 2]}}, "encoder.modalities[1]"),
        ({"mel": {"bands": None}}, "mel.bands"),
        ({"paths": {"bundle": 5}}, "paths.bundle"),
    ], ids=["blocks-str", "lr-str", "length-str", "training-list",
            "batch-float", "width-float", "positional-int", "dropout-bool",
            "modality-int", "bands-null", "path-int"])
    def test_wrong_typed_value_exits_2_naming_the_key(self, tmp_path, capsys,
                                                      raw, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main(["train", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(key) in err

    @pytest.mark.parametrize("section, key, value", [
        ("training", "lr", float("nan")),
        ("training", "lr", float("inf")),
        ("encoder", "sentiment_boundary", float("nan")),
        ("encoder", "mlp_width", 0),
        ("training", "lr", -1),
        ("training", "batch_size", 0),
        ("training", "decay_factor", 1.0),
        ("training", "max_decays", -1),
        ("training", "patience", 0),
        ("training", "ensemble_size", 0),
        ("training", "max_epochs", 0),
        ("encoder", "blocks", -1),
        ("encoder", "width", 15),
        ("encoder", "heads", 0),
        ("encoder", "dropout_block", 1.0),
        ("encoder", "dropout_classifier", -0.5),
        ("encoder", "lengths.A", 0),
        ("encoder", "input_widths.V", 0),
        ("mel", "bands", 0),
        ("mel", "stride", 0),
        ("mel", "n_fft", 64),
        ("mel", "hop", 0),
        ("mel", "window", 0),
        ("mel", "sample_rate", 0),
    ], ids=["lr-nan", "lr-inf", "boundary-nan", "mlp-width-0", "lr-negative",
            "batch-0", "decay-1", "decays-negative", "patience-0",
            "ensemble-0", "epochs-0", "blocks-negative", "width-15",
            "heads-0", "dropout-block-1", "dropout-classifier-negative",
            "length-A-0", "input-width-V-0", "bands-0", "stride-0",
            "n-fft-64", "hop-0", "window-0", "sample-rate-0"])
    def test_bad_value_exits_2_before_the_run_directory_is_made(
            self, corpus, tmp_path, capsys, section, key, value):
        raw = json.loads((corpus / "config.json").read_text())
        *parents, leaf = key.split(".")
        target = raw[section]
        for parent in parents:
            target = target[parent]
        target[leaf] = value
        raw["paths"]["out"] = str(tmp_path / "run")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main(["train", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{section}.{key}" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("encoder, message", [
        ({"positional": {"Q": True}, "lengths": {"X": 3}},
         "encoder.lengths has keys ['X']"),
        ({"positional": {"L": True, "Q": True}},
         "encoder.positional has keys ['Q']"),
        ({"input_widths": {"L": 300, "A": 80, "a": 8, "T": 1}},
         "encoder.input_widths has keys ['T', 'a']"),
    ], ids=["lengths", "positional", "input-widths"])
    def test_per_modality_key_that_is_no_modality_exits_2(
            self, tmp_path, capsys, encoder, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"encoder": encoder}))
        assert main(["train", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {message} that are not modality tags "
            f"('L', 'A', 'V')\n")

    def test_integer_stands_for_a_float(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"training": {"lr": 1},
                                    "encoder": {"dropout_block": 0}}))
        cfg = load_run_config(path)
        assert cfg.training.lr == 1 and cfg.encoder.dropout_block == 0

    def test_default_encoder_is_bimodal_joint(self):
        assert EncoderConfig().resolved_variant() == "joint"

    def test_omitted_encoder_keys_take_the_default_recipe(self):
        """A config that sets only encoder.blocks builds the L+A model of
        the defaults; a partial section that names V must size it."""
        cfg = RunConfig.from_dict({"encoder": {"blocks": 1}})
        assert cfg.encoder == dataclasses.replace(RunConfig().encoder,
                                                  blocks=1)
        names = [n for n, _ in init_model(cfg.encoder).named_parameters()]
        assert {n.split(".")[1] for n in names if n.startswith("proj.")} \
            == {"L", "A"}
        with pytest.raises(ConfigError, match="modality V needs a padded "
                                              "length"):
            RunConfig.from_dict({"encoder": {"modalities": ["L", "A", "V"]}})

    @SETTINGS
    @given(run_configs())
    def test_any_config_round_trips_through_its_file(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            save_run_config(path, cfg)
            assert load_run_config(path) == cfg

    @SETTINGS
    @given(run_configs())
    def test_every_section_reads_back_its_dict(self, cfg):
        assert EncoderConfig.from_dict(cfg.encoder.to_dict()) == cfg.encoder
        assert TrainConfig.from_dict(cfg.training.to_dict()) == cfg.training
        assert RunConfig.from_dict(
            {"mel": dataclasses.asdict(cfg.mel)}).mel == cfg.mel
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    @SETTINGS
    @given(run_configs(),
           st.sampled_from(["", "encoder", "training", "mel", "paths"]),
           st.text(st.characters(codec="utf-8"), max_size=12))
    def test_unknown_key_in_any_section_exits_2(self, cfg, section, key):
        raw = cfg.to_dict()
        target = raw[section] if section else raw
        assume(key not in set(target) | set(PATH_KEYS))
        target[key] = 1
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stderr(err):
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(raw), encoding="utf-8")
            assert main(["train", "--config", str(path)]) == EXIT_CONFIG
        name = f"{section}.{key}" if section else key
        assert err.getvalue().startswith(f"error: unknown config keys "
                                         f"[{name!r}]")


# ---------------------------------------------------------------------------
# extract-features
# ---------------------------------------------------------------------------

class TestExtract:
    def test_bundle_shape_and_metadata(self, corpus):
        bundle = read_bundle(corpus / "bundle")
        assert bundle.modalities == {
            "L": {"width": 300, "length": 6},
            "A": {"width": 8, "length": 4},
            "V": {"width": 5, "length": 3}}
        assert {s.size for s in bundle.splits.values()} == {4, 2}
        assert bundle.splits["train"].size == 4
        assert bundle.vocab_hash
        assert set(bundle.normalization) == {"A"}
        lo = bundle.normalization["A"]["lo"]
        hi = bundle.normalization["A"]["hi"]
        assert lo < hi
        feats = bundle.splits["train"].batches["A"].features
        assert feats.min() >= 0.0 and feats.max() <= 1.0

    def test_rerun_is_byte_identical(self, corpus, tmp_path):
        config = corpus / "config.json"
        for target in ("again1", "again2"):
            code = run_quiet(["extract-features", "--config", str(config),
                              "--bundle", str(tmp_path / target)])
            assert code == EXIT_OK
        assert tree_bytes(tmp_path / "again1") == tree_bytes(tmp_path / "again2")
        assert tree_bytes(tmp_path / "again1") == tree_bytes(corpus / "bundle")

    def test_manifest_with_a_byte_order_mark_extracts_the_same_bundle(
            self, tmp_path):
        """A spreadsheet's "CSV UTF-8" export starts with U+FEFF, which is
        not part of the first column's name."""
        build_toy_corpus(tmp_path)
        config = toy_run_config(tmp_path)
        manifest = tmp_path / "manifest.csv"
        for target in ("plain", "bom"):
            assert run_quiet(["extract-features", "--config", str(config),
                              "--bundle", str(tmp_path / target)]) == EXIT_OK
            manifest.write_bytes(b"\xef\xbb\xbf" + manifest.read_bytes())
        assert tree_bytes(tmp_path / "bom") == tree_bytes(tmp_path / "plain")

    def test_text_only_manifest_gives_l_only_bundle(self, tmp_path):
        build_toy_corpus(tmp_path, with_audio=False, with_visual=False)
        config = toy_run_config(tmp_path, with_audio=False,
                                with_visual=False)
        assert run_quiet(["extract-features", "--config", str(config)]) \
            == EXIT_OK
        bundle = read_bundle(tmp_path / "bundle")
        assert set(bundle.modalities) == {"L"}
        assert bundle.normalization == {}

    def test_missing_inputs_listed_exhaustively(self, tmp_path, capsys):
        build_toy_corpus(tmp_path)
        config = toy_run_config(tmp_path)
        (tmp_path / "audio" / "utt01.wav").unlink()
        (tmp_path / "text" / "utt04.txt").unlink()
        assert run_quiet(["extract-features", "--config", str(config)]) \
            == EXIT_IO
        err = capsys.readouterr().err
        assert "utt01.wav" in err and "utt04.txt" in err
        assert not (tmp_path / "bundle").exists()

    def test_bad_sentiment_rejected(self, tmp_path):
        build_toy_corpus(tmp_path)
        config = toy_run_config(tmp_path)
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(manifest.read_text().replace("2.5", "9.5"))
        assert run_quiet(["extract-features", "--config", str(config)]) \
            == EXIT_CONFIG

    def test_bad_sentiment_rejected_before_any_clip_is_read(
            self, tmp_path, monkeypatch, capsys):
        build_toy_corpus(tmp_path)
        config = toy_run_config(tmp_path)
        manifest = tmp_path / "manifest.csv"
        # the last row's sentiment
        manifest.write_text(manifest.read_text().replace(",2.9,", ",oops,"))
        loads = []
        monkeypatch.setattr(tbje.cli, "load_waveform",
                            lambda *args: loads.append(args))
        assert run_quiet(["extract-features", "--config", str(config)]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "bad sentiment 'oops'" in err and err.count("\n") == 1
        assert loads == []

    def test_unknown_column_rejected(self, tmp_path, capsys):
        build_toy_corpus(tmp_path)
        config = toy_run_config(tmp_path)
        manifest = tmp_path / "manifest.csv"
        lines = manifest.read_text().splitlines()
        lines[0] += ",speaker"
        lines[1:] = [line + ",s1" for line in lines[1:]]
        manifest.write_text("\n".join(lines) + "\n")
        assert run_quiet(["extract-features", "--config", str(config)]) \
            == EXIT_CONFIG
        assert "speaker" in capsys.readouterr().err

    @pytest.mark.parametrize("fields", [2, 13], ids=["short", "long"])
    def test_row_that_does_not_fit_the_header_names_its_line(
            self, tmp_path, capsys, fields):
        manifest = tmp_path / "manifest.csv"

        def edit(root):
            lines = manifest.read_text().splitlines()
            lines[4] = ",".join((lines[4].split(",") + ["0"])[:fields])
            manifest.write_text("\n".join(lines) + "\n")
        err = self.refused(tmp_path, capsys, edit)
        assert err == (f"error: manifest {manifest}:5: {fields} fields for "
                       f"12 columns\n")

    def test_repeated_column_rejected(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"

        def edit(root):
            lines = manifest.read_text().splitlines()
            manifest.write_text("\n".join(
                [lines[0] + ",sentiment"] + [line + ",0.0"
                                             for line in lines[1:]]) + "\n")
        err = self.refused(tmp_path, capsys, edit)
        assert err == (f"error: manifest {manifest} repeats columns "
                       f"['sentiment']\n")

    def test_duplicate_id_rejected(self, tmp_path):
        build_toy_corpus(tmp_path)
        config = toy_run_config(tmp_path)
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            manifest.read_text().replace("utt01", "utt00", 1))
        assert run_quiet(["extract-features", "--config", str(config)]) \
            == EXIT_CONFIG

    def test_manifest_without_train_rejected(self, tmp_path, capsys):
        build_toy_corpus(tmp_path)
        config = toy_run_config(tmp_path)
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(manifest.read_text().replace("train", "test"))
        assert run_quiet(["extract-features", "--config", str(config)]) \
            == EXIT_CONFIG
        assert "train" in capsys.readouterr().err

    @staticmethod
    def refused(tmp_path, capsys, edit, code=EXIT_CONFIG) -> str:
        """Build the toy corpus, apply ``edit`` to its root, run
        extract-features; it must exit with ``code``, write no bundle, and
        report one error. Returns that error line."""
        build_toy_corpus(tmp_path)
        config = toy_run_config(tmp_path)
        edit(tmp_path)
        capsys.readouterr()
        assert run_quiet(["extract-features", "--config", str(config)]) \
            == code
        assert not (tmp_path / "bundle").exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    @staticmethod
    def rewrite_manifest(old: str, new: str):
        def edit(root):
            manifest = root / "manifest.csv"
            manifest.write_text(manifest.read_text().replace(old, new, 1))
        return edit

    def test_empty_id_rejected(self, tmp_path, capsys):
        err = self.refused(tmp_path, capsys,
                           self.rewrite_manifest("\nutt03,", "\n,"))
        assert err == (f"error: manifest {tmp_path / 'manifest.csv'}: "
                       f"empty example id\n")

    def test_unknown_split_rejected(self, tmp_path, capsys):
        err = self.refused(tmp_path, capsys,
                           self.rewrite_manifest(",valid,", ",dev,"))
        assert err == (f"error: manifest {tmp_path / 'manifest.csv'}, "
                       f"example 'utt04': unknown split 'dev'; expected one "
                       f"of ['train', 'valid', 'test']\n")

    def test_rank_3_visual_features_rejected(self, tmp_path, capsys):
        err = self.refused(tmp_path, capsys, lambda root: TT.save_array(
            root / "visual" / "utt05.tbjt", np.zeros((2, 3, 5))))
        assert err == ("error: visual features for 'utt05' have rank 3, "
                       "expected 2\n")

    def test_inconsistent_visual_widths_rejected(self, tmp_path, capsys):
        err = self.refused(tmp_path, capsys, lambda root: TT.save_array(
            root / "visual" / "utt02.tbjt", np.ones((3, 6))))
        assert err == "error: inconsistent visual widths [5, 6]\n"

    def test_visual_features_with_no_rows_name_the_example(self, tmp_path,
                                                           capsys):
        err = self.refused(tmp_path, capsys, lambda root: TT.save_array(
            root / "visual" / "utt02.tbjt", np.zeros((0, 5))))
        assert err == ("error: V example 'utt02': shape (0, 5) is not "
                       "(t>=1, width) at one width\n")

    def test_visual_ranks_are_checked_before_widths(self, tmp_path, capsys):
        def edit(root):
            TT.save_array(root / "visual" / "utt01.tbjt", np.ones((3, 6)))
            TT.save_array(root / "visual" / "utt06.tbjt", np.zeros(4))
        err = self.refused(tmp_path, capsys, edit)
        assert err == ("error: visual features for 'utt06' have rank 1, "
                       "expected 2\n")

    def test_missing_files_are_reported_before_bad_labels(self, tmp_path,
                                                          capsys):
        def edit(root):
            self.rewrite_manifest(",2.9,", ",oops,")(root)
            (root / "visual" / "utt02.tbjt").unlink()
        err = self.refused(tmp_path, capsys, edit, code=EXIT_IO)
        assert err == (f"i/o error: missing input files:\n  "
                       f"{tmp_path / 'visual' / 'utt02.tbjt'} (visual of "
                       f"example 'utt02')\n")

    @staticmethod
    def last_embedding_value(lineno: int, value: bytes):
        """An edit that ends line ``lineno`` of the embedding file (1:
        "what", 5: "film", both train tokens) with ``value``."""
        def edit(root):
            path = root / "embeddings.txt"
            lines = path.read_bytes().split(b"\n")
            lines[lineno - 1] = lines[lineno - 1].rsplit(b" ", 1)[0] \
                + b" " + value
            path.write_bytes(b"\n".join(lines))
        return edit

    def test_non_numeric_embedding_value_names_the_line(self, tmp_path,
                                                        capsys):
        err = self.refused(tmp_path, capsys,
                           self.last_embedding_value(1, b"0.5x"))
        assert err == (f"error: {tmp_path / 'embeddings.txt'}:1: token "
                       f"'what': could not convert string to float: "
                       f"'0.5x'\n")

    @pytest.mark.parametrize("value", [b"nan", b"-inf"])
    def test_non_finite_embedding_value_names_the_line(self, tmp_path,
                                                       capsys, value):
        err = self.refused(tmp_path, capsys,
                           self.last_embedding_value(5, value))
        assert err == (f"error: {tmp_path / 'embeddings.txt'}:5: token "
                       f"'film' has a non-finite value\n")

    def test_embeddings_not_utf8_name_the_line(self, tmp_path, capsys):
        err = self.refused(tmp_path, capsys,
                           self.last_embedding_value(3, b"0.5\xff"))
        assert err == (f"error: {tmp_path / 'embeddings.txt'}:3: embedding "
                       f"file is not UTF-8\n")

    def test_transcript_not_utf8_names_the_file_and_example(self, tmp_path,
                                                            capsys):
        path = tmp_path / "text" / "utt02.txt"
        err = self.refused(tmp_path, capsys, lambda root: path.write_bytes(
            b"The acting was fine,\nnothing caf\xe9."))
        assert err == (f"error: {path}:2: transcript of example 'utt02' is "
                       f"not UTF-8\n")

    def test_manifest_not_utf8_names_the_line(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        err = self.refused(tmp_path, capsys, lambda root: manifest.write_bytes(
            manifest.read_bytes().replace(b"utt05.txt", b"utt05\xe9.txt")))
        assert err == f"error: {manifest}:7: manifest is not UTF-8\n"

    def test_manifest_field_over_the_csv_limit_names_the_line(
            self, tmp_path, capsys):
        """A field longer than the csv module's 128 KiB limit, such as an
        unbalanced quote makes, is refused with one line."""
        manifest = tmp_path / "manifest.csv"
        err = self.refused(tmp_path, capsys, self.rewrite_manifest(
            "text/utt03.txt", "x" * 200_000))
        assert err == (f"error: manifest {manifest}:5: field larger than "
                       f"field limit (131072)\n")

    @staticmethod
    def wav_header(tag, channels, rate, byte_rate, align, bits,
                   data_first=False, riff_size=None) -> bytes:
        """A WAV file of 800 zero bytes under a fmt chunk of these fields."""
        fmt = b"fmt " + struct.pack("<IHHIIHH", 16, tag, channels, rate,
                                    byte_rate, align, bits)
        data = b"data" + struct.pack("<I", 800) + bytes(800)
        body = b"WAVE" + (data + fmt if data_first else fmt + data)
        return b"RIFF" + struct.pack(
            "<I", len(body) if riff_size is None else riff_size) + body

    @pytest.mark.parametrize("content", [
        b"not a wav file at all", "cut",
        wav_header(1, 1, 4000, 0, 0, 16),
        wav_header(1, 2, 4000, 4000, 1, 16),
        wav_header(1, 0, 4000, 8000, 2, 16),
        wav_header(1, 1, 4000, 8000, 2, 16, riff_size=0),
        wav_header(1, 1, 4000, 64000, 16, 16),
        wav_header(3, 1, 4000, 12000, 3, 32),
        wav_header(7, 1, 8000, 8000, 1, 8),
        wav_header(3, 1, 4000, 8000, 2, 16),
        wav_header(1, 1, 4000, 4000, 2, 16),
        wav_header(1, 1, 4000, 8000, 2, 16, data_first=True),
        wav_header(1, 1, 4000, 8000, 2, 8),
        wav_header(1, 1, 4000, 4000, 1, 16),
        wav_header(3, 1, 4000, 8000, 2, 32),
    ], ids=["not-a-wav", "cut-at-30-bytes", "block-align-0",
            "block-align-below-channels", "zero-channels",
            "riff-size-ends-before-data", "pcm-in-16-byte-container",
            "float-in-3-byte-container", "mu-law", "16-bit-float",
            "pcm-byte-rate-not-rate-x-align", "data-before-fmt",
            "8-bit-in-2-byte-container", "16-bit-in-1-byte-container",
            "32-bit-float-in-2-byte-container"])
    def test_unreadable_audio_names_the_file(self, tmp_path, capsys,
                                             content):
        path = tmp_path / "audio" / "utt03.wav"

        def edit(root):
            path.write_bytes(path.read_bytes()[:30] if content == "cut"
                             else content)
        err = self.refused(tmp_path, capsys, edit)
        assert err.startswith(f"error: {path}: not a readable WAV file: ")
        assert err.count("\n") == 1

    def test_empty_audio_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "audio" / "utt06.wav"
        err = self.refused(tmp_path, capsys, lambda root: wavfile.write(
            path, 4000, np.zeros(0, dtype=np.int16)))
        assert err == f"error: {path}: WAV file holds no samples\n"

    def test_zero_sample_rate_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "audio" / "utt02.wav"
        err = self.refused(tmp_path, capsys, lambda root: path.write_bytes(
            self.wav_header(1, 1, 0, 0, 2, 16)))
        assert err == f"error: {path}: WAV sample rate 0 is not positive\n"

    def test_non_finite_audio_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "audio" / "utt01.wav"
        samples = np.full(800, 0.25, dtype=np.float32)
        samples[400] = np.nan
        err = self.refused(tmp_path, capsys,
                           lambda root: wavfile.write(path, 4000, samples))
        assert err == f"error: {path}: WAV file holds a non-finite sample\n"

    def test_non_finite_visual_features_name_the_file(self, tmp_path,
                                                      capsys):
        path = tmp_path / "visual" / "utt05.tbjt"
        feats = np.ones((3, 5))
        feats[1, 2] = np.nan
        err = self.refused(tmp_path, capsys,
                           lambda root: TT.save_array(path, feats))
        assert err == (f"error: visual features for 'utt05' in {path} hold "
                       f"a non-finite value\n")

    @pytest.mark.parametrize("floor", [0.0, -1e-5, float("nan"),
                                       float("inf")])
    def test_mel_floor_must_be_a_finite_positive_number(self, tmp_path,
                                                         capsys, floor):
        def edit(root):
            raw = json.loads((root / "config.json").read_text())
            raw["mel"]["floor"] = floor
            (root / "config.json").write_text(json.dumps(raw))
        err = self.refused(tmp_path, capsys, edit)
        assert err == (f"error: mel.floor must be a finite number > 0, "
                       f"got {floor}\n")

    def test_failed_manifest_write_keeps_the_previous_bundle(
            self, corpus, tmp_path, monkeypatch):
        """A disk that fills up while extract-features writes the
        manifest.json of an existing bundle leaves that bundle as it was,
        and no temporary file."""
        bundle = tmp_path / "bundle"
        argv = ["extract-features", "--config", str(corpus / "config.json"),
                "--bundle", str(bundle)]
        assert run_quiet(argv) == EXIT_OK
        before = tree_bytes(bundle)
        cut = cut_writes_to(monkeypatch, "manifest.json")
        assert run_quiet(argv) == EXIT_IO
        assert len(cut) == 1
        assert tree_bytes(bundle) == before

    def test_reextraction_replaces_an_existing_bundle_whole(self, tmp_path):
        """Extracting again into an existing bundle after one transcript
        changed gives the bytes a fresh extraction gives, and leaves no
        sibling directory."""
        build_toy_corpus(tmp_path)
        argv = ["extract-features", "--config",
                str(toy_run_config(tmp_path))]
        assert run_quiet(argv) == EXIT_OK
        before = tree_bytes(tmp_path / "bundle")
        (tmp_path / "text" / "utt01.txt").write_text("An altered line.")
        assert run_quiet(argv) == EXIT_OK
        assert run_quiet(argv + ["--bundle", str(tmp_path / "fresh")]) \
            == EXIT_OK
        replaced = tree_bytes(tmp_path / "bundle")
        assert replaced == tree_bytes(tmp_path / "fresh") != before
        assert not list(tmp_path.glob("bundle.*"))

    def test_failed_array_write_keeps_the_previous_bundle_whole(
            self, tmp_path, monkeypatch):
        """A re-extraction whose valid L features fail to write, after its
        manifest, vocabulary and train arrays were written, leaves the first
        bundle byte for byte and no sibling directory."""
        build_toy_corpus(tmp_path)
        argv = ["extract-features", "--config",
                str(toy_run_config(tmp_path))]
        assert run_quiet(argv) == EXIT_OK
        before = tree_bytes(tmp_path / "bundle")
        # a train transcript: the vocabulary and train arrays change too
        (tmp_path / "text" / "utt01.txt").write_text("An altered line.")
        real_save = tbje.data.save_array

        def save_array(path, arr):
            if Path(path).parts[-2:] == ("valid", "L.features.tbjt"):
                raise OSError(28, "No space left on device")
            real_save(path, arr)
        monkeypatch.setattr(tbje.data, "save_array", save_array)
        assert run_quiet(argv) == EXIT_IO
        assert tree_bytes(tmp_path / "bundle") == before
        assert not list(tmp_path.glob("bundle.*"))

    def test_out_of_memory_exits_3_with_one_line(self, tmp_path):
        """A split array many times the address space the process may use
        ends in one line and exit 3, with no bundle and no sibling left."""
        build_toy_corpus(tmp_path)
        config = toy_run_config(tmp_path)
        raw = json.loads(config.read_text())
        # 4 train examples x 2M rows x 300 floats: 19.2 GB against 1.5 GiB
        raw["encoder"]["lengths"]["L"] = 2_000_000
        config.write_text(json.dumps(raw))
        cap = 3 << 29

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
        src = Path(tbje.cli.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-W", "ignore::tbje.errors.DataWarning", "-m",
             "tbje.cli", "extract-features", "--config", str(config)],
            env=dict(os.environ, PYTHONPATH=str(src),
                     OPENBLAS_NUM_THREADS="1"),
            preexec_fn=limit, capture_output=True, text=True, timeout=120)
        assert done.returncode == EXIT_IO, done.stderr
        assert done.stderr.startswith("out of memory: ")
        assert done.stderr.count("\n") == 1 and done.stderr.endswith("\n")
        assert "Traceback" not in done.stderr
        assert not list(tmp_path.glob("bundle*"))

    def test_siblings_a_kill_left_are_removed(self, corpus, tmp_path):
        for sibling in ("bundle.tmp", "bundle.old.tmp"):
            (tmp_path / sibling / "train").mkdir(parents=True)
        assert run_quiet(["extract-features", "--config",
                          str(corpus / "config.json"), "--bundle",
                          str(tmp_path / "bundle")]) == EXIT_OK
        assert [p.name for p in tmp_path.iterdir()] == ["bundle"]
        assert tree_bytes(tmp_path / "bundle") == tree_bytes(corpus / "bundle")

    def test_target_that_is_no_bundle_is_refused_untouched(self, corpus,
                                                          tmp_path, capsys):
        target = tmp_path / "notes"
        target.mkdir()
        (target / "todo.txt").write_text("keep me")
        capsys.readouterr()
        assert run_quiet(["extract-features", "--config",
                          str(corpus / "config.json"), "--bundle",
                          str(target)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {target} is neither a bundle nor an empty directory; a "
            f"bundle written there would replace it whole\n")
        assert tree_bytes(target) == {"todo.txt": b"keep me"}

    def test_target_that_is_no_bundle_is_refused_before_any_input_is_read(
            self, corpus, tmp_path, capsys):
        target = tmp_path / "notes"
        target.mkdir()
        (target / "todo.txt").write_text("keep me")
        capsys.readouterr()
        assert run_quiet(["extract-features", "--config",
                          str(corpus / "config.json"), "--bundle",
                          str(target), "--manifest",
                          str(tmp_path / "absent.csv")]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {target} is neither a bundle nor an empty directory; a "
            f"bundle written there would replace it whole\n")
        assert tree_bytes(target) == {"todo.txt": b"keep me"}

    def test_modality_without_a_configured_length_rejected(self, tmp_path,
                                                           capsys):
        # the L+A config of an L+A+V corpus: no encoder.lengths.V
        err = self.refused(tmp_path, capsys, lambda root: toy_run_config(
            root, with_visual=False))
        assert err == ("error: the manifest's inputs need a padded length, "
                       "and the config sets no encoder.lengths.V\n")


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

class TestTrain:
    def test_outputs_and_summary(self, corpus, trained):
        for i in range(2):
            assert (trained / f"model-member{i}.tbjm").is_file()
            lines = (trained / f"train-member{i}.ndjson").read_text() \
                .splitlines()
            records = [json.loads(l) for l in lines]
            assert [r["epoch"] for r in records] == [1, 2, 3]
            _, state = load_train_state(trained / f"state-member{i}.tbjs")
            assert state.log == records
        assert (trained / "model-member0.tbjm").read_bytes() != \
            (trained / "model-member1.tbjm").read_bytes()
        summary = json.loads((trained / "summary.json").read_text())
        assert [m["member"] for m in summary["members"]] == [0, 1]
        assert [m["seed"] for m in summary["members"]] == [0, 1]
        for m in summary["members"]:
            assert 0.0 <= m["best_val_accuracy"] <= 1.0

    def test_checkpoint_carries_vocab_hash(self, corpus, trained):
        bundle = read_bundle(corpus / "bundle")
        model = load_model(trained / "model-member0.tbjm")
        assert model.vocab_hash == bundle.vocab_hash

    def test_two_runs_bit_identical(self, corpus, tmp_path):
        config = corpus / "config.json"
        outs = [tmp_path / "runA", tmp_path / "runB"]
        for out in outs:
            assert main(["train", "--config", str(config),
                         "--out", str(out)]) == EXIT_OK
        for name in ("model-member0.tbjm", "model-member1.tbjm",
                     "train-member0.ndjson", "train-member1.ndjson"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_seed_flag_changes_everything(self, corpus, tmp_path):
        config = corpus / "config.json"
        out = tmp_path / "seeded"
        assert main(["train", "--config", str(config), "--out", str(out),
                     "--seed", "9"]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert [m["seed"] for m in summary["members"]] == [9, 10]
        assert (out / "model-member0.tbjm").read_bytes() != \
            (corpus / "run" / "model-member0.tbjm").read_bytes()

    def test_resume_matches_uninterrupted(self, corpus, tmp_path):
        full_cfg = variant_config(corpus, tmp_path / "full.json",
                                  training={"max_epochs": 5})
        half_cfg = variant_config(corpus, tmp_path / "half.json",
                                  training={"max_epochs": 2})
        direct = tmp_path / "direct"
        paused = tmp_path / "paused"
        assert main(["train", "--config", str(full_cfg),
                     "--out", str(direct)]) == EXIT_OK
        assert main(["train", "--config", str(half_cfg),
                     "--out", str(paused)]) == EXIT_OK
        assert main(["train", "--config", str(full_cfg),
                     "--out", str(paused), "--resume"]) == EXIT_OK
        for name in ("model-member0.tbjm", "model-member1.tbjm",
                     "train-member0.ndjson", "train-member1.ndjson"):
            assert (direct / name).read_bytes() == (paused / name).read_bytes()

    @staticmethod
    def resume_edited_state(corpus, tmp_path, capsys, edit):
        """Train one epoch, rewrite member 0's state bytes with ``edit``
        and resume; returns the exit code, stderr and the state's path."""
        config = variant_config(corpus, tmp_path / "one.json",
                                training={"max_epochs": 1})
        out = tmp_path / "old"
        assert main(["train", "--config", str(config),
                     "--out", str(out)]) == EXIT_OK
        state = out / "state-member0.tbjs"
        state.write_bytes(edit(state.read_bytes()))
        capsys.readouterr()
        code = main(["train", "--config", str(config), "--out", str(out),
                     "--resume"])
        return code, capsys.readouterr().err, state

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_resume_from_an_old_state_version_rejected(
            self, corpus, tmp_path, capsys, version):
        """A version-3 state holds the best parameters itself, which this
        build keeps in model-member{i}.tbjm; a version-4 state does not
        record the training config it ran under, so a resume could not
        check it. This build refuses every state but version 5."""
        code, err, state = self.resume_edited_state(
            corpus, tmp_path, capsys,
            lambda blob: blob[:4] + struct.pack("<I", version) + blob[8:])
        assert code == EXIT_CONFIG
        assert err == (f"error: unsupported train-state version {version} "
                       f"(in {state})\n")

    @pytest.mark.parametrize("field, value, message", [
        ("epoch", "1", "must be an integer, got a string"),
        ("step", None, "must be an integer, got null"),
        ("log", 5, "must be an array, got an integer"),
        ("lr", "x", "must be a number, got a string"),
        ("epoch", 1.5, "must be an integer, got a number"),
    ], ids=["epoch-str", "step-null", "log-int", "lr-str", "epoch-float"])
    def test_resume_from_a_state_header_field_of_the_wrong_type_rejected(
            self, corpus, tmp_path, capsys, field, value, message):
        def edit(blob):
            (size,) = struct.unpack("<I", blob[8:12])
            header = json.loads(blob[12:12 + size])
            header[field] = value
            raw = json.dumps(header, sort_keys=True).encode("utf-8")
            return (blob[:8] + struct.pack("<I", len(raw)) + raw
                    + blob[12 + size:])

        code, err, state = self.resume_edited_state(corpus, tmp_path, capsys,
                                                    edit)
        assert code == EXIT_CONFIG
        assert err == f"error: config key {field!r} {message} (in {state})\n"

    def test_resume_under_a_changed_training_config_rejected(
            self, corpus, tmp_path, capsys):
        config = variant_config(corpus, tmp_path / "two.json",
                                training={"max_epochs": 2})
        changed = variant_config(corpus, tmp_path / "changed.json",
                                 training={"max_epochs": 4, "lr": 0.5,
                                           "batch_size": 1})
        out = tmp_path / "run"
        assert main(["train", "--config", str(config),
                     "--out", str(out)]) == EXIT_OK
        before = tree_bytes(out)
        capsys.readouterr()
        assert main(["train", "--config", str(changed), "--out", str(out),
                     "--seed", "99", "--resume"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == (
            "error: training config does not match the one member 0's "
            "state was trained under (batch_size: state 4, config 1; lr: "
            "state 0.002, config 0.5; seed: state 0, config 99)\n")
        assert captured.out == ""
        assert tree_bytes(out) == before

    def test_resume_with_more_members_and_epochs_matches_uninterrupted(
            self, corpus, tmp_path):
        full = variant_config(corpus, tmp_path / "full.json",
                              training={"max_epochs": 3, "ensemble_size": 3})
        part = variant_config(corpus, tmp_path / "part.json",
                              training={"max_epochs": 2, "ensemble_size": 1})
        direct, paused = tmp_path / "direct", tmp_path / "paused"
        assert main(["train", "--config", str(full),
                     "--out", str(direct)]) == EXIT_OK
        assert main(["train", "--config", str(part),
                     "--out", str(paused)]) == EXIT_OK
        assert main(["train", "--config", str(full), "--out", str(paused),
                     "--resume"]) == EXIT_OK
        got, want = tree_bytes(paused), tree_bytes(direct)
        # the summary's config names each run's own out directory
        summaries = [json.loads(t.pop("summary.json")) for t in (got, want)]
        assert got == want
        assert summaries[0]["members"] == summaries[1]["members"]

    def test_resume_under_a_changed_encoder_config_rejected(
            self, corpus, tmp_path, capsys):
        config = variant_config(corpus, tmp_path / "one.json",
                                training={"max_epochs": 1},
                                encoder={"dropout_block": 0.1})
        changed = variant_config(corpus, tmp_path / "changed.json",
                                 training={"max_epochs": 2},
                                 encoder={"dropout_block": 0.3})
        out = tmp_path / "run"
        assert main(["train", "--config", str(config),
                     "--out", str(out)]) == EXIT_OK
        before = tree_bytes(out)
        capsys.readouterr()
        assert main(["train", "--config", str(changed), "--out", str(out),
                     "--resume"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == ("error: checkpoint config does not match the model "
                       "it is read into (dropout_block: checkpoint 0.1, "
                       f"model 0.3) (in {out / 'state-member0.tbjs'})\n")
        assert tree_bytes(out) == before

    def test_resume_without_the_best_checkpoint_rejected(self, corpus,
                                                         tmp_path, capsys):
        config = variant_config(corpus, tmp_path / "one.json",
                                training={"max_epochs": 1})
        more = variant_config(corpus, tmp_path / "more.json",
                              training={"max_epochs": 3})
        out = tmp_path / "run"
        assert main(["train", "--config", str(config),
                     "--out", str(out)]) == EXIT_OK
        best = out / "model-member0.tbjm"
        best.unlink()
        before = tree_bytes(out)
        capsys.readouterr()
        assert main(["train", "--config", str(more), "--out", str(out),
                     "--resume"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == (f"error: best checkpoint of epoch 1 is missing "
                       f"(in {best})\n")
        assert tree_bytes(out) == before     # refused before any epoch

    @pytest.mark.parametrize("damage", ["cut", "other-config"])
    def test_resume_from_a_damaged_best_checkpoint_rejected(
            self, corpus, tmp_path, capsys, damage):
        config = variant_config(corpus, tmp_path / "one.json",
                                training={"max_epochs": 1})
        more = variant_config(corpus, tmp_path / "more.json",
                              training={"max_epochs": 3})
        out = tmp_path / "run"
        assert main(["train", "--config", str(config),
                     "--out", str(out)]) == EXIT_OK
        best = out / "model-member0.tbjm"
        if damage == "cut":
            best.write_bytes(best.read_bytes()[:-8])
            expected = "checkpoint holds"
        else:
            model = load_model(best)
            model.config = dataclasses.replace(model.config,
                                               dropout_block=0.25)
            save_model(best, model)
            expected = ("checkpoint config does not match the model it is "
                        "read into (dropout_block: checkpoint 0.25, "
                        "model 0.1)")
        before = tree_bytes(out)
        capsys.readouterr()
        assert main(["train", "--config", str(more), "--out", str(out),
                     "--resume"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {expected}")
        assert err.endswith(f" (in {best})\n") and err.count("\n") == 1
        assert tree_bytes(out) == before     # refused before any epoch

    def test_failed_best_write_keeps_the_previous_best(
            self, corpus, tmp_path, monkeypatch):
        """Member 1 improves at epochs 1 and 2 of the toy run; a disk that
        fills up while epoch 2's best checkpoint is written leaves epoch
        1's in place, and no temporary file."""
        config = variant_config(corpus, tmp_path / "c.json",
                                training={"max_epochs": 2})
        out = tmp_path / "run"
        best = out / "model-member1.tbjm"
        real_write_array = TT.write_array
        seen = {"arrays": 0, "previous": None}

        def failing_write_array(fh, arr):
            if getattr(fh, "name", "") == f"{best}.tmp" and best.exists():
                if seen["previous"] is None:
                    seen["previous"] = best.read_bytes()
                seen["arrays"] += 1
                if seen["arrays"] > 3:
                    raise OSError(28, "No space left on device")
            real_write_array(fh, arr)

        monkeypatch.setattr(TT, "write_array", failing_write_array)
        assert main(["train", "--config", str(config),
                     "--out", str(out)]) == EXIT_IO
        assert seen["arrays"] == 4
        assert best.read_bytes() == seen["previous"]
        load_model(best)
        assert not list(out.glob("*.tmp"))

    def test_failed_summary_write_keeps_the_previous_summary(
            self, corpus, tmp_path, monkeypatch):
        """A disk that fills up while a 1-member run resumed as 2 members
        writes its summary.json leaves the 1-member summary in place, and
        no temporary file."""
        one = variant_config(corpus, tmp_path / "one.json",
                             training={"max_epochs": 1, "ensemble_size": 1})
        two = variant_config(corpus, tmp_path / "two.json",
                             training={"max_epochs": 1, "ensemble_size": 2})
        out = tmp_path / "run"
        assert main(["train", "--config", str(one),
                     "--out", str(out)]) == EXIT_OK
        previous = (out / "summary.json").read_bytes()
        cut = cut_writes_to(monkeypatch, "summary.json")
        assert main(["train", "--config", str(two), "--out", str(out),
                     "--resume"]) == EXIT_IO
        assert len(cut) == 1
        assert (out / "summary.json").read_bytes() == previous
        assert (out / "model-member1.tbjm").is_file()
        assert not list(out.glob("*.tmp"))

    def test_crash_after_the_best_write_resumes_exactly(
            self, corpus, tmp_path, monkeypatch):
        """A run killed after epoch 2's best checkpoint of member 1 is
        written, but before its state is, resumes to the same bytes as a
        run never interrupted."""
        config = variant_config(corpus, tmp_path / "c.json",
                                training={"max_epochs": 4})
        out = tmp_path / "run"
        assert main(["train", "--config", str(config),
                     "--out", str(out)]) == EXIT_OK
        uninterrupted = tree_bytes(out)
        shutil.rmtree(out)

        real_save = TR.save_train_state
        crashed = []

        def crashing_save(path, model, state):
            if (Path(path).name == "state-member1.tbjs"
                    and state.epoch == state.best_epoch == 2):
                crashed.append(state.epoch)
                raise OSError(5, "Input/output error")
            real_save(path, model, state)

        monkeypatch.setattr(TR, "save_train_state", crashing_save)
        assert main(["train", "--config", str(config),
                     "--out", str(out)]) == EXIT_IO
        assert crashed == [2]
        _, state = load_train_state(out / "state-member1.tbjs")
        assert (state.epoch, state.best_epoch) == (1, 1)
        monkeypatch.setattr(TR, "save_train_state", real_save)
        assert main(["train", "--config", str(config), "--out", str(out),
                     "--resume"]) == EXIT_OK
        assert tree_bytes(out) == uninterrupted

    def test_cut_state_write_fails_closed(self, corpus, tmp_path,
                                          monkeypatch, capsys):
        """A disk that fills up while member 0's epoch-2 state is written
        over its epoch-1 state fails the run, and a resume then refuses
        the half-written state with one line naming it."""
        config = variant_config(corpus, tmp_path / "c.json",
                                training={"max_epochs": 2})
        out = tmp_path / "run"
        state = out / "state-member0.tbjs"
        real_write_array = TT.write_array
        seen = {"arrays": 0}

        def failing_write_array(fh, arr):
            if getattr(fh, "name", "") == str(state) and state.exists():
                seen["arrays"] += 1
                if seen["arrays"] > 5:
                    raise OSError(28, "No space left on device")
            real_write_array(fh, arr)

        monkeypatch.setattr(TT, "write_array", failing_write_array)
        assert main(["train", "--config", str(config),
                     "--out", str(out)]) == EXIT_IO
        assert seen["arrays"] == 6
        monkeypatch.setattr(TT, "write_array", real_write_array)
        capsys.readouterr()
        assert main(["train", "--config", str(config), "--out", str(out),
                     "--resume"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == ("error: bad train-state magic b'\\x00\\x00\\x00\\x00'; "
                       f"expected b'TBJS' (in {state})\n")

    def test_resume_clears_a_stale_best_temporary(self, corpus, tmp_path):
        """A ``.tmp`` left by a kill during the write of a best checkpoint
        or the summary is removed by the next run over the directory, even
        one with no epochs left. Other files there are left alone."""
        config = variant_config(corpus, tmp_path / "one.json",
                                training={"max_epochs": 1})
        out = tmp_path / "run"
        assert main(["train", "--config", str(config),
                     "--out", str(out)]) == EXIT_OK
        before = tree_bytes(out)
        for i in range(2):
            (out / f"model-member{i}.tbjm.tmp").write_bytes(b"TBJM cut")
        (out / "summary.json.tmp").write_bytes(b'{"members": [')
        (out / "notes.txt.tmp").write_bytes(b"not the run's")
        assert main(["train", "--config", str(config), "--out", str(out),
                     "--resume"]) == EXIT_OK
        assert tree_bytes(out) == {**before,
                                   "notes.txt.tmp": b"not the run's"}

    def test_each_member_is_released_before_the_next_trains(
            self, corpus, tmp_path, monkeypatch):
        """``tbje train`` holds one member's model and state at a time: by
        the time member i is built, member i-1's are gone, also when
        member 0 is resumed from its state."""
        config = variant_config(corpus, tmp_path / "c.json",
                                training={"max_epochs": 1,
                                          "ensemble_size": 3})
        one = variant_config(corpus, tmp_path / "one.json",
                             training={"max_epochs": 1, "ensemble_size": 1})
        assert main(["train", "--config", str(one),
                     "--out", str(tmp_path / "resumed")]) == EXIT_OK
        real_init, real_fit = tbje.cli.init_model, tbje.cli.fit
        models, states, alive = [], [], []

        def init_model(*args, **kwargs):
            alive.append([ref() is not None for ref in models + states])
            model = real_init(*args, **kwargs)
            models.append(weakref.ref(model))
            return model

        def fit(model, *args, **kwargs):
            alive.append([ref() is not None for ref in models[:-1] + states])
            state = real_fit(model, *args, **kwargs)
            states.append(weakref.ref(state))
            return state

        monkeypatch.setattr(tbje.cli, "init_model", init_model)
        monkeypatch.setattr(tbje.cli, "fit", fit)
        for out, flags in (("fresh", []), ("resumed", ["--resume"])):
            for seen in (models, states, alive):
                seen.clear()
            assert main(["train", "--config", str(config),
                         "--out", str(tmp_path / out)] + flags) == EXIT_OK
            assert len(models) == 3
            assert alive == [[], [], [False] * 2, [False] * 2, [False] * 4,
                             [False] * 4]

    def test_resume_from_truncated_state_names_the_file(self, corpus,
                                                        tmp_path, capsys):
        config = variant_config(corpus, tmp_path / "one.json",
                                training={"max_epochs": 1})
        out = tmp_path / "old"
        assert main(["train", "--config", str(config),
                     "--out", str(out)]) == EXIT_OK
        state = out / "state-member0.tbjs"
        blob = state.read_bytes()
        state.write_bytes(blob[: len(blob) // 2])
        capsys.readouterr()
        assert main(["train", "--config", str(config), "--out", str(out),
                     "--resume"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: truncated file")
        assert err.endswith(f" (in {state})\n") and err.count("\n") == 1

    def test_resume_from_misshaped_moment_rejected(self, corpus, tmp_path,
                                                   capsys):
        config = variant_config(corpus, tmp_path / "one.json",
                                training={"max_epochs": 1})
        out = tmp_path / "old"
        assert main(["train", "--config", str(config),
                     "--out", str(out)]) == EXIT_OK
        path = out / "state-member0.tbjs"
        model, state = load_train_state(path)
        state.first_moment["head.out.bias"] = np.zeros(1)
        save_train_state(path, model, state)
        capsys.readouterr()
        assert main(["train", "--config", str(config), "--out", str(out),
                     "--resume"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: train-state first moment "
                              "'head.out.bias' shaped (1,)")
        assert err.count("\n") == 1

    def test_bundle_mismatch_rejected(self, corpus, tmp_path, capsys):
        bad = variant_config(corpus, tmp_path / "bad.json",
                             encoder={"lengths": {"L": 7, "A": 4, "V": 3}})
        assert main(["train", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "length" in err and err.count("\n") == 1

    def test_missing_bundle_is_io_error(self, corpus, tmp_path):
        assert main(["train", "--config", str(corpus / "config.json"),
                     "--bundle", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "o")]) == EXIT_IO

    def test_damaged_test_split_is_not_read(self, corpus, tmp_path, capsys):
        """train reads only train and valid: a cut test array changes no
        file it writes."""
        config = variant_config(corpus, tmp_path / "one.json",
                                training={"max_epochs": 2,
                                          "ensemble_size": 1})
        bundle, out = tmp_path / "bundle", tmp_path / "run"
        shutil.copytree(corpus / "bundle", bundle)
        argv = ["train", "--config", str(config), "--bundle", str(bundle),
                "--out", str(out)]
        assert main(argv) == EXIT_OK
        intact = tree_bytes(out)
        shutil.rmtree(out)
        cut = bundle / "test" / "A.features.tbjt"
        cut.write_bytes(cut.read_bytes()[:40])
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        assert tree_bytes(out) == intact


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def manifest_edit(change):
    """An edit that applies ``change`` to a bundle's parsed manifest."""
    def edit(bundle):
        path = bundle / "manifest.json"
        manifest = json.loads(path.read_text())
        change(manifest)
        path.write_text(json.dumps(manifest))
    return edit


def array_edit(name, change):
    """An edit that replaces the test split's array ``name`` by ``change``
    of it."""
    def edit(bundle):
        path = bundle / "test" / name
        TT.save_array(path, change(TT.load_array(path)))
    return edit


def set_item(array, index, value):
    array[index] = value
    return array


class TestEvaluate:
    def test_report_written_and_matches_in_process_metrics(
            self, corpus, trained, capsys):
        assert main(["evaluate", "--config",
                     str(corpus / "config.json")]) == EXIT_OK
        capsys.readouterr()
        text = (trained / "report-test.txt").read_text()

        bundle = read_bundle(corpus / "bundle")
        models = [load_model(trained / f"model-member{i}.tbjm")
                  for i in range(2)]
        split = bundle.splits["test"]
        probs = ensemble_predict(
            models, {m: split.batches[m] for m in models[0].config.modalities})
        preds = predictions_from_probabilities(probs, "sentiment-2")
        expected = evaluation_report("sentiment-2", preds,
                                     gold_labels(split, "sentiment-2"))
        assert format_report(expected) in text

    def test_failed_report_write_keeps_the_previous_report(
            self, corpus, trained, monkeypatch):
        """A disk that fills up while evaluate writes its report leaves the
        previous report in place, and no temporary file."""
        argv = ["evaluate", "--config", str(corpus / "config.json")]
        assert main(argv) == EXIT_OK
        previous = (trained / "report-test.txt").read_bytes()
        cut = cut_writes_to(monkeypatch, "report-test.txt")
        assert main(argv) == EXIT_IO
        assert len(cut) == 1
        assert (trained / "report-test.txt").read_bytes() == previous
        assert not list(trained.glob("*.tmp"))

    def test_explicit_checkpoints_equal_glob_default(self, corpus, trained,
                                                     tmp_path, capsys):
        argv = ["evaluate", "--config", str(corpus / "config.json"),
                "--out", str(tmp_path)]
        assert main(argv + [str(trained / "model-member0.tbjm"),
                            str(trained / "model-member1.tbjm")]) == EXIT_OK
        explicit = (tmp_path / "report-test.txt").read_text()
        assert main(["evaluate", "--config", str(corpus / "config.json")]) \
            == EXIT_OK
        capsys.readouterr()
        assert (trained / "report-test.txt").read_text() == explicit

    def test_default_members_are_those_the_summary_lists(
            self, corpus, trained, tmp_path, capsys):
        """A smaller run over a larger run's directory leaves the larger
        run's later checkpoints behind; evaluate's default scores only the
        members summary.json lists."""
        out = tmp_path / "run"
        shutil.copytree(trained, out)
        one = variant_config(corpus, tmp_path / "one.json",
                             training={"ensemble_size": 1})
        assert main(["train", "--config", str(one), "--out", str(out),
                     "--seed", "7"]) == EXIT_OK
        assert (out / "model-member1.tbjm").is_file()
        config = str(corpus / "config.json")
        assert main(["evaluate", "--config", config, "--out",
                     str(tmp_path), str(out / "model-member0.tbjm")]) \
            == EXIT_OK
        assert main(["evaluate", "--config", config, "--out",
                     str(out)]) == EXIT_OK
        capsys.readouterr()
        default = (out / "report-test.txt").read_text()
        assert "\nensemble 1\n" in default
        assert default == (tmp_path / "report-test.txt").read_text()

    @pytest.mark.parametrize("summary", [None, b'{"members": [',
                                         b'{"task": "sentiment-2"}',
                                         b'{"members": []}'])
    def test_default_without_a_usable_summary_is_config_error(
            self, corpus, trained, tmp_path, capsys, summary):
        out = tmp_path / "run"
        shutil.copytree(trained, out)
        listing = out / "summary.json"
        if summary is None:
            listing.unlink()
        else:
            listing.write_bytes(summary)
        capsys.readouterr()
        assert main(["evaluate", "--config", str(corpus / "config.json"),
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(listing) in err

    def test_duplicated_checkpoint_changes_nothing(self, corpus, trained,
                                                   tmp_path, capsys):
        config = str(corpus / "config.json")
        member = str(trained / "model-member0.tbjm")
        assert main(["evaluate", "--config", config, "--out", str(tmp_path),
                     member]) == EXIT_OK
        single = (tmp_path / "report-test.txt").read_text()
        assert main(["evaluate", "--config", config, "--out", str(tmp_path),
                     member, member]) == EXIT_OK
        capsys.readouterr()
        doubled = (tmp_path / "report-test.txt").read_text()
        assert doubled.replace("ensemble 2", "ensemble 1") == single

    def test_memorizing_model_scores_perfectly_on_train(self, tmp_path,
                                                        capsys):
        root = tmp_path / "memo-corpus"
        build_toy_corpus(root)
        manifest = root / "manifest.csv"
        lines = manifest.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        # valid mirrors train (same files, fresh ids) so the best-validation
        # checkpoint is exactly the memorizing one
        train_rows = [r for r in rows if r[1] == "train"]
        mirrored = [["dup-" + r[0], "valid"] + r[2:] for r in train_rows]
        test_rows = [r for r in rows if r[1] == "test"]
        kept = train_rows + mirrored + test_rows
        manifest.write_text(
            "\n".join([lines[0]] + [",".join(r) for r in kept]) + "\n")
        config = toy_run_config(root, max_epochs=60, ensemble_size=1)
        out = root / "run"
        assert run_quiet(["extract-features", "--config", str(config)]) \
            == EXIT_OK
        assert main(["train", "--config", str(config)]) == EXIT_OK
        assert main(["evaluate", "--config", str(config), "--out", str(out),
                     "--split", "train"]) == EXIT_OK
        capsys.readouterr()
        assert "accuracy 1.0000" in (out / "report-train.txt").read_text()

    def test_vocabulary_mismatch_rejected(self, corpus, trained, tmp_path,
                                          capsys):
        other = tmp_path / "other-corpus"
        build_toy_corpus(other)
        from toy_corpus import write_embeddings
        write_embeddings(other / "embeddings.txt", seed=99)
        config = toy_run_config(other)
        assert run_quiet(["extract-features", "--config", str(config)]) \
            == EXIT_OK
        assert main(["evaluate", "--config", str(config),
                     str(trained / "model-member0.tbjm")]) == EXIT_CONFIG
        assert "vocabulary" in capsys.readouterr().err

    def test_modality_mismatch_rejected(self, corpus, trained, tmp_path,
                                        capsys):
        text_only = tmp_path / "text-only"
        build_toy_corpus(text_only, with_audio=False, with_visual=False)
        config = toy_run_config(text_only, with_audio=False,
                                with_visual=False)
        assert run_quiet(["extract-features", "--config", str(config)]) \
            == EXIT_OK
        assert main(["evaluate", "--config", str(config),
                     str(trained / "model-member0.tbjm")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "modality" in err and err.count("\n") == 1

    def test_truncated_checkpoint_is_config_error(self, corpus, trained,
                                                  tmp_path, capsys):
        blob = (trained / "model-member0.tbjm").read_bytes()
        cut = tmp_path / "cut.tbjm"
        cut.write_bytes(blob[: len(blob) // 2])
        assert main(["evaluate", "--config", str(corpus / "config.json"),
                     "--out", str(tmp_path), str(cut)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: truncated file") and err.count("\n") == 1

    @pytest.mark.parametrize("version", [1, 2, 4])
    def test_checkpoint_of_another_version_is_config_error(
            self, corpus, trained, tmp_path, capsys, version):
        blob = (trained / "model-member0.tbjm").read_bytes()
        other = tmp_path / "other.tbjm"
        other.write_bytes(blob[:4] + struct.pack("<I", version) + blob[8:])
        capsys.readouterr()
        assert main(["evaluate", "--config", str(corpus / "config.json"),
                     "--out", str(tmp_path), str(other)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: unsupported checkpoint version {version} (in {other})\n")
        assert not (tmp_path / "report-test.txt").exists()

    def test_truncated_second_member_fails_after_the_first(
            self, corpus, trained, tmp_path, capsys):
        blob = (trained / "model-member1.tbjm").read_bytes()
        cut = tmp_path / "cut.tbjm"
        cut.write_bytes(blob[: len(blob) // 2])
        assert main(["evaluate", "--config", str(corpus / "config.json"),
                     "--out", str(tmp_path),
                     str(trained / "model-member0.tbjm"), str(cut)]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: truncated file") and err.count("\n") == 1
        assert not (tmp_path / "report-test.txt").exists()

    def test_second_member_of_another_vocabulary_rejected(
            self, corpus, trained, tmp_path, capsys):
        other = load_model(trained / "model-member1.tbjm")
        other.vocab_hash = "0" * 64
        save_model(tmp_path / "other.tbjm", other)
        assert main(["evaluate", "--config", str(corpus / "config.json"),
                     "--out", str(tmp_path),
                     str(trained / "model-member0.tbjm"),
                     str(tmp_path / "other.tbjm")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint") and "vocabulary" in err
        assert err.count("\n") == 1

    def test_members_read_into_one_model_equal_fresh_loads(
            self, corpus, trained, tmp_path, capsys):
        paths = [trained / f"model-member{i}.tbjm" for i in (0, 1, 0)]
        assert main(["evaluate", "--config", str(corpus / "config.json"),
                     "--out", str(tmp_path)] + [str(p) for p in paths]) \
            == EXIT_OK
        printed = capsys.readouterr().out

        split = read_bundle(corpus / "bundle").splits["test"]
        probs = ensemble_predict([load_model(p) for p in paths],
                                 split.batches)
        report = format_report(evaluation_report(
            "sentiment-2",
            predictions_from_probabilities(probs, "sentiment-2"),
            gold_labels(split, "sentiment-2")))
        text = f"split test\nexamples {split.size}\nensemble 3\n" + report
        assert (tmp_path / "report-test.txt").read_text() == text
        assert printed.startswith(text)

    def test_one_model_is_built_per_invocation(self, corpus, trained,
                                               tmp_path, monkeypatch, capsys):
        built = []
        real = tbje.model._build_model

        def counted(*args, **kwargs):
            built.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(tbje.model, "_build_model", counted)
        assert main(["evaluate", "--config", str(corpus / "config.json"),
                     "--out", str(tmp_path),
                     str(trained / "model-member0.tbjm"),
                     str(trained / "model-member1.tbjm"),
                     str(trained / "model-member0.tbjm")]) == EXIT_OK
        capsys.readouterr()
        assert len(built) == 1

    def test_second_member_of_another_config_rejected(
            self, corpus, trained, tmp_path, capsys):
        other = load_model(trained / "model-member1.tbjm")
        other.config = dataclasses.replace(
            other.config, dropout_block=other.config.dropout_block + 0.125)
        save_model(tmp_path / "other.tbjm", other)
        assert main(["evaluate", "--config", str(corpus / "config.json"),
                     "--out", str(tmp_path),
                     str(trained / "model-member0.tbjm"),
                     str(tmp_path / "other.tbjm")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint config")
        assert "dropout_block" in err and err.count("\n") == 1
        assert str(tmp_path / "other.tbjm") in err
        assert not (tmp_path / "report-test.txt").exists()

    def test_manifest_cut_mid_string_is_config_error(self, corpus, trained,
                                                     tmp_path, capsys):
        bundle = tmp_path / "bundle"
        shutil.copytree(corpus / "bundle", bundle)
        text = (bundle / "manifest.json").read_bytes()
        (bundle / "manifest.json").write_bytes(
            text[: text.index(b'"', text.index(b'"ids"') + 5) + 3])
        with pytest.raises(ConfigError, match="manifest.*not valid JSON"):
            read_bundle(bundle)
        assert main(["evaluate", "--config", str(corpus / "config.json"),
                     "--bundle", str(bundle)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: bundle manifest")
        assert err.count("\n") == 1

    def test_truncated_bundle_array_names_the_file(self, corpus, trained,
                                                   tmp_path, capsys):
        bundle = tmp_path / "bundle"
        shutil.copytree(corpus / "bundle", bundle)
        cut = bundle / "test" / "L.features.tbjt"
        blob = cut.read_bytes()
        cut.write_bytes(blob[: len(blob) // 2])
        assert main(["evaluate", "--config", str(corpus / "config.json"),
                     "--bundle", str(bundle)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: truncated file")
        assert err.endswith(f" (in {cut})\n") and err.count("\n") == 1

    @pytest.mark.parametrize("section,entry,key", [
        ("splits", "test", "count"), ("splits", "test", "ids"),
        ("modalities", "A", "width")])
    def test_manifest_entry_without_key_is_config_error(
            self, corpus, trained, tmp_path, capsys, section, entry, key):
        bundle = tmp_path / "bundle"
        shutil.copytree(corpus / "bundle", bundle)
        manifest = json.loads((bundle / "manifest.json").read_text())
        del manifest[section][entry][key]
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        assert main(["evaluate", "--config", str(corpus / "config.json"),
                     "--bundle", str(bundle)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: bundle manifest")
        assert f"{section} entry '{entry}'" in err and err.count("\n") == 1

    @pytest.mark.parametrize("section,entry,key,value", [
        ("splits", "test", "ids", 5), ("splits", "test", "ids", None),
        ("splits", "test", "count", "2"), ("modalities", "A", "length", 2.5)])
    def test_manifest_field_of_the_wrong_type_is_config_error(
            self, corpus, trained, tmp_path, capsys, section, entry, key,
            value):
        bundle = tmp_path / "bundle"
        shutil.copytree(corpus / "bundle", bundle)
        manifest = json.loads((bundle / "manifest.json").read_text())
        manifest[section][entry][key] = value
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        assert main(["evaluate", "--config", str(corpus / "config.json"),
                     "--bundle", str(bundle)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: bundle manifest {bundle / 'manifest.json'}: ")
        assert f"{section} entry '{entry}' key '{key}'" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("bad,named", [
        ([1, None], "id 1 is not a string"),
        (["x", "x"], 'id "x" is repeated')])
    def test_manifest_split_ids_must_be_distinct_strings(
            self, corpus, trained, tmp_path, capsys, bad, named):
        bundle = tmp_path / "bundle"
        shutil.copytree(corpus / "bundle", bundle)
        manifest = json.loads((bundle / "manifest.json").read_text())
        manifest["splits"]["test"]["ids"][:2] = bad
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        assert main(["evaluate", "--config", str(corpus / "config.json"),
                     "--bundle", str(bundle)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == (f"error: bundle manifest {bundle / 'manifest.json'}: "
                       f"splits entry 'test' {named}\n")

    @pytest.mark.parametrize("key", ["splits", "modalities"])
    def test_manifest_list_in_place_of_object_is_config_error(
            self, corpus, tmp_path, key):
        bundle = tmp_path / "bundle"
        shutil.copytree(corpus / "bundle", bundle)
        manifest = json.loads((bundle / "manifest.json").read_text())
        manifest[key] = list(manifest[key])
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match=f"'{key}' must be a JSON "
                                              f"object"):
            read_bundle(bundle)

    def test_gold_labels_use_the_checkpoint_boundary(self, corpus, tmp_path,
                                                     capsys):
        # train with boundary 1.0, score under the corpus config (default
        # boundary 0.0): the train split's 0.5 example must count as
        # negative. (No toy example lies in [0, 0.5), so 0.5 would not
        # tell the two boundaries apart.)
        run = tmp_path / "run"
        config = variant_config(corpus, tmp_path / "boundary.json",
                                training={"ensemble_size": 1,
                                          "max_epochs": 1},
                                encoder={"sentiment_boundary": 1.0},
                                paths={"out": str(run)})
        assert main(["train", "--config", str(config)]) == EXIT_OK
        checkpoint = run / "model-member0.tbjm"
        assert main(["evaluate", "--config", str(corpus / "config.json"),
                     "--split", "train", "--out", str(tmp_path),
                     str(checkpoint)]) == EXIT_OK
        capsys.readouterr()
        text = (tmp_path / "report-train.txt").read_text()

        split = read_bundle(corpus / "bundle").splits["train"]
        model = load_model(checkpoint)
        preds = predictions_from_probabilities(
            ensemble_predict([model], split.batches), "sentiment-2")
        reports = {b: format_report(evaluation_report(
            "sentiment-2", preds, gold_labels(split, "sentiment-2", b)))
            for b in (0.0, 1.0)}
        assert reports[0.0] != reports[1.0]
        assert reports[1.0] in text

    @pytest.mark.parametrize("edit, code, says", [
        (manifest_edit(lambda m: m.update(format_version=2)), EXIT_CONFIG,
         "error: bundle format version 2 unsupported"),
        (manifest_edit(lambda m: m["splits"]["test"].update(count=5)),
         EXIT_CONFIG, "error: split test holds "),
        (manifest_edit(lambda m: m["splits"]["test"]["ids"].append("x")),
         EXIT_CONFIG, "error: split test: modality "),
        (array_edit("labels.sentiment.tbjt", lambda a: a[1:]), EXIT_CONFIG,
         "error: split test: sentiment labels shaped "),
        (array_edit("labels.sentiment.tbjt", lambda a: set_item(a, 0, 4.0)),
         EXIT_CONFIG, "error: split test: sentiment outside "),
        (array_edit("labels.emotions.tbjt",
                    lambda a: set_item(a, (0, 0), 2.0)),
         EXIT_CONFIG, "error: split test: emotion flags must be 0/1"),
        (array_edit("labels.emotions.tbjt", lambda a: a[:, :5]), EXIT_CONFIG,
         "error: split test: emotion labels shaped "),
        (array_edit("L.features.tbjt", lambda a: a[..., :7]), EXIT_CONFIG,
         "error: split test modality L shaped "),
        (array_edit("L.features.tbjt", lambda a: a[:, 0]), EXIT_CONFIG,
         "error: batch features must be (batch, N, width)"),
        (array_edit("L.mask.tbjt", lambda a: a[1:]), EXIT_CONFIG,
         "error: mask shape "),
        (lambda bundle: (bundle / "test" / "labels.emotions.tbjt").unlink(),
         EXIT_IO, "i/o error: bundle is missing files:"),
    ], ids=["format-version-2", "count-5", "one-id-more-than-the-arrays",
            "sentiment-of-wrong-length", "sentiment-4.0", "emotion-flag-2",
            "emotions-shaped-n-by-5", "L-features-of-width-7",
            "2-d-L-features", "mask-of-wrong-length", "array-file-missing"])
    def test_edited_bundle_ends_in_one_line(self, corpus, trained, tmp_path,
                                            capsys, edit, code, says):
        bundle = tmp_path / "bundle"
        shutil.copytree(corpus / "bundle", bundle)
        edit(bundle)
        assert main(["evaluate", "--config", str(corpus / "config.json"),
                     "--bundle", str(bundle)]) == code
        err = capsys.readouterr().err
        assert err.startswith(says)
        assert err.count("\n") == 1, err

    def test_missing_split_rejected(self, corpus, trained, capsys):
        assert main(["evaluate", "--config", str(corpus / "config.json"),
                     "--split", "extra"]) == EXIT_CONFIG
        assert "extra" in capsys.readouterr().err

    def test_unknown_split_rejected_before_any_array_is_read(
            self, corpus, trained, capsys, monkeypatch):
        def no_read(path):
            raise AssertionError(f"read {path}")

        monkeypatch.setattr(tbje.data, "load_array", no_read)
        assert main(["evaluate", "--config", str(corpus / "config.json"),
                     "--split", "nope"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: bundle lacks required splits ['nope']; has ['test', "
            "'train', 'valid']\n")

    def test_damaged_split_it_does_not_score_is_not_read(
            self, corpus, trained, tmp_path, capsys):
        """evaluate reads only the split it scores: a cut train array
        leaves the test report as the intact bundle gives it."""
        argv = ["evaluate", "--config", str(corpus / "config.json")]
        capsys.readouterr()
        assert main(argv) == EXIT_OK
        intact = capsys.readouterr()
        bundle = tmp_path / "bundle"
        shutil.copytree(corpus / "bundle", bundle)
        cut = bundle / "train" / "L.features.tbjt"
        cut.write_bytes(cut.read_bytes()[:40])
        assert main(argv + ["--bundle", str(bundle)]) == EXIT_OK
        assert capsys.readouterr() == intact
        assert "accuracy" in intact.out


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

class TestGradcheck:
    def test_default_toy_config_passes(self, capsys):
        assert main(["gradcheck"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") > 50

    def test_monomodal_config_checks_only_that_path(self, tmp_path, capsys):
        from tbje.model import EncoderConfig
        cfg = RunConfig(
            encoder=EncoderConfig(
                modalities=("L",), primary="L", blocks=1, width=8, heads=2,
                mlp_width=12, lengths={"L": 3}, input_widths={"L": 4},
                task="sentiment-2"),
            paths={})
        path = tmp_path / "mono.json"
        save_run_config(path, cfg)
        assert main(["gradcheck", "--config", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "proj.L." in out
        assert "proj.A." not in out and "enc.A." not in out

    def test_config_seed_is_read_and_seed_flag_wins(self, tmp_path, capsys):
        from tbje.model import EncoderConfig
        encoder = EncoderConfig(
            modalities=("L",), primary="L", blocks=1, width=8, heads=2,
            mlp_width=12, lengths={"L": 3}, input_widths={"L": 4},
            task="sentiment-2")
        out = {}
        for seed in (0, 7):
            path = tmp_path / f"seed{seed}.json"
            save_run_config(path, RunConfig(encoder=encoder,
                                            training=TrainConfig(seed=seed)))
            assert main(["gradcheck", "--config", str(path),
                         "--max-coords", "2"]) == EXIT_OK
            out[seed] = capsys.readouterr().out
        assert out[0] != out[7]
        assert main(["gradcheck", "--config", str(tmp_path / "seed7.json"),
                     "--seed", "0", "--max-coords", "2"]) == EXIT_OK
        assert capsys.readouterr().out == out[0]

    @pytest.mark.parametrize("coords", ["0", "-1"])
    def test_max_coords_below_one_rejected(self, capsys, coords):
        assert main(["gradcheck", "--max-coords", coords]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --max-coords must be >= 1, got "
                                f"{coords}\n")

    def test_full_size_config_rejected(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        save_run_config(path, RunConfig())
        assert main(["gradcheck", "--config", str(path)]) == EXIT_CONFIG
        assert "toy" in capsys.readouterr().err

    def test_emotions_config_checks_the_loss_it_trains_with(
            self, tmp_path, monkeypatch, capsys):
        """An emotions-6 model trains with per-label BCE, whose gradient
        runs through log_sigmoid; a wrong log_sigmoid vjp must fail."""
        encoder = dataclasses.replace(tbje.cli.toy_encoder(),
                                      task="emotions-6")
        path = tmp_path / "emotions.json"
        save_run_config(path, RunConfig(encoder=encoder))
        argv = ["gradcheck", "--config", str(path), "--max-coords", "2"]
        assert main(argv) == EXIT_OK

        def corrupt_log_sigmoid(a):
            x = a.data
            data = np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))
            # the true vjp is g * sigmoid(-x): 1.5 times it, wrong on purpose
            return TT._from_op(data, (a,),
                               lambda g: (1.5 * g / (1.0 + np.exp(x)),))

        monkeypatch.setattr(TT, "log_sigmoid", corrupt_log_sigmoid)
        capsys.readouterr()
        assert main(argv) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert "FAIL head.out.weight" in captured.out
        assert "FAILED" in captured.err

    def test_corrupted_backward_fails(self, monkeypatch, capsys):
        true_relu = TT.relu

        def corrupt_relu(a):
            out = true_relu(a)
            data = np.maximum(a.data, 0.0)

            active = a.data > 0
            # wrong on purpose
            return TT._from_op(data, (a,), lambda g: (g * active * 1.5,))

        monkeypatch.setattr(TT, "relu", corrupt_relu)
        assert main(["gradcheck"]) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "FAILED" in captured.err


# ---------------------------------------------------------------------------
# sweep-blocks
# ---------------------------------------------------------------------------

def parse_sweep_table(text: str):
    lines = [l for l in text.splitlines() if l.strip()]
    header = lines[0].split()
    assert header == ["blocks", "val_accuracy", "test_accuracy", "seconds"]
    rows = []
    for line in lines[1:]:
        b, val_acc, test_acc, seconds = line.split()
        rows.append((int(b), float(val_acc), float(test_acc),
                     float(seconds)))
    return rows


class TestSweepBlocks:
    def test_table_well_formed(self, corpus, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep-blocks", "--config", str(corpus / "config.json"),
                     "--out", str(out), "--blocks", "0,1,2"]) == EXIT_OK
        capsys.readouterr()
        rows = parse_sweep_table((out / "sweep-blocks.txt").read_text())
        assert [r[0] for r in rows] == [0, 1, 2]
        for _, val_acc, test_acc, seconds in rows:
            assert 0.0 <= val_acc <= 1.0
            assert 0.0 <= test_acc <= 1.0
            assert seconds >= 0.0

    def test_single_block_count_single_row(self, corpus, tmp_path, capsys):
        out = tmp_path / "sweep1"
        assert main(["sweep-blocks", "--config", str(corpus / "config.json"),
                     "--out", str(out), "--blocks", "1"]) == EXIT_OK
        capsys.readouterr()
        assert len(parse_sweep_table(
            (out / "sweep-blocks.txt").read_text())) == 1

    def test_negative_block_count_rejected(self, corpus, capsys):
        assert main(["sweep-blocks", "--config", str(corpus / "config.json"),
                     "--blocks", "2,-1"]) == EXIT_CONFIG
        assert ">= 0" in capsys.readouterr().err

    def test_malformed_block_list_rejected(self, corpus, capsys):
        assert main(["sweep-blocks", "--config", str(corpus / "config.json"),
                     "--blocks", "two"]) == EXIT_CONFIG
        capsys.readouterr()
