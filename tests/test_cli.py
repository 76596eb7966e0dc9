"""End-to-end command-line tests: extraction, training, evaluation,
gradient checking, and the block sweep, plus exit-code discipline."""

import json
import shutil
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

import tbje.tensor as TT
from tbje.cli import (EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK,
                      format_report, main)
from tbje.config import (RunConfig, load_run_config, mel_from_dict,
                         default_encoder, save_run_config)
from tbje.data import load_vocabulary, read_bundle
from tbje.errors import ConfigError
from tbje.features import DataWarning, MelConfig
from tbje.metrics import evaluation_report
from tbje.model import load_model, save_model
from tbje.training import (TrainConfig, ensemble_predict, gold_labels,
                           load_train_state, predictions_from_probabilities,
                           save_train_state)

from toy_corpus import build_toy_corpus, toy_run_config


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
            mel_from_dict({"preemphasis": 0.97})

    def test_default_encoder_is_bimodal_joint(self):
        assert default_encoder().resolved_variant() == "joint"


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

    def test_resume_from_v1_state_rejected(self, corpus, tmp_path, capsys):
        config = variant_config(corpus, tmp_path / "one.json",
                                training={"max_epochs": 1})
        out = tmp_path / "old"
        assert main(["train", "--config", str(config),
                     "--out", str(out)]) == EXIT_OK
        state = out / "state-member0.tbjs"
        blob = state.read_bytes()
        state.write_bytes(blob[:4] + struct.pack("<I", 1) + blob[8:])
        capsys.readouterr()
        assert main(["train", "--config", str(config), "--out", str(out),
                     "--resume"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "error: unsupported train-state version 1\n"

    def test_resume_from_v2_state_rejected(self, corpus, tmp_path, capsys):
        config = variant_config(corpus, tmp_path / "one.json",
                                training={"max_epochs": 1})
        out = tmp_path / "old"
        assert main(["train", "--config", str(config),
                     "--out", str(out)]) == EXIT_OK
        state = out / "state-member0.tbjs"
        blob = state.read_bytes()
        state.write_bytes(blob[:4] + struct.pack("<I", 2) + blob[8:])
        capsys.readouterr()
        assert main(["train", "--config", str(config), "--out", str(out),
                     "--resume"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "error: unsupported train-state version 2\n"

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
        assert "length" in capsys.readouterr().err

    def test_missing_bundle_is_io_error(self, corpus, tmp_path):
        assert main(["train", "--config", str(corpus / "config.json"),
                     "--bundle", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "o")]) == EXIT_IO


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

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
        assert "modality" in capsys.readouterr().err

    def test_truncated_checkpoint_is_config_error(self, corpus, trained,
                                                  tmp_path, capsys):
        blob = (trained / "model-member0.tbjm").read_bytes()
        cut = tmp_path / "cut.tbjm"
        cut.write_bytes(blob[: len(blob) // 2])
        assert main(["evaluate", "--config", str(corpus / "config.json"),
                     "--out", str(tmp_path), str(cut)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: truncated file") and err.count("\n") == 1

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

    def test_corrupt_vocabulary_is_config_error(self, corpus, tmp_path):
        bundle = tmp_path / "bundle"
        shutil.copytree(corpus / "bundle", bundle)
        for raw in (b'{"tokens": ["pad", "un', b'\xff', b'{"tokens": []}'):
            (bundle / "vocab.json").write_bytes(raw)
            with pytest.raises(ConfigError, match="vocabulary"):
                load_vocabulary(bundle)

    def test_missing_split_rejected(self, corpus, trained, capsys):
        assert main(["evaluate", "--config", str(corpus / "config.json"),
                     "--split", "extra"]) == EXIT_CONFIG
        assert "extra" in capsys.readouterr().err


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

    def test_full_size_config_rejected(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        save_run_config(path, RunConfig())
        assert main(["gradcheck", "--config", str(path)]) == EXIT_CONFIG
        assert "toy" in capsys.readouterr().err

    def test_corrupted_backward_fails(self, monkeypatch, capsys):
        true_relu = TT.relu

        def corrupt_relu(a):
            out = true_relu(a)
            data = np.maximum(a.data, 0.0)

            def make_vjp():
                active = a.data > 0

                def vjp(g):
                    TT._accumulate(a, g * active * 1.5)  # wrong on purpose
                return vjp

            return TT._from_op(data, (a,), make_vjp)

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
