import hashlib
import re
import shutil
import struct
import warnings

import numpy as np
import pytest

from tvasr.audio import Waveform, write_wav
from tvasr import cli
from tvasr.cli import main
from tvasr.corpus import build_parallel_corpus, read_corpus, write_corpus
from tvasr.features import load_feature_matrix, save_feature_matrix
from tvasr.inversion import InversionConfig, InversionModel, build_inversion_net, save_inversion_model
from tvasr.features import NormStats
from tvasr.pipeline import (AcousticModelBundle, acoustic_norm_stats,
                            load_acoustic_bundle, save_acoustic_bundle,
                            scale_arch_spec)
from tvasr.architectures import ArchSpec, build_network
from tvasr.training import TrainState


def run(args):
    return main([str(a) for a in args])


def copy_with_inv_files(corpus_dir, tmp_path, wanted):
    """A copy of the corpus with <id>.inv.fmx, ground truth as stand-in
    inverted TVs, for the utterances `wanted` selects."""
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus,
                    ignore=shutil.ignore_patterns("*.inv.fmx"))
    for utt in read_corpus(corpus / "manifest.tsv").utterances:
        if wanted(utt):
            save_feature_matrix(corpus / f"{utt.utt_id}.inv.fmx", utt.tvs)
    return corpus


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    code = run(["corpus-gen", "--out", out, "--seed", "7", "--n-utts", "12"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("model")
    config = out / "train.conf"
    config.write_text(
        "n_hidden_layers = 1\n"
        "hidden_activation = relu\n"
        "initial_lr = 0.1\n"
        "max_epochs = 5\n")
    code = run(["train", "--arch", "fcnn", "--corpus", corpus_dir,
                "--out", out, "--seed", "1", "--config", config])
    assert code == 0
    return out


class TestCorpusGen:
    def test_manifest_and_files(self, corpus_dir):
        manifest = corpus_dir / "manifest.tsv"
        rows = manifest.read_text().splitlines()
        assert len(rows) == 24
        assert (corpus_dir / "classes.txt").exists()
        wav_names = {r.split("\t")[2] for r in rows}
        assert len(wav_names) == 24

    def test_rerun_same_seed_identical_checksums(self, corpus_dir, tmp_path):
        assert run(["corpus-gen", "--out", tmp_path, "--seed", "7",
                    "--n-utts", "12"]) == 0
        names = {"manifest.tsv", "classes.txt"}
        for row in (corpus_dir / "manifest.tsv").read_text().splitlines():
            names.update(row.split("\t")[2:5])
        for name in sorted(names):
            digest_a = hashlib.sha256((corpus_dir / name).read_bytes()).hexdigest()
            digest_b = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert digest_a == digest_b, name

    def test_too_few_utterances_exit_2(self, tmp_path):
        assert run(["corpus-gen", "--out", tmp_path, "--n-utts", "5"]) == 2

    def test_unknown_config_key_exit_2(self, tmp_path):
        config = tmp_path / "c.conf"
        config.write_text("n_utterances = 50\n")
        assert run(["corpus-gen", "--out", tmp_path, "--config", config]) == 2


class TestTrain:
    def test_fcnn_logs_constant_lr_for_first_epochs(self, trained_dir):
        log = (trained_dir / "fcnn-train.log").read_text().splitlines()
        assert len(log) >= 4
        for line in log[:4]:
            assert "lr=0.1" in line
        assert (trained_dir / "fcnn.ckpt").exists()

    def test_fcnn_default_lr_held_for_four_epochs(self, corpus_dir, tmp_path):
        config = tmp_path / "t.conf"
        config.write_text("n_hidden_layers = 0\nmax_epochs = 5\n")
        assert run(["train", "--arch", "fcnn", "--corpus", corpus_dir,
                    "--out", tmp_path, "--config", config]) == 0
        log = (tmp_path / "fcnn-train.log").read_text().splitlines()
        assert len(log) >= 4
        assert all("lr=0.008" in line for line in log[:4])

    def test_zero_hidden_layers_trains(self, corpus_dir, tmp_path):
        config = tmp_path / "t.conf"
        config.write_text("n_hidden_layers = 0\nmax_epochs = 1\n")
        assert run(["train", "--arch", "cnn", "--corpus", corpus_dir,
                    "--out", tmp_path, "--config", config]) == 0

    def test_inverted_tvs_without_model_exit_2(self, corpus_dir, tmp_path):
        assert run(["train", "--arch", "fcnn", "--corpus", corpus_dir,
                    "--out", tmp_path, "--tv-source", "inverted"]) == 2

    def test_full_inverted_tv_pipeline(self, corpus_dir, tmp_path):
        inv_config = tmp_path / "inv.conf"
        inv_config.write_text("initial_lr = 0.1\nmax_epochs = 2\n")
        assert run(["train-inversion", "--corpus", corpus_dir,
                    "--out", tmp_path, "--config", inv_config]) == 0
        model = tmp_path / "inversion.ckpt"

        config = tmp_path / "t.conf"
        config.write_text("n_hidden_layers = 0\nmax_epochs = 1\n")
        assert run(["train", "--arch", "fcnn", "--corpus", corpus_dir,
                    "--out", tmp_path, "--config", config,
                    "--tv-source", "inverted",
                    "--inversion-model", model]) == 0

        # precomputed inverted-TV files also satisfy --tv-source=inverted
        wavs = sorted(corpus_dir.glob("*.wav"))
        assert run(["invert", "--model", model] + wavs) == 0
        assert run(["train", "--arch", "fcnn", "--corpus", corpus_dir,
                    "--out", tmp_path, "--config", config,
                    "--tv-source", "inverted"]) == 0

    def test_shape_mismatch_exit_2(self, corpus_dir, tmp_path, capsys):
        config = tmp_path / "t.conf"
        config.write_text("n_feature_streams = 1\nmax_epochs = 1\n")
        assert run(["train", "--arch", "cnn", "--corpus", corpus_dir,
                    "--out", tmp_path, "--config", config]) == 2
        assert "expected (T, 680)" in capsys.readouterr().err

    def test_unknown_config_key_exit_2(self, corpus_dir, tmp_path):
        config = tmp_path / "bad.conf"
        config.write_text("momentum = 0.9\n")
        assert run(["train", "--arch", "dnn", "--corpus", corpus_dir,
                    "--out", tmp_path, "--config", config]) == 2


class TestEvaluate:
    def test_untrained_model_near_chance(self, corpus_dir, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            corpus = build_parallel_corpus(12, rng_seed=7)
        spec = scale_arch_spec(
            ArchSpec(kind="dnn", n_classes=corpus.n_classes,
                     n_hidden_layers=1, hidden_activation="relu"), "toy")
        stats = acoustic_norm_stats(corpus)
        bundle = AcousticModelBundle(build_network(spec, seed=0),
                                     TrainState(lr=0.008), spec, stats,
                                     "ground-truth")
        ckpt = tmp_path / "fresh.ckpt"
        save_acoustic_bundle(ckpt, bundle)
        assert run(["evaluate", "--checkpoint", ckpt, "--corpus", corpus_dir,
                    "--out", tmp_path, "--split", "test"]) == 0
        report = (tmp_path / "eval-dnn-test.txt").read_text()
        accuracy = float(report.split("frame accuracy: ")[1].split()[0])
        # 21 classes: chance is ~0.05, silence prior ~0.3
        assert accuracy <= 0.4

    def test_train_split_at_least_test_split(self, trained_dir, corpus_dir,
                                             tmp_path):
        ckpt = trained_dir / "fcnn.ckpt"
        for split in ("train", "test"):
            assert run(["evaluate", "--checkpoint", ckpt,
                        "--corpus", corpus_dir, "--out", tmp_path,
                        "--split", split]) == 0

        def accuracy(split):
            text = (tmp_path / f"eval-fcnn-{split}.txt").read_text()
            return float(text.split("frame accuracy: ")[1].split()[0])

        # smoke check, not a hard invariant: allow a whisker of slack
        assert accuracy("train") + 0.02 >= accuracy("test")

    def test_repeated_evaluation_identical(self, trained_dir, corpus_dir,
                                           tmp_path):
        ckpt = trained_dir / "fcnn.ckpt"
        texts = []
        for _ in range(2):
            assert run(["evaluate", "--checkpoint", ckpt,
                        "--corpus", corpus_dir, "--out", tmp_path]) == 0
            texts.append((tmp_path / "eval-fcnn-test.txt").read_text())
        assert texts[0] == texts[1]

    def test_unreadable_corpus_exit_1(self, trained_dir, tmp_path):
        (tmp_path / "manifest.tsv").write_text("\n")
        assert run(["evaluate", "--checkpoint", trained_dir / "fcnn.ckpt",
                    "--corpus", tmp_path, "--out", tmp_path]) == 1

    def test_missing_checkpoint_exit_1(self, corpus_dir, tmp_path):
        assert run(["evaluate", "--checkpoint", tmp_path / "missing.ckpt",
                    "--corpus", corpus_dir, "--out", tmp_path]) == 1

    def test_results_row_appended_and_report_renders(self, trained_dir,
                                                     corpus_dir, tmp_path):
        ckpt = trained_dir / "fcnn.ckpt"
        assert run(["evaluate", "--checkpoint", ckpt, "--corpus", corpus_dir,
                    "--out", tmp_path, "--tag", "toy"]) == 0
        results = tmp_path / "results.tsv"
        assert results.read_text().split("\t")[1] == "FB + TV (ground truth)"
        assert run(["report", "--results", results]) == 0


class TestInvertedTvFiles:
    """--tv-source inverted needs <id>.inv.fmx only for the utterances read."""

    def test_train_reads_train_and_cv_only(self, corpus_dir, tmp_path):
        corpus = copy_with_inv_files(
            corpus_dir, tmp_path, lambda u: u.split in ("train", "cv"))
        config = tmp_path / "t.conf"
        config.write_text("n_hidden_layers = 0\nmax_epochs = 1\n")
        assert run(["train", "--arch", "fcnn", "--corpus", corpus,
                    "--out", tmp_path, "--config", config,
                    "--tv-source", "inverted"]) == 0

    def test_evaluate_reads_scored_subset_only(self, corpus_dir, tmp_path,
                                               capsys):
        corpus = copy_with_inv_files(
            corpus_dir, tmp_path, lambda u: u.split == "test" and u.is_noisy)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            built = build_parallel_corpus(12, rng_seed=7)
        spec = scale_arch_spec(
            ArchSpec(kind="fcnn", n_classes=built.n_classes,
                     n_hidden_layers=1, hidden_activation="relu"), "toy")
        ckpt = tmp_path / "inverted.ckpt"
        save_acoustic_bundle(ckpt, AcousticModelBundle(
            build_network(spec, seed=0), TrainState(lr=0.008), spec,
            acoustic_norm_stats(built), "inverted"))
        assert run(["evaluate", "--checkpoint", ckpt, "--corpus", corpus,
                    "--out", tmp_path, "--subset", "noisy"]) == 0
        assert (tmp_path / "results.tsv").read_text().split("\t")[1] == "FB + TV"
        capsys.readouterr()
        # the clean test utterances have no .inv.fmx: scoring them fails
        assert run(["evaluate", "--checkpoint", ckpt, "--corpus", corpus,
                    "--out", tmp_path, "--subset", "all"]) == 2
        assert "missing inverted TV file" in capsys.readouterr().err


class TestInvertCommand:
    def make_model(self, path):
        cfg = InversionConfig.toy()
        model = InversionModel(build_inversion_net(cfg, seed=0),
                               NormStats(np.zeros(40), np.ones(40)),
                               cfg.n_coeffs, cfg.splice)
        save_inversion_model(path, model)
        return path

    def test_empty_wav_list_is_noop(self, tmp_path):
        model = self.make_model(tmp_path / "inv.ckpt")
        assert run(["invert", "--model", model]) == 0

    def test_writes_tv_files(self, tmp_path):
        model = self.make_model(tmp_path / "inv.ckpt")
        wav = tmp_path / "a.wav"
        write_wav(wav, Waveform(np.zeros(8000), 16000))
        assert run(["invert", "--model", model, wav]) == 0
        tvs = load_feature_matrix(tmp_path / "a.inv.fmx")
        assert tvs.frames.shape == (48, 8)

    def test_non_16k_input_exit_2(self, tmp_path):
        model = self.make_model(tmp_path / "inv.ckpt")
        wav = tmp_path / "slow.wav"
        write_wav(wav, Waveform(np.zeros(4000), 8000))
        assert run(["invert", "--model", model, wav]) == 2

    def test_bad_truth_file_writes_nothing(self, tmp_path, capsys):
        model = self.make_model(tmp_path / "inv.ckpt")
        for stem in ("a", "b"):
            write_wav(tmp_path / f"{stem}.wav", Waveform(np.zeros(8000), 16000))
        bad = tmp_path / "b.tv.fmx"
        bad.write_bytes(fmx_bytes(np.full((48, 8), 7.0)))
        assert run(["invert", "--model", model,
                    tmp_path / "a.wav", tmp_path / "b.wav"]) == 1
        captured = capsys.readouterr()
        assert f"error: {bad}: " in captured.err
        assert captured.out == ""
        assert list(tmp_path.glob("*.inv.fmx")) == []

    def test_pearson_report_when_ground_truth_present(self, corpus_dir,
                                                      tmp_path, capsys):
        model = self.make_model(tmp_path / "inv.ckpt")
        wav = sorted(corpus_dir.glob("utt*[0-9].wav"))[0]
        assert run(["invert", "--model", model, wav]) == 0
        out = capsys.readouterr().out
        assert "per-TV Pearson r" in out
        assert "glottis" in out


class TestFlagsThatWouldDoNothing:
    """Flag combinations that nothing reads exit 2 instead of being ignored."""

    def test_inverted_tvs_for_a_cnn(self, corpus_dir, tmp_path, capsys):
        assert run(["train", "--arch", "cnn", "--corpus", corpus_dir,
                    "--out", tmp_path, "--tv-source", "inverted"]) == 2
        assert "only to --arch fcnn" in capsys.readouterr().err

    def test_train_inversion_model_without_inverted_tvs(self, corpus_dir,
                                                        tmp_path, capsys):
        assert run(["train", "--arch", "fcnn", "--corpus", corpus_dir,
                    "--out", tmp_path, "--inversion-model",
                    tmp_path / "missing.ckpt"]) == 2
        assert "--inversion-model" in capsys.readouterr().err

    def test_evaluate_inversion_model_for_ground_truth_fcnn(
            self, trained_dir, corpus_dir, tmp_path, capsys):
        assert run(["evaluate", "--checkpoint", trained_dir / "fcnn.ckpt",
                    "--corpus", corpus_dir, "--out", tmp_path,
                    "--inversion-model", tmp_path / "missing.ckpt"]) == 2
        assert "--inversion-model" in capsys.readouterr().err
        assert not (tmp_path / "results.tsv").exists()


def fmx_bytes(frames, shift=0.01):
    """FMX1 bytes written field by field, whatever the frames hold."""
    frames = np.asarray(frames, dtype="<f4")
    d = frames.shape[1]
    return (struct.pack("<4sIIIIId", b"FMX1", len(frames), d, d, 1, 1, shift)
            + frames.tobytes())


def with_first_value(frames, value):
    out = frames.copy()
    out[0, 0] = value
    return out


# Ways an FMX1 file can fail to be a TV trajectory, given the right frames.
DAMAGED_TVS = {
    "value-1.5": lambda f: fmx_bytes(with_first_value(f, 1.5)),
    "value-nan": lambda f: fmx_bytes(with_first_value(f, np.nan)),
    "all-7.0": lambda f: fmx_bytes(np.full_like(f, 7.0)),
    "9-columns": lambda f: fmx_bytes(np.hstack([f, f[:, :1]])),
    "2-columns": lambda f: fmx_bytes(f[:, :2]),
    "zero-shift": lambda f: fmx_bytes(f, shift=0.0),
}


@pytest.mark.parametrize("damage", sorted(DAMAGED_TVS))
class TestDamagedTvFiles:
    """A .tv.fmx or .inv.fmx that is not a TV trajectory makes every command
    that reads it exit 1, never 2 or a traceback."""

    @staticmethod
    def damage_file(path, damage):
        path.write_bytes(DAMAGED_TVS[damage](load_feature_matrix(path).frames))
        return path

    @staticmethod
    def assert_format_error(path, capsys):
        captured = capsys.readouterr()
        assert f"error: {path}: " in captured.err
        return captured

    def test_train_ground_truth(self, damage, corpus_dir, tmp_path, capsys):
        corpus = copy_with_inv_files(corpus_dir, tmp_path, lambda u: False)
        bad = self.damage_file(corpus / "utt00000.tv.fmx", damage)
        config = tmp_path / "t.conf"
        config.write_text("n_hidden_layers = 0\nmax_epochs = 1\n")
        assert run(["train", "--arch", "dnn", "--corpus", corpus,
                    "--out", tmp_path, "--config", config]) == 1
        self.assert_format_error(bad, capsys)

    def test_evaluate_ground_truth(self, damage, trained_dir, corpus_dir,
                                   tmp_path, capsys):
        corpus = copy_with_inv_files(corpus_dir, tmp_path, lambda u: False)
        test_utt = read_corpus(corpus / "manifest.tsv").split_utts("test")[0]
        bad = self.damage_file(corpus / f"{test_utt.source_id}.tv.fmx",
                               damage)
        assert run(["evaluate", "--checkpoint", trained_dir / "fcnn.ckpt",
                    "--corpus", corpus, "--out", tmp_path]) == 1
        self.assert_format_error(bad, capsys)
        assert not (tmp_path / "results.tsv").exists()

    def test_invert_truth(self, damage, corpus_dir, tmp_path, capsys):
        model = TestInvertCommand().make_model(tmp_path / "inv.ckpt")
        for name in ("utt00000.wav", "utt00000.tv.fmx"):
            shutil.copy(corpus_dir / name, tmp_path / name)
        bad = self.damage_file(tmp_path / "utt00000.tv.fmx", damage)
        assert run(["invert", "--model", model, tmp_path / "utt00000.wav"]) == 1
        assert "Pearson" not in self.assert_format_error(bad, capsys).out

    def test_train_inverted(self, damage, corpus_dir, tmp_path, capsys):
        corpus = copy_with_inv_files(corpus_dir, tmp_path,
                                     lambda u: u.split in ("train", "cv"))
        bad = self.damage_file(corpus / "utt00000n.inv.fmx", damage)
        config = tmp_path / "t.conf"
        config.write_text("n_hidden_layers = 0\nmax_epochs = 1\n")
        assert run(["train", "--arch", "fcnn", "--corpus", corpus,
                    "--out", tmp_path, "--config", config,
                    "--tv-source", "inverted"]) == 1
        self.assert_format_error(bad, capsys)

    def test_evaluate_inverted(self, damage, trained_dir, corpus_dir,
                               tmp_path, capsys):
        corpus = copy_with_inv_files(corpus_dir, tmp_path,
                                     lambda u: u.split == "test")
        bundle = load_acoustic_bundle(trained_dir / "fcnn.ckpt")
        bundle.tv_source = "inverted"
        ckpt = tmp_path / "inverted.ckpt"
        save_acoustic_bundle(ckpt, bundle)
        test_utt = read_corpus(corpus / "manifest.tsv").split_utts("test")[-1]
        bad = self.damage_file(corpus / f"{test_utt.utt_id}.inv.fmx", damage)
        assert run(["evaluate", "--checkpoint", ckpt, "--corpus", corpus,
                    "--out", tmp_path]) == 1
        self.assert_format_error(bad, capsys)
        assert not (tmp_path / "results.tsv").exists()


class TestTrainConfigValues:
    @pytest.mark.parametrize("line", [
        "batch_size = -5", "batch_size = 0", "max_epochs = 0",
        "constant_lr_epochs = -3", "initial_lr = nan", "initial_lr = inf",
        "initial_lr = 0", "halving_threshold = nan", "halving_threshold = inf",
        "stop_threshold = nan", "stop_threshold = -0.001"])
    def test_bad_value_exit_2(self, line, corpus_dir, tmp_path, capsys):
        config = tmp_path / "t.conf"
        config.write_text(line + "\n")
        assert run(["train", "--arch", "dnn", "--corpus", corpus_dir,
                    "--out", tmp_path, "--config", config]) == 2
        assert line.split()[0] in capsys.readouterr().err
        assert not (tmp_path / "dnn.ckpt").exists()

    def test_non_integer_arch_value_exit_2(self, corpus_dir, tmp_path, capsys):
        config = tmp_path / "t.conf"
        config.write_text("hidden_width = wide\n")
        assert run(["train", "--arch", "dnn", "--corpus", corpus_dir,
                    "--out", tmp_path, "--config", config]) == 2
        assert "hidden_width='wide': not an integer" in capsys.readouterr().err


class TestBooleanConfigValues:
    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("true", True), ("YES", True),
        ("0", False), ("False", False), ("no", False)])
    def test_accepted_words(self, value, expected):
        (parsed,) = cli._split_config({"halve_always_after_first": value},
                                      cli._TRAIN_KEYS)
        assert parsed == {"halve_always_after_first": expected}

    def test_other_value_exit_2(self, corpus_dir, tmp_path, capsys):
        config = tmp_path / "t.conf"
        config.write_text("halve_always_after_first = banana\n")
        assert run(["train", "--arch", "dnn", "--corpus", corpus_dir,
                    "--out", tmp_path, "--config", config]) == 2
        assert "'banana' is not a boolean" in capsys.readouterr().err


@pytest.mark.parametrize("bad_std", [np.nan, 0.0, -1.0])
class TestUnusableStatsRecord:
    """A stats record norm_stats cannot have written makes the CLI exit 1."""

    def test_acoustic_bundle(self, bad_std, corpus_dir, tmp_path, capsys):
        spec = scale_arch_spec(ArchSpec(kind="dnn", n_classes=21,
                                        n_hidden_layers=0), "toy")
        std = np.ones(120)
        std[7] = bad_std
        ckpt = tmp_path / "bad.ckpt"
        save_acoustic_bundle(ckpt, AcousticModelBundle(
            build_network(spec, seed=0), TrainState(lr=0.008), spec,
            NormStats(np.zeros(120), std), "ground-truth"))
        assert run(["evaluate", "--checkpoint", ckpt, "--corpus", corpus_dir,
                    "--out", tmp_path]) == 1
        assert "finite stds" in capsys.readouterr().err
        assert not (tmp_path / "results.tsv").exists()

    def test_inversion_model(self, bad_std, tmp_path, capsys):
        cfg = InversionConfig.toy()
        std = np.ones(40)
        std[7] = bad_std
        path = tmp_path / "inv.ckpt"
        save_inversion_model(path, InversionModel(
            build_inversion_net(cfg, seed=0), NormStats(np.zeros(40), std),
            cfg.n_coeffs, cfg.splice))
        wav = tmp_path / "a.wav"
        write_wav(wav, Waveform(np.zeros(8000), 16000))
        assert run(["invert", "--model", path, wav]) == 1
        assert "finite stds" in capsys.readouterr().err
        assert not (tmp_path / "a.inv.fmx").exists()


def test_docstring_names_every_subcommand():
    doc = re.search(r"Subcommands: ([^.]*)\.", cli.__doc__).group(1)
    named = [name.strip() for name in doc.split(",")]
    registered = [action for action in cli.build_parser()._actions
                  if action.dest == "subcommand"][0].choices
    assert sorted(named) == sorted(registered)


def test_unknown_subcommand_exit_2():
    assert run(["frobnicate"]) == 2


@pytest.mark.parametrize("argv", [
    ["corpus-gen", "--out", "o", "--scale", "toy"],
    ["train-inversion", "--corpus", "c", "--out", "o", "--threads", "2"],
    ["invert", "--model", "m", "--config", "x"],
    ["invert", "--model", "m", "--seed", "1"],
    ["invert", "--model", "m", "--out", "o"],
    ["invert", "--model", "m", "--scale", "toy"],
    ["invert", "--model", "m", "--threads", "2"],
    ["report", "--results", "r", "--config", "x"],
    ["report", "--results", "r", "--seed", "1"],
    ["report", "--results", "r", "--out", "o"],
    ["report", "--results", "r", "--scale", "toy"],
    ["train", "--arch", "cnn", "--corpus", "c", "--out", "o", "--threads", "2"],
    ["evaluate", "--checkpoint", "k", "--corpus", "c", "--out", "o",
     "--config", "x"],
    ["evaluate", "--checkpoint", "k", "--corpus", "c", "--out", "o",
     "--seed", "1"],
    ["evaluate", "--checkpoint", "k", "--corpus", "c", "--out", "o",
     "--scale", "paper"],
    ["evaluate", "--checkpoint", "k", "--corpus", "c", "--out", "o",
     "--threads", "2"],
    ["corpus-gen", "--out", "o", "--threads", "2"],
])
def test_flags_a_subcommand_does_not_read_are_rejected(argv, capsys):
    assert run(argv) == 2
    assert "unrecognized arguments: " + argv[-2] in capsys.readouterr().err
