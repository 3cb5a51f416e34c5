import hashlib
import re
import shutil
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from tvasr.audio import Waveform, read_wav, write_wav
from tvasr import cli, features, inversion, pipeline
from tvasr import corpus as corpus_module
from tvasr.cli import main
from tvasr.corpus import build_parallel_corpus, read_corpus, write_corpus
from tvasr.features import (load_feature_matrix, nmc_features,
                            save_feature_matrix)
from tvasr.inversion import (InversionConfig, InversionModel,
                             build_inversion_net, inversion_features,
                             save_inversion_model)
from tvasr.features import NormStats
from tvasr.pipeline import (AcousticModelBundle, acoustic_norm_stats,
                            load_acoustic_bundle, save_acoustic_bundle,
                            scale_arch_spec)
from tvasr.architectures import ArchSpec, build_network
from tvasr.evaluate import results_table
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

    @pytest.mark.parametrize("lines,name", [
        ("snr_max = inf", "snr"), ("severity_min = nan", "severity"),
        ("snr_min = 90", "snr"),
        ("severity_min = 0.7\nseverity_max = 0.3", "severity"),
        ("words_min = 3\nwords_max = 1", "word"), ("words_min = -2", "word"),
        ("words_min = 0\nwords_max = 0", "word")],
        ids=["snr-max-inf", "severity-min-nan", "snr-min-above-max",
             "severity-min-above-max", "words-min-above-max",
             "words-min-negative", "no-words"])
    def test_bad_range_exit_2(self, lines, name, tmp_path, capsys):
        config = tmp_path / "c.conf"
        config.write_text(lines + "\n")
        out = tmp_path / "corpus"
        assert run(["corpus-gen", "--out", out, "--config", config]) == 2
        assert f"error: {name} range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lines,key", [
        ("n_utts = 10000000", "n_utts"), ("words_max = 100000", "words_max")])
    def test_oversized_corpus_exit_2(self, lines, key, tmp_path, capsys,
                                     monkeypatch):
        def started(*args, **kwargs):
            raise AssertionError("corpus synthesis started")

        # so that no failure of the bound can synthesize the corpus
        monkeypatch.setattr(corpus_module, "generate_gestural_score", started)
        config = tmp_path / "c.conf"
        config.write_text(lines + "\n")
        out = tmp_path / "corpus"
        assert run(["corpus-gen", "--out", out, "--config", config]) == 2
        err = capsys.readouterr().err
        assert "MAX_CORPUS_SAMPLE_BYTES" in err and f"{key}=" in err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", "seven"])
    def test_bad_seed_exit_2(self, seed, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert run(["corpus-gen", "--out", out, "--seed", seed]) == 2
        assert (f"error: argument --seed: expected a non-negative integer, "
                f"got '{seed}'" in capsys.readouterr().err)
        assert not out.exists()


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
        # 2 output classes, but the corpus labels run past 1
        config = tmp_path / "t.conf"
        config.write_text("n_classes = 2\nmax_epochs = 1\n")
        assert run(["train", "--arch", "cnn", "--corpus", corpus_dir,
                    "--out", tmp_path, "--config", config]) == 2
        assert "error: label outside [0, 2)" in capsys.readouterr().err

    def test_tv_channels_other_than_8_exit_2(self, corpus_dir, tmp_path,
                                             capsys):
        config = tmp_path / "t.conf"
        config.write_text("n_tvs = 4\nmax_epochs = 1\n")
        assert run(["train", "--arch", "fcnn", "--corpus", corpus_dir,
                    "--out", tmp_path, "--config", config]) == 2
        assert "error: n_tvs=4 unsupported" in capsys.readouterr().err
        assert not (tmp_path / "fcnn.ckpt").exists()

    def test_feature_streams_other_than_3_exit_2(self, corpus_dir, tmp_path,
                                                 capsys):
        config = tmp_path / "t.conf"
        config.write_text("n_feature_streams = 1\nmax_epochs = 1\n")
        assert run(["train", "--arch", "cnn", "--corpus", corpus_dir,
                    "--out", tmp_path, "--config", config]) == 2
        assert ("error: n_feature_streams=1 unsupported"
                in capsys.readouterr().err)
        assert not (tmp_path / "cnn.ckpt").exists()

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

    def test_both_fcnn_reports_kept_in_one_directory(self, trained_dir,
                                                     corpus_dir, tmp_path):
        corpus = copy_with_inv_files(corpus_dir, tmp_path,
                                     lambda u: u.split == "test")
        bundle = load_acoustic_bundle(trained_dir / "fcnn.ckpt")
        bundle.tv_source = "inverted"
        inverted = tmp_path / "inverted.ckpt"
        save_acoustic_bundle(inverted, bundle)
        out = tmp_path / "results"
        for ckpt in (trained_dir / "fcnn.ckpt", inverted):
            assert run(["evaluate", "--checkpoint", ckpt, "--corpus", corpus,
                        "--out", out]) == 0
        assert sorted(p.name for p in out.glob("eval-*.txt")) == [
            "eval-fcnn-inverted-test.txt", "eval-fcnn-test.txt"]
        assert len((out / "results.tsv").read_text().splitlines()) == 2

    def test_each_subset_keeps_its_report_and_row(self, trained_dir,
                                                  corpus_dir, tmp_path):
        out = tmp_path / "results"
        for subset in ("all", "noisy", "clean"):
            assert run(["evaluate", "--checkpoint", trained_dir / "fcnn.ckpt",
                        "--corpus", corpus_dir, "--out", out,
                        "--subset", subset, "--tag", "toy"]) == 0
        assert sorted(p.name for p in out.glob("eval-*.txt")) == [
            "eval-fcnn-test-clean.txt", "eval-fcnn-test-noisy.txt",
            "eval-fcnn-test.txt"]
        rows = (out / "results.tsv").read_text().splitlines()
        assert [row.split("\t")[2] for row in rows] == [
            "toy", "toy (noisy)", "toy (clean)"]
        # one panel per subset, so each row is its panel's best
        table = results_table([(*row.split("\t")[:3], float(row.split("\t")[3]))
                               for row in rows])
        assert sum(line.endswith(" *") for line in table.splitlines()) == 3

    def test_each_split_keeps_its_panel(self, trained_dir, corpus_dir,
                                        tmp_path, capsys):
        out = tmp_path / "results"
        for split, subset in (("test", "all"), ("cv", "all"),
                              ("cv", "noisy")):
            assert run(["evaluate", "--checkpoint", trained_dir / "fcnn.ckpt",
                        "--corpus", corpus_dir, "--out", out, "--tag", "toy",
                        "--split", split, "--subset", subset]) == 0
        rows = (out / "results.tsv").read_text().splitlines()
        assert [row.split("\t")[2] for row in rows] == [
            "toy", "toy (cv)", "toy (cv, noisy)"]
        capsys.readouterr()
        assert run(["report", "--results", out / "results.tsv"]) == 0
        table = capsys.readouterr().out.splitlines()
        # three panels, so no row is starred against another split's
        assert sum(line.endswith(" *") for line in table) == 3
        assert sum(set(line) == set("-+") for line in table) == 3

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

    @pytest.mark.parametrize("tag", ["a\tb", "a\nb", "a\rb"])
    def test_tag_that_report_cannot_read_exit_2(self, tag, trained_dir,
                                                corpus_dir, tmp_path):
        assert run(["evaluate", "--checkpoint", trained_dir / "fcnn.ckpt",
                    "--corpus", corpus_dir, "--out", tmp_path,
                    "--tag", tag]) == 2
        assert list(tmp_path.iterdir()) == []


class TestReport:
    @pytest.mark.parametrize("row", [
        b"CNN\tFB\ttoy", b"CNN\tFB\ttoy\t12.5\textra", b"CNN\tFB\ttoy\tlow",
        b"CNN\tFB\ttoy\tnan", b"CNN\tFB\ttoy\tinf"])
    def test_malformed_row_exit_1(self, row, tmp_path, capsys):
        results = tmp_path / "results.tsv"
        results.write_bytes(b"CNN\tFB\ttoy\t12.5\n\n" + row + b"\n")
        assert run(["report", "--results", results]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {results}:3: " in captured.err

    def test_undecodable_results_exit_1(self, tmp_path, capsys):
        results = tmp_path / "results.tsv"
        results.write_bytes(b"CNN\tFB\tt\xffy\t12.5\n")
        assert run(["report", "--results", results]) == 1
        assert f"error: {results}: " in capsys.readouterr().err


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
        # the rate is refused before the ground truth's rows are compared
        (tmp_path / "slow.tv.fmx").write_bytes(fmx_bytes(np.full((23, 8), 0.5)))
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

    def test_groups_bound_the_waveforms_held(self, tmp_path, monkeypatch,
                                             capsys):
        model = self.make_model(tmp_path / "inv.ckpt")
        n = cli._INVERT_GROUP + 2
        wavs = [tmp_path / f"u{i:02d}.wav" for i in range(n)]
        for i, wav in enumerate(wavs):
            write_wav(wav, Waveform(np.full(800 + 160 * i, 0.01 * i), 16000))
        sizes = []

        def recording(model, waveforms):
            sizes.append(len(waveforms))
            return inversion_features(model, waveforms)

        monkeypatch.setattr(cli, "inversion_features", recording)
        assert run(["invert", "--model", model] + wavs) == 0
        assert sizes == [cli._INVERT_GROUP, 2]
        assert capsys.readouterr().out.splitlines() == [
            f"{wav} -> {wav.with_suffix('.inv.fmx')}" for wav in wavs]
        for i, wav in enumerate(wavs):
            assert load_feature_matrix(wav.with_suffix(".inv.fmx")).n_frames \
                == 3 + i

    @pytest.mark.parametrize("bad", [Waveform(np.zeros(4000), 8000),
                                     Waveform(np.zeros(399), 16000)])
    def test_unusable_wav_in_a_later_group_writes_nothing(self, bad, tmp_path,
                                                          capsys):
        model = self.make_model(tmp_path / "inv.ckpt")
        wavs = [tmp_path / f"u{i:02d}.wav"
                for i in range(cli._INVERT_GROUP + 2)]
        for wav in wavs[:-1]:
            write_wav(wav, Waveform(np.zeros(800), 16000))
        write_wav(wavs[-1], bad)
        assert run(["invert", "--model", model] + wavs) == 2
        assert capsys.readouterr().out == ""
        assert list(tmp_path.glob("*.inv.fmx")) == []

    def test_pearson_report_when_ground_truth_present(self, corpus_dir,
                                                      tmp_path, capsys):
        model = self.make_model(tmp_path / "inv.ckpt")
        wav = sorted(corpus_dir.glob("utt*[0-9].wav"))[0]
        assert run(["invert", "--model", model, wav]) == 0
        out = capsys.readouterr().out
        assert "per-TV Pearson r" in out
        assert "glottis" in out


class TestNmcSidecars:
    """Each WAV's NMC is computed once, by the first command that reads it;
    later commands read its <stem>.nmc and write the same bytes."""

    def run_loop(self, corpus_dir, root, monkeypatch, capsys, forget):
        """train-inversion, invert over every WAV, then an inverted-TV fCNN
        trained with --inversion-model, in a copy of the corpus at root.
        With `forget`, every .nmc file is deleted before each command.

        Returns the names of the WAVs whose NMC invert and train computed,
        the stdout of each command and the bytes of every file written."""
        corpus, models = root / "corpus", root / "models"
        shutil.copytree(corpus_dir, corpus, ignore=shutil.ignore_patterns(
            "*.nmc", "*.inv.fmx"))
        (root / "inv.conf").write_text("initial_lr = 0.1\nmax_epochs = 1\n")
        (root / "t.conf").write_text("n_hidden_layers = 0\nmax_epochs = 1\n")
        computed = []

        def recording(wav, n_coeffs=40):
            computed.append(wav.path.name)
            return nmc_features(wav, n_coeffs)

        monkeypatch.setattr(features, "nmc_features", recording)
        commands = [
            ["train-inversion", "--corpus", corpus, "--out", models,
             "--config", root / "inv.conf"],
            ["invert", "--model", models / "inversion.ckpt",
             *sorted(corpus.glob("*.wav"))],
            ["train", "--arch", "fcnn", "--corpus", corpus, "--out", models,
             "--config", root / "t.conf", "--tv-source", "inverted",
             "--inversion-model", models / "inversion.ckpt"],
        ]
        calls, stdout = [], []
        capsys.readouterr()
        for argv in commands:
            if forget:
                for path in corpus.glob("*.nmc"):
                    path.unlink()
            computed.clear()
            assert run(argv) == 0
            calls.append(sorted(computed))
            stdout.append(capsys.readouterr().out.replace(str(root), "ROOT"))
        monkeypatch.undo()
        files = {str(p.relative_to(root)): p.read_bytes()
                 for p in sorted(root.rglob("*")) if p.suffix != ".nmc"
                 and p.is_file() and not p.name.endswith(".conf")}
        return calls[1:], stdout, files

    def test_computed_once_across_commands(self, corpus_dir, tmp_path,
                                           monkeypatch, capsys):
        calls, stdout, files = self.run_loop(
            corpus_dir, tmp_path / "cached", monkeypatch, capsys, False)
        rows = [r.split("\t") for r in
                (corpus_dir / "manifest.tsv").read_text().splitlines()]
        assert calls == [sorted(wav for _, split, wav, *_ in rows
                                if split == "test"), []]
        _, fresh_stdout, fresh_files = self.run_loop(
            corpus_dir, tmp_path / "fresh", monkeypatch, capsys, True)
        assert stdout == fresh_stdout
        assert files.keys() == fresh_files.keys()
        for name, blob in files.items():
            assert blob == fresh_files[name], name
        assert len([n for n in files if n.endswith(".inv.fmx")]) == len(rows)

        # with every good WAV's NMC on disk, one unusable WAV still stops
        # invert before it writes anything
        corpus = tmp_path / "cached" / "corpus"
        for path in corpus.glob("*.inv.fmx"):
            path.unlink()
        write_wav(corpus / "zz-short.wav", Waveform(np.zeros(399), 16000))
        assert run(["invert", "--model", tmp_path / "cached" / "models" /
                    "inversion.ckpt", *sorted(corpus.glob("*.wav"))]) == 2
        assert list(corpus.glob("*.inv.fmx")) == []


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
        # evaluate reads an inverted-TV fCNN's TVs from <id>.inv.fmx only
        assert run(["evaluate", "--checkpoint", trained_dir / "fcnn.ckpt",
                    "--corpus", corpus_dir, "--out", tmp_path,
                    "--inversion-model", tmp_path / "missing.ckpt"]) == 2
        assert ("unrecognized arguments: --inversion-model"
                in capsys.readouterr().err)
        assert not (tmp_path / "results.tsv").exists()



@pytest.mark.parametrize("split", ["train", "cv"])
@pytest.mark.parametrize("command", [["train", "--arch", "cnn"],
                                     ["train-inversion"]])
def test_empty_training_split_exit_2(corpus_dir, tmp_path, monkeypatch,
                                     capsys, command, split):
    """A manifest without train or without cv rows is refused, naming the
    split, before any feature is computed."""
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus)
    manifest = corpus / "manifest.tsv"
    manifest.write_text("".join(row + "\n" for row in
                                manifest.read_text().splitlines()
                                if row.split("\t")[1] != split))

    def no_features(*args):
        raise AssertionError("features computed for an empty split")

    monkeypatch.setattr(pipeline, "acoustic_frames", no_features)
    monkeypatch.setattr(inversion, "nmc_map", no_features)
    assert run([*command, "--corpus", corpus, "--out", tmp_path / "out"]) == 2
    assert f"no utterances in split '{split}'" in capsys.readouterr().err


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
    # well-formed, but off the frame grid of the utterance's audio and labels
    "20-ms-shift": lambda f: fmx_bytes(f, shift=0.02),
    "row-dropped": lambda f: fmx_bytes(f[:-1]),
}


@pytest.mark.parametrize("damage", sorted(DAMAGED_TVS))
class TestDamagedTvFiles:
    """A .tv.fmx or .inv.fmx that is not a TV trajectory of its utterance
    makes every command that reads it exit 1, never 2 or a traceback."""

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


# Ways a corpus can differ from what corpus-gen wrote: (file, damage).
DAMAGED_CORPUS = {
    "label-minus-1": ("utt00000.labels", lambda b: b"-1\n" + b),
    "label-1e11": ("utt00000.labels", lambda b: b + b"99999999999\n"),
    "manifest-not-utf8": ("manifest.tsv", lambda b: b.replace(b"\n", b"\xff\n", 1)),
    "manifest-duplicate-row": ("manifest.tsv", lambda b: b + b.split(b"\n")[0] + b"\n"),
}


@pytest.mark.parametrize("damage", sorted(DAMAGED_CORPUS))
def test_damaged_corpus_exit_1(damage, corpus_dir, tmp_path, capsys):
    corpus = copy_with_inv_files(corpus_dir, tmp_path, lambda u: False)
    name, change = DAMAGED_CORPUS[damage]
    path = corpus / name
    path.write_bytes(change(path.read_bytes()))
    assert run(["train", "--arch", "dnn", "--corpus", corpus,
                "--out", tmp_path / "out"]) == 1
    assert f"error: {path}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("rate", [1, 50])
def test_rate_too_low_for_the_frame_grid_exit_1(rate, corpus_dir, tmp_path,
                                                capsys):
    corpus = copy_with_inv_files(corpus_dir, tmp_path, lambda u: False)
    bad = corpus / "utt00000.wav"
    write_wav(bad, Waveform(np.zeros(50), rate))
    assert run(["train", "--arch", "dnn", "--corpus", corpus,
                "--out", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def wav_at_rate(rate):
    def damage(corpus):
        path = corpus / "utt00000.wav"
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 24, rate)  # the fmt chunk's sample rate
        path.write_bytes(bytes(data))
        return path
    return damage


def wav_shorter_than_a_window(corpus):
    path = corpus / "utt00000.wav"
    write_wav(path, Waveform(np.zeros(399)))
    return path


def label_line_dropped(corpus):
    path = corpus / "utt00000.labels"
    path.write_text("".join(path.read_text().splitlines(True)[:-1]))
    return path


def tv_file(damage):
    return lambda corpus: TestDamagedTvFiles.damage_file(
        corpus / "utt00000.tv.fmx", damage)


# One change each that takes a corpus entry off the 10 ms frame grid; each
# returns the file it changed.
OFF_THE_GRID = {
    "wav-8000-hz": wav_at_rate(8000),
    "wav-1-hz": wav_at_rate(1),
    "wav-399-samples": wav_shorter_than_a_window,
    "label-line-dropped": label_line_dropped,
    "tv-row-dropped": tv_file("row-dropped"),
    "tv-20-ms-shift": tv_file("20-ms-shift"),
}


@pytest.mark.parametrize("command", [["train", "--arch", "cnn"],
                                     ["train-inversion"]])
@pytest.mark.parametrize("damage", sorted(OFF_THE_GRID))
def test_corpus_off_the_frame_grid_exit_1(damage, command, corpus_dir,
                                          tmp_path, capsys):
    corpus = copy_with_inv_files(corpus_dir, tmp_path, lambda u: False)
    bad = OFF_THE_GRID[damage](corpus)
    files = sorted(corpus.iterdir())
    assert run(command + ["--corpus", corpus, "--out", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
    assert sorted(corpus.iterdir()) == files


def manifest_rows(corpus):
    return [row.split("\t") for row in
            (corpus / "manifest.tsv").read_text().splitlines()]


def entry_files(corpus, splits):
    """The WAV, TV and label files that the entries of `splits` name."""
    return {name for _, split, *names, _ in manifest_rows(corpus)
            if split in splits for name in names}


def record_reads(monkeypatch):
    """Record the name of each WAV and TV file the corpus reader opens."""
    opened = []

    def recording(load):
        def wrapper(path):
            opened.append(path.name)
            return load(path)
        return wrapper

    monkeypatch.setattr(corpus_module, "read_wav", recording(read_wav))
    monkeypatch.setattr(corpus_module, "load_feature_matrix",
                        recording(load_feature_matrix))
    return opened


class TestEntriesRead:
    """evaluate opens the files of its --split and --subset only, train and
    train-inversion those of the train and cv splits; the manifest itself
    is checked whole."""

    @staticmethod
    def without_training_files(corpus_dir, root):
        """A copy of the corpus without the train and cv entries' files."""
        corpus = copy_with_inv_files(corpus_dir, root, lambda u: False)
        for name in entry_files(corpus, ("train", "cv")):
            (corpus / name).unlink()
        return corpus

    @pytest.mark.parametrize("subset", ["all", "noisy", "clean"])
    def test_evaluate_test_split_without_train_and_cv_files(
            self, subset, trained_dir, corpus_dir, tmp_path, capsys):
        full = copy_with_inv_files(corpus_dir, tmp_path / "full",
                                   lambda u: False)
        part = self.without_training_files(corpus_dir, tmp_path / "part")
        outputs = []
        for corpus in (full, part):
            out = corpus.parent / "out"
            assert run(["evaluate", "--checkpoint", trained_dir / "fcnn.ckpt",
                        "--corpus", corpus, "--out", out,
                        "--subset", subset]) == 0
            captured = capsys.readouterr()
            outputs.append((captured.out, captured.err,
                            {p.name: p.read_bytes()
                             for p in sorted(out.iterdir())}))
        assert outputs[0] == outputs[1]
        report = {"all": "eval-fcnn-test.txt"}.get(
            subset, f"eval-fcnn-test-{subset}.txt")
        assert sorted(outputs[0][2]) == [report, "results.tsv"]

    def test_evaluate_train_split_needs_its_files(self, trained_dir,
                                                  corpus_dir, tmp_path,
                                                  capsys):
        part = self.without_training_files(corpus_dir, tmp_path)
        assert run(["evaluate", "--checkpoint", trained_dir / "fcnn.ckpt",
                    "--corpus", part, "--out", tmp_path / "out",
                    "--split", "train"]) == 1
        first_tv = manifest_rows(part)[0][3]
        assert str(part / first_tv) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("split,subset", [
        ("test", "noisy"), ("test", "clean"), ("test", "all"),
        ("cv", "noisy"), ("train", "clean")])
    def test_evaluate_opens_the_selected_files(self, split, subset,
                                               trained_dir, corpus_dir,
                                               tmp_path, monkeypatch):
        opened = record_reads(monkeypatch)
        assert run(["evaluate", "--checkpoint", trained_dir / "fcnn.ckpt",
                    "--corpus", corpus_dir, "--out", tmp_path,
                    "--split", split, "--subset", subset]) == 0
        wanted = [(utt_id, wav, tv) for utt_id, s, wav, tv, *_ in
                  manifest_rows(corpus_dir) if s == split
                  and subset in ("all", "noisy" if utt_id.endswith("n")
                                 else "clean")]
        assert [name for name in opened if name.endswith(".wav")] == \
            [wav for _, wav, _ in wanted]
        assert [name for name in opened if name.endswith(".tv.fmx")] == \
            list(dict.fromkeys(tv for *_, tv in wanted))

    @pytest.mark.parametrize("command", [["train", "--arch", "cnn"],
                                         ["train-inversion"]])
    def test_training_ignores_a_damaged_test_wav(self, command, corpus_dir,
                                                 tmp_path, monkeypatch):
        config = tmp_path / "t.conf"
        config.write_text("max_epochs = 1\n")
        outputs, reads = [], []
        for damaged in (False, True):
            root = tmp_path / ("damaged" if damaged else "intact")
            corpus = copy_with_inv_files(corpus_dir, root, lambda u: False)
            rows = manifest_rows(corpus)
            if damaged:
                for _, split, wav, *_ in rows:
                    if split == "test":
                        (corpus / wav).write_bytes(b"RIFF")
            opened = record_reads(monkeypatch)
            assert run(command + ["--corpus", corpus, "--out", root / "out",
                                  "--config", config]) == 0
            monkeypatch.undo()
            outputs.append({p.name: p.read_bytes()
                            for p in sorted((root / "out").iterdir())})
            reads.append([name for name in opened if name.endswith(".wav")])
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) == 2  # the checkpoint and the log
        assert reads[0] == reads[1] == [wav for _, split, wav, *_ in rows
                                        if split != "test"]

    @pytest.mark.parametrize("split", ["train", "cv"])
    @pytest.mark.parametrize("command", [["train", "--arch", "cnn"],
                                         ["train-inversion"]])
    def test_training_refuses_a_damaged_wav_it_uses(self, command, split,
                                                    corpus_dir, tmp_path,
                                                    capsys):
        corpus = copy_with_inv_files(corpus_dir, tmp_path, lambda u: False)
        bad = corpus / [wav for utt_id, s, wav, *_ in manifest_rows(corpus)
                        if s == split and utt_id.endswith("n")][-1]
        bad.write_bytes(b"RIFF")
        assert run(command + ["--corpus", corpus,
                              "--out", tmp_path / "out"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")
        assert not (tmp_path / "out").exists()

    def test_evaluate_empty_selection_exit_2(self, trained_dir, corpus_dir,
                                             tmp_path, monkeypatch, capsys):
        corpus = copy_with_inv_files(corpus_dir, tmp_path, lambda u: False)
        manifest = corpus / "manifest.tsv"
        manifest.write_text("".join("\t".join(row) + "\n"
                                    for row in manifest_rows(corpus)
                                    if row[1] != "test"))
        opened = record_reads(monkeypatch)
        assert run(["evaluate", "--checkpoint", trained_dir / "fcnn.ckpt",
                    "--corpus", corpus, "--out", tmp_path / "out",
                    "--subset", "noisy"]) == 2
        assert ("error: no utterances in split 'test' (noisy)"
                in capsys.readouterr().err)
        assert opened == []
        assert not (tmp_path / "out").exists()


# Flag and config errors, each refused with exit 2 and this message before
# any corpus file is read: (command and flags, config text, message)
REFUSED_BEFORE_READING = {
    "kind-conflict": (["train", "--arch", "cnn"], "kind = dnn",
                      "--arch cnn conflicts with config kind=dnn"),
    "arch-not-integer": (["train", "--arch", "dnn"], "hidden_width = wide",
                         "config key hidden_width='wide': not an integer"),
    "arch-n-tvs": (["train", "--arch", "fcnn"], "n_tvs = 4",
                   "n_tvs=4 unsupported"),
    "train-value": (["train", "--arch", "dnn"], "batch_size = 0",
                    "batch_size must be at least 1"),
    "inversion-model-for-ground-truth": (
        ["train", "--arch", "fcnn", "--inversion-model", "missing.ckpt"], "",
        "--inversion-model is read only for inverted TVs"),
    "train-inversion-value": (["train-inversion"], "initial_lr = nan",
                              "initial_lr must be finite and positive"),
    "unknown-activation": (["train", "--arch", "cnn"],
                           "hidden_activation = banana",
                           "unknown activation 'banana'"),
    "linear-activation": (["train", "--arch", "dnn"],
                          "hidden_activation = linear",
                          "unknown activation 'linear'"),
    "train-negative-seed": (
        ["train", "--arch", "cnn", "--seed", "-1"], "",
        "argument --seed: expected a non-negative integer, got '-1'"),
    "train-inversion-negative-seed": (
        ["train-inversion", "--seed", "-1"], "",
        "argument --seed: expected a non-negative integer, got '-1'"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_BEFORE_READING))
def test_flag_and_config_errors_before_the_corpus(case, corpus_dir, tmp_path,
                                                  monkeypatch, capsys):
    argv, config_text, message = REFUSED_BEFORE_READING[case]
    config = tmp_path / "c.conf"
    config.write_text(config_text + "\n")

    def no_corpus(*args):
        raise AssertionError("corpus read before the flags were checked")

    monkeypatch.setattr(cli, "read_corpus", no_corpus)
    assert run(argv + ["--corpus", corpus_dir, "--out", tmp_path / "out",
                       "--config", config]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_evaluate_inversion_model_refused_before_the_corpus(
        trained_dir, corpus_dir, tmp_path, monkeypatch, capsys):
    def no_corpus(*args):
        raise AssertionError("corpus read before the flags were checked")

    monkeypatch.setattr(cli, "read_corpus", no_corpus)
    assert run(["evaluate", "--checkpoint", trained_dir / "fcnn.ckpt",
                "--corpus", corpus_dir, "--out", tmp_path / "out",
                "--inversion-model", tmp_path / "missing.ckpt"]) == 2
    assert ("error: unrecognized arguments: --inversion-model"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("lines", [
        ["hidden_width = 100000000"], ["context = 1000001"],
        ["n_bands = 100000"], ["n_hidden_layers = 100000"],
        # few enough parameters, but a 3.1 G-float im2col batch
        ["n_bands = 30000", "n_hidden_layers = 0"],
        # convolutions that build_network would refuse
        ["freq_filter_width = 50"], ["time_pool = 14"]])
    def test_unbuildable_network_exit_2_before_reading(self, lines, tmp_path,
                                                       capsys):
        # Most of these would take gigabytes. The corpus does not exist, so
        # even without the checks train would stop at read_corpus (exit 1),
        # before it builds any network.
        config = tmp_path / "t.conf"
        config.write_text("".join(line + "\n" for line in lines))
        tracemalloc.start()
        try:
            code = run(["train", "--arch", "fcnn",
                        "--corpus", tmp_path / "no-corpus",
                        "--out", tmp_path / "out", "--config", config])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert all(line.replace(" ", "") in err for line in lines)
        assert peak < 4 * 2**20
        assert not (tmp_path / "out").exists()

    def test_non_integer_arch_value_exit_2(self, corpus_dir, tmp_path, capsys):
        config = tmp_path / "t.conf"
        config.write_text("hidden_width = wide\n")
        assert run(["train", "--arch", "dnn", "--corpus", corpus_dir,
                    "--out", tmp_path, "--config", config]) == 2
        assert "hidden_width='wide': not an integer" in capsys.readouterr().err


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
