import warnings

import numpy as np
import pytest

from tvasr import corpus as corpus_module
from tvasr.corpus import (build_parallel_corpus, corpus_digest, read_corpus,
                          split_sizes, write_corpus)
from tvasr.errors import ConfigError, FormatError
from tvasr.features import load_feature_matrix as load, logmel_filterbank


@pytest.fixture(scope="module")
def small_corpus():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_parallel_corpus(100, severity_range=(0.2, 0.6),
                                     rng_seed=31)


class TestBuild:
    def test_too_few_utterances(self):
        with pytest.raises(ConfigError):
            build_parallel_corpus(5)

    def test_empty_noise_bank(self):
        with pytest.raises(ConfigError):
            build_parallel_corpus(10, noise_bank=())

    def test_clean_plus_noisy_copies(self, small_corpus):
        assert len(small_corpus.utterances) == 200
        clean = [u for u in small_corpus.utterances if not u.is_noisy]
        noisy = [u for u in small_corpus.utterances if u.is_noisy]
        assert len(clean) == len(noisy) == 100
        for c, n in zip(clean, noisy):
            assert n.source_id == c.utt_id
            assert np.array_equal(n.labels, c.labels)
            assert n.split == c.split

    def test_split_sizes_88_2_10(self, small_corpus):
        assert split_sizes(100) == (88, 2, 10)
        counts = {}
        for utt in small_corpus.utterances:
            if not utt.is_noisy:
                counts[utt.split] = counts.get(utt.split, 0) + 1
        assert counts == {"train": 88, "cv": 2, "test": 10}

    def test_small_corpus_has_nonempty_cv(self):
        assert split_sizes(10) == (8, 1, 1)

    def test_snrs_within_requested_range(self, small_corpus):
        snrs = [u.snr_db for u in small_corpus.utterances if u.is_noisy]
        assert all(10.0 <= s <= 80.0 for s in snrs)

    def test_identical_seed_identical_digest(self, small_corpus):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            again = build_parallel_corpus(100, severity_range=(0.2, 0.6),
                                          rng_seed=31)
        assert corpus_digest(again) == corpus_digest(small_corpus)

    def test_different_seed_changes_corpus(self, small_corpus):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            other = build_parallel_corpus(100, severity_range=(0.2, 0.6),
                                          rng_seed=32)
        assert corpus_digest(other) != corpus_digest(small_corpus)

    def test_frame_count_consistency(self, small_corpus):
        for utt in small_corpus.utterances[:20]:
            t_audio = len(logmel_filterbank(utt.waveform))
            assert abs(t_audio - utt.tvs.n_frames) <= 1
            assert len(utt.labels) == utt.tvs.n_frames

    def test_labels_are_gesture_classes_with_silent_edges(self, small_corpus):
        for utt in small_corpus.utterances[:10]:
            assert utt.labels[0] == 0
            assert utt.labels[-1] == 0
            assert utt.labels.max() < small_corpus.n_classes
            assert utt.labels.max() > 0


class TestDiskRoundtrip:
    def test_write_read_preserves_content(self, small_corpus, tmp_path):
        manifest = write_corpus(small_corpus, tmp_path)
        back = read_corpus(manifest)
        assert len(back.utterances) == len(small_corpus.utterances)
        assert back.n_classes == small_corpus.n_classes
        for orig, loaded in zip(small_corpus.utterances, back.utterances):
            assert loaded.utt_id == orig.utt_id
            assert loaded.split == orig.split
            assert loaded.transcript == orig.transcript
            assert np.array_equal(loaded.labels, orig.labels)
            assert np.allclose(loaded.waveform.samples, orig.waveform.samples,
                               atol=1.0 / 32768.0)
            assert np.allclose(loaded.tvs.frames, orig.tvs.frames, atol=1e-6)

    def test_rewrite_is_bit_identical(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = build_parallel_corpus(10, rng_seed=77)
            b = build_parallel_corpus(10, rng_seed=77)
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        write_corpus(a, dir_a)
        write_corpus(b, dir_b)
        for path_a in sorted(dir_a.iterdir()):
            path_b = dir_b / path_a.name
            assert path_a.read_bytes() == path_b.read_bytes(), path_a.name

    def test_shared_targets_loaded_once(self, tmp_path, monkeypatch):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            corpus = build_parallel_corpus(20, rng_seed=5)
        manifest = write_corpus(corpus, tmp_path)
        loads = []

        def counting_load(path):
            loads.append(path)
            return load(path)

        monkeypatch.setattr(corpus_module, "load_feature_matrix", counting_load)
        assert len(read_corpus(manifest).utterances) == 40
        assert len(loads) == len(set(loads)) == 20

    def test_malformed_manifest_row(self, tmp_path):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("only\tthree\tcolumns\n")
        with pytest.raises(FormatError):
            read_corpus(manifest)

    def test_non_integer_label_rejected(self, small_corpus, tmp_path):
        manifest = write_corpus(small_corpus, tmp_path)
        label_file = tmp_path / manifest.read_text().split("\t")[4]
        label_file.write_text(label_file.read_text().replace("0", "zero", 1))
        with pytest.raises(FormatError, match="zero"):
            read_corpus(manifest)

    def test_empty_manifest_rejected(self, tmp_path):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("\n")
        with pytest.raises(FormatError, match="no utterances"):
            read_corpus(manifest)

    def test_unknown_split_rejected(self, small_corpus, tmp_path):
        manifest = write_corpus(small_corpus, tmp_path)
        rows = manifest.read_text().splitlines()
        rows[0] = rows[0].replace("train", "dev", 1)
        manifest.write_text("\n".join(rows) + "\n")
        with pytest.raises(FormatError):
            read_corpus(manifest)


def test_split_utts_filters(small_corpus):
    noisy_test = small_corpus.split_utts("test", noisy=True)
    assert len(noisy_test) == 10
    assert all(u.is_noisy and u.split == "test" for u in noisy_test)
    everything = small_corpus.split_utts("train")
    assert len(everything) == 176
