import shutil
import tracemalloc
import warnings

import numpy as np
import pytest

from tvasr import corpus as corpus_module
from tvasr.corpus import (build_parallel_corpus, corpus_digest, read_corpus,
                          split_sizes, write_corpus)
from tvasr.errors import ConfigError, FormatError
from tvasr.features import frame_count, load_feature_matrix as load
from tvasr.synth import n_gesture_classes


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
        """Every entry's audio frames, TV rows and labels agree exactly, up
        to severity 0.7: the invariant read_corpus checks."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            severe = build_parallel_corpus(30, severity_range=(0.0, 0.7),
                                           rng_seed=33)
        for utt in small_corpus.utterances + severe.utterances:
            assert frame_count(utt.waveform) == utt.tvs.n_frames \
                == len(utt.labels), utt.utt_id

    def test_labels_are_gesture_classes_with_silent_edges(self, small_corpus):
        for utt in small_corpus.utterances[:10]:
            assert utt.labels[0] == 0
            assert utt.labels[-1] == 0
            assert utt.labels.max() < small_corpus.n_classes
            assert utt.labels.max() > 0


class Started(Exception):
    """Raised in place of the first score, so that no test of the size bound
    can synthesize a corpus, whatever the bound does."""


@pytest.fixture
def no_synthesis(monkeypatch):
    def started(*args, **kwargs):
        raise Started

    monkeypatch.setattr(corpus_module, "generate_gestural_score", started)


class TestSizeBound:
    @pytest.mark.parametrize("n_utts, severity, words", [
        (500, (0.3, 0.7), (1, 2)),     # the README walkthrough
        (500, (0.3, 0.7), (1, 1)),     # the acceptance tests
        (120, (0.1, 0.3), (1, 1)),     # the paper-scale benchmarks
        (45, (0.3, 0.7), (1, 2))])     # the walkthrough benchmark
    def test_documented_corpora_pass(self, no_synthesis, n_utts, severity,
                                     words):
        with pytest.raises(Started):
            build_parallel_corpus(n_utts, severity_range=severity,
                                  n_words_range=words)

    @pytest.mark.parametrize("key, n_utts, words", [
        ("n_utts", 10**7, (1, 2)), ("n_utts", 10**400, (1, 2)),
        ("words_max", 10, (1, 10**6)), ("words_max", 10, (1, 10**400))])
    def test_oversized_corpus_refused_before_synthesis(self, no_synthesis,
                                                       key, n_utts, words):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError,
                               match=f"MAX_CORPUS_SAMPLE_BYTES.*{key}="):
                build_parallel_corpus(n_utts, severity_range=(0.3, 0.7),
                                      n_words_range=words)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_bound_holds_for_the_longest_scores(self):
        # severity 1 and three words a score: the bound must not undercount
        corpus = build_parallel_corpus(10, severity_range=(1.0, 1.0),
                                       n_words_range=(3, 3), rng_seed=2)
        used = sum(u.waveform.samples.nbytes for u in corpus.utterances)
        assert used <= corpus_module._sample_bytes_bound(10, 1.0, 3)


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

    @pytest.mark.parametrize("splits,noisy", [
        (("test",), True), (("test",), False), (("test",), None),
        (("train", "cv"), None), (("cv",), True)])
    def test_selection_loads_what_split_utts_selects(self, splits, noisy,
                                                     written_corpus,
                                                     monkeypatch):
        manifest = written_corpus / "manifest.tsv"
        whole = read_corpus(manifest)
        wanted = [u for split in splits for u in whole.split_utts(split, noisy)]
        wanted.sort(key=whole.utterances.index)
        opened = []

        def recording(load_fn):
            def wrapper(path):
                opened.append(path.name)
                return load_fn(path)
            return wrapper

        monkeypatch.setattr(corpus_module, "read_wav",
                            recording(corpus_module.read_wav))
        monkeypatch.setattr(corpus_module, "load_feature_matrix",
                            recording(load))
        part = read_corpus(manifest, splits, noisy)
        assert [u.utt_id for u in part.utterances] == [u.utt_id for u in wanted]
        for loaded, full in zip(part.utterances, wanted):
            assert loaded.split == full.split
            assert loaded.source_id == full.source_id
            assert loaded.transcript == full.transcript
            assert loaded.waveform.samples.tobytes() == \
                full.waveform.samples.tobytes()
            assert loaded.tvs.frames.tobytes() == full.tvs.frames.tobytes()
            assert loaded.labels.tobytes() == full.labels.tobytes()
        # each selected WAV once, each source's TVs once, in manifest order
        expected, sources = [], set()
        for u in wanted:
            if u.source_id not in sources:
                sources.add(u.source_id)
                expected.append(f"{u.source_id}.tv.fmx")
            expected.append(f"{u.utt_id}.wav")
        assert opened == expected

    def test_unused_entries_files_never_opened(self, written_corpus, tmp_path):
        manifest = TestDamagedCorpusFiles.copy(written_corpus, tmp_path)
        rows = [r.split("\t") for r in manifest.read_text().splitlines()]
        for _, split, *names, _ in rows:
            if split != "test":
                for name in names:
                    (manifest.parent / name).unlink(missing_ok=True)
        part = read_corpus(manifest, ("test",))
        assert {u.split for u in part.utterances} == {"test"}
        with pytest.raises(FileNotFoundError):
            read_corpus(manifest, ("cv",))

    def test_empty_selection_is_an_empty_corpus(self, written_corpus,
                                                tmp_path):
        manifest = TestDamagedCorpusFiles.copy(written_corpus, tmp_path)
        manifest.write_text("".join(r + "\n" for r in
                                    manifest.read_text().splitlines()
                                    if "\ttest\t" not in r))
        corpus = read_corpus(manifest, ("test",), True)
        assert corpus.utterances == []
        assert corpus.n_classes == n_gesture_classes()

    @pytest.mark.parametrize("damage", ["duplicate", "unknown-split",
                                        "five-fields"])
    def test_manifest_checked_whole_for_any_selection(self, damage,
                                                      written_corpus,
                                                      tmp_path):
        manifest = TestDamagedCorpusFiles.copy(written_corpus, tmp_path)
        rows = manifest.read_text().splitlines()
        rows.append({"duplicate": rows[0],
                     "unknown-split": rows[0].replace("train", "dev", 1)
                                              .replace("utt00000", "x", 1),
                     "five-fields": rows[0].rsplit("\t", 1)[0]}[damage])
        manifest.write_text("\n".join(rows) + "\n")
        with pytest.raises(FormatError, match=f"{manifest}: "):
            read_corpus(manifest, ("test",), True)

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


@pytest.fixture(scope="module")
def written_corpus(tmp_path_factory):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        corpus = build_parallel_corpus(10, rng_seed=5)
    out = tmp_path_factory.mktemp("written")
    write_corpus(corpus, out)
    return out


class TestDamagedCorpusFiles:
    """Corpus files that are not what write_corpus wrote raise FormatError
    naming the file, and classes.txt is never read."""

    @staticmethod
    def copy(written_corpus, tmp_path):
        shutil.copytree(written_corpus, tmp_path / "c")
        return tmp_path / "c" / "manifest.tsv"

    @pytest.mark.parametrize("label", ["-1", "21", "99999999999", "1" + "0" * 30])
    def test_label_outside_the_classes(self, label, written_corpus, tmp_path):
        manifest = self.copy(written_corpus, tmp_path)
        labels = manifest.parent / "utt00003.labels"
        labels.write_text(labels.read_text() + label + "\n")
        with pytest.raises(FormatError, match=f"{labels}: "):
            read_corpus(manifest)

    def test_undecodable_manifest(self, written_corpus, tmp_path):
        manifest = self.copy(written_corpus, tmp_path)
        manifest.write_bytes(manifest.read_bytes().replace(b"\n", b"\xff\n", 1))
        with pytest.raises(FormatError, match=f"{manifest}: "):
            read_corpus(manifest)

    def test_duplicate_utterance_id(self, written_corpus, tmp_path):
        manifest = self.copy(written_corpus, tmp_path)
        text = manifest.read_text()
        manifest.write_text(text + text.splitlines()[5] + "\n")
        with pytest.raises(FormatError, match="duplicate utterance id 'utt00002n'"):
            read_corpus(manifest)

    def test_classes_file_is_not_read(self, written_corpus, tmp_path):
        manifest = self.copy(written_corpus, tmp_path)
        (manifest.parent / "classes.txt").write_bytes(b"\xff\n" * 40)
        assert read_corpus(manifest).n_classes == n_gesture_classes() == 21


def test_split_utts_filters(small_corpus):
    noisy_test = small_corpus.split_utts("test", noisy=True)
    assert len(noisy_test) == 10
    assert all(u.is_noisy and u.split == "test" for u in noisy_test)
    everything = small_corpus.split_utts("train")
    assert len(everything) == 176
