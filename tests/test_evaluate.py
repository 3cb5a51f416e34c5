import numpy as np
import pytest

from helpers import reference_edit_alignment

from tvasr.errors import ShapeError
from tvasr.evaluate import (WerReport, collapse_labels, combine_reports,
                            greedy_decode, levenshtein_wer, results_table)

TOKENS = {0: "sil", 1: "a", 2: "b", 3: "c"}


def one_hot_posteriors(classes, n_classes=4):
    out = np.zeros((len(classes), n_classes))
    out[np.arange(len(classes)), classes] = 1.0
    return out


class TestGreedyDecode:
    def test_collapse_rule(self):
        post = one_hot_posteriors([1, 1, 1, 2, 2])
        assert greedy_decode(post, TOKENS) == ["a", "b"]

    def test_all_silence_empty(self):
        post = one_hot_posteriors([0, 0, 0])
        assert greedy_decode(post, TOKENS) == []

    def test_silence_separates_repeats(self):
        post = one_hot_posteriors([1, 0, 1])
        assert greedy_decode(post, TOKENS) == ["a", "a"]

    def test_tie_break_lowest_index(self):
        post = np.array([[0.1, 0.45, 0.45, 0.0]])
        assert greedy_decode(post, TOKENS) == ["a"]

    def test_incomplete_map_rejected(self):
        post = one_hot_posteriors([1])
        with pytest.raises(ShapeError):
            greedy_decode(post, {0: "sil", 1: "a"})

    def test_rows_must_sum_to_one(self):
        with pytest.raises(ShapeError):
            greedy_decode(np.array([[0.5, 0.2, 0.0, 0.0]]), TOKENS)

    def test_output_never_longer_than_frames(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            t = int(rng.integers(1, 40))
            logits = rng.standard_normal((t, 4))
            post = np.exp(logits)
            post /= post.sum(axis=1, keepdims=True)
            assert len(greedy_decode(post, TOKENS)) <= t

    def test_collapse_labels_matches_decode_on_one_hot(self):
        rng = np.random.default_rng(1)
        classes = rng.integers(0, 4, 60)
        assert (collapse_labels(classes, TOKENS)
                == greedy_decode(one_hot_posteriors(classes), TOKENS))


class TestLevenshteinWer:
    def test_identical_is_zero(self):
        report = levenshtein_wer(["x", "y", "z"], ["x", "y", "z"])
        assert (report.substitutions, report.deletions,
                report.insertions) == (0, 0, 0)
        assert report.wer_percent == 0.0

    def test_single_deletion(self):
        report = levenshtein_wer(["a", "b", "c"], ["a", "c"])
        assert (report.substitutions, report.deletions,
                report.insertions) == (0, 1, 0)
        assert report.wer_percent == pytest.approx(100.0 / 3.0)

    def test_single_replacement_is_100_over_n(self):
        rng = np.random.default_rng(2)
        for n in range(1, 12):
            ref = [f"w{i}" for i in range(n)]
            hyp = list(ref)
            hyp[int(rng.integers(n))] = "other"
            assert levenshtein_wer(ref, hyp).wer_percent == pytest.approx(100.0 / n)

    def test_empty_ref_rejected(self):
        with pytest.raises(ValueError):
            levenshtein_wer([], ["a"])

    def test_empty_hyp_all_deletions(self):
        report = levenshtein_wer(["a", "b"], [])
        assert (report.substitutions, report.deletions,
                report.insertions) == (0, 2, 0)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(3)
        alphabet = list("abcd")
        for _ in range(200):
            ref = [alphabet[i] for i in rng.integers(0, 4, rng.integers(1, 9))]
            hyp = [alphabet[i] for i in rng.integers(0, 4, rng.integers(0, 9))]
            if not hyp:
                continue
            fwd = levenshtein_wer(ref, hyp)
            rev = levenshtein_wer(hyp, ref)
            assert rev.substitutions == fwd.substitutions
            assert rev.insertions == fwd.deletions
            assert rev.deletions == fwd.insertions

    def test_matches_reference_oracle(self):
        rng = np.random.default_rng(4)
        alphabet = list("abcdef")
        for _ in range(300):
            ref = tuple(alphabet[i]
                        for i in rng.integers(0, 6, rng.integers(1, 10)))
            hyp = tuple(alphabet[i]
                        for i in rng.integers(0, 6, rng.integers(0, 10)))
            report = levenshtein_wer(list(ref), list(hyp))
            dist, ins, dels = reference_edit_alignment(ref, hyp)
            assert report.n_errors == dist
            assert report.insertions == ins
            assert report.deletions == dels

    def test_combine_reports(self):
        total = combine_reports([WerReport(1, 2, 3, 10), WerReport(0, 1, 0, 5)])
        assert total.n_ref_words == 15
        assert total.n_errors == 7
        assert total.wer_percent == pytest.approx(700.0 / 15.0)


class TestResultsTable:
    PAPER_ROWS = [
        ("DNN", "FB", "Dys. NL", 22.9),
        ("CNN", "FB", "Dys. NL", 21.1),
        ("TFCNN", "FB", "Dys. NL", 20.3),
        ("fCNN", "FB + TV", "Dys. NL", 19.1),
        ("DNN", "FB", "Nor. NL", 15.0),
        ("CNN", "FB", "Nor. NL", 14.9),
        ("TFCNN", "FB", "Nor. NL", 14.1),
        ("fCNN", "FB + TV", "Nor. NL", 15.0),
    ]

    def test_marks_panel_best(self):
        table = results_table(self.PAPER_ROWS)
        lines = table.splitlines()
        marked = [l for l in lines if l.rstrip().endswith("*")]
        assert len(marked) == 2
        assert any("fCNN" in l and "19.1 *" in l for l in marked)
        assert any("TFCNN" in l and "14.1 *" in l for l in marked)

    def test_single_row_marked(self):
        table = results_table([("DNN", "FB", "set", 50.0)])
        assert "50.0 *" in table

    def test_ties_all_marked(self):
        table = results_table([("DNN", "FB", "set", 10.0),
                               ("CNN", "FB", "set", 10.0)])
        assert table.count("10.0 *") == 2

    def test_marking_agrees_with_min_per_panel(self):
        rng = np.random.default_rng(5)
        rows = []
        for panel in ("p1", "p2", "p3"):
            for arch in ("DNN", "CNN", "TFCNN"):
                rows.append((arch, "FB", panel,
                             float(np.round(rng.uniform(10, 40), 1))))
        table = results_table(rows)
        lines = [l for l in table.splitlines() if "|" in l][1:]
        by_panel = {}
        for row, line in zip(rows, [l for l in lines if "-" not in l.split("|")[0]]):
            by_panel.setdefault(row[2], []).append((row[3], line))
        for panel, entries in by_panel.items():
            best = min(v for v, _ in entries)
            for value, line in entries:
                assert line.rstrip().endswith("*") == (value == best)

    def test_header_columns(self):
        table = results_table(self.PAPER_ROWS)
        header = table.splitlines()[0]
        for col in ("AM", "Features", "Train. Data", "WER (%)"):
            assert col in header
