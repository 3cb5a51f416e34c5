"""Frame-posterior decoding, edit-distance scoring, and results tables.

Decoding is deliberately simple: per-frame argmax, collapse of consecutive
duplicates, silence removal. The resulting "WER" is therefore a token error
rate over the synthetic gesture vocabulary; it is not comparable to word
error rates from a full recognition stack with a lexicon and language model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .synth import SILENCE_CLASS


@dataclass
class WerReport:
    substitutions: int
    deletions: int
    insertions: int
    n_ref_words: int

    @property
    def n_errors(self) -> int:
        return self.substitutions + self.deletions + self.insertions

    @property
    def wer_percent(self) -> float:
        return 100.0 * self.n_errors / self.n_ref_words


def greedy_decode(posteriors: np.ndarray, class_to_token: dict) -> list:
    """Per-frame argmax, collapse duplicate runs, drop silence, map to tokens.

    Argmax ties resolve to the lowest class index. The map must cover every
    class column.
    """
    posteriors = np.asarray(posteriors)
    if posteriors.ndim != 2:
        raise ShapeError("posteriors must be a (T, n_classes) matrix")
    n_classes = posteriors.shape[1]
    missing = [c for c in range(n_classes) if c not in class_to_token]
    if missing:
        raise ShapeError(f"class_to_token map is missing classes {missing}")
    sums = posteriors.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-6):
        raise ShapeError("posterior rows must sum to 1")
    return collapse_labels(posteriors.argmax(axis=1), class_to_token)


def collapse_labels(labels, class_to_token: dict) -> list:
    """Reference token sequence from per-frame labels (same collapse rule)."""
    tokens = []
    previous = None
    for c in np.asarray(labels):
        if c != previous and c != SILENCE_CLASS:
            tokens.append(class_to_token[int(c)])
        previous = c
    return tokens


def levenshtein_wer(ref: list, hyp: list) -> WerReport:
    """Minimum-edit alignment with unit costs.

    Among all minimum-distance alignments, the one minimizing insertions
    (equivalently deletions; the two are coupled by the length difference)
    is selected, which makes the S/D/I decomposition unique and symmetric
    under swapping ref and hyp.
    """
    if len(ref) == 0:
        raise ValueError("reference word list is empty; WER undefined")
    n, m = len(ref), len(hyp)
    # cell = (distance, insertions, deletions), minimized lexicographically
    prev = [(j, j, 0) for j in range(m + 1)]
    for i in range(1, n + 1):
        cur = [(i, 0, i)]
        for j in range(1, m + 1):
            diag = prev[j - 1]
            sub_cost = 0 if ref[i - 1] == hyp[j - 1] else 1
            cur.append(min(
                (diag[0] + sub_cost, diag[1], diag[2]),
                (prev[j][0] + 1, prev[j][1], prev[j][2] + 1),
                (cur[j - 1][0] + 1, cur[j - 1][1] + 1, cur[j - 1][2]),
            ))
        prev = cur
    dist, ins, dels = prev[m]
    return WerReport(dist - ins - dels, dels, ins, n)


def combine_reports(reports: list) -> WerReport:
    """Corpus-level totals over per-utterance reports."""
    if not reports:
        raise ValueError("no reports to combine")
    return WerReport(
        sum(r.substitutions for r in reports),
        sum(r.deletions for r in reports),
        sum(r.insertions for r in reports),
        sum(r.n_ref_words for r in reports),
    )


def results_table(rows: list) -> str:
    """Format (arch, features, train_data, WER %) rows as a results table.

    Rows sharing a training-data tag form a panel (in first-appearance
    order); the lowest WER in each panel is marked with '*', ties
    all marked.
    """
    headers = ("AM", "Features", "Train. Data", "WER (%)")
    panels = []
    panel_keys = []
    for row in rows:
        arch, feats, train_data, value = row
        if train_data not in panel_keys:
            panel_keys.append(train_data)
            panels.append([])
        panels[panel_keys.index(train_data)].append((arch, feats, train_data,
                                                     float(value)))
    cells = []
    for panel in panels:
        best = min(v for _, _, _, v in panel)
        block = []
        for arch, feats, train_data, value in panel:
            mark = " *" if value == best else ""
            block.append((str(arch), str(feats), str(train_data),
                          f"{value:.1f}{mark}"))
        cells.append(block)

    widths = [len(h) for h in headers]
    for block in cells:
        for row in block:
            widths = [max(w, len(c)) for w, c in zip(widths, row)]

    def fmt(row):
        return " | ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()

    sep = "-+-".join("-" * w for w in widths)
    lines = [fmt(headers), sep]
    for i, block in enumerate(cells):
        if i:
            lines.append(sep)
        lines.extend(fmt(row) for row in block)
    return "\n".join(lines)
