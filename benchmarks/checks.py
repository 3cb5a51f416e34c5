"""Output checks, computed apart from the program.

Each check raises CheckError when an output is wrong. None of them calls the
tvasr routine that produced the output it checks. `self_test` feeds every
check one good and one corrupted output and fails unless the corruption is
rejected; run it alone with `python3 benchmarks/checks.py`.
"""

from __future__ import annotations

import math

import numpy as np

# 25 ms windows every 10 ms at 16 kHz: the framing all front ends share.
WIN_SAMPLES, SHIFT_SAMPLES = 400, 160


class CheckError(AssertionError):
    pass


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def edit_distance(ref: list, hyp: list) -> int:
    """Unit-cost Levenshtein distance by the textbook full-table DP."""
    table = np.zeros((len(ref) + 1, len(hyp) + 1), dtype=np.int64)
    table[:, 0] = np.arange(len(ref) + 1)
    table[0, :] = np.arange(len(hyp) + 1)
    for i in range(1, len(ref) + 1):
        for j in range(1, len(hyp) + 1):
            table[i, j] = min(table[i - 1, j] + 1, table[i, j - 1] + 1,
                              table[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1]))
    return int(table[-1, -1])


def check_wer(ref: list, hyp: list, report) -> None:
    """The program's S/D/I counts add up to an independent edit distance."""
    counts = (report.substitutions, report.deletions, report.insertions)
    _require(min(counts) >= 0, f"negative error count {counts}")
    _require(report.n_ref_words == len(ref),
             f"n_ref_words {report.n_ref_words} != {len(ref)}")
    _require(report.insertions - report.deletions == len(hyp) - len(ref),
             f"I-D {counts} does not match the length difference")
    dist = edit_distance(ref, hyp)
    _require(sum(counts) == dist, f"S+D+I {sum(counts)} != edit distance {dist}")


def pearson_r(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-column Pearson r by numpy.corrcoef; 0 where a column is constant."""
    out = np.zeros(pred.shape[1])
    for c in range(pred.shape[1]):
        if np.ptp(pred[:, c]) > 0 and np.ptp(truth[:, c]) > 0:
            out[c] = np.corrcoef(pred[:, c], truth[:, c])[0, 1]
    return out


def check_pearson(pred, truth, reported, tol: float) -> np.ndarray:
    """The reported per-TV r matches numpy.corrcoef within tol."""
    r = pearson_r(np.asarray(pred, np.float64), np.asarray(truth, np.float64))
    worst = float(np.max(np.abs(r - np.asarray(reported))))
    _require(worst <= tol, f"Pearson r off by {worst:.2e} (tolerance {tol})")
    return r


def check_snr(clean: np.ndarray, noisy: np.ndarray, snr_db: float,
              tol_db: float = 1e-6) -> bool:
    """Measured SNR equals snr_db; returns False (unchecked) if noisy clipped."""
    if np.max(np.abs(noisy)) >= 1.0:
        return False
    noise = noisy - clean
    measured = 10.0 * math.log10(np.mean(clean ** 2) / np.mean(noise ** 2))
    _require(abs(measured - snr_db) <= tol_db,
             f"measured SNR {measured:.6f} dB != requested {snr_db:.6f} dB")
    return True


def check_loss_below_uniform(losses, n_classes: int) -> None:
    """Each mean training loss beats the uniform predictor's ln(n_classes)."""
    bound = math.log(n_classes)
    worst = max(losses)
    _require(worst < bound, f"training loss {worst:.4f} >= ln({n_classes})"
             f" = {bound:.4f}")


def check_same_accuracy(correct_batched: int, accuracy_loop: float,
                        n_frames: int) -> None:
    """Batched and per-utterance scoring classify the same number of frames."""
    loop_correct = round(accuracy_loop * n_frames)
    _require(correct_batched == loop_correct,
             f"batched scoring got {correct_batched}/{n_frames} right, "
             f"per-utterance {loop_correct}/{n_frames}")


def check_beats_majority(accuracy: float, labels) -> float:
    """Frame accuracy exceeds the share of the most common label."""
    labels = np.asarray(labels)
    share = float(np.bincount(labels).max() / len(labels))
    _require(accuracy > share,
             f"frame accuracy {accuracy:.4f} <= majority share {share:.4f}")
    return share


def logmel_frames(n_samples: int) -> int:
    return (n_samples - WIN_SAMPLES) // SHIFT_SAMPLES + 1


def check_inverted_tvs(frames: np.ndarray, n_samples: int) -> None:
    """Inverted TVs lie in [0, 1], one row per log-mel frame of the audio."""
    expected = logmel_frames(n_samples)
    _require(frames.shape[0] == expected,
             f"{frames.shape[0]} TV rows for {expected} log-mel frames")
    _require(frames.min() >= 0.0 and frames.max() <= 1.0,
             f"TV values outside [0, 1]: [{frames.min()}, {frames.max()}]")


def check_same_bytes(saved: bytes, resaved: bytes, what: str) -> None:
    _require(saved == resaved, f"{what} does not re-serialize to the same bytes")


def check_exit_code(code: int, argv) -> None:
    _require(code == 0, f"`tvasr {' '.join(argv)}` exited {code}")


# ---------------------------------------------------------------------------
# Self-test: every check rejects a corrupted output
# ---------------------------------------------------------------------------

class _Wer:
    def __init__(self, s, d, i, n):
        self.substitutions, self.deletions, self.insertions = s, d, i
        self.n_ref_words = n


def _cases(rng):
    ref, hyp = list("abcde"), list("abxdef")  # 1 substitution, 1 insertion
    t = np.linspace(0.0, 1.0, 200)
    truth = np.stack([np.sin(6 * t), t ** 2], axis=1)
    pred = truth + 0.1 * rng.standard_normal(truth.shape)
    r = [np.corrcoef(pred[:, c], truth[:, c])[0, 1] for c in range(2)]
    clean = 0.3 * np.sin(np.arange(4000) / 7.0)
    noise = rng.standard_normal(4000)
    scale = math.sqrt(np.mean(clean ** 2) / np.mean(noise ** 2)) * 10 ** (-1.0)
    noisy = clean + scale * noise  # 20 dB
    tvs = rng.uniform(0.0, 1.0, (logmel_frames(16000), 8))
    labels = np.array([0, 0, 0, 1, 2])
    return [
        ("wer", lambda: check_wer(ref, hyp, _Wer(1, 0, 1, 5)),
         lambda: check_wer(ref, hyp, _Wer(1, 0, 0, 5))),
        ("wer-sum", lambda: check_wer(ref, hyp, _Wer(1, 0, 1, 5)),
         lambda: check_wer(ref, hyp, _Wer(2, 1, 2, 5))),
        ("pearson", lambda: check_pearson(pred, truth, r, 1e-9),
         lambda: check_pearson(pred, truth, [r[0], r[1] + 0.01], 1e-4)),
        ("snr", lambda: check_snr(clean, noisy, 20.0),
         lambda: check_snr(clean, noisy, 20.5)),
        ("loss", lambda: check_loss_below_uniform([2.0, 1.5], 25),
         lambda: check_loss_below_uniform([2.0, 3.3], 25)),
        ("batch", lambda: check_same_accuracy(30, 0.3, 100),
         lambda: check_same_accuracy(31, 0.3, 100)),
        ("majority", lambda: check_beats_majority(0.7, labels),
         lambda: check_beats_majority(0.6, labels)),
        ("tv-range", lambda: check_inverted_tvs(tvs, 16000),
         lambda: check_inverted_tvs(tvs * 1.5, 16000)),
        ("tv-rows", lambda: check_inverted_tvs(tvs, 16000),
         lambda: check_inverted_tvs(tvs[:-1], 16000)),
        ("bytes", lambda: check_same_bytes(b"NNG1\x00", b"NNG1\x00", "ckpt"),
         lambda: check_same_bytes(b"NNG1\x00", b"NNG1\x01", "ckpt")),
        ("exit", lambda: check_exit_code(0, ["report"]),
         lambda: check_exit_code(2, ["report"])),
    ]


def self_test() -> int:
    """Run every check on a good and a corrupted output; returns the count."""
    cases = _cases(np.random.default_rng(0))
    for name, good, bad in cases:
        good()
        try:
            bad()
        except CheckError:
            continue
        raise CheckError(f"check {name!r} accepted a corrupted output")
    return len(cases)


if __name__ == "__main__":
    print(f"{self_test()} check self-tests passed")
