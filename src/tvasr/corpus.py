"""Parallel corpus generation: audio + TV trajectories + frame labels.

Every utterance is rendered clean and once more with additive noise at a
uniform-random SNR drawn from the requested range; both copies share TVs,
labels, and transcript. Utterances split 88/2/10 (train/cv/test) by clean
utterance index, with at least one cross-validation utterance.

Per-utterance randomness derives from the master seed by seeding a fresh
generator with [seed, utterance_index], so generation order cannot change
the corpus.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import (DEFAULT_SAMPLE_RATE, FRAME_SHIFT, Waveform, frame_samples,
                    mix_noise_at_snr, read_wav, write_wav)
from .errors import ConfigError, FormatError
from .features import frame_count, load_feature_matrix, save_feature_matrix
from .synth import (NOISE_KINDS, TVTrajectory, default_inventory,
                    default_vocabulary, frame_labels, generate_gestural_score,
                    generate_noise, max_score_duration, n_gesture_classes,
                    render_tvs, synthesize_speech_from_tvs)

SPLITS = ("train", "cv", "test")
# build_parallel_corpus refuses a config whose clean and noisy float64
# samples could pass this many bytes, before it synthesizes anything: both
# copies of every utterance stay in memory until the corpus is written. The
# README's 500-utterance corpus (1-2 words, severity up to 0.7) is bounded
# by 0.28 GB, and the acceptance tests' (1 word) by 0.14 GB.
MAX_CORPUS_SAMPLE_BYTES = 2**31
# the splits that train and train-inversion read
TRAINING_SPLITS = ("train", "cv")


@dataclass
class Utterance:
    utt_id: str
    split: str
    waveform: Waveform
    tvs: TVTrajectory
    labels: np.ndarray
    transcript: list
    source_id: str
    snr_db: float | None = None

    @property
    def is_noisy(self) -> bool:
        return self.utt_id != self.source_id


@dataclass
class ParallelCorpus:
    utterances: list
    n_classes: int

    def split_utts(self, split: str, noisy: bool | None = None):
        out = []
        for utt in self.utterances:
            if utt.split != split:
                continue
            if noisy is not None and utt.is_noisy != noisy:
                continue
            out.append(utt)
        return out

    def training_splits(self) -> tuple:
        """The train and the cv utterances; ConfigError if either is empty."""
        splits = tuple(self.split_utts(split) for split in TRAINING_SPLITS)
        for split, utts in zip(TRAINING_SPLITS, splits):
            if not utts:
                raise ConfigError(f"no utterances in split {split!r}")
        return splits


def split_sizes(n_utts: int):
    """88/2/10 split by utterance with at least one cv utterance."""
    n_train = int(n_utts * 0.88)
    n_cv = max(1, int(n_utts * 0.02))
    return n_train, n_cv, n_utts - n_train - n_cv


def _split_of(index: int, n_train: int, n_cv: int) -> str:
    if index < n_train:
        return "train"
    if index < n_train + n_cv:
        return "cv"
    return "test"


def _sample_bytes_bound(n_utts: int, severity_max: float,
                        words_max: int) -> float:
    """Bytes that the float64 samples of a build_parallel_corpus corpus
    cannot exceed: render_tvs rounds a score to the nearest frame, and
    synthesis gives (T - 1) * shift + win samples for T frames."""
    win_n, shift_n = frame_samples(DEFAULT_SAMPLE_RATE)
    try:
        frames = max_score_duration(words_max, severity_max) / FRAME_SHIFT + 1
        return 2 * n_utts * 8 * (frames * shift_n + win_n)
    except OverflowError:  # an int too large for a float
        return np.inf


def build_parallel_corpus(n_utts: int, severity_range=(0.0, 0.0),
                          snr_range=(10.0, 80.0), rng_seed=0,
                          n_words_range=(1, 2)) -> ParallelCorpus:
    """Generate n_utts clean utterances plus one noisy copy of each.

    Words come from `default_vocabulary()` and noise from `NOISE_KINDS`.
    ConfigError unless the severity and SNR ranges are finite with
    min <= max, and the word range has 1 <= min <= max; also if the samples
    could pass MAX_CORPUS_SAMPLE_BYTES.
    """
    if n_utts < 10:
        raise ConfigError(f"corpus needs at least 10 utterances, got {n_utts}")
    for name, (low, high) in (("severity", severity_range), ("snr", snr_range)):
        if not -np.inf < low <= high < np.inf:  # so that NaN fails too
            raise ConfigError(f"{name} range [{low}, {high}] is not finite "
                              "with min <= max")
    low, high = n_words_range
    if not 1 <= low <= high:
        raise ConfigError(f"word range [{low}, {high}] needs "
                          "1 <= words_min <= words_max")
    bound = _sample_bytes_bound(n_utts, severity_range[1], high)
    if bound > MAX_CORPUS_SAMPLE_BYTES:
        raise ConfigError(
            f"the corpus samples could take {bound:.3g} bytes, more than "
            f"MAX_CORPUS_SAMPLE_BYTES = {MAX_CORPUS_SAMPLE_BYTES:,}; "
            f"n_utts={n_utts}, words_max={high}, "
            f"severity_max={severity_range[1]}")
    vocab = default_vocabulary()
    n_train, n_cv, _ = split_sizes(n_utts)

    def make_one(index: int):
        rng = np.random.default_rng([int(rng_seed), index])
        severity = float(rng.uniform(*severity_range))
        score, transcript = generate_gestural_score(rng, vocab, severity,
                                                    n_words_range)
        tvs = render_tvs(score)
        clean = synthesize_speech_from_tvs(tvs, rng)
        labels = frame_labels(score, tvs.n_frames)
        kind = NOISE_KINDS[int(rng.integers(len(NOISE_KINDS)))]
        snr = float(rng.uniform(*snr_range))
        noise = generate_noise(kind, len(clean.samples), rng)
        noisy = mix_noise_at_snr(clean, noise, snr)
        split = _split_of(index, n_train, n_cv)
        base = f"utt{index:05d}"
        return (
            Utterance(base, split, clean, tvs, labels, transcript, base),
            Utterance(base + "n", split, noisy, tvs, labels, transcript, base,
                      snr_db=snr),
        )

    utterances = [utt for i in range(n_utts) for utt in make_one(i)]
    return ParallelCorpus(utterances, n_gesture_classes())


def corpus_digest(corpus: ParallelCorpus) -> str:
    """SHA-256 over all corpus content, for determinism checks."""
    h = hashlib.sha256()
    for utt in corpus.utterances:
        h.update(utt.utt_id.encode())
        h.update(utt.split.encode())
        h.update(np.round(utt.waveform.samples * 32768.0).astype("<i8").tobytes())
        h.update(utt.tvs.frames.astype("<f8").tobytes())
        h.update(utt.labels.astype("<i8").tobytes())
        h.update(" ".join(utt.transcript).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# On-disk layout: manifest.tsv + per-utterance wav / TV / label files
# ---------------------------------------------------------------------------

MANIFEST_NAME = "manifest.tsv"


def write_corpus(corpus: ParallelCorpus, out_dir) -> Path:
    """Write wav/TV/label files plus manifest; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = []
    for utt in corpus.utterances:
        wav_name = f"{utt.utt_id}.wav"
        tv_name = f"{utt.source_id}.tv.fmx"
        label_name = f"{utt.source_id}.labels"
        write_wav(out / wav_name, utt.waveform)
        if not utt.is_noisy:
            save_feature_matrix(out / tv_name, utt.tvs)
            with open(out / label_name, "w", encoding="utf-8") as fh:
                fh.write("\n".join(str(int(c)) for c in utt.labels) + "\n")
        lines.append("\t".join([utt.utt_id, utt.split, wav_name, tv_name,
                                label_name, " ".join(utt.transcript)]))
    manifest = out / MANIFEST_NAME
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(out / "classes.txt", "w", encoding="utf-8") as fh:
        fh.write("0\tsil\n")
        for unit in default_inventory():
            fh.write(f"{unit.class_id}\t{unit.name}\n")
    return manifest


def _read_targets(tv_path: Path, label_path: Path):
    """One utterance's TV trajectory and frame labels."""
    tvs = load_feature_matrix(tv_path)
    with open(label_path, "r", encoding="utf-8") as fh:
        try:
            labels = np.array([int(line) for line in fh if line.strip()],
                              dtype=np.int64)
        except (ValueError, OverflowError) as exc:
            raise FormatError(f"{label_path}: {exc}") from exc
    if not len(labels):
        raise FormatError(f"{label_path}: no labels")
    if labels.min() < 0 or labels.max() >= n_gesture_classes():
        raise FormatError(
            f"{label_path}: label outside [0, {n_gesture_classes()})")
    return tvs, labels


def _read_entry_wav(wav_path: Path, tvs: TVTrajectory, labels: np.ndarray,
                    tv_path: Path, label_path: Path) -> Waveform:
    """An entry's WAV, checked to be on the frame grid of its TVs and labels:
    DEFAULT_SAMPLE_RATE audio with one frame per TV row and per label."""
    wav = read_wav(wav_path)
    if wav.sample_rate != DEFAULT_SAMPLE_RATE:
        raise FormatError(f"{wav_path}: {wav.sample_rate} Hz, not the corpus "
                          f"rate of {DEFAULT_SAMPLE_RATE} Hz")
    try:
        t = frame_count(wav)
    except ValueError as exc:
        raise FormatError(f"{wav_path}: {exc}") from exc
    for path, n, what in ((tv_path, tvs.n_frames, "TV rows"),
                          (label_path, len(labels), "labels")):
        if n != t:
            raise FormatError(f"{path}: {n} {what} for the {t} frames "
                              f"of {wav_path}")
    return wav


def read_corpus(manifest_path, splits=SPLITS, noisy=None) -> ParallelCorpus:
    """Load the entries of a corpus written by write_corpus that a caller uses.

    The manifest is always read and checked whole: each row's field count,
    its split and the uniqueness of its id. Only the entries of `splits`
    are loaded, and with noisy=True or False only the noisy or the clean
    ones, as ParallelCorpus.split_utts selects them, in manifest order. The
    WAV, TV and label files of any other entry are never opened, so they
    cannot fail the load. FormatError for a manifest with no rows; a
    selection that matches no row gives a corpus with no utterances.

    Its classes are the gesture classes of the synthesizer, as in
    build_parallel_corpus; classes.txt is not read. FormatError naming the
    file unless each loaded entry's WAV is at DEFAULT_SAMPLE_RATE and its
    frame count, TV rows and labels agree.
    """
    manifest = Path(manifest_path)
    base = manifest.parent
    utterances = []
    try:
        with open(manifest, "r", encoding="utf-8") as fh:
            rows = [line.rstrip("\n") for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise FormatError(f"{manifest}: {exc}") from exc
    if not rows:
        raise FormatError(f"{manifest}: no utterances")
    # clean and noisy entries name the same TV and label files: load each
    # pair once and share it, as build_parallel_corpus does
    shared, seen = {}, set()
    for row in rows:
        parts = row.split("\t")
        if len(parts) != 6:
            raise FormatError(f"{manifest}: malformed manifest row: {row!r}")
        utt_id, split, wav_name, tv_name, label_name, transcript = parts
        if split not in SPLITS:
            raise FormatError(f"{manifest}: unknown split {split!r}")
        if utt_id in seen:
            raise FormatError(f"{manifest}: duplicate utterance id {utt_id!r}")
        seen.add(utt_id)
        source_id = Path(tv_name).name.split(".")[0]
        if split not in splits or (noisy is not None
                                   and (utt_id != source_id) != noisy):
            continue
        if (tv_name, label_name) not in shared:
            shared[tv_name, label_name] = _read_targets(base / tv_name,
                                                        base / label_name)
        tvs, labels = shared[tv_name, label_name]
        wav = _read_entry_wav(base / wav_name, tvs, labels, base / tv_name,
                              base / label_name)
        utterances.append(Utterance(utt_id, split, wav, tvs, labels,
                                    transcript.split(), source_id))
    return ParallelCorpus(utterances, n_gesture_classes())
