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

from .audio import Waveform, mix_noise_at_snr, read_wav, write_wav
from .errors import ConfigError, FormatError
from .features import load_feature_matrix, save_feature_matrix
from .synth import (NOISE_KINDS, TVTrajectory, default_inventory,
                    default_vocabulary, frame_labels, generate_gestural_score,
                    generate_noise, n_gesture_classes, render_tvs,
                    synthesize_speech_from_tvs)

SPLITS = ("train", "cv", "test")


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


def build_parallel_corpus(n_utts: int, vocab=None, severity_range=(0.0, 0.0),
                          noise_bank=NOISE_KINDS, snr_range=(10.0, 80.0),
                          rng_seed=0, n_words_range=(1, 2)) -> ParallelCorpus:
    """Generate n_utts clean utterances plus one noisy copy of each."""
    if n_utts < 10:
        raise ConfigError(f"corpus needs at least 10 utterances, got {n_utts}")
    if not noise_bank:
        raise ConfigError("noise bank is empty")
    if vocab is None:
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
        kind = noise_bank[int(rng.integers(len(noise_bank)))]
        snr = float(rng.uniform(*snr_range))
        noise = generate_noise(kind, len(clean.samples), rng, clean.sample_rate)
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
CLASSES_NAME = "classes.txt"


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
    with open(out / CLASSES_NAME, "w", encoding="utf-8") as fh:
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
        except ValueError as exc:
            raise FormatError(f"{label_path}: {exc}") from exc
    if not len(labels):
        raise FormatError(f"{label_path}: no labels")
    return tvs, labels


def read_corpus(manifest_path) -> ParallelCorpus:
    """Load a corpus written by write_corpus back into memory."""
    manifest = Path(manifest_path)
    base = manifest.parent
    utterances = []
    with open(manifest, "r", encoding="utf-8") as fh:
        rows = [line.rstrip("\n") for line in fh if line.strip()]
    # clean and noisy entries name the same TV and label files: load each
    # pair once and share it, as build_parallel_corpus does
    shared = {}
    for row in rows:
        parts = row.split("\t")
        if len(parts) != 6:
            raise FormatError(f"{manifest}: malformed manifest row: {row!r}")
        utt_id, split, wav_name, tv_name, label_name, transcript = parts
        if split not in SPLITS:
            raise FormatError(f"{manifest}: unknown split {split!r}")
        wav = read_wav(base / wav_name)
        if (tv_name, label_name) not in shared:
            shared[tv_name, label_name] = _read_targets(base / tv_name,
                                                        base / label_name)
        tvs, labels = shared[tv_name, label_name]
        source_id = Path(tv_name).name.split(".")[0]
        utterances.append(Utterance(utt_id, split, wav, tvs, labels,
                                    transcript.split(), source_id))
    if not utterances:
        raise FormatError(f"{manifest}: no utterances")
    n_classes = max(int(u.labels.max()) for u in utterances) + 1
    classes_file = base / CLASSES_NAME
    if classes_file.exists():
        with open(classes_file, "r", encoding="utf-8") as fh:
            n_classes = max(n_classes, sum(1 for line in fh if line.strip()))
    return ParallelCorpus(utterances, n_classes)
