"""End-to-end glue: corpora to feature datasets, trained models, reports.

Acoustic models consume 40-band log-mel features with deltas and
delta-deltas (120 per frame), Z-normalized with training-split statistics
and spliced over 17 frames at batch time. The fCNN additionally consumes
spliced tract variables, always read from each utterance's `tvs`: ground
truth as loaded from the corpus, or inverted TVs that the caller put there
(the CLI's `--tv-source inverted` does so, from an inversion model or from
`<id>.inv.fmx` files). Every array a dataset reads of an utterance
(acoustic frames, labels and, for the fCNN, TVs) has one row per label on
the 10 ms frame grid, or building the dataset raises ShapeError.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields as dataclass_fields, replace

import numpy as np

from .architectures import ArchSpec, arch_spec_from_config, build_network
from .corpus import ParallelCorpus, Utterance
from .errors import ConfigError, FormatError
from .evaluate import (WerReport, collapse_labels, combine_reports,
                       greedy_decode, levenshtein_wer)
from .features import (NormStats, SpliceSpec, append_deltas,
                       logmel_filterbank, norm_stats, norm_stats_to_bytes,
                       read_norm_stats)
from .nn import NetworkGraph, network_from_bytes, network_to_bytes
from .records import Reader, read_file
from .synth import default_inventory
from .training import (FrameDataset, TrainConfig, TrainState, predict_dataset,
                       run_training, train_state_from_bytes,
                       train_state_to_bytes, utterance_dataset)

TV_SOURCES = ("ground-truth", "inverted")


def acoustic_frames(utt: Utterance, n_bands: int = 40) -> np.ndarray:
    """Unspliced log-mel + deltas + delta-deltas, shape (T, 3 * n_bands)."""
    return append_deltas(logmel_filterbank(utt.waveform, n_bands))


def acoustic_norm_stats(corpus: ParallelCorpus, n_bands: int = 40) -> NormStats:
    """Z-normalization statistics over the training split's acoustic frames."""
    return norm_stats([acoustic_frames(u, n_bands)
                       for u in corpus.split_utts("train")])


def make_acoustic_dataset(corpus: ParallelCorpus, utts, spec: ArchSpec,
                          stats: NormStats) -> FrameDataset:
    """Frame dataset over `utts` for one architecture.

    Always provides the "acoustic" stream; adds the "tv" stream, spliced
    from each utterance's `tvs`, for fcnn. Each utterance's acoustic_frames
    are computed as the dataset is written, so one at a time is held.
    """
    return _acoustic_dataset(
        utts, lambda u: acoustic_frames(utts[u], spec.n_bands), spec, stats)


def _acoustic_dataset(utts, frames, spec: ArchSpec,
                      stats: NormStats) -> FrameDataset:
    """make_acoustic_dataset given `frames(u)`, utterance u's acoustic_frames."""
    streams = {"acoustic": lambda u: (frames(u) - stats.mean) / stats.std}
    splices = {"acoustic": SpliceSpec((spec.context - 1) // 2, spec.context // 2)}
    if spec.kind == "fcnn":
        streams["tv"] = lambda u: utts[u].tvs.frames
        splices["tv"] = SpliceSpec((spec.tv_context - 1) // 2, spec.tv_context // 2)
    return utterance_dataset(streams, splices, [u.labels for u in utts])


def train_acoustic_model(corpus: ParallelCorpus, spec: ArchSpec,
                         cfg: TrainConfig, on_epoch=None):
    """Train one acoustic model; returns (TrainResult, NormStats).

    The train split's acoustic_frames are computed once, for both the
    statistics and the training set. ConfigError if the train or the cv
    split is empty.
    """
    train_utts, cv_utts = corpus.training_splits()
    train_frames = [acoustic_frames(u, spec.n_bands) for u in train_utts]
    stats = norm_stats(train_frames)
    train_set = _acoustic_dataset(train_utts, train_frames.__getitem__, spec,
                                  stats)
    del train_frames  # the dataset holds its own copy; free it before training
    cv_set = make_acoustic_dataset(corpus, cv_utts, spec, stats)
    net = build_network(spec, seed=cfg.rng_seed)
    result = run_training(net, train_set, cv_set, cfg, on_epoch=on_epoch)
    return result, stats


def class_token_map(n_classes: int) -> dict:
    """Class id -> token name; silence is class 0, units keep their names."""
    tokens = {0: "sil"}
    for unit in default_inventory():
        tokens[unit.class_id] = unit.name
    for c in range(n_classes):
        tokens.setdefault(c, f"c{c:02d}")
    return tokens


@dataclass
class EvalReport:
    frame_accuracy: float
    wer: WerReport
    n_utterances: int
    n_frames: int


def evaluate_acoustic_model(net: NetworkGraph, corpus: ParallelCorpus, utts,
                            spec: ArchSpec, stats: NormStats) -> EvalReport:
    """Frame accuracy plus token error rate over the given utterances."""
    tokens = class_token_map(corpus.n_classes)
    reports = []
    correct = total = 0
    for utt in utts:
        dataset = make_acoustic_dataset(corpus, [utt], spec, stats)
        posteriors = predict_dataset(net, dataset)
        labels = dataset.targets
        predicted = posteriors.argmax(axis=1)
        correct += int(np.sum(predicted == labels))
        total += len(labels)
        ref = collapse_labels(labels, tokens)
        hyp = greedy_decode(posteriors.astype(np.float64) /
                            posteriors.sum(axis=1, keepdims=True), tokens)
        if ref:
            reports.append(levenshtein_wer(ref, hyp))
    wer = combine_reports(reports)
    return EvalReport(correct / total, wer, len(utts), total)


# Width divisors applied by scale=toy (full-size values stay untouched by
# scale=paper): hidden 1024->64 and 2048->128, conv filters 200->16, time
# filters 75->8.
TOY_DIVISORS = {"hidden_width": 16.0, "freq_filters": 12.5,
                "time_filters": 9.375}


def scale_arch_spec(spec: ArchSpec, scale: str) -> ArchSpec:
    """Apply the toy divisor table, or return the spec unchanged for paper."""
    if scale == "paper":
        return spec
    if scale != "toy":
        raise ConfigError(f"unknown scale {scale!r} (toy or paper)")
    kwargs = {}
    for name, divisor in TOY_DIVISORS.items():
        kwargs[name] = max(1, int(round(getattr(spec, name) / divisor)))
    return replace(spec, **kwargs)


def features_label(kind: str, tv_source: str) -> str:
    if kind != "fcnn":
        return "FB"
    return "FB + TV" if tv_source == "inverted" else "FB + TV (ground truth)"


# ---------------------------------------------------------------------------
# Acoustic model bundles: network + train state + arch meta + feature stats
# ---------------------------------------------------------------------------

_META_MAGIC = b"AMB1"
_ASTATS_MAGIC = b"AST1"


@dataclass
class AcousticModelBundle:
    net: NetworkGraph
    state: TrainState
    spec: ArchSpec
    stats: NormStats
    tv_source: str


def save_acoustic_bundle(path, bundle: AcousticModelBundle) -> None:
    meta_lines = [f"tv_source={bundle.tv_source}"]
    for f in dataclass_fields(ArchSpec):
        meta_lines.append(f"{f.name}={getattr(bundle.spec, f.name)}")
    meta = "\n".join(meta_lines).encode("utf-8")
    d = len(bundle.stats.mean)
    with open(path, "wb") as fh:
        fh.write(network_to_bytes(bundle.net))
        fh.write(train_state_to_bytes(bundle.state))
        fh.write(_META_MAGIC + struct.pack("<I", len(meta)) + meta)
        fh.write(_ASTATS_MAGIC + struct.pack("<I", d))
        fh.write(norm_stats_to_bytes(bundle.stats))


def _parse_acoustic_bundle(r: Reader) -> AcousticModelBundle:
    net = network_from_bytes(r)
    state = train_state_from_bytes(r)
    r.magic(_META_MAGIC)
    mapping = dict(line.split("=", 1)
                   for line in r.text("<I").splitlines() if line)
    tv_source = mapping.pop("tv_source", None)
    if tv_source not in TV_SOURCES:
        raise FormatError(f"unknown tv_source {tv_source!r}")
    spec = arch_spec_from_config(mapping)
    r.magic(_ASTATS_MAGIC)
    (d,) = r.take("<I")
    inputs = {"acoustic": spec.acoustic_dim}
    if spec.kind == "fcnn":
        inputs["tv"] = spec.tv_dim
    found = (net.input_dims(), net.output_dim(), d)
    if found != (inputs, spec.n_classes, spec.n_bands * spec.n_feature_streams):
        raise FormatError(f"network inputs, output width and stats width "
                          f"{found} do not match the {spec.kind} spec")
    return AcousticModelBundle(net, state, spec, read_norm_stats(r, d), tv_source)


def load_acoustic_bundle(path) -> AcousticModelBundle:
    return read_file(path, _parse_acoustic_bundle)
