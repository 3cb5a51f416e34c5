"""End-to-end glue: corpora to feature datasets, trained models, reports.

Acoustic models consume 40-band log-mel features with deltas and
delta-deltas (120 per frame), Z-normalized with training-split statistics
and spliced over 17 frames at batch time. The fCNN additionally consumes
spliced tract variables, either ground truth from the corpus or predictions
from an inversion model. Feature frame counts are reconciled with the TV
frame count by truncation to the shorter.
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
from .features import (FeatureLayout, FeatureMatrix, NormStats, SpliceSpec,
                       append_deltas, logmel_filterbank, z_normalize)
from .inversion import InversionModel, invert
from .nn import NetworkGraph, forward, network_from_bytes, network_to_bytes
from .records import Reader, read_file
from .synth import default_inventory
from .training import (FrameDataset, TrainConfig, TrainResult, TrainState,
                       run_training, stack_utterances, train_state_from_bytes,
                       train_state_to_bytes)

TV_SOURCES = ("ground-truth", "inverted")


def acoustic_frames(utt: Utterance, n_bands: int = 40) -> np.ndarray:
    """Unspliced log-mel + deltas + delta-deltas, shape (T, 3 * n_bands)."""
    return append_deltas(logmel_filterbank(utt.waveform, n_bands)).frames


def acoustic_norm_stats(corpus: ParallelCorpus, n_bands: int = 40) -> NormStats:
    """Z-normalization statistics over the training split's acoustic frames."""
    return _norm_stats(corpus, [acoustic_frames(u, n_bands)
                                for u in corpus.split_utts("train")], n_bands)


def _norm_stats(corpus: ParallelCorpus, frames: list, n_bands: int) -> NormStats:
    _, stats = z_normalize(
        FeatureMatrix(np.concatenate(frames, axis=0), corpus.frame_shift,
                      FeatureLayout(n_bands, 3)), None)
    return stats


def _tv_frames(utt: Utterance, tv_source: str,
               inversion_model: InversionModel | None) -> np.ndarray:
    if tv_source == "ground-truth":
        return utt.tvs.frames
    if tv_source == "inverted":
        if inversion_model is None:
            raise ConfigError("tv_source=inverted requires an inversion model")
        return invert(inversion_model, utt.waveform).frames
    raise ConfigError(f"unknown tv source {tv_source!r}")


def make_acoustic_dataset(corpus: ParallelCorpus, utts, spec: ArchSpec,
                          stats: NormStats, tv_source: str = "ground-truth",
                          inversion_model: InversionModel | None = None
                          ) -> FrameDataset:
    """Frame dataset over `utts` for one architecture.

    Always provides the "acoustic" stream; adds the "tv" stream for fcnn.
    """
    frames = [acoustic_frames(u, spec.n_bands) for u in utts]
    return _acoustic_dataset(utts, frames, spec, stats, tv_source,
                             inversion_model)


def _acoustic_dataset(utts, frames: list, spec: ArchSpec, stats: NormStats,
                      tv_source: str, inversion_model: InversionModel | None
                      ) -> FrameDataset:
    """make_acoustic_dataset given each utterance's acoustic_frames."""
    splice = SpliceSpec((spec.context - 1) // 2, spec.context // 2)
    feats, tvs, labels = [], [], []
    for utt, frames_u in zip(utts, frames):
        f = (frames_u - stats.mean) / stats.std
        t = min(f.shape[0], utt.tvs.n_frames, len(utt.labels))
        feats.append(f[:t])
        labels.append(utt.labels[:t])
        if spec.kind == "fcnn":
            tvs.append(_tv_frames(utt, tv_source, inversion_model)[:t])
    streams = {"acoustic": stack_utterances(feats, splice)}
    if spec.kind == "fcnn":
        tv_splice = SpliceSpec((spec.tv_context - 1) // 2, spec.tv_context // 2)
        streams["tv"] = stack_utterances(tvs, tv_splice)
    return FrameDataset(streams, np.concatenate(labels, axis=0))


def train_acoustic_model(corpus: ParallelCorpus, spec: ArchSpec,
                         cfg: TrainConfig, tv_source: str = "ground-truth",
                         inversion_model: InversionModel | None = None,
                         checkpoint_path=None, on_epoch=None):
    """Train one acoustic model; returns (TrainResult, NormStats)."""
    train_utts = corpus.split_utts("train")
    train_frames = [acoustic_frames(u, spec.n_bands) for u in train_utts]
    stats = _norm_stats(corpus, train_frames, spec.n_bands)
    train_set = _acoustic_dataset(train_utts, train_frames, spec, stats,
                                  tv_source, inversion_model)
    del train_frames  # the dataset holds its own copy; free it before training
    cv_set = make_acoustic_dataset(corpus, corpus.split_utts("cv"),
                                   spec, stats, tv_source, inversion_model)
    net = build_network(spec, seed=cfg.rng_seed)
    result = run_training(net, train_set, cv_set, cfg, loss="ce",
                          cv_metric="frame_error",
                          checkpoint_path=checkpoint_path, on_epoch=on_epoch)
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
                            spec: ArchSpec, stats: NormStats,
                            tv_source: str = "ground-truth",
                            inversion_model: InversionModel | None = None
                            ) -> EvalReport:
    """Frame accuracy plus token error rate over the given utterances."""
    tokens = class_token_map(corpus.n_classes)
    reports = []
    correct = total = 0
    for utt in utts:
        dataset = make_acoustic_dataset(corpus, [utt], spec, stats,
                                        tv_source, inversion_model)
        inputs, labels = dataset.gather(np.arange(len(dataset)))
        posteriors = forward(net, inputs, mode="eval")
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


def features_label(kind: str) -> str:
    return "FB + TV" if kind == "fcnn" else "FB"


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
        fh.write(bundle.stats.mean.astype("<f8").tobytes())
        fh.write(bundle.stats.std.astype("<f8").tobytes())


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
    mean, std = r.array("<f8", (2, d)).copy()
    return AcousticModelBundle(net, state, spec, NormStats(mean, std), tv_source)


def load_acoustic_bundle(path) -> AcousticModelBundle:
    return read_file(path, _parse_acoustic_bundle)
