"""CNN speech inversion: spliced modulation features -> tract variables.

The inversion network convolves across the coefficient axis of spliced
subband-AM features (200 filters of width 8, max-pooled by 3 at full scale),
followed by three dense layers and a linear 8-unit output trained with mean
squared error. Input features are Z-normalized with statistics frozen from
the training split; those statistics, the coefficient count and the splice
travel with the network so that `invert` reproduces the exact front end.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .architectures import ACOUSTIC_INPUT, ConvStream, dense_stack
from .audio import DEFAULT_SAMPLE_RATE, Waveform
from .corpus import ParallelCorpus
from .errors import FormatError
from .features import (NormStats, SpliceSpec, nmc_map, norm_stats,
                       norm_stats_to_bytes, read_norm_stats)
from .nn import (NetworkGraph, check_activation, forward, network_from_bytes,
                 network_to_bytes)
from .records import Reader, read_file
from .synth import N_TVS, TVTrajectory
from .training import (FrameDataset, TrainConfig, run_training,
                       stack_utterances, utterance_dataset)

_STATS_MAGIC = b"IST1"


@dataclass
class InversionConfig:
    n_coeffs: int = 40
    splice: SpliceSpec = field(default_factory=SpliceSpec)
    n_filters: int = 200
    filter_width: int = 8
    pool: int = 3
    n_dense: int = 3
    dense_width: int = 2048
    activation: str = "sigmoid"
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        check_activation(self.activation)

    @classmethod
    def toy(cls, **overrides) -> "InversionConfig":
        """Scaled-down profile: 16 conv filters, 128-wide dense layers.

        Uses ReLU hidden units; at this scale plain SGD trains them far
        faster than the full-size default's sigmoids.
        """
        defaults = dict(n_filters=16, dense_width=128, activation="relu")
        defaults.update(overrides)
        return cls(**defaults)


@dataclass
class InversionModel:
    """Trained inversion network plus the front end it was trained on."""

    net: NetworkGraph
    stats: NormStats
    n_coeffs: int
    splice: SpliceSpec


def build_inversion_net(cfg: InversionConfig, seed: int = 0,
                        dtype=np.float32) -> NetworkGraph:
    """The frequency-conv recipe of the acoustic models on the spliced NMC
    frames, into a dense stack with a linear N_TVS-unit output."""
    rng = np.random.default_rng(seed)
    width = cfg.splice.width
    conv = ConvStream(ACOUSTIC_INPUT, "frequency", cfg.n_coeffs, width,
                      cfg.n_filters, cfg.filter_width, cfg.pool,
                      (width, cfg.n_coeffs), (1, 0))
    stream = conv.build(rng, cfg.activation, dtype)
    return NetworkGraph([stream], dense_stack(
        rng, conv.out_dim, cfg.n_dense, cfg.dense_width, cfg.activation,
        N_TVS, dtype), dtype)


def inversion_dataset(corpus: ParallelCorpus, split: str,
                      cfg: InversionConfig, stats: NormStats) -> FrameDataset:
    utts = corpus.split_utts(split)
    return _inversion_dataset(utts, nmc_map([u.waveform for u in utts],
                                            cfg.n_coeffs), cfg, stats)


def _inversion_dataset(utts, feats: list, cfg: InversionConfig,
                       stats: NormStats) -> FrameDataset:
    """inversion_dataset given each utterance's unnormalized NMC frames."""
    return utterance_dataset(
        {"acoustic": lambda u: (feats[u] - stats.mean) / stats.std},
        {"acoustic": cfg.splice},
        [u.tvs.frames.astype(np.float32) for u in utts])


def train_inversion_model(corpus: ParallelCorpus, cfg: InversionConfig):
    """Train the inversion CNN on the corpus train split (clean + noisy).

    Returns (InversionModel, TrainResult). The Z-normalization statistics
    are estimated on the training split only and frozen into the model.
    ConfigError if the train or the cv split is empty.
    """
    train_utts, _ = corpus.training_splits()
    train_feats = nmc_map([u.waveform for u in train_utts], cfg.n_coeffs)
    stats = norm_stats(train_feats)
    train_set = _inversion_dataset(train_utts, train_feats, cfg, stats)
    del train_feats  # the dataset holds its own copy; free it before training
    cv_set = inversion_dataset(corpus, "cv", cfg, stats)

    net = build_inversion_net(cfg, seed=cfg.train.rng_seed)
    result = run_training(net, train_set, cv_set, cfg.train)
    return InversionModel(result.best_net, stats, cfg.n_coeffs, cfg.splice), result


def inversion_features(model: InversionModel, waveforms: list) -> list:
    """The unnormalized NMC frames `model` reads, for each waveform.

    Every waveform's sample rate is checked first; the NMC runs on parallel
    threads (`nmc_map`). Compute all of them before the first forward:
    forwards beside NMC threads would compete for the CPUs with BLAS's
    threads, which keep spinning after each product.
    """
    for audio in waveforms:
        if audio.sample_rate != DEFAULT_SAMPLE_RATE:
            raise ValueError(
                f"{audio.sample_rate} Hz input unsupported (expected "
                f"{DEFAULT_SAMPLE_RATE}; resampling is out of scope)")
    return nmc_map(waveforms, model.n_coeffs)


def tvs_from_features(model: InversionModel,
                      feats: np.ndarray) -> TVTrajectory:
    """Predict tract variables from one utterance's inversion_features."""
    frames, indices = stack_utterances(
        lambda _: (feats - model.stats.mean) / model.stats.std, [len(feats)],
        model.splice)
    spliced = frames[indices].reshape(len(feats), -1)
    pred = forward(model.net, {"acoustic": spliced}, mode="eval")
    return TVTrajectory(np.clip(pred.astype(np.float64), 0.0, 1.0))


def invert(model: InversionModel, audio: Waveform) -> TVTrajectory:
    """Predict tract variables for one utterance, clamped to [0, 1]."""
    (feats,) = inversion_features(model, [audio])
    return tvs_from_features(model, feats)


def pearson_per_tv(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Pearson correlation per TV channel; 0 where either side is constant."""
    out = np.zeros(pred.shape[1])
    for c in range(pred.shape[1]):
        a = pred[:, c] - pred[:, c].mean()
        b = truth[:, c] - truth[:, c].mean()
        denom = np.sqrt(np.sum(a * a) * np.sum(b * b))
        if denom > 0:
            out[c] = float(np.sum(a * b) / denom)
    return out


# ---------------------------------------------------------------------------
# Model files: network record + frozen-stats record
# ---------------------------------------------------------------------------

def save_inversion_model(path, model: InversionModel) -> None:
    stats_rec = b"".join([
        _STATS_MAGIC,
        struct.pack("<IIII", model.n_coeffs, model.splice.left,
                    model.splice.right, len(model.stats.mean)),
        norm_stats_to_bytes(model.stats),
    ])
    with open(path, "wb") as fh:
        fh.write(network_to_bytes(model.net))
        fh.write(stats_rec)


def _parse_inversion_model(r: Reader) -> InversionModel:
    net = network_from_bytes(r)
    r.magic(_STATS_MAGIC)
    n_coeffs, left, right, d = r.take("<IIII")
    splice = SpliceSpec(left, right)
    found = (net.input_dims(), net.output_dim(), d)
    if found != ({"acoustic": n_coeffs * splice.width}, N_TVS, n_coeffs):
        raise FormatError(f"network inputs, output width and stats width "
                          f"{found} do not match {n_coeffs} coefficients")
    return InversionModel(net, read_norm_stats(r, d), n_coeffs, splice)


def load_inversion_model(path) -> InversionModel:
    return read_file(path, _parse_inversion_model)
