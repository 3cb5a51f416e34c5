"""Acoustic-model topologies: DNN, CNN, TFCNN, and the fused dual-stream fCNN.

All four consume spliced acoustic features laid out as (context, stream,
band) within each flat frame vector. The frequency-convolution stream views
that vector as 40 band positions x (streams * context) channels; the
time-convolution streams view it as context positions x per-frame channels.
The fCNN's time stream instead consumes spliced tract-variable trajectories.
Stream outputs are concatenated per frame (frequency maps first) and fed to
a shared dense stack ending in a softmax layer.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError
from .nn import (MAX_POOL_SIZE, Activation, Conv1d, Dense, MaxPool1d,
                 NetworkGraph, Softmax, Stream, check_activation)
from .synth import N_TVS

ACOUSTIC_INPUT = "acoustic"
TV_INPUT = "tv"

ARCH_KINDS = ("dnn", "cnn", "tfcnn", "fcnn")

# What a spec may ask for, so that `train` refuses a network or a batch that
# cannot fit before it allocates anything. Criterion 2's paper fCNN has about
# 26 M trainable values, and its frequency conv's im2col matrix holds 3.4 M
# floats per 256-frame batch: each bound is 5-20 times that, 512 MiB and
# 256 MiB of float32. Training holds several copies of each.
MAX_PARAMETERS = 2**27
MAX_BATCH_CONV_FLOATS = 2**26


@dataclass
class ArchSpec:
    """Configuration for one acoustic-model topology.

    The conv parameters follow the reference setup: 200 frequency filters of
    width 8 pooled by 3, and 75 time filters of width 5 pooled by 5. dnn/cnn/
    tfcnn consume acoustic features only; fcnn additionally needs the
    tract-variable layout for its time stream. n_feature_streams must be 3,
    the streams `pipeline.acoustic_frames` gives, and n_tvs must be N_TVS,
    the channels of every corpus TV trajectory. A spec whose network would
    have more than MAX_PARAMETERS trainable values is a ConfigError.
    """

    kind: str
    n_classes: int
    n_hidden_layers: int = 4
    hidden_width: int = 1024
    n_bands: int = 40
    n_feature_streams: int = 3
    context: int = 17
    n_tvs: int = 8
    tv_context: int = 17
    freq_filters: int = 200
    freq_filter_width: int = 8
    freq_pool: int = 3
    time_filters: int = 75
    time_filter_width: int = 5
    time_pool: int = 5
    hidden_activation: str = "sigmoid"

    def __post_init__(self):
        if self.kind not in ARCH_KINDS:
            raise ConfigError(f"unknown architecture kind {self.kind!r}")
        if self.n_classes < 2:
            raise ConfigError("n_classes must be at least 2")
        if self.n_hidden_layers < 0:
            raise ConfigError("n_hidden_layers must be non-negative")
        if self.n_feature_streams != 3:
            raise ConfigError(
                f"n_feature_streams={self.n_feature_streams} unsupported: the "
                "acoustic front end always gives 3 streams (log-mel, deltas, "
                "delta-deltas)")
        if self.n_tvs != N_TVS:
            raise ConfigError(
                f"n_tvs={self.n_tvs} unsupported: every TV trajectory has "
                f"{N_TVS} channels")
        for name in ("hidden_width", "n_bands", "context", "tv_context",
                     "freq_filters", "freq_filter_width", "freq_pool",
                     "time_filters", "time_filter_width", "time_pool"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        check_activation(self.hidden_activation)
        if self.n_parameters > MAX_PARAMETERS:
            raise ConfigError(
                f"the {self.kind} network would have {self.n_parameters:,} "
                f"parameters, more than MAX_PARAMETERS = {MAX_PARAMETERS:,}; "
                f"its size keys: {self._size_keys()}")

    def _size_keys(self) -> str:
        return ", ".join(f"{name}={getattr(self, name)}" for name in (
            "n_hidden_layers", "hidden_width", "n_classes", "n_bands",
            "context", "tv_context", "freq_filters", "freq_filter_width",
            "freq_pool", "time_filters", "time_filter_width", "time_pool"))

    def _convs(self) -> list:
        """(positions, channels, filters, width, pool) of each convolution
        that build_network gives this spec, frequency conv first."""
        freq = (self.n_bands, self.n_feature_streams * self.context,
                self.freq_filters, self.freq_filter_width, self.freq_pool)
        time_input = {"tfcnn": (self.context,
                                self.n_feature_streams * self.n_bands),
                      "fcnn": (self.tv_context, self.n_tvs)}
        if self.kind == "dnn":
            return []
        if self.kind == "cnn":
            return [freq]
        return [freq, (*time_input[self.kind], self.time_filters,
                       self.time_filter_width, self.time_pool)]

    @property
    def n_parameters(self) -> int:
        """Trainable values of build_network(self), in closed form."""
        total, d = 0, self.acoustic_dim if self.kind == "dnn" else 0
        for positions, channels, filters, width, pool in self._convs():
            total += width * channels * filters + filters
            d += max(0, positions - width + 1) // pool * filters
        if self.n_hidden_layers:
            h = self.hidden_width
            total += d * h + h + (self.n_hidden_layers - 1) * (h * h + h)
            d = h
        return total + d * self.n_classes + self.n_classes

    def check_buildable(self, batch_size: int) -> None:
        """ConfigError unless build_network can build this spec and one
        training batch's im2col matrix, the input a convolution copies out
        and keeps for its backward, holds at most MAX_BATCH_CONV_FLOATS
        floats. (Datasets need neither, so the spec itself does not check.)"""
        for positions, channels, _, width, pool in self._convs():
            if width > positions or pool > min(positions - width + 1,
                                               MAX_POOL_SIZE):
                raise ConfigError(
                    f"a conv of width {width} pooled by {pool} does not fit "
                    f"its {positions} positions (pools are at most "
                    f"{MAX_POOL_SIZE}); its size keys: {self._size_keys()}")
            floats = batch_size * (positions - width + 1) * width * channels
            if floats > MAX_BATCH_CONV_FLOATS:
                raise ConfigError(
                    f"one batch of the {self.kind} network's convolution "
                    f"input would hold {floats:,} floats, more than "
                    f"MAX_BATCH_CONV_FLOATS = {MAX_BATCH_CONV_FLOATS:,}; "
                    f"batch_size={batch_size}, {self._size_keys()}")

    @property
    def acoustic_dim(self) -> int:
        return self.n_bands * self.n_feature_streams * self.context

    @property
    def tv_dim(self) -> int:
        return self.n_tvs * self.tv_context


def _dense_stack(rng, in_dim: int, spec: ArchSpec, dtype):
    layers = []
    d = in_dim
    for _ in range(spec.n_hidden_layers):
        layers.append(Dense(d, spec.hidden_width, rng, dtype))
        layers.append(Activation(spec.hidden_activation))
        d = spec.hidden_width
    layers.append(Dense(d, spec.n_classes, rng, dtype))
    layers.append(Softmax())
    return layers


def _freq_conv_stream(rng, spec: ArchSpec, dtype) -> Stream:
    channels = spec.n_feature_streams * spec.context
    conv = Conv1d("frequency", spec.freq_filters, spec.freq_filter_width,
                  channels, spec.n_bands,
                  view_shape=(spec.context, spec.n_feature_streams, spec.n_bands),
                  view_perm=(2, 0, 1), rng=rng, dtype=dtype)
    pool = MaxPool1d(spec.freq_pool, conv.out_positions, spec.freq_filters)
    return Stream(ACOUSTIC_INPUT, spec.acoustic_dim,
                  [conv, Activation(spec.hidden_activation), pool])


def _time_conv_stream(rng, spec: ArchSpec, input_name: str, n_positions: int,
                      n_channels: int, dtype) -> Stream:
    conv = Conv1d("time", spec.time_filters, spec.time_filter_width,
                  n_channels, n_positions, rng=rng, dtype=dtype)
    pool = MaxPool1d(spec.time_pool, conv.out_positions, spec.time_filters)
    return Stream(input_name, n_positions * n_channels,
                  [conv, Activation(spec.hidden_activation), pool])


# Input streams per kind, built (and drawing from the RNG) in list order:
# the frequency stream before the time stream. The dnn's one stream has no
# layers; the tfcnn's time stream reads the acoustic input, the fcnn's the TVs.
_STREAMS = {
    "dnn": lambda rng, spec, dtype: [
        Stream(ACOUSTIC_INPUT, spec.acoustic_dim, [])],
    "cnn": lambda rng, spec, dtype: [_freq_conv_stream(rng, spec, dtype)],
    "tfcnn": lambda rng, spec, dtype: [
        _freq_conv_stream(rng, spec, dtype),
        _time_conv_stream(rng, spec, ACOUSTIC_INPUT, spec.context,
                          spec.n_feature_streams * spec.n_bands, dtype)],
    "fcnn": lambda rng, spec, dtype: [
        _freq_conv_stream(rng, spec, dtype),
        _time_conv_stream(rng, spec, TV_INPUT, spec.tv_context, spec.n_tvs,
                          dtype)],
}


def build_network(spec: ArchSpec, seed: int = 0, dtype=np.float32) -> NetworkGraph:
    """The spec's input streams, concatenated per frame into the dense stack.

    The stack draws its weights after the streams. A dnn with
    n_hidden_layers=0 is multinomial logistic regression; an fcnn's forward
    requires both "acoustic" and "tv" inputs.
    """
    rng = np.random.default_rng(seed)
    streams = _STREAMS[spec.kind](rng, spec, dtype)
    fused = sum(s.layers[-1].out_dim(None) if s.layers else s.input_dim
                for s in streams)
    return NetworkGraph(streams, _dense_stack(rng, fused, spec, dtype), dtype)


# ---------------------------------------------------------------------------
# Line-oriented key=value configuration files
# ---------------------------------------------------------------------------

def parse_kv_config(path) -> dict:
    """Parse a key=value config file; '#' starts a comment, blanks ignored."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            key = key.strip()
            if not key:
                raise ConfigError(f"{path}:{lineno}: empty key")
            if key in out:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = value.strip()
    return out


def arch_spec_from_config(mapping: dict) -> ArchSpec:
    """Build an ArchSpec from string key=value pairs; unknown keys are errors."""
    spec_fields = {f.name: f.type for f in fields(ArchSpec)}
    unknown = sorted(set(mapping) - set(spec_fields))
    if unknown:
        raise ConfigError(f"unknown architecture config keys: {unknown}")
    kwargs = {}
    for key, value in mapping.items():
        if key in ("kind", "hidden_activation"):
            kwargs[key] = value
        else:
            try:
                kwargs[key] = int(value)
            except ValueError as exc:
                raise ConfigError(f"config key {key}={value!r}: not an integer") from exc
    if "kind" not in kwargs or "n_classes" not in kwargs:
        raise ConfigError("architecture config requires kind and n_classes")
    return ArchSpec(**kwargs)
