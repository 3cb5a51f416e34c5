"""Acoustic-model topologies: DNN, CNN, TFCNN, and the fused dual-stream fCNN.

Every network, the speech-inversion CNN too, is one recipe: `ConvStream`s
(conv, activation, max pool) concatenated per frame into a `dense_stack`.
`ArchSpec._convs` lists a spec's streams, which `build_network` builds and
`ArchSpec` sizes in closed form. The frequency stream views the spliced
(context, stream, band) acoustic frame as 40 bands x (streams * context)
channels, the tfcnn's time stream as context positions x per-frame channels;
the fCNN's time stream reads spliced TVs, and a dnn has no conv stream.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

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


class ConvStream(NamedTuple):
    """Conv (`filters` of `width`), activation and max pool (by `pool`)
    over the input `input_name`, read as `positions` x `channels` per frame
    (after `view_shape` and `view_perm`, if given; see `Conv1d`)."""

    input_name: str
    axis: str
    positions: int
    channels: int
    filters: int
    width: int
    pool: int
    view_shape: tuple | None = None
    view_perm: tuple | None = None

    @property
    def out_dim(self) -> int:
        return max(0, self.positions - self.width + 1) // self.pool * self.filters

    def build(self, rng, activation: str, dtype) -> Stream:
        conv = Conv1d(self.axis, self.filters, self.width, self.channels,
                      self.positions, view_shape=self.view_shape,
                      view_perm=self.view_perm, rng=rng, dtype=dtype)
        pool = MaxPool1d(self.pool, conv.out_positions, self.filters)
        return Stream(self.input_name, self.positions * self.channels,
                      [conv, Activation(activation), pool])


def dense_stack(rng, in_dim: int, n_hidden: int, width: int, activation: str,
                n_out: int, dtype) -> list:
    """n_hidden dense layers of `width` units, each followed by the
    activation, then a dense layer to n_out; weights drawn in layer order."""
    layers, d = [], in_dim
    for _ in range(n_hidden):
        layers += [Dense(d, width, rng, dtype), Activation(activation)]
        d = width
    return layers + [Dense(d, n_out, rng, dtype)]


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
        """This spec's ConvStreams in build order: the frequency stream, then
        a tfcnn's or fcnn's time stream."""
        freq = ConvStream(
            ACOUSTIC_INPUT, "frequency", self.n_bands,
            self.n_feature_streams * self.context, self.freq_filters,
            self.freq_filter_width, self.freq_pool,
            (self.context, self.n_feature_streams, self.n_bands), (2, 0, 1))
        time_input = {"tfcnn": (ACOUSTIC_INPUT, self.context,
                                self.n_feature_streams * self.n_bands),
                      "fcnn": (TV_INPUT, self.tv_context, self.n_tvs)}
        if self.kind not in time_input:
            return [freq] if self.kind == "cnn" else []
        name, positions, channels = time_input[self.kind]
        return [freq, ConvStream(name, "time", positions, channels,
                                 self.time_filters, self.time_filter_width,
                                 self.time_pool)]

    @property
    def fused_dim(self) -> int:
        """Width of the per-frame vector that enters the dense stack."""
        convs = self._convs()
        return sum(c.out_dim for c in convs) if convs else self.acoustic_dim

    @property
    def n_parameters(self) -> int:
        """Trainable values of build_network(self), in closed form."""
        total = sum(c.width * c.channels * c.filters + c.filters
                    for c in self._convs())
        d = self.fused_dim
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
        for c in self._convs():
            out = c.positions - c.width + 1
            if out < 1 or c.pool > min(out, MAX_POOL_SIZE):
                raise ConfigError(
                    f"a conv of width {c.width} pooled by {c.pool} does not "
                    f"fit its {c.positions} positions (pools are at most "
                    f"{MAX_POOL_SIZE}); its size keys: {self._size_keys()}")
            floats = batch_size * out * c.width * c.channels
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


def build_network(spec: ArchSpec, seed: int = 0, dtype=np.float32) -> NetworkGraph:
    """The spec's ConvStreams (a dnn's one stream passes the acoustic input
    through), then its dense stack and a softmax, drawing weights in that
    order. A dnn with n_hidden_layers=0 is multinomial logistic regression;
    an fcnn's forward requires both "acoustic" and "tv" inputs."""
    rng = np.random.default_rng(seed)
    streams = [c.build(rng, spec.hidden_activation, dtype)
               for c in spec._convs()]
    trunk = dense_stack(rng, spec.fused_dim, spec.n_hidden_layers,
                        spec.hidden_width, spec.hidden_activation,
                        spec.n_classes, dtype)
    return NetworkGraph(streams or [Stream(ACOUSTIC_INPUT, spec.acoustic_dim, [])],
                        trunk + [Softmax()], dtype)


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
