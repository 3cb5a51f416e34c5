"""Outside-in instrumentation of tvasr: spans around calls into its modules.

Nothing here edits the program. `Spans.install` replaces a public function
with a timing wrapper in every tvasr module that holds it under a name (the
place its callers look it up), and wraps the `forward`/`backward` methods of
the nn layer classes plus `FrameDataset.gather`. Spans stay in memory until
the run ends; self time is a span's duration minus its direct children.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from contextlib import contextmanager

import numpy as np

# tvasr/__init__ does not import cli and pipeline; public_functions() needs
# every module loaded.
from tvasr import cli, nn, pipeline, training  # noqa: F401

# Span record fields (a list per span, so the wrapper can fill in counters).
NAME, START, END, PARENT, UNITS, KEY, COUNT, CAPTURED = range(8)

LAYER_CLASSES = (nn.Dense, nn.Conv1d, nn.MaxPool1d, nn.Activation, nn.Softmax)


def _waveform_key(wav) -> str:
    return hashlib.sha1(np.ascontiguousarray(wav.samples).tobytes()).hexdigest()


def net_kind(net) -> str:
    """Architecture of a NetworkGraph, read from its structure."""
    if not net.trunk or net.trunk[-1].kind != "softmax":
        return "inversion"
    names = [s.input_name for s in net.streams]
    if len(names) == 2:
        return "fcnn" if "tv" in names else "tfcnn"
    return "cnn" if net.streams[0].layers else "dnn"


def layer_roles(net) -> dict:
    """id(layer) -> role: freq_conv, freq_pool, time_conv, time_pool, ..."""
    roles = {}
    for stream in net.streams:
        axis = next((l.axis for l in stream.layers if l.kind == "conv1d"), "")
        prefix = {"frequency": "freq", "time": "time"}.get(axis, "")
        for layer in stream.layers:
            base = {"conv1d": "conv", "maxpool1d": "pool"}.get(layer.kind)
            roles[id(layer)] = f"{prefix}_{base}" if base else layer.kind
    for layer in net.trunk:
        roles[id(layer)] = layer.kind
    return roles


def _layer_flops(layer, frames: int, backward: bool) -> int:
    """Multiply-adds x 2 of the GEMMs, computed from the layer's shape."""
    if layer.kind == "dense":
        flops = 2 * frames * layer.n_in * layer.n_out
    elif layer.kind == "conv1d":
        flops = (2 * frames * layer.out_positions * layer.filter_width
                 * layer.in_channels * layer.n_filters)
    else:
        return 0
    # backward runs two GEMMs of the forward's size: weight and input grads
    return 2 * flops if backward else flops


# Work counters per wrapped function: (bound arguments, result) -> units.
_UNITS = {
    "corpus.build_parallel_corpus": lambda a, r: a["n_utts"],
    "corpus.write_corpus": lambda a, r: len(a["corpus"].utterances),
    "corpus.read_corpus": lambda a, r: len(r.utterances),
    "pipeline.make_acoustic_dataset": lambda a, r: len(a["utts"]),
    "pipeline.evaluate_acoustic_model": lambda a, r: len(a["utts"]),
    "training.train_epoch": lambda a, r: len(a["dataset"]),
    "training.evaluate_dataset": lambda a, r: len(a["dataset"]),
    "training.predict_dataset": lambda a, r: len(a["dataset"]),
    "training.run_training": lambda a, r: len(r.records),
    "evaluate.levenshtein_wer": lambda a, r: len(a["ref"]) * len(a["hyp"]),
    "nn.backward": lambda a, r: np.shape(a["loss_grad"])[0],
}

# A second counter: bytes of input gradients that training never reads.
_COUNT = {
    "nn.backward": lambda a, r: sum(g.nbytes for g in r.input_grads.values()),
}

# Distinct-input keys, for useful-work ratios (distinct inputs / calls).
_KEYS = {
    "features.nmc_features": lambda a: _waveform_key(a["wav"]),
    "features.logmel_filterbank": lambda a: _waveform_key(a["wav"]),
    "inversion.invert": lambda a: _waveform_key(a["audio"]),
}

# What the output checks keep of a call: small objects only, so that no
# network or dataset outlives its round.
CAPTURE = {
    "corpus.build_parallel_corpus": lambda a, r: r,
    "evaluate.levenshtein_wer": lambda a, r: (a["ref"], a["hyp"], r),
    "training.train_epoch": lambda a, r: (net_kind(a["net"]), r),
    "pipeline.evaluate_acoustic_model": lambda a, r: (net_kind(a["net"]), r),
}

# Spans named after more than the function: the architecture being trained.
_SUFFIX = {"training.train_epoch": lambda a: net_kind(a["net"])}


def _program_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "tvasr" or name.startswith("tvasr.")) and m is not None]


def public_functions():
    """Qualified name -> function, for every public function of tvasr."""
    out = {}
    for mod in _program_modules():
        short = mod.__name__.split(".")[-1]
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == mod.__name__):
                out[f"{short}.{name}"] = obj
    return out


class Spans:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self._roles = {}

    # -- recording --------------------------------------------------------
    def _open(self, name) -> list:
        span = [name, time.perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1, 0, None, 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    # -- patching ---------------------------------------------------------
    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_function(self, qualname: str, fn):
        sig = inspect.signature(fn)
        units, key = _UNITS.get(qualname), _KEYS.get(qualname)
        count = _COUNT.get(qualname)
        suffix, capture = _SUFFIX.get(qualname), CAPTURE.get(qualname)
        roles_from_net = qualname in ("nn.forward", "nn.backward")
        spans = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if units or key or suffix or roles_from_net or capture:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            if roles_from_net:
                spans._roles = layer_roles(bound["net"])
            name = f"{qualname}.{suffix(bound)}" if suffix else qualname
            span = spans._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans._close(span)
            if units:
                span[UNITS] = units(bound, result)
            if count:
                span[COUNT] = count(bound, result)
            if key:
                span[KEY] = key(bound)
            if capture:
                span[CAPTURED] = capture(bound, result)
            return result

        return wrapper

    def _wrap_layer_method(self, method, direction: str):
        spans = self
        backward = direction == "bwd"

        @functools.wraps(method)
        def wrapper(layer, x, *rest):
            role = spans._roles.get(id(layer), layer.kind)
            span = spans._open(f"nn.{role}.{direction}")
            try:
                result = method(layer, x, *rest)
            finally:
                spans._close(span)
            span[UNITS] = x.shape[0]
            span[COUNT] = _layer_flops(layer, x.shape[0], backward)
            return result

        return wrapper

    def _wrap_gather(self, method):
        spans = self

        @functools.wraps(method)
        def wrapper(dataset, idx):
            span = spans._open("training.gather")
            try:
                inputs, targets = method(dataset, idx)
            finally:
                spans._close(span)
            span[UNITS] = len(idx)
            span[COUNT] = sum(a.nbytes for a in inputs.values())
            return inputs, targets

        return wrapper

    def install(self, names=None) -> None:
        """Wrap the named functions (all of tvasr when None) where looked up.

        With names=None the nn layer methods and FrameDataset.gather are
        wrapped too.
        """
        table = public_functions()
        chosen = table if names is None else {n: table[n] for n in names}
        modules = _program_modules()
        for qualname, fn in chosen.items():
            wrapper = self._wrap_function(qualname, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, attr, wrapper)
        if names is None:
            for cls in LAYER_CLASSES:
                self._set(cls, "forward",
                          self._wrap_layer_method(cls.forward, "fwd"))
                self._set(cls, "backward",
                          self._wrap_layer_method(cls.backward, "bwd"))
            self._set(training.FrameDataset, "gather",
                      self._wrap_gather(training.FrameDataset.gather))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- queries ----------------------------------------------------------
    def named(self, name: str) -> list:
        return [s for s in self.spans if s[NAME] == name]

    def captured(self, name: str) -> list:
        return [s[CAPTURED] for s in self.spans
                if s[NAME].startswith(name) and s[CAPTURED] is not None]

    def self_times(self) -> list:
        """Per span: duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def summary(self) -> dict:
        """Span name -> {calls, total_s, self_s}."""
        out = {}
        for s, self_s in zip(self.spans, self.self_times()):
            row = out.setdefault(s[NAME], {"calls": 0, "total_s": 0.0,
                                           "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s[END] - s[START]
            row["self_s"] += self_s
        return out

    def dump(self) -> list:
        """Spans as JSON-ready rows (captured objects left out)."""
        return [[s[NAME], s[START], s[END], s[PARENT], s[UNITS]]
                for s in self.spans]


# ---------------------------------------------------------------------------
# Per-layer metrics, derived from the spans of a traced run
# ---------------------------------------------------------------------------

class _Index:
    """Span name -> rows of (duration, self time, units, count, key)."""

    def __init__(self, spans: Spans):
        self.rows = {}
        for s, self_s in zip(spans.spans, spans.self_times()):
            self.rows.setdefault(s[NAME], []).append(
                (s[END] - s[START], self_s, s[UNITS], s[COUNT], s[KEY]))

    def per_call(self, name, scale=1e3):
        rows = self.rows.get(name)
        return sum(r[0] for r in rows) / len(rows) * scale if rows else None

    def per_unit(self, name, scale=1e3, column=0):
        rows = self.rows.get(name)
        units = sum(r[2] for r in rows) if rows else 0
        return sum(r[column] for r in rows) / units * scale if units else None

    def units_per_call(self, name):
        rows = self.rows.get(name)
        return sum(r[2] for r in rows) / len(rows) if rows else None

    def units_per_s(self, name):
        rows = self.rows.get(name)
        return sum(r[2] for r in rows) / sum(r[0] for r in rows) if rows else None

    def count_per_unit(self, name, scale=1e3):
        rows = self.rows.get(name)
        units = sum(r[2] for r in rows) if rows else 0
        return sum(r[3] for r in rows) / units * scale if units else None

    def gflop_per_s(self, name):
        rows = self.rows.get(name)
        busy = sum(r[1] for r in rows) if rows else 0.0
        return sum(r[3] for r in rows) / busy / 1e9 if busy else None

    def useful_ratio(self, name):
        rows = self.rows.get(name)
        return len({r[4] for r in rows}) / len(rows) if rows else None

    def calls(self, name):
        return len(self.rows.get(name, ()))


def _per_layer_table():
    """(metric, unit, better, value function of an _Index)."""
    ms, lower, higher = "ms", "lower", "higher"
    t = []

    def call_ms(metric, span):
        t.append((metric, ms, lower, lambda ix: ix.per_call(span)))

    def unit_ms(metric, span):
        t.append((metric, ms, lower, lambda ix: ix.per_unit(span)))

    def ratio(metric, span):
        t.append((metric, "ratio", higher, lambda ix: ix.useful_ratio(span)))

    for fn in ("generate_gestural_score", "render_tvs",
               "synthesize_speech_from_tvs", "generate_noise"):
        call_ms(f"synth.{fn}.ms_per_utt", f"synth.{fn}")
    call_ms("audio.mix_noise_at_snr.ms_per_utt", "audio.mix_noise_at_snr")
    call_ms("audio.write_wav.ms_per_file", "audio.write_wav")
    call_ms("audio.read_wav.ms_per_file", "audio.read_wav")
    for fn in ("build_parallel_corpus", "write_corpus", "read_corpus"):
        unit_ms(f"corpus.{fn}.ms_per_utt", f"corpus.{fn}")
    t.append(("corpus.read_corpus.calls", "count", lower,
              lambda ix: ix.calls("corpus.read_corpus")))
    call_ms("features.nmc_features.ms_per_utt", "features.nmc_features")
    ratio("features.nmc_features.useful_ratio", "features.nmc_features")
    call_ms("features.logmel_filterbank.ms_per_utt", "features.logmel_filterbank")
    ratio("features.logmel_filterbank.useful_ratio", "features.logmel_filterbank")
    call_ms("features.append_deltas.ms_per_utt", "features.append_deltas")
    call_ms("features.load_feature_matrix.ms_per_file",
            "features.load_feature_matrix")
    call_ms("features.save_feature_matrix.ms_per_file",
            "features.save_feature_matrix")
    t.append(("inversion.train_inversion_model.s", "s", lower,
              lambda ix: ix.per_call("inversion.train_inversion_model", 1.0)))
    call_ms("inversion.invert.ms_per_utt", "inversion.invert")
    ratio("inversion.invert.useful_ratio", "inversion.invert")
    call_ms("architectures.build_network.ms", "architectures.build_network")

    roles = ("freq_conv", "freq_pool", "time_conv", "time_pool",
             "activation", "dense")
    for role in roles:
        for d in ("fwd", "bwd"):
            t.append((f"nn.{role}.{d}_ms_per_kframe", ms, lower,
                      lambda ix, s=f"nn.{role}.{d}": ix.per_unit(s, 1e6, 1)))
    t.append(("nn.softmax.fwd_ms_per_kframe", ms, lower,
              lambda ix: ix.per_unit("nn.softmax.fwd", 1e6, 1)))
    for role in ("freq_conv", "dense"):
        for d in ("fwd", "bwd"):
            t.append((f"nn.{role}.{d}_gflop_per_s", "GFLOP/s", higher,
                      lambda ix, s=f"nn.{role}.{d}": ix.gflop_per_s(s)))
    t.append(("nn.backward.input_grad_bytes_per_kframe", "bytes", lower,
              lambda ix: ix.count_per_unit("nn.backward")))
    for fn in ("sgd_step", "softmax_cross_entropy", "mse_loss"):
        call_ms(f"nn.{fn}.ms_per_batch", f"nn.{fn}")
    call_ms("nn.network_to_bytes.ms", "nn.network_to_bytes")
    call_ms("nn.network_from_bytes.ms", "nn.network_from_bytes")

    for kind in ("cnn", "tfcnn", "fcnn", "inversion"):
        t.append((f"training.train_epoch.{kind}.frames_per_s", "frames/s",
                  higher, lambda ix, s=f"training.train_epoch.{kind}":
                  ix.units_per_s(s)))
    t.append(("training.gather.ms_per_kframe", ms, lower,
              lambda ix: ix.per_unit("training.gather", 1e6)))
    t.append(("training.gather.bytes_per_kframe", "bytes", lower,
              lambda ix: ix.count_per_unit("training.gather")))
    t.append(("training.evaluate_dataset.ms_per_kframe", ms, lower,
              lambda ix: ix.per_unit("training.evaluate_dataset", 1e6)))
    t.append(("training.run_training.epochs", "count", lower,
              lambda ix: ix.units_per_call("training.run_training")))

    t.append(("pipeline.acoustic_norm_stats.s", "s", lower,
              lambda ix: ix.per_call("pipeline.acoustic_norm_stats", 1.0)))
    unit_ms("pipeline.make_acoustic_dataset.ms_per_utt",
            "pipeline.make_acoustic_dataset")
    unit_ms("pipeline.evaluate_acoustic_model.ms_per_utt",
            "pipeline.evaluate_acoustic_model")
    call_ms("pipeline.save_acoustic_bundle.ms", "pipeline.save_acoustic_bundle")
    call_ms("pipeline.load_acoustic_bundle.ms", "pipeline.load_acoustic_bundle")

    call_ms("evaluate.greedy_decode.ms_per_utt", "evaluate.greedy_decode")
    call_ms("evaluate.levenshtein_wer.ms_per_utt", "evaluate.levenshtein_wer")
    t.append(("evaluate.levenshtein_wer.cells_per_utt", "count", lower,
              lambda ix: ix.units_per_call("evaluate.levenshtein_wer")))

    for stage in ("corpus-gen", "train-inversion", "invert", "train.cnn",
                  "train.fcnn", "evaluate.cnn", "evaluate.fcnn", "report"):
        t.append((f"cli.{stage}.s", "s", lower,
                  lambda ix, s=f"cli.{stage}": ix.per_call(s, 1.0)))
    return t


PER_LAYER = _per_layer_table()
OVERHEAD_METRIC = ("trace.overhead_s", "s", "lower")


def layer_metrics(spans: Spans, overhead_s: float):
    """(metrics, names of layers this run did not exercise).

    A layer the workload never calls reads 0 and is listed as unexercised.
    """
    ix = _Index(spans)
    metrics, unexercised = {}, []
    for name, _, _, fn in PER_LAYER:
        value = fn(ix)
        if value is None:
            unexercised.append(name)
            value = 0.0
        metrics[name] = float(value)
    metrics[OVERHEAD_METRIC[0]] = float(overhead_s)
    return metrics, unexercised
