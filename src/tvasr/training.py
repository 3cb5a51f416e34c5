"""Mini-batch SGD training with the constant-then-halving learning schedule.

Epochs run at a constant initial learning rate (0.008 for four epochs by
default); afterwards the rate halves whenever the relative cross-validation
improvement falls below the halving threshold, and training stops once the
improvement falls below the stop threshold or the CV error increases.
`halve_always_after_first` switches to the classic variant that keeps
halving every epoch once the first halving fired.

Shuffling is seeded per epoch from (rng_seed, epoch).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DivergenceError, FormatError, ShapeError, StateError
from .features import SpliceSpec, splice_indices
from .nn import (NetworkGraph, forward, mse_loss, sgd_step,
                 softmax_cross_entropy)
from .records import Reader

_TRS_MAGIC = b"TRS1"
_PHASE_CODES = {"constant": 0, "halving": 1, "stopped": 2}

# Frames per eval-mode forward in predict_dataset. For a paper fCNN, the
# frequency im2col matrix of 2,048 frames alone is 110 MB; with 256 frames
# a whole CV pass stays under 30 MiB. Changing it can change the outputs'
# last bits, since a BLAS product's rows depend on its row count when that
# count is small (see predict_dataset).
_PREDICT_CHUNK = 256


@dataclass
class TrainConfig:
    initial_lr: float = 0.008
    constant_lr_epochs: int = 4
    batch_size: int = 256
    halving_threshold: float = 0.005  # relative CV improvement
    stop_threshold: float = 0.001
    max_epochs: int = 20
    rng_seed: int = 0
    halve_always_after_first: bool = False

    def __post_init__(self):
        # each test is written so that NaN fails it
        if not 0 < self.initial_lr < np.inf:
            raise ValueError("initial_lr must be finite and positive")
        for name in ("halving_threshold", "stop_threshold"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and non-negative")
        for name, low in (("batch_size", 1), ("max_epochs", 1),
                          ("constant_lr_epochs", 0)):
            if not getattr(self, name) >= low:
                raise ValueError(f"{name} must be at least {low}")


@dataclass
class TrainState:
    lr: float
    epoch: int = 0
    cv_error_history: list = field(default_factory=list)
    phase: str = "constant"
    best_epoch: int = 0
    best_cv_error: float = float("inf")


def schedule_update(state: TrainState, new_cv_error: float,
                    cfg: TrainConfig) -> TrainState:
    """Fold one epoch's CV error into the schedule; returns the new state.

    During the first constant_lr_epochs epochs the rate never changes. After
    that, relative improvement over the previous epoch's CV error drives
    halving and stopping as described in the module docstring.
    """
    if state.phase == "stopped":
        raise StateError("schedule_update called on a stopped run")
    history = list(state.cv_error_history) + [float(new_cv_error)]
    epoch = state.epoch + 1
    lr, phase = state.lr, state.phase
    best_epoch, best_cv = state.best_epoch, state.best_cv_error
    if new_cv_error < best_cv:
        best_cv, best_epoch = float(new_cv_error), epoch

    if epoch > cfg.constant_lr_epochs and len(history) >= 2:
        prev = history[-2]
        improvement = (prev - new_cv_error) / max(abs(prev), 1e-12)
        if phase == "halving":
            if new_cv_error > prev or improvement < cfg.stop_threshold:
                phase = "stopped"
            elif improvement < cfg.halving_threshold or cfg.halve_always_after_first:
                lr /= 2.0
        elif improvement < cfg.halving_threshold:
            lr /= 2.0
            phase = "halving"

    return replace(state, lr=lr, epoch=epoch, cv_error_history=history,
                   phase=phase, best_epoch=best_epoch, best_cv_error=best_cv)


class FrameDataset:
    """Frame-level dataset with lazy context splicing.

    Each stream holds the stacked unspliced frames of all utterances plus a
    precomputed (n_frames, window) index matrix whose rows respect utterance
    boundaries (edge frames replicate within the utterance). `gather`
    assembles spliced mini-batch tensors on the fly.
    """

    def __init__(self, streams: dict, targets: np.ndarray):
        self.streams = streams
        self.targets = targets
        lengths = {name: idx.shape[0] for name, (_, idx) in streams.items()}
        if len(set(lengths.values())) > 1:
            raise ShapeError(f"stream frame counts disagree: {lengths}")
        self.n_frames = next(iter(lengths.values()))
        if targets.shape[0] != self.n_frames:
            raise ShapeError("targets do not match frame count")

    def __len__(self):
        return self.n_frames

    def gather(self, idx: np.ndarray):
        inputs = {}
        for name, (frames, indices) in self.streams.items():
            batch = frames[indices[idx]]
            inputs[name] = batch.reshape(len(idx), -1)
        return inputs, self.targets[idx]


def stack_utterances(per_utt: list, splice: SpliceSpec):
    """Stack per-utterance (T_u, D) arrays and build clamped splice indices."""
    frames = np.concatenate(per_utt, axis=0).astype(np.float32)
    indices = []
    offset = 0
    for arr in per_utt:
        t = arr.shape[0]
        indices.append(splice_indices(t, splice) + offset)
        offset += t
    return frames, np.concatenate(indices, axis=0)


def utterance_dataset(streams: dict, splices: dict,
                      targets: list) -> FrameDataset:
    """FrameDataset from per-utterance arrays: the one frames -> dataset path.

    `streams` maps each input name to one (T_u, D) array per utterance and
    `splices` gives its SpliceSpec; `targets` holds one array per utterance.
    Each utterance is cut to its shortest array before stacking, so every
    stream and the targets agree frame for frame.
    """
    lengths = [min(len(a) for a in arrays)
               for arrays in zip(targets, *streams.values())]
    stacked = {name: stack_utterances([a[:t] for a, t in zip(arrays, lengths)],
                                      splices[name])
               for name, arrays in streams.items()}
    return FrameDataset(stacked, np.concatenate(
        [a[:t] for a, t in zip(targets, lengths)], axis=0))


def train_epoch(net: NetworkGraph, dataset: FrameDataset, lr: float,
                batch_size: int, rng_seed, loss: str = "ce") -> float:
    """One shuffled pass of mini-batch SGD; returns the mean training loss.

    The shuffle order comes solely from rng_seed (pass [seed, epoch] for the
    per-epoch convention). Loss gradients are mean-normalized per batch, so
    the final short batch automatically uses its true size in the gradient
    scale. A DivergenceError names the batch, counted from 0 in the
    shuffled order; a non-finite loss raises before any parameter changes.
    """
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    order = np.random.default_rng(rng_seed).permutation(len(dataset))
    total, seen = 0.0, 0
    for batch, start in enumerate(range(0, len(dataset), batch_size)):
        idx = order[start:start + batch_size]
        inputs, targets = dataset.gather(idx)
        out = forward(net, inputs, mode="train")
        if loss == "ce":
            value, grad = softmax_cross_entropy(net.cached_logits(), targets)
        elif loss == "mse":
            value, grad = mse_loss(out, targets)
        else:
            raise ValueError(f"unknown loss {loss!r}")
        if not np.isfinite(value):
            raise DivergenceError(
                f"batch {batch}: non-finite training loss {value}")
        try:
            sgd_step(net, grad, lr, at_logits=loss == "ce")
        except DivergenceError as exc:
            raise DivergenceError(f"batch {batch}: {exc}") from exc
        total += value * len(idx)
        seen += len(idx)
    return total / seen


def predict_dataset(net: NetworkGraph, dataset: FrameDataset) -> np.ndarray:
    """Eval-mode forward over the whole dataset, in deterministic order.

    The forward runs on _PREDICT_CHUNK frames at a time, so its peak memory
    does not grow with the dataset. The outputs are deterministic for that
    fixed chunk size, but a frame's last bits can depend on the chunk it
    falls in: on OpenBLAS, a GEMM row's bits depend on the product's row
    count when that count is small (under about 50 rows for the paper
    trunk's 1024 x 21 output layer), so a short last chunk, or one forward
    per utterance, can give different bits from a 256-frame chunk.
    """
    outputs = []
    for start in range(0, len(dataset), _PREDICT_CHUNK):
        idx = np.arange(start, min(start + _PREDICT_CHUNK, len(dataset)))
        inputs, _ = dataset.gather(idx)
        outputs.append(forward(net, inputs, mode="eval"))
    return np.concatenate(outputs, axis=0)


def evaluate_dataset(net: NetworkGraph, dataset: FrameDataset,
                     metric: str = "frame_error") -> float:
    """CV error: frame classification error for "ce" nets, else MSE."""
    out = predict_dataset(net, dataset)
    if metric == "frame_error":
        return float(np.mean(out.argmax(axis=1) != dataset.targets))
    if metric == "mse":
        return float(np.mean(np.square(
            out.astype(np.float64) - dataset.targets.astype(np.float64))))
    raise ValueError(f"unknown metric {metric!r}")


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    cv_error: float


@dataclass
class TrainResult:
    best_net: NetworkGraph
    state: TrainState
    records: list


def run_training(net: NetworkGraph, train_set: FrameDataset,
                 cv_set: FrameDataset, cfg: TrainConfig, loss: str = "ce",
                 cv_metric: str = "frame_error",
                 on_epoch=None) -> TrainResult:
    """Drive train_epoch under the halving schedule until it stops.

    `net` is updated in place; the returned best_net is a copy of the
    parameters at the minimum CV error. Epoch seeds derive from
    (cfg.rng_seed, epoch).
    """
    state = TrainState(lr=cfg.initial_lr)
    best_net = net.copy()
    records = []
    while state.phase != "stopped" and state.epoch < cfg.max_epochs:
        epoch = state.epoch + 1
        lr = state.lr
        train_loss = train_epoch(net, train_set, lr, cfg.batch_size,
                                 [cfg.rng_seed, epoch], loss)
        cv_error = evaluate_dataset(net, cv_set, cv_metric)
        improved = cv_error < state.best_cv_error
        state = schedule_update(state, cv_error, cfg)
        if improved:
            best_net = net.copy()
        records.append(EpochRecord(epoch, lr, train_loss, cv_error))
        if on_epoch is not None:
            on_epoch(records[-1])
    return TrainResult(best_net, state, records)


# ---------------------------------------------------------------------------
# TRS1 train-state records, stored in acoustic-model bundles
# ---------------------------------------------------------------------------

def train_state_to_bytes(state: TrainState) -> bytes:
    """One TRS1 record; its reference field is always empty (length 0)."""
    return b"".join([
        _TRS_MAGIC,
        struct.pack("<IdBId", state.epoch, state.lr,
                    _PHASE_CODES[state.phase], state.best_epoch,
                    state.best_cv_error),
        struct.pack("<I", len(state.cv_error_history)),
        struct.pack(f"<{len(state.cv_error_history)}d", *state.cv_error_history),
        struct.pack("<H", 0),
    ])


def train_state_from_bytes(r: Reader) -> TrainState:
    """Parse one TRS1 train-state record from the reader."""
    r.magic(_TRS_MAGIC)
    epoch, lr = r.take("<Id")
    phase = r.code(_PHASE_CODES, "phase")
    best_epoch, best_cv, n_hist = r.take("<IdI")
    history = list(r.take(f"<{n_hist}d"))
    (n_ref,) = r.take("<H")
    if n_ref:
        raise FormatError(f"train-state reference of {n_ref} bytes (must be empty)")
    return TrainState(lr=lr, epoch=epoch, cv_error_history=history,
                      phase=phase, best_epoch=best_epoch, best_cv_error=best_cv)
