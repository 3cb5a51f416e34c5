"""Acoustic front ends and the TV trajectory file.

Provides log-mel filterbank energies, delta/delta-delta appending and
subband amplitude-modulation coefficients for the inversion front end, each
as a plain (T, D) array (`nmc_map` computes the latter for many utterances
on parallel threads, and keeps that of each WAV file in an NMC1 sidecar);
the Z-normalization statistics and splice indices that `training` applies;
and flat binary serializations for TV trajectories (FMX1) and
normalization stats.

Framing is shared by all extractors: 25 ms Hamming windows every 10 ms,
T = floor((n_samples - win) / shift) + 1 frames (`frame_count`). Log
compression uses log(max(x, 1e-10)) so silence maps to a finite floor.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import struct
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import dct
from scipy.signal import butter

from .audio import FRAME_SHIFT, Waveform, frame_samples
from .errors import FormatError
from .records import Reader, read_file
from .synth import N_TVS, TVTrajectory, _sosfilt

LOG_FLOOR = 1e-10
STD_FLOOR = 1e-8
FFT_SIZE = 512

_FMX_MAGIC = b"FMX1"
_NMC_MAGIC = b"NMC1"
# Part of every NMC1 key: bump it whenever nmc_features' output bits change,
# so that sidecars of the old bits are recomputed instead of read.
_NMC_REVISION = 1


@dataclass(frozen=True)
class SpliceSpec:
    """Context window: `left` past and `right` future frames around each frame."""

    left: int = 8
    right: int = 8

    def __post_init__(self):
        if self.left < 0 or self.right < 0:
            raise ValueError("splice extents must be non-negative")

    @property
    def width(self) -> int:
        return self.left + self.right + 1


@dataclass
class NormStats:
    """Frozen per-dimension mean/std from a training set."""

    mean: np.ndarray
    std: np.ndarray


def frame_count(wav: Waveform) -> int:
    """T, the number of frames every extractor gives for `wav`.

    Known before any feature is computed, so datasets size their arrays
    from it. ValueError if `wav` is shorter than one analysis window, or
    if its rate is too low for the frame grid.
    """
    win_n, shift_n = frame_samples(wav.sample_rate)
    n_samples = len(wav.samples)
    if n_samples < win_n:
        raise ValueError(f"signal of {n_samples} samples is shorter than "
                         f"one {win_n}-sample window")
    return (n_samples - win_n) // shift_n + 1


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_band_edges(n_bands: int, sample_rate: int, fmin: float = 0.0,
                   fmax: float | None = None) -> np.ndarray:
    """n_bands + 2 mel-spaced edge frequencies in Hz between fmin and fmax."""
    if fmax is None:
        fmax = sample_rate / 2.0
    mels = np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_bands + 2)
    return mel_to_hz(mels)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def mel_filterbank_weights(n_bands: int, sample_rate: int) -> np.ndarray:
    """Triangular mel filter weights, shape (n_bands, FFT_SIZE//2 + 1).

    Designed once per (n_bands, sample_rate) and process; the
    returned array is shared by every caller and read-only.
    """
    edges = mel_band_edges(n_bands, sample_rate)
    fft_freqs = np.arange(FFT_SIZE // 2 + 1) * sample_rate / FFT_SIZE
    weights = np.zeros((n_bands, len(fft_freqs)))
    for b in range(n_bands):
        lo, center, hi = edges[b], edges[b + 1], edges[b + 2]
        up = (fft_freqs - lo) / (center - lo)
        down = (hi - fft_freqs) / (hi - center)
        weights[b] = np.maximum(0.0, np.minimum(up, down))
    return _frozen(weights)


def logmel_filterbank(wav: Waveform, n_bands: int = 40) -> np.ndarray:
    """Log mel filterbank energies, shape (T, n_bands).

    Windowed frames are written straight into the FFT's zero-padded input,
    so the transform holds two (T, FFT_SIZE) arrays at most.
    """
    win_n, shift_n = frame_samples(wav.sample_rate)
    n_frames = frame_count(wav)
    frames = np.zeros((n_frames, max(win_n, FFT_SIZE)))
    np.multiply(sliding_window_view(wav.samples, win_n)[::shift_n][:n_frames],
                np.hamming(win_n), out=frames[:, :win_n])
    spectrum = np.fft.rfft(frames, FFT_SIZE, axis=1)
    del frames
    spectrum = np.abs(spectrum) ** 2
    weights = mel_filterbank_weights(n_bands, wav.sample_rate)
    energies = spectrum @ weights.T
    return np.log(np.maximum(energies, LOG_FLOOR))


_DELTA_WINDOW = 2
_DELTA_DENOM = 2 * sum(n * n for n in range(1, _DELTA_WINDOW + 1))  # = 10


def _delta(feats: np.ndarray) -> np.ndarray:
    """2-frame regression deltas with edge frames replicated."""
    padded = np.pad(feats, ((_DELTA_WINDOW, _DELTA_WINDOW), (0, 0)), mode="edge")
    t = np.arange(feats.shape[0]) + _DELTA_WINDOW
    out = np.zeros_like(feats)
    for n in range(1, _DELTA_WINDOW + 1):
        out += n * (padded[t + n] - padded[t - n])
    return out / _DELTA_DENOM


def append_deltas(frames: np.ndarray) -> np.ndarray:
    """Append delta and delta-delta streams: (T, D) -> (T, 3 * D)."""
    d1 = _delta(frames)
    return np.concatenate([frames, d1, _delta(d1)], axis=1)


@lru_cache(maxsize=None)
def _am_subband_bank(n_bands: int, sample_rate: int):
    """Fourth-order mel-spaced bandpass filters plus a 30 Hz envelope lowpass.

    Designed once per (n_bands, sample_rate) and process: a tuple of
    read-only bandpass SOS arrays and the read-only lowpass SOS array.
    """
    edges = mel_band_edges(n_bands, sample_rate, fmin=80.0,
                           fmax=0.99 * sample_rate / 2.0)
    nyq = sample_rate / 2.0
    bandpasses = []
    for b in range(n_bands):
        lo = max(edges[b], 40.0) / nyq
        hi = min(edges[b + 2], 0.999 * nyq) / nyq
        bandpasses.append(_frozen(butter(2, [lo, hi], btype="band", output="sos")))
    envelope_lp = _frozen(butter(2, 30.0 / nyq, btype="low", output="sos"))
    return tuple(bandpasses), envelope_lp


# Subbands that nmc_features filters at a time: its transient memory is two
# (_NMC_BLOCK, n_samples) float64 arrays whatever the band count.
_NMC_BLOCK = 8


def nmc_features(wav: Waveform, n_coeffs: int = 40) -> np.ndarray:
    """Subband amplitude-modulation coefficients, shape (T, n_coeffs).

    Each mel-spaced subband is half-wave rectified and lowpassed at 30 Hz to
    obtain an AM envelope, which is normalized by the utterance-level subband
    power. Per frame, the log envelope energies across bands are compressed
    with a DCT to n_coeffs coefficients.
    """
    n_frames = frame_count(wav)
    win_n, shift_n = frame_samples(wav.sample_rate)
    bandpasses, envelope_lp = _am_subband_bank(n_coeffs, wav.sample_rate)
    # the filter core's typed memoryviews take only writable coefficients:
    # filter with copies of the shared read-only bank
    bank, lowpass = np.array(bandpasses), envelope_lp.copy()
    energies = np.empty((len(bank), n_frames))
    for lo in range(0, len(bank), _NMC_BLOCK):
        hi = lo + _NMC_BLOCK
        _envelope_energies(wav.samples, bank[lo:hi], lowpass, win_n, shift_n,
                           out=energies[lo:hi])
    modulation = np.log(np.maximum(energies.T, LOG_FLOOR))
    return dct(modulation, type=2, norm="ortho", axis=1)[:, :n_coeffs]


def _envelope_energies(samples, bank, lowpass, win_n: int, shift_n: int,
                       out: np.ndarray) -> None:
    """Per-frame AM envelope energies of a block of subbands, into `out`.

    Every reduction runs along one band's contiguous sample axis, so each
    band gets the same arithmetic, in the same order, whatever the block.
    """
    subs = np.repeat(samples[None, :], len(bank), axis=0)
    for b, sos in enumerate(bank):
        _sosfilt(sos, subs[b:b + 1], np.zeros((1, len(sos), 2)))
    power = np.mean(np.square(subs), axis=1)
    # rectify, then lowpass to the envelopes, all in place
    np.maximum(subs, 0.0, out=subs)
    _sosfilt(lowpass, subs, np.zeros((len(bank), len(lowpass), 2)))
    subs /= np.sqrt(power + 1e-12)[:, None]
    np.square(subs, out=subs)
    windows = sliding_window_view(subs, win_n, axis=1)[:, ::shift_n]
    np.mean(windows, axis=2, out=out)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _nmc_sidecar(wav: Waveform) -> Path | None:
    """Where nmc_map keeps the NMC of a waveform read from a file: <stem>.nmc
    next to it. None for audio made in memory and for a file that would be
    its own sidecar."""
    if wav.path is None:
        return None
    sidecar = wav.path.with_suffix(".nmc")
    return None if sidecar == wav.path else sidecar


def _nmc_key(wav: Waveform, n_coeffs: int) -> bytes:
    """SHA-256 of everything the NMC bits depend on."""
    key = hashlib.sha256(np.ascontiguousarray(wav.samples, dtype="<f8"))
    key.update(struct.pack("<QQQ", wav.sample_rate, n_coeffs, _NMC_REVISION))
    return key.digest()


def _read_nmc_sidecar(path: Path, key: bytes, n_frames: int,
                      n_coeffs: int) -> np.ndarray | None:
    """The NMC an NMC1 file holds for `key`, or None if it holds no valid one.

    NMC1: magic, the 32-byte key, T as uint32, T x n_coeffs float64 values,
    then the SHA-256 of those values' bytes.
    """
    def parse(r: Reader) -> np.ndarray:
        r.magic(_NMC_MAGIC)
        if r.take("<32s")[0] != key:
            raise FormatError("NMC of other samples, settings or revision")
        (t,) = r.take("<I")
        if t != n_frames:
            raise FormatError(f"{t} frames where the waveform has {n_frames}")
        values = r.array("<f8", (t, n_coeffs))
        if r.take("<32s")[0] != hashlib.sha256(values).digest():
            raise FormatError("NMC values do not match their digest")
        return values.astype(np.float64)

    try:
        return read_file(path, parse)
    except (FormatError, OSError):
        return None


def _write_nmc_sidecar(path: Path, key: bytes, feats: np.ndarray) -> None:
    """Write an NMC1 file under a unique name, then move it into place.

    Readers see the old file or the whole new one. Nothing is synced: a file
    torn by a crash fails its digest and is computed again. A failed write
    leaves no file behind and raises nothing.
    """
    values = np.ascontiguousarray(feats, dtype="<f8").tobytes()
    blob = b"".join([_NMC_MAGIC, key, struct.pack("<I", len(feats)), values,
                     hashlib.sha256(values).digest()])
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _cached_nmc(wav: Waveform, n_coeffs: int):
    """One waveform's NMC, and (sidecar, key) if it was computed for one."""
    sidecar = _nmc_sidecar(wav)
    if sidecar is None:
        return nmc_features(wav, n_coeffs), None
    key = _nmc_key(wav, n_coeffs)
    feats = _read_nmc_sidecar(sidecar, key, frame_count(wav), n_coeffs)
    if feats is not None:
        return feats, None
    return nmc_features(wav, n_coeffs), (sidecar, key)


def nmc_map(waveforms: list, n_coeffs: int = 40) -> list:
    """nmc_features of each waveform, in input order, on every usable CPU.

    A ThreadPoolExecutor with one worker per CPU this process may run on,
    never more than waveforms, computes them side by side while the caller
    waits: the compiled sosfilt core and numpy's loops release the GIL, and
    the bits are those of one at a time. With one waveform or one usable CPU
    the calling thread computes them itself. The first failing waveform's
    exception is raised once the workers stop: waveforms not started when
    the caller reaches that failure are cancelled, the others still finish.

    The NMC of a waveform read from a file (`Waveform.path`) is kept in an
    NMC1 sidecar, <stem>.nmc next to it, and read back while its key, frame
    count and values digest check out. Computed NMCs are written to their
    sidecars only once every waveform has succeeded; a failed write is skipped.
    """
    # design each filter bank here, so that no two threads design one
    for rate in {w.sample_rate for w in waveforms}:
        _am_subband_bank(n_coeffs, rate)
    work = partial(_cached_nmc, n_coeffs=n_coeffs)
    n_threads = min(_usable_cpus(), len(waveforms))
    if n_threads < 2:
        done = list(map(work, waveforms))
    else:
        pool = ThreadPoolExecutor(n_threads)
        try:
            done = list(pool.map(work, waveforms))
        finally:
            pool.shutdown(cancel_futures=True)
    for feats, miss in done:
        if miss is not None:
            _write_nmc_sidecar(*miss, feats)
    return [feats for feats, _ in done]


def _sum_rows(chunks) -> np.ndarray:
    """Sum of the rows of a series of (T_u, D) arrays, added in row order.

    numpy sums axis 0 of a C-ordered array of two or more columns one row
    after another, so carrying the sum so far as a first row into each
    array's sum gives the bits of the sum over their concatenation.
    """
    total = None
    for rows in chunks:
        total = np.add.reduce(np.ascontiguousarray(rows) if total is None
                              else np.concatenate([total[None], rows]), axis=0)
    return total


def norm_stats(per_utt_frames: list) -> NormStats:
    """Per-dimension mean and population std over the stacked frames.

    The sums run utterance by utterance, so no stacked copy, and no copy of
    its deviations from the mean, is ever built; for C-ordered frames of two
    or more columns the results equal the mean and std of
    np.concatenate(per_utt_frames) bit for bit. Stds below STD_FLOOR are
    floored, so constant columns normalize to zero.
    """
    n = sum(len(f) for f in per_utt_frames)
    if n == 0:
        raise ValueError("norm_stats needs at least one frame")
    mean = _sum_rows(per_utt_frames) / n
    var = _sum_rows(np.square(f - mean) for f in per_utt_frames) / n
    return NormStats(mean, np.maximum(np.sqrt(var), STD_FLOOR))


def splice_indices(n_frames: int, spec: SpliceSpec) -> np.ndarray:
    """Frame indices for splicing: shape (n_frames, width), edges replicated."""
    offsets = np.arange(-spec.left, spec.right + 1)
    return np.clip(np.arange(n_frames)[:, None] + offsets[None, :], 0, n_frames - 1)


def norm_stats_to_bytes(stats: NormStats) -> bytes:
    """The mean then the std, each as little-endian float64."""
    return stats.mean.astype("<f8").tobytes() + stats.std.astype("<f8").tobytes()


def read_norm_stats(r: Reader, d: int) -> NormStats:
    """Read d-wide stats; FormatError unless norm_stats could have made them."""
    mean, std = r.array("<f8", (2, d)).copy()
    if not (np.isfinite(mean).all() and (np.isfinite(std) & (std >= STD_FLOOR)).all()):
        raise FormatError(f"stats need a finite mean and finite stds >= {STD_FLOOR}")
    return NormStats(mean, std)


def save_feature_matrix(path, tvs: TVTrajectory) -> None:
    """Write FMX1: T, D = 8, layout (8, 1, 1), FRAME_SHIFT, float32 frames."""
    header = struct.pack("<4sIIIIId", _FMX_MAGIC, tvs.n_frames, N_TVS,
                         N_TVS, 1, 1, FRAME_SHIFT)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(tvs.frames.astype("<f4").tobytes())


def _parse_feature_matrix(r: Reader) -> TVTrajectory:
    r.magic(_FMX_MAGIC)
    t, *layout, frame_shift = r.take("<IIIIId")
    if layout != [N_TVS, N_TVS, 1, 1]:
        raise FormatError(f"dimension and layout {layout} are not a TV "
                          f"trajectory's [{N_TVS}, {N_TVS}, 1, 1]")
    if frame_shift != FRAME_SHIFT:
        raise FormatError(f"frame shift {frame_shift} s is not the "
                          f"{FRAME_SHIFT} s frame grid")
    return TVTrajectory(r.array("<f4", (t, N_TVS)).astype(np.float64))


def load_feature_matrix(path) -> TVTrajectory:
    """A checked TV trajectory; FormatError on any other FMX1 content."""
    return read_file(path, _parse_feature_matrix)
