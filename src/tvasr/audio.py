"""Waveform container, PCM WAV file I/O, and noise mixing.

Only RIFF WAVE files with 16-bit little-endian mono PCM are supported; that
is also the format the corpus generator writes. Samples live in [-1, 1] as
float64 in memory and are scaled by 32768 on disk, so integer sample values
k/32768 round-trip exactly.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError
from .records import Reader, read_file

DEFAULT_SAMPLE_RATE = 16000
# The frame grid of every front end and of the synthesizer, in seconds.
FRAME_WIN = 0.025
FRAME_SHIFT = 0.010

_WAV_SCALE = 32768.0


@dataclass
class Waveform:
    """Mono audio signal with amplitudes in [-1, 1].

    `path` is the file `read_wav` read it from, None for audio made in
    memory; it takes no part in equality.
    """

    samples: np.ndarray
    sample_rate: int = DEFAULT_SAMPLE_RATE
    path: Path | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError("waveform must be a non-empty 1-D sample array")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform contains non-finite samples")
        if np.max(np.abs(self.samples)) > 1.0 + 1e-9:
            raise ValueError("waveform samples exceed [-1, 1]")


def frame_samples(sample_rate: int) -> tuple:
    """Analysis window and frame shift in samples at `sample_rate`.

    ValueError if the shift rounds to no sample.
    """
    win_n = int(round(FRAME_WIN * sample_rate))
    shift_n = int(round(FRAME_SHIFT * sample_rate))
    if shift_n < 1:
        raise ValueError(f"{sample_rate} Hz is too low a rate for the "
                         f"{FRAME_SHIFT * 1000:g} ms frame shift")
    return win_n, shift_n


def _parse_wav(r: Reader) -> Waveform:
    riff, _, wave = r.take("<4sI4s")
    if riff != b"RIFF" or wave != b"WAVE":
        raise FormatError("not a RIFF/WAVE file")
    fmt = payload = None
    while r.remaining:
        cid, size = r.take("<4sI")
        if cid == b"fmt ":
            if size < 16:
                raise FormatError("truncated fmt chunk")
            fmt = r.take("<HHIIHH")
            r.skip(size - 16)
        elif cid == b"data":
            if size % 2 or not size:
                raise FormatError("data chunk is empty or has odd length")
            payload = r.array("<i2", (size // 2,))
        else:
            r.skip(size)
        r.skip(size & 1)

    if fmt is None or payload is None:
        raise FormatError("missing fmt or data chunk")
    audio_format, n_channels, sample_rate, _, _, bits = fmt
    if audio_format != 1:
        raise FormatError(f"unsupported WAV encoding {audio_format} (PCM only)")
    if bits != 16:
        raise FormatError(f"unsupported sample width {bits} bits (16-bit only)")
    if n_channels != 1:
        raise FormatError(f"{n_channels} channels unsupported (mono only)")
    return Waveform(payload.astype(np.float64) / _WAV_SCALE, sample_rate)


def read_wav(path) -> Waveform:
    """Read a 16-bit mono PCM RIFF file into a Waveform.

    Raises FormatError for anything that is not plain 16-bit mono PCM (8-bit
    or float encodings, multichannel files, malformed or short chunks). The
    Waveform records `path`, where `features.nmc_map` keeps its NMC."""
    wav = read_file(path, _parse_wav)
    wav.path = Path(path)
    return wav


def write_wav(path, wav: Waveform) -> None:
    """Write a Waveform as 16-bit mono PCM, clipping to the int16 range."""
    ints = np.clip(np.round(wav.samples * _WAV_SCALE), -32768, 32767).astype("<i2")
    payload = ints.tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, 1, 1, wav.sample_rate,
        wav.sample_rate * 2, 2, 16,
        b"data", len(payload),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def mix_noise_at_snr(clean: Waveform, noise: Waveform, snr_db: float) -> Waveform:
    """Add noise to clean speech at the requested SNR.

    The noise must have as many samples as the clean signal (ValueError
    otherwise). It is scaled so that 10*log10(P_clean / P_noise) over the
    whole utterance equals snr_db. The mix is clipped to [-1, 1]; a warning
    reports the clipped fraction when any sample clips.
    """
    if clean.sample_rate != noise.sample_rate:
        raise ValueError("clean and noise sample rates differ")
    seg = noise.samples
    if len(seg) != len(clean.samples):
        raise ValueError(f"noise has {len(seg)} samples, the clean signal "
                         f"{len(clean.samples)}")
    noise_power = float(np.mean(np.square(seg)))
    if noise_power <= 0.0:
        raise ConfigError("noise signal has zero power")
    clean_power = float(np.mean(np.square(clean.samples)))
    scale = np.sqrt(clean_power / noise_power) * 10.0 ** (-snr_db / 20.0)
    mixed = clean.samples + scale * seg
    n_clip = int(np.sum(np.abs(mixed) > 1.0))
    if n_clip:
        warnings.warn(
            f"mix_noise_at_snr: clipped {n_clip / len(mixed):.3%} of samples",
            stacklevel=2,
        )
        mixed = np.clip(mixed, -1.0, 1.0)
    return Waveform(mixed, clean.sample_rate)
