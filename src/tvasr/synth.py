"""Synthetic articulation: gestural scores, tract-variable trajectories, and
a toy source-filter synthesizer that turns trajectories into audio.

Eight tract variables (TVs) describe the vocal tract per frame, normalized
to [0, 1]: lip aperture/protrusion, tongue-body constriction location and
degree, tongue-tip constriction location and degree, velum, glottis. A fixed
inventory of gesture units (pseudo-phones) sets per-TV targets; a fixed
30-word vocabulary strings units into words. Utterances are scored by
concatenating word templates, optionally corrupted by a dysarthria-severity
knob: durations stretch by (1+s), targets are pulled toward the neutral 0.5
by s/2, and unit onsets jitter with sigma = 20*s ms.

Synthesis drives a pulse/noise source gated by the glottis TV through three
cascaded resonators whose center frequencies are affine in the tongue-body,
tongue-tip, and lip TVs, filtered as one cascade of second-order sections
per frame. Lip protrusion and velum have no acoustic effect; they are only
recoverable through their correlation with the audible TVs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.signal import sosfilt

from .audio import DEFAULT_SAMPLE_RATE, FRAME_SHIFT, Waveform, frame_samples


def _public_sosfilt(sos, x, zi):
    """`sosfilt` along the rows of `x`, in place, in the argument order and
    (rows, sections, 2) state layout of its compiled core."""
    x[...], zf = sosfilt(sos, x, zi=np.moveaxis(zi, 1, 0))
    zi[...] = np.moveaxis(zf, 0, 1)


# Every IIR filter of the program (synthesis, TV smoothing, NMC) is a
# cascade of second-order sections, and synthesis runs one per 10 ms frame,
# so they call sosfilt's compiled core in place, without sosfilt's checks,
# input copy and axis moves; the arithmetic, and so every bit, is the same.
try:
    from scipy.signal._sosfilt import _sosfilt
except ImportError:  # a scipy without that core: the same bits, slower
    _sosfilt = _public_sosfilt

TV_CHANNELS = (
    "lip_aperture",
    "lip_protrusion",
    "tongue_body_loc",
    "tongue_body_deg",
    "tongue_tip_loc",
    "tongue_tip_deg",
    "velum",
    "glottis",
)
N_TVS = len(TV_CHANNELS)
NEUTRAL_TV = 0.5
SILENCE_CLASS = 0

_LA, _LP, _TBL, _TBD, _TTL, _TTD, _VEL, _GLO = range(N_TVS)

# Time constant of the critically damped articulator response.
TV_TIME_CONSTANT = 0.040
# Pitch of the synthesizer's glottal pulse train, in Hz.
F0 = 100.0


@dataclass
class TVTrajectory:
    """Tract-variable matrix, shape (T, 8), entries in [0, 1], one row
    every FRAME_SHIFT."""

    frames: np.ndarray

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[1] != N_TVS:
            raise ValueError(f"TV trajectory must be (T, {N_TVS})")
        if self.frames.shape[0] < 1:
            raise ValueError("TV trajectory must have at least one frame")
        if not np.all(np.isfinite(self.frames)):
            raise ValueError("TV trajectory contains non-finite values")
        if self.frames.min() < -1e-9 or self.frames.max() > 1.0 + 1e-9:
            raise ValueError("TV values must lie in [0, 1]")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


@dataclass(frozen=True)
class GestureUnit:
    """One articulatory unit: a class id, canonical duration, per-TV targets."""

    class_id: int
    name: str
    duration: float
    targets: tuple  # ((tv_index, target), ...)


@dataclass(frozen=True)
class Word:
    name: str
    unit_ids: tuple


@dataclass
class Gesture:
    """A realized constriction gesture on one TV channel."""

    onset: float
    offset: float
    target: float


@dataclass
class Segment:
    """Realized unit interval; the source of per-frame class labels."""

    class_id: int
    onset: float
    offset: float


@dataclass
class GesturalScore:
    duration: float
    tv_gestures: list  # per TV channel: list[Gesture]
    segments: list  # list[Segment]


@lru_cache(maxsize=1)
def default_inventory():
    """Fixed 20-unit inventory; class ids 1..20 (0 is silence).

    Ten strong-cue articulations (lip aperture, tongue-body degree,
    tongue-tip location, glottis) each appear as a twin pair that shares
    those targets but differs in tongue-tip degree (a weak formant cue),
    velum, and lip protrusion (acoustically silent). Twins are therefore
    hard to separate from audio alone, especially in noise, while their
    tract variables separate them plainly.
    """
    rng = np.random.default_rng(202406)
    combos = [(la, tbd, ttl, glo)
              for la in (0.25, 0.75)
              for tbd in (0.15, 0.85)
              for ttl in (0.2, 0.8)
              for glo in (0.15, 0.9)]
    order = rng.permutation(len(combos))[:10]
    units = []
    for i, combo_idx in enumerate(order):
        la, tbd, ttl, glo = combos[combo_idx]
        tbl = float(rng.choice([0.2, 0.5, 0.8]))
        duration = float(rng.choice([0.08, 0.10, 0.12, 0.14]))
        for twin, (ttd, vel, lp_shift) in enumerate([(0.25, 0.2, -0.05),
                                                     (0.75, 0.8, 0.05)]):
            targets = (
                (_LA, la),
                (_LP, float(np.clip(1.0 - la + lp_shift, 0.0, 1.0))),
                (_TBL, tbl),
                (_TBD, tbd),
                (_TTL, ttl),
                (_TTD, ttd),
                (_VEL, vel),
                (_GLO, glo),
            )
            class_id = 2 * i + twin + 1
            units.append(GestureUnit(class_id, f"u{class_id:02d}", duration,
                                     targets))
    return tuple(units)


@lru_cache(maxsize=1)
def default_vocabulary():
    """Fixed 30-word vocabulary of 2-4 unit templates over the inventory."""
    rng = np.random.default_rng(795310)
    units = default_inventory()
    words = []
    for w in range(30):
        length = int(rng.integers(2, 5))
        ids = tuple(int(units[j].class_id)
                    for j in rng.integers(0, len(units), size=length))
        words.append(Word(f"w{w + 1:02d}", ids))
    return tuple(words)


def n_gesture_classes() -> int:
    """Number of frame classes including silence (class 0)."""
    return len(default_inventory()) + 1


# a score's lead and tail silence, and the range of its inter-word gaps (s)
_EDGE_SILENCE = 0.08
_WORD_GAP = (0.05, 0.10)


def generate_gestural_score(rng_seed, vocab, dysarthria_severity: float,
                            n_words_range=(1, 2)):
    """Score a random utterance from `vocab` at the given severity.

    Returns (GesturalScore, transcript). Severity s in [0, 1] stretches unit
    durations by (1+s), pulls targets toward 0.5 by s/2, and jitters unit
    onsets with sigma = 20*s ms. Severity 0 reproduces the canonical
    templates exactly. Identical seeds give identical scores.
    """
    if not vocab:
        raise ValueError("vocabulary must be non-empty")
    s = float(dysarthria_severity)
    if not 0.0 <= s <= 1.0:
        raise ValueError("severity must lie in [0, 1]")
    rng = np.random.default_rng(rng_seed)
    units_by_id = {u.class_id: u for u in default_inventory()}

    lo, hi = n_words_range
    n_words = int(rng.integers(lo, hi + 1))
    word_idx = rng.integers(0, len(vocab), size=n_words)
    transcript = [vocab[i].name for i in word_idx]

    tv_gestures = [[] for _ in range(N_TVS)]
    segments = []
    t = _EDGE_SILENCE  # lead silence
    for n, wi in enumerate(word_idx):
        if n:
            t += float(rng.uniform(*_WORD_GAP))  # inter-word gap
        for unit_id in vocab[wi].unit_ids:
            unit = units_by_id[unit_id]
            duration = unit.duration * (1.0 + s)
            onset = t
            if s > 0:
                onset = max(0.0, t + float(rng.normal(0.0, 0.020 * s)))
            offset = onset + duration
            segments.append(Segment(unit.class_id, onset, offset))
            for tv, target in unit.targets:
                realized = target + (NEUTRAL_TV - target) * (s / 2.0)
                tv_gestures[tv].append(Gesture(onset, offset, realized))
            t += duration
    duration = t + _EDGE_SILENCE  # tail silence
    return GesturalScore(duration, tv_gestures, segments), transcript


def max_score_duration(n_words: int, dysarthria_severity: float) -> float:
    """Seconds that no generate_gestural_score score of at most n_words
    words of `default_vocabulary()` at this severity exceeds."""
    longest_word = (max(len(w.unit_ids) for w in default_vocabulary())
                    * max(u.duration for u in default_inventory()))
    return (2 * _EDGE_SILENCE + (n_words - 1) * _WORD_GAP[1]
            + n_words * longest_word * (1.0 + dysarthria_severity))


def critically_damped_smooth(track: np.ndarray,
                             init: float = NEUTRAL_TV) -> np.ndarray:
    """Critically damped second-order response to a piecewise target track
    sampled every FRAME_SHIFT, along the last axis of a (T,) or (n, T) array.

    Implemented as two cascaded one-pole lowpass sections with the
    articulator time constant, both starting at rest at `init`, in one call
    over all rows; the output is a convex average of past targets, so it is
    monotone for steps and never overshoots the track's range.
    """
    alpha = np.exp(-FRAME_SHIFT / TV_TIME_CONSTANT)
    y = np.array(track, dtype=np.float64, order="C", ndmin=2)
    sos = np.tile([1.0 - alpha, 0.0, 0.0, 1.0, -alpha, 0.0], (2, 1))
    zi = np.zeros((len(y), 2, 2))
    zi[:, :, 0] = alpha * init
    _sosfilt(sos, y, zi)
    return y.reshape(np.shape(track))


def render_tvs(score: GesturalScore) -> TVTrajectory:
    """Render the score to per-frame TVs, one every FRAME_SHIFT.

    Each channel holds the neutral 0.5 outside gestures and the gesture
    target inside (later gestures win on overlap); the piecewise track is
    smoothed by the critically damped articulator response.
    """
    n_frames = max(1, int(round(score.duration / FRAME_SHIFT)))
    centers = (np.arange(n_frames) + 0.5) * FRAME_SHIFT
    tracks = np.full((N_TVS, n_frames), NEUTRAL_TV)
    for track, gestures in zip(tracks, score.tv_gestures):
        for g in gestures:
            track[(centers >= g.onset) & (centers < g.offset)] = g.target
    return TVTrajectory(np.clip(critically_damped_smooth(tracks).T, 0.0, 1.0))


def frame_labels(score: GesturalScore, n_frames: int) -> np.ndarray:
    """Per-frame unit class ids (silence 0 outside gestures, later unit wins)."""
    centers = (np.arange(n_frames) + 0.5) * FRAME_SHIFT
    labels = np.zeros(n_frames, dtype=np.int64)
    for seg in score.segments:
        labels[(centers >= seg.onset) & (centers < seg.offset)] = seg.class_id
    return labels


# Formant map: F1 follows the tongue body, F2 the tongue tip, F3 the lips.
_FORMANT_BANDWIDTHS = (90.0, 130.0, 180.0)


def _formants(tvs: np.ndarray) -> np.ndarray:
    f1 = 280.0 + 520.0 * tvs[:, _TBD]
    f2 = 850.0 + 1250.0 * tvs[:, _TTL]
    f3 = 2100.0 + 700.0 * tvs[:, _LA]
    return np.stack([f1, f2, f3], axis=1)


def synthesize_speech_from_tvs(tv: TVTrajectory, rng_seed) -> Waveform:
    """Source-filter synthesis of DEFAULT_SAMPLE_RATE audio from TVs.

    The glottis TV mixes a pulse train at F0 with white noise per sample;
    the mix drives three cascaded two-pole resonators whose coefficients are
    updated every frame from the formant map: one cascade of three
    second-order sections per frame, its state carried to the next frame.
    The output length is (T-1)*shift + win samples so that the frame grid
    of the front ends (FRAME_WIN windows every FRAME_SHIFT) yields exactly
    T frames; the waveform is peak-normalized to 0.9. Identical seed and TVs give
    bit-identical audio.
    """
    rng = np.random.default_rng(rng_seed)
    sample_rate = DEFAULT_SAMPLE_RATE
    win_n, shift_n = frame_samples(sample_rate)
    t_frames = tv.n_frames
    n = (t_frames - 1) * shift_n + win_n

    centers = np.arange(t_frames) * shift_n + shift_n / 2.0
    sample_pos = np.arange(n)
    glottis = np.interp(sample_pos, centers, tv.frames[:, _GLO])

    phase = np.cumsum(np.full(n, F0 / sample_rate))
    pulses = np.zeros(n)
    pulses[np.diff(np.floor(phase), prepend=0.0) > 0] = 3.0
    noise = rng.normal(0.0, 0.15, n)
    excitation = glottis * pulses + (1.0 - glottis) * noise

    # (T, 3, 6) sections, one per frame and formant: [gain, 0, 0, 1, a1, r^2]
    r = np.exp(-np.pi * np.asarray(_FORMANT_BANDWIDTHS) / sample_rate)
    cos_t = np.cos(2.0 * np.pi * _formants(tv.frames) / sample_rate)
    sos = np.zeros((t_frames, 3, 6))
    sos[:, :, 0] = 1.0 - 2.0 * r * cos_t + r * r
    sos[:, :, 3] = 1.0
    sos[:, :, 4] = -2.0 * r * cos_t
    sos[:, :, 5] = r * r
    out = excitation[None, :]  # filtered in place, one row
    zi = np.zeros((1, 3, 2))
    for frame in range(t_frames):
        start = frame * shift_n
        stop = n if frame == t_frames - 1 else (frame + 1) * shift_n
        _sosfilt(sos[frame], out[:, start:stop], zi)
    out = out[0]

    peak = np.max(np.abs(out))
    if peak > 0:
        out = out * (0.9 / peak)
    return Waveform(out, sample_rate)


# ---------------------------------------------------------------------------
# Parametric noise bank (desk-scale stand-in for recorded noise corpora)
# ---------------------------------------------------------------------------

NOISE_KINDS = ("white", "pink", "am", "hum")


def generate_noise(kind: str, n_samples: int,
                   rng: np.random.Generator) -> Waveform:
    """One DEFAULT_SAMPLE_RATE noise segment (RMS 0.1) of the requested kind."""
    t = np.arange(n_samples) / DEFAULT_SAMPLE_RATE
    if kind == "white":
        x = rng.normal(0.0, 1.0, n_samples)
    elif kind == "pink":
        spectrum = np.fft.rfft(rng.normal(0.0, 1.0, n_samples))
        spectrum /= np.sqrt(np.maximum(np.arange(len(spectrum)), 1.0))
        x = np.fft.irfft(spectrum, n_samples)
    elif kind == "am":
        # 4 Hz amplitude-modulated noise as a babble proxy
        x = rng.normal(0.0, 1.0, n_samples) * 0.5 * (1.0 + np.sin(2 * np.pi * 4.0 * t))
    elif kind == "hum":
        x = (np.sin(2 * np.pi * 50.0 * t) + 0.4 * np.sin(2 * np.pi * 100.0 * t)
             + 0.2 * np.sin(2 * np.pi * 150.0 * t)
             + 0.05 * rng.normal(0.0, 1.0, n_samples))
    else:
        raise ValueError(f"unknown noise kind {kind!r}")
    x = x * (0.1 / max(np.sqrt(np.mean(np.square(x))), 1e-12))
    return Waveform(np.clip(x, -1.0, 1.0))
