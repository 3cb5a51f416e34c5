import hashlib
import os
import struct
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.signal import butter, sosfilt

from helpers import reference_logmel, reference_nmc, reference_norm_stats
from tvasr import features
from tvasr.audio import Waveform, read_wav, write_wav
from tvasr.errors import FormatError
from tvasr.features import (LOG_FLOOR, SpliceSpec, _am_subband_bank,
                            _usable_cpus, append_deltas, frame_count,
                            hz_to_mel, load_feature_matrix, logmel_filterbank,
                            mel_band_edges, mel_filterbank_weights, mel_to_hz,
                            nmc_features, nmc_map, norm_stats,
                            save_feature_matrix, splice_indices)
from tvasr.synth import TVTrajectory
from tvasr.training import stack_utterances

SR = 16000


def tone(freq, seconds=1.0, amp=0.3):
    t = np.arange(int(seconds * SR)) / SR
    return Waveform(amp * np.sin(2 * np.pi * freq * t), SR)


class TestLogmel:
    def test_frame_count_formula(self):
        rng = np.random.default_rng(0)
        wav = Waveform((0.1 * rng.standard_normal(SR)).clip(-1, 1), SR)
        # floor((16000 - 400) / 160) + 1
        assert logmel_filterbank(wav, n_bands=40).shape == (98, 40)

    def test_silence_hits_log_floor(self):
        feats = logmel_filterbank(Waveform(np.zeros(SR), SR))
        assert np.all(feats == np.log(LOG_FLOOR))

    def test_pure_tone_peaks_at_nearest_mel_band(self):
        # oracle: the band whose mel center is nearest 1 kHz, from the
        # mel formulas alone
        edges_mel = np.linspace(hz_to_mel(0.0), hz_to_mel(SR / 2), 42)
        centers_hz = mel_to_hz(edges_mel[1:-1])
        expected = int(np.argmin(np.abs(centers_hz - 1000.0)))
        feats = logmel_filterbank(tone(1000.0))
        assert np.all(feats.argmax(axis=1) == expected)

    def test_too_short_waveform(self):
        with pytest.raises(ValueError):
            logmel_filterbank(Waveform(np.zeros(100), SR))

    def test_finite_on_extreme_inputs(self):
        square = Waveform(np.sign(np.sin(2 * np.pi * 300 * np.arange(SR) / SR))
                          * (1.0 - 1e-12), SR)
        for wav in (square, Waveform(np.zeros(2000), SR)):
            assert np.all(np.isfinite(logmel_filterbank(wav)))


class TestDeltas:
    def test_constant_gives_zero_deltas(self):
        out = append_deltas(np.full((20, 4), 3.3))
        assert out.shape == (20, 12)
        assert np.allclose(out[:, 4:], 0.0)

    def test_linear_ramp_interior_delta_is_one(self):
        # regression window +-2, denominator 10: (1*2 + 2*4) / 10 = 1
        out = append_deltas(np.arange(30.0)[:, None])
        assert np.allclose(out[2:-2, 1], 1.0)
        assert np.allclose(out[4:-4, 2], 0.0)

    def test_single_frame_replication(self):
        out = append_deltas(np.array([[5.0, -1.0]]))
        assert np.array_equal(out, [[5.0, -1.0, 0, 0, 0, 0]])

    def test_time_reversal_negates_delta_only(self):
        rng = np.random.default_rng(1)
        frames = rng.standard_normal((40, 3))
        fwd = append_deltas(frames)
        rev = append_deltas(frames[::-1])
        interior = slice(4, 36)
        assert np.allclose(rev[::-1][interior, 3:6], -fwd[interior, 3:6])
        assert np.allclose(rev[::-1][interior, 6:9], fwd[interior, 6:9])


class TestNmc:
    def test_silence_constant_floor_vector(self):
        feats = nmc_features(Waveform(np.zeros(SR), SR))
        assert feats.shape == (98, 40)
        assert np.allclose(feats, feats[0])

    def test_output_dims(self):
        rng = np.random.default_rng(0)
        wav = Waveform((0.1 * rng.standard_normal(SR)).clip(-1, 1), SR)
        assert nmc_features(wav).shape == (98, 40)

    def test_am_tone_has_more_modulation_than_pure_tone(self):
        t = np.arange(2 * SR) / SR
        carrier = np.sin(2 * np.pi * 1000 * t)
        am = 0.5 * (1 + np.sin(2 * np.pi * 8 * t)) * carrier
        pure = carrier * np.sqrt(np.mean(am ** 2))  # equal power
        am_wav = Waveform(0.8 * am / np.abs(am).max(), SR)
        pure_wav = Waveform(0.8 * pure / np.abs(pure).max(), SR)

        # oracle: envelope variance in the carrier subband, computed with a
        # test-local filter chain
        def envelope_variance(wav):
            band = butter(2, [900 / 8000, 1100 / 8000], "band", output="sos")
            low = butter(2, 30 / 8000, "low", output="sos")
            envelope = sosfilt(low, np.abs(sosfilt(band, wav.samples)))
            return float(np.var(envelope[SR // 4:]))

        assert envelope_variance(am_wav) > 2.0 * envelope_variance(pure_wav)
        coeff_var = lambda wav: float(np.mean(np.var(
            nmc_features(wav), axis=0)))
        assert coeff_var(am_wav) > coeff_var(pure_wav)

    def test_finite_on_extremes(self):
        square = Waveform(np.sign(np.sin(2 * np.pi * 250 * np.arange(SR) / SR))
                          * (1.0 - 1e-12), SR)
        assert np.all(np.isfinite(nmc_features(square)))


class TestFrontEndsMatchOracles:
    # 400 and 200 samples are exactly one 25 ms window at 16 and 8 kHz; the
    # rates and coefficient counts alternate so that every call switches
    # cached filter designs
    CASES = [(16000, 400, 40), (8000, 200, 13), (16000, 401, 13),
             (8000, 201, 40), (16000, 1234, 40), (8000, 617, 13),
             (16000, 16000, 13), (8000, 8000, 40), (16000, 5000, 13)]

    @staticmethod
    def utterance(sample_rate, n_samples, seed):
        rng = np.random.default_rng(seed)
        t = np.arange(n_samples) / sample_rate
        swell = 0.5 * (1.0 + np.sin(2 * np.pi * 4.0 * t))
        return Waveform(np.tanh(0.3 * swell * rng.standard_normal(n_samples)),
                        sample_rate)

    def test_nmc_bit_identical_to_per_band_oracle(self):
        for seed, (rate, n, n_coeffs) in enumerate(self.CASES):
            wav = self.utterance(rate, n, seed)
            assert np.array_equal(nmc_features(wav, n_coeffs),
                                  reference_nmc(wav.samples, rate, n_coeffs))

    def test_logmel_bit_identical_to_oracle(self):
        for seed, (rate, n, n_bands) in enumerate(self.CASES):
            wav = self.utterance(rate, n, seed)
            assert np.array_equal(logmel_filterbank(wav, n_bands),
                                  reference_logmel(wav.samples, rate, n_bands))

    def test_frame_count_is_every_extractors_length(self):
        for seed, (rate, n, n_coeffs) in enumerate(self.CASES):
            wav = self.utterance(rate, n, seed)
            assert frame_count(wav) == len(logmel_filterbank(wav)) == len(
                nmc_features(wav, n_coeffs)) == len(
                reference_logmel(wav.samples, rate))
        with pytest.raises(ValueError, match="shorter than one 400-sample"):
            frame_count(self.utterance(16000, 399, 0))
        for rate in (1, 50):  # the 10 ms shift rounds to no sample
            with pytest.raises(ValueError, match="too low a rate"):
                frame_count(self.utterance(rate, 400, 0))


class TestCachedFilterDesigns:
    def test_designs_are_read_only(self):
        bandpasses, envelope_lp = _am_subband_bank(40, SR)
        for design in (mel_filterbank_weights(40, SR), bandpasses[0],
                       bandpasses[-1], envelope_lp):
            with pytest.raises(ValueError):
                design[0, 0] = 1.0

    def test_designed_once_per_key(self):
        wav = TestFrontEndsMatchOracles.utterance(SR, 800, 0)
        _am_subband_bank.cache_clear()
        mel_filterbank_weights.cache_clear()
        for _ in range(50):
            nmc_features(wav)
            logmel_filterbank(wav)
        assert _am_subband_bank.cache_info().misses == 1
        assert _am_subband_bank.cache_info().hits == 49
        assert mel_filterbank_weights.cache_info().misses == 1


class TestNmcMap:
    @staticmethod
    def waveforms(n, rates=(16000, 8000)):
        """n utterances of mixed lengths (0.025 to 0.5 s), rates alternating."""
        return [TestFrontEndsMatchOracles.utterance(
                    rates[i % len(rates)],
                    int(rates[i % len(rates)] * (0.025 + 0.475 * (i % 5) / 4)) + i,
                    100 + i)
                for i in range(n)]

    def check_matches_one_at_a_time(self, n_coeffs):
        wavs = self.waveforms(2 * _usable_cpus() + 3)
        mapped = nmc_map(wavs, n_coeffs)
        assert len(mapped) == len(wavs)
        for wav, feats in zip(wavs, mapped):
            assert np.array_equal(feats, nmc_features(wav, n_coeffs))
            assert np.array_equal(feats, reference_nmc(wav.samples,
                                                       wav.sample_rate, n_coeffs))

    def test_bit_identical_to_one_at_a_time_and_oracle(self):
        for n_coeffs in (40, 13):
            self.check_matches_one_at_a_time(n_coeffs)

    def test_bit_identical_with_frequent_thread_switches(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            self.check_matches_one_at_a_time(40)
        finally:
            sys.setswitchinterval(interval)

    def test_empty_and_single(self):
        assert nmc_map([]) == []
        wav = self.waveforms(1)[0]
        (feats,) = nmc_map([wav], 13)
        assert np.array_equal(feats, nmc_features(wav, 13))

    def test_short_waveform_raises_and_every_thread_stops(self):
        short = Waveform(np.zeros(399), SR)  # one sample short of a window
        with pytest.raises(ValueError) as alone:
            nmc_features(short)
        wavs = self.waveforms(2 * _usable_cpus() + 4)
        wavs[len(wavs) // 2] = short
        before = threading.active_count()
        with pytest.raises(ValueError) as mapped:
            nmc_map(wavs)
        assert str(mapped.value) == str(alone.value)
        assert threading.active_count() == before

    @pytest.mark.parametrize("n_cpus, n_wavs", [(3, 3), (3, 2), (1, 2)])
    def test_one_thread_per_cpu_and_never_more_than_waveforms(
            self, monkeypatch, n_cpus, n_wavs):
        n_threads = min(n_cpus, n_wavs)
        # the pool's workers compute while the caller waits; a one-thread
        # call runs on the caller and starts none
        workers = n_threads if n_threads > 1 else 0
        before = threading.active_count()
        running = []
        # each call waits for n_threads calls at once, so no thread takes
        # two; the barrier counts the threads while every one is inside it
        meet = threading.Barrier(n_threads, timeout=30, action=lambda:
                                 running.append(threading.active_count()))

        def fake_nmc(wav, n_coeffs):
            meet.wait()
            return wav.sample_rate

        monkeypatch.setattr(features, "_usable_cpus", lambda: n_cpus)
        monkeypatch.setattr(features, "nmc_features", fake_nmc)
        wavs = self.waveforms(n_wavs)
        assert nmc_map(wavs) == [w.sample_rate for w in wavs]
        assert running == [before + workers] * (n_wavs // n_threads)
        assert threading.active_count() == before

    @pytest.mark.parametrize("n_cpus, n_wavs", [(4, 1), (1, 3)])
    def test_one_waveform_or_one_cpu_starts_no_thread(self, monkeypatch,
                                                      n_cpus, n_wavs):
        threads = []

        def fake_nmc(wav, n_coeffs):
            threads.append(threading.current_thread())
            return wav.sample_rate

        def no_start(thread):
            raise AssertionError("nmc_map started a thread")

        monkeypatch.setattr(features, "_usable_cpus", lambda: n_cpus)
        monkeypatch.setattr(features, "nmc_features", fake_nmc)
        monkeypatch.setattr(threading.Thread, "start", no_start)
        wavs = self.waveforms(n_wavs)
        assert nmc_map(wavs) == [w.sample_rate for w in wavs]
        assert threads == [threading.current_thread()] * n_wavs

    def test_first_failing_waveform_wins(self, monkeypatch):
        # waveforms 1 and 2 both fail, each while the other is running
        both = threading.Barrier(2, timeout=30)

        def fake_nmc(wav, n_coeffs):
            if len(wav.samples) > 1:
                both.wait()
                raise ValueError(f"waveform {len(wav.samples) - 1}")
            return 0

        monkeypatch.setattr(features, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(features, "nmc_features", fake_nmc)
        wavs = [Waveform(np.zeros(n), SR) for n in (1, 2, 3)]
        with pytest.raises(ValueError, match="waveform 1"):
            nmc_map(wavs)

    def test_filter_banks_designed_once_per_key(self):
        _am_subband_bank.cache_clear()
        nmc_map(self.waveforms(8))  # 16 and 8 kHz, four of each
        assert _am_subband_bank.cache_info().misses == 2

    def test_import_starts_no_thread(self):
        code = ("import threading, tvasr, tvasr.cli; "
                "print(threading.active_count())")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, env=env).stdout
        assert out.strip() == "1"


class TestNmcSidecar:
    @staticmethod
    def wav_file(path, seed=0, n_samples=1234):
        """A WAV of a seeded utterance at `path`, read back."""
        write_wav(path, TestFrontEndsMatchOracles.utterance(SR, n_samples, seed))
        return read_wav(path)

    @staticmethod
    def counting(monkeypatch):
        """Patch nmc_features to record the waveforms it is called on."""
        calls = []

        def recording(wav, n_coeffs=40):
            calls.append(wav)
            return nmc_features(wav, n_coeffs)

        monkeypatch.setattr(features, "nmc_features", recording)
        return calls

    def test_computed_once_then_read(self, tmp_path, monkeypatch):
        wav = self.wav_file(tmp_path / "a.wav")
        assert wav.path == tmp_path / "a.wav"
        expected = nmc_features(wav, 13)
        calls = self.counting(monkeypatch)
        (first,) = nmc_map([wav], 13)
        assert len(calls) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.nmc", "a.wav"]
        (second,) = nmc_map([read_wav(tmp_path / "a.wav")], 13)
        assert len(calls) == 1
        assert np.array_equal(first, expected)
        assert np.array_equal(second, expected)
        assert second.flags.writeable

    def test_other_coefficient_count_is_recomputed(self, tmp_path,
                                                   monkeypatch):
        wav = self.wav_file(tmp_path / "a.wav")
        nmc_map([wav], 13)
        calls = self.counting(monkeypatch)
        for n_coeffs in (40, 13):
            (feats,) = nmc_map([wav], n_coeffs)
            assert np.array_equal(feats, nmc_features(wav, n_coeffs))
        assert len(calls) == 2

    def test_rewritten_wav_is_recomputed(self, tmp_path, monkeypatch):
        path = tmp_path / "a.wav"
        nmc_map([self.wav_file(path, seed=0)])
        other = self.wav_file(path, seed=1)  # same length, other samples
        calls = self.counting(monkeypatch)
        (feats,) = nmc_map([other])
        assert len(calls) == 1
        assert np.array_equal(feats, nmc_features(other))
        calls.clear()
        (again,) = nmc_map([read_wav(path)])
        assert calls == []
        assert np.array_equal(again, feats)

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_a_failing_waveform_writes_no_sidecar(self, tmp_path,
                                                  monkeypatch, n_cpus):
        wavs = [self.wav_file(tmp_path / f"{i}.wav", seed=i) for i in range(3)]
        wavs.append(self.wav_file(tmp_path / "short.wav", n_samples=399))
        monkeypatch.setattr(features, "_usable_cpus", lambda: n_cpus)
        calls = self.counting(monkeypatch)
        with pytest.raises(ValueError):
            nmc_map(wavs)
        assert len(calls) == 3  # the others were computed, then dropped
        assert sorted(p.suffix for p in tmp_path.iterdir()) == [".wav"] * 4

    def test_failed_write_is_skipped(self, tmp_path, monkeypatch):
        wav = self.wav_file(tmp_path / "a.wav")

        def no_space(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(features.os, "replace", no_space)
        (feats,) = nmc_map([wav])
        assert np.array_equal(feats, nmc_features(wav))
        assert [p.name for p in tmp_path.iterdir()] == ["a.wav"]

    def test_wav_named_like_its_sidecar_is_kept(self, tmp_path, monkeypatch):
        wav = self.wav_file(tmp_path / "x.nmc")
        blob = (tmp_path / "x.nmc").read_bytes()
        calls = self.counting(monkeypatch)
        for _ in range(2):
            (feats,) = nmc_map([wav])
            assert np.array_equal(feats, nmc_features(wav))
        assert len(calls) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["x.nmc"]
        assert (tmp_path / "x.nmc").read_bytes() == blob

    def test_audio_made_in_memory_is_never_cached(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        wav = TestFrontEndsMatchOracles.utterance(SR, 1234, 0)
        assert wav.path is None
        nmc_map([wav, wav])
        assert list(tmp_path.iterdir()) == []

    def test_revision_pins_the_nmc_bits(self):
        """Change _NMC_REVISION with the NMC bits, so that sidecars of the
        old bits are recomputed, then pin the new digest here."""
        wav = TestFrontEndsMatchOracles.utterance(SR, 16000, 2024)
        digest = hashlib.sha256(nmc_features(wav).tobytes()).hexdigest()
        assert (features._NMC_REVISION, digest) == (
            1, "50aa0b9a066600c7d25df94167f2444f033e4da18881528bfcff9f3b102cd7c7")


def test_nmc_memory_is_bounded():
    """A 10 s, 16 kHz utterance: bands are filtered a block at a time."""
    wav = TestFrontEndsMatchOracles.utterance(SR, 10 * SR, 0)
    nmc_features(wav)  # design the filters outside the measurement
    tracemalloc.start()
    try:
        nmc_features(wav)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 25 * 2 ** 20


def z_normalized(frames, stats):
    """The transform every dataset and `invert` apply with frozen stats."""
    return (frames - stats.mean) / stats.std


def spliced(per_utt, spec):
    """Spliced rows of stacked utterances, as FrameDataset.gather builds them."""
    frames, indices = stack_utterances(per_utt.__getitem__,
                                       [len(a) for a in per_utt], spec)
    return frames[indices].reshape(len(indices), -1)


class TestZNormalize:
    def test_normalizes_to_zero_mean_unit_std(self):
        rng = np.random.default_rng(2)
        frames = rng.standard_normal((50, 6)) * 3 + 1
        stats = norm_stats([frames[:20], frames[20:]])
        out = z_normalized(frames, stats)
        assert np.all(np.abs(out.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(out.std(axis=0) - 1.0) < 1e-9)
        assert stats.mean.shape == stats.std.shape == (6,)

    def test_constant_column_zeroed(self):
        frames = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
        out = z_normalized(frames, norm_stats([frames]))
        assert np.allclose(out[:, 0], 0.0)

    def test_frozen_stats_do_not_leak(self):
        rng = np.random.default_rng(3)
        train = rng.standard_normal((50, 4))
        held = rng.standard_normal((50, 4)) + 2.0
        out = z_normalized(held, norm_stats([train]))
        assert np.all(np.abs(out.mean(axis=0)) > 0.5)

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        frames = rng.standard_normal((64, 5))
        once = z_normalized(frames, norm_stats([frames]))
        twice = z_normalized(once, norm_stats([once]))
        assert np.max(np.abs(twice - once)) <= 1e-9


class TestStreamedNormStats:
    """norm_stats sums utterance by utterance, with the bits of one numpy
    reduction over the concatenated frames."""

    @staticmethod
    def assert_same_bits(per_utt):
        stats = norm_stats(per_utt)
        mean, std = reference_norm_stats(per_utt)
        assert stats.mean.tobytes() == mean.tobytes()
        assert stats.std.tobytes() == std.tobytes()

    @pytest.mark.parametrize("width", [2, 7, 120])
    def test_ragged_utterances_of_mixed_magnitudes(self, width):
        rng = np.random.default_rng(width)
        lengths = rng.integers(1, 300, 80)
        lengths[5] = 1
        scales = 10.0 ** rng.integers(-9, 10, width)
        offsets = rng.standard_normal(width) * 1e4 * scales
        self.assert_same_bits([rng.standard_normal((t, width)) * scales
                               + offsets for t in lengths])

    def test_single_frame_utterances_and_constant_columns(self):
        rng = np.random.default_rng(11)
        per_utt = [np.column_stack([np.full(t, 7.0), rng.standard_normal(t)])
                   for t in (1, 1, 3, 1)]
        self.assert_same_bits(per_utt)
        assert norm_stats(per_utt).std[0] == 1e-8

    def test_log_mel_features(self):
        utts = [append_deltas(logmel_filterbank(
            TestFrontEndsMatchOracles.utterance(SR, n, seed)))
            for seed, n in enumerate((400, 560, 5000, 16000, 1234))]
        self.assert_same_bits(utts)

    def test_no_frames_rejected(self):
        for per_utt in ([], [np.zeros((0, 3))]):
            with pytest.raises(ValueError, match="at least one frame"):
                norm_stats(per_utt)


class TestSplice:
    def test_default_dims_triple_stream(self):
        out = spliced([np.zeros((30, 120)), np.zeros((5, 120))], SpliceSpec())
        assert out.shape == (35, 2040)  # 120 * 17
        assert splice_indices(30, SpliceSpec()).shape == (30, 17)

    def test_unit_window_identity(self):
        rng = np.random.default_rng(5)
        frames = rng.standard_normal((12, 7))
        out = spliced([frames], SpliceSpec(0, 0))
        assert np.array_equal(out, frames.astype(np.float32))

    def test_edge_replication_by_hand(self):
        assert np.array_equal(splice_indices(3, SpliceSpec(1, 1)),
                              [[0, 0, 1], [0, 1, 2], [1, 2, 2]])
        # utterance boundaries clamp like the ends of the stack
        out = spliced([np.array([[1.0], [2.0], [3.0]]),
                       np.array([[4.0], [5.0]])], SpliceSpec(1, 1))
        assert np.array_equal(out, [[1, 1, 2], [1, 2, 3], [2, 3, 3],
                                    [4, 4, 5], [4, 5, 5]])

    def test_splice_after_unit_window_matches_plain_splice(self):
        rng = np.random.default_rng(6)
        frames = rng.standard_normal((9, 4))
        spec = SpliceSpec(2, 3)
        direct = spliced([frames], spec)
        via_unit = spliced([spliced([frames], SpliceSpec(0, 0))], spec)
        assert np.array_equal(direct, via_unit)

    def test_negative_extent_rejected(self):
        with pytest.raises(ValueError):
            SpliceSpec(-1, 0)


def fmx_bytes(frames, layout=(8, 8, 1, 1), shift=0.01):
    """An FMX1 file written field by field: T, D + layout, shift, float32."""
    frames = np.asarray(frames, dtype="<f4")
    return (struct.pack("<4sIIIIId", b"FMX1", len(frames), *layout, shift)
            + frames.tobytes())


class TestFeatureMatrixFile:
    """FMX1 files hold TV trajectories: (T, 8), layout (8, 1, 1), in [0, 1]."""

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        tvs = TVTrajectory(rng.uniform(size=(13, 8)))
        path = tmp_path / "feat.fmx"
        save_feature_matrix(path, tvs)
        assert path.read_bytes() == fmx_bytes(tvs.frames, shift=0.01)
        back = load_feature_matrix(path)
        assert isinstance(back, TVTrajectory)
        assert np.array_equal(back.frames,
                              tvs.frames.astype(np.float32).astype(np.float64))

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "feat.fmx"
        save_feature_matrix(path, TVTrajectory(np.zeros((4, 8))))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError):
            load_feature_matrix(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "feat.fmx"
        path.write_bytes(b"nope" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_feature_matrix(path)

    def test_layout_dim_invariant(self, tmp_path):
        path = tmp_path / "feat.fmx"
        for width, layout in [(6, (6, 2, 3, 1)), (9, (9, 9, 1, 1)),
                              (2, (2, 2, 1, 1)), (8, (8, 2, 4, 1)),
                              (8, (8, 8, 1, 2))]:
            path.write_bytes(fmx_bytes(np.zeros((3, width)), layout))
            with pytest.raises(FormatError, match="TV trajectory"):
                load_feature_matrix(path)

    def test_non_finite_rejected(self, tmp_path):
        """Non-finite values and values outside [0, 1] are not TVs."""
        path = tmp_path / "feat.fmx"
        for value in (np.inf, np.nan, 1.5, -0.25, 7.0):
            frames = np.zeros((3, 8))
            frames[1, 1] = value
            path.write_bytes(fmx_bytes(frames))
            with pytest.raises(FormatError):
                load_feature_matrix(path)

    @pytest.mark.parametrize("shift", [0.0, -0.01, np.inf, np.nan, 0.02,
                                       0.0125, np.nextafter(0.01, 1.0)])
    def test_unusable_frame_shift_rejected(self, tmp_path, shift):
        path = tmp_path / "feat.fmx"
        path.write_bytes(fmx_bytes(np.zeros((3, 8)), shift=shift))
        with pytest.raises(FormatError, match="frame shift"):
            load_feature_matrix(path)


def test_mel_band_edges_monotone():
    edges = mel_band_edges(40, SR)
    assert len(edges) == 42
    assert np.all(np.diff(edges) > 0)
    assert edges[0] == 0.0
    assert edges[-1] == pytest.approx(8000.0)
