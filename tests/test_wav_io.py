import struct

import numpy as np
import pytest

from tvasr.audio import Waveform, mix_noise_at_snr, read_wav, write_wav
from tvasr.errors import ConfigError, FormatError


def _write_raw_wav(path, audio_format=1, n_channels=1, sample_rate=16000,
                   bits=16, payload=b"\x00\x00" * 8):
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, audio_format, n_channels, sample_rate,
        sample_rate * n_channels * bits // 8, n_channels * bits // 8, bits,
        b"data", len(payload))
    path.write_bytes(header + payload)


class TestWaveform:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Waveform(np.array([]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Waveform(np.array([0.0, np.nan]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Waveform(np.array([0.0, 1.5]))

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Waveform(np.zeros(10), sample_rate=0)


class TestReadWriteWav:
    def test_silence_roundtrip(self, tmp_path):
        path = tmp_path / "silence.wav"
        write_wav(path, Waveform(np.zeros(16000), 16000))
        wav = read_wav(path)
        assert wav.sample_rate == 16000
        assert len(wav.samples) == 16000
        assert np.all(wav.samples == 0.0)

    def test_ramp_roundtrip_identity(self, tmp_path):
        samples = np.arange(1000) / 32768.0
        path = tmp_path / "ramp.wav"
        write_wav(path, Waveform(samples, 16000))
        back = read_wav(path)
        assert np.array_equal(back.samples, samples)

    def test_8bit_rejected(self, tmp_path):
        path = tmp_path / "eight.wav"
        _write_raw_wav(path, bits=8, payload=b"\x80" * 16)
        with pytest.raises(FormatError):
            read_wav(path)

    def test_multichannel_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        _write_raw_wav(path, n_channels=2)
        with pytest.raises(FormatError):
            read_wav(path)

    def test_float_encoding_rejected(self, tmp_path):
        path = tmp_path / "float.wav"
        _write_raw_wav(path, audio_format=3)
        with pytest.raises(FormatError):
            read_wav(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"RIFX" + b"\x00" * 60)
        with pytest.raises(FormatError):
            read_wav(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "short.wav"
        path.write_bytes(b"RIFF\x00\x00")
        with pytest.raises(FormatError):
            read_wav(path)

    def test_write_clips_overrange(self, tmp_path):
        path = tmp_path / "full.wav"
        write_wav(path, Waveform(np.array([1.0, -1.0]), 16000))
        back = read_wav(path)
        assert back.samples[0] == 32767 / 32768.0
        assert back.samples[1] == -1.0


class TestMixNoiseAtSnr:
    def test_high_snr_keeps_clean(self):
        rng = np.random.default_rng(0)
        clean = Waveform(0.3 * rng.standard_normal(8000).clip(-3, 3) / 3)
        noise = Waveform(0.3 * rng.standard_normal(8000).clip(-3, 3) / 3)
        mixed = mix_noise_at_snr(clean, noise, 80.0)
        rms_diff = np.sqrt(np.mean((mixed.samples - clean.samples) ** 2))
        assert rms_diff < 1e-3

    def test_equal_power_zero_db_unit_scale(self):
        clean = Waveform(np.tile([0.1, -0.1], 4000))
        noise = Waveform(np.tile([0.1, 0.1, -0.1, -0.1], 2000))
        mixed = mix_noise_at_snr(clean, noise, 0.0)
        scale = (mixed.samples - clean.samples) / noise.samples
        assert np.allclose(scale, 1.0, atol=1e-6)

    def test_hand_computed_scale(self):
        # rms 0.1 clean, rms 0.2 noise, 10 dB: scale = 0.5 * 10^-0.5
        clean = Waveform(np.tile([0.1, -0.1], 4000))
        noise = Waveform(np.tile([0.2, -0.2], 4000))
        mixed = mix_noise_at_snr(clean, noise, 10.0)
        scale = (mixed.samples - clean.samples) / noise.samples
        assert np.allclose(scale, 0.15811388300841897, atol=1e-9)

    @pytest.mark.parametrize("snr_db", [10.0, 40.0, 80.0])
    def test_achieved_snr_within_tenth_db(self, snr_db):
        rng = np.random.default_rng(7)
        clean = Waveform(0.2 * np.sin(2 * np.pi * 440 * np.arange(16000) / 16000))
        noise = Waveform((0.1 * rng.standard_normal(16000)).clip(-1, 1))
        mixed = mix_noise_at_snr(clean, noise, snr_db)
        scaled_noise = mixed.samples - clean.samples
        achieved = 10 * np.log10(np.mean(clean.samples ** 2) /
                                 np.mean(scaled_noise ** 2))
        assert abs(achieved - snr_db) < 0.1

    @pytest.mark.parametrize("n_noise", [3000, 15999, 16001])
    def test_noise_of_another_length_refused(self, n_noise):
        rng = np.random.default_rng(3)
        clean = Waveform((0.2 * rng.standard_normal(16000)).clip(-1, 1))
        noise = Waveform((0.2 * rng.standard_normal(n_noise)).clip(-1, 1))
        with pytest.raises(ValueError, match="samples"):
            mix_noise_at_snr(clean, noise, 20.0)

    def test_zero_power_noise_rejected(self):
        clean = Waveform(np.tile([0.1, -0.1], 100))
        with pytest.raises(ConfigError):
            mix_noise_at_snr(clean, Waveform(np.zeros(200)), 10.0)

    def test_clipping_warns(self):
        clean = Waveform(np.full(2000, 0.9))
        noise = Waveform(np.tile([0.9, -0.9], 1000))
        with pytest.warns(UserWarning, match="clipped"):
            mixed = mix_noise_at_snr(clean, noise, 0.0)
        assert np.max(np.abs(mixed.samples)) <= 1.0

    def test_sample_rate_mismatch(self):
        clean = Waveform(np.tile([0.1, -0.1], 100), 16000)
        noise = Waveform(np.tile([0.1, -0.1], 100), 8000)
        with pytest.raises(ValueError):
            mix_noise_at_snr(clean, noise, 10.0)
