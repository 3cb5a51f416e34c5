import numpy as np
import pytest

from helpers import reference_render_tvs, reference_synthesis
from tvasr import synth
from tvasr.features import logmel_filterbank
from tvasr.synth import (NEUTRAL_TV, NOISE_KINDS, N_TVS, TVTrajectory,
                         critically_damped_smooth, default_inventory,
                         default_vocabulary, frame_labels,
                         generate_gestural_score, generate_noise,
                         n_gesture_classes, render_tvs,
                         synthesize_speech_from_tvs)


class TestInventoryAndVocabulary:
    def test_inventory_shape(self):
        units = default_inventory()
        assert len(units) == 20
        assert [u.class_id for u in units] == list(range(1, 21))
        assert n_gesture_classes() == 21
        for unit in units:
            assert dict(unit.targets).keys() == set(range(N_TVS))
            assert all(0.0 <= t <= 1.0 for _, t in unit.targets)

    def test_twins_share_strong_cues_but_differ_in_tvs(self):
        units = default_inventory()
        for a, b in zip(units[0::2], units[1::2]):
            ta, tb = dict(a.targets), dict(b.targets)
            for audible in (0, 3, 4, 7):  # lip aperture, TB deg, TT loc, glottis
                assert ta[audible] == tb[audible]
            assert ta[5] != tb[5]  # tongue-tip degree
            assert ta[6] != tb[6]  # velum
            assert a.duration == b.duration

    def test_vocabulary(self):
        words = default_vocabulary()
        assert len(words) == 30
        assert len({w.name for w in words}) == 30
        for word in words:
            assert 2 <= len(word.unit_ids) <= 4

    def test_fixed_across_calls(self):
        assert default_inventory() == default_inventory()
        assert default_vocabulary() == default_vocabulary()


class TestGenerateScore:
    def test_severity_zero_is_canonical(self):
        units = {u.class_id: u for u in default_inventory()}
        score, transcript = generate_gestural_score(5, default_vocabulary(), 0.0)
        assert transcript
        for seg in score.segments:
            assert seg.offset - seg.onset == pytest.approx(
                units[seg.class_id].duration, abs=1e-12)

    def test_severity_one_doubles_durations_and_undershoots(self):
        units = {u.class_id: u for u in default_inventory()}
        score, _ = generate_gestural_score(5, default_vocabulary(), 1.0)
        for seg in score.segments:
            assert seg.offset - seg.onset == pytest.approx(
                2.0 * units[seg.class_id].duration, abs=1e-12)
        for tv in range(N_TVS):
            for gesture in score.tv_gestures[tv]:
                # realized target must sit halfway toward neutral for some
                # canonical target: t + (0.5 - t)/2
                candidates = {targets[tv]
                              for targets in (dict(u.targets)
                                              for u in default_inventory())}
                expected = {t + (NEUTRAL_TV - t) / 2.0 for t in candidates}
                assert any(abs(gesture.target - e) < 1e-12 for e in expected)

    def test_onset_jitter_present_at_high_severity(self):
        canonical, _ = generate_gestural_score(9, default_vocabulary(), 0.0)
        jittered, _ = generate_gestural_score(9, default_vocabulary(), 1.0)
        if len(canonical.segments) > 1:
            canon_gaps = np.diff([s.onset for s in canonical.segments])
            jitter_gaps = np.diff([s.onset for s in jittered.segments])
            assert not np.allclose(canon_gaps * 2.0, jitter_gaps, atol=1e-9)

    def test_same_seed_identical(self):
        a, ta = generate_gestural_score(123, default_vocabulary(), 0.5)
        b, tb = generate_gestural_score(123, default_vocabulary(), 0.5)
        assert ta == tb
        assert [(s.class_id, s.onset, s.offset) for s in a.segments] == \
               [(s.class_id, s.onset, s.offset) for s in b.segments]

    def test_empty_vocab_rejected(self):
        with pytest.raises(ValueError):
            generate_gestural_score(0, [], 0.0)

    def test_severity_out_of_range(self):
        with pytest.raises(ValueError):
            generate_gestural_score(0, default_vocabulary(), 1.5)


class TestRenderTvs:
    def test_empty_score_stays_neutral(self):
        from tvasr.synth import GesturalScore
        score = GesturalScore(0.5, [[] for _ in range(N_TVS)], [])
        tvs = render_tvs(score)
        assert tvs.n_frames == 50
        assert np.all(tvs.frames == NEUTRAL_TV)

    def test_step_response_critically_damped(self):
        track = np.concatenate([np.zeros(10), np.ones(120)])
        y = critically_damped_smooth(track, init=0.0)
        rise = y[10:]
        assert np.all(np.diff(rise) >= -1e-12)  # monotone
        assert np.max(y) <= 1.0 + 1e-9  # no overshoot
        # >= 0.95 within 5 time constants (200 ms = 20 frames)
        assert rise[20] >= 0.95

    def test_never_overshoots_track_range(self):
        for seed in range(10):
            score, _ = generate_gestural_score(seed, default_vocabulary(),
                                               0.5)
            tvs = render_tvs(score)
            assert tvs.frames.min() >= 0.0
            assert tvs.frames.max() <= 1.0
            for tv in range(N_TVS):
                targets = [g.target for g in score.tv_gestures[tv]]
                hi = max(targets + [NEUTRAL_TV])
                lo = min(targets + [NEUTRAL_TV])
                assert tvs.frames[:, tv].max() <= hi + 1e-6
                assert tvs.frames[:, tv].min() >= lo - 1e-6

    def test_frame_labels_follow_segments(self):
        from tvasr.synth import GesturalScore, Segment
        score = GesturalScore(
            0.3, [[] for _ in range(N_TVS)],
            [Segment(4, 0.10, 0.20)])
        labels = frame_labels(score, 30)
        assert np.all(labels[:10] == 0)
        assert np.all(labels[10:20] == 4)
        assert np.all(labels[20:] == 0)


class TestSynthesize:
    def constant_tvs(self, frames=80, values=None):
        tv = np.full((frames, N_TVS), 0.5)
        for idx, v in (values or {}).items():
            tv[:, idx] = v
        return TVTrajectory(tv)

    def test_output_length_matches_framing(self):
        wav = synthesize_speech_from_tvs(self.constant_tvs(frames=60), 0)
        assert len(wav.samples) == 59 * 160 + 400
        # the standard front end then yields exactly 60 frames
        assert len(logmel_filterbank(wav)) == 60

    def test_peak_normalized(self):
        wav = synthesize_speech_from_tvs(self.constant_tvs(), 1)
        assert np.max(np.abs(wav.samples)) == pytest.approx(0.9, abs=1e-12)

    def test_unvoiced_has_no_pitch_autocorrelation(self):
        def pitch_autocorr(wav, f0=100.0):
            x = wav.samples - wav.samples.mean()
            lag = int(round(16000 / f0))
            num = np.sum(x[lag:] * x[:-lag])
            return num / np.sum(x * x)

        noise_wav = synthesize_speech_from_tvs(
            self.constant_tvs(values={7: 0.0}), 2)
        voiced_wav = synthesize_speech_from_tvs(
            self.constant_tvs(values={7: 1.0}), 2)
        assert pitch_autocorr(noise_wav) < 0.2
        assert pitch_autocorr(voiced_wav) > 0.5

    def test_constant_tvs_give_stationary_spectrum(self):
        wav = synthesize_speech_from_tvs(
            self.constant_tvs(frames=100, values={7: 1.0}), 3)
        feats = logmel_filterbank(wav)
        mid = feats[10:-10]
        norms = np.linalg.norm(mid, axis=1)
        cosine = (mid[:-1] * mid[1:]).sum(axis=1) / (norms[:-1] * norms[1:])
        assert np.all(cosine >= 0.99)

    def test_deterministic(self):
        tvs = self.constant_tvs()
        a = synthesize_speech_from_tvs(tvs, 42)
        b = synthesize_speech_from_tvs(tvs, 42)
        assert np.array_equal(a.samples, b.samples)

    def test_formants_respond_to_tvs(self):
        lo = synthesize_speech_from_tvs(self.constant_tvs(values={3: 0.1}), 4)
        hi = synthesize_speech_from_tvs(self.constant_tvs(values={3: 0.9}), 4)
        spec_lo = np.abs(np.fft.rfft(lo.samples)) ** 2
        spec_hi = np.abs(np.fft.rfft(hi.samples)) ** 2
        freqs = np.fft.rfftfreq(len(lo.samples), 1 / 16000)
        low_band = (freqs > 200) & (freqs < 450)
        high_band = (freqs > 600) & (freqs < 900)
        ratio_lo = spec_lo[low_band].sum() / spec_lo[high_band].sum()
        ratio_hi = spec_hi[low_band].sum() / spec_hi[high_band].sum()
        assert ratio_lo > ratio_hi  # F1 moved up with tongue-body degree


@pytest.fixture(params=["compiled core", "public sosfilt"])
def sos_core(request, monkeypatch):
    """Run synth once through sosfilt's compiled core, once through the
    public `sosfilt` fallback."""
    if request.param == "public sosfilt":
        monkeypatch.setattr(synth, "_sosfilt", synth._public_sosfilt)
    return request.param


class TestSynthesisOracle:
    """The float64 samples and TVs equal an lfilter oracle bit for bit:
    `corpus_digest` rounds samples to 16 bits, NMC reads them unrounded."""

    def test_scored_utterances(self, sos_core):
        for seed in range(36):
            score, _ = generate_gestural_score(seed, default_vocabulary(),
                                               (seed % 9) * 0.1, (1, 3))
            tvs = render_tvs(score)
            assert np.array_equal(tvs.frames, reference_render_tvs(score))
            samples = synthesize_speech_from_tvs(tvs, seed).samples
            assert samples.dtype == np.float64
            assert np.array_equal(samples, reference_synthesis(tvs.frames, seed))

    @pytest.mark.parametrize("n_frames", [1, 2])
    def test_shortest_trajectories(self, sos_core, n_frames):
        for seed in range(5):
            frames = np.random.default_rng(seed).uniform(size=(n_frames, N_TVS))
            samples = synthesize_speech_from_tvs(TVTrajectory(frames), seed)
            assert np.array_equal(samples.samples,
                                  reference_synthesis(frames, seed))

    def test_smoothing_rows_in_one_call_equals_one_call_per_row(self,
                                                                sos_core):
        tracks = np.random.default_rng(3).uniform(size=(5, 37))
        together = critically_damped_smooth(tracks, init=0.2)
        assert together.shape == tracks.shape
        for track, row in zip(tracks, together):
            assert np.array_equal(critically_damped_smooth(track, init=0.2),
                                  row)
        column_major = np.asfortranarray(tracks)
        assert np.array_equal(critically_damped_smooth(column_major, init=0.2),
                              together)
        assert np.array_equal(column_major, tracks)  # the input is left as is


class TestNoiseBank:
    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_kinds_generate_clean_segments(self, kind):
        rng = np.random.default_rng(0)
        wav = generate_noise(kind, 16000, rng)
        assert len(wav.samples) == 16000
        assert np.all(np.isfinite(wav.samples))
        assert np.max(np.abs(wav.samples)) <= 1.0
        rms = np.sqrt(np.mean(np.square(wav.samples)))
        assert rms == pytest.approx(0.1, rel=0.05)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate_noise("brown", 100, np.random.default_rng(0))

    def test_hum_concentrates_at_mains_harmonics(self):
        rng = np.random.default_rng(1)
        wav = generate_noise("hum", 32000, rng)
        spectrum = np.abs(np.fft.rfft(wav.samples)) ** 2
        freqs = np.fft.rfftfreq(32000, 1 / 16000)
        mains = spectrum[(freqs > 45) & (freqs < 155)].sum()
        assert mains / spectrum.sum() > 0.9
