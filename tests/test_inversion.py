import numpy as np
import pytest

from helpers import count_parameters, reference_frame_dataset
from tvasr.audio import Waveform
from tvasr.errors import ConfigError, FormatError
from tvasr.features import NormStats, SpliceSpec, nmc_features
from tvasr import inversion
from tvasr.inversion import (InversionConfig, InversionModel,
                             build_inversion_net, inversion_features, invert,
                             load_inversion_model, pearson_per_tv,
                             save_inversion_model, tvs_from_features)
from tvasr.nn import forward, network_to_bytes


def untrained_model(seed=0):
    cfg = InversionConfig.toy()
    net = build_inversion_net(cfg, seed=seed)
    stats = NormStats(np.zeros(cfg.n_coeffs), np.ones(cfg.n_coeffs))
    return InversionModel(net, stats, cfg.n_coeffs, cfg.splice)


class TestBuildInversionNet:
    def test_output_is_eight_tvs(self):
        cfg = InversionConfig.toy()
        net = build_inversion_net(cfg)
        assert net.output_dim() == 8
        x = np.random.default_rng(0).standard_normal((5, 40 * 17))
        assert forward(net, {"acoustic": x}).shape == (5, 8)

    @pytest.mark.parametrize("activation", ["linear", "banana"])
    def test_unknown_activation_refused(self, activation):
        with pytest.raises(ConfigError, match="unknown activation"):
            InversionConfig.toy(activation=activation)

    def test_full_scale_layer_sizes(self):
        cfg = InversionConfig()
        net = build_inversion_net(cfg)
        ledger = net.shape_ledger()
        conv_entry = [e for e in ledger if e[1] == "conv1d"][0]
        pool_entry = [e for e in ledger if e[1] == "maxpool1d"][0]
        assert conv_entry[3] == 33 * 200  # 40 coeffs, width 8
        assert pool_entry[3] == 11 * 200
        dense_dims = [e[3] for e in ledger if e[1] == "dense"]
        assert dense_dims == [2048, 2048, 2048, 8]

    def test_parameter_count_closed_form(self):
        cfg = InversionConfig.toy()
        net = build_inversion_net(cfg)
        conv = 8 * 17 * 16 + 16
        pooled = 11 * 16
        dense = (pooled * 128 + 128 + 2 * (128 * 128 + 128) + 128 * 8 + 8)
        assert count_parameters(net) == conv + dense


class TestInvert:
    def test_silence_gives_bounded_output(self):
        model = untrained_model()
        tvs = invert(model, Waveform(np.zeros(8000), 16000))
        assert tvs.frames.shape[1] == 8
        assert np.all(np.isfinite(tvs.frames))
        assert tvs.frames.min() >= 0.0
        assert tvs.frames.max() <= 1.0

    def test_deterministic_across_calls(self):
        model = untrained_model()
        rng = np.random.default_rng(1)
        wav = Waveform((0.2 * rng.standard_normal(8000)).clip(-1, 1), 16000)
        a = invert(model, wav)
        b = invert(model, wav)
        assert np.array_equal(a.frames, b.frames)

    def test_matches_forward_on_reference_spliced_frames(self):
        """invert == forward on NMC frames normalized and spliced by hand."""
        model = untrained_model(seed=4)
        rng = np.random.default_rng(5)
        model.stats = NormStats(rng.standard_normal(40),
                                rng.uniform(0.5, 2.0, 40))
        model.splice = SpliceSpec(3, 2)
        model.net = build_inversion_net(
            InversionConfig.toy(splice=model.splice), seed=4)
        for n in (400, 2400, 9000):  # 1, 13 and 55 frames
            wav = Waveform((0.2 * rng.standard_normal(n)).clip(-1, 1), 16000)
            frames = nmc_features(wav)
            inputs, _ = reference_frame_dataset(
                {"acoustic": ([(frames - model.stats.mean) / model.stats.std],
                              3, 2)}, [np.zeros(len(frames))])
            expected = np.clip(forward(model.net, inputs, mode="eval")
                               .astype(np.float64), 0.0, 1.0)
            assert np.array_equal(invert(model, wav).frames, expected)

    def test_non_16k_audio_rejected(self):
        model = untrained_model()
        with pytest.raises(ValueError, match="16000"):
            invert(model, Waveform(np.zeros(8000), 8000))


class TestInvertMany:
    """Many utterances at once, as the invert command and train's
    --inversion-model run them: inversion_features, then tvs_from_features
    for each."""

    @staticmethod
    def waveforms(n):
        rng = np.random.default_rng(6)
        return [Waveform((0.2 * rng.standard_normal(400 + 1700 * i))
                         .clip(-1, 1), 16000) for i in range(n)]

    def test_equals_per_utterance_invert(self):
        model = untrained_model(seed=2)
        wavs = self.waveforms(7)
        many = [tvs_from_features(model, feats)
                for feats in inversion_features(model, wavs)]
        assert len(many) == len(wavs)
        for wav, tvs in zip(wavs, many):
            one = invert(model, wav)
            assert np.array_equal(tvs.frames, one.frames)

    @pytest.mark.parametrize("where", [0, 3, 6])
    def test_non_16k_anywhere_rejected_before_any_forward(self, where,
                                                          monkeypatch):
        calls = []
        for name in ("forward", "nmc_map"):
            monkeypatch.setattr(inversion, name,
                                lambda *a, **k: calls.append(a))
        wavs = self.waveforms(7)
        wavs[where] = Waveform(np.zeros(4000), 8000)
        with pytest.raises(ValueError, match="8000 Hz"):
            inversion_features(untrained_model(), wavs)
        assert calls == []  # no NMC either


class TestModelFile:
    def test_roundtrip(self, tmp_path):
        model = untrained_model(seed=3)
        model.stats = NormStats(np.arange(40.0), np.arange(1.0, 41.0))
        path = tmp_path / "inv.ckpt"
        save_inversion_model(path, model)
        back = load_inversion_model(path)
        assert np.array_equal(back.stats.mean, model.stats.mean)
        assert np.array_equal(back.stats.std, model.stats.std)
        assert back.n_coeffs == 40
        assert back.splice == SpliceSpec(8, 8)
        for a, b in zip(model.net.all_layers(), back.net.all_layers()):
            for pa, pb in zip(a.param_arrays(), b.param_arrays()):
                assert np.array_equal(pa, pb)

    def test_missing_stats_record_rejected(self, tmp_path):
        path = tmp_path / "bare.ckpt"
        path.write_bytes(network_to_bytes(untrained_model().net))
        with pytest.raises(FormatError):
            load_inversion_model(path)


class TestPearson:
    def test_perfect_correlation(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((100, 8))
        r = pearson_per_tv(2.0 * x + 1.0, x)
        assert np.allclose(r, 1.0)

    def test_constant_prediction_scores_zero(self):
        rng = np.random.default_rng(3)
        truth = rng.standard_normal((50, 8))
        r = pearson_per_tv(np.full((50, 8), 0.5), truth)
        assert np.allclose(r, 0.0)

    def test_anticorrelation(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((60, 8))
        assert np.allclose(pearson_per_tv(-x, x), -1.0)
