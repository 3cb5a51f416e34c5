import ast
from pathlib import Path

import numpy as np
import pytest

from helpers import (count_parameters, draw_smooth_gradcheck_case,
                     max_relative_gradient_error)

from tvasr.architectures import (ARCH_KINDS, MAX_PARAMETERS, ArchSpec,
                                 arch_spec_from_config, build_network,
                                 parse_kv_config)
from tvasr.errors import ConfigError, ShapeError
from tvasr.nn import forward
from tvasr.pipeline import scale_arch_spec

RNG = np.random.default_rng(99)
SRC = Path(__file__).resolve().parents[1] / "src" / "tvasr"


def toy_spec(kind, **overrides):
    base = dict(kind=kind, n_classes=6, n_hidden_layers=2, hidden_width=16,
                n_bands=12, n_feature_streams=3, context=5, n_tvs=8,
                tv_context=5, freq_filters=6, freq_filter_width=4, freq_pool=3,
                time_filters=3, time_filter_width=2, time_pool=2)
    base.update(overrides)
    return ArchSpec(**base)


class TestBuildDnn:
    def test_parameter_count_closed_form(self):
        spec = ArchSpec(kind="dnn", n_classes=42)
        net = build_network(spec)
        expected = (2040 * 1024 + 3 * 1024 * 1024 + 1024 * 42
                    + 4 * 1024 + 42)
        assert count_parameters(net) == expected

    def test_zero_hidden_layers_is_logistic_regression(self):
        spec = toy_spec("dnn", n_hidden_layers=0)
        net = build_network(spec)
        kinds = [l.kind for l in net.all_layers()]
        assert kinds == ["dense", "softmax"]
        x = {"acoustic": RNG.standard_normal((3, spec.acoustic_dim))}
        out = forward(net, x)
        assert out.shape == (3, 6)

    def test_forward_shape_contract(self):
        spec = toy_spec("dnn")
        x = {"acoustic": RNG.standard_normal((9, spec.acoustic_dim))}
        out = forward(build_network(spec), x)
        assert out.shape == (9, 6)


class TestBuildCnn:
    def test_reference_dims(self):
        spec = ArchSpec(kind="cnn", n_classes=42)
        net = build_network(spec)
        ledger = {(kind, din): dout for _, kind, din, dout in net.shape_ledger()}
        assert ledger[("conv1d", 2040)] == 33 * 200
        assert ledger[("maxpool1d", 33 * 200)] == 2200
        assert ledger[("dense", 2200)] == 1024

    def test_full_span_filter(self):
        spec = ArchSpec(kind="cnn", n_classes=5, freq_filter_width=40,
                        freq_pool=1, n_hidden_layers=1, hidden_width=8)
        net = build_network(spec)
        conv = net.streams[0].layers[0]
        assert conv.out_positions == 1
        assert net.streams[0].layers[-1].out_dim(None) == 200

    def test_gradient_check_scaled_down(self):
        spec = toy_spec("cnn")
        net = build_network(spec, seed=4, dtype=np.float64)
        x = draw_smooth_gradcheck_case(
            net, RNG, lambda r: r.standard_normal((4, spec.acoustic_dim)))
        y = RNG.integers(0, 6, 4)
        assert max_relative_gradient_error(net, x, y, "ce") <= 1e-4

    def test_parameter_count_closed_form(self):
        spec = toy_spec("cnn")
        net = build_network(spec)
        conv = 6 * (4 * 3 * 5) + 6  # filters * (width * channels) + bias
        pooled = ((12 - 4 + 1) // 3) * 6
        dense = pooled * 16 + 16 + 16 * 16 + 16 + 16 * 6 + 6
        assert count_parameters(net) == conv + dense


class TestBuildTfcnn:
    def test_reference_dims(self):
        spec = ArchSpec(kind="tfcnn", n_classes=42)
        net = build_network(spec)
        freq_out = net.streams[0].layers[-1].out_dim(None)
        time_out = net.streams[1].layers[-1].out_dim(None)
        assert freq_out == 2200
        # 17 frames, width 5 -> 13 positions, pool 5 -> 2; 75 filters
        assert time_out == 2 * 75
        assert sum(net.stream_out_dims()) == 2350

    def test_both_streams_consume_acoustic_input(self):
        spec = toy_spec("tfcnn")
        net = build_network(spec)
        assert [s.input_name for s in net.streams] == ["acoustic", "acoustic"]
        x = {"acoustic": RNG.standard_normal((4, spec.acoustic_dim))}
        out = forward(net, x)
        assert out.shape == (4, 6)

    def test_zeroed_time_stream_ignores_input_variation(self):
        spec = toy_spec("tfcnn")
        net = build_network(spec, seed=3)
        for layer in net.streams[1].layers:
            for p in layer.param_arrays():
                p[...] = 0.0
        x1 = RNG.standard_normal((5, spec.acoustic_dim))
        x2 = x1 + RNG.standard_normal((5, spec.acoustic_dim))
        # time-stream output is then input-independent, so network differences
        # come from the frequency stream alone; rebuild with frozen freq input
        base = forward(net, {"acoustic": x1})
        for layer in net.streams[0].layers:
            for p in layer.param_arrays():
                p[...] = 0.0
        flat1 = forward(net, {"acoustic": x1})
        flat2 = forward(net, {"acoustic": x2})
        assert np.allclose(flat1, flat2)
        assert not np.allclose(base, flat1)


class TestBuildFcnn:
    def test_fused_dimension(self):
        spec = ArchSpec(kind="fcnn", n_classes=42)
        net = build_network(spec)
        assert net.stream_out_dims() == [2200, 150]
        assert sum(net.stream_out_dims()) == 2350

    def test_missing_tv_input_is_an_error(self):
        spec = toy_spec("fcnn")
        net = build_network(spec)
        with pytest.raises(ShapeError, match="tv"):
            forward(net, {"acoustic": np.zeros((2, spec.acoustic_dim))})

    def test_zero_tv_input_flows_through_bias_path_only(self):
        spec = toy_spec("fcnn")
        net = build_network(spec, seed=9)
        xa = RNG.standard_normal((4, spec.acoustic_dim))
        zero_tv = np.zeros((4, spec.tv_dim))
        out1 = forward(net, {"acoustic": xa, "tv": zero_tv})
        out2 = forward(net, {"acoustic": xa, "tv": zero_tv.copy()})
        assert np.array_equal(out1, out2)
        out3 = forward(net, {"acoustic": xa,
                             "tv": RNG.standard_normal((4, spec.tv_dim))})
        assert not np.allclose(out1, out3)

    def test_gradient_check_scaled_down(self):
        spec = toy_spec("fcnn")
        net = build_network(spec, seed=5, dtype=np.float64)
        inputs = draw_smooth_gradcheck_case(
            net, RNG,
            lambda r: {"acoustic": r.standard_normal((4, spec.acoustic_dim)),
                       "tv": r.standard_normal((4, spec.tv_dim))})
        y = RNG.integers(0, 6, 4)
        assert max_relative_gradient_error(net, inputs, y, "ce") <= 1e-4

    def test_frozen_time_stream_reduces_to_cnn(self):
        """Zeroed TV path plus copied acoustic path reproduces CNN logits."""
        cnn_spec = toy_spec("cnn")
        fcnn_spec = toy_spec("fcnn")
        cnn = build_network(cnn_spec, seed=7, dtype=np.float64)
        fcnn = build_network(fcnn_spec, seed=8, dtype=np.float64)

        for src, dst in zip(cnn.streams[0].layers, fcnn.streams[0].layers):
            for ps, pd in zip(src.param_arrays(), dst.param_arrays()):
                pd[...] = ps
        for layer in fcnn.streams[1].layers:
            for p in layer.param_arrays():
                p[...] = 0.0
        freq_dims = fcnn.stream_out_dims()[0]
        first_cnn, first_fcnn = cnn.trunk[0], fcnn.trunk[0]
        first_fcnn.weight[...] = 0.0
        first_fcnn.weight[:freq_dims, :] = first_cnn.weight
        first_fcnn.bias[...] = first_cnn.bias
        for src, dst in zip(cnn.trunk[1:], fcnn.trunk[1:]):
            for ps, pd in zip(src.param_arrays(), dst.param_arrays()):
                pd[...] = ps

        xa = RNG.standard_normal((6, cnn_spec.acoustic_dim))
        tv = RNG.standard_normal((6, fcnn_spec.tv_dim))
        out_cnn = forward(cnn, {"acoustic": xa})
        out_fcnn = forward(fcnn, {"acoustic": xa, "tv": tv})
        assert np.allclose(out_cnn, out_fcnn, rtol=0, atol=1e-12)

    def test_parameter_counts_all_builders(self):
        for kind in ("dnn", "cnn", "tfcnn", "fcnn"):
            spec = toy_spec(kind)
            net = build_network(spec, seed=0)
            total = 0
            d_freq = ((spec.n_bands - spec.freq_filter_width + 1)
                      // spec.freq_pool) * spec.freq_filters
            d_time_ac = ((spec.context - spec.time_filter_width + 1)
                         // spec.time_pool) * spec.time_filters
            d_time_tv = ((spec.tv_context - spec.time_filter_width + 1)
                         // spec.time_pool) * spec.time_filters
            if kind == "dnn":
                d = spec.acoustic_dim
            elif kind == "cnn":
                total += (spec.freq_filter_width * spec.n_feature_streams
                          * spec.context * spec.freq_filters + spec.freq_filters)
                d = d_freq
            elif kind == "tfcnn":
                total += (spec.freq_filter_width * spec.n_feature_streams
                          * spec.context * spec.freq_filters + spec.freq_filters)
                total += (spec.time_filter_width * spec.n_feature_streams
                          * spec.n_bands * spec.time_filters + spec.time_filters)
                d = d_freq + d_time_ac
            else:
                total += (spec.freq_filter_width * spec.n_feature_streams
                          * spec.context * spec.freq_filters + spec.freq_filters)
                total += (spec.time_filter_width * spec.n_tvs
                          * spec.time_filters + spec.time_filters)
                d = d_freq + d_time_tv
            for _ in range(spec.n_hidden_layers):
                total += d * spec.hidden_width + spec.hidden_width
                d = spec.hidden_width
            total += d * spec.n_classes + spec.n_classes
            assert count_parameters(net) == total, kind


class TestArchSpecValidation:
    @pytest.mark.parametrize("kind", ARCH_KINDS)
    @pytest.mark.parametrize("scale", ["toy", "paper"])
    def test_parameter_count_and_batch_check_of_every_scale(self, kind,
                                                            scale):
        spec = scale_arch_spec(ArchSpec(kind=kind, n_classes=21), scale)
        assert spec.n_parameters == count_parameters(build_network(spec))
        spec.check_buildable(256)

    def test_criterion_2_fcnn_fits(self):
        spec = ArchSpec(kind="fcnn", n_classes=42, n_hidden_layers=6,
                        hidden_width=2048)
        assert 25_000_000 < spec.n_parameters < MAX_PARAMETERS
        spec.check_buildable(256)

    @pytest.mark.parametrize("key,value", [
        ("hidden_width", 100000000), ("context", 1000001),
        ("n_bands", 100000), ("n_hidden_layers", 100000),
        ("tv_context", 1000001)])
    def test_oversized_network_refused(self, key, value):
        with pytest.raises(ConfigError, match=f"MAX_PARAMETERS.*{key}={value}"):
            ArchSpec(kind="fcnn", n_classes=21, **{key: value})

    @pytest.mark.parametrize("kind,key,value", [
        ("cnn", "freq_filter_width", 41), ("cnn", "freq_pool", 34),
        ("tfcnn", "time_filter_width", 18), ("fcnn", "time_pool", 14),
        ("cnn", "n_bands", 7), ("fcnn", "tv_context", 4)])
    def test_conv_that_does_not_fit_refused(self, kind, key, value):
        # found here, not by build_network after the corpus is read
        spec = ArchSpec(kind=kind, n_classes=21, **{key: value})
        with pytest.raises(ConfigError, match=f"does not fit.*{key}={value}"):
            spec.check_buildable(1)

    def test_pool_beyond_the_index_dtype_refused(self):
        spec = ArchSpec(kind="cnn", n_classes=21, n_bands=400, freq_pool=300,
                        n_hidden_layers=0)
        with pytest.raises(ConfigError, match="at most 256"):
            spec.check_buildable(1)

    @pytest.mark.parametrize("kind,key,value", [
        ("cnn", "n_bands", 30000), ("tfcnn", "n_bands", 20000),
        ("fcnn", "tv_context", 400000)])
    def test_oversized_conv_batch_refused(self, kind, key, value):
        spec = ArchSpec(kind=kind, n_classes=21, n_hidden_layers=0,
                        **{key: value})
        spec.check_buildable(1)
        with pytest.raises(ConfigError,
                           match=f"MAX_BATCH_CONV_FLOATS.*batch_size=256.*"
                                 f"{key}={value}"):
            spec.check_buildable(256)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            ArchSpec(kind="rnn", n_classes=5)

    def test_too_few_classes(self):
        with pytest.raises(ConfigError):
            ArchSpec(kind="dnn", n_classes=1)

    @pytest.mark.parametrize("n_streams", [0, 1, 2, 4])
    def test_feature_streams_other_than_3(self, n_streams):
        # acoustic_frames always gives log-mel, deltas and delta-deltas
        with pytest.raises(ConfigError, match=f"n_feature_streams={n_streams} "):
            ArchSpec(kind="cnn", n_classes=5, n_feature_streams=n_streams)

    @pytest.mark.parametrize("n_tvs", [0, 1, 4, 9])
    def test_tv_channels_other_than_8(self, n_tvs):
        # every corpus TV trajectory has 8 channels
        with pytest.raises(ConfigError, match=f"n_tvs={n_tvs} unsupported"):
            ArchSpec(kind="fcnn", n_classes=5, n_tvs=n_tvs)

    @pytest.mark.parametrize("activation", ["linear", "banana"])
    def test_unknown_activation(self, activation):
        # checked with the spec, before any network or corpus is built
        with pytest.raises(ConfigError,
                           match=f"unknown activation '{activation}'"):
            ArchSpec(kind="cnn", n_classes=5, hidden_activation=activation)


class TestConfigFile:
    def test_parse_and_build(self, tmp_path):
        path = tmp_path / "arch.conf"
        path.write_text(
            "# toy architecture\n"
            "kind = cnn\n"
            "n_classes = 8   # classes incl. silence\n"
            "n_hidden_layers = 1\n"
            "hidden_width = 32\n")
        spec = arch_spec_from_config(parse_kv_config(path))
        assert spec.kind == "cnn"
        assert spec.n_classes == 8
        assert spec.hidden_width == 32
        assert spec.freq_filters == 200  # default preserved

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            arch_spec_from_config({"kind": "dnn", "n_classes": "5",
                                   "dropout": "0.5"})

    def test_non_integer_value_rejected(self):
        with pytest.raises(ConfigError):
            arch_spec_from_config({"kind": "dnn", "n_classes": "many"})

    def test_requires_kind_and_classes(self):
        with pytest.raises(ConfigError):
            arch_spec_from_config({"kind": "dnn"})

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("kind cnn\n")
        with pytest.raises(ConfigError):
            parse_kv_config(path)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "dup.conf"
        path.write_text("kind=cnn\nkind=dnn\n")
        with pytest.raises(ConfigError):
            parse_kv_config(path)


def test_shape_ledger_chains_at_paper_and_toy_scale():
    for kind in ("dnn", "cnn", "tfcnn", "fcnn"):
        build_network(toy_spec(kind)).shape_ledger()
        build_network(ArchSpec(kind=kind, n_classes=42, n_hidden_layers=6,
                               hidden_width=2048)).shape_ledger()


def test_only_the_builders_construct_layers():
    """Every network is built from ConvStream records and dense_stack; no
    module but architectures.py and nn.py names a layer class in a call, and
    nn.py's loader calls each class through a variable."""
    layers = {"Dense", "Conv1d", "MaxPool1d", "Activation", "Softmax"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in layers:
                found.append(path.name)
    assert "architectures.py" in found
    assert set(found) <= {"nn.py", "architectures.py"}


def test_no_module_imports_threading():
    """nmc_map runs on concurrent.futures; no module manages threads itself."""
    imported = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported += [(path.name, a.name) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.append((path.name, node.module))
    assert [i for i in imported if i[1].split(".")[0] == "threading"] == []
