import numpy as np
import pytest

from helpers import draw_smooth_gradcheck_case, max_relative_gradient_error

from tvasr.errors import (ConfigError, DivergenceError, FormatError,
                          ShapeError, StateError)
from tvasr.nn import (Activation, Conv1d, Dense, Gradients, MaxPool1d,
                      NetworkGraph, Softmax, Stream, backward,
                      count_parameters, forward, load_network, mse_loss,
                      network_to_bytes, save_network, sgd_step,
                      softmax_cross_entropy)

RNG = np.random.default_rng(12345)


def dense_net(sizes, activation="sigmoid", softmax=True, dtype=np.float64,
              seed=0):
    rng = np.random.default_rng(seed)
    layers = []
    for i in range(len(sizes) - 1):
        layers.append(Dense(sizes[i], sizes[i + 1], rng, dtype))
        if i < len(sizes) - 2:
            layers.append(Activation(activation))
    if softmax:
        layers.append(Softmax())
    return NetworkGraph([Stream("acoustic", sizes[0], [])], layers, dtype)


def conv_net(axis="frequency", activation="sigmoid", softmax=True,
             view=False, dtype=np.float64, seed=0):
    """Small conv -> act -> pool -> dense net, optionally with a view permute."""
    rng = np.random.default_rng(seed)
    positions, channels = 10, 3
    view_shape = (channels, positions) if view else None
    view_perm = (1, 0) if view else None
    conv = Conv1d(axis, 4, 3, channels, positions, view_shape, view_perm,
                  rng, dtype)
    pool = MaxPool1d(2, conv.out_positions, 4)
    out_dim = 5 if softmax else 3
    trunk = [Dense(pool.out_dim(None), out_dim, rng, dtype)]
    if softmax:
        trunk.append(Softmax())
    stream = Stream("acoustic", positions * channels,
                    [conv, Activation(activation), pool])
    return NetworkGraph([stream], trunk, dtype)


def two_stream_net(dtype=np.float64, seed=0):
    rng = np.random.default_rng(seed)
    conv_a = Conv1d("frequency", 3, 3, 4, 8, (4, 8), (1, 0), rng, dtype)
    pool_a = MaxPool1d(3, conv_a.out_positions, 3)
    conv_b = Conv1d("time", 2, 2, 3, 5, rng=rng, dtype=dtype)
    pool_b = MaxPool1d(2, conv_b.out_positions, 2)
    streams = [
        Stream("acoustic", 32, [conv_a, Activation("sigmoid"), pool_a]),
        Stream("tv", 15, [conv_b, Activation("sigmoid"), pool_b]),
    ]
    fused = pool_a.out_dim(None) + pool_b.out_dim(None)
    trunk = [Dense(fused, 6, rng, dtype), Activation("sigmoid"),
             Dense(6, 4, rng, dtype), Softmax()]
    return NetworkGraph(streams, trunk, dtype)


class TestForward:
    def test_dense_identity_map(self):
        layer = Dense(4, 4, dtype=np.float64)
        layer.weight = np.eye(4)
        net = NetworkGraph([Stream("acoustic", 4, [])], [layer], np.float64)
        x = RNG.standard_normal((6, 4))
        assert np.array_equal(forward(net, x), x)

    def test_conv_and_pool_positions(self):
        conv = Conv1d("frequency", 200, 8, 51, 40)
        assert conv.out_positions == 33
        assert conv.out_dim(None) == 33 * 200
        pool = MaxPool1d(3, 33, 200)
        assert pool.out_positions == 11
        assert pool.out_dim(None) == 2200

    def test_softmax_rows_sum_to_one(self):
        net = dense_net([7, 5], seed=3)
        out = forward(net, RNG.standard_normal((11, 7)))
        assert np.all(np.abs(out.sum(axis=1) - 1.0) < 1e-9)

    def test_deterministic_bitwise(self):
        net = conv_net(seed=5)
        x = RNG.standard_normal((9, 30))
        assert np.array_equal(forward(net, x), forward(net, x))

    def test_shape_mismatch_reports_input(self):
        net = dense_net([4, 2])
        with pytest.raises(ShapeError, match="acoustic"):
            forward(net, np.zeros((3, 5)))

    def test_missing_stream_input(self):
        net = two_stream_net()
        with pytest.raises(ShapeError, match="tv"):
            forward(net, {"acoustic": np.zeros((2, 32))})

    def test_stream_frame_counts_must_agree(self):
        net = two_stream_net()
        with pytest.raises(ShapeError, match="frame count"):
            forward(net, {"acoustic": np.zeros((3, 32)), "tv": np.zeros((2, 15))})

    def test_single_array_rejected_for_two_inputs(self):
        net = two_stream_net()
        with pytest.raises(ShapeError):
            forward(net, np.zeros((2, 32)))

    def test_eval_mode_caches_nothing(self):
        net = dense_net([4, 3])
        forward(net, np.zeros((2, 4)), mode="eval")
        with pytest.raises(StateError):
            backward(net, np.zeros((2, 3)))

    def test_time_constant_input_gives_time_constant_output(self):
        rng = np.random.default_rng(8)
        conv = Conv1d("time", 4, 3, 6, 9, rng=rng, dtype=np.float64)
        net = NetworkGraph([Stream("acoustic", 54, [conv])], [], np.float64)
        channel_pattern = rng.standard_normal(6)
        x = np.tile(channel_pattern, (2, 9))  # every time position identical
        out = forward(net, x).reshape(2, conv.out_positions, 4)
        assert np.allclose(out, out[:, :1, :])


class TestBackward:
    def test_zero_loss_grad_gives_zero_param_grads(self):
        net = conv_net(seed=2)
        x = RNG.standard_normal((5, 30))
        forward(net, x, mode="train")
        grads = backward(net, np.zeros((5, 5)))
        for layer_grads in grads.by_layer:
            for g in layer_grads:
                assert np.all(g == 0.0)

    def test_backward_without_forward_raises(self):
        net = dense_net([3, 2])
        with pytest.raises(StateError):
            backward(net, np.zeros((1, 2)))

    def test_maxpool_grad_only_at_argmax(self):
        pool = MaxPool1d(3, 6, 2)
        x = RNG.standard_normal((4, 12))
        pool.forward(x, train=True)
        dx, _ = pool.backward(np.ones((4, 4)))
        dx = dx.reshape(4, 6, 2)
        xv = x.reshape(4, 6, 2)
        for t in range(4):
            for c in range(2):
                for q in range(2):
                    window = xv[t, 3 * q:3 * q + 3, c]
                    grads = dx[t, 3 * q:3 * q + 3, c]
                    assert np.sum(grads != 0) == 1
                    assert grads[np.argmax(window)] == 1.0

    def test_no_input_gradients(self):
        net = two_stream_net()
        x = {"acoustic": RNG.standard_normal((3, 32)),
             "tv": RNG.standard_normal((3, 15))}
        forward(net, x, mode="train")
        _, grad = softmax_cross_entropy(net.cached_logits(),
                                        np.array([0, 1, 3]))
        grads = backward(net, grad, at_logits=True)
        assert grads.input_grads == {}
        assert len(grads.by_layer) == len(net.all_layers())


class TestGradientChecks:
    """Central finite differences vs backprop, eps=1e-3, double precision."""

    def test_dense_sigmoid_softmax_ce(self):
        net = dense_net([6, 10, 4], seed=11)
        x = RNG.standard_normal((7, 6))
        y = RNG.integers(0, 4, 7)
        assert max_relative_gradient_error(net, x, y, "ce") <= 1e-4

    def test_dense_relu_mse(self):
        net = dense_net([5, 10, 3], activation="relu", softmax=False, seed=12)
        x = draw_smooth_gradcheck_case(net, RNG,
                                       lambda r: r.standard_normal((6, 5)))
        y = RNG.standard_normal((6, 3))
        assert max_relative_gradient_error(net, x, y, "mse") <= 1e-4

    def test_frequency_conv_with_view_ce(self):
        net = conv_net(axis="frequency", view=True, seed=13)
        x = draw_smooth_gradcheck_case(net, RNG,
                                       lambda r: r.standard_normal((5, 30)))
        y = RNG.integers(0, 5, 5)
        assert max_relative_gradient_error(net, x, y, "ce") <= 1e-4

    def test_time_conv_relu_mse(self):
        net = conv_net(axis="time", activation="relu", softmax=False, seed=14)
        x = draw_smooth_gradcheck_case(net, RNG,
                                       lambda r: r.standard_normal((5, 30)))
        y = RNG.standard_normal((5, 3))
        assert max_relative_gradient_error(net, x, y, "mse") <= 1e-4

    def test_fused_two_stream_ce(self):
        net = two_stream_net(seed=15)
        inputs = draw_smooth_gradcheck_case(
            net, RNG, lambda r: {"acoustic": r.standard_normal((6, 32)),
                                 "tv": r.standard_normal((6, 15))})
        y = RNG.integers(0, 4, 6)
        assert max_relative_gradient_error(net, inputs, y, "ce") <= 1e-4


class TestSgdStep:
    def test_zero_lr_keeps_parameters(self):
        net = dense_net([4, 3], seed=6)
        x = RNG.standard_normal((5, 4))
        before = [p.copy() for l in net.all_layers() for p in l.param_arrays()]
        forward(net, x, mode="train")
        _, grad = softmax_cross_entropy(net.cached_logits(),
                                        RNG.integers(0, 3, 5))
        sgd_step(net, backward(net, grad, at_logits=True), lr=0.0)
        after = [p for l in net.all_layers() for p in l.param_arrays()]
        for b, a in zip(before, after):
            assert np.array_equal(b, a)

    def test_scalar_hand_example(self):
        layer = Dense(1, 1, dtype=np.float64)
        layer.weight[0, 0] = 1.0
        net = NetworkGraph([Stream("acoustic", 1, [layer])], [], np.float64)
        grads = Gradients([[np.array([[2.0]]), np.array([0.0])]], {})
        sgd_step(net, grads, lr=0.5)
        assert layer.weight[0, 0] == 0.0

    def test_two_steps_equal_one_double_lr(self):
        def fresh():
            return dense_net([3, 2], softmax=False, seed=7)

        g = Gradients([[RNG.standard_normal((3, 2)), RNG.standard_normal(2)]],
                      {})
        net_a, net_b = fresh(), fresh()
        sgd_step(net_a, g, lr=0.1)
        sgd_step(net_a, g, lr=0.1)
        sgd_step(net_b, g, lr=0.2)
        # equality up to one rounding: p - a - a vs p - 2a
        assert np.allclose(net_a.trunk[0].weight, net_b.trunk[0].weight,
                           rtol=0, atol=1e-15)

    def test_non_finite_gradient_raises(self):
        net = dense_net([2, 2], softmax=False)
        bad = Gradients([[np.array([[np.nan, 0], [0, 0.0]]), np.zeros(2)]], {})
        with pytest.raises(DivergenceError):
            sgd_step(net, bad, lr=0.1)

    def test_small_step_never_increases_smooth_loss(self):
        net = dense_net([6, 8, 4], seed=8)
        x = RNG.standard_normal((16, 6))
        y = RNG.integers(0, 4, 16)
        forward(net, x, mode="train")
        loss0, grad = softmax_cross_entropy(net.cached_logits(), y)
        sgd_step(net, backward(net, grad, at_logits=True), lr=1e-4)
        forward(net, x, mode="train")
        loss1, _ = softmax_cross_entropy(net.cached_logits(), y)
        assert loss1 <= loss0 + 1e-6


class TestLosses:
    def test_uniform_logits_is_log_k(self):
        for k in (2, 10, 21):
            loss, _ = softmax_cross_entropy(np.zeros((5, k)),
                                            np.zeros(5, dtype=int))
            assert loss == pytest.approx(np.log(k), abs=1e-12)

    def test_ln_ten(self):
        loss, _ = softmax_cross_entropy(np.zeros((1, 10)), np.array([3]))
        assert loss == pytest.approx(2.302585092994046, abs=1e-12)

    def test_loss_decreases_with_margin(self):
        losses = []
        for margin in (1.0, 5.0, 10.0):
            logits = np.zeros((1, 4))
            logits[0, 2] = margin
            losses.append(softmax_cross_entropy(logits, np.array([2]))[0])
        assert losses[0] > losses[1] > losses[2]

    def test_ce_gradient_form(self):
        logits = RNG.standard_normal((6, 3))
        labels = RNG.integers(0, 3, 6)
        _, grad = softmax_cross_entropy(logits, labels)
        z = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        probs[np.arange(6), labels] -= 1
        assert np.allclose(grad, probs / 6, atol=1e-12)

    def test_out_of_range_label(self):
        with pytest.raises(ShapeError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))

    def test_mse_basics(self):
        pred = RNG.standard_normal((4, 3))
        assert mse_loss(pred, pred)[0] == 0.0
        loss, grad = mse_loss(pred + 1.0, pred)
        assert loss == pytest.approx(1.0)
        assert np.allclose(grad, 2.0 / pred.size)

    def test_mse_gradient_matches_finite_differences(self):
        pred = RNG.standard_normal((3, 2))
        target = RNG.standard_normal((3, 2))
        _, grad = mse_loss(pred, target)
        eps = 1e-7
        for i in range(3):
            for j in range(2):
                p = pred.copy()
                p[i, j] += eps
                lp = mse_loss(p, target)[0]
                p[i, j] -= 2 * eps
                lm = mse_loss(p, target)[0]
                numeric = (lp - lm) / (2 * eps)
                assert abs(numeric - grad[i, j]) <= 1e-6 * max(1.0, abs(numeric))

    def test_mse_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse_loss(np.zeros((2, 2)), np.zeros((2, 3)))


class TestSpecValidation:
    def test_filter_wider_than_positions(self):
        with pytest.raises(ConfigError):
            Conv1d("frequency", 4, 11, 3, 10)

    def test_bad_axis(self):
        with pytest.raises(ConfigError):
            Conv1d("depth", 4, 3, 3, 10)

    def test_bad_view_shape(self):
        with pytest.raises(ConfigError):
            Conv1d("frequency", 4, 3, 3, 10, view_shape=(7, 3))

    def test_view_perm_must_be_a_permutation(self):
        with pytest.raises(ConfigError, match="permutation"):
            Conv1d("frequency", 4, 3, 3, 10, view_shape=(10, 3), view_perm=(0, 0))

    def test_pool_larger_than_positions(self):
        with pytest.raises(ConfigError):
            MaxPool1d(11, 10, 2)

    def test_mismatched_chain_rejected(self):
        layers = [Dense(4, 3), Dense(5, 2)]
        with pytest.raises(ConfigError):
            NetworkGraph([Stream("acoustic", 4, [])], layers, np.float64)

    def test_conv_after_another_stream_layer_rejected(self):
        conv = Conv1d("time", 2, 3, 3, 10)
        stream = Stream("acoustic", 4, [Dense(4, 30), conv])
        with pytest.raises(ConfigError, match="first layer"):
            NetworkGraph([stream], [Dense(conv.out_dim(None), 2)], np.float64)

    def test_conv_in_trunk_rejected(self):
        conv = Conv1d("time", 2, 3, 3, 10)
        with pytest.raises(ConfigError, match="first layer"):
            NetworkGraph([Stream("acoustic", 30, [])], [conv], np.float64)


class TestCheckpointFormat:
    def test_roundtrip_bit_exact(self, tmp_path):
        net = two_stream_net(dtype=np.float32, seed=21)
        path = tmp_path / "net.nng"
        save_network(path, net)
        back = load_network(path)
        for a, b in zip(net.all_layers(), back.all_layers()):
            assert a.kind == b.kind
            for pa, pb in zip(a.param_arrays(), b.param_arrays()):
                assert np.array_equal(pa, pb)
        x = {"acoustic": RNG.standard_normal((3, 32)).astype(np.float32),
             "tv": RNG.standard_normal((3, 15)).astype(np.float32)}
        assert np.array_equal(forward(net, x), forward(back, x))

    def test_save_load_save_identical_bytes(self, tmp_path):
        net = conv_net(dtype=np.float32, seed=22)
        p1, p2 = tmp_path / "a.nng", tmp_path / "b.nng"
        save_network(p1, net)
        save_network(p2, load_network(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_rejected(self, tmp_path):
        net = dense_net([4, 3], dtype=np.float32)
        path = tmp_path / "net.nng"
        save_network(path, net)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError):
            load_network(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "net.nng"
        path.write_bytes(b"XXXX" + b"\x00" * 50)
        with pytest.raises(FormatError):
            load_network(path)

    def test_conv_not_first_in_stream_rejected(self, tmp_path):
        net = conv_net(dtype=np.float32, seed=23)
        # break the conv-first rule after construction has checked it
        net.streams[0].layers.insert(0, Dense(30, 30, dtype=np.float32))
        path = tmp_path / "net.nng"
        save_network(path, net)
        with pytest.raises(FormatError, match="first layer"):
            load_network(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        net = dense_net([4, 3], dtype=np.float32)
        path = tmp_path / "net.nng"
        save_network(path, net)
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(FormatError):
            load_network(path)


def test_count_parameters():
    net = dense_net([4, 5, 3], seed=1)
    assert count_parameters(net) == 4 * 5 + 5 + 5 * 3 + 3
