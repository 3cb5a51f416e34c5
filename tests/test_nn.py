import re
import tracemalloc

import numpy as np
import pytest

from helpers import (count_parameters, draw_smooth_gradcheck_case,
                     max_relative_gradient_error, reference_maxpool)

from tvasr.errors import (ConfigError, DivergenceError, FormatError,
                          ShapeError, StateError)
from tvasr.nn import (_DRAW_BLOCK, _SGD_BLOCK, Activation, Conv1d, Dense,
                      MaxPool1d, NetworkGraph, Softmax, Stream, _sgd_update,
                      backward,
                      forward, glorot_uniform, mse_loss, network_from_bytes,
                      network_to_bytes, sgd_step, softmax_cross_entropy)
from tvasr import nn
from tvasr.records import read_file

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
        assert np.array_equal(forward(net, {"acoustic": x}), x)

    def test_conv_and_pool_positions(self):
        conv = Conv1d("frequency", 200, 8, 51, 40)
        assert conv.out_positions == 33
        assert conv.out_dim(None) == 33 * 200
        pool = MaxPool1d(3, 33, 200)
        assert pool.out_positions == 11
        assert pool.out_dim(None) == 2200

    def test_softmax_rows_sum_to_one(self):
        net = dense_net([7, 5], seed=3)
        out = forward(net, {"acoustic": RNG.standard_normal((11, 7))})
        assert np.all(np.abs(out.sum(axis=1) - 1.0) < 1e-9)

    def test_deterministic_bitwise(self):
        net = conv_net(seed=5)
        x = {"acoustic": RNG.standard_normal((9, 30))}
        assert np.array_equal(forward(net, x), forward(net, x))

    def test_shape_mismatch_reports_input(self):
        net = dense_net([4, 2])
        with pytest.raises(ShapeError, match="acoustic"):
            forward(net, {"acoustic": np.zeros((3, 5))})

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

    def test_single_array_rejected_for_one_input(self):
        net = dense_net([4, 2])
        with pytest.raises(ShapeError, match="dict"):
            forward(net, np.zeros((3, 4)))

    def test_train_mode_returns_the_logits(self):
        net = dense_net([7, 5], seed=3)
        dense, softmax = net.trunk
        x = {"acoustic": RNG.standard_normal((11, 7))}
        logits = forward(net, x, mode="train")
        assert np.array_equal(logits, dense.forward(x["acoustic"], False))
        assert np.array_equal(forward(net, x), softmax.forward(logits, False))

    def test_eval_mode_caches_nothing(self):
        net = dense_net([4, 3])
        forward(net, {"acoustic": np.zeros((2, 4))}, mode="eval")
        with pytest.raises(StateError):
            backward(net, np.zeros((2, 3)))

    def test_train_forward_drops_the_previous_caches(self):
        net = conv_net(activation="relu", seed=6)
        forward(net, {"acoustic": RNG.standard_normal((4, 30))}, mode="train")
        with pytest.raises(ShapeError):
            forward(net, {"acoustic": np.zeros((4, 31))}, mode="train")
        assert all(layer._cache is None for layer in net.all_layers())
        with pytest.raises(StateError):
            backward(net, np.zeros((4, 5)))

    def test_time_constant_input_gives_time_constant_output(self):
        rng = np.random.default_rng(8)
        conv = Conv1d("time", 4, 3, 6, 9, rng=rng, dtype=np.float64)
        net = NetworkGraph([Stream("acoustic", 54, [conv])], [], np.float64)
        channel_pattern = rng.standard_normal(6)
        x = np.tile(channel_pattern, (2, 9))  # every time position identical
        out = forward(net, {"acoustic": x}).reshape(2, conv.out_positions, 4)
        assert np.allclose(out, out[:, :1, :])


class TestBackward:
    def test_zero_loss_grad_gives_zero_param_grads(self):
        net = conv_net(seed=2)
        x = RNG.standard_normal((5, 30))
        forward(net, {"acoustic": x}, mode="train")
        grads = backward(net, np.zeros((5, 5)))
        for layer_grads in grads:
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pool_size,n_positions,n_channels", [
        (1, 6, 4),
        (3, 9, 5),
        (3, 11, 4),   # two trailing positions dropped
        (5, 13, 6),   # the time stream: 13 positions, 3 dropped
        (5, 15, 3),
    ])
    def test_maxpool_matches_argmax_oracle(self, pool_size, n_positions,
                                           n_channels, dtype):
        rng = np.random.default_rng(pool_size * 100 + n_positions)
        t = 16
        # ReLU outputs: many zeros, and whole windows of zeros (ties)
        x = np.maximum(rng.standard_normal((t, n_positions, n_channels)), 0)
        x[::3, :pool_size, :] = 0.0
        if pool_size > 1:
            x[1::4, pool_size - 1, :] = x[1::4, 0, :]  # exact positive ties
        x = x.reshape(t, -1).astype(dtype)
        pool = MaxPool1d(pool_size, n_positions, n_channels)
        dy = rng.standard_normal((t, pool.out_dim(None))).astype(dtype)
        ref_y, ref_idx, ref_dx = reference_maxpool(x, pool_size, n_positions,
                                                   n_channels, dy)
        y = pool.forward(x, train=True)
        idx = pool._cache[0]
        dx, grads = pool.backward(dy)
        assert idx.dtype == np.uint8
        assert np.array_equal(y, ref_y)
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(dx, ref_dx)
        assert dx.dtype == dtype and grads == []
        assert not np.any(np.signbit(dx[dx == 0.0]))  # no -0.0
        assert np.array_equal(pool.forward(x, train=False), y)

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pool_size,n_positions,n_channels", [
        (3, 9, 5),
        (3, 11, 4),   # two trailing positions dropped
        (5, 13, 6),   # the time stream: 13 positions, 3 dropped
    ])
    def test_maxpool_backward_matches_zero_filled_routing(
            self, pool_size, n_positions, n_channels, dtype, relu):
        rng = np.random.default_rng(pool_size * 7 + n_positions)
        t = 20
        x = rng.standard_normal((t, n_positions * n_channels)).astype(dtype)
        x[::4] = -np.abs(x[::4])  # windows whose max is < 0
        dy = rng.standard_normal((t, n_positions // pool_size * n_channels))
        dy = dy.astype(dtype)
        dy[::3, ::2] = -0.0
        pool = MaxPool1d(pool_size, n_positions, n_channels)
        pool.forward(x, True, relu)
        dx, _ = pool.backward(dy)
        assert bit_equal(dx, zero_filled_routing(pool, dy))
        dropped = dx.reshape(t, n_positions, n_channels)[
            :, n_positions // pool_size * pool_size:]
        assert not np.any(dropped) and not np.any(np.signbit(dropped))

    def test_dnn_gradients_match_hand_chain_rule(self):
        net = dense_net([6, 10, 4], dtype=np.float32, seed=11)
        first, hidden, second = net.trunk[:3]
        x = RNG.standard_normal((7, 6)).astype(np.float32)
        labels = RNG.integers(0, 4, 7)
        logits = forward(net, {"acoustic": x}, mode="train")
        _, g = softmax_cross_entropy(logits, labels)
        grads = backward(net, g)
        # the chain rule by hand, in the order backward applies it
        h = hidden.forward(first.forward(x, False), False)
        dz = g @ second.weight.T * h * (1.0 - h)
        expected = [[x.T @ dz, dz.sum(axis=0)], [], [h.T @ g, g.sum(axis=0)],
                    []]
        for got, want in zip(grads, expected):
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.dtype == np.float32 and np.array_equal(a, b)

    def test_no_input_gradients(self):
        net = two_stream_net()
        x = {"acoustic": RNG.standard_normal((3, 32)),
             "tv": RNG.standard_normal((3, 15))}
        logits = forward(net, x, mode="train")
        _, grad = softmax_cross_entropy(logits, np.array([0, 1, 3]))
        grads = backward(net, grad)
        # one list per layer, matching its parameters, and nothing more
        assert len(grads) == len(net.all_layers())
        for layer, layer_grads in zip(net.all_layers(), grads):
            assert ([g.shape for g in layer_grads]
                    == [p.shape for p in layer.param_arrays()])


def zero_filled_routing(pool, dy):
    """MaxPool1d's input gradient routed into a zero-filled array, one pass
    per window slot: the form before the pool skipped that fill."""
    idx, t, positive = pool._cache
    k, p_out, c = pool.pool_size, pool.out_positions, pool.n_channels
    dy = dy.reshape(t, p_out, c)
    if positive is not None:
        dy = dy * positive
    bits = np.dtype(f"i{dy.itemsize}")
    dx = np.zeros((t, pool.n_positions, c), dtype=bits)
    dxw = dx[:, :p_out * k, :].reshape(t, p_out, k, c)
    for j in range(k):
        np.multiply(dy.view(bits), idx == j, out=dxw[:, :, j, :])
    return dx.view(dy.dtype).reshape(t, pool.in_dim)


def bit_equal(a, b):
    """Same dtype, shape and bytes: a -0.0 differs from a +0.0."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestReluFoldedIntoPool:
    """MaxPool1d(relu=True) against Activation("relu") then MaxPool1d."""

    @staticmethod
    def pre_activation(rng, t, pool_size, n_positions, n_channels, dtype):
        z = rng.standard_normal((t, n_positions, n_channels))
        k = pool_size
        z[0::4, :k, :] = -np.abs(z[0::4, :k, :])  # all-negative windows
        z[1::4, :k, :] = -np.abs(z[1::4, :k, :])
        z[1::4, k - 1, :] = -0.0                   # their max is -0.0
        z[2::4, :k, 1] = -0.0                      # only -0.0
        z[2::4, :k, 2] = 0.0                       # only +0.0
        if k > 1:
            z[3::4, :k, :] = np.abs(z[3::4, :k, :])
            z[3::4, k - 1, :] = z[3::4, 0, :]      # exact positive ties
            z[3::4, k - 2, 0] = -0.0
        z[:, n_positions // k * k:, :] = 9.0       # dropped trailing positions
        return z.reshape(t, -1).astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pool_size,n_positions,n_channels", [
        (1, 6, 4),
        (2, 7, 3),
        (3, 11, 4),   # two trailing positions dropped
        (5, 13, 6),   # the time stream: 13 positions, 3 dropped
    ])
    def test_matches_relu_then_pool_bit_for_bit(self, pool_size, n_positions,
                                                n_channels, dtype):
        rng = np.random.default_rng(pool_size * 10 + n_positions)
        t = 24
        z = self.pre_activation(rng, t, pool_size, n_positions, n_channels,
                                dtype)
        relu = Activation("relu")
        pool = MaxPool1d(pool_size, n_positions, n_channels)
        dy = rng.standard_normal((t, pool.out_dim(None))).astype(dtype)
        dy[::5] = 0.0
        want_y = pool.forward(relu.forward(z, True), True)
        want_idx = pool._cache[0]
        want_dx, _ = relu.backward(pool.backward(dy)[0])

        folded = MaxPool1d(pool_size, n_positions, n_channels)
        y = folded.forward(z, True, True)
        idx = folded._cache[0]
        dx, grads = folded.backward(dy)
        assert bit_equal(y, want_y)
        assert bit_equal(idx, want_idx)
        assert bit_equal(dx, want_dx) and grads == []
        assert np.any(np.signbit(dx[dx == 0.0]))  # 0 x negative dy is -0.0
        assert bit_equal(folded.forward(z, False, True), want_y)

    def test_eval_mode_caches_nothing(self):
        pool = MaxPool1d(3, 9, 2)
        pool.forward(RNG.standard_normal((4, 18)), False, True)
        assert pool._cache is None

    @pytest.mark.parametrize("axis", ["frequency", "time"])
    def test_relu_stream_is_folded_with_the_same_gradients(self, axis):
        net = conv_net(axis=axis, activation="relu", dtype=np.float32,
                       seed=21)
        conv, relu, pool = net.streams[0].layers
        dense, softmax = net.trunk
        x = np.maximum(RNG.standard_normal((12, 30)), 0).astype(np.float32)
        labels = RNG.integers(0, 5, 12)
        logits = forward(net, {"acoustic": x}, mode="train")
        _, g = softmax_cross_entropy(logits, labels)
        grads = backward(net, g)
        assert relu._cache is None and pool._cache[2] is not None
        # the unfused chain, one layer at a time
        h = pool.forward(relu.forward(conv.forward(x, True), True), True)
        dense.forward(h, True)
        d_h, dense_grads = dense.backward(g)
        _, conv_grads = conv.backward(relu.backward(pool.backward(d_h)[0])[0])
        want = [conv_grads, [], [], dense_grads, []]
        for got, expected in zip(grads, want):
            assert len(got) == len(expected)
            assert all(bit_equal(a, b) for a, b in zip(got, expected))

    def test_sigmoid_stream_is_not_folded(self):
        net = conv_net(activation="sigmoid", seed=22)
        _, act, pool = net.streams[0].layers
        forward(net, {"acoustic": RNG.standard_normal((5, 30))}, mode="train")
        assert act._cache is not None and pool._cache[2] is None


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


def one_dense_net(n_in, n_out, dtype=np.float64, seed=None):
    """A net of one Dense layer: its weight gradient is x.T @ loss_grad."""
    rng = None if seed is None else np.random.default_rng(seed)
    layer = Dense(n_in, n_out, rng, dtype)
    return NetworkGraph([Stream("acoustic", n_in, [])], [layer], dtype)


class TestSgdStep:
    def test_zero_lr_keeps_parameters(self):
        net = dense_net([4, 3], seed=6)
        x = RNG.standard_normal((5, 4))
        before = [p.copy() for l in net.all_layers() for p in l.param_arrays()]
        logits = forward(net, {"acoustic": x}, mode="train")
        _, grad = softmax_cross_entropy(logits, RNG.integers(0, 3, 5))
        sgd_step(net, grad, lr=0.0)
        after = [p for l in net.all_layers() for p in l.param_arrays()]
        for b, a in zip(before, after):
            assert np.array_equal(b, a)

    def test_scalar_hand_example(self):
        net = one_dense_net(1, 1)
        layer = net.trunk[0]
        layer.weight[0, 0] = 1.0
        forward(net, {"acoustic": np.array([[1.0]])}, mode="train")
        sgd_step(net, np.array([[2.0]]), lr=0.5)  # dw = db = 1 x 2
        assert layer.weight[0, 0] == 0.0 and layer.bias[0] == -1.0

    def test_two_steps_equal_one_double_lr(self):
        # one Dense layer: the gradient does not depend on the weights
        x, dy = RNG.standard_normal((4, 3)), RNG.standard_normal((4, 2))
        net_a, net_b = one_dense_net(3, 2, seed=7), one_dense_net(3, 2, seed=7)
        for _ in range(2):
            forward(net_a, {"acoustic": x}, mode="train")
            sgd_step(net_a, dy, lr=0.1)
        forward(net_b, {"acoustic": x}, mode="train")
        sgd_step(net_b, dy, lr=0.2)
        # equality up to one rounding: p - a - a vs p - 2a
        assert np.allclose(net_a.trunk[0].weight, net_b.trunk[0].weight,
                           rtol=0, atol=1e-15)

    def test_rate_type_does_not_change_float32_update(self):
        lr = 0.013
        x = RNG.standard_normal((6, 40)).astype(np.float32)
        dy = RNG.standard_normal((6, 25)).astype(np.float32)
        net = one_dense_net(40, 25, np.float32, seed=9)
        forward(net, {"acoustic": x}, mode="train")
        g = backward(net, dy)[0]
        expected = [p - (lr * d).astype(np.float32)
                    for p, d in zip(net.trunk[0].param_arrays(), g)]
        for rate in (lr, np.float64(lr), np.float32(lr)):
            net = one_dense_net(40, 25, np.float32, seed=9)
            forward(net, {"acoustic": x}, mode="train")
            sgd_step(net, dy, rate)
            for p, want in zip(net.trunk[0].param_arrays(), expected):
                assert p.dtype == np.float32 and np.array_equal(p, want)

    def test_non_finite_gradient_raises(self):
        net = dense_net([2, 2], softmax=False)
        forward(net, {"acoustic": np.ones((2, 2))}, mode="train")
        with pytest.raises(DivergenceError):
            sgd_step(net, np.array([[np.nan, 0], [0, 0.0]]), lr=0.1)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -0.1])
    def test_rejects_bad_learning_rate(self, lr):
        net = dense_net([3, 2], softmax=False, seed=4)
        before = net.trunk[0].weight.copy()
        forward(net, {"acoustic": np.ones((2, 3))}, mode="train")
        with pytest.raises(ValueError, match="learning rate"):
            sgd_step(net, np.ones((2, 2)), lr)
        assert np.array_equal(net.trunk[0].weight, before)
        assert all(l._cache is not None for l in net.all_layers())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocks_match_whole_array_update(self, dtype):
        width = _SGD_BLOCK + 77  # bias: two blocks; weight: three
        layer = Dense(2, width, np.random.default_rng(5), dtype)
        layer.bias[:] = RNG.standard_normal(width)
        g = [RNG.standard_normal((2, width)).astype(dtype),
             RNG.standard_normal(width).astype(dtype)]
        g_bytes = [a.tobytes() for a in g]
        lr = 0.013
        want = [p - p.dtype.type(lr) * d
                for p, d in zip(layer.param_arrays(), g)]
        for p, d in zip(layer.param_arrays(), g):
            _sgd_update("trunk layer 0 (dense)", p, d, p.dtype.type(lr))
        for p, expected in zip(layer.param_arrays(), want):
            assert bit_equal(p, expected)
        assert [a.tobytes() for a in g] == g_bytes

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_in_a_later_block_raises(self, bad):
        width = _SGD_BLOCK + 77
        weight = np.zeros((2, width), dtype=np.float32)
        weight_grad = np.ones((2, width), dtype=np.float32)
        weight_grad[1, -3] = bad  # in the third block
        with pytest.raises(DivergenceError, match="dense"):
            _sgd_update("trunk layer 0 (dense)", weight, weight_grad,
                        np.float32(0.1))

    def test_gradient_of_another_shape_rejected(self):
        weight = np.zeros((3, 2))
        with pytest.raises(ShapeError, match="gradient structure"):
            _sgd_update("trunk layer 0 (dense)", weight, np.ones((2, 3)),
                        0.1)  # same size

    def test_non_contiguous_parameter_rejected(self):
        net = dense_net([3, 2], softmax=False)
        net.trunk[0].weight = np.ones((2, 3)).T  # an update would be lost
        forward(net, {"acoustic": np.ones((2, 3))}, mode="train")
        with pytest.raises(ShapeError, match="contiguous"):
            sgd_step(net, np.ones((2, 2)), 0.1)

    def test_large_finite_gradient_is_not_divergence(self):
        # the block sum overflows to inf; the exact test finds no inf
        net = one_dense_net(2, 2, np.float32)
        forward(net, {"acoustic": np.ones((1, 2), np.float32)}, mode="train")
        big = np.float32(3e38)
        sgd_step(net, np.full((1, 2), big), 0.0)  # dw and db are all big

    def test_small_step_never_increases_smooth_loss(self):
        net = dense_net([6, 8, 4], seed=8)
        x = RNG.standard_normal((16, 6))
        y = RNG.integers(0, 4, 16)
        logits = forward(net, {"acoustic": x}, mode="train")
        loss0, grad = softmax_cross_entropy(logits, y)
        sgd_step(net, grad, lr=1e-4)
        logits = forward(net, {"acoustic": x}, mode="train")
        loss1, _ = softmax_cross_entropy(logits, y)
        assert loss1 <= loss0 + 1e-6


class TestInputGradientOfTheFirstLayer:
    """Nothing reads the input gradient of a dnn's first trunk layer, so no
    backward builds it; a trunk after a conv stream still builds it."""

    @pytest.fixture
    def dense_dx_built(self, monkeypatch):
        built = []
        original = Dense.backward

        def recording(layer, dy, need_dx=True):
            dx, grads = original(layer, dy, need_dx)
            built.append((layer, dx is not None))
            return dx, grads

        monkeypatch.setattr(Dense, "backward", recording)
        return built

    @pytest.mark.parametrize("sizes", [[6, 8, 5, 4], [6, 4]])
    def test_dnn_sgd_step(self, dense_dx_built, sizes):
        net = dense_net(sizes, seed=9)
        logits = forward(net, {"acoustic": RNG.standard_normal((7, 6))},
                         mode="train")
        _, grad = softmax_cross_entropy(logits, RNG.integers(0, 4, 7))
        sgd_step(net, grad, 0.1)
        dense = [l for l in net.trunk if l.kind == "dense"]
        assert dense_dx_built == [(l, l is not dense[0]) for l in dense[::-1]]

    def test_conv_net_backward(self, dense_dx_built):
        net = conv_net(seed=9)
        logits = forward(net, {"acoustic": RNG.standard_normal((7, 30))},
                         mode="train")
        backward(net, softmax_cross_entropy(logits, RNG.integers(0, 5, 7))[1])
        assert dense_dx_built == [(net.trunk[0], True)]


class TestOneLayerAtATime:
    """sgd_step updates each layer as its backward returns, then frees it."""

    def test_caches_dropped_and_a_second_step_needs_a_forward(self):
        net = two_stream_net(seed=31)
        x = {"acoustic": RNG.standard_normal((5, 32)),
             "tv": RNG.standard_normal((5, 15))}
        logits = forward(net, x, mode="train")
        _, grad = softmax_cross_entropy(logits, RNG.integers(0, 4, 5))
        sgd_step(net, grad, 0.1)
        assert all(layer._cache is None for layer in net.all_layers())
        with pytest.raises(StateError):
            sgd_step(net, grad, 0.1)
        with pytest.raises(StateError):
            backward(net, grad)

    def test_folded_relu_and_softmax_caches_dropped(self):
        net = conv_net(activation="relu", seed=32)
        x = {"acoustic": np.abs(RNG.standard_normal((4, 30)))}
        logits = forward(net, x, mode="train")
        _, grad = softmax_cross_entropy(logits, RNG.integers(0, 5, 4))
        sgd_step(net, grad, 0.1)
        assert all(layer._cache is None for layer in net.all_layers())

    def test_missing_forward_refused_before_anything_changes(self):
        net = dense_net([3, 2], softmax=False, seed=33)
        before = net.trunk[0].weight.copy()
        with pytest.raises(StateError):
            sgd_step(net, np.ones((2, 2)), 0.1)
        assert np.array_equal(net.trunk[0].weight, before)

    def test_step_holds_one_layers_gradients(self):
        """Peak above the forward's state: under two layers' weights plus
        activations (all eight layers' gradients before the updates)."""
        width, frames, depth = 1024, 32, 8
        rng = np.random.default_rng(34)
        layers = [Dense(width, width, rng, np.float32) for _ in range(depth)]
        net = NetworkGraph([Stream("acoustic", width, [])], layers,
                           np.float32)
        x = rng.standard_normal((frames, width)).astype(np.float32)
        dy = rng.standard_normal((frames, width)).astype(np.float32)
        weight_bytes = layers[0].weight.nbytes
        activation_bytes = x.nbytes
        forward(net, {"acoustic": x}, mode="train")
        tracemalloc.start()
        try:
            sgd_step(net, dy, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * weight_bytes + 4 * activation_bytes, peak

    @pytest.mark.parametrize("scope,net,where", [
        ("trunk", lambda: dense_net([3, 4, 2], seed=35),
         "trunk layer 2 (dense)"),
        ("stream", lambda: NetworkGraph(
            [Stream("acoustic", 3, [Dense(3, 2, np.random.default_rng(36),
                                         np.float64)])], [], np.float64),
         "stream 0 layer 0 (dense)"),
    ])
    def test_divergence_names_the_layer(self, scope, net, where):
        net = net()
        forward(net, {"acoustic": RNG.standard_normal((3, 3))}, mode="train")
        grad = np.full((3, 2), np.nan)
        message = rf"^non-finite gradient in {re.escape(where)}$"
        with pytest.raises(DivergenceError, match=message):
            sgd_step(net, grad, 0.1)


class TestGlorotBlocks:
    @pytest.mark.parametrize("shape", [(2350, 1024), (3, 70000), (1, 5),
                                       (_DRAW_BLOCK, 3), (409, 200)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocked_draw_equals_one_draw(self, shape, dtype):
        blocked = glorot_uniform(np.random.default_rng(41), shape, 7, 9, dtype)
        limit = np.sqrt(6.0 / 16)
        whole = np.random.default_rng(41).uniform(
            -limit, limit, size=shape).astype(dtype)
        assert bit_equal(blocked, whole)

    def test_stream_continues_as_after_one_draw(self):
        rng_a, rng_b = np.random.default_rng(42), np.random.default_rng(42)
        glorot_uniform(rng_a, (300, 500), 300, 500, np.float32)
        rng_b.uniform(-1, 1, size=(300, 500))
        assert rng_a.random() == rng_b.random()


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

    @pytest.mark.parametrize("fn", ["linear", "tanh"])
    def test_unknown_activation(self, fn):
        with pytest.raises(ConfigError, match="unknown activation"):
            Activation(fn)

    def test_bad_view_shape(self):
        with pytest.raises(ConfigError):
            Conv1d("frequency", 4, 3, 3, 10, view_shape=(7, 3))

    def test_view_perm_must_be_a_permutation(self):
        with pytest.raises(ConfigError, match="permutation"):
            Conv1d("frequency", 4, 3, 3, 10, view_shape=(10, 3), view_perm=(0, 0))

    def test_pool_larger_than_positions(self):
        with pytest.raises(ConfigError):
            MaxPool1d(11, 10, 2)

    def test_pool_larger_than_its_index_dtype(self):
        MaxPool1d(256, 300, 1)
        with pytest.raises(ConfigError, match="exceeds 256"):
            MaxPool1d(257, 300, 1)

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

    @pytest.mark.parametrize("stream,trunk", [
        ([], [Dense(4, 3), Softmax(), Dense(3, 2)]),
        ([Dense(4, 3), Softmax()], []),
    ], ids=["mid-trunk", "end-of-stream"])
    def test_softmax_that_does_not_end_the_trunk_rejected(self, stream,
                                                          trunk):
        with pytest.raises(ConfigError, match="only end the trunk"):
            NetworkGraph([Stream("acoustic", 4, stream)], trunk, np.float64)


class TestCheckpointFormat:
    """NNG1 network records, as bundles and inversion models hold them."""

    @staticmethod
    def save(path, net):
        path.write_bytes(network_to_bytes(net))

    @staticmethod
    def load(path):
        return read_file(path, network_from_bytes)

    def test_roundtrip_bit_exact(self, tmp_path):
        net = two_stream_net(dtype=np.float32, seed=21)
        path = tmp_path / "net.nng"
        self.save(path, net)
        back = self.load(path)
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
        self.save(p1, net)
        self.save(p2, self.load(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_rejected(self, tmp_path):
        net = dense_net([4, 3], dtype=np.float32)
        path = tmp_path / "net.nng"
        self.save(path, net)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError):
            self.load(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "net.nng"
        path.write_bytes(b"XXXX" + b"\x00" * 50)
        with pytest.raises(FormatError):
            self.load(path)

    def test_conv_not_first_in_stream_rejected(self, tmp_path):
        net = conv_net(dtype=np.float32, seed=23)
        # break the conv-first rule after construction has checked it
        net.streams[0].layers.insert(0, Dense(30, 30, dtype=np.float32))
        path = tmp_path / "net.nng"
        self.save(path, net)
        with pytest.raises(FormatError, match="first layer"):
            self.load(path)

    def test_softmax_before_the_end_of_the_trunk_rejected(self, tmp_path):
        net = dense_net([4, 3], dtype=np.float32)
        # break the softmax-last rule after construction has checked it
        net.trunk.append(Dense(3, 2, dtype=np.float32))
        path = tmp_path / "net.nng"
        self.save(path, net)
        with pytest.raises(FormatError, match="only end the trunk"):
            self.load(path)

    def test_unknown_activation_code_rejected(self, tmp_path, monkeypatch):
        net = dense_net([4, 3, 2], dtype=np.float32)
        path = tmp_path / "net.nng"
        monkeypatch.setitem(nn._ACT_CODES, "sigmoid", 2)  # once "linear"
        self.save(path, net)
        monkeypatch.undo()
        with pytest.raises(FormatError, match="activation"):
            self.load(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        net = dense_net([4, 3], dtype=np.float32)
        path = tmp_path / "net.nng"
        self.save(path, net)
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(FormatError):
            self.load(path)


def test_count_parameters():
    net = dense_net([4, 5, 3], seed=1)
    assert count_parameters(net) == 4 * 5 + 5 + 5 * 3 + 3
