"""Minimal layered network engine with exact backpropagation.

Tensors are plain numpy arrays with frames on the leading axis. A network is
one or more input streams (each a chain of layers on a named input; `forward`
takes a dict of them), whose outputs are concatenated per frame and fed to a
shared trunk. Single-stream networks are the degenerate case with no fusion.
A convolution layer may only open a stream, so it reads a network input, and
backpropagation yields parameter gradients only: nothing reads a gradient
with respect to an input.

Layer kinds: dense, 1-D convolution along a chosen axis of the flat feature
vector, non-overlapping 1-D max pooling, sigmoid or ReLU activations, softmax.
Parameters are stored in the network's dtype (float32 by default); losses
accumulate in double precision.

The mutation contract is single-threaded: `forward(..., mode="train")`
caches activations on the layers; `backward` reads that cache, and
`sgd_step` reads it, updates the parameters and drops it. Eval-mode forward
caches nothing and is safe on a shared graph. A softmax may only end the
trunk; a train-mode forward of such a net returns its logits, the loss
reads them, and its gradient is taken there.
"""

from __future__ import annotations

import struct
from copy import deepcopy
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import expit

from .errors import ConfigError, DivergenceError, FormatError, ShapeError, StateError
from .records import Reader

_NNG_MAGIC = b"NNG1"

_KIND_CODES = {"dense": 0, "conv1d": 1, "maxpool1d": 2, "activation": 3, "softmax": 4}
_ACT_CODES = {"sigmoid": 0, "relu": 1}
_AXIS_CODES = {"frequency": 0, "time": 1}


# Values per glorot_uniform draw: a float64 block, not a float64 copy of
# the whole weight.
_DRAW_BLOCK = 1 << 16


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int,
                   dtype) -> np.ndarray:
    """Uniform(-limit, limit) weights, limit = sqrt(6 / (fan_in + fan_out)).

    Drawn in blocks of _DRAW_BLOCK values straight into the dtype array.
    Each value takes one draw of the stream, so the bits are those of one
    `rng.uniform(..., size=shape).astype(dtype)`.
    """
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    out = np.empty(shape, dtype=dtype)
    flat = out.reshape(-1)
    for start in range(0, flat.size, _DRAW_BLOCK):
        block = flat[start:start + _DRAW_BLOCK]
        block[...] = rng.uniform(-limit, limit, size=block.size)
    return out


class _Layer:
    """What a layer has unless it says otherwise: any input width (in_dim
    None), an output as wide as its input, no parameters, no cache."""

    in_dim = None
    _cache = None

    def out_dim(self, in_dim: int) -> int:
        return in_dim

    def param_arrays(self):
        return []


class Dense(_Layer):
    kind = "dense"

    def __init__(self, n_in: int, n_out: int, rng=None, dtype=np.float32):
        if n_in <= 0 or n_out <= 0:
            raise ConfigError("dense layer sizes must be positive")
        self.n_in = n_in
        self.n_out = n_out
        if rng is None:
            self.weight = np.zeros((n_in, n_out), dtype=dtype)
        else:
            self.weight = glorot_uniform(rng, (n_in, n_out), n_in, n_out, dtype)
        self.bias = np.zeros(n_out, dtype=dtype)

    @property
    def in_dim(self):
        return self.n_in

    def out_dim(self, in_dim: int) -> int:
        return self.n_out

    def param_arrays(self):
        return [self.weight, self.bias]

    def forward(self, x, train):
        if train:
            self._cache = x
        y = x @ self.weight
        y += self.bias
        return y

    def backward(self, dy, need_dx=True):
        """(dx, [dw, db]); dx is None when the caller will not read it."""
        x = self._cache
        dw = x.T @ dy
        db = dy.sum(axis=0)
        dx = dy @ self.weight.T if need_dx else None
        return dx, [dw, db]


class Conv1d(_Layer):
    """Valid 1-D convolution along one axis of the flat feature vector.

    The incoming (T, D) tensor is viewed as (T, n_positions, in_channels);
    `view_shape`/`view_perm` optionally reinterpret D through a reshape and
    axis permutation first (used to carve the frequency axis out of spliced
    features). Output is (T, out_positions * n_filters), position-major.

    The layer opens its stream, so `backward` returns None for dx.
    """

    kind = "conv1d"

    def __init__(self, axis: str, n_filters: int, filter_width: int,
                 in_channels: int, n_positions: int,
                 view_shape=None, view_perm=None, rng=None, dtype=np.float32):
        if axis not in _AXIS_CODES:
            raise ConfigError(f"unknown convolution axis {axis!r}")
        if min(n_filters, filter_width, in_channels, n_positions) <= 0:
            raise ConfigError("convolution sizes must be positive")
        if filter_width > n_positions:
            raise ConfigError(
                f"filter width {filter_width} exceeds {n_positions} positions")
        if view_shape is not None:
            view_shape = tuple(int(s) for s in view_shape)
            view_perm = tuple(int(p) for p in view_perm) if view_perm else None
            if int(np.prod(view_shape)) != n_positions * in_channels:
                raise ConfigError("view shape does not match layer dimensions")
            if view_perm and sorted(view_perm) != list(range(len(view_shape))):
                raise ConfigError(f"view_perm {view_perm} is not a permutation")
        self.axis = axis
        self.n_filters = n_filters
        self.filter_width = filter_width
        self.in_channels = in_channels
        self.n_positions = n_positions
        self.view_shape = view_shape
        self.view_perm = view_perm
        kc = filter_width * in_channels
        if rng is None:
            self.weight = np.zeros((kc, n_filters), dtype=dtype)
        else:
            self.weight = glorot_uniform(rng, (kc, n_filters), kc, n_filters, dtype)
        self.bias = np.zeros(n_filters, dtype=dtype)

    @property
    def in_dim(self):
        return self.n_positions * self.in_channels

    @property
    def out_positions(self):
        return self.n_positions - self.filter_width + 1

    def out_dim(self, in_dim: int) -> int:
        return self.out_positions * self.n_filters

    def param_arrays(self):
        return [self.weight, self.bias]

    def _to_view(self, x):
        t = x.shape[0]
        if self.view_shape is not None:
            xv = x.reshape((t,) + self.view_shape)
            if self.view_perm is not None:
                xv = xv.transpose((0,) + tuple(p + 1 for p in self.view_perm))
        else:
            xv = x.reshape(t, self.n_positions, self.in_channels)
        return np.ascontiguousarray(xv.reshape(t, self.n_positions, self.in_channels))

    def forward(self, x, train):
        t = x.shape[0]
        k, p_out = self.filter_width, self.out_positions
        xv = self._to_view(x)
        # (T, P_out, C, K) view -> (T*P_out, K*C) im2col matrix
        xw = sliding_window_view(xv, k, axis=1).transpose(0, 1, 3, 2)
        xw = np.ascontiguousarray(xw).reshape(t * p_out, k * self.in_channels)
        y = xw @ self.weight
        y += self.bias
        if train:
            self._cache = (xw, t)
        return y.reshape(t, p_out * self.n_filters)

    def backward(self, dy):
        xw, t = self._cache
        dy2 = dy.reshape(t * self.out_positions, self.n_filters)
        dw = xw.T @ dy2
        db = dy2.sum(axis=0)
        return None, [dw, db]


# The cached max-pool indices are uint8.
MAX_POOL_SIZE = 256


class MaxPool1d(_Layer):
    """Non-overlapping max pooling over positions, per channel.

    Input is (T, n_positions * n_channels) position-major; trailing positions
    that do not fill a whole pool are dropped, matching floor(P / pool).
    """

    kind = "maxpool1d"

    def __init__(self, pool_size: int, n_positions: int, n_channels: int):
        if min(pool_size, n_positions, n_channels) <= 0:
            raise ConfigError("pooling sizes must be positive")
        if pool_size > n_positions:
            raise ConfigError(
                f"pool size {pool_size} exceeds {n_positions} positions")
        if pool_size > MAX_POOL_SIZE:
            raise ConfigError(
                f"pool size {pool_size} exceeds {MAX_POOL_SIZE}")
        self.pool_size = pool_size
        self.n_positions = n_positions
        self.n_channels = n_channels

    @property
    def in_dim(self):
        return self.n_positions * self.n_channels

    @property
    def out_positions(self):
        return self.n_positions // self.pool_size

    def out_dim(self, in_dim: int) -> int:
        return self.out_positions * self.n_channels

    def forward(self, x, train, relu=False):
        """Pool x; with relu=True, pool max(x, 0) from the max of x.

        That is the ReLU followed by this pool, with the same output and
        input gradient bits for x without NaN: a window's max is rectified,
        and a window whose max is <= 0 routes its gradient, times 0, to its
        first slice.
        """
        t = x.shape[0]
        k, p_out, c = self.pool_size, self.out_positions, self.n_channels
        xw = x.reshape(t, self.n_positions, c)[:, :p_out * k, :]
        xw = xw.reshape(t, p_out, k, c)
        # elementwise max over the k slices: the same comparisons, in the
        # same order, as a max over the window axis, without its strided walk
        y = xw[:, :, 0, :].copy()
        for j in range(1, k):
            np.maximum(y, xw[:, :, j, :], out=y)
        if train:
            # the first slice that holds the max wins a tie (ReLU makes
            # all-zero windows common): count the leading slices that miss it
            positive = y > 0 if relu else None
            miss = xw[:, :, 0, :] != y
            if relu:
                miss &= positive
            idx = miss.view(np.uint8).copy()
            for j in range(1, k - 1):
                miss &= xw[:, :, j, :] != y
                idx += miss
            self._cache = (idx, t, positive)
        if relu:
            np.maximum(y, 0, out=y)
        return y.reshape(t, p_out * c)

    def backward(self, dy):
        idx, t, positive = self._cache
        k, p_out, c = self.pool_size, self.out_positions, self.n_channels
        dy = dy.reshape(t, p_out, c)
        if positive is not None:
            # the folded ReLU's factor, applied where its backward would
            # meet dy: at the routed slot
            dy = dy * positive
        # Route dy by multiplying its bit patterns, as integers, by 0 or 1:
        # that keeps dy's bits or writes +0.0, where a float product with a
        # mask would turn 0 x (negative dy) into -0.0.
        bits = np.dtype(f"i{dy.itemsize}")
        dx = np.empty((t, self.n_positions, c), dtype=bits)
        dx[:, p_out * k:, :] = 0  # dropped positions: no pass writes them
        dxw = dx[:, :p_out * k, :].reshape(t, p_out, k, c)
        dy_bits = dy.view(bits)
        for j in range(k):
            np.multiply(dy_bits, idx == j, out=dxw[:, :, j, :])
        return dx.view(dy.dtype).reshape(t, self.in_dim), []


def check_activation(fn: str) -> None:
    """ConfigError unless fn names an activation: "sigmoid" or "relu"."""
    if fn not in _ACT_CODES:
        raise ConfigError(f"unknown activation {fn!r}")


class Activation(_Layer):
    kind = "activation"

    def __init__(self, fn: str = "sigmoid"):
        check_activation(fn)
        self.fn = fn

    def forward(self, x, train):
        y = expit(x) if self.fn == "sigmoid" else np.maximum(x, 0)
        if train:
            self._cache = y
        return y

    def backward(self, dy):
        y = self._cache
        if self.fn == "sigmoid":
            return dy * y * (1.0 - y), []
        return dy * (y > 0), []


class Softmax(_Layer):
    kind = "softmax"

    def forward(self, x, train):
        """Probabilities; the network's train-mode forward skips this layer."""
        z = np.asarray(x, dtype=np.float64)
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        return (e / e.sum(axis=1, keepdims=True)).astype(x.dtype)

    def backward(self, dy):
        """The loss gradient of a softmax net is taken at its logits."""
        return dy, []


@dataclass
class Stream:
    """One input branch: named input of `input_dim` features through `layers`."""

    input_name: str
    input_dim: int
    layers: list


@dataclass
class NetworkGraph:
    streams: list
    trunk: list
    dtype: type = np.float32
    _train_ready: bool = field(default=False, repr=False)

    def __post_init__(self):
        self.shape_ledger()  # validates that layer dimensions chain

    def all_layers(self):
        layers = []
        for stream in self.streams:
            layers.extend(stream.layers)
        layers.extend(self.trunk)
        return layers

    def input_dims(self) -> dict:
        dims = {}
        for stream in self.streams:
            if dims.setdefault(stream.input_name, stream.input_dim) != stream.input_dim:
                raise ConfigError(
                    f"streams disagree on the size of input {stream.input_name!r}")
        return dims

    def stream_out_dims(self) -> list:
        return [_chain_dims(stream.layers, stream.input_dim, f"stream {s}", [])
                for s, stream in enumerate(self.streams)]

    def shape_ledger(self):
        """Per-layer (scope, kind, in_dim, out_dim) entries, validating the chain.

        A conv1d layer may only be the first layer of a stream, and a
        softmax only the last layer of the trunk.
        """
        inner = [l for st in self.streams for l in st.layers[1:]] + self.trunk
        if any(layer.kind == "conv1d" for layer in inner):
            raise ConfigError("a conv1d layer must be the first layer of a stream")
        body = self.all_layers()[:-1] if self.trunk else self.all_layers()
        if any(layer.kind == "softmax" for layer in body):
            raise ConfigError("a softmax layer may only end the trunk")
        ledger = []
        d = 0
        for s, stream in enumerate(self.streams):
            d += _chain_dims(stream.layers, stream.input_dim,
                             f"stream{s}:{stream.input_name}", ledger)
        _chain_dims(self.trunk, int(d), "trunk", ledger)
        return ledger

    def output_dim(self) -> int:
        ledger = self.shape_ledger()
        return ledger[-1][3] if ledger else int(sum(self.stream_out_dims()))

    @property
    def ends_in_softmax(self) -> bool:
        """A classifier: trained by cross-entropy, its loss gradient taken at
        the logits, and scored by frame error; other nets use MSE."""
        return bool(self.trunk) and self.trunk[-1].kind == "softmax"

    def copy(self):
        """An independent graph: its own parameter arrays and no caches, so
        a training step on it needs a train-mode forward of its own."""
        no_caches = {id(layer._cache): None for layer in self.all_layers()}
        other = deepcopy(self, no_caches)
        other._train_ready = False
        return other


def _chain_dims(layers, d: int, scope: str, ledger: list) -> int:
    """Width after `layers` on d inputs; appends each layer's ledger entry,
    and raises ConfigError where a layer expects another input width."""
    for layer in layers:
        if layer.in_dim is not None and layer.in_dim != d:
            raise ConfigError(f"{scope} layer {layer.kind}: expects "
                              f"{layer.in_dim} inputs but receives {d}")
        d_out = layer.out_dim(d)
        ledger.append((scope, layer.kind, d, d_out))
        d = d_out
    return d


def _relu_folded(layers) -> list:
    """Per layer: is it a ReLU that the max-pool right after it applies?

    Such a pool rectifies only its pooled values (see MaxPool1d.forward),
    which saves the full-size ReLU output, its cache and its backward
    product. A sigmoid keeps its layer: ties that expit's rounding makes
    could move the pool's pick.
    """
    return [a.kind == "activation" and a.fn == "relu" and b.kind == "maxpool1d"
            for a, b in zip(layers, layers[1:])] + [False]


def _forward_chain(layers, x, train):
    folded = _relu_folded(layers)
    for i, layer in enumerate(layers):
        if folded[i]:
            continue
        if i and folded[i - 1]:
            x = layer.forward(x, train, True)
        else:
            x = layer.forward(x, train)
    return x


def _backward_chain(layers, dy, scope, visit, need_dx=True):
    """Backpropagate dy through `layers`; with need_dx False, a dense first
    layer skips its input gradient and the chain returns None."""
    folded = _relu_folded(layers)
    for i in reversed(range(len(layers))):
        layer = layers[i]
        where = f"{scope} layer {i} ({layer.kind})"
        if folded[i]:
            visit(layer, [], where)  # its pool applied its gradient
            continue
        if i == 0 and not need_dx and layer.kind == "dense":
            dy, grads = layer.backward(dy, need_dx=False)
        else:
            dy, grads = layer.backward(dy)
        visit(layer, grads, where)
        del grads  # so the visitor may free them before the next backward
    return dy


def forward(net: NetworkGraph, inputs: dict, mode: str = "eval"):
    """Run all layers on the named inputs.

    In train mode, activations are cached for backward, and a net that ends
    in a softmax returns its logits, which the loss reads: the softmax
    itself runs only in eval mode.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    train = mode == "train"
    if train:
        # free the last step's caches (a conv's im2col among them) before
        # this step allocates its own
        net._train_ready = False
        for layer in net.all_layers():
            layer._cache = None
    dims = net.input_dims()
    if not isinstance(inputs, dict):
        raise ShapeError(f"network inputs must be a dict keyed by {list(dims)}")
    missing = [name for name in dims if name not in inputs]
    if missing:
        raise ShapeError(f"missing network inputs: {missing}")

    outputs = []
    n_frames = None
    for stream in net.streams:
        x = np.asarray(inputs[stream.input_name], dtype=net.dtype)
        if x.ndim != 2 or x.shape[1] != dims[stream.input_name]:
            raise ShapeError(
                f"input {stream.input_name!r}: expected (T, "
                f"{dims[stream.input_name]}), got {x.shape}")
        if n_frames is None:
            n_frames = x.shape[0]
        elif x.shape[0] != n_frames:
            raise ShapeError("input streams disagree on frame count")
        outputs.append(_forward_chain(stream.layers, x, train))

    h = outputs[0] if len(outputs) == 1 else np.concatenate(outputs, axis=1)
    trunk = net.trunk[:-1] if train and net.ends_in_softmax else net.trunk
    h = _forward_chain(trunk, h, train)
    net._train_ready = train
    return h


def _check_backprop(net: NetworkGraph) -> None:
    if not net._train_ready:
        raise StateError("backward requires a preceding train-mode forward")


def _backprop(net: NetworkGraph, loss_grad, visit) -> None:
    """Backpropagate loss_grad through the cached forward pass.

    Calls visit(layer, grads, where) for every layer, from the output to
    the inputs (the trunk, then each stream), right after its backward
    returns. By then the layer's gradient with respect to its input is
    built, so the visitor may change the layer's parameters or drop its
    cache: nothing later reads them. `where` names the layer, e.g.
    "trunk layer 6 (dense)". Layers without parameters, and a ReLU folded
    into its pool, get no gradients.
    """
    # a dnn's one stream has no layers, so nothing reads the trunk's dx
    dy = _backward_chain(net.trunk, np.asarray(loss_grad, dtype=net.dtype),
                         "trunk", visit,
                         any(stream.layers for stream in net.streams))
    if dy is None:
        return
    offset = 0
    for s, (stream, width) in enumerate(zip(net.streams,
                                            net.stream_out_dims())):
        _backward_chain(stream.layers, dy[:, offset:offset + width],
                        f"stream {s}", visit)
        offset += width


def backward(net: NetworkGraph, loss_grad) -> list:
    """Parameter gradients of a loss gradient, through the cached forward pass.

    Returns one list of arrays per layer of `net.all_layers()`, matching its
    `param_arrays()`. No gradient with respect to the network inputs is
    built. The gradient is taken with respect to what the train-mode forward
    returned: the logits of a net that ends in a softmax (see
    NetworkGraph.ends_in_softmax), else the network output. The caches and
    parameters are left as they are; `sgd_step` is the training step.
    """
    _check_backprop(net)
    grads_by_id = {}

    def keep(layer, grads, where):
        grads_by_id[id(layer)] = grads

    _backprop(net, loss_grad, keep)
    return [grads_by_id[id(layer)] for layer in net.all_layers()]


# Elements per sgd_step block: a block of g, its product and p stay in cache.
_SGD_BLOCK = 1 << 16


def sgd_step(net: NetworkGraph, loss_grad, lr: float) -> None:
    """One plain SGD update, p <- p - lr * g, from a loss gradient.

    Takes the loss gradient that `backward` takes, after a train-mode
    forward, and backpropagates it layer by layer. Each layer's parameters
    are updated right after its backward returns, and its gradients and
    cache are dropped, so at most one layer's gradients are alive. The bits
    are those of `backward` followed by the update of every array. The
    loss functions of this module already normalize their gradients by the
    number of frames.

    A second step needs a new forward. A non-finite gradient raises
    DivergenceError naming the layer; the layers nearer the output are
    updated by then.
    """
    if not 0 <= lr < np.inf:
        raise ValueError(f"learning rate must be finite and non-negative, "
                         f"got {lr}")
    _check_backprop(net)
    net._train_ready = False  # the caches go as the layers consume them

    def update(layer, grads, where):
        for p, g in zip(layer.param_arrays(), grads):
            _sgd_update(where, p, g, p.dtype.type(lr))
        layer._cache = None

    # An overflowing block sum is no error: the exact test decides. An
    # update that overflows leaves p infinite, and the next loss is too.
    with np.errstate(over="ignore"):
        _backprop(net, loss_grad, update)


def _sgd_update(where: str, p, g, rate) -> None:
    """p -= rate * g in blocks of _SGD_BLOCK elements, g left as it is."""
    if g.shape != p.shape:
        raise ShapeError(f"gradient structure does not match network in "
                         f"{where}")
    if not p.flags.c_contiguous:  # else p.reshape(-1) would copy
        raise ShapeError(f"parameter of {where} is not contiguous")
    flat_p, flat_g = p.reshape(-1), g.reshape(-1)
    for start in range(0, flat_g.size, _SGD_BLOCK):
        block = flat_g[start:start + _SGD_BLOCK]
        # no float addition makes inf or NaN finite, so a finite sum
        # proves the block finite; the rest get the exact test
        if not (np.isfinite(block.sum()) or np.all(np.isfinite(block))):
            raise DivergenceError(f"non-finite gradient in {where}")
        # a rate in the parameter dtype keeps the product there, with no
        # float64 temporary and no cast copy
        flat_p[start:start + _SGD_BLOCK] -= rate * block


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy of softmax(logits) against integer labels.

    Returns (loss, grad) with grad = (softmax - one_hot) / n_frames taken
    with respect to the logits. Accumulates in double precision.
    """
    logits = np.asarray(logits)
    labels = np.asarray(labels, dtype=np.int64)
    n, k = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match {n} frames")
    if labels.min() < 0 or labels.max() >= k:
        raise ShapeError(f"label outside [0, {k})")
    z = logits.astype(np.float64)
    z -= z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1))
    loss = float(np.mean(log_norm - z[np.arange(n), labels]))
    probs = np.exp(z - log_norm[:, None])
    probs[np.arange(n), labels] -= 1.0
    return loss, (probs / n).astype(logits.dtype)


def mse_loss(pred, target):
    """Mean squared error over all entries; grad = 2 (pred - target) / size."""
    pred = np.asarray(pred)
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise ShapeError(f"prediction shape {pred.shape} != target {target.shape}")
    diff = pred.astype(np.float64) - target.astype(np.float64)
    loss = float(np.mean(np.square(diff)))
    return loss, (2.0 * diff / diff.size).astype(pred.dtype)


# ---------------------------------------------------------------------------
# Checkpoint serialization (magic "NNG1"; parameters stored as float32)
# ---------------------------------------------------------------------------

def _pack_layer_spec(layer) -> bytes:
    out = struct.pack("<B", _KIND_CODES[layer.kind])
    if layer.kind == "dense":
        out += struct.pack("<II", layer.n_in, layer.n_out)
    elif layer.kind == "conv1d":
        out += struct.pack("<BIIII", _AXIS_CODES[layer.axis], layer.n_filters,
                           layer.filter_width, layer.in_channels,
                           layer.n_positions)
        if layer.view_shape is None:
            out += struct.pack("<B", 0)
        else:
            rank = len(layer.view_shape)
            out += struct.pack("<B", rank)
            out += struct.pack(f"<{rank}I", *layer.view_shape)
            perm = layer.view_perm or tuple(range(rank))
            out += struct.pack(f"<{rank}B", *perm)
    elif layer.kind == "maxpool1d":
        out += struct.pack("<III", layer.pool_size, layer.n_positions,
                           layer.n_channels)
    elif layer.kind == "activation":
        out += struct.pack("<B", _ACT_CODES[layer.fn])
    return out


def _unpack_layer_spec(r: Reader):
    """One layer spec as (constructor, args, parameter shapes)."""
    kind = r.code(_KIND_CODES, "layer kind")
    if kind == "dense":
        n_in, n_out = r.take("<II")
        return Dense, (n_in, n_out), [(n_in, n_out), (n_out,)]
    if kind == "conv1d":
        axis = r.code(_AXIS_CODES, "convolution axis")
        n_filters, width, channels, positions = r.take("<IIII")
        (rank,) = r.take("<B")
        view_shape = view_perm = None
        if rank:
            view_shape = r.take(f"<{rank}I")
            view_perm = r.take(f"<{rank}B")
        args = (axis, n_filters, width, channels, positions, view_shape, view_perm)
        return Conv1d, args, [(width * channels, n_filters), (n_filters,)]
    if kind == "maxpool1d":
        return MaxPool1d, r.take("<III"), []
    if kind == "activation":
        return Activation, (r.code(_ACT_CODES, "activation"),), []
    return Softmax, (), []


def network_to_bytes(net: NetworkGraph) -> bytes:
    parts = [_NNG_MAGIC, struct.pack("<I", len(net.all_layers()))]
    parts.append(struct.pack("<I", len(net.streams)))
    for stream in net.streams:
        name = stream.input_name.encode("utf-8")
        parts.append(struct.pack("<H", len(name)) + name)
        parts.append(struct.pack("<II", stream.input_dim, len(stream.layers)))
    parts.append(struct.pack("<I", len(net.trunk)))
    for layer in net.all_layers():
        parts.append(_pack_layer_spec(layer))
    for layer in net.all_layers():
        for p in layer.param_arrays():
            parts.append(p.astype("<f4").tobytes())
    return b"".join(parts)


def network_from_bytes(r: Reader) -> NetworkGraph:
    """Parse one NNG1 network record from the reader."""
    r.magic(_NNG_MAGIC)
    n_layers, n_streams = r.take("<II")
    stream_meta = [(r.text("<H"),) + r.take("<II") for _ in range(n_streams)]
    (n_trunk,) = r.take("<I")
    if sum(m[2] for m in stream_meta) + n_trunk != n_layers:
        raise FormatError("inconsistent layer counts in checkpoint")
    specs = [_unpack_layer_spec(r) for _ in range(n_layers)]
    # Every parameter array is read before any layer allocates its own.
    params = [[r.array("<f4", s) for s in shapes] for _, _, shapes in specs]
    layers = [make(*args) for make, args, _ in specs]
    for layer, arrays in zip(layers, params):
        for p, raw in zip(layer.param_arrays(), arrays):
            p[...] = raw
    streams = [Stream(name, input_dim, [layers.pop(0) for _ in range(count)])
               for name, input_dim, count in stream_meta]
    return NetworkGraph(streams, layers, np.float32)
