"""Independent test oracles.

These deliberately re-derive expected values through different mechanisms
than the library code: central finite differences for gradients, a memoized
recursive edit-distance for alignment counts, per-band, per-call filter
design for the front ends, and one `lfilter` call per resonator and frame
for synthesis. They must stay independent of the implementation
paths they check.
"""

import sys
from functools import lru_cache

import numpy as np
from scipy.fft import dct
from scipy.signal import butter, lfilter, sosfilt

from tvasr.nn import NetworkGraph, backward, forward, mse_loss, softmax_cross_entropy


def net_loss(net: NetworkGraph, inputs, targets, loss: str) -> float:
    """The loss of a train-mode forward: a softmax net's output is its logits."""
    out = forward(net, inputs, mode="train")
    loss_fn = softmax_cross_entropy if loss == "ce" else mse_loss
    return loss_fn(out, targets)[0]


def analytic_gradients(net: NetworkGraph, inputs, targets, loss: str):
    """Per-layer parameter gradients, as `backward` returns them."""
    out = forward(net, inputs, mode="train")
    loss_fn = softmax_cross_entropy if loss == "ce" else mse_loss
    _, grad = loss_fn(out, targets)
    return backward(net, grad)


def count_parameters(net: NetworkGraph) -> int:
    """Number of trainable values over all layers."""
    return int(sum(p.size for layer in net.all_layers()
                   for p in layer.param_arrays()))


def max_relative_gradient_error(net: NetworkGraph, inputs, targets,
                                loss: str = "ce", eps: float = 1e-3) -> float:
    """Worst relative error between backprop and central finite differences.

    Perturbs every parameter entry of the (double precision) network. A
    one-input net may be given its input as a bare array, as kink_margins
    takes it; `forward` itself takes named inputs only.
    """
    if not isinstance(inputs, dict):
        inputs = {net.streams[0].input_name: inputs}
    grads = analytic_gradients(net, inputs, targets, loss)
    worst = 0.0
    for layer, layer_grads in zip(net.all_layers(), grads):
        for param, grad in zip(layer.param_arrays(), layer_grads):
            flat_p = param.reshape(-1)
            flat_g = grad.reshape(-1)
            for i in range(flat_p.size):
                original = flat_p[i]
                flat_p[i] = original + eps
                loss_plus = net_loss(net, inputs, targets, loss)
                flat_p[i] = original - eps
                loss_minus = net_loss(net, inputs, targets, loss)
                flat_p[i] = original
                numeric = (loss_plus - loss_minus) / (2.0 * eps)
                denom = max(abs(numeric) + abs(flat_g[i]), 1e-8)
                worst = max(worst, abs(numeric - flat_g[i]) / denom)
    return worst


def kink_margins(net: NetworkGraph, inputs):
    """Distance of the forward pass from max-pool and ReLU kinks.

    Central finite differences are only valid where the loss is smooth; a
    pooling argmax tie or a ReLU pre-activation within the probe step makes
    the numeric gradient disagree with the (sub)gradient. Returns the
    smallest (max - runner-up) over pooling windows and the smallest
    |pre-activation| over ReLU units.
    """
    if isinstance(inputs, dict):
        tensors = inputs
    else:
        tensors = {net.streams[0].input_name: inputs}
    pool_margin = [np.inf]
    relu_margin = [np.inf]

    def walk(layers, x):
        for layer in layers:
            if layer.kind == "maxpool1d" and layer.pool_size > 1:
                t = x.shape[0]
                k, p_out, c = layer.pool_size, layer.out_positions, layer.n_channels
                windows = x.reshape(t, layer.n_positions, c)[:, :p_out * k, :]
                windows = np.sort(windows.reshape(t, p_out, k, c), axis=2)
                top, second = windows[:, :, -1, :], windows[:, :, -2, :]
                # windows whose top two entries sit at the ReLU floor are
                # locally constant and cannot flip
                active = ~((top == 0.0) & (second == 0.0))
                if np.any(active):
                    pool_margin.append(float(np.min((top - second)[active])))
            elif layer.kind == "activation" and layer.fn == "relu":
                relu_margin.append(float(np.min(np.abs(x))))
            x = layer.forward(x, False)
        return x

    outs = [walk(s.layers, np.asarray(tensors[s.input_name], dtype=net.dtype))
            for s in net.streams]
    h = outs[0] if len(outs) == 1 else np.concatenate(outs, axis=1)
    walk(net.trunk, h)
    return min(pool_margin), min(relu_margin)


def draw_smooth_gradcheck_case(net, rng, make_inputs, pool_margin=1e-2,
                               relu_margin=2e-3, tries=200):
    """Redraw random inputs until the net is safely away from kinks.

    Pool ties need a wide berth (window entries move by about the probe step
    times the layer sensitivity); ReLU units only need the pre-activation to
    clear the probe step itself, and with hundreds of units the attainable
    minimum is small.
    """
    for _ in range(tries):
        inputs = make_inputs(rng)
        pools, relus = kink_margins(net, inputs)
        if pools >= pool_margin and relus >= relu_margin:
            return inputs
    raise AssertionError(
        f"no inputs with pool margin >= {pool_margin} and "
        f"relu margin >= {relu_margin} after {tries} draws")


def reference_maxpool(x, pool_size, n_positions, n_channels, dy):
    """Non-overlapping max pool by argmax and put_along_axis.

    x is (T, n_positions * n_channels) position-major and dy the gradient of
    the pooled (T, out_positions * n_channels) output; trailing positions
    that fill no whole pool are dropped. Returns the output, the argmax
    index of each window (first occurrence on ties) and the input gradient,
    which is dy at each argmax and +0.0 elsewhere.
    """
    t = x.shape[0]
    p_out = n_positions // pool_size
    windows = x.reshape(t, n_positions, n_channels)[:, :p_out * pool_size, :]
    windows = windows.reshape(t, p_out, pool_size, n_channels)
    idx = windows.argmax(axis=2)
    y = np.take_along_axis(windows, idx[:, :, None, :], axis=2)
    routed = np.zeros(windows.shape, dtype=dy.dtype)
    np.put_along_axis(routed, idx[:, :, None, :],
                      dy.reshape(t, p_out, 1, n_channels), axis=2)
    dx = np.zeros((t, n_positions, n_channels), dtype=dy.dtype)
    dx[:, :p_out * pool_size, :] = routed.reshape(t, -1, n_channels)
    return y.reshape(t, -1), idx, dx.reshape(t, -1)


def reference_edit_alignment(ref: tuple, hyp: tuple):
    """Brute-force edit alignment: lexicographic-minimal (dist, ins, dels).

    Memoized recursion over suffixes; prefers substitution/match, then
    deletion, then insertion exactly when costs tie, which reproduces the
    unique lexicographic minimum.
    """
    sys.setrecursionlimit(10000)

    @lru_cache(maxsize=None)
    def solve(i: int, j: int):
        if i == len(ref) and j == len(hyp):
            return (0, 0, 0)
        options = []
        if i < len(ref) and j < len(hyp):
            d, ins, dels = solve(i + 1, j + 1)
            cost = 0 if ref[i] == hyp[j] else 1
            options.append((d + cost, ins, dels))
        if i < len(ref):
            d, ins, dels = solve(i + 1, j)
            options.append((d + 1, ins, dels + 1))
        if j < len(hyp):
            d, ins, dels = solve(i, j + 1)
            options.append((d + 1, ins + 1, dels))
        return min(options)

    result = solve(0, 0)
    solve.cache_clear()
    return result


# ---------------------------------------------------------------------------
# Front-end oracles: one band and one frame at a time, every filter designed
# on every call. Same formulas, so the library's outputs must match bit for
# bit; nothing here is shared with or cached by tvasr.features.
# ---------------------------------------------------------------------------

def _mel_edges(n_bands, fmin, fmax):
    lo, hi = (2595.0 * np.log10(1.0 + np.float64(f) / 700.0) for f in (fmin, fmax))
    mels = np.linspace(lo, hi, n_bands + 2)
    return 700.0 * (10.0 ** (mels / 2595.0) - 1.0)


def _frames(x, win, shift):
    n = (len(x) - win) // shift + 1
    return x[shift * np.arange(n)[:, None] + np.arange(win)[None, :]]


def reference_logmel(samples, sample_rate, n_bands=40, n_fft=512):
    """Log mel energies, shape (T, n_bands), with 25 ms / 10 ms framing."""
    win, shift = int(round(0.025 * sample_rate)), int(round(0.010 * sample_rate))
    edges = _mel_edges(n_bands, 0.0, sample_rate / 2.0)
    fft_freqs = np.arange(n_fft // 2 + 1) * sample_rate / n_fft
    weights = np.zeros((n_bands, len(fft_freqs)))
    for b in range(n_bands):
        lo, center, hi = edges[b], edges[b + 1], edges[b + 2]
        up = (fft_freqs - lo) / (center - lo)
        down = (hi - fft_freqs) / (hi - center)
        weights[b] = np.maximum(0.0, np.minimum(up, down))
    frames = _frames(samples, win, shift) * np.hamming(win)
    spectrum = np.abs(np.fft.rfft(frames, n_fft, axis=1)) ** 2
    return np.log(np.maximum(spectrum @ weights.T, 1e-10))


def reference_nmc(samples, sample_rate, n_coeffs=40):
    """Subband AM coefficients, shape (T, n_coeffs), one band per pass."""
    win, shift = int(round(0.025 * sample_rate)), int(round(0.010 * sample_rate))
    nyq = sample_rate / 2.0
    edges = _mel_edges(n_coeffs, 80.0, 0.99 * sample_rate / 2.0)
    envelope_lp = butter(2, 30.0 / nyq, btype="low", output="sos")
    energies = []
    for b in range(n_coeffs):
        lo = max(edges[b], 40.0) / nyq
        hi = min(edges[b + 2], 0.999 * nyq) / nyq
        sub = sosfilt(butter(2, [lo, hi], btype="band", output="sos"), samples)
        envelope = sosfilt(envelope_lp, np.maximum(sub, 0.0))
        envelope /= np.sqrt(np.mean(np.square(sub)) + 1e-12)
        energies.append(np.mean(np.square(_frames(envelope, win, shift)), axis=1))
    modulation = np.log(np.maximum(np.stack(energies, axis=1), 1e-10))
    return dct(modulation, type=2, norm="ortho", axis=1)[:, :n_coeffs]


# ---------------------------------------------------------------------------
# Synthesis oracles: the public lfilter, one resonator over one frame and one
# TV channel's one-pole pass at a time, with the constants written out here;
# nothing is shared with tvasr.synth.
# ---------------------------------------------------------------------------

_SYNTH_RATE, _SYNTH_WIN, _SYNTH_SHIFT = 16000, 400, 160


def reference_render_tvs(score):
    """(T, 8) TVs of a gestural score: each channel's piecewise target track
    through two one-pole lowpass passes, 40 ms time constant, at rest at 0.5."""
    n_frames = max(1, int(round(score.duration / 0.010)))
    centers = (np.arange(n_frames) + 0.5) * 0.010
    alpha = np.exp(-0.010 / 0.040)
    out = np.empty((n_frames, 8))
    for tv in range(8):
        y = np.full(n_frames, 0.5)
        for g in score.tv_gestures[tv]:
            y[(centers >= g.onset) & (centers < g.offset)] = g.target
        for _ in range(2):
            y, _ = lfilter([1.0 - alpha], [1.0, -alpha], y, zi=[alpha * 0.5])
        out[:, tv] = y
    return np.clip(out, 0.0, 1.0)


def reference_synthesis(tvs, seed):
    """Peak-normalized float64 samples of (T, 8) TVs: the glottis mixes a
    100 Hz pulse train with seeded noise, through three resonators, each
    filtered over the whole signal one frame at a time."""
    tvs = np.asarray(tvs, dtype=np.float64)
    t_frames = len(tvs)
    n = (t_frames - 1) * _SYNTH_SHIFT + _SYNTH_WIN
    centers = np.arange(t_frames) * _SYNTH_SHIFT + _SYNTH_SHIFT / 2.0
    glottis = np.interp(np.arange(n), centers, tvs[:, 7])
    phase = np.cumsum(np.full(n, 100.0 / _SYNTH_RATE))
    pulses = np.zeros(n)
    pulses[np.diff(np.floor(phase), prepend=0.0) > 0] = 3.0
    noise = np.random.default_rng(seed).normal(0.0, 0.15, n)
    x = glottis * pulses + (1.0 - glottis) * noise
    formants = [(280.0, 520.0, 3, 90.0), (850.0, 1250.0, 4, 130.0),
                (2100.0, 700.0, 0, 180.0)]  # (base, slope, TV, bandwidth)
    for base, slope, tv, bandwidth in formants:
        r = np.exp(-np.pi * bandwidth / _SYNTH_RATE)
        y, zi = np.empty(n), np.zeros(2)
        for frame in range(t_frames):
            f = base + slope * tvs[frame, tv]
            cos_t = np.cos(2.0 * np.pi * f / _SYNTH_RATE)
            start = frame * _SYNTH_SHIFT
            stop = n if frame == t_frames - 1 else start + _SYNTH_SHIFT
            y[start:stop], zi = lfilter([1.0 - 2.0 * r * cos_t + r * r],
                                        [1.0, -2.0 * r * cos_t, r * r],
                                        x[start:stop], zi=zi)
        x = y
    peak = np.max(np.abs(x))
    return x * (0.9 / peak) if peak > 0 else x


# ---------------------------------------------------------------------------
# Frame-dataset oracles: one utterance, one frame, one context offset at a
# time, with their own edge clamping; nothing here comes from tvasr.training.
# ---------------------------------------------------------------------------

def _utterance_lengths(streams, targets):
    """Each utterance's frame count: its targets' length, which every stream
    must have too, so that no oracle can agree with a silent cut."""
    lengths = []
    for u, target in enumerate(targets):
        for name, (arrays, _, _) in streams.items():
            assert len(arrays[u]) == len(target), (name, u)
        lengths.append(len(target))
    return lengths


def reference_frame_dataset(streams, targets):
    """Spliced inputs and targets of a frame dataset, built frame by frame.

    `streams` maps an input name to (per-utterance arrays, left, right);
    every array has its utterance's target length. Context frames past
    either end of an utterance repeat its first or last frame.
    """
    lengths = _utterance_lengths(streams, targets)
    inputs = {}
    for name, (arrays, left, right) in streams.items():
        rows = []
        for arr, t in zip(arrays, lengths):
            for i in range(t):
                row = []
                for k in range(-left, right + 1):
                    j = i + k
                    if j < 0:
                        j = 0
                    if j > t - 1:
                        j = t - 1
                    row.extend(arr[j])
                rows.append(row)
        inputs[name] = np.array(rows, dtype=np.float32)
    flat_targets = [target[i] for target, t in zip(targets, lengths)
                    for i in range(t)]
    return inputs, np.array(flat_targets)


def reference_stacked_streams(streams, targets):
    """Each stream's stacked float32 frames and splice indices, frame by
    frame, and the stacked targets.

    Same arguments as reference_frame_dataset. A frame is cast to float32
    on its own, and an index row names the stacked rows of its context
    frames, clamped to the utterance.
    """
    lengths = _utterance_lengths(streams, targets)
    out = {}
    for name, (arrays, left, right) in streams.items():
        frames, indices = [], []
        offset = 0
        for arr, t in zip(arrays, lengths):
            for i in range(t):
                frames.append(np.asarray(arr[i], dtype=np.float32))
                indices.append([offset + min(max(i + k, 0), t - 1)
                                for k in range(-left, right + 1)])
            offset += t
        out[name] = (np.array(frames), np.array(indices))
    flat_targets = [target[i] for target, t in zip(targets, lengths)
                    for i in range(t)]
    return out, np.array(flat_targets)


def reference_norm_stats(per_utt):
    """Mean and population std, floored at 1e-8, of the concatenated frames."""
    frames = np.concatenate(per_utt, axis=0)
    return frames.mean(axis=0), np.maximum(frames.std(axis=0), 1e-8)
