import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import (reference_frame_dataset, reference_norm_stats,
                     reference_stacked_streams)

from tvasr import inversion, pipeline, training
from tvasr.architectures import ARCH_KINDS, ArchSpec, build_network
from tvasr.corpus import build_parallel_corpus
from tvasr.errors import DivergenceError, FormatError, ShapeError, StateError
from tvasr.features import (NormStats, SpliceSpec, frame_count, nmc_features,
                            norm_stats)
from tvasr.inversion import (InversionConfig, build_inversion_net,
                             inversion_dataset)
from tvasr.nn import (Activation, Dense, NetworkGraph, Softmax, Stream,
                      backward, forward, mse_loss, network_from_bytes,
                      network_to_bytes, sgd_step, softmax_cross_entropy)
from tvasr.records import read_file
from tvasr.training import (_PREDICT_CHUNK, EpochRecord, FrameDataset,
                            TrainConfig, TrainState, evaluate_dataset,
                            predict_dataset, run_training, schedule_update,
                            stack_utterances, train_epoch,
                            train_state_from_bytes, train_state_to_bytes,
                            utterance_dataset)
from tvasr.synth import TVTrajectory

RNG = np.random.default_rng(2718)


def make_dataset(n=400, dim=10, n_classes=3, seed=0, separation=2.5):
    """Linearly separable blobs as a FrameDataset."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_classes, dim)) * separation
    labels = rng.integers(0, n_classes, n)
    frames = centers[labels] + rng.standard_normal((n, dim))
    streams = {"acoustic": stack_utterances(
        [frames].__getitem__, [n], SpliceSpec(0, 0))}
    return FrameDataset(streams, labels)


def make_net(dim=10, n_classes=3, hidden=12, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    trunk = [Dense(dim, hidden, rng, dtype), Activation("sigmoid"),
             Dense(hidden, n_classes, rng, dtype), Softmax()]
    return NetworkGraph([Stream("acoustic", dim, [])], trunk, dtype)


def default_config(**overrides):
    kwargs = dict(initial_lr=0.008, constant_lr_epochs=4,
                  halving_threshold=0.005, stop_threshold=0.001,
                  max_epochs=20, rng_seed=0)
    kwargs.update(overrides)
    return TrainConfig(**kwargs)


def drive_schedule(errors, cfg):
    state = TrainState(lr=cfg.initial_lr)
    states = []
    for err in errors:
        state = schedule_update(state, err, cfg)
        states.append(state)
    return states


class TestSchedule:
    def test_lr_constant_for_first_four_epochs(self):
        cfg = default_config()
        # terrible improvements everywhere; lr must still hold for 4 epochs
        states = drive_schedule([10.0, 10.0, 10.0, 10.0], cfg)
        assert [s.lr for s in states] == [0.008] * 4
        assert all(s.phase == "constant" for s in states)

    def test_halving_fires_on_small_improvement(self):
        cfg = default_config()
        errors = [10.0, 9.0, 8.0, 7.0, 6.0, 6.0 * (1 - 0.001)]
        states = drive_schedule(errors, cfg)
        assert states[4].lr == 0.008  # epoch 5 improved 14%
        assert states[5].lr == 0.004  # epoch 6 improved only 0.1%
        assert states[5].phase == "halving"

    def test_stop_on_increase_keeps_best_checkpoint(self):
        cfg = default_config()
        errors = [10, 9, 8, 7, 6, 5.99, 5.8, 5.5, 5.6]
        states = drive_schedule(errors, cfg)
        assert states[-1].phase == "stopped"
        assert states[-1].best_epoch == 8
        assert states[-1].best_cv_error == 5.5

    def test_stop_on_insignificant_improvement(self):
        cfg = default_config()
        errors = [10, 9, 8, 7, 6, 5.99, 5.9899]
        states = drive_schedule(errors, cfg)
        assert states[-1].phase == "stopped"

    def test_conditional_halving_keeps_lr_on_good_progress(self):
        cfg = default_config()
        errors = [10, 9, 8, 7, 6, 5.99, 5.0]
        states = drive_schedule(errors, cfg)
        assert states[5].lr == 0.004
        assert states[6].lr == 0.004  # 16% improvement: no further halving

    def test_phases_never_go_backwards_and_lr_never_increases(self):
        cfg = default_config(max_epochs=50)
        order = {"constant": 0, "halving": 1, "stopped": 2}
        for seed in range(20):
            rng = np.random.default_rng(seed)
            state = TrainState(lr=cfg.initial_lr)
            prev_phase, prev_lr = "constant", cfg.initial_lr
            while state.phase != "stopped" and state.epoch < 30:
                state = schedule_update(state, float(rng.uniform(1, 10)), cfg)
                assert order[state.phase] >= order[prev_phase]
                assert state.lr <= prev_lr
                prev_phase, prev_lr = state.phase, state.lr
            assert state.best_epoch == int(np.argmin(state.cv_error_history)) + 1

    def test_update_after_stop_rejected(self):
        cfg = default_config()
        state = TrainState(lr=0.008, phase="stopped")
        with pytest.raises(StateError):
            schedule_update(state, 1.0, cfg)


class TestTrainEpoch:
    def test_zero_lr_keeps_parameters_and_reports_eval_loss(self):
        net = make_net()
        ds = make_dataset()
        before = [p.copy() for l in net.all_layers() for p in l.param_arrays()]
        loss = train_epoch(net, ds, lr=0.0, batch_size=64, rng_seed=[0, 1])
        after = [p for l in net.all_layers() for p in l.param_arrays()]
        for b, a in zip(before, after):
            assert np.array_equal(b, a)
        inputs, labels = ds.gather(np.arange(len(ds)))
        logits = forward(net, inputs, mode="train")
        direct, _ = softmax_cross_entropy(logits, labels)
        assert loss == pytest.approx(direct, rel=1e-6)

    def test_separable_problem_loss_strictly_decreases(self):
        net = make_net(seed=3)
        ds = make_dataset(seed=3)
        losses = [train_epoch(net, ds, 0.5, 64, [3, epoch])
                  for epoch in range(1, 6)]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_identical_seeds_identical_parameters(self):
        results = []
        for _ in range(2):
            net = make_net(seed=4)
            ds = make_dataset(seed=4)
            for epoch in range(1, 4):
                train_epoch(net, ds, 0.3, 64, [7, epoch])
            results.append(np.concatenate(
                [p.ravel() for l in net.all_layers() for p in l.param_arrays()]))
        assert np.array_equal(results[0], results[1])

    def test_frame_error_metric(self):
        net = make_net(seed=5)
        ds = make_dataset(seed=5)
        err = evaluate_dataset(net, ds)
        assert 0.0 <= err <= 1.0


def paper_dataset(net, n_frames, seed=0):
    """Random unspliced frames for each input of a network, one row a frame."""
    rng = np.random.default_rng(seed)
    streams = {name: (rng.standard_normal((n_frames, dim)).astype(np.float32),
                      np.arange(n_frames)[:, None])
               for name, dim in net.input_dims().items()}
    return FrameDataset(streams, rng.integers(0, 30, n_frames))


class TestPredictChunks:
    @pytest.mark.parametrize("kind", ["cnn", "tfcnn", "fcnn"])
    def test_chunked_forward_equals_one_forward(self, kind):
        assert _PREDICT_CHUNK == 256
        net = build_network(ArchSpec(kind=kind, n_classes=30), seed=1)
        n = 2 * _PREDICT_CHUNK + 37
        ds = paper_dataset(net, n, seed=2)
        inputs, _ = ds.gather(np.arange(n))
        assert np.array_equal(predict_dataset(net, ds), forward(net, inputs))

    def test_paper_fcnn_cv_pass_memory_is_bounded(self):
        net = build_network(ArchSpec(kind="fcnn", n_classes=30), seed=1)
        ds = paper_dataset(net, 2048, seed=3)
        tracemalloc.start()
        try:
            evaluate_dataset(net, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20, peak / 2**20  # 224 MiB in 2,048-frame chunks


def step_kinds():
    """(name, net builder, loss) for every trained kind, at toy scale."""
    def acoustic(kind):
        return lambda dtype, act: build_network(ArchSpec(
            kind=kind, n_classes=6, n_hidden_layers=2, hidden_width=16,
            n_bands=12, context=5, tv_context=5, freq_filters=6,
            freq_filter_width=4, time_filters=3, time_filter_width=2,
            time_pool=2, hidden_activation=act), seed=3, dtype=dtype)

    def inversion(dtype, act):
        return build_inversion_net(InversionConfig(
            n_coeffs=10, splice=SpliceSpec(2, 2), n_filters=4, filter_width=3,
            n_dense=2, dense_width=12, activation=act), seed=3, dtype=dtype)

    return [(kind, acoustic(kind), "ce") for kind in ARCH_KINDS] + [
        ("inversion", inversion, "mse")]


STEP_KINDS = step_kinds()


@pytest.mark.parametrize("kind,build,loss", STEP_KINDS,
                         ids=[k[0] for k in STEP_KINDS])
def test_only_acoustic_models_end_in_a_softmax(kind, build, loss):
    """The last layer fixes the loss: cross-entropy for every ARCH_KINDS
    network, MSE for the inversion net."""
    assert build(np.float32, "relu").ends_in_softmax == (loss == "ce")


def loss_gradient(net, dataset, loss):
    """One train-mode forward on the whole dataset; (loss, its gradient)."""
    inputs, targets = dataset.gather(np.arange(len(dataset)))
    out = forward(net, inputs, mode="train")
    return (softmax_cross_entropy if loss == "ce" else mse_loss)(out, targets)


class TestSgdStepIsBackwardThenUpdate:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("act", ["sigmoid", "relu"])
    @pytest.mark.parametrize("kind,build,loss", STEP_KINDS,
                             ids=[k[0] for k in STEP_KINDS])
    def test_same_bits(self, kind, build, loss, act, dtype):
        lr = 0.3
        ref, net = build(dtype, act), build(dtype, act)
        ds = paper_dataset(ref, 40, seed=4)
        rng = np.random.default_rng(5)
        ds.targets = (rng.integers(0, 6, 40) if loss == "ce"
                      else rng.standard_normal((40, 8)))
        _, grad = loss_gradient(ref, ds, loss)
        grads = backward(ref, grad)
        want = [p - p.dtype.type(lr) * g
                for layer, gs in zip(ref.all_layers(), grads)
                for p, g in zip(layer.param_arrays(), gs)]
        _, grad = loss_gradient(net, ds, loss)
        sgd_step(net, grad, lr)
        got = [p for layer in net.all_layers() for p in layer.param_arrays()]
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == dtype and a.tobytes() == b.tobytes()
        assert all(layer._cache is None for layer in net.all_layers())

    def test_paper_fcnn_step_memory(self):
        """A paper fCNN step at 256 frames holds one layer's gradients.

        Measured from the state before the forward, with the network built:
        56.6 MB when every layer's gradients were built before the first
        update, 31.1 MB with one layer's at a time.
        """
        net = build_network(ArchSpec(kind="fcnn", n_classes=30,
                                     hidden_activation="relu"), seed=1)
        ds = paper_dataset(net, 256, seed=6)
        inputs, targets = ds.gather(np.arange(256))
        tracemalloc.start()
        try:
            rest = tracemalloc.get_traced_memory()[0]
            logits = forward(net, inputs, mode="train")
            _, grad = softmax_cross_entropy(logits, targets)
            sgd_step(net, grad, 0.01)
            peak = tracemalloc.get_traced_memory()[1] - rest
        finally:
            tracemalloc.stop()
        assert peak <= 35e6, peak / 1e6


class TestTrainEpochDivergence:
    @pytest.mark.parametrize("position,batch", [(0, 0), (40, 2)])
    def test_non_finite_loss_names_its_batch(self, position, batch):
        net = make_net(seed=9)
        ds = make_dataset(n=100, seed=9)
        frame = np.random.default_rng([1, 2]).permutation(100)[position]
        ds.streams["acoustic"][0][frame] = np.nan
        with pytest.raises(DivergenceError,
                           match=rf"^batch {batch}: non-finite training loss"):
            train_epoch(net, ds, 0.1, 16, [1, 2])

    def test_non_finite_loss_raises_before_any_update(self):
        net = make_net(seed=9)
        ds = make_dataset(n=100, seed=9)
        first = np.random.default_rng([1, 2]).permutation(100)[0]
        ds.streams["acoustic"][0][first] = np.nan
        before = [p.copy() for l in net.all_layers() for p in l.param_arrays()]
        with pytest.raises(DivergenceError, match="^batch 0: "):
            train_epoch(net, ds, 0.1, 16, [1, 2])
        after = [p for l in net.all_layers() for p in l.param_arrays()]
        assert all(np.array_equal(b, a) for b, a in zip(before, after))
        # no backward work either: the forward's caches are still there (a
        # train-mode forward stops at the softmax's input, the logits)
        assert net._train_ready
        assert all(l._cache is not None for l in net.all_layers()
                   if l.kind != "softmax")

    def test_gradient_divergence_names_the_batch(self, monkeypatch):
        calls = []

        def failing_step(net, grad, lr):
            calls.append(lr)
            if len(calls) == 3:
                raise DivergenceError("non-finite gradient in trunk layer 2 "
                                      "(dense)")

        monkeypatch.setattr(training, "sgd_step", failing_step)
        with pytest.raises(DivergenceError,
                           match=r"^batch 2: non-finite gradient in trunk "
                                 r"layer 2 \(dense\)$"):
            train_epoch(make_net(), make_dataset(n=100), 0.1, 16, [0, 1])
        assert calls == [0.1] * 3


class TestStackUtterances:
    def test_splice_respects_utterance_boundaries(self):
        a = np.full((3, 2), 1.0)
        b = np.full((3, 2), 2.0)
        frames, indices = stack_utterances([a, b].__getitem__, [3, 3],
                                           SpliceSpec(1, 1))
        spliced = frames[indices].reshape(6, 6)
        # last frame of utterance a must replicate within a, not peek into b
        assert np.all(spliced[2] == 1.0)
        assert np.all(spliced[3] == 2.0)

    def test_indices_are_int32(self):
        _, indices = stack_utterances([np.zeros((4, 3))].__getitem__, [4],
                                      SpliceSpec(2, 1))
        assert indices.dtype == np.int32

    def test_2_to_the_31_frames_refused_before_any_row(self):
        def no_rows(u):
            raise AssertionError("rows read for a stack that cannot be indexed")

        with pytest.raises(ValueError, match="2\\*\\*31"):
            stack_utterances(no_rows, [2 ** 30, 2 ** 30], SpliceSpec(8, 8))

    def test_gather_shapes(self):
        ds = make_dataset(n=50)
        inputs, labels = ds.gather(np.arange(7))
        assert inputs["acoustic"].shape == (7, 10)
        assert labels.shape == (7,)


class TestRunTraining:
    def test_respects_max_epochs_and_tracks_best(self):
        net = make_net(seed=6)
        cfg = default_config(initial_lr=0.5, max_epochs=5)
        result = run_training(net, make_dataset(seed=6), make_dataset(seed=60),
                              cfg)
        assert len(result.records) <= 5
        history = result.state.cv_error_history
        assert result.state.best_cv_error == min(history)
        assert all(isinstance(r, EpochRecord) for r in result.records)

    def test_lr_sequence_non_increasing(self):
        net = make_net(seed=7)
        cfg = default_config(initial_lr=0.5, max_epochs=12)
        result = run_training(net, make_dataset(seed=7), make_dataset(seed=70),
                              cfg)
        lrs = [r.lr for r in result.records]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))
        assert lrs[:4] == [0.5] * min(4, len(lrs))

    def test_full_run_is_reproducible(self):
        outs = []
        for _ in range(2):
            net = make_net(seed=8)
            cfg = default_config(initial_lr=0.5, max_epochs=6)
            result = run_training(net, make_dataset(seed=8),
                                  make_dataset(seed=80), cfg)
            outs.append(result.state.cv_error_history)
        assert outs[0] == outs[1]

    def test_divergence_names_the_epoch(self):
        train_set = make_dataset(seed=9)
        train_set.streams["acoustic"][0][17] = np.nan
        with pytest.raises(DivergenceError, match=r"^epoch 1: batch \d+: "
                                                  r"non-finite training loss"):
            run_training(make_net(seed=9), train_set, make_dataset(seed=90),
                         default_config(initial_lr=0.5, max_epochs=3))


class TestCheckpoints:
    """An NNG1 network record followed by a TRS1 train-state record, the
    head of every acoustic-model bundle."""

    @staticmethod
    def save(path, net, state):
        path.write_bytes(network_to_bytes(net) + train_state_to_bytes(state))

    @staticmethod
    def load(path):
        return read_file(path, lambda r: (network_from_bytes(r),
                                          train_state_from_bytes(r)))

    def test_save_load_save_identical(self, tmp_path):
        net = make_net(seed=9)
        state = TrainState(lr=0.004, epoch=6, cv_error_history=[3.0, 2.0],
                           phase="halving", best_epoch=2, best_cv_error=2.0)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        self.save(p1, net, state)
        net2, state2 = self.load(p1)
        self.save(p2, net2, state2)
        assert p1.read_bytes() == p2.read_bytes()
        assert state2 == state

    def test_truncated_checkpoint_rejected(self, tmp_path):
        net = make_net(seed=10)
        path = tmp_path / "t.ckpt"
        self.save(path, net, TrainState(lr=0.008))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError):
            self.load(path)

    def test_non_empty_reference_rejected(self, tmp_path):
        """The TRS1 reference field is written empty and must be read so."""
        blob = train_state_to_bytes(TrainState(lr=0.008))
        assert blob.endswith(b"\0\0")
        path = tmp_path / "t.ckpt"
        path.write_bytes(network_to_bytes(make_net(seed=12))
                         + blob[:-2] + b"\x04\0best")
        with pytest.raises(FormatError, match="reference of 4 bytes"):
            self.load(path)


def test_train_acoustic_model_computes_logmel_once(monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        corpus = build_parallel_corpus(10, rng_seed=3)
    expected = pipeline.acoustic_norm_stats(corpus)
    spec = pipeline.scale_arch_spec(
        ArchSpec(kind="dnn", n_classes=corpus.n_classes, n_hidden_layers=1,
                 hidden_activation="relu"), "toy")
    computed = []
    logmel = pipeline.logmel_filterbank

    def counting_logmel(wav, n_bands):
        computed.append(wav)
        return logmel(wav, n_bands)

    monkeypatch.setattr(pipeline, "logmel_filterbank", counting_logmel)
    _, stats = pipeline.train_acoustic_model(
        corpus, spec, TrainConfig(max_epochs=1, rng_seed=0))
    n_used = len(corpus.split_utts("train")) + len(corpus.split_utts("cv"))
    assert len(computed) == n_used
    assert np.array_equal(stats.mean, expected.mean)
    assert np.array_equal(stats.std, expected.std)


@pytest.fixture(scope="module")
def aligned_corpus():
    """10-utterance corpus: audio frames, TVs and labels agree in number."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_parallel_corpus(10, rng_seed=5)


def toy_spec(kind, corpus, **fields):
    return pipeline.scale_arch_spec(
        ArchSpec(kind=kind, n_classes=corpus.n_classes, **fields), "toy")


def acoustic_oracle(utts, frames, spec, mean, std):
    """reference_stacked_streams arguments of an acoustic dataset."""
    streams = {"acoustic": ([(f - mean) / std for f in frames],
                            (spec.context - 1) // 2, spec.context // 2)}
    if spec.kind == "fcnn":
        streams["tv"] = ([u.tvs.frames for u in utts],
                         (spec.tv_context - 1) // 2, spec.tv_context // 2)
    return streams, [u.labels for u in utts]


def assert_same_dataset(dataset, expected, targets):
    """Stacked frames, splice indices and targets equal, bit for bit."""
    assert dataset.streams.keys() == expected.keys()
    for name, (frames, indices) in expected.items():
        got_frames, got_indices = dataset.streams[name]
        assert got_frames.dtype == np.float32, name
        assert got_frames.shape == frames.shape, name
        assert got_frames.tobytes() == frames.tobytes(), name
        assert np.array_equal(got_indices, indices), name
    assert dataset.targets.dtype == targets.dtype
    assert dataset.targets.tobytes() == targets.tobytes()


class _Captured(Exception):
    """Raised in place of training, carrying its train and cv sets."""


def capture_datasets(monkeypatch, module):
    def fake_run_training(net, train_set, cv_set, *args, **kwargs):
        raise _Captured(train_set, cv_set)
    monkeypatch.setattr(module, "run_training", fake_run_training)


@pytest.mark.parametrize("kind", ["dnn", "cnn", "tfcnn", "fcnn"])
def test_acoustic_dataset_matches_frame_by_frame_oracle(aligned_corpus, kind):
    corpus = aligned_corpus
    utts = corpus.split_utts("test") + corpus.split_utts("cv")
    spec = toy_spec(kind, corpus, context=5, tv_context=7)
    stats = pipeline.acoustic_norm_stats(corpus)
    dataset = pipeline.make_acoustic_dataset(corpus, utts, spec, stats)
    inputs, targets = dataset.gather(np.arange(len(dataset)))

    frames = [pipeline.acoustic_frames(u) for u in utts]
    streams, labels = acoustic_oracle(utts, frames, spec, stats.mean,
                                      stats.std)
    expected, expected_targets = reference_frame_dataset(streams, labels)
    assert len(dataset) == sum(map(len, frames))
    assert inputs.keys() == expected.keys()
    for name in expected:
        assert inputs[name].dtype == expected[name].dtype
        assert np.array_equal(inputs[name], expected[name]), name
    assert np.array_equal(targets, expected_targets)
    assert_same_dataset(dataset, *reference_stacked_streams(streams, labels))


def test_inversion_dataset_matches_frame_by_frame_oracle(aligned_corpus):
    cfg = InversionConfig.toy(splice=SpliceSpec(3, 2))
    utts = aligned_corpus.split_utts("test")
    feats = [nmc_features(u.waveform) for u in utts]
    stats = norm_stats(feats)
    dataset = inversion_dataset(aligned_corpus, "test", cfg, stats)
    inputs, targets = dataset.gather(np.arange(len(dataset)))

    expected, expected_targets = reference_frame_dataset(
        {"acoustic": ([(f - stats.mean) / stats.std for f in feats], 3, 2)},
        [u.tvs.frames for u in utts])
    assert len(dataset) == sum(len(f) for f in feats)
    assert np.array_equal(inputs["acoustic"], expected["acoustic"])
    assert targets.dtype == np.float32
    assert np.array_equal(targets, expected_targets.astype(np.float32))


class TestOnePassDatasets:
    @pytest.mark.parametrize("stream", ["acoustic", "tv"])
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_stream_a_row_off_raises_shape_error(self, stream, extra):
        targets = [np.zeros(5, dtype=np.int64), np.zeros(4, dtype=np.int64)]
        rows = {"acoustic": [np.ones((5, 3)), np.ones((4, 3))],
                "tv": [np.ones((5, 2)), np.ones((4, 2))]}
        rows[stream][1] = np.ones((4 + extra, rows[stream][1].shape[1]))
        with pytest.raises(ShapeError, match="utterance 1 has"):
            utterance_dataset({k: v.__getitem__ for k, v in rows.items()},
                              {k: SpliceSpec(1, 1) for k in rows}, targets)

    def test_fcnn_dataset_with_short_tvs_raises_shape_error(self,
                                                            aligned_corpus):
        corpus = aligned_corpus
        spec = toy_spec("fcnn", corpus)
        utts = corpus.split_utts("test")
        utts[0] = replace(utts[0], tvs=TVTrajectory(utts[0].tvs.frames[:-1]))
        d = spec.n_feature_streams * spec.n_bands
        with pytest.raises(ShapeError, match="utterance 0 has"):
            pipeline.make_acoustic_dataset(
                corpus, utts, spec, NormStats(np.zeros(d), np.ones(d)))

    def test_train_acoustic_model_datasets(self, aligned_corpus, monkeypatch):
        """The train set, written from the frames the statistics were
        computed on, and the cv set match the oracle."""
        corpus = aligned_corpus
        spec = toy_spec("fcnn", corpus)
        capture_datasets(monkeypatch, pipeline)
        with pytest.raises(_Captured) as caught:
            pipeline.train_acoustic_model(corpus, spec, TrainConfig())
        frames = {split: [pipeline.acoustic_frames(u)
                          for u in corpus.split_utts(split)]
                  for split in ("train", "cv")}
        mean, std = reference_norm_stats(frames["train"])
        for split, dataset in zip(("train", "cv"), caught.value.args):
            expected, targets = reference_stacked_streams(*acoustic_oracle(
                corpus.split_utts(split), frames[split], spec, mean, std))
            assert_same_dataset(dataset, expected, targets)

    def test_train_inversion_model_datasets(self, aligned_corpus,
                                            monkeypatch):
        corpus = aligned_corpus
        cfg = InversionConfig.toy(splice=SpliceSpec(3, 2))
        capture_datasets(monkeypatch, inversion)
        with pytest.raises(_Captured) as caught:
            inversion.train_inversion_model(corpus, cfg)
        feats = {split: [nmc_features(u.waveform)
                         for u in corpus.split_utts(split)]
                 for split in ("train", "cv")}
        mean, std = reference_norm_stats(feats["train"])
        for split, dataset in zip(("train", "cv"), caught.value.args):
            utts = corpus.split_utts(split)
            expected, targets = reference_stacked_streams(
                {"acoustic": ([(f - mean) / std for f in feats[split]], 3, 2)},
                [u.tvs.frames for u in utts])
            assert_same_dataset(dataset, expected, targets.astype(np.float32))
            assert len(dataset) == sum(map(len, feats[split]))

    def test_peak_is_the_dataset_plus_one_utterance(self, aligned_corpus):
        """Building a dataset holds at most one utterance's float64
        features beside the arrays it returns."""
        corpus = aligned_corpus
        utts = corpus.utterances
        assert len(utts) >= 20
        spec = toy_spec("fcnn", corpus)
        stats = pipeline.acoustic_norm_stats(corpus)
        pipeline.make_acoustic_dataset(corpus, utts[:1], spec, stats)  # warm
        one_utt = max(frame_count(u.waveform) for u in utts) * 8 * (
            spec.n_feature_streams * spec.n_bands)
        tracemalloc.start()
        try:
            dataset = pipeline.make_acoustic_dataset(corpus, utts, spec, stats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        own = dataset.targets.nbytes + sum(
            frames.nbytes + indices.nbytes
            for frames, indices in dataset.streams.values())
        assert peak <= own + one_utt + 2**20, (peak, own, one_utt)


def test_one_frame_dataset_path():
    src = Path(__file__).resolve().parents[1] / "src" / "tvasr"
    assert not re.search(r"^\s*(from|import)\s+\S*inversion\b",
                         (src / "pipeline.py").read_text(), re.MULTILINE)
    builders = [path.name for path in sorted(src.glob("*.py"))
                if "FrameDataset(" in path.read_text()]
    assert builders == ["training.py"]


def test_one_splicing_path():
    src = Path(__file__).resolve().parents[1] / "src" / "tvasr"
    callers = [path.name for path in sorted(src.glob("*.py"))
               if re.search(r"(?<!def )splice_indices\(", path.read_text())]
    assert callers == ["training.py"]
