"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The ordering and inversion criteria train real
models on a shared 500-utterance corpus and take several minutes.
"""

import time
import warnings

import numpy as np
import pytest

from helpers import (draw_smooth_gradcheck_case, max_relative_gradient_error,
                     reference_edit_alignment)

from tvasr.architectures import ArchSpec, build_network
from tvasr.cli import main as cli_main
from tvasr.evaluate import levenshtein_wer, results_table
from tvasr.features import nmc_features
from tvasr.inversion import inversion_dataset, pearson_per_tv
from tvasr.pipeline import (acoustic_norm_stats, evaluate_acoustic_model,
                            make_acoustic_dataset, scale_arch_spec)
from tvasr.synth import TV_CHANNELS
from tvasr.training import TrainConfig, TrainState, predict_dataset, run_training, schedule_update

import test_nn


def report(criterion, text):
    print(f"\nACCEPTANCE {criterion}: PASS — {text}")


def test_criterion_1_gradient_suite():
    """Every layer kind and both losses pass finite-difference checks."""
    start = time.monotonic()
    rng = np.random.default_rng(1)
    checks = []

    net = test_nn.dense_net([6, 10, 4], seed=11)
    checks.append(("dense+sigmoid+softmax-CE", max_relative_gradient_error(
        net, rng.standard_normal((7, 6)), rng.integers(0, 4, 7), "ce")))

    net = test_nn.dense_net([5, 10, 3], activation="relu", softmax=False,
                            seed=12)
    x = draw_smooth_gradcheck_case(net, rng,
                                   lambda r: r.standard_normal((6, 5)))
    checks.append(("dense+relu+MSE", max_relative_gradient_error(
        net, x, rng.standard_normal((6, 3)), "mse")))

    net = test_nn.conv_net(axis="frequency", view=True, seed=13)
    x = draw_smooth_gradcheck_case(net, rng,
                                   lambda r: r.standard_normal((5, 30)))
    checks.append(("freqconv+pool+softmax-CE", max_relative_gradient_error(
        net, x, rng.integers(0, 5, 5), "ce")))

    net = test_nn.conv_net(axis="time", activation="relu", softmax=False,
                           seed=14)
    x = draw_smooth_gradcheck_case(net, rng,
                                   lambda r: r.standard_normal((5, 30)))
    checks.append(("timeconv+pool+MSE", max_relative_gradient_error(
        net, x, rng.standard_normal((5, 3)), "mse")))

    net = test_nn.two_stream_net(seed=15)
    x = draw_smooth_gradcheck_case(
        net, rng, lambda r: {"acoustic": r.standard_normal((6, 32)),
                             "tv": r.standard_normal((6, 15))})
    checks.append(("fused-two-stream-CE", max_relative_gradient_error(
        net, x, rng.integers(0, 4, 6), "ce")))

    elapsed = time.monotonic() - start
    for name, err in checks:
        assert err <= 1e-4, f"{name}: relative error {err}"
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    worst = max(err for _, err in checks)
    report(1, f"gradient checks max rel err {worst:.2e} in {elapsed:.1f}s")


def test_criterion_2_paper_scale_shape_ledger():
    """Full-size fCNN dimensions match the reference arithmetic, untrained."""
    spec = ArchSpec(kind="fcnn", n_classes=42, n_hidden_layers=6,
                    hidden_width=2048)
    net = build_network(spec)

    freq_conv, _, freq_pool = net.streams[0].layers
    assert freq_conv.n_positions == 40
    assert freq_conv.out_positions == 33
    assert freq_pool.out_positions == 11
    assert freq_pool.out_dim(None) == 11 * 200 == 2200

    time_conv, _, time_pool = net.streams[1].layers
    assert time_conv.n_positions == 17
    assert time_conv.out_positions == 13
    assert time_pool.out_positions == 2
    assert time_pool.out_dim(None) == 2 * 75 == 150

    assert sum(net.stream_out_dims()) == 2350
    dense_sizes = [(l.n_in, l.n_out) for l in net.trunk if l.kind == "dense"]
    assert dense_sizes[0] == (2350, 2048)
    assert dense_sizes[1:6] == [(2048, 2048)] * 5
    assert dense_sizes[6] == (2048, 42)
    report(2, "fCNN ledger 40→33→11×200=2200 | 17→13→2×75=150 | 2350 | 6×2048")


def test_criterion_3_schedule_rules():
    """Constant lr for four epochs; scripted halving and stop transitions."""
    cfg = TrainConfig(initial_lr=0.008, constant_lr_epochs=4,
                      halving_threshold=0.005, stop_threshold=0.001)

    state = TrainState(lr=cfg.initial_lr)
    for err in [10.0, 10.0, 10.0, 10.0]:  # no improvement at all
        state = schedule_update(state, err, cfg)
        assert state.lr == 0.008
        assert state.phase == "constant"

    state = TrainState(lr=cfg.initial_lr)
    for err in [10.0, 9.0, 8.0, 7.0, 6.0]:
        state = schedule_update(state, err, cfg)
    assert state.lr == 0.008
    state = schedule_update(state, 6.0 * (1 - 0.001), cfg)  # 0.1% improvement
    assert state.lr == 0.004
    assert state.phase == "halving"
    state = schedule_update(state, 5.5, cfg)  # healthy improvement: keep lr
    assert state.lr == 0.004 and state.phase == "halving"
    state = schedule_update(state, 5.0, cfg)
    state = schedule_update(state, 5.1, cfg)  # CV error increases: stop
    assert state.phase == "stopped"
    assert state.best_epoch == 8
    assert state.best_cv_error == 5.0
    report(3, "lr held 0.008 for 4 epochs; halved to 0.004; stopped on rise")


@pytest.fixture(scope="module")
def acoustic_setup(acceptance_corpus):
    stats = acoustic_norm_stats(acceptance_corpus)
    return acceptance_corpus, stats


def test_criterion_4_fcnn_vs_cnn_ordering(acoustic_setup):
    """fCNN with ground-truth TVs beats the filterbank CNN in >=4/5 runs."""
    start = time.monotonic()
    corpus, stats = acoustic_setup
    accuracies = {}
    for kind in ("fcnn", "cnn"):
        spec = scale_arch_spec(
            ArchSpec(kind=kind, n_classes=corpus.n_classes,
                     n_hidden_layers=2, hidden_activation="relu"), "toy")
        train_set = make_acoustic_dataset(corpus, corpus.split_utts("train"),
                                          spec, stats)
        cv_set = make_acoustic_dataset(corpus, corpus.split_utts("cv"),
                                       spec, stats)
        noisy_test = corpus.split_utts("test", noisy=True)
        accuracies[kind] = []
        for seed in range(5):
            cfg = TrainConfig(initial_lr=0.1, constant_lr_epochs=4,
                              max_epochs=8, rng_seed=seed)
            net = build_network(spec, seed=seed)
            result = run_training(net, train_set, cv_set, cfg)
            rep = evaluate_acoustic_model(result.best_net, corpus, noisy_test,
                                          spec, stats)
            accuracies[kind].append(rep.frame_accuracy)

    wins = sum(f >= c for f, c in zip(accuracies["fcnn"], accuracies["cnn"]))
    elapsed = time.monotonic() - start
    assert wins >= 4, (accuracies, wins)
    assert elapsed <= 900.0, f"ordering check took {elapsed:.0f}s"
    report(4, f"fCNN ≥ CNN in {wins}/5 runs "
              f"(fCNN {np.mean(accuracies['fcnn']):.3f} vs "
              f"CNN {np.mean(accuracies['cnn']):.3f}; {elapsed:.0f}s)")


def _nmc_and_tvs(corpus, split, cfg):
    """Per-utterance unnormalized NMC frames and TVs, cut to equal length."""
    feats, tvs = [], []
    for utt in corpus.split_utts(split):
        frames = nmc_features(utt.waveform, cfg.n_coeffs)
        t = min(len(frames), utt.tvs.n_frames)
        feats.append(frames[:t])
        tvs.append(utt.tvs.frames[:t])
    return feats, tvs


def _frame_wise_linear_predictions(corpus, cfg):
    """Closed-form least squares from single-frame features to TVs."""
    train_x, train_y = _nmc_and_tvs(corpus, "train", cfg)
    test_x, test_y = _nmc_and_tvs(corpus, "test", cfg)
    x = np.concatenate(train_x, axis=0)
    y = np.concatenate(train_y, axis=0)
    x1 = np.concatenate([x, np.ones((len(x), 1))], axis=1)
    weights, *_ = np.linalg.lstsq(x1, y, rcond=None)
    xt = np.concatenate(test_x, axis=0)
    pred = np.concatenate([xt, np.ones((len(xt), 1))], axis=1) @ weights
    return pred, np.concatenate(test_y, axis=0)


def test_criterion_5_inversion_beats_linear_oracle(acceptance_corpus,
                                                   trained_inversion,
                                                   inversion_config):
    """Inversion CNN beats frame-wise linear regression on >=6 of 8 TVs."""
    model, _ = trained_inversion
    test_set = inversion_dataset(acceptance_corpus, "test", inversion_config,
                                 model.stats)
    cnn_pred = np.clip(predict_dataset(model.net, test_set), 0.0, 1.0)
    r_cnn = pearson_per_tv(cnn_pred, test_set.targets)

    lin_pred, lin_truth = _frame_wise_linear_predictions(acceptance_corpus,
                                                         inversion_config)
    r_lin = pearson_per_tv(lin_pred, lin_truth)

    wins = int(np.sum(r_cnn > r_lin))
    detail = ", ".join(f"{name.split('_')[-1]}:{rc:.2f}/{rl:.2f}"
                       for name, rc, rl in zip(TV_CHANNELS, r_cnn, r_lin))
    assert wins >= 6, f"CNN beat linear on only {wins}/8 TVs ({detail})"

    # model must also beat the constant-0.5 predictor on MSE
    mse_model = float(np.mean((cnn_pred - test_set.targets) ** 2))
    mse_const = float(np.mean((0.5 - test_set.targets) ** 2))
    assert mse_model < mse_const
    report(5, f"inversion CNN wins {wins}/8 TVs (r CNN/linear: {detail})")


def test_inversion_noise_hurts_at_10db(acceptance_corpus, trained_inversion):
    """Derived invariant: inversion error on 10 dB noisy copies >= clean."""
    from tvasr.audio import mix_noise_at_snr
    from tvasr.inversion import invert
    from tvasr.synth import generate_noise

    model, _ = trained_inversion
    clean_err, noisy_err = [], []
    for utt in acceptance_corpus.split_utts("test", noisy=False)[:20]:
        rng = np.random.default_rng([99, int(utt.utt_id[3:8])])
        noise = generate_noise("white", len(utt.waveform.samples), rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            noisy = mix_noise_at_snr(utt.waveform, noise, 10.0)
        t = utt.tvs.n_frames
        pred_c = invert(model, utt.waveform).frames[:t]
        pred_n = invert(model, noisy).frames[:t]
        clean_err.append(np.mean((pred_c - utt.tvs.frames[:t]) ** 2))
        noisy_err.append(np.mean((pred_n - utt.tvs.frames[:t]) ** 2))
    assert np.mean(noisy_err) >= np.mean(clean_err)


def test_inversion_training_split_fits_better(acceptance_corpus,
                                              trained_inversion):
    """Derived example: train-split MSE sits below the corpus median MSE."""
    from tvasr.inversion import invert

    model, _ = trained_inversion
    mses = {"train": [], "test": []}
    for split in ("train", "test"):
        for utt in acceptance_corpus.split_utts(split)[:40]:
            t = utt.tvs.n_frames
            pred = invert(model, utt.waveform).frames[:t]
            mses[split].append(float(np.mean((pred - utt.tvs.frames[:t]) ** 2)))
    median = float(np.median(mses["train"] + mses["test"]))
    assert np.mean(mses["train"]) <= median * 1.5


def test_criterion_6_wer_oracle_equivalence():
    """levenshtein_wer matches the brute-force DP oracle on 1000 pairs."""
    rng = np.random.default_rng(6)
    alphabet = [f"w{i}" for i in range(8)]
    for _ in range(1000):
        ref = tuple(alphabet[i]
                    for i in rng.integers(0, 8, rng.integers(1, 12)))
        hyp = tuple(alphabet[i]
                    for i in rng.integers(0, 8, rng.integers(0, 12)))
        mine = levenshtein_wer(list(ref), list(hyp))
        dist, ins, dels = reference_edit_alignment(ref, hyp)
        assert (mine.n_errors, mine.insertions, mine.deletions) == \
            (dist, ins, dels), (ref, hyp)
    report(6, "exact match with brute-force alignment on 1000 random pairs")


def test_criterion_7_pipeline_determinism(tmp_path):
    """corpus-gen → train fcnn → evaluate twice: bit-identical artifacts."""
    def run_pipeline(root):
        root.mkdir(parents=True, exist_ok=True)
        corpus_dir = root / "corpus"
        model_dir = root / "model"
        config = root / "train.conf"
        config.write_text("n_hidden_layers = 1\nmax_epochs = 3\n")
        assert cli_main(["corpus-gen", "--out", str(corpus_dir),
                         "--seed", "3", "--n-utts", "12"]) == 0
        assert cli_main(["train", "--arch", "fcnn",
                         "--corpus", str(corpus_dir), "--out", str(model_dir),
                         "--seed", "5", "--config", str(config)]) == 0
        assert cli_main(["evaluate", "--checkpoint", str(model_dir / "fcnn.ckpt"),
                         "--corpus", str(corpus_dir), "--out", str(model_dir),
                         "--tag", "toy"]) == 0
        return (corpus_dir / "manifest.tsv").read_bytes(), \
            (model_dir / "fcnn.ckpt").read_bytes(), \
            (model_dir / "eval-fcnn-test.txt").read_bytes(), \
            (model_dir / "results.tsv").read_bytes()

    first = run_pipeline(tmp_path / "run1")
    second = run_pipeline(tmp_path / "run2")
    names = ("manifest", "checkpoint", "evaluation report", "results row")
    for name, a, b in zip(names, first, second):
        assert a == b, f"{name} differs between identical runs"
    report(7, "two identical pipeline runs: checkpoints and reports bit-equal")


def test_criterion_8_results_table_reproduces_reference_layout():
    """Reference WER values render with the fCNN row marked panel-best."""
    rows = [
        ("DNN", "FB", "Dys. NL", 22.9),
        ("CNN", "FB", "Dys. NL", 21.1),
        ("TFCNN", "FB", "Dys. NL", 20.3),
        ("fCNN", "FB + TV", "Dys. NL", 19.1),
    ]
    table = results_table(rows)
    lines = table.splitlines()
    fcnn_line = [l for l in lines if l.startswith("fCNN")][0]
    assert "19.1 *" in fcnn_line
    assert sum(l.rstrip().endswith("*") for l in lines) == 1
    header = lines[0]
    assert header.index("AM") < header.index("Features") \
        < header.index("Train. Data") < header.index("WER (%)")
    report(8, "fCNN row marked best (19.1) in the reference table layout")
