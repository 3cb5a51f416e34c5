"""The three workloads: the toy CLI walkthrough, paper-scale training, and
paper-scale scoring.

Each workload has a set-up, a round (the unit the timed region repeats, the
same operations every time) and checks. The program sees only inputs made
from the workload seed: every corpus seed derives from it, every model seed
is 0.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import struct
import time
from pathlib import Path

import numpy as np

import checks
from instrument import END, START, UNITS, Spans
from tvasr import (architectures, cli, corpus, features, inversion, pipeline,
                   training)

WALK_UTTS = 45            # clean utterances (5 in the test split); plus noisy copies
WALK_CORPORA = 3          # rounds cycle through this many corpora (min rounds)
WALK_INV_EPOCHS = 2       # train-inversion, batch 64, lr 0.1 (toy scale)
WALK_TRAIN_EPOCHS = 2     # train cnn / fcnn, lr 0.1 (toy scale)
WALK_TRAIN_BATCH = 64
WARM_UTTS = 10            # set-up warm-up corpus

PAPER_UTTS = 120          # clean utterances of 1 word, severity 0.1-0.3
PAPER_SCORED = 80         # last corpus entries (40 clean + 40 noisy) held out
PAPER_KINDS = ("cnn", "tfcnn", "fcnn")
TRAIN_FRAMES = 4096       # frames (evenly spaced) per epoch and architecture
TRAIN_EPOCHS = 2
TRAIN_LR = 0.01
HELDOUT_FRAMES = 2048     # CV frames (evenly spaced) evaluated after each epoch
EVAL_TRAIN_FRAMES = 4096  # eval-paper set-up: one epoch, batch 64, lr 0.03
PROBE_UTTS = 24           # inversion probe corpus (walkthrough recipe)


def _paper_spec(kind: str, n_classes: int) -> architectures.ArchSpec:
    # ArchSpec defaults (4 x 1024 hidden, 200 frequency filters) with ReLU:
    # sigmoid stacks of this depth stay at the majority class for the few
    # SGD steps a run can afford.
    return architectures.ArchSpec(kind=kind, n_classes=n_classes,
                                  hidden_activation="relu")


def _spread(dataset, n: int):
    """n frames evenly spaced over a FrameDataset, so that a fixed frame
    count still covers every utterance (splicing stays per utterance)."""
    if len(dataset) < n:
        raise checks.CheckError(f"dataset has {len(dataset)} < {n} frames")
    pick = np.linspace(0, len(dataset) - 1, n).astype(np.int64)
    streams = {k: (frames, idx[pick])
               for k, (frames, idx) in dataset.streams.items()}
    return training.FrameDataset(streams, dataset.targets[pick])


def _acoustic_only(dataset):
    return training.FrameDataset({"acoustic": dataset.streams["acoustic"]},
                                 dataset.targets)


def _check_corpus_snr(corp) -> None:
    sources = {u.utt_id: u for u in corp.utterances if not u.is_noisy}
    checked = sum(checks.check_snr(sources[u.source_id].waveform.samples,
                                   u.waveform.samples, u.snr_db)
                  for u in corp.utterances if u.is_noisy)
    if not checked:
        raise checks.CheckError("every noisy copy clipped; SNR unchecked")


class Walkthrough:
    """README command-line loop, in-process through tvasr.cli.main."""

    name = "walkthrough-toy"
    # Functions the untraced run wraps: results for the checks, and the
    # time spent in train_epoch and evaluate_acoustic_model.
    light = ("corpus.build_parallel_corpus", "evaluate.levenshtein_wer",
             "training.train_epoch", "pipeline.evaluate_acoustic_model")
    n_setups = 2
    # The CLI scores only the 10% test split, so one corpus scores a handful
    # of utterances; pooling WALK_CORPORA corpora steadies frame_accuracy.
    min_rounds = WALK_CORPORA

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.n_rounds = 0
        # corpus index -> (checkpoint digests, fCNN report, its labels, r)
        self.first = {}

    def rewind(self) -> None:
        """Start the corpus cycle again (the traced phase replays it)."""
        self.n_rounds = 0

    def corpus_seed(self, k: int) -> int:
        return (self.seed % 2 ** 32) * 100 + k

    def setup(self) -> None:
        """Write the config files, then warm the front ends and the engine
        on a small in-memory corpus so that timed rounds pay no first-call
        costs."""
        self.dir.mkdir(parents=True, exist_ok=True)
        (self.dir / "corpus.conf").write_text(
            f"n_utts = {WALK_UTTS}\nseverity_min = 0.3\nseverity_max = 0.7\n"
            "words_min = 1\nwords_max = 2\n")
        (self.dir / "inv.conf").write_text(
            "initial_lr = 0.1\nbatch_size = 64\n"
            f"constant_lr_epochs = {WALK_INV_EPOCHS}\n"
            f"max_epochs = {WALK_INV_EPOCHS}\n")
        (self.dir / "train.conf").write_text(
            "n_hidden_layers = 2\nhidden_activation = relu\ninitial_lr = 0.1\n"
            f"batch_size = {WALK_TRAIN_BATCH}\n"
            f"constant_lr_epochs = {WALK_TRAIN_EPOCHS}\n"
            f"max_epochs = {WALK_TRAIN_EPOCHS}\n")
        warm = corpus.build_parallel_corpus(WARM_UTTS, rng_seed=self.seed)
        for utt in warm.utterances:
            features.nmc_features(utt.waveform)
        spec = pipeline.scale_arch_spec(
            architectures.ArchSpec(kind="fcnn", n_classes=warm.n_classes), "toy")
        stats = pipeline.acoustic_norm_stats(warm)
        data = pipeline.make_acoustic_dataset(warm, warm.utterances, spec, stats)
        net = architectures.build_network(spec)
        training.train_epoch(net, data, 0.1, 256, [0, 1])

    def probe(self) -> dict:
        return {}

    def _steps(self, root: Path, seed: int):
        c, m, r = root / "corpus", root / "models", root / "results"
        conf = self.dir
        yield "corpus-gen", ["corpus-gen", "--config", conf / "corpus.conf",
                             "--out", c, "--seed", seed]
        yield "train-inversion", ["train-inversion", "--corpus", c, "--out", m,
                                  "--config", conf / "inv.conf"]
        yield "invert", ["invert", "--model", m / "inversion.ckpt",
                         *sorted(c.glob("*.wav"))]
        yield "train.cnn", ["train", "--arch", "cnn", "--corpus", c,
                            "--out", m, "--config", conf / "train.conf"]
        yield "train.fcnn", ["train", "--arch", "fcnn", "--corpus", c,
                             "--out", m, "--config", conf / "train.conf",
                             "--tv-source", "inverted",
                             "--inversion-model", m / "inversion.ckpt"]
        for kind in ("cnn", "fcnn"):
            yield f"evaluate.{kind}", [
                "evaluate", "--checkpoint", m / f"{kind}.ckpt", "--corpus", c,
                "--out", r, "--subset", "noisy", "--tag", "walkthrough"]
        yield "report", ["report", "--results", r / "results.tsv"]

    def round(self, spans: Spans) -> dict:
        k = self.n_rounds % WALK_CORPORA
        self.n_rounds += 1
        root = self.dir / f"round{self.n_rounds}"
        shutil.rmtree(root, ignore_errors=True)
        first_span = len(spans.spans)
        times, stdout = {}, {}
        for label, argv in self._steps(root, self.corpus_seed(k)):
            argv = [str(a) for a in argv]
            buf = io.StringIO()
            with spans.span(f"cli.{label}") as span, \
                    contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            checks.check_exit_code(code, argv)
            times[label] = span[END] - span[START]
            stdout[label] = buf.getvalue()
        r = _printed_pearson(stdout["invert"])
        out = {
            "ops": len(times),
            "run_s": sum(times.values()),
            "corpus_gen_s": times["corpus-gen"],
            "train_inversion_s": times["train-inversion"],
            "invert_s": times["invert"],
            "train_s": times["train.cnn"] + times["train.fcnn"],
            "evaluate_s": times["evaluate.cnn"] + times["evaluate.fcnn"],
        }
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted((root / "models").glob("*.ckpt"))}
        if k not in self.first:
            report, labels = self._check_round(root, spans, first_span, r)
            self.first[k] = (digests, report, labels, float(np.mean(r)))
        elif digests != self.first[k][0]:
            raise checks.CheckError("checkpoints differ between rounds "
                                    "on the same corpus")
        shutil.rmtree(root)
        return out

    def _check_round(self, root: Path, spans: Spans, first_span: int,
                     printed_r):
        """Check one round's outputs; returns the fCNN's EvalReport and the
        labels of the frames it scored."""
        c = root / "corpus"
        rows = [line.split("\t") for line in
                (c / "manifest.tsv").read_text().splitlines() if line]
        preds, truths = [], []
        for utt_id, _, wav, tv, *_ in rows:
            inv = _read_fmx(c / f"{utt_id}.inv.fmx")
            checks.check_inverted_tvs(inv, _wav_samples(c / wav))
            if tv == f"{utt_id}.tv.fmx":  # invert pairs only clean audio
                truth = _read_fmx(c / tv)
                t = min(len(inv), len(truth))
                preds.append(inv[:t])
                truths.append(truth[:t])
        # printed to 4 decimals from float64; the file holds float32
        checks.check_pearson(np.concatenate(preds), np.concatenate(truths),
                             printed_r, 1e-4)
        self._check_checkpoints(root / "models")

        run = Spans()
        run.spans = spans.spans[first_span:]
        (corp,) = run.captured("corpus.build_parallel_corpus")
        _check_corpus_snr(corp)
        for ref, hyp, report in run.captured("evaluate.levenshtein_wer"):
            checks.check_wer(ref, hyp, report)
        checks.check_loss_below_uniform(
            [loss for kind, loss in run.captured("training.train_epoch")
             if kind != "inversion"], corp.n_classes)
        (fcnn_report,) = [r for kind, r in
                          run.captured("pipeline.evaluate_acoustic_model")
                          if kind == "fcnn"]
        labels = []
        for utt_id, split, wav, tv, lab, _ in rows:
            if split == "test" and utt_id.endswith("n"):
                frames = np.loadtxt(c / lab, dtype=np.int64, ndmin=1)
                t = min(checks.logmel_frames(_wav_samples(c / wav)),
                        len(_read_fmx(c / tv)), len(frames))
                labels.append(frames[:t])
        labels = np.concatenate(labels)
        if len(labels) != fcnn_report.n_frames:
            raise checks.CheckError(f"fCNN scored {fcnn_report.n_frames} "
                                    f"frames, expected {len(labels)}")
        return fcnn_report, labels

    def _check_checkpoints(self, models: Path) -> None:
        scratch = models / "resaved.ckpt"
        model = inversion.load_inversion_model(models / "inversion.ckpt")
        inversion.save_inversion_model(scratch, model)
        checks.check_same_bytes((models / "inversion.ckpt").read_bytes(),
                                scratch.read_bytes(), "inversion.ckpt")
        for kind in ("cnn", "fcnn"):
            bundle = pipeline.load_acoustic_bundle(models / f"{kind}.ckpt")
            pipeline.save_acoustic_bundle(scratch, bundle)
            checks.check_same_bytes((models / f"{kind}.ckpt").read_bytes(),
                                    scratch.read_bytes(), f"{kind}.ckpt")
        scratch.unlink()

    def finish(self, spans: Spans) -> dict:
        trained = [s for s in spans.spans if s[0] in
                   ("training.train_epoch.cnn", "training.train_epoch.fcnn")]
        scored = spans.named("pipeline.evaluate_acoustic_model")
        reports = [report for _, report, _, _ in self.first.values()]
        # pooled over the scored frames of every corpus
        accuracy = (sum(r.frame_accuracy * r.n_frames for r in reports)
                    / sum(r.n_frames for r in reports))
        checks.check_beats_majority(accuracy, np.concatenate(
            [labels for _, _, labels, _ in self.first.values()]))
        return {
            "train_frames_per_s": sum(s[UNITS] for s in trained)
            / sum(s[END] - s[START] for s in trained),
            "eval_frames_per_s":
                sum(r.n_frames for _, r in spans.captured(
                    "pipeline.evaluate_acoustic_model"))
                / sum(s[END] - s[START] for s in scored),
            "frame_accuracy": accuracy,
            "inversion_pearson_r": float(np.mean(
                [r for _, _, _, r in self.first.values()])),
        }


def _printed_pearson(text: str) -> list:
    lines = text.splitlines()
    start = lines.index("per-TV Pearson r:") + 1
    return [float(line.split()[-1]) for line in lines[start:start + 8]]


_FMX_HEAD = "<4sIIIIId"


def _read_fmx(path: Path) -> np.ndarray:
    """FMX1 container parsed here, not by the program's reader."""
    data = path.read_bytes()
    magic, t, d = struct.unpack_from("<4sII", data)
    if magic != b"FMX1":
        raise checks.CheckError(f"{path}: bad FMX magic")
    offset = struct.calcsize(_FMX_HEAD)
    return np.frombuffer(data, "<f4", t * d, offset).reshape(t, d)


def _wav_samples(path: Path) -> int:
    """Sample count from the data-chunk size of a canonical 44-byte header."""
    with open(path, "rb") as fh:
        head = fh.read(44)
    if head[36:40] != b"data":
        raise checks.CheckError(f"{path}: unexpected WAV layout")
    return struct.unpack_from("<I", head, 40)[0] // 2


class _Paper:
    """Shared set-up pieces of the two paper-scale workloads."""

    light = ("evaluate.levenshtein_wer",)
    n_setups = 2
    min_rounds = 1

    def rewind(self) -> None:
        pass

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir

    def _build_corpus(self):
        return corpus.build_parallel_corpus(
            PAPER_UTTS, severity_range=(0.1, 0.3), rng_seed=self.seed,
            n_words_range=(1, 1))

    def _corpus(self):
        corp = self._build_corpus()
        self.corpus = corp
        self.pool = corp.utterances[:-PAPER_SCORED]
        self.scored = corp.utterances[-PAPER_SCORED:]
        self.stats = pipeline.acoustic_norm_stats(corp)
        return corp

    def probe(self) -> dict:
        """One sample of the stage probe; runs before and after the rounds.

        Times two generations of this workload's corpus, then one small pass
        of the walkthrough's inversion stages in-process: a PROBE_UTTS
        corpus in the walkthrough's recipe from the workload seed, the toy
        inversion CNN trained on it as train-inversion does, and two
        inversions of each clean utterance as invert does. This gives the
        workload its corpus and inversion metrics without touching its
        timed rounds.
        """
        gen = []
        for _ in range(2):
            t0 = time.perf_counter()
            self._build_corpus()
            gen.append(time.perf_counter() - t0)
        corp = corpus.build_parallel_corpus(
            PROBE_UTTS, severity_range=(0.3, 0.7), rng_seed=self.seed,
            n_words_range=(1, 2))
        cfg = inversion.InversionConfig.toy(train=training.TrainConfig(
            initial_lr=0.1, batch_size=64, constant_lr_epochs=WALK_INV_EPOCHS,
            max_epochs=WALK_INV_EPOCHS))
        t0 = time.perf_counter()
        model, _ = inversion.train_inversion_model(corp, cfg)
        train_s = time.perf_counter() - t0
        clean = [u for u in corp.utterances if not u.is_noisy]
        invert_s = []
        for _ in range(2):
            t0 = time.perf_counter()
            tvs = [inversion.invert(model, u.waveform) for u in clean]
            invert_s.append(time.perf_counter() - t0)
        preds, truths = [], []
        for u, tv in zip(clean, tvs):
            checks.check_inverted_tvs(tv.frames, len(u.waveform.samples))
            t = min(tv.n_frames, u.tvs.n_frames)
            preds.append(tv.frames[:t])
            truths.append(u.tvs.frames[:t])
        pred, truth = np.concatenate(preds), np.concatenate(truths)
        r = inversion.pearson_per_tv(pred, truth)
        checks.check_pearson(pred, truth, r, 1e-9)
        return {"corpus_gen_s": float(np.median(gen)),
                "train_inversion_s": train_s,
                "invert_s": float(np.median(invert_s)),
                "inversion_pearson_r": float(np.mean(r))}


class TrainPaper(_Paper):
    """Paper-scale CNN, TFCNN and fCNN trained for TRAIN_EPOCHS each."""

    name = "train-paper"

    def setup(self) -> None:
        corp = self._corpus()
        specs = {k: _paper_spec(k, corp.n_classes) for k in PAPER_KINDS}
        fused = pipeline.make_acoustic_dataset(corp, self.pool, specs["fcnn"],
                                               self.stats)
        held = pipeline.make_acoustic_dataset(corp, self.scored,
                                              specs["fcnn"], self.stats)
        fused, held = _spread(fused, TRAIN_FRAMES), _spread(held, HELDOUT_FRAMES)
        self.train_sets = {k: fused if k == "fcnn" else _acoustic_only(fused)
                           for k in PAPER_KINDS}
        self.held_sets = {k: held if k == "fcnn" else _acoustic_only(held)
                          for k in PAPER_KINDS}
        self.nets = {k: architectures.build_network(specs[k], seed=0)
                     for k in PAPER_KINDS}
        self.first_losses = None

    def round(self, spans: Spans) -> dict:
        train_s = eval_s = 0.0
        losses = []
        t_round = time.perf_counter()
        for kind in PAPER_KINDS:
            net = self.nets[kind].copy()
            for epoch in range(1, TRAIN_EPOCHS + 1):
                t0 = time.perf_counter()
                losses.append(training.train_epoch(
                    net, self.train_sets[kind], TRAIN_LR, 256, [0, epoch]))
                t1 = time.perf_counter()
                error = training.evaluate_dataset(net, self.held_sets[kind])
                t2 = time.perf_counter()
                train_s += t1 - t0
                eval_s += t2 - t1
        run_s = time.perf_counter() - t_round
        accuracy = 1.0 - error  # the fCNN, trained last
        if self.first_losses is None:
            self.first_losses = losses
            checks.check_loss_below_uniform(losses, self.corpus.n_classes)
            checks.check_beats_majority(accuracy, self.held_sets["fcnn"].targets)
            _check_corpus_snr(self.corpus)
        elif losses != self.first_losses:
            raise checks.CheckError("training losses differ between rounds")
        n_epochs = len(PAPER_KINDS) * TRAIN_EPOCHS
        return {
            "ops": n_epochs,
            "run_s": run_s,
            "train_s": train_s,
            "evaluate_s": eval_s,
            "train_frames_per_s": n_epochs * TRAIN_FRAMES / train_s,
            "eval_frames_per_s": n_epochs * HELDOUT_FRAMES / eval_s,
            "frame_accuracy": accuracy,
        }

    def finish(self, spans: Spans) -> dict:
        return {}


class EvalPaper(_Paper):
    """Per-utterance scoring with a briefly trained paper-scale fCNN."""

    name = "eval-paper"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.setup_train_s = []

    def setup(self) -> None:
        corp = self._corpus()
        self.spec = _paper_spec("fcnn", corp.n_classes)
        train_set = _spread(pipeline.make_acoustic_dataset(
            corp, self.pool, self.spec, self.stats), EVAL_TRAIN_FRAMES)
        net = architectures.build_network(self.spec, seed=0)
        t0 = time.perf_counter()
        loss = training.train_epoch(net, train_set, 0.03, 64, [0, 1])
        train_s = time.perf_counter() - t0
        checks.check_loss_below_uniform([loss], corp.n_classes)
        self.net = net
        self.setup_train_s.append(train_s)
        self.report = None

    def round(self, spans: Spans) -> dict:
        first_span = len(spans.spans)
        t0 = time.perf_counter()
        report = pipeline.evaluate_acoustic_model(
            self.net, self.corpus, self.scored, self.spec, self.stats)
        dt = time.perf_counter() - t0
        if self.report is None:
            self.report = report
            self._check_first(report, spans, first_span)
        elif report != self.report:
            raise checks.CheckError("scores differ between rounds")
        return {
            "ops": report.n_utterances,
            "run_s": dt,
            "evaluate_s": dt,
            "eval_frames_per_s": report.n_frames / dt,
            "frame_accuracy": report.frame_accuracy,
        }

    def _check_first(self, report, spans: Spans, first_span: int) -> None:
        run = Spans()
        run.spans = spans.spans[first_span:]
        captured = run.captured("evaluate.levenshtein_wer")
        if not captured:
            raise checks.CheckError("no token sequences were scored")
        for ref, hyp, wer in captured:
            checks.check_wer(ref, hyp, wer)
        scored = pipeline.make_acoustic_dataset(
            self.corpus, self.scored, self.spec, self.stats)
        if len(scored) != report.n_frames:
            raise checks.CheckError("batched and per-utterance frame counts differ")
        predicted = training.predict_dataset(self.net, scored).argmax(axis=1)
        checks.check_same_accuracy(int(np.sum(predicted == scored.targets)),
                                   report.frame_accuracy, report.n_frames)
        checks.check_beats_majority(report.frame_accuracy, scored.targets)
        _check_corpus_snr(self.corpus)

    def finish(self, spans: Spans) -> dict:
        train_s = float(np.median(self.setup_train_s))
        return {"train_s": train_s,
                "train_frames_per_s": EVAL_TRAIN_FRAMES / train_s}


WORKLOADS = {w.name: w for w in (Walkthrough, TrainPaper, EvalPaper)}
