"""Batch command-line interface.

Subcommands: corpus-gen, train-inversion, invert, train, evaluate, report.
Every subcommand is deterministic given (config, seed).

Exit codes: 0 success, 1 I/O or file-format error, 2 configuration or
precondition error, 3 numerical failure during training.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np

from .architectures import (ARCH_KINDS, ArchSpec, arch_spec_from_config,
                            parse_kv_config)
from .audio import read_wav
from .corpus import (MANIFEST_NAME, build_parallel_corpus, corpus_digest,
                     read_corpus, split_sizes, write_corpus)
from .errors import ConfigError, DivergenceError, FormatError, ShapeError
from .evaluate import results_table
from .features import load_feature_matrix, save_feature_matrix
from .inversion import (InversionConfig, invert, load_inversion_model,
                        pearson_per_tv, save_inversion_model,
                        train_inversion_model)
from .pipeline import (AcousticModelBundle, TV_SOURCES, evaluate_acoustic_model,
                       features_label, load_acoustic_bundle,
                       save_acoustic_bundle, scale_arch_spec,
                       train_acoustic_model)
from .synth import NOISE_KINDS, TV_CHANNELS
from .training import TrainConfig


def _parse_bool(value: str) -> bool:
    if value.lower() not in ("1", "true", "yes", "0", "false", "no"):
        raise ConfigError(f"{value!r} is not a boolean (1/true/yes or 0/false/no)")
    return value.lower() in ("1", "true", "yes")


# TrainConfig annotations are strings under `from __future__ import annotations`
_TRAIN_KEYS = {f.name: {"int": int, "float": float, "bool": _parse_bool}[f.type]
               for f in dataclass_fields(TrainConfig) if f.name != "rng_seed"}

_CORPUS_KEYS = {
    "n_utts": int,
    "severity_min": float,
    "severity_max": float,
    "snr_min": float,
    "snr_max": float,
    "words_min": int,
    "words_max": int,
}


def _load_config(path) -> dict:
    return parse_kv_config(path) if path else {}


def _split_config(mapping: dict, *key_tables):
    """Partition config keys over the given tables; unknown keys are errors."""
    parts = [{} for _ in key_tables]
    for key, value in mapping.items():
        for part, table in zip(parts, key_tables):
            if key in table:
                part[key] = table[key](value)
                break
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return parts


def _epoch_line(rec) -> str:
    return (f"epoch={rec.epoch} lr={rec.lr:.6g} "
            f"train_loss={rec.train_loss:.6f} cv_error={rec.cv_error:.6f}")


def _resolve_manifest(corpus_arg) -> Path:
    path = Path(corpus_arg)
    return path / MANIFEST_NAME if path.is_dir() else path


def cmd_corpus_gen(args) -> int:
    cfg_map = _load_config(args.config)
    (corpus_cfg,) = _split_config(cfg_map, _CORPUS_KEYS)
    n_utts = args.n_utts if args.n_utts is not None else corpus_cfg.get("n_utts", 100)
    severity = (corpus_cfg.get("severity_min", 0.0),
                corpus_cfg.get("severity_max", 0.0))
    snr = (corpus_cfg.get("snr_min", 10.0), corpus_cfg.get("snr_max", 80.0))
    words = (corpus_cfg.get("words_min", 1), corpus_cfg.get("words_max", 2))

    corpus = build_parallel_corpus(
        n_utts, severity_range=severity, noise_bank=NOISE_KINDS,
        snr_range=snr, rng_seed=args.seed, n_words_range=words)
    manifest = write_corpus(corpus, args.out)

    n_train, n_cv, n_test = split_sizes(n_utts)
    print(f"corpus: {len(corpus.utterances)} entries "
          f"({n_utts} clean + {n_utts} noisy), {corpus.n_classes} classes")
    print(f"splits by clean utterance: train={n_train} cv={n_cv} test={n_test}")
    snrs = [u.snr_db for u in corpus.utterances if u.snr_db is not None]
    edges = np.arange(10.0, 90.0, 10.0)
    hist, _ = np.histogram(snrs, bins=edges)
    bars = " ".join(f"{int(lo)}-{int(lo) + 10}dB:{n}"
                    for lo, n in zip(edges[:-1], hist))
    print(f"snr histogram: {bars}")
    print(f"digest: {corpus_digest(corpus)}")
    print(f"manifest: {manifest}")
    return 0


def cmd_train_inversion(args) -> int:
    cfg_map = _load_config(args.config)
    (train_map,) = _split_config(cfg_map, _TRAIN_KEYS)
    train_cfg = TrainConfig(rng_seed=args.seed, **train_map)
    corpus = read_corpus(_resolve_manifest(args.corpus))
    if args.scale == "toy":
        inv_cfg = InversionConfig.toy(train=train_cfg)
    else:
        inv_cfg = InversionConfig(train=train_cfg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model, result = train_inversion_model(corpus, inv_cfg)
    log_path = out / "inversion-train.log"
    with open(log_path, "w", encoding="utf-8") as fh:
        for rec in result.records:
            line = _epoch_line(rec)
            fh.write(line + "\n")
            print(line)
    model_path = out / "inversion.ckpt"
    save_inversion_model(model_path, model)
    print(f"final cv mse: {result.state.best_cv_error:.6f}")
    print(f"model: {model_path}")
    return 0


def cmd_invert(args) -> int:
    model = load_inversion_model(args.model)
    if not args.wavs:
        print("no input files")
        return 0
    # check every input before writing anything, so a bad file leaves no
    # output; each wav is read again when inverted, to hold one at a time
    wav_paths = [Path(p) for p in args.wavs]
    truth_by_wav = {}
    for wav_path in wav_paths:
        read_wav(wav_path)
        truth_path = wav_path.parent / (wav_path.stem + ".tv.fmx")
        if truth_path.exists():
            truth_by_wav[wav_path] = load_feature_matrix(truth_path).frames
    preds, truths = [], []
    for wav_path in wav_paths:
        tvs = invert(model, read_wav(wav_path))
        out_path = wav_path.parent / (wav_path.stem + ".inv.fmx")
        save_feature_matrix(out_path, tvs)
        print(f"{wav_path} -> {out_path}")
        truth = truth_by_wav.get(wav_path)
        if truth is not None:
            t = min(len(truth), tvs.n_frames)
            preds.append(tvs.frames[:t])
            truths.append(truth[:t])
    if preds:
        r = pearson_per_tv(np.concatenate(preds), np.concatenate(truths))
        print("per-TV Pearson r:")
        for name, value in zip(TV_CHANNELS, r):
            print(f"  {name:>16s}  {value:+.4f}")
    return 0


def _use_inverted_tvs(utts, inverted, inversion_model, manifest_dir) -> None:
    """Set each utterance's `tvs` to inverted TVs, in place, if `inverted`.

    They come from the inversion model when one is given, else from the
    precomputed <id>.inv.fmx next to the manifest.
    """
    if not inverted:
        if inversion_model:
            raise ConfigError("--inversion-model is read only for inverted TVs")
        return
    model = load_inversion_model(inversion_model) if inversion_model else None
    for utt in utts:
        if model is not None:
            utt.tvs = invert(model, utt.waveform)
            continue
        inv_path = manifest_dir / f"{utt.utt_id}.inv.fmx"
        if not inv_path.exists():
            raise ConfigError(
                f"missing inverted TV file {inv_path} "
                "(run the invert subcommand or pass --inversion-model)")
        utt.tvs = load_feature_matrix(inv_path)


def cmd_train(args) -> int:
    cfg_map = _load_config(args.config)
    arch_map, train_map = _split_config(
        cfg_map, {f.name: str for f in dataclass_fields(ArchSpec)}, _TRAIN_KEYS)
    inverted = args.tv_source == "inverted"
    if inverted and args.arch != "fcnn":
        raise ConfigError("--tv-source inverted applies only to --arch fcnn")
    manifest = _resolve_manifest(args.corpus)
    corpus = read_corpus(manifest)

    arch_map.setdefault("kind", args.arch)
    if arch_map["kind"] != args.arch:
        raise ConfigError(
            f"--arch {args.arch} conflicts with config kind={arch_map['kind']}")
    arch_map.setdefault("n_classes", str(corpus.n_classes))
    spec = scale_arch_spec(arch_spec_from_config(arch_map), args.scale)
    train_cfg = TrainConfig(rng_seed=args.seed, **train_map)

    _use_inverted_tvs(corpus.split_utts("train") + corpus.split_utts("cv"),
                      inverted, args.inversion_model, manifest.parent)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    log_lines = []

    def on_epoch(rec):
        line = _epoch_line(rec)
        log_lines.append(line)
        print(line)

    result, stats = train_acoustic_model(corpus, spec, train_cfg,
                                         on_epoch=on_epoch)
    with open(out / f"{spec.kind}-train.log", "w", encoding="utf-8") as fh:
        fh.write("\n".join(log_lines) + "\n")
    bundle = AcousticModelBundle(result.best_net, result.state, spec, stats,
                                 args.tv_source)
    ckpt = out / f"{spec.kind}.ckpt"
    save_acoustic_bundle(ckpt, bundle)
    print(f"final cv error: {result.state.best_cv_error:.6f} "
          f"(best epoch {result.state.best_epoch})")
    print(f"checkpoint: {ckpt}")
    return 0


def cmd_evaluate(args) -> int:
    bundle = load_acoustic_bundle(args.checkpoint)
    manifest = _resolve_manifest(args.corpus)
    corpus = read_corpus(manifest)
    noisy = {"all": None, "noisy": True, "clean": False}[args.subset]
    utts = corpus.split_utts(args.split, noisy)
    if not utts:
        raise ConfigError(f"no utterances in split {args.split!r} ({args.subset})")
    inverted = bundle.spec.kind == "fcnn" and bundle.tv_source == "inverted"
    _use_inverted_tvs(utts, inverted, args.inversion_model, manifest.parent)
    report = evaluate_acoustic_model(bundle.net, corpus, utts, bundle.spec,
                                     bundle.stats)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    wer = report.wer
    lines = [
        f"arch: {bundle.spec.kind}",
        f"split: {args.split} ({args.subset}, {report.n_utterances} utts, "
        f"{report.n_frames} frames)",
        f"frame accuracy: {report.frame_accuracy:.4f}",
        f"token WER: {wer.wer_percent:.2f}% "
        f"(S={wer.substitutions} D={wer.deletions} I={wer.insertions} "
        f"N={wer.n_ref_words})",
    ]
    text = "\n".join(lines)
    print(text)
    with open(out / f"eval-{bundle.spec.kind}-{args.split}.txt", "w",
              encoding="utf-8") as fh:
        fh.write(text + "\n")
    tag = args.tag or manifest.parent.name
    with open(out / "results.tsv", "a", encoding="utf-8") as fh:
        fh.write("\t".join([bundle.spec.kind.upper(),
                            features_label(bundle.spec.kind, bundle.tv_source),
                            tag, f"{wer.wer_percent:.1f}"]) + "\n")
    return 0


def cmd_report(args) -> int:
    rows = []
    with open(args.results, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            arch, feats, tag, value = line.rstrip("\n").split("\t")
            rows.append((arch, feats, tag, float(value)))
    if not rows:
        raise ConfigError(f"{args.results}: no result rows")
    print(results_table(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvasr",
        description="synthetic articulatory speech corpora, inversion, and "
                    "acoustic-model training")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("corpus-gen", help="generate a synthetic parallel corpus")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-utts", type=int, default=None)
    p.set_defaults(func=cmd_corpus_gen)

    p = sub.add_parser("train-inversion", help="train the speech-inversion CNN")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--scale", choices=("toy", "paper"), default="toy")
    p.add_argument("--corpus", required=True, help="corpus manifest or directory")
    p.set_defaults(func=cmd_train_inversion)

    p = sub.add_parser("invert", help="predict tract variables for wav files")
    p.add_argument("--model", required=True, help="inversion checkpoint")
    p.add_argument("wavs", nargs="*", help="input wav files")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("train", help="train an acoustic model")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--scale", choices=("toy", "paper"), default="toy")
    p.add_argument("--arch", choices=ARCH_KINDS, required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--tv-source", choices=TV_SOURCES, default="ground-truth")
    p.add_argument("--inversion-model", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a trained acoustic model")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", choices=("train", "cv", "test"), default="test")
    p.add_argument("--subset", choices=("all", "noisy", "clean"), default="all")
    p.add_argument("--inversion-model", default=None)
    p.add_argument("--tag", default=None, help="training-data tag for the results row")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="format a results file as a table")
    p.add_argument("--results", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ShapeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
