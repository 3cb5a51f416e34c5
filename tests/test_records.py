"""Damaged files: every loader loads them or raises FormatError, nothing else.

One small artifact of each kind is cut at every byte and has every byte
flipped (XOR 0x01 and XOR 0xFF). A case that loads must still satisfy the
cross-record checks of its file; a rejected case must make the CLI command
that reads that file exit 1.
"""

import re
import struct
import time
from pathlib import Path

import numpy as np
import pytest

from tvasr.architectures import ArchSpec, build_network
from tvasr.audio import Waveform, read_wav, write_wav
from tvasr.cli import main
from tvasr.errors import FormatError
from tvasr import features
from tvasr.features import (NormStats, SpliceSpec, load_feature_matrix,
                            nmc_features, nmc_map, save_feature_matrix)
from tvasr.inversion import (InversionConfig, InversionModel,
                             build_inversion_net, load_inversion_model,
                             save_inversion_model)
from tvasr.nn import (Dense, MaxPool1d, NetworkGraph, Stream,
                      network_from_bytes, network_to_bytes)
from tvasr.pipeline import (TV_SOURCES, AcousticModelBundle,
                            load_acoustic_bundle, save_acoustic_bundle)
from tvasr.records import Reader, read_file
from tvasr.synth import N_TVS, TVTrajectory
from tvasr.training import TrainState

SRC = Path(__file__).resolve().parents[1] / "src" / "tvasr"


def damaged(blob: bytes):
    """Every proper prefix, then every single-byte flip of blob."""
    for n in range(len(blob)):
        yield blob[:n]
    for i in range(len(blob)):
        for mask in (0x01, 0xFF):
            flipped = bytearray(blob)
            flipped[i] ^= mask
            yield bytes(flipped)


def tiny_bundle():
    spec = ArchSpec(kind="fcnn", n_classes=2, n_hidden_layers=0, n_bands=3,
                    n_feature_streams=3, context=1, n_tvs=8, tv_context=2,
                    freq_filters=1, freq_filter_width=2, freq_pool=1,
                    time_filters=1, time_filter_width=1, time_pool=1,
                    hidden_activation="relu")
    state = TrainState(lr=0.004, epoch=3, cv_error_history=[0.5, 0.25, 0.2],
                       phase="halving", best_epoch=3, best_cv_error=0.2)
    stats = NormStats(np.tile([0.5, -1.0, 2.0], 3), np.tile([1.0, 0.25, 3.0], 3))
    return AcousticModelBundle(build_network(spec, seed=1), state, spec,
                               stats, "inverted")


def tiny_inversion_model():
    cfg = InversionConfig(n_coeffs=4, splice=SpliceSpec(1, 1), n_filters=2,
                          filter_width=2, pool=1, n_dense=1, dense_width=3,
                          activation="relu")
    return InversionModel(build_inversion_net(cfg, seed=2),
                          NormStats(np.zeros(4), np.ones(4)), cfg.n_coeffs,
                          cfg.splice)


def no_check(loaded):
    pass


def check_tvs(tvs):
    assert tvs.frames.shape == (3, N_TVS)
    assert np.all((tvs.frames >= 0.0) & (tvs.frames <= 1.0))


def check_bundle(bundle):
    spec = bundle.spec
    inputs = {"acoustic": spec.n_bands * spec.n_feature_streams * spec.context}
    if spec.kind == "fcnn":
        inputs["tv"] = spec.n_tvs * spec.tv_context
    assert bundle.net.input_dims() == inputs
    assert bundle.net.output_dim() == spec.n_classes
    assert bundle.stats.mean.shape == bundle.stats.std.shape \
        == (spec.n_bands * spec.n_feature_streams,)
    assert bundle.tv_source in TV_SOURCES


def check_inversion_model(model):
    n, width = model.n_coeffs, model.splice.width
    assert model.stats.mean.shape == model.stats.std.shape == (n,)
    assert model.net.input_dims() == {"acoustic": n * width}
    assert model.net.output_dim() == N_TVS


def test_every_damaged_artifact_loads_or_raises_format_error(tmp_path):
    start = time.process_time()
    model = tmp_path / "inversion.ckpt"
    save_inversion_model(model, tiny_inversion_model())
    # invert reads <stem>.tv.fmx next to each wav once the wav has loaded
    speech = tmp_path / "speech.wav"
    write_wav(speech, Waveform(0.1 * np.sin(np.arange(800) / 7.0)))
    out = tmp_path / "out"

    bundle = tiny_bundle()
    artifacts = {
        "wav.wav": (lambda p: write_wav(p, Waveform(np.arange(-10, 10) / 64.0)),
                    read_wav, no_check),
        "speech.tv.fmx": (lambda p: save_feature_matrix(p, TVTrajectory(
            np.linspace(0.0, 1.0, 3 * N_TVS).reshape(3, N_TVS))),
            load_feature_matrix, check_tvs),
        "bundle.ckpt": (lambda p: save_acoustic_bundle(p, bundle),
                        load_acoustic_bundle, check_bundle),
        "inv.ckpt": (lambda p: save_inversion_model(p, tiny_inversion_model()),
                     load_inversion_model, check_inversion_model),
    }
    # The command that reads each kind of file. NNG1 and TRS1 records exist
    # only inside bundles and inversion models, so "bundle.ckpt", which
    # opens with both, damages both parsers.
    commands = {
        "wav.wav": lambda p: ["invert", "--model", model, p],
        "speech.tv.fmx": lambda p: ["invert", "--model", model, speech],
        "bundle.ckpt": lambda p: ["evaluate", "--checkpoint", p, "--corpus",
                                  tmp_path / "no-corpus", "--out", out],
        "inv.ckpt": lambda p: ["invert", "--model", p],
    }
    for name, (write, load, check) in artifacts.items():
        path = tmp_path / name
        write(path)
        blob = path.read_bytes()
        check(load(path))
        n_loaded = n_rejected = 0
        for case in damaged(blob):
            path.write_bytes(case)
            try:
                loaded = load(path)
            except FormatError:
                n_rejected += 1
                if name in commands:
                    argv = [str(a) for a in commands[name](path)]
                    assert main(argv) == 1, (name, case)
                continue
            n_loaded += 1
            check(loaded)
        assert n_rejected >= len(blob), name  # every proper prefix, at least
        assert n_loaded + n_rejected == 3 * len(blob)
    assert time.process_time() - start < 30.0


def test_every_damaged_nmc_sidecar_is_recomputed(tmp_path, monkeypatch):
    """A damaged <stem>.nmc never yields other features: nmc_map computes
    them again and writes the sidecar anew."""
    path = tmp_path / "speech.wav"
    write_wav(path, Waveform(0.1 * np.sin(np.arange(800) / 7.0)))
    wav = read_wav(path)
    expected = nmc_features(wav, 4)
    nmc_map([wav], 4)
    sidecar = tmp_path / "speech.nmc"
    blob = sidecar.read_bytes()
    assert len(blob) == 4 + 32 + 4 + expected.size * 8 + 32
    calls = []

    def recording(wav, n_coeffs):
        calls.append(n_coeffs)
        return nmc_features(wav, n_coeffs)

    monkeypatch.setattr(features, "nmc_features", recording)
    cases = list(damaged(blob)) + [blob + b"\0"]
    for case in cases:
        sidecar.write_bytes(case)
        (feats,) = nmc_map([wav], 4)
        assert np.array_equal(feats, expected)
        assert sidecar.read_bytes() == blob
    assert len(calls) == len(cases)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["speech.nmc",
                                                          "speech.wav"]


def test_flipped_coefficient_count_is_rejected(tmp_path):
    """A flipped IST1 n_coeffs must not reach invert's filter design."""
    path = tmp_path / "inv.ckpt"
    save_inversion_model(path, tiny_inversion_model())
    blob = bytearray(path.read_bytes())
    field = blob.index(b"IST1") + 4 + 2  # third byte of n_coeffs (uint32)
    blob[field] ^= 0x01  # 4 -> 65540
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="coefficients"):
        load_inversion_model(path)


def test_pool_size_beyond_the_index_dtype_is_rejected(tmp_path):
    """An NNG1 pool size of 257 fits its positions but not the uint8 indices."""
    pool = MaxPool1d(2, 300, 1)
    net = NetworkGraph([Stream("acoustic", 300, [pool])],
                       [Dense(pool.out_dim(None), 2)], np.float32)
    blob = network_to_bytes(net)
    spec = struct.pack("<BIII", 2, 2, 300, 1)  # maxpool1d kind code, sizes
    field = blob.index(spec) + 1
    blob = blob[:field] + struct.pack("<I", 257) + blob[field + 4:]
    path = tmp_path / "net.nng"
    path.write_bytes(blob)
    with pytest.raises(FormatError, match="pool size 257 exceeds 256"):
        read_file(path, network_from_bytes)


def test_bundle_with_other_feature_streams_is_rejected(tmp_path):
    path = tmp_path / "bundle.ckpt"
    save_acoustic_bundle(path, tiny_bundle())
    blob = path.read_bytes()
    assert blob.count(b"n_feature_streams=3") == 1
    path.write_bytes(blob.replace(b"n_feature_streams=3", b"n_feature_streams=1"))
    with pytest.raises(FormatError, match="n_feature_streams=1 unsupported"):
        load_acoustic_bundle(path)
    assert main(["evaluate", "--checkpoint", str(path), "--corpus",
                 str(tmp_path / "no-corpus"), "--out", str(tmp_path)]) == 1


def test_bundle_with_other_tv_channels_is_rejected(tmp_path):
    path = tmp_path / "bundle.ckpt"
    save_acoustic_bundle(path, tiny_bundle())
    blob = path.read_bytes()
    assert blob.count(b"n_tvs=8") == 1
    path.write_bytes(blob.replace(b"n_tvs=8", b"n_tvs=4"))
    with pytest.raises(FormatError, match="n_tvs=4 unsupported"):
        load_acoustic_bundle(path)


@pytest.mark.parametrize("field,oversized", [
    (b"n_hidden_layers=0\n", b"n_hidden_layers=100000\n"),
    (b"\ncontext=1\n", b"\ncontext=100000000\n")])
def test_bundle_with_an_oversized_spec_is_rejected(field, oversized, tmp_path):
    """A spec too large to build is refused before any layer is built."""
    path = tmp_path / "bundle.ckpt"
    save_acoustic_bundle(path, tiny_bundle())
    blob = path.read_bytes()
    start = blob.index(b"AMB1") + 4
    (n,) = struct.unpack_from("<I", blob, start)
    meta = blob[start + 4:start + 4 + n]
    assert meta.count(field) == 1
    meta = meta.replace(field, oversized)
    path.write_bytes(blob[:start] + struct.pack("<I", len(meta)) + meta
                     + blob[start + 4 + n:])
    with pytest.raises(FormatError, match="MAX_PARAMETERS"):
        load_acoustic_bundle(path)


def test_reader_checks_sizes_before_reading():
    r = Reader(b"\x05\x00\x00\x00abc")
    (n,) = r.take("<I")
    with pytest.raises(FormatError, match="truncated"):
        r.array("<f8", (n, 1 << 40))
    assert r.offset == 4
    with pytest.raises(FormatError, match="unknown phase code 97"):
        r.code({"constant": 0}, "phase")


def test_no_binary_parsing_outside_the_reader():
    pattern = re.compile(r"struct\.unpack|unpack_from|frombuffer")
    offenders = [f"{path.name}:{lineno}"
                 for path in sorted(SRC.glob("*.py")) if path.name != "records.py"
                 for lineno, line in enumerate(path.read_text().splitlines(), 1)
                 if pattern.search(line)]
    assert offenders == []
