"""Golden numerics digest: pinned SHA-256 values of seeded artifacts.

A refactor of the front ends, the dataset path, the network builders or the
training step must keep these bytes. The values hold for the numpy/BLAS
build this suite was recorded with (numpy 2.x with its bundled OpenBLAS, on
x86-64); another BLAS may round the GEMMs differently and fail this test
without any change to tvasr.
"""

import hashlib
import warnings

import pytest

from tvasr.architectures import ARCH_KINDS, ArchSpec, build_network
from tvasr.corpus import build_parallel_corpus, corpus_digest
from tvasr.inversion import InversionConfig, save_inversion_model, train_inversion_model
from tvasr.nn import network_to_bytes
from tvasr.pipeline import acoustic_norm_stats, make_acoustic_dataset, scale_arch_spec
from tvasr.training import TrainConfig, run_training, train_state_to_bytes

CORPUS_DIGEST = "076ac98f2c4a88a31616e823187f7ff2e41776ca74b7cdef5ed42209c6514026"
CHECKPOINT_SHA256 = {
    "dnn": "7d579ae246e0910336a10f93195f33e92e213c3880bc8b601c0aebac7cc27ec4",
    "cnn": "b45e1756a7f4c3b193db6b5acf4a459bfe103c6c30442dd422d9473d7d317f33",
    "tfcnn": "c52fa8746a8e581887023de6036cedb825f2af1ded8b5f57efe6c1bb7d59ea1e",
    "fcnn": "4a972ce8a2fa40de419edbb1bcd8e3bf4ce36352e68ee53d8f4ecd432c134267",
}
INVERSION_SHA256 = "d2a3e189d3a7977a007330ba9e7827be9826bcf405b4f8cb43664f035e706c91"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def corpus():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_parallel_corpus(12, severity_range=(0.0, 0.5), rng_seed=41)


def test_corpus_digest(corpus):
    assert corpus_digest(corpus) == CORPUS_DIGEST


@pytest.mark.parametrize("kind", ARCH_KINDS)
def test_one_toy_epoch_checkpoint(corpus, kind):
    spec = scale_arch_spec(ArchSpec(kind=kind, n_classes=corpus.n_classes,
                                    n_hidden_layers=1,
                                    hidden_activation="relu"), "toy")
    stats = acoustic_norm_stats(corpus)
    train = make_acoustic_dataset(corpus, corpus.split_utts("train"), spec, stats)
    cv = make_acoustic_dataset(corpus, corpus.split_utts("cv"), spec, stats)
    cfg = TrainConfig(initial_lr=0.1, batch_size=64, max_epochs=1, rng_seed=3)
    result = run_training(build_network(spec, seed=3), train, cv, cfg)
    checkpoint = network_to_bytes(result.best_net) + train_state_to_bytes(result.state)
    assert sha256(checkpoint) == CHECKPOINT_SHA256[kind]


def test_one_epoch_inversion_model(corpus, tmp_path):
    cfg = InversionConfig.toy(train=TrainConfig(
        initial_lr=0.1, batch_size=64, max_epochs=1, rng_seed=5))
    model, _ = train_inversion_model(corpus, cfg)
    path = tmp_path / "inversion.ckpt"
    save_inversion_model(path, model)
    assert sha256(path.read_bytes()) == INVERSION_SHA256
