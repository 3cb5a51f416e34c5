import sys
import warnings
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from tvasr.corpus import build_parallel_corpus
from tvasr.inversion import InversionConfig, train_inversion_model
from tvasr.training import TrainConfig

# Seed for the shared acceptance-scale corpus; changing it invalidates the
# tuned expectations in test_acceptance.py.
ACCEPTANCE_SEED = 20240809


@pytest.fixture(scope="session")
def acceptance_corpus():
    """500-utterance corpus with dysarthria-like severity in [0.3, 0.7]."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_parallel_corpus(
            500, severity_range=(0.3, 0.7), snr_range=(10.0, 80.0),
            rng_seed=ACCEPTANCE_SEED, n_words_range=(1, 1))


@pytest.fixture(scope="session")
def inversion_config():
    """Toy widths, ReLU hidden units."""
    return InversionConfig.toy(train=TrainConfig(
        initial_lr=0.1, batch_size=64, constant_lr_epochs=8, max_epochs=24,
        rng_seed=0))


@pytest.fixture(scope="session")
def trained_inversion(acceptance_corpus, inversion_config):
    """Inversion model trained on the shared corpus with inversion_config."""
    model, result = train_inversion_model(acceptance_corpus, inversion_config)
    return model, result
