"""Desk-scale acoustic modeling toolkit.

Generates synthetic parallel corpora (audio + tract-variable trajectories +
frame labels), extracts acoustic and articulatory-inversion features, trains
DNN/CNN/TFCNN/fCNN frame classifiers and a CNN speech-inversion model with a
constant-then-halving SGD schedule, and scores models with greedy decoding
and token error rates.
"""

from .architectures import (ArchSpec, arch_spec_from_config, build_network,
                            parse_kv_config)
from .audio import Waveform, mix_noise_at_snr, read_wav, write_wav
from .corpus import (ParallelCorpus, Utterance, build_parallel_corpus,
                     corpus_digest, read_corpus, write_corpus)
from .errors import (ConfigError, DivergenceError, FormatError, ShapeError,
                     StateError, TvasrError)
from .evaluate import (WerReport, greedy_decode, levenshtein_wer,
                       results_table)
from .features import (NormStats, SpliceSpec, append_deltas,
                       load_feature_matrix, logmel_filterbank, nmc_features,
                       nmc_map, save_feature_matrix)
from .inversion import (InversionConfig, InversionModel, invert,
                        load_inversion_model, save_inversion_model,
                        train_inversion_model)
from .nn import (NetworkGraph, backward, forward, mse_loss, sgd_step,
                 softmax_cross_entropy)
from .synth import (GesturalScore, TVTrajectory, default_vocabulary,
                    generate_gestural_score, render_tvs,
                    synthesize_speech_from_tvs)
from .training import (TrainConfig, TrainState, run_training,
                       schedule_update, train_epoch)

__version__ = "0.1.0"
