"""Grounded dialogue generation with learned per-segment latent weights.

The package bundles a small float64 autodiff core, a rule tokenizer and
corpus pipeline, weak-supervision label construction, the latent-weight
encoder/decoder model, losses with uncertainty weighting, an Adam training
loop, generation metrics, and a command-line driver.
"""

from .corpus import DialogueSample, EncodedSample, Vocabulary, build_vocab, encode_sample, load_jsonl
from .model import CKLModel, LatentWeights, ModelConfig, attention
from .tensor import Tape, Tensor
from .training import TrainingConfig, train
from .weak_supervision import PseudoGroundTruth, TfIdfIndex, build_pseudo_gt

__all__ = [
    "CKLModel",
    "DialogueSample",
    "EncodedSample",
    "LatentWeights",
    "ModelConfig",
    "PseudoGroundTruth",
    "Tape",
    "Tensor",
    "TfIdfIndex",
    "TrainingConfig",
    "Vocabulary",
    "attention",
    "build_pseudo_gt",
    "build_vocab",
    "encode_sample",
    "load_jsonl",
    "train",
]

__version__ = "0.1.0"
