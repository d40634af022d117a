"""Adam training loop over the four supervised losses.

Each optimizer step accumulates gradients sample by sample (equivalent to a
padded batch, since the per-sample losses are already reduced) and applies a
bias-corrected Adam update with global-norm gradient clipping. A NaN/Inf op
output or a non-finite gradient norm (checked once per step, before Adam)
aborts training. Low-resource runs take the first ceil(fraction * n) samples
of one seeded shuffle, fixed for the whole run. A per-step loss trace records
the four raw losses, the aggregated total, and the uncertainty parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import DialogueSample, EncodedSample, Vocabulary, encode_sample
from .losses import AwlParams, awl, mse, nll
from .model import CKLModel, ModelConfig
from .tensor import NumericError, Tape, Tensor
from .weak_supervision import PseudoGroundTruth, TfIdfIndex, build_index, build_pseudo_gt


class TrainingAbort(RuntimeError):
    """Training hit a non-finite value; carries the failing step number."""

    def __init__(self, step: int, detail: str):
        super().__init__(f"non-finite value at step {step}: {detail}")
        self.step = step


@dataclass
class TrainingConfig:
    learning_rate: float = 5e-5
    epochs: int = 10
    batch_size: int = 16
    seed: int = 0
    data_fraction: float = 1.0
    grad_clip: float = 1.0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 < self.data_fraction <= 1.0:
            raise ValueError("data_fraction must be in (0, 1]")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")


class AdamState:
    """First/second moment accumulators keyed by parameter name."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.step = 0


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray], state: AdamState, lr: float) -> None:
    """In-place bias-corrected Adam update; missing grads count as zero."""
    state.step += 1
    t = state.step
    b1, b2, eps = AdamState.BETA1, AdamState.BETA2, AdamState.EPS
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        elif g.shape != p.data.shape:
            raise ValueError(f"gradient shape {g.shape} != param {name} {p.data.shape}")
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m[...] = b1 * m + (1 - b1) * g
        v[...] = b2 * v + (1 - b2) * g * g
        state.m[name] = m
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        p.data[...] = p.data - lr * m_hat / (np.sqrt(v_hat) + eps)


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so their global norm is at most max_norm."""
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if max_norm > 0 and total > max_norm:
        factor = max_norm / total
        for g in grads.values():
            g *= factor
    return total


@dataclass
class TraceRow:
    step: int
    l_clwr: float
    l_clwk: float
    l_klw: float
    l_nll: float
    awl_total: float
    s: list[float]

    def csv(self) -> str:
        cells = [str(self.step)] + [
            repr(v) for v in (self.l_clwr, self.l_clwk, self.l_klw, self.l_nll, self.awl_total)
        ] + [repr(v) for v in self.s]
        return ",".join(cells)


TRACE_HEADER = "step,l_clwr,l_clwk,l_klw,l_nll,awl_total,s1,s2,s3,s4"


@dataclass
class TrainResult:
    model: CKLModel
    awl_params: AwlParams
    trace: list[TraceRow]
    effective_n: int
    encoded: list[EncodedSample] = field(repr=False, default_factory=list)
    labels: list[PseudoGroundTruth] = field(repr=False, default_factory=list)


def build_labels(
    kept: list[tuple[list[list[str]], list[list[str]], list[str]]], top_n: int
) -> tuple[TfIdfIndex, list[PseudoGroundTruth]]:
    """The TF-IDF index and one pseudo ground truth per sample of a split.

    ``kept`` holds each sample's (context, knowledge, response) token lists as
    encoding keeps them (``corpus.kept_segments``), so label positions line up
    with model segments. The index covers every kept knowledge sentence.
    """
    index = build_index([knowledge for _context, knowledge, _response in kept])
    labels = [
        build_pseudo_gt(context, knowledge, response, index, top_n)
        for context, knowledge, response in kept
    ]
    return index, labels


def prepare_training_set(
    samples: list[DialogueSample],
    vocab: Vocabulary,
    model_cfg: ModelConfig,
    train_cfg: TrainingConfig,
) -> tuple[list[EncodedSample], list[PseudoGroundTruth]]:
    """Seeded shuffle, low-resource subset, encoding, and label construction.

    The TF-IDF statistics come from the knowledge the run actually trains on.
    """
    rng = np.random.default_rng(train_cfg.seed)
    order = rng.permutation(len(samples))
    effective = math.ceil(train_cfg.data_fraction * len(samples))
    chosen = [samples[i] for i in order[:effective]]
    encoded = [encode_sample(s, vocab, model_cfg.encode_config()) for s in chosen]
    _index, labels = build_labels(
        [(e.context_tokens, e.knowledge_tokens, e.response_tokens) for e in encoded],
        model_cfg.top_n,
    )
    return encoded, labels


def sample_losses(model: CKLModel, sample: EncodedSample, label: PseudoGroundTruth):
    """The four per-sample losses from one teacher-forced pass."""
    logits, weights = model.forward(sample)
    return (
        mse(weights.clwr, np.asarray(label.gt_clwr, dtype=np.float64)),
        mse(weights.clwk, np.asarray(label.gt_clwk, dtype=np.float64)),
        mse(weights.klw, np.asarray(label.gt_klw, dtype=np.float64)),
        nll(logits, sample.response_ids[1:]),
    )


def train(
    samples: list[DialogueSample],
    vocab: Vocabulary,
    model_cfg: ModelConfig,
    train_cfg: TrainingConfig,
    max_steps: int | None = None,
) -> TrainResult:
    encoded, labels = prepare_training_set(samples, vocab, model_cfg, train_cfg)
    model = CKLModel(model_cfg, seed=train_cfg.seed)
    awl_params = AwlParams()
    trainables = dict(model.parameters())
    trainables.update(awl_params.named())
    state = AdamState()
    rng = np.random.default_rng(train_cfg.seed + 1)
    trace: list[TraceRow] = []
    step = 0
    n = len(encoded)

    for _epoch in range(train_cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, train_cfg.batch_size):
            batch = order[start : start + train_cfg.batch_size]
            step += 1
            grads_acc: dict[str, np.ndarray] = {}
            sums = np.zeros(5)
            s_before = awl_params.values()
            for idx in batch:
                try:  # _make reports non-finite op outputs, so numpy need not warn
                    with Tape() as tape, np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                        l_clwr, l_clwk, l_klw, l_nll = sample_losses(
                            model, encoded[idx], labels[idx]
                        )
                        total = awl(
                            l_clwr,
                            l_clwk,
                            l_klw,
                            l_nll,
                            awl_params,
                            use_loss_clwr=model_cfg.use_loss_clwr,
                            use_loss_clwk=model_cfg.use_loss_clwk,
                            use_loss_klw=model_cfg.use_loss_klw,
                        )
                        node_grads = tape.backward(total)
                except NumericError as err:
                    raise TrainingAbort(step, str(err)) from err
                sums += [l_clwr.item(), l_clwk.item(), l_klw.item(), l_nll.item(), total.item()]
                inv_b = 1.0 / len(batch)
                for name, p in trainables.items():
                    g = node_grads.get(p.node_id)
                    if g is None:
                        continue
                    acc = grads_acc.get(name)
                    grads_acc[name] = g.data * inv_b if acc is None else acc + g.data * inv_b
            if not math.isfinite(clip_gradients(grads_acc, train_cfg.grad_clip)):
                raise TrainingAbort(step, "gradient norm is NaN/Inf")
            adam_step(trainables, grads_acc, state, train_cfg.learning_rate)
            means = [float(v) for v in sums / len(batch)]
            trace.append(
                TraceRow(
                    step=step,
                    l_clwr=means[0],
                    l_clwk=means[1],
                    l_klw=means[2],
                    l_nll=means[3],
                    awl_total=means[4],
                    s=s_before,
                )
            )
            if max_steps is not None and step >= max_steps:
                return TrainResult(model, awl_params, trace, n, encoded, labels)
    return TrainResult(model, awl_params, trace, n, encoded, labels)


def write_trace(path, trace: list[TraceRow], effective_n: int, total_n: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# effective_samples={effective_n} total_samples={total_n}\n")
        fh.write(TRACE_HEADER + "\n")
        for row in trace:
            fh.write(row.csv() + "\n")


def mean_per_token_nll(model: CKLModel, encoded: list[EncodedSample]) -> float:
    """Corpus teacher-forcing NLL divided by the number of predicted tokens."""
    total = 0.0
    tokens = 0
    for sample in encoded:
        logits, _ = model.forward(sample)
        total += nll(logits, sample.response_ids[1:]).item()
        tokens += len(sample.response_ids) - 1
    return total / tokens
