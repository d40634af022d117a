"""Adam training loop over the four supervised losses.

An optimizer step splits its batch into packs of about ``PACK_BUDGET`` source
rows × d_model, each pack's rows stacked into one forward pass on one tape
(block-diagonal attention keeps the samples apart), so each record is paid once
per pack, and ``awl`` totals the pack from its summed losses. Each tape's
``backward`` frees the pack's activations as it adds the leaf gradients into
the step's one dict; the sum is scaled by 1/batch once, clipped to a global
norm and applied as a bias-corrected Adam update.
A NaN/Inf op output or a non-finite gradient norm (checked once per step,
before Adam) aborts training. Low-resource runs take the first
ceil(fraction * n) samples of one seeded shuffle, fixed for the whole run. A
per-step loss trace records the four raw losses, the aggregated total, and the
uncertainty parameters.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import DialogueSample, EncodedSample, Vocabulary, encode_sample, write_lines
from .losses import AwlParams, awl, mse, nll
from .model import CKLModel, ModelConfig
from .tensor import NumericError, Tape, Tensor
from .weak_supervision import PseudoGroundTruth, TfIdfIndex, build_pseudo_gt


# Source rows × d_model per tape pass. A pack pays each record once, and what it holds as its backward starts follows
# rows × width: 3.91 MB traced for 8 samples of 24-26 rows at d_model 64, 3.47 MB for 8 of 72-74 rows at d_model 32.
# So 16 samples of 24 rows at d_model 64 run as 8 + 8, and 24 of 72 rows at d_model 32 as 3 × 8.
PACK_BUDGET = 300 * 64


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
    top_n: int = 1  # knowledge sentences labelled relevant per sample
    use_loss_klw: bool = True
    use_loss_clwr: bool = True
    use_loss_clwk: bool = True

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if math.isnan(self.grad_clip):
            raise ValueError("grad_clip must be a number, got nan")
        if not 0.0 < self.data_fraction <= 1.0:
            raise ValueError("data_fraction must be in (0, 1]")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.top_n < 1:
            raise ValueError(f"top_n must be >= 1, got {self.top_n}")


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
    """In-place bias-corrected Adam update; missing grads count as zero.

    The in-place steps keep the bits of ``p - lr * (m / c1) / (sqrt(v / c2) + eps)``."""
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
            m = state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        den = np.sqrt(v / (1 - b2**t)) + eps
        step = m / (1 - b1**t)
        step *= lr
        step /= den
        p.data -= step


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
    index = TfIdfIndex([sentence for _context, knowledge, _response in kept for sentence in knowledge])
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
        train_cfg.top_n,
    )
    return encoded, labels


def split_packs(batch: np.ndarray, encoded: list[EncodedSample], d_model: int) -> list[np.ndarray]:
    """``batch``, indices into ``encoded``, split in order into ceil(source rows × d_model / PACK_BUDGET) packs, at
    most one per sample, whose sizes differ by at most 1."""
    rows = sum(len(encoded[i].source_ids()) for i in batch)
    return np.array_split(batch, min(len(batch), math.ceil(rows * d_model / PACK_BUDGET)))


def sample_losses(model: CKLModel, samples: list[EncodedSample], labels: list[PseudoGroundTruth]):
    """The four losses of a pack of samples from one teacher-forced pass, each summed over the pack."""
    logits, weights = model.forward(*samples)

    def targets(name):  # the pack's labels, and each sample's count of them
        parts = [getattr(label, name) for label in labels]
        return np.concatenate(parts).astype(np.float64), [len(part) for part in parts]

    return (
        mse(weights.clwr, *targets("gt_clwr")),
        mse(weights.clwk, *targets("gt_clwk")),
        mse(weights.klw, *targets("gt_klw")),
        nll(logits, [y for sample in samples for y in sample.response_ids[1:]]),
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
    trainables = {**model.parameters(), **awl_params.named()}
    state = AdamState()
    rng = np.random.default_rng(train_cfg.seed + 1)
    trace: list[TraceRow] = []
    n, size = len(encoded), train_cfg.batch_size
    orders = (rng.permutation(n) for _ in range(train_cfg.epochs))  # each epoch's shuffle, drawn as the epoch starts
    batches = (order[start : start + size] for order in orders for start in range(0, n, size))
    for step, batch in enumerate(itertools.islice(batches, max_steps), 1):
        leaf_grads: dict[int, np.ndarray] = {}
        sums = np.zeros(5)
        s_before = awl_params.values()
        for pack in split_packs(batch, encoded, model_cfg.d_model):
            try:  # _make reports non-finite op outputs, so numpy need not warn
                with Tape() as tape, np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    losses = sample_losses(model, [encoded[i] for i in pack], [labels[i] for i in pack])
                    total = awl(*losses, awl_params, use_loss_clwr=train_cfg.use_loss_clwr,
                                use_loss_clwk=train_cfg.use_loss_clwk, use_loss_klw=train_cfg.use_loss_klw, n=len(pack))
                    tape.backward(total, leaf_grads)
            except NumericError as err:
                raise TrainingAbort(step, str(err)) from err
            sums += [loss.item() for loss in losses] + [total.item()]
        grads = {name: leaf_grads[p.node_id] * (1.0 / len(batch))
                 for name, p in trainables.items() if p.node_id in leaf_grads}
        if not math.isfinite(clip_gradients(grads, train_cfg.grad_clip)):
            raise TrainingAbort(step, "gradient norm is NaN/Inf")
        adam_step(trainables, grads, state, train_cfg.learning_rate)
        del grads, leaf_grads  # not kept alive through the next step's forward
        trace.append(TraceRow(step, *(float(v) for v in sums / len(batch)), s=s_before))  # per-step means
    return TrainResult(model, awl_params, trace, n, encoded, labels)


def write_trace(path, trace: list[TraceRow], effective_n: int, total_n: int) -> None:
    write_lines(path, [f"# effective_samples={effective_n} total_samples={total_n}", TRACE_HEADER,
                       *(row.csv() for row in trace)])


def mean_per_token_nll(model: CKLModel, encoded: list[EncodedSample]) -> float:
    """Corpus teacher-forcing NLL divided by the number of predicted tokens, forwarded in training's packs."""
    total = 0.0
    for pack in split_packs(np.arange(len(encoded)), encoded, model.config.d_model):
        samples = [encoded[i] for i in pack]
        logits, _ = model.forward(*samples)
        total += nll(logits, [y for sample in samples for y in sample.response_ids[1:]]).item()
    return total / sum(len(sample.response_ids) - 1 for sample in encoded)
