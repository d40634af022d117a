"""Training losses and their uncertainty-weighted aggregation, each one tape record.

Each latent-weight loss is an element-mean MSE against its binary pseudo
ground truth; the generation loss is the sequence-summed negative log
likelihood. The total uses homoscedastic task weighting with trainable
log-variances s_i = ln(delta_i^2), so every task weight 1/(2 delta_i^2) stays
positive by construction and the regulariser ln(delta_1..delta_4) becomes
sum(s_i) / 2; ``awl`` totals a pack of samples from their summed losses.
``mse`` and ``awl`` compute their values and gradients with the arithmetic of
the elementwise chains they replace, so their bits are those of the chains
(``tests/oracle_ops.py`` keeps them as the reference).
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, Tensor, _make, cross_entropy


def mse(pred: Tensor, target, lengths=None) -> Tensor:
    """Mean over elements of the squared difference; with ``lengths``, the sum
    of the means of that many consecutive elements each, one per sample of a pack."""
    t = target if isinstance(target, Tensor) else Tensor(np.asarray(target, dtype=np.float64))
    if pred.shape != t.shape:
        raise ShapeError(f"mse: shapes {pred.shape} and {t.shape} differ")
    lengths = [pred.size] if lengths is None else list(lengths)
    if pred.size < 1 or min(lengths) < 1 or sum(lengths) != pred.size:
        raise ShapeError(f"mse of {pred.size} elements in samples of {lengths} elements")
    diff = pred.data - t.data
    w = np.repeat([1.0 / n for n in lengths], lengths).reshape(pred.shape)

    def grad(g):  # the two equal terms of d (diff * diff), summed; the target gets their negation
        d = (g * w) * diff
        d = d + d
        return d, -d

    return _make("mse", np.asarray(np.sum(diff * diff * w)), (pred, t), grad)


def nll(logits: Tensor, targets: list[int]) -> Tensor:
    """Sequence-summed negative log likelihood of ``targets`` under T x V ``logits``, as one ``cross_entropy`` record."""
    return cross_entropy(logits, targets)


class AwlParams:
    """Trainable log-variances, one per task, initialised to zero."""

    def __init__(self):
        self.s = [Tensor(np.zeros(()), requires_grad=True) for _ in range(4)]

    def named(self) -> dict[str, Tensor]:
        return {f"awl.s{i + 1}": s for i, s in enumerate(self.s)}

    def values(self) -> list[float]:
        return [s.item() for s in self.s]


def awl(
    l_clwr: Tensor,
    l_clwk: Tensor,
    l_klw: Tensor,
    l_nll: Tensor,
    params: AwlParams,
    use_loss_clwr: bool = True,
    use_loss_clwk: bool = True,
    use_loss_klw: bool = True,
    n: int = 1,
) -> Tensor:
    """The total of a pack of ``n`` samples from its summed losses L_i: ``n`` times half the sum of
    exp(-s_i) * (L_i * (1 / n)) + s_i over the enabled tasks, added in task order.

    That is the sum of the samples' totals, each weighing the pack's mean losses; a lone sample (``n=1``)
    weighs its own. A disabled flag drops both the weighted loss term and its s_i regulariser: neither is
    an input, so the corresponding s_i receives no gradient at all. The generation loss is always enabled.
    Each s_i is an input twice, for its regulariser and for its weight, so a leaf gradient summed over
    packs takes its two terms in the order the elementwise chain added them.
    """
    tasks = [(loss, s) for loss, s, flag in zip((l_clwr, l_clwk, l_klw, l_nll), params.s,
                                                 (use_loss_clwr, use_loss_clwk, use_loss_klw, True)) if flag]
    n, inv = float(n), 1.0 / n
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing weight makes the total non-finite
        parts = [(loss.data * inv, np.exp(s.data * -1.0), s.data) for loss, s in tasks]
        terms = [e * mean + s for mean, e, s in parts]
        total = sum(terms[1:], terms[0])

    def grad(g):  # per task: d L, then d s from its regulariser, then from its weight exp(-s)
        h = (g * n) * 0.5
        return [d for mean, e, _s in parts for d in ((h * e) * inv, h, -((h * mean) * e))]

    return _make("awl", np.asarray((total * 0.5) * n), [x for loss, s in tasks for x in (loss, s, s)], grad)
