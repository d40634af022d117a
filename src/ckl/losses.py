"""Training losses and their uncertainty-weighted aggregation.

Each latent-weight loss is an element-mean MSE against its binary pseudo
ground truth; the generation loss is the sequence-summed negative log
likelihood. The total uses homoscedastic task weighting with trainable
log-variances s_i = ln(delta_i^2), so every task weight 1/(2 delta_i^2) stays
positive by construction and the regulariser ln(delta_1..delta_4) becomes
sum(s_i) / 2.
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, Tensor, add, cross_entropy, exp, mul, scale, sub, sum_all


def mse(pred: Tensor, target, lengths=None) -> Tensor:
    """Mean over elements of the squared difference; with ``lengths``, the sum
    of the means of that many consecutive elements each, one per sample of a pack."""
    t = target if isinstance(target, Tensor) else Tensor(np.asarray(target, dtype=np.float64))
    if pred.shape != t.shape:
        raise ShapeError(f"mse: shapes {pred.shape} and {t.shape} differ")
    lengths = [pred.size] if lengths is None else list(lengths)
    if pred.size < 1 or min(lengths) < 1 or sum(lengths) != pred.size:
        raise ShapeError(f"mse of {pred.size} elements in samples of {lengths} elements")
    diff = sub(pred, t)
    per_element = np.repeat([1.0 / n for n in lengths], lengths).reshape(pred.shape)
    return sum_all(mul(mul(diff, diff), Tensor(per_element)))


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
) -> Tensor:
    """Half the sum of exp(-s_i) * L_i + s_i over the enabled tasks.

    A disabled flag drops both the weighted loss term and its s_i
    regulariser, so the corresponding s_i receives no gradient at all. The
    generation loss is always enabled.
    """
    enabled = [
        (l_clwr, params.s[0], use_loss_clwr),
        (l_clwk, params.s[1], use_loss_clwk),
        (l_klw, params.s[2], use_loss_klw),
        (l_nll, params.s[3], True),
    ]
    total = None
    for loss, s, flag in enabled:
        if flag:
            term = add(mul(exp(scale(s, -1.0)), loss), s)
            total = term if total is None else add(total, term)
    # Halved once, not per term: halving is exact in float64, so the value and
    # every gradient are bit-identical to halving each term, in fewer records.
    return scale(total, 0.5)
