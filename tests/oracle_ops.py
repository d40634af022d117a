"""Kernels the model does not call, which the loop oracle and the reference tests need.

``matmul`` and ``transpose`` build the oracle's key projections and its
``q k^T``, ``scale`` scales its scores and the reference losses, ``cols`` and
``concat_cols`` split and merge its heads one column block at a time,
``log_softmax_lastdim`` gives its softmax, and ``relu`` is the activation of
its feed-forward and of ``TestFfn``'s reference. ``sub``, ``mul`` (either of which may take a
one-element operand as a scalar), ``exp`` and ``sum_all`` are the elementwise
kernels the tests build losses and read-outs with. The reference chains are
the losses as the fused records replaced them: ``nll_chain`` is ``losses.nll``
as four records, ``mse_chain`` is ``losses.mse`` as four, and ``awl_chain`` is
``losses.awl`` as up to twenty; each fused record must equal its chain bit for
bit. They are built on the tensor core's record maker and gather, as the
model's kernels are.
"""

import numpy as np

from ckl.tensor import ShapeError, Tensor, _gather, _make, add


def _binary(kind: str, a: Tensor, b: Tensor, fwd, grads) -> Tensor:
    lone = None if a.shape == b.shape else 1 if b.data.size == 1 else 0  # a one-element operand acts as a scalar
    if lone is not None and (a, b)[lone].data.size != 1:
        raise ShapeError(f"{kind}: shapes {a.shape} and {b.shape} do not match")
    shapes = (a.shape, b.shape)
    x, y = (t.data.reshape(()) if i == lone else t.data for i, t in enumerate((a, b)))
    both = grads(x, y)  # maps g to both operands' gradients as the forward saw them, holding only what it reads
    return _make(kind, fwd(x, y), (a, b),
                 lambda g: [np.sum(gt).reshape(shapes[i]) if i == lone else gt for i, gt in enumerate(both(g))])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D operands."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul dimensions disagree: {a.shape} x {b.shape}")
    ad, bd = a.data, b.data
    return _make("matmul", ad @ bd, (a, b), lambda g: (g @ bd.T, ad.T @ g))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _make("scale", a.data * c, (a,), lambda g: (g * c,))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _binary("sub", a, b, lambda x, y: x - y, lambda x, y: lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _binary("mul", a, b, lambda x, y: x * y, lambda x, y: lambda g: (g * y, g * x))


def exp(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        y = np.exp(x.data)
    return _make("exp", y, (x,), lambda g: (g * y,))


def sum_all(x: Tensor) -> Tensor:
    return _make("sum_all", np.asarray(np.sum(x.data)), (x,),
                 lambda g: (np.broadcast_to(g, x.shape).astype(np.float64),))


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D tensor, got {a.shape}")
    return _make("transpose", np.ascontiguousarray(a.data.T), (a,), lambda g: (np.ascontiguousarray(g.T),))


def relu(x: Tensor) -> Tensor:
    mask = (x.data > 0).astype(np.float64)
    return _make("relu", x.data * mask, (x,), lambda g: (g * mask,))


def cols(x: Tensor, start: int, length: int) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"cols needs a 2-D tensor, got {x.shape}")
    if length < 1 or start < 0 or start + length > x.shape[1]:
        raise ShapeError(f"col slice [{start}:{start + length}) outside {x.shape}")
    return _gather("cols", x, (slice(None), np.arange(start, start + length)))


def concat_cols(parts: list[Tensor]) -> Tensor:
    if not parts or any(p.data.ndim != 2 or p.shape[0] != parts[0].shape[0] for p in parts):
        raise ShapeError("concat_cols needs 2-D tensors with equal row counts")
    ends = np.cumsum([p.shape[1] for p in parts[:-1]])
    return _make("concat_cols", np.concatenate([p.data for p in parts], axis=1), parts,
                 lambda g: np.split(g, ends, axis=1))


def log_softmax_lastdim(x: Tensor) -> Tensor:
    m = np.max(x.data, axis=-1, keepdims=True)
    shifted = x.data - m
    lse = np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    y = shifted - lse
    soft = np.exp(y)
    return _make("log_softmax", y, (x,), lambda g: (g - soft * np.sum(g, axis=-1, keepdims=True),))


def take_per_row(x: Tensor, ids) -> Tensor:
    """Pick one column per row: out[t] = x[t, ids[t]]."""
    idx = np.asarray(ids, dtype=np.int64)
    if x.data.ndim != 2 or idx.shape != (x.shape[0],):
        raise ShapeError(f"take_per_row needs one index per row of a 2-D tensor, got {idx.shape} for {x.shape}")
    if np.any(idx < 0) or np.any(idx >= x.shape[1]):
        raise IndexError(f"column index out of range [0, {x.shape[1]})")
    return _gather("take_per_row", x, (np.arange(x.shape[0]), idx))


def nll_chain(logits: Tensor, targets) -> Tensor:
    """The sequence-summed negative log-likelihood as log-softmax, per-row pick, sum and negation: four records."""
    return scale(sum_all(take_per_row(log_softmax_lastdim(logits), targets)), -1.0)


def mse_chain(pred: Tensor, target: Tensor, lengths=None) -> Tensor:
    """``losses.mse`` as difference, square, per-element weighting and sum: four records."""
    lengths = [pred.size] if lengths is None else list(lengths)
    diff = sub(pred, target)
    return sum_all(mul(mul(diff, diff), Tensor(np.repeat([1.0 / n for n in lengths], lengths).reshape(pred.shape))))


def awl_chain(l_clwr, l_clwk, l_klw, l_nll, params, use_loss_clwr=True, use_loss_clwk=True, use_loss_klw=True):
    """``losses.awl`` as negation, exp, product and sum per task, the tasks' sum, and halving: up to twenty records."""
    total = None
    flags = (use_loss_clwr, use_loss_clwk, use_loss_klw, True)
    for loss, s, flag in zip((l_clwr, l_clwk, l_klw, l_nll), params.s, flags):
        if flag:
            term = add(mul(exp(scale(s, -1.0)), loss), s)
            total = term if total is None else add(total, term)
    return scale(total, 0.5)
