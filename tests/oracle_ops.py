"""Kernels the model does not call, which the loop oracle and the reference tests need.

``transpose`` builds the oracle's ``q k^T``, ``cols`` and ``concat_cols`` split
and merge its heads one column block at a time, ``log_softmax_lastdim`` gives
its softmax, and ``relu`` is the activation of its feed-forward and of
``TestFfn``'s reference. ``nll_chain`` is ``losses.nll`` as four records, the
reference that the fused ``cross_entropy`` record must equal. They are built
on the tensor core's record maker and gather, as the model's kernels are.
"""

import numpy as np

from ckl.tensor import ShapeError, Tensor, _gather, _make, scale, sum_all


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
