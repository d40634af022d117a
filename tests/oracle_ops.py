"""Kernels the model does not call, which the loop oracle and the reference tests need.

``transpose`` builds the oracle's ``q k^T``, ``cols`` and ``concat_cols`` split
and merge its heads one column block at a time, and ``relu`` is the activation
of its feed-forward and of ``TestFfn``'s reference. They are built on the
tensor core's record maker, gather and concat, as the model's kernels are.
"""

import numpy as np

from ckl.tensor import ShapeError, Tensor, _concat, _gather, _make


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
    return _concat("concat_cols", parts, 1)
