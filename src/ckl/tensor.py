"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

The graph is rebuilt on every forward pass (define-by-run): while a Tape is
active, each operation appends one record holding the op kind, the node ids of
its tracked inputs, the output node id, and one gradient rule per tracked input.
``Tape.backward`` walks the records once, in reverse. ``_make`` checks each op
output for NaN/Inf; gradients come back unchecked, and training checks their
global norm once per optimizer step.

Only the kernels a small transformer needs are provided. Attention keeps heads
and key segments as array axes: ``matmul`` and ``transpose`` also take 3-D
stacks of matrices, and ``segment_softmax`` normalises consecutive column
blocks separately. There is no broadcasting beyond scalar-vs-tensor; every
other shape mismatch is a hard error so gradient rules stay simple and bugs
stay loud.
"""

from __future__ import annotations

import itertools

import numpy as np


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class NumericError(ArithmeticError):
    """A forward op produced NaN/Inf from finite inputs (overflow is an error)."""


_node_ids = itertools.count()
_tape_serials = itertools.count(1)

# Sigmoid pre-activations are clipped here so outputs stay strictly inside
# (0, 1) in float64: sigmoid(36) < 1 and sigmoid(-36) > 0 exactly.
_SIGMOID_CLIP = 36.0


class Tensor:
    """A dense float64 array plus gradient bookkeeping.

    ``requires_grad`` marks trainable leaves. ``node_id`` identifies the
    tensor on a tape; it is None for plain constants. ``tape_id`` ties an op
    output to the tape that recorded it, so stale results from a finished
    tape are treated as constants by later tapes.
    """

    __slots__ = ("data", "requires_grad", "node_id", "tape_id")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if any(d == 0 for d in arr.shape):
            raise ShapeError(f"zero-sized dimension in shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NumericError("tensor data contains NaN or Inf")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.node_id = next(_node_ids) if requires_grad else None
        self.tape_id = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def tolist(self):
        return self.data.tolist()

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # Operator sugar; floats become constant tensors.
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


class Tape:
    """Ordered op records for one forward pass; single-owner, not shareable."""

    _active: "Tape | None" = None

    def __init__(self):
        # record: (op kind, input node ids, output node id, gradient rules)
        self.records: list[tuple[str, tuple, int, tuple]] = []
        self.serial = next(_tape_serials)

    def __enter__(self) -> "Tape":
        if Tape._active is not None:
            raise RuntimeError("another tape is already active")
        Tape._active = self
        return self

    def __exit__(self, exc_type, exc, tb):
        Tape._active = None
        return False

    def backward(self, loss: Tensor) -> dict[int, Tensor]:
        """Accumulate gradients of a scalar loss w.r.t. every tracked node.

        Visits each record exactly once, in reverse order, applying its rules,
        and returns a map from node id to (unchecked) gradient tensor.
        """
        if not isinstance(loss, Tensor) or loss.data.size != 1:
            raise ShapeError("backward requires a scalar loss tensor")
        if loss.node_id is None or loss.tape_id != self.serial:
            raise ValueError("loss was not produced on this tape")
        grads: dict[int, np.ndarray] = {loss.node_id: np.ones_like(loss.data)}
        for _kind, in_ids, out_id, rules in reversed(self.records):
            g = grads.get(out_id)
            if g is None:
                continue
            for nid, rule in zip(in_ids, rules):
                prev = grads.get(nid)
                grads[nid] = rule(g) if prev is None else prev + rule(g)
        return {nid: _wrap(arr) for nid, arr in grads.items()}


def _tracked(t: Tensor) -> bool:
    if t.requires_grad:
        return True
    tape = Tape._active
    return tape is not None and t.tape_id == tape.serial


def _wrap(data) -> Tensor:
    """A constant float64 Tensor, built without ``Tensor``'s checks."""
    out = Tensor.__new__(Tensor)
    out.data = np.asarray(data, dtype=np.float64)
    out.requires_grad = False
    out.node_id = None
    out.tape_id = None
    return out


def _make(kind: str, out_data: np.ndarray, inputs) -> Tensor:
    """Wrap an op result, recording it on the active tape when needed.

    ``inputs`` pairs each input tensor with its gradient rule, a function
    mapping the output gradient to that input's gradient.
    """
    out = _wrap(out_data)
    if not np.all(np.isfinite(out.data)):
        raise NumericError(f"{kind} produced NaN/Inf (overflow is an error)")
    tape = Tape._active
    if tape is not None:
        live = [(t.node_id, rule) for t, rule in inputs if _tracked(t)]
        if live:
            out.node_id = next(_node_ids)
            out.tape_id = tape.serial
            in_ids, rules = zip(*live)
            tape.records.append((kind, in_ids, out.node_id, rules))
    return out


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def _swap_last(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D operands, or of two 3-D stacks of matrices
    that share their leading (batch) axis."""
    nd = a.data.ndim
    if nd not in (2, 3) or b.data.ndim != nd:
        raise ShapeError(f"matmul needs two 2-D or two 3-D operands, got {a.shape} and {b.shape}")
    if a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul dimensions disagree: {a.shape} x {b.shape}")
    ad, bd = a.data, b.data
    return _make(
        "matmul",
        ad @ bd,
        [(a, lambda g: g @ _swap_last(bd)), (b, lambda g: _swap_last(ad) @ g)],
    )


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes of a 2-D or 3-D tensor."""
    if a.data.ndim not in (2, 3):
        raise ShapeError(f"transpose needs a 2-D or 3-D tensor, got {a.shape}")
    return _make(
        "transpose",
        np.ascontiguousarray(_swap_last(a.data)),
        [(a, lambda g: np.ascontiguousarray(_swap_last(g)))],
    )


def split_heads(x: Tensor, n_heads: int) -> Tensor:
    """(n, d) -> (n_heads, n, d / n_heads): head h holds columns [h*dh, (h+1)*dh)."""
    if x.data.ndim != 2 or n_heads < 1 or x.shape[1] % n_heads:
        raise ShapeError(f"cannot split {x.shape} into {n_heads} heads")
    n, d = x.shape
    out = np.ascontiguousarray(x.data.reshape(n, n_heads, d // n_heads).transpose(1, 0, 2))
    return _make("split_heads", out, [(x, lambda g: g.transpose(1, 0, 2).reshape(n, d))])


def merge_heads(x: Tensor) -> Tensor:
    """(h, n, dh) -> (n, h * dh), the inverse of ``split_heads``."""
    if x.data.ndim != 3:
        raise ShapeError(f"merge_heads needs a 3-D tensor, got {x.shape}")
    h, n, dh = x.shape
    out = x.data.transpose(1, 0, 2).reshape(n, h * dh)
    return _make(
        "merge_heads",
        out,
        [(x, lambda g: np.ascontiguousarray(g.reshape(n, h, dh).transpose(1, 0, 2)))],
    )


def _binary(kind: str, a: Tensor, b: Tensor, fwd, grad_a, grad_b) -> Tensor:
    if a.shape == b.shape:
        return _make(kind, fwd(a.data, b.data), [(a, grad_a), (b, grad_b)])
    if b.data.size == 1:
        gb = lambda g: np.sum(grad_b(g)).reshape(b.shape)  # noqa: E731
        return _make(kind, fwd(a.data, b.data.reshape(())), [(a, grad_a), (b, gb)])
    if a.data.size == 1:
        ga = lambda g: np.sum(grad_a(g)).reshape(a.shape)  # noqa: E731
        return _make(kind, fwd(a.data.reshape(()), b.data), [(a, ga), (b, grad_b)])
    raise ShapeError(f"{kind}: shapes {a.shape} and {b.shape} do not match")


def add(a: Tensor, b: Tensor) -> Tensor:
    return _binary("add", a, b, lambda x, y: x + y, lambda g: g, lambda g: g)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _binary("sub", a, b, lambda x, y: x - y, lambda g: g, lambda g: -g)


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    return _binary("mul", a, b, lambda x, y: x * y, lambda g: g * bd, lambda g: g * ad)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _make("scale", a.data * c, [(a, lambda g: g * c)])


def sigmoid(x: Tensor) -> Tensor:
    z = np.clip(x.data, -_SIGMOID_CLIP, _SIGMOID_CLIP)
    y = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
    inside = (np.abs(x.data) <= _SIGMOID_CLIP).astype(np.float64)
    return _make("sigmoid", y, [(x, lambda g: g * y * (1.0 - y) * inside)])


def exp(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        y = np.exp(x.data)
    return _make("exp", y, [(x, lambda g: g * y)])


def relu(x: Tensor) -> Tensor:
    mask = (x.data > 0).astype(np.float64)
    return _make("relu", x.data * mask, [(x, lambda g: g * mask)])


def softmax_lastdim(x: Tensor) -> Tensor:
    if x.data.ndim < 1:
        raise ShapeError("softmax needs at least one dimension")
    m = np.max(x.data, axis=-1, keepdims=True)
    e = np.exp(x.data - m)
    y = e / np.sum(e, axis=-1, keepdims=True)

    def grad(g):
        dot = np.sum(g * y, axis=-1, keepdims=True)
        return y * (g - dot)

    return _make("softmax", y, [(x, grad)])


def log_softmax_lastdim(x: Tensor) -> Tensor:
    if x.data.ndim < 1:
        raise ShapeError("log_softmax needs at least one dimension")
    m = np.max(x.data, axis=-1, keepdims=True)
    shifted = x.data - m
    lse = np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    y = shifted - lse
    soft = np.exp(y)

    def grad(g):
        return g - soft * np.sum(g, axis=-1, keepdims=True)

    return _make("log_softmax", y, [(x, grad)])


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    if x.data.ndim < 1 or x.shape[-1] < 1:
        raise ShapeError("layer_norm needs a non-empty last dimension")
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not match d={d}"
        )
    mu = np.mean(x.data, axis=-1, keepdims=True)
    var = np.mean((x.data - mu) ** 2, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    y = xhat * gamma.data + beta.data
    lead = tuple(range(x.data.ndim - 1))

    def grad_x(g):
        gg = g * gamma.data
        t1 = np.mean(gg, axis=-1, keepdims=True)
        t2 = np.mean(gg * xhat, axis=-1, keepdims=True)
        return inv * (gg - t1 - xhat * t2)

    return _make(
        "layer_norm",
        y,
        [
            (x, grad_x),
            (gamma, lambda g: np.sum(g * xhat, axis=lead) if lead else g * xhat),
            (beta, lambda g: np.sum(g, axis=lead) if lead else g),
        ],
    )


def embedding_lookup(table: Tensor, ids) -> Tensor:
    if table.data.ndim != 2:
        raise ShapeError(f"embedding table must be 2-D, got {table.shape}")
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1 or idx.size == 0:
        raise ShapeError("ids must be a non-empty 1-D sequence")
    v = table.shape[0]
    if np.any(idx < 0) or np.any(idx >= v):
        raise IndexError(f"embedding id out of range [0, {v})")

    def grad(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return gt

    return _make("embedding_lookup", table.data[idx], [(table, grad)])


def add_row(x: Tensor, b: Tensor) -> Tensor:
    """Add a length-d vector to every row of an n-by-d matrix."""
    if x.data.ndim != 2 or b.shape != (x.shape[1],):
        raise ShapeError(f"add_row: {x.shape} with row {b.shape}")
    return _make(
        "add_row", x.data + b.data, [(x, lambda g: g), (b, lambda g: g.sum(axis=0))]
    )


def rows(x: Tensor, start: int, length: int) -> Tensor:
    """Contiguous row slice of a matrix; gradients scatter back into place."""
    if x.data.ndim != 2:
        raise ShapeError(f"rows needs a 2-D tensor, got {x.shape}")
    if length < 1 or start < 0 or start + length > x.shape[0]:
        raise ShapeError(f"row slice [{start}:{start + length}) outside {x.shape}")

    def grad(g):
        gx = np.zeros_like(x.data)
        gx[start : start + length] = g
        return gx

    return _make("rows", x.data[start : start + length].copy(), [(x, grad)])


def cols(x: Tensor, start: int, length: int) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"cols needs a 2-D tensor, got {x.shape}")
    if length < 1 or start < 0 or start + length > x.shape[1]:
        raise ShapeError(f"col slice [{start}:{start + length}) outside {x.shape}")

    def grad(g):
        gx = np.zeros_like(x.data)
        gx[:, start : start + length] = g
        return gx

    return _make("cols", x.data[:, start : start + length].copy(), [(x, grad)])


def concat_cols(parts: list[Tensor]) -> Tensor:
    if not parts:
        raise ShapeError("concat_cols of an empty list")
    n = parts[0].shape[0]
    if any(p.data.ndim != 2 or p.shape[0] != n for p in parts):
        raise ShapeError("concat_cols needs 2-D tensors with equal row counts")
    offsets = np.cumsum([0] + [p.shape[1] for p in parts])
    inputs = [
        (p, lambda g, s=offsets[i], e=offsets[i + 1]: g[:, s:e].copy())
        for i, p in enumerate(parts)
    ]
    return _make("concat_cols", np.hstack([p.data for p in parts]), inputs)


def concat_rows(parts: list[Tensor]) -> Tensor:
    """Stack 2-D tensors with equal column counts on top of each other."""
    if not parts:
        raise ShapeError("concat_rows of an empty list")
    d = parts[0].shape[-1]
    if any(p.data.ndim != 2 or p.shape[1] != d for p in parts):
        raise ShapeError("concat_rows needs 2-D tensors with equal column counts")
    offsets = np.cumsum([0] + [p.shape[0] for p in parts])
    inputs = [
        (p, lambda g, s=offsets[i], e=offsets[i + 1]: g[s:e])
        for i, p in enumerate(parts)
    ]
    return _make("concat_rows", np.vstack([p.data for p in parts]), inputs)


def concat_vec(parts: list[Tensor]) -> Tensor:
    """Flatten each tensor and concatenate into one vector."""
    if not parts:
        raise ShapeError("concat_vec of an empty list")
    offsets = np.cumsum([0] + [p.data.size for p in parts])
    inputs = [
        (
            p,
            lambda g, s=offsets[i], e=offsets[i + 1], shp=p.shape: g[s:e].reshape(shp),
        )
        for i, p in enumerate(parts)
    ]
    return _make("concat_vec", np.concatenate([p.data.ravel() for p in parts]), inputs)


def segment_softmax(scores: Tensor, lengths, w: Tensor) -> Tensor:
    """Softmax within each contiguous segment of the last axis, times its weight.

    The last axis of ``scores`` is split into consecutive segments of
    ``lengths[s]`` columns. Each segment is normalised on its own, after
    subtracting its own max (a huge score in one segment cannot underflow
    another), and then multiplied by ``w[s]``. Nothing is normalised across
    segments, so ``w[s] = 0`` zeroes segment s exactly. Gradients flow to
    both ``scores`` and ``w``.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.ndim != 1 or lengths.size == 0 or np.any(lengths < 1):
        raise ShapeError(f"segment lengths must be a non-empty list of positive ints, got {lengths}")
    if scores.shape[-1] != lengths.sum():
        raise ShapeError(f"segments of total length {lengths.sum()} for scores {scores.shape}")
    if w.shape != lengths.shape:
        raise ShapeError(f"{lengths.size} segments but weights of shape {w.shape}")
    starts = np.cumsum(lengths) - lengths
    seg = np.repeat(np.arange(lengths.size), lengths)
    x = scores.data
    e = np.exp(x - np.maximum.reduceat(x, starts, axis=-1)[..., seg])
    y = e / np.add.reduceat(e, starts, axis=-1)[..., seg]
    wd = w.data[seg]

    def grad_scores(g):
        gy = g * wd
        return y * (gy - np.add.reduceat(gy * y, starts, axis=-1)[..., seg])

    def grad_w(g):
        per_seg = np.add.reduceat(g * y, starts, axis=-1)
        return per_seg.reshape(-1, lengths.size).sum(axis=0)

    return _make("segment_softmax", y * wd, [(scores, grad_scores), (w, grad_w)])


def take_per_row(x: Tensor, ids) -> Tensor:
    """Pick one column per row: out[t] = x[t, ids[t]]."""
    if x.data.ndim != 2:
        raise ShapeError(f"take_per_row needs a 2-D tensor, got {x.shape}")
    idx = np.asarray(ids, dtype=np.int64)
    n, v = x.shape
    if idx.shape != (n,):
        raise ShapeError(f"need exactly one index per row, got {idx.shape} for {n} rows")
    if np.any(idx < 0) or np.any(idx >= v):
        raise IndexError(f"column index out of range [0, {v})")
    r = np.arange(n)

    def grad(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, (r, idx), g)
        return gx

    return _make("take_per_row", x.data[r, idx], [(x, grad)])


def sum_all(x: Tensor) -> Tensor:
    return _make(
        "sum_all",
        np.asarray(np.sum(x.data)),
        [(x, lambda g: np.broadcast_to(g, x.shape).astype(np.float64))],
    )


def element(v: Tensor, i: int) -> Tensor:
    """Scalar view into a vector; gradient scatters into position i."""
    if v.data.ndim != 1:
        raise ShapeError(f"element needs a 1-D tensor, got {v.shape}")
    if i < 0 or i >= v.shape[0]:
        raise IndexError(f"index {i} outside vector of length {v.shape[0]}")

    def grad(g):
        gv = np.zeros_like(v.data)
        gv[i] = g
        return gv

    return _make("element", np.asarray(v.data[i]), [(v, grad)])
