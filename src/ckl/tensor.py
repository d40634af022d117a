"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

The graph is rebuilt on every forward pass (define-by-run): while a Tape is
active, each operation appends one record holding the op kind, the node ids of
its inputs (None for an untracked one), the output node id, and one gradient
rule, which maps the output gradient to one gradient per input, in order.
``Tape.backward`` walks the records once, in reverse, freeing each rule once
run, and adds leaf gradients to a dict that may span tapes. ``_make`` checks
each op output for NaN/Inf; training checks the global gradient norm per step.

Only the kernels the model calls are provided, on 2-D operands. Five are
fused records: ``linear``, a projection plus its bias if it has one (the
attention keys have none); ``ffn``, the ReLU feed-forward of two of them;
``add_norm``, a post-norm residual step, the layer norm of a sum;
``attention``, all of multi-head attention, which
splits and merges the heads by reshape inside, and can hide future keys or
normalise consecutive key segments separately, weighting each segment; with
``blocks`` it is block-diagonal, so a pack of several samples' rows attends
within each sample, every layout running as one batch of blocks padded to
the longest, with no loop over blocks; and ``cross_entropy``, the summed
negative log-softmax of one target per row. The one gather,
``embedding_lookup`` (rows of a matrix, elements of a vector), has a
scatter-add gradient rule. ``concat_vec`` is the one concat; its gradient
splits back.
There is no broadcasting: ``add`` takes two operands of one shape, and every
shape mismatch is a hard error so gradient rules stay simple and bugs stay
loud. The training losses build their own one-record kernels on ``_make``
(``losses.py``); the kernels only tests use live in ``tests/oracle_ops.py``.
"""

from __future__ import annotations

import functools
import itertools
import math

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
        if not np.isfinite(arr).all():
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


class Tape:
    """Ordered op records for one forward pass and one backward; single-owner, not shareable."""

    _active: "Tape | None" = None

    def __init__(self):
        # record: (op kind, input node ids or None when untracked, output node id, gradient rule or None once spent)
        self.records: list[tuple[str, tuple, int, object]] = []
        self.serial = next(_tape_serials)

    def __enter__(self) -> "Tape":
        if Tape._active is not None:
            raise RuntimeError("another tape is already active")
        Tape._active = self
        return self

    def __exit__(self, exc_type, exc, tb):
        Tape._active = None
        return False

    def backward(self, loss: Tensor, grads: dict[int, np.ndarray] | None = None) -> dict[int, np.ndarray]:
        """Add d loss / d leaf into ``grads`` (a new dict when omitted) and return it.

        Visits each record exactly once, in reverse order, dropping an op output's gradient and the
        record's rule, with the activations it holds, once the record is done: only (unchecked) leaf
        gradients remain, the kinds and ids stay readable, and a tape serves one backward.
        """
        if not isinstance(loss, Tensor) or loss.data.size != 1:
            raise ShapeError("backward requires a scalar loss tensor")
        if loss.node_id is None or loss.tape_id != self.serial:
            raise ValueError("loss was not produced on this tape")
        if self.records[-1][3] is None:  # the first record a backward visits, and frees
            raise RuntimeError("this tape is spent: its backward has run, and a tape serves one backward")
        grads = {} if grads is None else grads
        grads[loss.node_id] = np.ones_like(loss.data)
        for i in range(len(self.records) - 1, -1, -1):
            kind, in_ids, out_id, rule = self.records[i]
            self.records[i] = (kind, in_ids, out_id, None)
            g = grads.pop(out_id, None)
            if g is None:
                continue
            for nid, gi in zip(in_ids, rule(g)):
                if nid is not None:
                    prev = grads.get(nid)
                    grads[nid] = gi if prev is None else prev + gi
        return grads


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


def _make(kind: str, out_data: np.ndarray, inputs, rule) -> Tensor:
    """Wrap an op result, recording it on the active tape when any input is tracked.

    ``rule`` maps the output gradient to one gradient per tensor of ``inputs``,
    in order; those of untracked inputs are ignored.
    """
    out = _wrap(out_data)
    if not np.isfinite(out.data).all():
        raise NumericError(f"{kind} produced NaN/Inf (overflow is an error)")
    tape = Tape._active
    if tape is not None:
        in_ids = tuple(t.node_id if _tracked(t) else None for t in inputs)
        if any(nid is not None for nid in in_ids):
            out.node_id = next(_node_ids)
            out.tape_id = tape.serial
            tape.records.append((kind, in_ids, out.node_id, rule))
    return out


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    """The sum of two operands of one shape; the gradient passes to both, and the record keeps neither."""
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not match")
    return _make("add", a.data + b.data, (a, b), lambda g: (g, g))


def sigmoid(x: Tensor) -> Tensor:
    z = np.clip(x.data, -_SIGMOID_CLIP, _SIGMOID_CLIP)
    y = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
    inside = (np.abs(x.data) <= _SIGMOID_CLIP).astype(np.float64)
    return _make("sigmoid", y, (x,), lambda g: (g * y * (1.0 - y) * inside,))


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """``-Σ_t log softmax(logits[t])[targets[t]]``, the summed negative log-likelihood of one target per row.

    One record, which keeps each row shifted by its max, so no exp overflows, and one log-sum-exp per row. Its
    backward rebuilds the softmax ``exp(shifted - lse)`` from them and subtracts one at each target.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy needs T x V logits, got {logits.shape}")
    idx = np.asarray(targets, dtype=np.int64)
    n, v = logits.shape
    if idx.shape != (n,):
        raise ShapeError(f"{idx.size} targets for {n} logit rows")
    if np.any(idx < 0) or np.any(idx >= v):
        raise IndexError(f"target id outside [0, {v})")
    rows = np.arange(n)
    shifted = logits.data - np.max(logits.data, axis=-1, keepdims=True)
    lse = np.log(np.sum(np.exp(shifted), axis=-1))

    def grad(g):
        d = np.exp(shifted - lse[:, None]) * g
        d[rows, idx] -= g
        return (d,)

    return _make("cross_entropy", np.asarray(-np.sum(shifted[rows, idx] - lse)), (logits,), grad)


def add_norm(x: Tensor, y: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """The layer norm of ``x + y`` over the last axis: a residual step as one record."""
    xs, ys, gs, bs = x.data.shape, y.data.shape, gamma.data.shape, beta.data.shape
    if xs != ys or not xs:
        raise ShapeError(f"add_norm of {xs} and {ys}")
    d = xs[-1]
    if gs != (d,) or bs != (d,):
        raise ShapeError(f"add_norm affine shapes {gs}/{bs} do not match d={d}")
    # Means as sums over d: the bits of np.mean (add.reduce, then divide), at a fraction of its call cost.
    z = x.data + y.data
    zc = z - z.sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt((zc**2).sum(axis=-1, keepdims=True) / d + eps)
    zhat = zc * inv
    lead = tuple(range(z.ndim - 1))  # () for a vector, where np.sum(a, axis=()) is a itself

    def grad(g):
        gg = g * gamma.data
        t1 = gg.sum(axis=-1, keepdims=True) / d
        t2 = (gg * zhat).sum(axis=-1, keepdims=True) / d
        dz = inv * (gg - t1 - zhat * t2)  # d (x + y)
        return dz, dz, np.sum(g * zhat, axis=lead), np.sum(g, axis=lead)

    return _make("add_norm", zhat * gamma.data + beta.data, (x, y, gamma, beta), grad)


def _gather(kind: str, x: Tensor, index) -> Tensor:
    """``x.data[index]``, a copy; the gradient adds each picked entry's gradient back into its place, as a
    ``bincount`` over the picked flat positions: faster than ``np.add.at``, and equal to it bit for bit."""
    shape, size = x.data.shape, x.data.size

    def grad(g):
        return (np.bincount(np.arange(size).reshape(shape)[index].ravel(), weights=g.ravel(), minlength=size)
                .reshape(shape),)

    return _make(kind, x.data[index], (x,), grad)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """The rows ``ids`` of a table, or the elements ``ids`` of a vector."""
    if table.data.ndim not in (1, 2):
        raise ShapeError(f"embedding table must be 1-D or 2-D, got {table.shape}")
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1 or idx.size == 0:
        raise ShapeError("ids must be a non-empty 1-D sequence")
    v = table.shape[0]
    if idx.min() < 0 or idx.max() >= v:
        raise IndexError(f"embedding id out of range [0, {v})")
    return _gather("embedding_lookup", table, idx)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w``, plus the bias row ``b`` on every row when one is given, as one record."""
    xs, ws, bs = x.data.shape, w.data.shape, None if b is None else b.data.shape
    if len(xs) != 2 or len(ws) != 2 or xs[1] != ws[0] or bs not in (None, ws[1:]):
        raise ShapeError(f"linear: {xs} x {ws} + {bs}")
    xd, wd = x.data, w.data
    if b is None:
        return _make("linear", xd @ wd, (x, w), lambda g: (g @ wd.T, xd.T @ g))
    return _make("linear", xd @ wd + b.data, (x, w, b), lambda g: (g @ wd.T, xd.T @ g, g.sum(axis=0)))


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """The feed-forward ``relu(x @ w1 + b1) @ w2 + b2`` as one record, which keeps ``x`` but not the hidden layer."""
    xs, w1s, b1s, w2s, b2s = x.data.shape, w1.data.shape, b1.data.shape, w2.data.shape, b2.data.shape
    if (len(xs) != 2 or len(w1s) != 2 or len(w2s) != 2 or xs[1] != w1s[0] or w2s[0] != w1s[1]
            or b1s != w1s[1:] or b2s != w2s[1:]):
        raise ShapeError(f"ffn: {xs} x {w1s} + {b1s}, then x {w2s} + {b2s}")
    xd, w1d, b1d, w2d = x.data, w1.data, b1.data, w2.data

    def hidden():  # relu(x @ w1 + b1) and its mask, recomputed bit for bit by the backward
        pre = xd @ w1d + b1d
        mask = pre > 0
        return pre * mask, mask

    def grad(g):
        h, mask = hidden()
        d_pre = (g @ w2d.T) * mask
        return d_pre @ w1d.T, xd.T @ d_pre, d_pre.sum(axis=0), h.T @ g, g.sum(axis=0)

    return _make("ffn", hidden()[0] @ w2d + b2.data, (x, w1, b1, w2, b2), grad)


def concat_vec(parts: list[Tensor]) -> Tensor:
    """Flatten each tensor and concatenate into one vector; the gradient splits back."""
    if not parts:
        raise ShapeError("concat_vec of an empty list")
    ends, shapes = np.cumsum([p.data.size for p in parts[:-1]]), [p.shape for p in parts]
    return _make("concat_vec", np.concatenate([p.data for p in parts], axis=None), parts,
                 lambda g: [piece.reshape(shape) for piece, shape in zip(np.split(g, ends), shapes)])


def _starts(lengths, total: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """``lengths`` as an array, and the first row of each of its consecutive runs, which must cover ``total`` rows."""
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.ndim != 1 or lengths.size == 0 or np.any(lengths < 1) or lengths.sum() != total:
        raise ShapeError(f"{what} lengths {lengths} must be positive ints summing to {total}")
    return lengths, np.cumsum(lengths) - lengths


@functools.lru_cache(maxsize=256)
def _layout(n: int, r: int, causal: bool, blocks, segments) -> tuple:
    """The padded batch's shape (blocks, longest query block, longest key block); each query and key row's slot,
    or None when no block is short; an additive 0/-inf mask over (block, key slot, query slot), one query slot wide
    unless causal, or None; and each segment's first slot and each slot's segment on the flattened (block, key slot)
    axis, a block's padding joining its last segment. Read-only, as a decode reuses its layouts every step."""
    if causal and segments is not None:
        raise ShapeError(f"causal attention cannot take segments {segments}")
    q_lengths, k_lengths = blocks or ((n,), (r,))
    (q_lengths, q0), (k_lengths, k0) = _starts(q_lengths, n, "query block"), _starts(k_lengths, r, "key block")
    starts = k0 if segments is None else _starts(segments, r, "segment")[1]  # an unsegmented block is one segment
    if q0.size != k0.size or not np.isin(k0, starts).all():
        raise ShapeError(f"blocks {blocks} do not pair up, or segments {segments} straddle them")
    if causal and np.any(k_lengths < q_lengths):
        raise ShapeError(f"causal attention of query blocks {q_lengths} to fewer keys, {k_lengths}")
    b, lq, lk = q0.size, q_lengths.max(), k_lengths.max()
    q_slot, k_slot = (None if np.all(lengths == m) else np.arange(total) + np.repeat(np.arange(b) * m - x0, lengths)
                      for lengths, m, x0, total in ((q_lengths, lq, q0, n), (k_lengths, lk, k0, r)))
    j, i, kl, ql = np.arange(lk)[:, None], np.arange(lq), k_lengths[:, None, None], q_lengths[:, None, None]
    hidden = (j >= kl) | (j > kl - ql + i) if causal else j >= kl  # a padded query row (i >= ql) hides only padded keys
    mask = np.where(hidden, -np.inf, 0.0) if hidden.any() else None
    flat = starts if k_slot is None else k_slot[starts]
    layout = (b, lq, lk), q_slot, k_slot, mask, flat, np.repeat(np.arange(flat.size), np.diff([*flat, b * lk]))
    for x in layout:
        if isinstance(x, np.ndarray):
            x.flags.writeable = False
    return layout


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int = 1, causal: bool = False, segments=None,
              blocks=None) -> Tensor:
    """Multi-head scaled dot-product attention of the rows of ``q`` to the rows of ``k``/``v``.

    Head h reads columns ``[h * dh, (h + 1) * dh)`` of each operand and writes
    the same columns of the output; its scores are ``q_h k_h^T / sqrt(dh)``.
    ``causal`` hides from query row i every key after row ``len(k) - len(q) + i``,
    so new query rows may follow cached keys; it takes no ``segments``, as it
    could hide a whole segment from a row. ``segments=(lengths, w)`` splits
    the keys into consecutive segments of ``lengths`` rows. Each segment is
    normalised on its own, after subtracting its own max (a huge score in one
    segment cannot underflow another), and then multiplied by its weight
    ``w[s]``, from a vector of shape ``(S,)``. Nothing is normalised across
    segments, so a zero weight removes its segment exactly.
    ``blocks=(q_lengths, k_lengths)`` splits the query and the key rows into as
    many consecutive blocks, each holding whole segments: query block b attends
    to key block b alone, with ``causal`` applied within it.
    Every call runs as one batch of shape (blocks, heads, longest query block,
    longest key block), each block padded with zero rows that a mask hides
    from its real rows, so no score between two blocks is computed. One
    record; gradients flow to ``q``, ``k``, ``v`` and ``w``.
    """
    qs, ks, vs = q.data.shape, k.data.shape, v.data.shape
    if len(qs) != 2 or len(ks) != 2 or len(vs) != 2 or qs[1] != ks[1] or vs[0] != ks[0]:
        raise ShapeError(f"attention of q {qs} to k {ks} and v {vs}")
    if n_heads < 1 or qs[1] % n_heads or vs[1] % n_heads:
        raise ShapeError(f"cannot split q {qs} and v {vs} into {n_heads} heads")
    key = (qs[0], ks[0], bool(causal), blocks and tuple(map(tuple, blocks)), segments and tuple(segments[0]))
    try:
        (b, lq, lk), q_slot, k_slot, mask, starts, seg = _layout(*key)
    except TypeError:  # unhashable, e.g. nested: checked uncached, which raises
        (b, lq, lk), q_slot, k_slot, mask, starts, seg = _layout.__wrapped__(*key)
    w = segments and segments[1]
    if w is not None and w.data.shape != starts.shape:
        raise ShapeError(f"{starts.size} segments but weights of shape {w.data.shape}")

    def split(x, slot, rows):  # (rows of every block, h * dh) -> (h, blocks, rows, dh), short blocks zero-padded
        if slot is not None:
            x, unpadded = np.zeros((b * rows, x.shape[1])), x
            x[slot] = unpadded
        return np.ascontiguousarray(x.reshape(b, rows, n_heads, -1).transpose(2, 0, 1, 3))

    def merge(x, slot):  # (h, blocks, rows, dh) -> (rows of every block, h * dh), the padding dropped
        x = x.transpose(1, 2, 0, 3).reshape(b * x.shape[2], -1)
        return x if slot is None else x[slot]

    def per_segment(reduce, x, out=None):  # each segment's reduction, on its slots; "clip" writes out unbuffered
        return np.take(reduce.reduceat(x, starts, axis=1), seg, axis=1, out=out, mode="clip")

    qh, kh, vh = split(q.data, q_slot, lq), split(k.data, k_slot, lk), split(v.data, k_slot, lk)
    c = 1.0 / math.sqrt(qh.shape[-1])
    s = kh @ np.ascontiguousarray((qh * c).transpose(0, 1, 3, 2))  # (h, blocks, key slot, query slot)
    if mask is not None:
        s += mask
    p = s.reshape(n_heads, b * lk, lq)  # in place from here: each score array is large
    p -= per_segment(np.maximum, p)
    np.exp(p, out=p)
    p /= per_segment(np.add, p)
    wd = 1.0 if w is None else w.data[seg][:, None]
    a = (p if w is None else p * wd).reshape(n_heads, b, lk, lq)
    inputs = (q, k, v) if w is None else (q, k, v, w)
    need_w = w is not None and _tracked(w)

    def grad(g):  # d q, d k, d v and d w; g is zero on padded query rows, and p on padded keys
        gh = split(g, q_slot, lq)
        da = (vh @ gh.transpose(0, 1, 3, 2)).reshape(p.shape)
        gw = np.add.reduceat(da * p, starts, axis=1).sum(axis=(0, 2)) if need_w else None
        da *= wd  # d p, then d s, in place
        dp_p = da * p
        da -= per_segment(np.add, dp_p, dp_p)
        da *= p
        da *= c
        ds = da.reshape(a.shape)
        return merge(ds.transpose(0, 1, 3, 2) @ kh, q_slot), merge(ds @ qh, k_slot), merge(a @ gh, k_slot), gw

    return _make("attention", merge(a.transpose(0, 1, 3, 2) @ vh, q_slot), inputs, grad)

