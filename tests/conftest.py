import numpy as np
import pytest

from ckl.model import SegmentedEncoding
from ckl.tensor import Tape, Tensor


def finite_difference(f, arrays, h=1e-5):
    """Central-difference gradients of scalar f w.r.t. each input array."""
    grads = []
    for k, base in enumerate(arrays):
        g = np.zeros_like(base, dtype=np.float64)
        flat = base.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = f(*arrays)
            flat[i] = orig - h
            lo = f(*arrays)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * h)
        grads.append(g)
    return grads


def check_gradients(build_loss, arrays, rtol=1e-4, h=1e-5):
    """Compare tape gradients against central differences.

    ``build_loss`` maps a list of leaf Tensors to a scalar loss Tensor.
    Relative error uses max(1, |fd|, |ad|) as the denominator so near-zero
    gradients are judged on an absolute scale.
    """
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    with Tape() as tape:
        loss = build_loss(*leaves)
        grads = tape.backward(loss)

    def scalar_f(*arrs):
        consts = [Tensor(a) for a in arrs]
        return build_loss(*consts).item()

    fd = finite_difference(scalar_f, [a.copy() for a in arrays], h=h)
    for leaf, expected in zip(leaves, fd):
        got = grads[leaf.node_id]
        assert got.shape == leaf.shape, f"gradient of shape {got.shape} for a leaf of shape {leaf.shape}"
        denom = np.maximum(1.0, np.maximum(np.abs(expected), np.abs(got)))
        rel = np.max(np.abs(got - expected) / denom)
        assert rel < rtol, f"gradient mismatch: rel err {rel:.3e}"


def encoding_from_views(views, m):
    """An encoding whose memory stacks the constant ``views``; the first ``m`` are context."""
    lengths = [v.shape[0] for v in views]
    return SegmentedEncoding(Tensor(np.concatenate([v.data for v in views])), lengths, ((m, len(views) - m),))


@pytest.fixture
def gradcheck():
    return check_gradients
