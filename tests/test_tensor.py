import ast
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

from ckl import tensor
from ckl.tensor import (
    NumericError,
    ShapeError,
    Tape,
    Tensor,
    add,
    add_norm,
    attention,
    concat_vec,
    cross_entropy,
    embedding_lookup,
    ffn,
    linear,
    sigmoid,
)

from oracle_ops import (
    cols, concat_cols, exp, log_softmax_lastdim, matmul, mul, relu, scale, sub, sum_all, take_per_row, transpose,
)


def softmax(x):
    """The softmax over the last axis, as ``exp`` of the loop oracle's ``log_softmax_lastdim``."""
    return exp(log_softmax_lastdim(x))


def layer_norm(x, gamma, beta, eps=1e-5):
    """The layer norm over the last axis, as ``add_norm`` with a zero residual."""
    return add_norm(x, Tensor(np.zeros(x.shape)), gamma, beta, eps)


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(a, Tensor(np.eye(2)))
        assert np.array_equal(out.data, a.data)

    def test_hand_expansion(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError) as err:
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))
        assert "(2, 3)" in str(err.value) and "(2, 2)" in str(err.value)

    def test_associativity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = Tensor(rng.uniform(-2, 2, (3, 4)))
            b = Tensor(rng.uniform(-2, 2, (4, 5)))
            c = Tensor(rng.uniform(-2, 2, (5, 2)))
            left = matmul(matmul(a, b), c).data
            right = matmul(a, matmul(b, c)).data
            assert np.max(np.abs(left - right)) < 1e-9


class TestSoftmax:
    """The loop oracle's softmax through its log, ``oracle_ops.log_softmax_lastdim``."""

    def test_symmetry(self):
        out = log_softmax_lastdim(Tensor([0.0, 0.0]))
        assert np.allclose(out.data, [math.log(0.5)] * 2, atol=1e-15)

    def test_closed_form(self):
        out = log_softmax_lastdim(Tensor([math.log(2.0), 0.0]))
        assert np.allclose(out.data, [math.log(2.0 / 3.0), math.log(1.0 / 3.0)], atol=1e-15)

    def test_stability_no_overflow(self):
        out = log_softmax_lastdim(Tensor([1000.0, 0.0]))
        assert np.isfinite(out.data).all()
        assert -1e-12 < out.data[0] <= 0.0 and abs(out.data[1] + 1000.0) < 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.uniform(-50, 50, (6, 9)))
        out = log_softmax_lastdim(x)
        assert (out.data <= 0).all()
        assert np.max(np.abs(np.exp(out.data).sum(axis=-1) - 1.0)) < 1e-12

    def test_empty_last_dim_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 0)))


class TestCrossEntropy:
    """The kernel behind ``losses.nll``; ``tests/test_losses.py`` holds it to the four-record chain it replaced."""

    def test_stability_no_overflow(self):
        out = cross_entropy(Tensor([[1000.0, 0.0], [0.0, -1000.0]]), [1, 0])
        assert abs(out.item() - 1000.0) < 1e-12

    def test_one_record_and_a_gradient_of_softmax_minus_one_hot(self):
        x = Tensor([[0.5, -1.0, 2.0], [0.0, 0.0, 0.0]], requires_grad=True)
        with Tape() as tape:
            loss = cross_entropy(x, [2, 0])
            grads = tape.backward(loss)
        assert [record[0] for record in tape.records] == ["cross_entropy"]
        soft = np.exp(x.data) / np.exp(x.data).sum(axis=1, keepdims=True)
        assert np.allclose(grads[x.node_id], soft - np.eye(3)[[2, 0]], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("shape, targets, error", [
        ((3,), [0], ShapeError), ((2, 3), [0], ShapeError), ((2, 3), [[0, 1]], ShapeError),
        ((2, 3), [0, 3], IndexError), ((2, 3), [-1, 0], IndexError),
    ], ids=["vector-logits", "too-few-targets", "2-d-targets", "target-past-the-vocabulary", "negative-target"])
    def test_bad_shapes_and_targets_raise(self, shape, targets, error):
        with pytest.raises(error):
            cross_entropy(Tensor(np.zeros(shape)), targets)


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(Tensor(0.0)).item() == 0.5

    def test_closed_form(self):
        assert abs(sigmoid(Tensor(math.log(3.0))).item() - 0.75) < 1e-15

    def test_extreme_values_stay_in_open_interval(self):
        lo = sigmoid(Tensor(-1000.0)).item()
        hi = sigmoid(Tensor(1000.0)).item()
        assert 0.0 < lo < hi < 1.0


class TestLayerNorm:
    def test_constant_vector_is_zeroed(self):
        g, b = Tensor(np.ones(3)), Tensor(np.zeros(3))
        out = layer_norm(Tensor([4.0, 4.0, 4.0]), g, b)
        assert np.allclose(out.data, 0.0, atol=1e-12)

    def test_two_point_standardization(self):
        g, b = Tensor(np.ones(2)), Tensor(np.zeros(2))
        out = layer_norm(Tensor([1.0, 3.0]), g, b, eps=1e-12)
        assert np.allclose(out.data, [-1.0, 1.0], atol=1e-9)

    def test_beta_shifts_mean(self):
        g, b = Tensor(np.ones(2)), Tensor([5.0, 5.0])
        out = layer_norm(Tensor([[1.0, 3.0], [2.0, 8.0]]), g, b)
        assert np.allclose(out.data.mean(axis=-1), 5.0, atol=1e-9)


class TestAddNorm:
    """``add_norm`` of ``x`` and ``y`` is the layer norm of ``add(x, y)`` in one record."""

    def value_and_grads(self, step, arrays, shared):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        x, y, g, b = leaves
        read_out = Tensor(np.linspace(-1.5, 2.0, arrays[0].size).reshape(arrays[0].shape))
        with Tape() as tape:
            out = step(x, x if shared else y, g, b)
            grads = tape.backward(sum_all(mul(out, read_out)))
        return out.data, [grads.get(leaf.node_id) for leaf in leaves]

    @pytest.mark.parametrize("shared", [False, True], ids=["distinct", "same-tensor"])
    @pytest.mark.parametrize("shape", [(3, 5), (5,)])
    def test_equals_layer_norm_of_add_bitwise(self, shape, shared):
        rng = np.random.default_rng(30)
        d = shape[-1]
        arrays = [rng.uniform(-2, 2, shape), rng.uniform(-2, 2, shape),
                  rng.uniform(0.5, 2, d), rng.uniform(-1, 1, d)]
        fused, fused_grads = self.value_and_grads(add_norm, arrays, shared)
        split, split_grads = self.value_and_grads(
            lambda x, y, g, b: layer_norm(add(x, y), g, b), arrays, shared
        )
        assert np.array_equal(fused, split)
        for got, expected in zip(fused_grads, split_grads):
            assert (got is None and expected is None) or np.array_equal(got, expected)

    def test_equals_the_mean_formula_bitwise(self):
        rng = np.random.default_rng(31)
        arrays = [rng.uniform(-2, 2, (4, 7)), rng.uniform(-2, 2, (4, 7)), rng.uniform(0.5, 2, 7), rng.uniform(-1, 1, 7)]
        out, (gx, gy, g_gamma, g_beta) = self.value_and_grads(add_norm, arrays, shared=False)
        x, y, gamma, beta = arrays
        read_out = np.linspace(-1.5, 2.0, x.size).reshape(x.shape)  # d loss / d out, as value_and_grads reads out
        z = x + y
        mu = np.mean(z, axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(np.mean((z - mu) ** 2, axis=-1, keepdims=True) + 1e-5)
        zhat = (z - mu) * inv
        gg = read_out * gamma
        dz = inv * (gg - np.mean(gg, axis=-1, keepdims=True) - zhat * np.mean(gg * zhat, axis=-1, keepdims=True))
        assert np.array_equal(out, zhat * gamma + beta)
        assert np.array_equal(gx, dz) and np.array_equal(gy, dz)
        assert np.array_equal(g_gamma, np.sum(read_out * zhat, axis=0))
        assert np.array_equal(g_beta, np.sum(read_out, axis=0))

    def test_one_record(self):
        x, y = Tensor(np.ones((2, 3)), requires_grad=True), Tensor(np.eye(2, 3), requires_grad=True)
        with Tape() as tape:
            add_norm(x, y, Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert [r[0] for r in tape.records] == ["add_norm"]

    @pytest.mark.parametrize(
        "x, y, d",
        [((2, 3), (2, 4), 3), ((2, 3), (3, 2), 3), ((2, 3), (3,), 3), ((2, 3), (2, 3), 4), ((), (), 1)],
        ids=["columns", "transposed", "rank", "affine", "scalar"],
    )
    def test_bad_shapes_raise(self, x, y, d):
        with pytest.raises(ShapeError):
            add_norm(Tensor(np.ones(x)), Tensor(np.ones(y)), Tensor(np.ones(d)), Tensor(np.zeros(d)))


class TestFfn:
    """``ffn`` is ``linear``, ``relu``, ``linear`` in one record."""

    def value_and_grads(self, step, arrays):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        n, d_out = arrays[0].shape[0], arrays[3].shape[1]
        read_out = Tensor(np.linspace(-1.5, 2.0, n * d_out).reshape(n, d_out))
        with Tape() as tape:
            out = step(*leaves)
            grads = tape.backward(sum_all(mul(out, read_out)))
        return out.data, [grads[leaf.node_id] for leaf in leaves]

    @pytest.mark.parametrize("n", [1, 5])
    def test_equals_linear_relu_linear_bitwise(self, n):
        rng = np.random.default_rng(32)
        arrays = [rng.uniform(-2, 2, (n, 4)), rng.uniform(-1, 1, (4, 6)), rng.uniform(-1, 1, 6),
                  rng.uniform(-1, 1, (6, 3)), rng.uniform(-1, 1, 3)]
        pre = arrays[0] @ arrays[1] + arrays[2]
        assert (pre > 0).any() and (pre < 0).any()  # the relu cuts somewhere
        fused, fused_grads = self.value_and_grads(ffn, arrays)
        split, split_grads = self.value_and_grads(
            lambda x, w1, b1, w2, b2: linear(relu(linear(x, w1, b1)), w2, b2), arrays
        )
        assert fused.shape == (n, 3) and np.array_equal(fused, split)
        assert len(fused_grads) == 5
        for got, expected in zip(fused_grads, split_grads):
            assert np.array_equal(got, expected)

    def test_one_record(self):
        leaves = [Tensor(np.ones(shape), requires_grad=True) for shape in [(2, 3), (3, 4), (4,), (4, 3), (3,)]]
        with Tape() as tape:
            ffn(*leaves)
        assert [r[0] for r in tape.records] == ["ffn"]

    @pytest.mark.parametrize(
        "shapes",
        [[(3,), (3, 4), (4,), (4, 3), (3,)], [(2, 5), (3, 4), (4,), (4, 3), (3,)], [(2, 3), (3, 4), (4,), (5, 3), (3,)],
         [(2, 3), (3, 4), (3,), (4, 3), (3,)], [(2, 3), (3, 4), (4,), (4, 3), (4,)], [(2, 3), (3, 4, 1), (4,), (4, 3), (3,)]],
        ids=["rank", "input-width", "hidden-width", "bias-in", "bias-out", "weight-rank"],
    )
    def test_bad_shapes_raise(self, shapes):
        with pytest.raises(ShapeError):
            ffn(*(Tensor(np.ones(shape)) for shape in shapes))


class TestElementwise:
    def test_add_zero(self):
        x = Tensor([1.0, -2.0, 3.0])
        assert np.array_equal(add(x, Tensor(np.zeros(3))).data, x.data)

    def test_mul_hand(self):
        assert np.array_equal(mul(Tensor([1.0, 2.0]), Tensor([3.0, 4.0])).data, [3.0, 8.0])

    def test_scale_hand(self):
        assert np.array_equal(scale(Tensor([1.0, 2.0]), 0.5).data, [0.5, 1.0])

    def test_sub(self):
        assert np.array_equal(sub(Tensor([3.0, 1.0]), Tensor([1.0, 1.0])).data, [2.0, 0.0])

    def test_shape_mismatch(self):
        for shapes in ((3,), (4,)), ((3,), (1, 1)), ((1, 1), (3,)):  # not even a one-element operand broadcasts
            with pytest.raises(ShapeError, match="do not match"):
                add(*(Tensor(np.ones(shape)) for shape in shapes))

    def test_scalar_broadcast(self):
        out = mul(Tensor([[1.0, 2.0]]), Tensor(3.0))
        assert np.array_equal(out.data, [[3.0, 6.0]])


_IDS = np.random.default_rng(3).integers(0, 50, 200)  # 200 ids of a 50-row table, most of them repeated
_COLUMNS = np.random.default_rng(4).integers(0, 64, 200)


class TestEmbeddingLookup:
    def test_returns_exact_row(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = embedding_lookup(table, [1])
        assert np.array_equal(out.data, [[3.0, 4.0, 5.0]])

    def test_repeated_id_sums_gradient(self, gradcheck):
        table = np.random.default_rng(2).uniform(-2, 2, (4, 3))
        gradcheck(lambda t: sum_all(embedding_lookup(t, [1, 1, 2])), [table])

    def test_out_of_range(self):
        table = Tensor(np.zeros((4, 3)))
        with pytest.raises(IndexError):
            embedding_lookup(table, [4])

    @pytest.mark.parametrize(
        "gather, shape",
        [(lambda x: embedding_lookup(x, [2, 0]), (4, 3)), (lambda x: take_per_row(x, [0, 2, 1, 2]), (4, 3)),
         (lambda x: embedding_lookup(x, np.arange(1, 3)), (4, 3)), (lambda x: cols(x, 1, 2), (4, 3)),
         (lambda x: embedding_lookup(x, [1]), (4,))],
        ids=["embedding_lookup", "take_per_row", "rows", "cols", "element"],
    )
    def test_every_gather_copies_so_an_in_place_update_of_its_input_leaves_it(self, gather, shape):
        x = Tensor(np.arange(float(math.prod(shape))).reshape(shape), requires_grad=True)
        out = gather(x)
        before = out.data.copy()
        x.data += 100.0  # as Adam updates a parameter
        assert np.array_equal(out.data, before)

    @pytest.mark.parametrize(
        "gather, index, shape",
        [(lambda x: embedding_lookup(x, _IDS), _IDS, (50, 64)),
         (lambda x: take_per_row(x, _COLUMNS), (np.arange(200), _COLUMNS), (200, 64)),
         (lambda x: embedding_lookup(x, np.arange(30, 150)), np.arange(30, 150), (200, 64)),
         (lambda x: cols(x, 5, 40), (slice(None), np.arange(5, 45)), (200, 64)),
         (lambda x: embedding_lookup(x, [7]), [7], (50,))],
        ids=["embedding_lookup", "take_per_row", "rows", "cols", "element"],
    )
    def test_every_gather_gradient_is_np_add_at_bit_for_bit(self, gather, index, shape):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        with Tape() as tape:
            out = gather(x)
        rule = tape.records[-1][3]
        g = rng.standard_normal(out.shape)
        expected = np.zeros(shape)
        np.add.at(expected, index, g)
        got = rule(g)[0]
        assert got.dtype == np.float64 and got.shape == shape
        assert np.array_equal(got, expected) and np.array_equal(np.signbit(got), np.signbit(expected))


def _uniform(*shape, rng=np.random.default_rng(12)):
    return rng.uniform(-1.0, 1.0, shape)


# Each multi-input op and its operands, for holding one input constant at a time.
MULTI_INPUT_OPS = {
    "matmul": (matmul, [_uniform(3, 4), _uniform(4, 2)]),
    "linear": (linear, [_uniform(3, 4), _uniform(4, 2), _uniform(2)]),
    "linear-without-bias": (linear, [_uniform(3, 4), _uniform(4, 2)]),
    "ffn": (ffn, [_uniform(3, 4), _uniform(4, 5), _uniform(5), _uniform(5, 4), _uniform(4)]),
    "add_norm": (add_norm, [_uniform(3, 4), _uniform(3, 4), _uniform(4), _uniform(4)]),
    "weighted-attention": (lambda q, k, v, w: attention(q, k, v, n_heads=2, segments=([2, 3], w)),
                           [_uniform(3, 4), _uniform(5, 4), _uniform(5, 2), _uniform(2)]),
    "concat_cols": (lambda a, b: concat_cols([a, b]), [_uniform(3, 2), _uniform(3, 1)]),
    "concat_vec": (lambda a, b: concat_vec([a, b]), [_uniform(2, 3), _uniform(4)]),
    "mul-by-one-element": (mul, [_uniform(2, 3), _uniform(1)]),
    "one-element-mul": (mul, [_uniform(1, 1), _uniform(2, 3)]),
}


class TestBackward:
    @pytest.mark.parametrize("name", list(MULTI_INPUT_OPS))
    def test_an_untracked_input_gets_no_gradient_and_changes_no_other(self, name):
        op, arrays = MULTI_INPUT_OPS[name]

        def leaf_gradients(held):
            """Each input's gradient, None for the one ``held`` constant, and any other dict entries."""
            inputs = [Tensor(a, requires_grad=i != held) for i, a in enumerate(arrays)]
            with Tape() as tape:
                out = op(*inputs)
                loss = sum_all(mul(out, Tensor(np.cos(np.arange(out.size)).reshape(out.shape))))
                grads = tape.backward(loss)
            return [grads.pop(t.node_id) if t.requires_grad else None for t in inputs], grads

        every, rest = leaf_gradients(None)
        assert not rest
        for held in range(len(arrays)):
            some, rest = leaf_gradients(held)
            assert not rest, f"entries beyond the tracked leaves: {list(rest)}"
            assert some[held] is None
            for i, (a, b) in enumerate(zip(every, some)):
                assert i == held or (a.shape == b.shape and np.array_equal(a, b)), (held, i)

    def test_square_gradient(self):
        x = Tensor(3.0, requires_grad=True)
        with Tape() as tape:
            loss = mul(x, x)
            grads = tape.backward(loss)
        assert grads[x.node_id].item() == pytest.approx(6.0)

    def test_softmax_sum_has_zero_gradient(self):
        x = Tensor([0.3, -1.2, 0.7], requires_grad=True)
        with Tape() as tape:
            loss = sum_all(softmax(x))
            grads = tape.backward(loss)
        assert np.max(np.abs(grads[x.node_id])) < 1e-12

    def test_two_layer_mlp_matches_finite_differences(self, gradcheck):
        rng = np.random.default_rng(3)
        x = rng.uniform(-2, 2, (2, 4))
        w1 = rng.uniform(-2, 2, (4, 5))
        b1 = rng.uniform(-2, 2, 5)
        w2 = rng.uniform(-2, 2, (5, 3))
        b2 = rng.uniform(-2, 2, 3)

        def loss(xt, w1t, b1t, w2t, b2t):
            h = relu(linear(xt, w1t, b1t))
            out = linear(h, w2t, b2t)
            return sum_all(softmax(out))

        gradcheck(loss, [x, w1, b1, w2, b2])

    def test_returns_leaf_gradients_and_accumulates_into_a_given_dict(self):
        x = Tensor([0.5, -1.0], requires_grad=True)
        w = Tensor([[1.0, 2.0], [0.3, -0.4]], requires_grad=True)
        s = Tensor(0.7, requires_grad=True)
        const = Tensor([[0.2, 0.1]])

        def backward(grads=None):  # a tape serves one backward
            with Tape() as tape:
                h = sigmoid(linear(const, w, x))
                return tape.backward(mul(sum_all(mul(h, h)), s), grads)

        once = backward()
        twice = backward(backward())
        assert set(once) == {x.node_id, w.node_id, s.node_id}
        assert set(twice) == set(once)
        for nid, g in once.items():
            assert not isinstance(g, Tensor) and np.asarray(g).dtype == np.float64
            assert np.array_equal(twice[nid], 2 * g)

    def test_a_second_backward_on_a_spent_tape_raises(self):
        x = Tensor([0.5, -1.0], requires_grad=True)
        with Tape() as tape:
            loss = sum_all(mul(x, x))
            tape.backward(loss)
            with pytest.raises(RuntimeError, match="spent"):
                tape.backward(loss)
        assert [record[0] for record in tape.records] == ["mul", "sum_all"]

    def test_backward_frees_the_arrays_its_records_hold(self):
        x = Tensor([0.5, -1.0], requires_grad=True)
        with Tape() as tape:
            hidden = exp(x)
            held = weakref.ref(hidden.data)
            loss = sum_all(mul(hidden, hidden))
            del hidden  # now only the exp and mul rules hold its data
            assert held() is not None
            grads = tape.backward(loss)
        assert held() is None
        assert [record[0] for record in tape.records] == ["exp", "mul", "sum_all"]
        assert np.allclose(grads[x.node_id], 2 * np.exp(2 * x.data), rtol=1e-14, atol=0)

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = mul(x, x)
            with pytest.raises(ShapeError):
                tape.backward(y)

    def test_foreign_loss_rejected(self):
        x = Tensor(2.0, requires_grad=True)
        with Tape():
            loss = mul(x, x)
        with Tape() as other:
            with pytest.raises(ValueError):
                other.backward(loss)


class TestGradientSuite:
    """Operands of unequal shapes against central differences; criterion 1 gradchecks every kernel."""

    def test_scalar_broadcast_gradients(self, gradcheck):
        rng = np.random.default_rng(8)
        a = rng.uniform(-2, 2, (2, 3))
        s = rng.uniform(-2, 2, (1,))
        gradcheck(lambda x, y: sum_all(mul(x, y)), [a, s])
        gradcheck(lambda x, y: sum_all(sub(x, y)), [a, s])

    @pytest.mark.parametrize("op", [sub, mul], ids=["sub", "mul"])
    @pytest.mark.parametrize("lone_first", [False, True], ids=["vector-first", "lone-first"])
    def test_one_element_operand_of_more_dimensions_gets_its_own_shape(self, gradcheck, op, lone_first):
        """A ``(3,)`` leaf with a ``(1, 1)`` leaf, on either side: each leaf's gradient has the leaf's shape."""
        rng = np.random.default_rng(9)
        arrays = [rng.uniform(-2, 2, 3), rng.uniform(-2, 2, (1, 1))][:: -1 if lone_first else 1]
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        with Tape() as tape:
            grads = tape.backward(sum_all(op(*leaves)))
        assert [grads[leaf.node_id].shape for leaf in leaves] == [a.shape for a in arrays]
        gradcheck(lambda x, y: sum_all(op(x, y)), arrays)


def attention_weights(x, **kwargs):
    """The attention kernel's weights for the scores ``x`` (at most 16 keys), one head.

    The queries hold ``x`` and the keys are 4 times the identity, so
    ``q k^T / sqrt(16)`` equals ``x`` exactly; identity values read the
    weights out as the output rows.
    """
    n, r = x.shape
    q = np.zeros((n, 16))
    q[:, :r] = x
    return attention(Tensor(q), Tensor(4.0 * np.eye(16)[:r]), Tensor(np.eye(r)), **kwargs).data


class TestAttentionKernels:
    """Kernels that attention is built from: ``linear`` and ``attention``."""

    def test_heads_are_column_blocks(self):
        rng = np.random.default_rng(20)
        q, k, v = rng.uniform(-2, 2, (3, 6)), rng.uniform(-2, 2, (5, 6)), rng.uniform(-2, 2, (5, 9))
        out = attention(Tensor(q), Tensor(k), Tensor(v), n_heads=3).data
        assert out.shape == (3, 9)
        for h in range(3):
            scores = q[:, 2 * h : 2 * h + 2] @ k[:, 2 * h : 2 * h + 2].T / math.sqrt(2)
            expected = softmax(Tensor(scores)).data @ v[:, 3 * h : 3 * h + 3]
            assert np.allclose(out[:, 3 * h : 3 * h + 3], expected, atol=1e-14)

    def test_attention_rejects_bad_head_counts_and_operands(self):
        rng = np.random.default_rng(20)
        q, k, v = rng.uniform(-2, 2, (3, 6)), rng.uniform(-2, 2, (5, 6)), rng.uniform(-2, 2, (5, 9))
        # 6 columns do not split into 4 heads, nor 9 value columns into 2.
        for n_heads in [4, 2, 0]:
            with pytest.raises(ShapeError):
                attention(Tensor(q), Tensor(k), Tensor(v), n_heads=n_heads)
        for bad in [(q, k[:, :4], v), (q, k, v[:4]), (q[None], k, v)]:
            with pytest.raises(ShapeError):
                attention(*(Tensor(t) for t in bad))

    def test_matmul_and_transpose_are_2d_only(self):
        a, b = np.ones((2, 2, 3)), np.ones((2, 3, 2))
        with pytest.raises(ShapeError):
            matmul(Tensor(a), Tensor(b))
        with pytest.raises(ShapeError):
            transpose(Tensor(a))

    def test_causal_hides_the_keys_after_each_rows_position(self):
        rng = np.random.default_rng(26)
        q, k, v = rng.uniform(-2, 2, (3, 4)), rng.uniform(-2, 2, (5, 4)), rng.uniform(-2, 2, (5, 4))
        out = attention(Tensor(q), Tensor(k), Tensor(v), n_heads=2, causal=True).data
        for i in range(3):  # 5 keys, 3 queries: query row i sits at key position 2 + i
            seen = attention(Tensor(q[i : i + 1]), Tensor(k[: 3 + i]), Tensor(v[: 3 + i]), n_heads=2).data
            assert np.allclose(out[i], seen[0], atol=1e-14)
        square = attention_weights(rng.uniform(-2, 2, (4, 4)), causal=True)
        assert np.array_equal(square, np.tril(square)) and np.all(np.diag(square) > 0)
        with pytest.raises(ShapeError):
            attention(Tensor(k), Tensor(q), Tensor(v[:3]), causal=True)

    def test_linear_is_matmul_plus_bias_row(self):
        rng = np.random.default_rng(25)
        x, w, b = rng.uniform(-2, 2, (3, 4)), rng.uniform(-2, 2, (4, 5)), rng.uniform(-2, 2, 5)
        out = linear(Tensor(x), Tensor(w), Tensor(b)).data
        assert np.array_equal(out, x @ w + b)
        assert np.array_equal(linear(Tensor(x), Tensor(w)).data, x @ w)
        for bad in [(np.ones((3, 5)), w, b), (x, w, np.ones(4)), (x, w, np.ones((1, 5))), (np.ones(4), w, b),
                    (np.ones((3, 5)), w), (np.ones(4), w)]:
            with pytest.raises(ShapeError):
                linear(*(Tensor(t) for t in bad))

    def test_linear_without_a_bias_is_matmul_bit_for_bit(self):
        """In value and in both gradients, under a random upstream gradient, over 2000 draws of shapes and values."""
        rng = np.random.default_rng(29)
        for _ in range(2000):
            n, d, m = rng.integers(1, 7, 3)
            x, w, g = rng.normal(0, 2, (n, d)), rng.normal(0, 2, (d, m)), rng.normal(0, 2, (n, m))
            runs = []
            for op in (linear, matmul):
                xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
                with Tape() as tape:
                    out = op(xt, wt)
                    grads = tape.backward(sum_all(mul(out, Tensor(g))))
                runs.append([out.data, grads[xt.node_id], grads[wt.node_id]])
            assert [a.tobytes() for a in runs[0]] == [a.tobytes() for a in runs[1]]
        with Tape() as tape:
            linear(Tensor(x, requires_grad=True), Tensor(w))
        assert [(kind, len(in_ids)) for kind, in_ids, *_ in tape.records] == [("linear", 2)]

    def test_segment_softmax_is_weighted_per_segment_softmax(self):
        rng = np.random.default_rng(21)
        x = rng.uniform(-3, 3, (3, 6))
        w = np.array([0.5, 2.0, 0.0])
        out = attention_weights(x, segments=([2, 3, 1], Tensor(w)))
        for s, (a, b) in enumerate([(0, 2), (2, 5), (5, 6)]):
            expected = softmax(Tensor(x[:, a:b])).data * w[s]
            assert np.allclose(out[:, a:b], expected, atol=1e-15)

    def test_huge_score_leaves_other_segments_standalone(self):
        rng = np.random.default_rng(22)
        x = rng.uniform(-3, 3, (3, 7))
        x[1, 3] = 1e4
        out = attention_weights(x, segments=([2, 3, 2], Tensor(np.ones(3))))
        assert np.isfinite(out).all()
        for a, b in [(0, 2), (5, 7)]:
            standalone = softmax(Tensor(x[:, a:b])).data
            assert np.max(np.abs(out[:, a:b] - standalone)) <= 1e-15
        assert out[1, 3] == 1.0

    def test_segment_softmax_shape_errors(self):
        x = np.zeros((2, 4))
        for lengths, n_weights in [([2, 1], 2), ([2, 2], 3), ([4, 0], 2), ([], 1), ([[2, 2]], 2)]:
            with pytest.raises(ShapeError):
                attention_weights(x, segments=(lengths, Tensor(np.ones(n_weights))))
        attention_weights(x, segments=([2, 2], Tensor(np.ones(2))))  # a layout valid for 4 keys
        with pytest.raises(ShapeError):
            attention_weights(x[:, :3], segments=([2, 2], Tensor(np.ones(2))))

    def test_segment_softmax_weight_matrix_shape_errors(self):
        x = np.zeros((3, 4))
        for bad in [(2, 2), (4, 2), (3, 3), (3, 2, 1), (1, 2)]:
            with pytest.raises(ShapeError):
                attention_weights(x, segments=([3, 1], Tensor(np.ones(bad))))

    def test_gradients(self, gradcheck):
        rng = np.random.default_rng(23)
        m = rng.uniform(-2, 2, (3, 6))
        gradcheck(
            lambda x, w, b: sum_all(mul(linear(x, w, b), linear(x, w, b))),
            [m, rng.uniform(-2, 2, (6, 4)), rng.uniform(-2, 2, 4)],
        )
        read_out = Tensor(rng.uniform(-2, 2, (3, 4)))
        qkv = [rng.uniform(-2, 2, (3, 4)), rng.uniform(-2, 2, (6, 4)), rng.uniform(-2, 2, (6, 4))]
        for n_heads in [1, 2]:
            gradcheck(
                lambda q, k, v: sum_all(mul(attention(q, k, v, n_heads, causal=True), read_out)),
                qkv,
            )
            segmented = lambda q, k, v, w: attention(q, k, v, n_heads, segments=([1, 3, 2], w))  # noqa: E731
            gradcheck(lambda *leaves: sum_all(mul(segmented(*leaves), read_out)), qkv + [rng.uniform(0.1, 1.5, 3)])


class TestAttentionBlocks:
    """``blocks`` makes one call act as separate calls, one per block."""

    Q_LENGTHS, K_LENGTHS, SEGMENTS = [2, 1, 3], [3, 4, 3], [1, 2, 4, 2, 1]  # 2 + 1 + 2 segments
    ONE_ROW = [1] * 6, [2, 1, 3, 1, 2, 1]  # one query row per block, as a beam hypothesis or a latent row has
    ONE_ROW_SEGMENTS = [2, 1, 1, 2, 1, 1, 1, 1]  # 1 + 1 + 2 + 1 + 2 + 1 segments, as the klw.ck latent rows have

    def operands(self, seed=30):
        rng = np.random.default_rng(seed)
        n, r = sum(self.Q_LENGTHS), sum(self.K_LENGTHS)
        return [rng.uniform(-2, 2, shape) for shape in ((n, 4), (r, 4), (r, 6))]

    READ_OUT = np.linspace(-1.0, 1.0, 36).reshape(6, 6)  # one row per query row

    @classmethod
    def run(cls, q, k, v, w=None, rows=slice(None), **kwargs):
        """The output and the q, k, v (and w) gradients of ``sum(out * READ_OUT[rows])``."""
        leaves = [Tensor(x, requires_grad=True) for x in (q, k, v) + (() if w is None else (w,))]
        read_out = cls.READ_OUT[rows]
        segments = None if w is None else (kwargs.pop("lengths"), leaves[3])
        with Tape() as tape:
            out = attention(*leaves[:3], segments=segments, **kwargs)
            grads = tape.backward(sum_all(mul(out, Tensor(read_out))))
        return [out.data] + [grads[leaf.node_id] for leaf in leaves], [record[0] for record in tape.records]

    def blockwise(self, q, k, v, w=None, blocks=(Q_LENGTHS, K_LENGTHS), lengths=None, **kwargs):
        """The same quantities from one call per block, stacked."""
        q0, k0 = np.cumsum([0, *blocks[0]]), np.cumsum([0, *blocks[1]])
        s0 = None if w is None else np.searchsorted(np.cumsum([0, *lengths]), k0)  # each block's first segment
        parts = []
        for b in range(len(blocks[0])):
            qs, ks = slice(q0[b], q0[b + 1]), slice(k0[b], k0[b + 1])
            if w is None:
                parts.append(self.run(q[qs], k[ks], v[ks], None, qs, **kwargs)[0])
            else:
                ss = slice(s0[b], s0[b + 1])
                parts.append(self.run(q[qs], k[ks], v[ks], w[ss], qs, lengths=lengths[ss], **kwargs)[0])
        out = [np.concatenate([p[i] for p in parts]) for i in range(4)]
        if w is not None:
            out.append(np.concatenate([p[4] for p in parts]))
        return out

    @pytest.mark.parametrize("n_heads", [1, 2])
    @pytest.mark.parametrize("kind", ["causal", "vector", "one-row", "one-row-causal", "one-row-vector"])
    def test_equals_one_call_per_block(self, n_heads, kind):
        """Every layout runs as one padded batch, short blocks and their segments included."""
        q, k, v = self.operands()
        lengths = {"vector": self.SEGMENTS, "one-row-vector": self.ONE_ROW_SEGMENTS}.get(kind)
        w = None if lengths is None else np.random.default_rng(31).uniform(0.1, 1.5, len(lengths))
        blocks = self.ONE_ROW if kind.startswith("one-row") else (self.Q_LENGTHS, self.K_LENGTHS)
        kwargs = dict(n_heads=n_heads, causal=kind.endswith("causal"))
        extra = {} if w is None else {"lengths": lengths}
        got, kinds = self.run(q, k, v, w, blocks=blocks, **extra, **kwargs)
        expected = self.blockwise(q, k, v, w, blocks, lengths, **kwargs)
        assert kinds == ["attention", "mul", "sum_all"]  # one record for every block
        for g, e in zip(got, expected, strict=True):
            assert np.max(np.abs(g - e)) <= 1e-12 * np.max(np.abs(e))

    def test_one_one_row_block_is_the_unblocked_kernel_bitwise(self):
        """A greedy decode step's one hypothesis is one block, with nothing masked or padded."""
        q, k, v = (x[:n] for x, n in zip(self.operands(), (1, 5, 5)))
        plain, _ = self.run(q, k, v, rows=slice(0, 1), n_heads=2, causal=True)
        one, _ = self.run(q, k, v, rows=slice(0, 1), n_heads=2, causal=True, blocks=([1], [5]))
        assert all(np.array_equal(a, b) for a, b in zip(plain, one, strict=True))
        shape, q_slot, k_slot, mask, *_ = tensor._layout(1, 5, True, ((1,), (5,)), None)
        assert shape == (1, 1, 5) and q_slot is None and k_slot is None and mask is None

    def test_one_block_of_every_row_is_the_unblocked_kernel_bitwise(self):
        q, k, v = self.operands()
        w = np.random.default_rng(32).uniform(0.1, 1.5, 5)
        plain, _ = self.run(q, k, v, w, lengths=self.SEGMENTS, n_heads=2)
        one, _ = self.run(q, k, v, w, lengths=self.SEGMENTS, n_heads=2, blocks=([6], [10]))
        assert all(np.array_equal(a, b) for a, b in zip(plain, one, strict=True))

    @pytest.mark.parametrize("blocks,segments,causal", [
        (([2, 1, 2], [3, 4, 3]), None, False),  # queries sum to 5, not 6
        (([2, 1, 3], [3, 4, 4]), None, False),  # keys sum to 11, not 10
        (([3, 3], [3, 4, 3]), None, False),  # two query blocks for three key blocks
        (([2, 0, 4], [3, 4, 3]), None, False),  # an empty block
        (([2, 1, 3], [3, 4, 3]), [1, 3, 3, 2, 1], False),  # a segment straddles two blocks
        (([2, 1, 3], [3, 4, 3]), [1, 2, 5, 2], False),  # a segment runs from the second block into the third
        (([2, 4, 0], [3, 4, 3]), None, True),  # a causal block of 4 queries to 4 keys is fine; 0 is not
        (([2, 1, 3], [3, 5, 2]), None, True),  # a causal block of 3 queries to 2 keys
        (([2, 1, 3], [3, 4, 3]), [1, 2, 2, 2, 1, 2], True),  # causal with segments: a row could see no key of one
    ])
    def test_mismatched_blocks_raise(self, blocks, segments, causal):
        q, k, v = (Tensor(x) for x in self.operands())
        seg = None if segments is None else (segments, Tensor(np.ones(len(segments))))
        with pytest.raises(ShapeError):
            attention(q, k, v, causal=causal, segments=seg, blocks=blocks)


class TestInvariants:
    def test_determinism(self):
        def run():
            rng = np.random.default_rng(11)
            x = Tensor(rng.uniform(-2, 2, (5, 5)), requires_grad=True)
            with Tape() as tape:
                h = softmax(matmul(x, x))
                loss = sum_all(mul(h, h))
                grads = tape.backward(loss)
            return loss.item(), grads[x.node_id].copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        assert np.array_equal(g1, g2)

    def test_overflow_is_an_error(self):
        with pytest.raises(NumericError):
            exp(Tensor(1000.0))

    def test_nan_input_rejected(self):
        with pytest.raises(NumericError):
            Tensor([np.nan])

    def test_tape_record_order_is_topological(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = mul(x, x)
            z = sum_all(add(y, x))
            tape.backward(z)
        seen = set()
        for _kind, in_ids, out_id, _fn in tape.records:
            for nid in in_ids:
                assert nid != out_id
                assert nid in seen or nid == x.node_id
            seen.add(out_id)


def test_every_public_function_is_imported_by_another_module_of_the_package():
    """The core carries only the kernels the model calls, not ones that tests alone use."""
    package = Path(tensor.__file__).parent
    defined = {node.name for node in ast.parse((package / "tensor.py").read_text()).body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    imported = {alias.name for path in package.glob("*.py") if path.name != "tensor.py"
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) and node.module in ("tensor", "ckl.tensor") for alias in node.names}
    assert sorted(defined - imported) == []


def test_every_name_in_the_package_all_is_defined():
    """``from ckl import *`` binds each name of ``ckl.__all__``, listed once."""
    import ckl

    namespace = {}
    exec("from ckl import *", namespace)
    assert len(set(ckl.__all__)) == len(ckl.__all__)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(ckl.__all__)
