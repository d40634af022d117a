import math

import numpy as np
import pytest

from ckl.corpus import BOS, EOS, EncodedSample
from ckl.losses import nll
from ckl.model import (
    CKLModel,
    ModelConfig,
    SegmentedEncoding,
    attention,
    lwe_attention,
)
from ckl.tensor import ShapeError, Tape, Tensor

from conftest import encoding_from_views


def tiny_config(**overrides):
    base = dict(
        vocab_size=16,
        d_model=8,
        n_heads=2,
        n_encoder_layers=1,
        n_decoder_layers=1,
        d_ff=16,
        max_source_len=48,
        max_target_len=8,
        m_max=4,
        top_n=1,
    )
    base.update(overrides)
    return ModelConfig(**base)


def tiny_sample(m=2, l=2):  # noqa: E741
    context = [[5 + i, 6 + i] for i in range(m)]
    knowledge = [[9 + j] for j in range(l)]
    return EncodedSample(
        context_ids=context,
        knowledge_ids=knowledge,
        response_ids=[BOS, 5, 9, EOS],
        segment_lengths=[len(s) for s in context + knowledge],
    )


def manual_encoding(m=2, l=2, d=8, seed=0):  # noqa: E741
    rng = np.random.default_rng(seed)
    views = [Tensor(rng.normal(size=(2, d))) for _ in range(m + l)]
    return encoding_from_views(views, m)


def shifted(enc, start, length, change):
    """``enc`` with ``change`` applied to memory rows [start, start + length)."""
    data = enc.memory.data.copy()
    data[start : start + length] = change(data[start : start + length])
    return SegmentedEncoding(Tensor(data), enc.lengths, enc.m)


class TestAttentionKernel:
    def test_single_key_returns_value(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(1, 4))
        for _ in range(5):
            q = Tensor(rng.normal(size=(3, 4)))
            out = attention(q, Tensor(rng.normal(size=(1, 4))), Tensor(v))
            assert np.allclose(out.data, np.repeat(v, 3, axis=0), atol=1e-12)

    def test_identical_keys_give_value(self):
        k = Tensor([[0.3, -0.2], [0.3, -0.2]])
        v = Tensor([[1.0, 2.0], [1.0, 2.0]])
        out = attention(Tensor([[5.0, -1.0]]), k, v)
        assert np.allclose(out.data, [[1.0, 2.0]], atol=1e-12)

    def test_hand_case_matches_numpy(self):
        q = np.array([[1.0, 0.0]])
        k = np.array([[1.0, 0.0], [0.0, 1.0]])
        v = np.array([[1.0, 2.0], [3.0, 4.0]])
        scores = (q @ k.T) / math.sqrt(2)
        e = np.exp(scores - scores.max())
        expected = (e / e.sum()) @ v
        out = attention(Tensor(q), Tensor(k), Tensor(v))
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            attention(Tensor(np.ones((1, 3))), Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))))


class TestLweAttention:
    def rand_segments(self, rng, n_seg, d):
        return [
            (
                Tensor(rng.normal(size=(rng.integers(1, 5), d))),
                None,
            )
            for _ in range(n_seg)
        ]

    def test_unit_weights_equal_sum_of_attentions(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            d = int(rng.integers(1, 6))
            tq = int(rng.integers(1, 5))
            q = Tensor(rng.normal(size=(tq, d)))
            segments = []
            for _ in range(int(rng.integers(1, 5))):
                n = int(rng.integers(1, 5))
                segments.append((Tensor(rng.normal(size=(n, d))), Tensor(rng.normal(size=(n, d)))))
            combined = lwe_attention(q, segments, [1.0] * len(segments))
            expected = sum(attention(q, k, v).data for k, v in segments)
            assert np.max(np.abs(combined.data - expected)) < 1e-12

    def test_zero_weight_equals_segment_removed(self):
        rng = np.random.default_rng(2)
        q = Tensor(rng.normal(size=(2, 3)))
        segments = [
            (Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(2, 3))))
            for _ in range(3)
        ]
        weights = [0.7, 0.0, 1.3]
        full = lwe_attention(q, segments, weights)
        reduced = lwe_attention(q, [segments[0], segments[2]], [0.7, 1.3])
        assert np.allclose(full.data, reduced.data, atol=1e-12)

    def test_doubling_weight_is_linear(self):
        rng = np.random.default_rng(3)
        q = Tensor(rng.normal(size=(2, 3)))
        segments = [
            (Tensor(rng.normal(size=(3, 3))), Tensor(rng.normal(size=(3, 3))))
            for _ in range(2)
        ]
        base = lwe_attention(q, segments, [0.5, 0.8])
        doubled = lwe_attention(q, segments, [0.5, 1.6])
        extra = attention(q, *segments[1])
        assert np.allclose(doubled.data - base.data, 0.8 * extra.data, atol=1e-12)

    def test_empty_segments_rejected(self):
        with pytest.raises(ShapeError):
            lwe_attention(Tensor(np.ones((1, 2))), [], [])


class TestEncode:
    def test_shapes_and_views(self):
        model = CKLModel(tiny_config(), seed=0)
        sample = tiny_sample(m=2, l=2)
        enc = model.encode(sample)
        assert enc.memory.shape == (sum(sample.segment_lengths), 8)
        assert enc.lengths == sample.segment_lengths
        assert enc.m == 2 and enc.l == 2

    def test_minimal_sample_has_two_views(self):
        model = CKLModel(tiny_config(), seed=0)
        enc = model.encode(tiny_sample(m=1, l=1))
        assert enc.m + enc.l == 2

    def test_swapping_knowledge_swaps_view_layout(self):
        model = CKLModel(tiny_config(), seed=0)
        a = EncodedSample(
            context_ids=[[5, 6]],
            knowledge_ids=[[7, 8, 9], [10]],
            response_ids=[BOS, 5, EOS],
            segment_lengths=[2, 3, 1],
        )
        b = EncodedSample(
            context_ids=[[5, 6]],
            knowledge_ids=[[10], [7, 8, 9]],
            response_ids=[BOS, 5, EOS],
            segment_lengths=[2, 1, 3],
        )
        enc_a = model.encode(a)
        enc_b = model.encode(b)
        assert enc_a.memory.shape == enc_b.memory.shape == (6, 8)
        assert enc_a.lengths == [2, 3, 1]
        assert enc_b.lengths == [2, 1, 3]

    def test_over_length_rejected(self):
        model = CKLModel(tiny_config(max_source_len=4), seed=0)
        with pytest.raises(ShapeError):
            model.encode(tiny_sample(m=2, l=2))


class TestClwGenerate:
    def test_zero_head_gives_half(self):
        model = CKLModel(tiny_config(), seed=1)
        model.params["clw.head_r.w"].data[:] = 0.0
        model.params["clw.head_r.b"].data[:] = 0.0
        enc = manual_encoding(m=3, l=1)
        clwr, clwk = model.clw_generate(enc)
        assert np.allclose(clwr.data, 0.5)
        assert clwr.shape == (3,)

    def test_outputs_in_open_interval(self):
        model = CKLModel(tiny_config(), seed=2)
        enc = manual_encoding(m=4, l=2, seed=5)
        clwr, clwk = model.clw_generate(enc)
        for w in (clwr, clwk):
            assert w.shape == (4,)
            assert np.all(w.data > 0.0) and np.all(w.data < 1.0)

    def test_duplicate_views_get_equal_weights(self):
        model = CKLModel(tiny_config(), seed=3)
        rng = np.random.default_rng(7)
        view = Tensor(rng.normal(size=(3, 8)))
        dup = Tensor(view.data.copy())
        enc = encoding_from_views([view, dup], 2)
        clwr, clwk = model.clw_generate(enc)
        assert clwr.data[0] == clwr.data[1]
        assert clwk.data[0] == clwk.data[1]

    def test_heads_do_not_share_parameters(self):
        model = CKLModel(tiny_config(), seed=4)
        assert not np.array_equal(
            model.params["clw.head_r.w"].data, model.params["clw.head_k.w"].data
        )


class TestKlwGenerate:
    def test_no_ck_dep_ignores_context(self):
        model = CKLModel(tiny_config(use_ck_dep=False), seed=5)
        enc_a = manual_encoding(m=2, l=3, seed=10)
        enc_b = shifted(manual_encoding(m=2, l=3, seed=10), 0, 4, lambda rows: rows + 100.0)
        clwk = Tensor(np.array([0.4, 0.9]))
        a = model.klw_generate(enc_a, clwk)
        b = model.klw_generate(enc_b, clwk)
        assert np.array_equal(a.data, b.data)

    def test_zero_head_gives_half(self):
        model = CKLModel(tiny_config(), seed=6)
        model.params["klw.head.w"].data[:] = 0.0
        model.params["klw.head.b"].data[:] = 0.0
        enc = manual_encoding(m=1, l=4)
        klw = model.klw_generate(enc, Tensor(np.array([0.5])))
        assert np.allclose(klw.data, 0.5)
        assert klw.shape == (4,)

    def test_zero_clwk_blocks_context_through_ck_dep(self):
        model = CKLModel(tiny_config(use_ck_dep=True), seed=7)
        enc_a = manual_encoding(m=2, l=2, seed=11)
        enc_b = shifted(manual_encoding(m=2, l=2, seed=11), 0, 4, lambda rows: rows * -3.0 + 7.0)
        zeros = Tensor(np.zeros(2))
        assert np.allclose(
            model.klw_generate(enc_a, zeros).data,
            model.klw_generate(enc_b, zeros).data,
            atol=1e-15,
        )


class TestDecoderForward:
    def test_logits_shape(self):
        model = CKLModel(tiny_config(), seed=8)
        sample = tiny_sample()
        enc = model.encode(sample)
        clwr, _ = model.clw_generate(enc)
        klw = model.klw_generate(enc, clwr)
        logits = model.decoder_forward([BOS, 5, 9], enc, clwr, klw)
        assert logits.shape == (3, 16)

    def test_all_zero_weights_make_logits_content_free(self):
        model = CKLModel(tiny_config(), seed=9)
        enc_a = manual_encoding(m=2, l=2, seed=12)
        enc_b = manual_encoding(m=2, l=2, seed=99)
        zeros = Tensor(np.zeros(2))
        la = model.decoder_forward([BOS, 5], enc_a, zeros, zeros)
        lb = model.decoder_forward([BOS, 5], enc_b, zeros, zeros)
        assert np.max(np.abs(la.data - lb.data)) < 1e-12

    def test_causality(self):
        model = CKLModel(tiny_config(), seed=10)
        sample = tiny_sample()
        enc = model.encode(sample)
        clwr, clwk = model.clw_generate(enc)
        klw = model.klw_generate(enc, clwk)
        full = model.decoder_forward([BOS, 5, 9, 7], enc, clwr, klw)
        altered = model.decoder_forward([BOS, 5, 12, 13], enc, clwr, klw)
        assert np.max(np.abs(full.data[:2] - altered.data[:2])) < 1e-12
        assert not np.allclose(full.data[2:], altered.data[2:])

    def test_segment_zeroing(self):
        model = CKLModel(tiny_config(), seed=11)
        enc_a = manual_encoding(m=2, l=3, seed=13)
        enc_b = shifted(manual_encoding(m=2, l=3, seed=13), 6, 2, lambda rows: rows + 1000.0)
        clwr = Tensor(np.array([0.7, 0.2]))
        klw = Tensor(np.array([0.5, 0.0, 0.9]))
        la = model.decoder_forward([BOS, 5], enc_a, clwr, klw)
        lb = model.decoder_forward([BOS, 5], enc_b, clwr, klw)
        assert np.max(np.abs(la.data - lb.data)) < 1e-12

    def test_empty_prefix_rejected(self):
        model = CKLModel(tiny_config(), seed=12)
        enc = manual_encoding()
        w = Tensor(np.array([0.5, 0.5]))
        with pytest.raises(ShapeError):
            model.decoder_forward([], enc, w, w)


class TestForward:
    def test_shapes(self):
        model = CKLModel(tiny_config(), seed=13)
        sample = tiny_sample(m=3, l=2)
        logits, weights = model.forward(sample)
        assert logits.shape == (len(sample.response_ids) - 1, 16)
        assert weights.clwr.shape == (3,)
        assert weights.clwk.shape == (3,)
        assert weights.klw.shape == (2,)

    def test_loss_flags_do_not_change_forward(self):
        sample = tiny_sample()
        full = CKLModel(tiny_config(), seed=14).forward(sample)
        ablated = CKLModel(
            tiny_config(use_loss_klw=False, use_loss_clwr=False, use_loss_clwk=False),
            seed=14,
        ).forward(sample)
        assert np.array_equal(full[0].data, ablated[0].data)
        assert np.array_equal(full[1].klw.data, ablated[1].klw.data)

    def test_deterministic(self):
        sample = tiny_sample()
        a = CKLModel(tiny_config(), seed=15).forward(sample)
        b = CKLModel(tiny_config(), seed=15).forward(sample)
        assert np.array_equal(a[0].data, b[0].data)

    def test_latent_weights_strictly_inside_unit_interval(self):
        model = CKLModel(tiny_config(), seed=16)
        for m, l in ((1, 1), (2, 3), (4, 2)):  # noqa: E741
            weights = model.latent_weights(tiny_sample(m=m, l=l))
            for w in (weights.clwr, weights.clwk, weights.klw):
                assert np.all(w.data > 0.0) and np.all(w.data < 1.0)


class TestGradientFlow:
    def test_nll_reaches_context_latent_vector(self):
        model = CKLModel(tiny_config(), seed=17)
        sample = tiny_sample()
        with Tape() as tape:
            logits, _ = model.forward(sample)
            loss = nll(logits, sample.response_ids[1:])
            grads = tape.backward(loss)
        g = grads[model.params["clw.latent"].node_id].data
        assert np.max(np.abs(g)) > 0.0


def argmax_oracle(model, sample, max_len):
    """Greedy decoding as a plain loop: argmax of the last full-prefix logits
    row, stopping after EOS or at ``max_len`` ids."""
    enc = model.encode(sample)
    clwr, clwk = model.clw_generate(enc)
    klw = model.klw_generate(enc, clwk)
    ids = [BOS]
    while len(ids) < max_len:
        ids.append(int(np.argmax(model.decoder_forward(ids, enc, clwr, klw).data[-1])))
        if ids[-1] == EOS:
            break
    return ids


class TestGenerate:
    @pytest.mark.parametrize("seed,eos_bias", [(18, 0.0), (19, 0.0), (20, 0.0), (21, 1.0)])
    def test_width_one_equals_argmax_oracle(self, seed, eos_bias):
        model = CKLModel(tiny_config(), seed=seed)
        model.params["out.b"].data[EOS] += eos_bias
        sample = tiny_sample()
        expected = argmax_oracle(model, sample, model.config.max_target_len)
        if eos_bias:
            assert expected[-1] == EOS and 2 < len(expected) < model.config.max_target_len
        assert model.generate(sample) == expected

    def test_terminates_with_eos_or_budget(self):
        for seed in (19, 20, 21):
            out = CKLModel(tiny_config(), seed=seed).generate(tiny_sample(), max_len=6)
            assert out[0] == BOS
            assert EOS not in out[1:-1], seed
            assert out[-1] == EOS or len(out) == 6, seed

    def test_width_below_one_rejected(self):
        with pytest.raises(ValueError):
            CKLModel(tiny_config(), seed=20).generate(tiny_sample(), beam_size=0)

    def test_beam_search_returns_valid_sequence(self):
        model = CKLModel(tiny_config(), seed=20)
        out = model.generate(tiny_sample(), beam_size=3, max_len=6)
        assert out[0] == BOS
        assert all(0 <= t < 16 for t in out)


class TestModelConfig:
    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError):
            tiny_config(d_model=8, n_heads=3)

    def test_dims_positive(self):
        with pytest.raises(ValueError):
            tiny_config(d_ff=0)

    def test_round_trip_dict(self):
        cfg = tiny_config(use_ck_dep=False)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg


class TestFullModelGradients:
    def test_against_finite_differences(self, gradcheck):
        """Every parameter of a d_model=8, 1-layer model, m=l=2."""
        config = tiny_config(vocab_size=12, max_source_len=16, max_target_len=6)
        sample = tiny_sample(m=2, l=2)
        template = CKLModel(config, seed=21)
        names = list(template.params)
        arrays = [template.params[n].data.copy() for n in names]

        def build_loss(*leaves):
            model = CKLModel.__new__(CKLModel)
            model.config = config
            model.params = dict(zip(names, leaves))
            logits, weights = model.forward(sample)
            loss = nll(logits, sample.response_ids[1:])
            from ckl.losses import AwlParams, awl, mse

            l_clwr = mse(weights.clwr, [1.0, 0.0])
            l_clwk = mse(weights.clwk, [0.0, 1.0])
            l_klw = mse(weights.klw, [1.0, 0.0])
            return awl(l_clwr, l_clwk, l_klw, loss, AwlParams())

        gradcheck(build_loss, arrays)
