import math

import numpy as np
import pytest

from ckl import tensor
from ckl.corpus import BOS, EOS, EncodedSample
from ckl.losses import nll
from ckl.model import (
    CKLModel,
    ModelConfig,
    SegmentedEncoding,
    attention,
)
from ckl.tensor import ShapeError, Tape, Tensor

from conftest import encoding_from_views
from oracle_ops import sum_all


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
    return SegmentedEncoding(Tensor(data), enc.lengths, enc.samples)


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


def lwe(q, segments, weights, n_heads=1):
    """LWE attention as the decoder and klw.ck call it: one segment attention over the stacked keys and values."""
    return attention(
        q,
        Tensor(np.concatenate([k.data for k, _ in segments])),
        Tensor(np.concatenate([v.data for _, v in segments])),
        n_heads,
        segments=([k.shape[0] for k, _ in segments], Tensor(np.asarray(weights, dtype=float))),
    )


class TestLweAttention:
    """Segment attention with latent weights: each segment normalised alone, then scaled by its weight."""

    @staticmethod
    def rand_segments(rng, n_seg, d):
        return [
            (Tensor(rng.normal(size=(n, d))), Tensor(rng.normal(size=(n, d))))
            for n in rng.integers(1, 5, size=n_seg)
        ]

    def test_unit_weights_equal_sum_of_attentions(self):
        rng = np.random.default_rng(1)
        for n_heads in [1, 2] * 50:
            d = n_heads * int(rng.integers(1, 4))
            q = Tensor(rng.normal(size=(int(rng.integers(1, 5)), d)))
            segments = self.rand_segments(rng, int(rng.integers(1, 5)), d)
            combined = lwe(q, segments, [1.0] * len(segments), n_heads)
            expected = sum(attention(q, k, v, n_heads).data for k, v in segments)
            assert np.max(np.abs(combined.data - expected)) < 1e-12

    def test_every_head_scales_each_segment_by_its_weight(self):
        rng = np.random.default_rng(4)
        q = Tensor(rng.normal(size=(3, 4)))
        segments = self.rand_segments(rng, 3, 4)
        weights = [0.4, 1.7, 0.9]
        expected = sum(w * attention(q, k, v, n_heads=2).data for w, (k, v) in zip(weights, segments))
        assert np.allclose(lwe(q, segments, weights, n_heads=2).data, expected, atol=1e-12)

    def test_zero_weight_equals_segment_removed(self):
        rng = np.random.default_rng(2)
        q = Tensor(rng.normal(size=(2, 3)))
        segments = [
            (Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(2, 3))))
            for _ in range(3)
        ]
        full = lwe(q, segments, [0.7, 0.0, 1.3])
        reduced = lwe(q, [segments[0], segments[2]], [0.7, 1.3])
        assert np.allclose(full.data, reduced.data, atol=1e-12)

    def test_doubling_weight_is_linear(self):
        rng = np.random.default_rng(3)
        q = Tensor(rng.normal(size=(2, 3)))
        segments = [
            (Tensor(rng.normal(size=(3, 3))), Tensor(rng.normal(size=(3, 3))))
            for _ in range(2)
        ]
        base = lwe(q, segments, [0.5, 0.8])
        doubled = lwe(q, segments, [0.5, 1.6])
        extra = attention(q, *segments[1])
        assert np.allclose(doubled.data - base.data, 0.8 * extra.data, atol=1e-12)

    def test_empty_segments_rejected(self):
        with pytest.raises(ShapeError, match="zero-sized"):  # no segment leaves no key to stack
            Tensor(np.ones((0, 2)))
        with pytest.raises(ShapeError, match=r"segment lengths \[\] must be positive ints summing to 2"):
            attention(Tensor(np.ones((1, 2))), Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))),
                      segments=([], Tensor(np.ones(1))))


class TestEncode:
    def test_shapes_and_views(self):
        model = CKLModel(tiny_config(), seed=0)
        sample = tiny_sample(m=2, l=2)
        enc = model.encode(sample)
        assert enc.memory.shape == (sum(sample.segment_lengths), 8)
        assert enc.lengths == sample.segment_lengths
        assert enc.samples == ((2, 2),)

    def test_minimal_sample_has_two_views(self):
        model = CKLModel(tiny_config(), seed=0)
        enc = model.encode(tiny_sample(m=1, l=1))
        assert sum(enc.samples[0]) == 2

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

    def test_a_pack_encodes_each_sample_as_alone(self):
        model = CKLModel(tiny_config(), seed=0)
        a, b = tiny_sample(m=2, l=2), tiny_sample(m=1, l=3)
        pack = model.encode(a, b)
        alone = [model.encode(a), model.encode(b)]
        assert np.allclose(pack.memory.data, np.concatenate([enc.memory.data for enc in alone]), atol=1e-12)
        assert pack.lengths == a.segment_lengths + b.segment_lengths
        assert pack.samples == ((2, 2), (1, 3))
        # The layout is each sample's own, concatenated, its sample ids offset by the samples before it.
        assert np.array_equal(pack.context, np.concatenate([enc.context for enc in alone]))
        assert np.array_equal(pack.sample, np.concatenate([enc.sample + i for i, enc in enumerate(alone)]))
        assert np.array_equal(pack.rows, np.concatenate([enc.rows for enc in alone]))
        packed, lone = model.condition(a, b)[1], [model.condition(sample)[1] for sample in (a, b)]
        for name in ("clwr", "clwk", "klw"):
            expected = np.concatenate([getattr(weights, name).data for weights in lone])
            assert np.allclose(getattr(packed, name).data, expected, atol=1e-12)
        logits = model.forward(a, b)[0].data
        assert np.allclose(logits, np.concatenate([model.forward(sample)[0].data for sample in (a, b)]), atol=1e-12)

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


class TestWeightGeneratorIsolation:
    """A segment's weight depends on that segment alone, however large another one's scores."""

    @pytest.mark.parametrize("use_ck_dep", [True, False])
    def test_huge_segment_leaves_other_weights_bitwise_unchanged(self, use_ck_dep):
        model = CKLModel(tiny_config(use_ck_dep=use_ck_dep), seed=8)
        rng = np.random.default_rng(12)
        views = [rng.normal(size=(n, 8)) for n in (2, 3, 2, 1, 3, 2)]  # 3 context, 3 knowledge

        def clwr_and_klw(huge):
            enc = encoding_from_views(
                [Tensor(v * 1e12 if i == huge else v) for i, v in enumerate(views)], 3
            )
            clwr, clwk = model.clw_generate(enc)
            return clwr.data, model.klw_generate(enc, clwk).data

        clwr, klw = clwr_and_klw(None)
        # Context utterance 1 and knowledge sentence 1 (view 4) are scaled.
        assert np.array_equal(np.delete(clwr_and_klw(1)[0], 1), np.delete(clwr, 1))
        assert np.array_equal(np.delete(clwr_and_klw(4)[1], 1), np.delete(klw, 1))


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


def relative_gap(got, expected):
    return np.max(np.abs(got - expected)) / np.max(np.abs(expected))


class TestDecoderCache:
    IDS = [BOS, 5, 9, 7, 12, 3, 11, 14]  # max_target_len ids

    def conditioned(self, m=2, l=2, **config):  # noqa: E741
        model = CKLModel(tiny_config(n_decoder_layers=2, **config), seed=22)
        enc, weights = model.condition(tiny_sample(m=m, l=l))
        return model, enc, weights.clwr, weights.klw

    @pytest.mark.parametrize("use_ck_dep", [True, False])
    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("m,l", [(1, 1), (1, 3), (3, 1)])
    def test_one_row_per_step_equals_full_prefix(self, n_heads, use_ck_dep, m, l):  # noqa: E741
        model, enc, clwr, klw = self.conditioned(m, l, n_heads=n_heads, use_ck_dep=use_ck_dep)
        cache = []
        for t in range(1, len(self.IDS) + 1):
            step = model.decoder_forward(self.IDS[:t], enc, clwr, klw, cache).data
            full = model.decoder_forward(self.IDS[:t], enc, clwr, klw).data
            assert step.shape == (1, 16)
            assert relative_gap(step[0], full[-1]) <= 1e-12, t

    def test_several_new_rows_at_once(self):
        model, enc, clwr, klw = self.conditioned()
        full = model.decoder_forward(self.IDS, enc, clwr, klw).data
        cache = []
        first = model.decoder_forward(self.IDS[:3], enc, clwr, klw, cache).data
        model.decoder_forward(self.IDS[:4], enc, clwr, klw, cache)
        rest = model.decoder_forward(self.IDS, enc, clwr, klw, cache).data
        assert relative_gap(first, full[:3]) <= 1e-12
        assert relative_gap(rest, full[4:]) <= 1e-12

    @pytest.mark.parametrize("use_ck_dep", [True, False])
    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("b", [1, 3, 4])
    def test_batched_step_rows_equal_full_prefix(self, b, n_heads, use_ck_dep):
        """``b`` hypotheses branch from one parent and each adds its own ids;
        between steps they are shuffled, and the cache finds each one's row by its prefix."""
        model, enc, clwr, klw = self.conditioned(n_heads=n_heads, use_ck_dep=use_ck_dep)
        cache = []
        model.decoder_forward(self.IDS[:3], enc, clwr, klw, cache)
        order, prefixes = [0] * b, [self.IDS[:3]]
        rng = np.random.default_rng(b)
        for t in range(4, len(self.IDS) + 1):
            prefixes = [prefixes[j] + [3 + (i + t) % 13] for i, j in enumerate(order)]  # distinct last ids
            step = model.decoder_forward(list(zip(*prefixes)), enc, clwr, klw, cache).data
            assert step.shape == (b, 16)
            for row, ids in zip(step, prefixes):
                assert relative_gap(row, model.decoder_forward(ids, enc, clwr, klw).data[-1]) <= 1e-12, ids
            order = rng.permutation(b)

    def test_rows_gathered_by_a_repeated_parent_extend_independently(self):
        model, enc, clwr, klw = self.conditioned()
        parent = []
        model.decoder_forward(self.IDS[:2], enc, clwr, klw, parent)
        before = [x.copy() for x in parent[2:]]

        def two_children(tokens):
            rows = list(zip(*(self.IDS[:2] + [token] for token in tokens)))
            return model.decoder_forward(rows, enc, clwr, klw, list(parent)).data

        a, b = two_children([5, 6]), two_children([5, 7])
        assert np.array_equal(a[0], b[0]) and not np.allclose(a[1], b[1])
        assert all(np.array_equal(x, y) for x, y in zip(parent[2:], before))

    def test_a_beam_that_loses_a_hypothesis_to_eos_keeps_each_row_on_its_prefix(self, monkeypatch):
        """Beam 4 with EOS raised in the output bias: a step keeps all four rows in place, so the cache skips its
        gather, and the next step's survivors are rows 0, 1 and 2 of four, which must still be gathered."""
        model = CKLModel(tiny_config(n_decoder_layers=2), seed=26)
        model.params["out.b"].data[EOS] += 1.0
        enc, weights = model.condition(tiny_sample())
        hyps_per_step, forward = [], model.decoder_forward

        def checked(prefix, enc, clwr, klw, cache=None):
            logits = forward(prefix, enc, clwr, klw, cache)
            hyps = [list(ids) for ids in zip(*prefix)]
            for row, ids in zip(logits.data, hyps):
                assert relative_gap(row, forward(ids, enc, clwr, klw).data[-1]) <= 1e-12, ids
            hyps_per_step.append(hyps)
            return logits

        monkeypatch.setattr(model, "decoder_forward", checked)
        model.decode(enc, weights, beam_size=4)
        # Per step after the first: the rows the cache held, and each hypothesis's parent row among them.
        gathers = [(len(before), [before.index(ids[:-1]) for ids in after])
                   for before, after in zip(hyps_per_step, hyps_per_step[1:])]
        assert (4, [0, 1, 2, 3]) in gathers and (4, [0, 1, 2]) in gathers

    @pytest.mark.parametrize("t", [0, 2, 3])
    def test_prefix_must_extend_its_cache(self, t):
        model, enc, clwr, klw = self.conditioned()
        cache = []
        model.decoder_forward(self.IDS[:3], enc, clwr, klw, cache)
        with pytest.raises(ShapeError, match=f"prefix of {t} tokens must be longer than its 3 cached rows"):
            model.decoder_forward(self.IDS[:t], enc, clwr, klw, cache)

    def test_hypotheses_add_any_number_of_rows_with_or_without_a_cache(self):
        """Each hypothesis is a causal block of its own: its logits equal its own full-prefix pass."""
        model, enc, clwr, klw = self.conditioned()

        def check(logits, hyps, new):
            for got, ids in zip(logits.data.reshape(len(hyps), new, -1), hyps):
                assert relative_gap(got, model.decoder_forward(ids, enc, clwr, klw).data[-new:]) <= 1e-12, ids

        hyps = [self.IDS[:3], [BOS, 6, 4], [BOS, 5, 10]]
        check(model.decoder_forward(list(zip(*hyps)), enc, clwr, klw), hyps, 3)
        cache = []
        model.decoder_forward(self.IDS[:2], enc, clwr, klw, cache)
        hyps = [self.IDS[:4], self.IDS[:2] + [4, 6], self.IDS[:2] + [13, 13]]  # three children of one row
        check(model.decoder_forward(list(zip(*hyps)), enc, clwr, klw, cache), hyps, 2)
        hyps = [hyps[2] + [5, 7, 3], hyps[0] + [6, 6, 6], hyps[2] + [4, 4, 4]]  # permuted, repeated and dropped
        check(model.decoder_forward(list(zip(*hyps)), enc, clwr, klw, cache), hyps, 3)
        with pytest.raises(ShapeError, match="prefix of 0 tokens"):
            model.decoder_forward([], enc, clwr, klw, [])

    def test_a_prefix_the_cache_does_not_hold_raises(self):
        model, enc, clwr, klw = self.conditioned()
        cache = []
        model.decoder_forward(list(zip(self.IDS[:3], [BOS, 6, 4])), enc, clwr, klw, cache)
        message = "the cache does not hold the first 3 ids of all 2 hypotheses"
        for prefix in ([(BOS, BOS), (5, 6), (9, 5), (7, 7)],  # the second hypothesis is not cached
                       [(BOS,), (5,), (9,), (7, 8)]):  # one cached hypothesis, two new ones
            with pytest.raises(ShapeError, match=message):
                model.decoder_forward(prefix, enc, clwr, klw, cache)
        step = model.decoder_forward(self.IDS[:5], enc, clwr, klw, cache).data  # the failed calls changed nothing
        assert relative_gap(step, model.decoder_forward(self.IDS[:5], enc, clwr, klw).data[3:]) <= 1e-12

    def test_a_cache_from_another_encoding_raises(self):
        model, enc, clwr, klw = self.conditioned()
        cache = []
        model.decoder_forward(self.IDS[:2], enc, clwr, klw, cache)
        other, weights = model.condition(tiny_sample())  # the same sample, encoded again
        zero = Tensor(np.zeros(klw.shape))
        # Another encoding, or the same encoding with other weight tensors: equal values or zeros.
        for conditioning in ((other, weights.clwr, weights.klw), (enc, weights.clwr, weights.klw), (enc, clwr, zero)):
            with pytest.raises(ShapeError, match="the cache was filled from another SegmentedEncoding"):
                model.decoder_forward(self.IDS[:3], *conditioning, cache)

    def test_a_pack_takes_no_cache_and_no_prefix_beyond_max_target_len(self):
        model = CKLModel(tiny_config(), seed=22)
        enc, weights = model.condition(tiny_sample(), tiny_sample(m=1, l=3))
        prefixes = [self.IDS[:3], self.IDS[:2]]
        assert model.decoder_forward(prefixes, enc, weights.clwr, weights.klw).shape == (5, 16)
        message = "a pack takes prefixes of at most max_target_len=8 ids, and no cache"
        with pytest.raises(ShapeError, match=message):
            model.decoder_forward(prefixes, enc, weights.clwr, weights.klw, [])
        with pytest.raises(ShapeError, match=message):
            model.decoder_forward([self.IDS + [5], self.IDS[:2]], enc, weights.clwr, weights.klw)

    def test_step_op_kinds_do_not_depend_on_prefix_or_hypotheses(self, monkeypatch):
        model, enc, clwr, klw = self.conditioned()
        kinds, make = [], tensor._make
        per_step = {}
        for b in (1, 4):
            cache = []
            model.decoder_forward(self.IDS[:1], enc, clwr, klw, cache)
            monkeypatch.setattr(tensor, "_make", lambda kind, *args: kinds.append(kind) or make(kind, *args))
            for t in range(2, len(self.IDS) + 1):
                kinds.clear()
                model.decoder_forward([[i] * b for i in self.IDS[:t]], enc, clwr, klw, cache)
                per_step[b, t] = sorted(kinds)
            monkeypatch.undo()
        first = per_step[1, 2]
        assert first and all(step == first for step in per_step.values())
        # Every residual step is one add_norm; the only add is token plus position embedding.
        assert "layer_norm" not in first and first.count("add") == 1
        assert first.count("add_norm") == 3 * model.config.n_decoder_layers
        assert "concat_vec" not in first  # the segment weights are cached with the cross K/V
        assert first.count("ffn") == model.config.n_decoder_layers and "relu" not in first

    def test_a_cached_call_under_a_tape_raises(self):
        model, enc, clwr, klw = self.conditioned()
        cache = []
        model.decoder_forward(self.IDS[:2], enc, clwr, klw, cache)
        untraced = model.decoder_forward(self.IDS[:3], enc, clwr, klw, list(cache)).data
        with Tape():
            with pytest.raises(RuntimeError, match="cached decoder_forward call is tape-free"):
                model.decoder_forward(self.IDS[:3], enc, clwr, klw, cache)
        assert np.array_equal(model.decoder_forward(self.IDS[:3], enc, clwr, klw, cache).data, untraced)
        with Tape() as tape:
            full = model.decoder_forward(self.IDS[:3], enc, clwr, klw)
            grads = tape.backward(sum_all(full))
        assert np.array_equal(full.data, model.decoder_forward(self.IDS[:3], enc, clwr, klw).data)
        assert relative_gap(full.data[-1], untraced[0]) <= 1e-12
        assert np.abs(grads[model.params["dec0.self.wk.w"].node_id]).sum() > 0


class TestForward:
    def test_shapes(self):
        model = CKLModel(tiny_config(), seed=13)
        sample = tiny_sample(m=3, l=2)
        logits, weights = model.forward(sample)
        assert logits.shape == (len(sample.response_ids) - 1, 16)
        assert weights.clwr.shape == (3,)
        assert weights.clwk.shape == (3,)
        assert weights.klw.shape == (2,)

    @pytest.mark.parametrize("key", ["top_n", "use_loss_klw", "use_loss_clwr", "use_loss_clwk"])
    def test_loss_flags_do_not_change_forward(self, key):
        """The label and loss settings are training's: the model never receives them."""
        with pytest.raises(TypeError, match=key):
            tiny_config(**{key: 2 if key == "top_n" else False})

    def test_deterministic(self):
        sample = tiny_sample()
        a = CKLModel(tiny_config(), seed=15).forward(sample)
        b = CKLModel(tiny_config(), seed=15).forward(sample)
        assert np.array_equal(a[0].data, b[0].data)

    def test_latent_weights_strictly_inside_unit_interval(self):
        model = CKLModel(tiny_config(), seed=16)
        for m, l in ((1, 1), (2, 3), (4, 2)):  # noqa: E741
            _, weights = model.condition(tiny_sample(m=m, l=l))
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
        g = grads[model.params["clw.latent"].node_id]
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


def beam_oracle(model, sample, beam_size, max_len):
    """Beam search over full-prefix ``decoder_forward`` calls: every step
    recomputes each hypothesis from BOS. Hypotheses are ranked by per-token
    mean log-probability; stable sorts keep the lower token id, then the
    earlier candidate, on ties."""
    enc = model.encode(sample)
    clwr, clwk = model.clw_generate(enc)
    klw = model.klw_generate(enc, clwk)
    beams, finished = [([BOS], 0.0)], []
    while beams and len(beams[0][0]) < max_len:
        candidates = []
        for ids, logp in beams:
            logits = model.decoder_forward(ids, enc, clwr, klw).data[-1]
            lp = logits - logits.max()
            lp = lp - math.log(np.exp(lp).sum())
            for token in np.argsort(-lp, kind="stable")[:beam_size]:
                candidates.append((ids + [int(token)], logp + float(lp[token])))
        candidates.sort(key=lambda c: -(c[1] / (len(c[0]) - 1)))
        kept = candidates[:beam_size]
        finished += [c for c in kept if c[0][-1] == EOS]
        beams = [c for c in kept if c[0][-1] != EOS]
    finished += beams
    finished.sort(key=lambda c: -(c[1] / max(1, len(c[0]) - 1)))
    return finished[0][0]


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

    @pytest.mark.parametrize("beam_size", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed,eos_bias", [(18, 0.0), (19, 0.0), (20, 0.0), (21, 1.0)])
    def test_beam_equals_full_prefix_oracle(self, seed, eos_bias, beam_size):
        """Beams that share a parent must not see each other's tokens."""
        model = CKLModel(tiny_config(), seed=seed)
        model.params["out.b"].data[EOS] += eos_bias
        sample = tiny_sample()
        expected = beam_oracle(model, sample, beam_size, model.config.max_target_len)
        if eos_bias:
            assert expected[-1] == EOS and len(expected) < model.config.max_target_len
        assert model.generate(sample, beam_size=beam_size) == expected

    def test_terminates_with_eos_or_budget(self):
        for seed in (19, 20, 21):
            out = CKLModel(tiny_config(), seed=seed).generate(tiny_sample(), max_len=6)
            assert out[0] == BOS
            assert EOS not in out[1:-1], seed
            assert out[-1] == EOS or len(out) == 6, seed

    @pytest.mark.parametrize("beam_size", [1, 3])
    def test_max_len_none_or_zero_means_max_target_len(self, beam_size):
        model = CKLModel(tiny_config(), seed=19)
        outs = [model.generate(tiny_sample(), beam_size, max_len) for max_len in (None, 0, 8)]
        assert outs[0] == outs[1] == outs[2]

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
