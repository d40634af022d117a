import itertools
import math

import numpy as np
import pytest

from ckl.corpus import build_vocab
from ckl.losses import AwlParams, awl, mse, nll
from ckl.model import CKLModel, ModelConfig
from ckl.synthetic import overfit_corpus, retrieval_corpus
from ckl.tensor import NumericError, ShapeError, Tape, Tensor
from ckl.training import TrainingConfig, prepare_training_set, split_packs

from oracle_ops import awl_chain, mse_chain, nll_chain, scale, sum_all


class TestMse:
    def test_zero_on_equal(self):
        x = Tensor([0.3, 0.7])
        assert mse(x, [0.3, 0.7]).item() == 0.0

    def test_unit_case(self):
        assert mse(Tensor([1.0, 0.0]), [0.0, 1.0]).item() == pytest.approx(1.0)

    def test_quarter(self):
        assert mse(Tensor([0.5]), [1.0]).item() == pytest.approx(0.25)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            mse(Tensor([1.0]), [1.0, 2.0])

    def test_gradient(self, gradcheck):
        rng = np.random.default_rng(0)
        pred = rng.uniform(-2, 2, 5)
        gt = rng.uniform(0, 1, 5)
        gradcheck(lambda p: mse(p, gt), [pred])

    def test_non_negative(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            pred = Tensor(rng.uniform(-2, 2, 4))
            gt = rng.uniform(-2, 2, 4)
            assert mse(pred, gt).item() >= 0.0


class TestNll:
    def test_uniform_logits(self):
        t, v = 3, 7
        loss = nll(Tensor(np.zeros((t, v))), [0, 3, 6])
        assert loss.item() == pytest.approx(t * math.log(v))

    def test_confident_logits(self):
        logits = np.full((2, 4), -50.0)
        logits[0, 1] = 50.0
        logits[1, 2] = 50.0
        assert nll(Tensor(logits), [1, 2]).item() == pytest.approx(0.0, abs=1e-12)

    def test_closed_form(self):
        loss = nll(Tensor([[math.log(3.0), 0.0]]), [0])
        assert loss.item() == pytest.approx(math.log(4.0 / 3.0))

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            nll(Tensor(np.zeros((1, 3))), [3])

    def test_gradient(self, gradcheck):
        rng = np.random.default_rng(1)
        logits = rng.uniform(-2, 2, (4, 5))
        gradcheck(lambda x: nll(x, [0, 2, 4, 1]), [logits])

    def test_non_negative(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            logits = rng.uniform(-3, 3, (3, 6))
            assert nll(Tensor(logits), [0, 1, 2]).item() >= 0.0

    def test_equals_the_four_record_chain_on_random_draws(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            t, v = rng.integers(1, 13), rng.integers(2, 81)
            logits = Tensor(rng.normal(0.0, rng.choice([0.1, 1.0, 10.0, 100.0]), (t, v)), requires_grad=True)
            assert_nll_equals_chain(lambda: logits, rng.integers(0, v, t), [logits], rng.uniform(-3, 3))

    @pytest.mark.parametrize("corpus, model", [
        (lambda: overfit_corpus(16), dict(d_model=64, n_heads=2, n_encoder_layers=2, n_decoder_layers=2, d_ff=256,
                                          max_source_len=64)),
        (lambda: retrieval_corpus(40, n_knowledge=8), dict(d_model=32, n_heads=2, n_encoder_layers=1,
                                                           n_decoder_layers=1, d_ff=64, max_source_len=96)),
    ], ids=["overfit", "wide"])
    def test_equals_the_four_record_chain_on_the_benchmark_packs(self, corpus, model):
        """Every pack of training's split of each corpus, on the benchmark's model for it, every parameter a leaf."""
        samples = corpus()
        vocab = build_vocab(samples)
        config = ModelConfig(vocab_size=len(vocab), **model)
        encoded, _labels = prepare_training_set(samples, vocab, config, TrainingConfig())
        net = CKLModel(config, seed=5)
        leaves = list(net.parameters().values())
        packs = split_packs(np.arange(len(encoded)), encoded, config.d_model)
        assert len(packs) > 1
        for pack in packs:
            pack_samples = [encoded[i] for i in pack]
            targets = [y for sample in pack_samples for y in sample.response_ids[1:]]
            assert_nll_equals_chain(lambda: net.forward(*pack_samples)[0], targets, leaves, 1.0 / len(pack))


def assert_nll_equals_chain(build_logits, targets, leaves, upstream):
    """``nll`` of the logits ``build_logits()`` makes is bit-equal to ``oracle_ops.nll_chain``'s, and each leaf's
    gradient of the loss scaled by ``upstream`` (as training scales it) agrees within 1e-15 of its largest entry."""
    runs = []
    for loss_fn in (nll, nll_chain):
        with Tape() as tape:
            loss = loss_fn(build_logits(), targets)
            grads = tape.backward(scale(loss, upstream))
        runs.append((loss.data, [grads.get(leaf.node_id) for leaf in leaves]))
    (fused, fused_grads), (chain, chain_grads) = runs
    assert fused.shape == chain.shape == () and fused.tobytes() == chain.tobytes()
    for got, want in zip(fused_grads, chain_grads):
        assert (got is None) == (want is None)
        assert want is None or np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


class TestAwl:
    def losses(self, values=(0.4, 0.3, 0.2, 1.5)):
        return [Tensor(np.asarray(v)) for v in values]

    def test_unit_deltas_give_half_sum(self):
        params = AwlParams()
        vals = (0.4, 0.3, 0.2, 1.5)
        total = awl(*self.losses(vals), params)
        assert total.item() == 0.5 * sum(vals)

    def test_gradient_wrt_s(self, gradcheck):
        vals = (0.4, 0.3, 0.2, 1.5)

        def build(s1, s2, s3, s4):
            params = AwlParams()
            for i, s in enumerate((s1, s2, s3, s4)):
                params.s[i] = s
            return awl(*self.losses(vals), params)

        rng = np.random.default_rng(3)
        gradcheck(build, [rng.uniform(-1, 1, ()) for _ in range(4)])

    def test_analytic_s_gradient(self):
        params = AwlParams()
        vals = (0.4, 0.3, 0.2, 1.5)
        with Tape() as tape:
            total = awl(*self.losses(vals), params)
            grads = tape.backward(total)
        for i, l_i in enumerate(vals):
            expected = -l_i / 2.0 + 0.5  # at s_i = 0
            assert grads[params.s[i].node_id].item() == pytest.approx(expected)

    def test_disabled_flag_removes_term_and_gradient(self):
        params = AwlParams()
        with Tape() as tape:
            total = awl(*self.losses(), params, use_loss_klw=False)
            grads = tape.backward(total)
        assert params.s[2].node_id not in grads
        # result must not depend on l_klw
        other = awl(*self.losses((0.4, 0.3, 99.0, 1.5)), params, use_loss_klw=False)
        assert total.item() == other.item()

    def test_gradient_flows_to_component_losses(self, gradcheck):
        params = AwlParams()
        gradcheck(
            lambda a, b, c, d: awl(sum_all(a), sum_all(b), sum_all(c), sum_all(d), params),
            [np.array([0.4]), np.array([0.3]), np.array([0.2]), np.array([1.5])],
        )

    def test_minimum_at_exp_s_equal_loss(self):
        # d awl / d s_i = -L_i exp(-s_i)/2 + 1/2 vanishes at s_i = ln L_i
        l_i = 0.7
        params = AwlParams()
        params.s[0] = Tensor(np.asarray(math.log(l_i)), requires_grad=True)
        with Tape() as tape:
            total = awl(*self.losses((l_i, 0.1, 0.1, 0.1)), params)
            grads = tape.backward(total)
        assert grads[params.s[0].node_id].item() == pytest.approx(0.0, abs=1e-12)

    def test_an_overflowing_weight_is_a_numeric_error(self):
        params = AwlParams()
        params.s[1] = Tensor(np.asarray(-800.0), requires_grad=True)  # exp(800) overflows
        with Tape(), np.errstate(all="raise"), pytest.raises(NumericError, match="awl"):
            awl(*self.losses(), params)


SWITCHES = list(itertools.product((True, False), repeat=3))  # use_loss_clwr, use_loss_clwk, use_loss_klw


def losses_and_gradients(fused: bool, draw: int):
    """Training's loss arithmetic on random packs, by the fused records or by ``oracle_ops``' chains: per pack,
    the packed ``mse`` and three more losses, each the pack's sum, totalled under one switch setting by ``awl``
    with the pack size, or by the chain of means, ``awl_chain`` and the scale back by the pack size. One to three
    packs backward into one dict, as a step's do. Returns every loss value, and every leaf's gradient (None when
    it gets none)."""
    rng = np.random.default_rng(draw)
    params = AwlParams()
    for s in params.s:
        s.data[...] = rng.normal(0.0, 2.0)
    flags = SWITCHES[draw % len(SWITCHES)]
    values, leaves, grads = [], list(params.s), {}
    for _pack in range(rng.integers(1, 4)):
        size = int(rng.integers(1, 9))
        lengths = rng.integers(1, 6, size)
        pred = Tensor(rng.uniform(0.0, 1.0, lengths.sum()), requires_grad=True)
        target = Tensor(rng.integers(0, 2, lengths.sum()).astype(np.float64), requires_grad=bool(draw % 2))
        others = [Tensor(rng.uniform(0.0, 3.0), requires_grad=True) for _ in range(3)]
        with Tape() as tape:
            if fused:
                loss = mse(pred, target, lengths)
                total = awl(loss, *others, params, *flags, n=size)
            else:
                loss = mse_chain(pred, target, lengths)
                total = scale(awl_chain(*(scale(x, 1.0 / size) for x in (loss, *others)), params, *flags), size)
            tape.backward(total, grads)
        values += [loss.data, total.data]
        leaves += [pred, target, *others]
    return values, [grads.get(leaf.node_id) for leaf in leaves]


def test_mse_and_awl_equal_their_chains_bit_for_bit():
    """In value and in every gradient, its type too (the log-variances' stay numpy scalars), over random draws
    of packed lengths, every switch setting, tracked and constant targets, and pack scales of 1-8."""
    for draw in range(2000):
        (fused, fused_grads), (chain, chain_grads) = losses_and_gradients(True, draw), losses_and_gradients(False, draw)
        assert [v.tobytes() for v in fused] == [v.tobytes() for v in chain]
        for got, want in zip(fused_grads, chain_grads):
            assert type(got) is type(want) and (want is None or np.asarray(got).tobytes() == np.asarray(want).tobytes())

