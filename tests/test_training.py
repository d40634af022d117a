import tracemalloc
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest

from ckl import checkpoint, training
from ckl.checkpoint import CheckpointError
from ckl.corpus import BOS, EOS, DialogueSample, EncodedSample, build_vocab
from ckl.losses import AwlParams, awl, nll
from ckl.model import CKLModel, ModelConfig
from ckl.synthetic import overfit_corpus, retrieval_corpus
from ckl.tensor import Tape, Tensor
from ckl.training import (
    AdamState,
    TrainingAbort,
    TrainingConfig,
    adam_step,
    clip_gradients,
    mean_per_token_nll,
    prepare_training_set,
    sample_losses,
    train,
    write_trace,
)
from ckl.weak_supervision import PseudoGroundTruth


def small_model_config(vocab_size, **overrides):
    base = dict(
        vocab_size=vocab_size,
        d_model=16,
        n_heads=2,
        n_encoder_layers=1,
        n_decoder_layers=1,
        d_ff=32,
        max_source_len=64,
        max_target_len=16,
    )
    base.update(overrides)
    return ModelConfig(**base)


class TestAdam:
    def test_first_step_magnitude(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        state = AdamState()
        lr = 0.01
        adam_step({"p": p}, {"p": np.ones(4)}, state, lr)
        expected = lr / (1.0 + AdamState.EPS)
        assert np.allclose(p.data, -expected)

    def test_zero_grads_leave_params_and_decay_moments(self):
        p = Tensor(np.ones(3), requires_grad=True)
        state = AdamState()
        adam_step({"p": p}, {"p": np.zeros(3)}, state, 0.1)
        assert np.array_equal(p.data, np.ones(3))
        adam_step({"p": p}, {"p": np.ones(3)}, state, 0.1)
        m_after = state.m["p"].copy()
        adam_step({"p": p}, {"p": np.zeros(3)}, state, 0.1)
        assert np.all(np.abs(state.m["p"]) < np.abs(m_after))

    def test_deterministic(self):
        def run():
            p = Tensor(np.full(2, 0.3), requires_grad=True)
            state = AdamState()
            for i in range(5):
                adam_step({"p": p}, {"p": np.full(2, 0.1 * (i + 1))}, state, 0.05)
            return p.data.copy()

        assert np.array_equal(run(), run())

    def test_in_place_update_is_the_formula_bit_for_bit(self):
        """Against ``p - lr * (m / c1) / (sqrt(v / c2) + eps)`` with new moment arrays,
        over steps with a missing gradient and a 0-d leaf given a numpy scalar."""
        b1, b2, eps = AdamState.BETA1, AdamState.BETA2, AdamState.EPS
        rng = np.random.default_rng(9)
        shapes = {"w": (3, 4), "b": (5,), "s": ()}
        params = {name: Tensor(rng.normal(size=shape), requires_grad=True) for name, shape in shapes.items()}
        p, m, v = ({name: t.data.copy() for name, t in params.items()}, {}, {})
        state = AdamState()
        for t in range(1, 6):
            grads = {name: rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3) for name, shape in shapes.items()}
            grads["s"] = np.float64(grads["s"])
            if t % 2:
                del grads["b"]
            adam_step(params, {name: np.array(g, copy=True) if np.ndim(g) else g for name, g in grads.items()},
                      state, 0.01)
            for name in shapes:
                g = grads.get(name, np.zeros(shapes[name]))
                m[name] = b1 * m.get(name, 0.0) + (1 - b1) * g
                v[name] = b2 * v.get(name, 0.0) + (1 - b2) * g * g
                p[name] = p[name] - 0.01 * (m[name] / (1 - b1**t)) / (np.sqrt(v[name] / (1 - b2**t)) + eps)
                assert params[name].data.tobytes() == np.asarray(p[name]).tobytes(), (t, name)
                assert state.m[name].tobytes() == np.asarray(m[name]).tobytes(), (t, name)
                assert state.v[name].tobytes() == np.asarray(v[name]).tobytes(), (t, name)
        assert params["s"].data.shape == ()

    def test_shape_mismatch(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ValueError):
            adam_step({"p": p}, {"p": np.zeros(4)}, AdamState(), 0.1)

    def test_clip_gradients(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        norm = clip_gradients(grads, 1.0)
        assert norm == pytest.approx(5.0)
        clipped = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        assert clipped == pytest.approx(1.0)


class TestPrepareTrainingSet:
    def test_data_fraction_rounds_up(self):
        samples = overfit_corpus(16, seed=0) * 7  # 112 raw samples
        samples = samples[:100]
        vocab = build_vocab(samples)
        cfg = small_model_config(len(vocab))
        encoded, labels = prepare_training_set(
            samples, vocab, cfg, TrainingConfig(epochs=1, data_fraction=0.5)
        )
        assert len(encoded) == 50 and len(labels) == 50

    def test_subset_fixed_by_seed(self):
        samples = overfit_corpus(16, seed=0)
        vocab = build_vocab(samples)
        cfg = small_model_config(len(vocab))
        tcfg = TrainingConfig(epochs=1, data_fraction=0.25, seed=3)
        a, _ = prepare_training_set(samples, vocab, cfg, tcfg)
        b, _ = prepare_training_set(samples, vocab, cfg, tcfg)
        assert [s.response_ids for s in a] == [s.response_ids for s in b]


class TestTrainLoop:
    @pytest.fixture(scope="class")
    @staticmethod
    def tiny_run():
        samples = overfit_corpus(8, seed=0)
        vocab = build_vocab(samples)
        mcfg = small_model_config(len(vocab))
        tcfg = TrainingConfig(learning_rate=1e-3, epochs=4, batch_size=4, seed=1)
        return samples, vocab, mcfg, tcfg, train(samples, vocab, mcfg, tcfg)

    def test_trace_shape_and_header(self, tiny_run, tmp_path):
        _, _, _, _, result = tiny_run
        assert len(result.trace) == 8  # 4 epochs x 2 steps
        assert result.effective_n == 8
        p = tmp_path / "trace.csv"
        write_trace(p, result.trace, result.effective_n, 8)
        lines = p.read_text().splitlines()
        assert lines[0] == "# effective_samples=8 total_samples=8"
        assert lines[1].startswith("step,l_clwr,l_clwk,l_klw,l_nll,awl_total")
        assert len(lines) == 2 + 8

    def test_same_seed_identical_traces(self, tiny_run):
        samples, vocab, mcfg, tcfg, result = tiny_run
        again = train(samples, vocab, mcfg, tcfg)
        assert [r.csv() for r in again.trace] == [r.csv() for r in result.trace]

    def test_enabled_awl_params_move(self, tiny_run):
        _, _, _, _, result = tiny_run
        final = result.awl_params.values()
        assert any(abs(v) > 1e-8 for v in final)

    def test_ablation_keeps_trace_but_freezes_s3(self):
        samples = overfit_corpus(8, seed=0)
        vocab = build_vocab(samples)
        mcfg = small_model_config(len(vocab))
        tcfg = TrainingConfig(learning_rate=1e-3, epochs=2, batch_size=4, seed=1, use_loss_klw=False)
        result = train(samples, vocab, mcfg, tcfg)
        assert all(np.isfinite(r.l_klw) for r in result.trace)
        assert result.awl_params.values()[2] == 0.0
        assert abs(result.awl_params.values()[3]) > 1e-8

    def test_nll_decreases_over_windows(self):
        samples = overfit_corpus(8, seed=0)
        vocab = build_vocab(samples)
        mcfg = small_model_config(len(vocab))
        tcfg = TrainingConfig(learning_rate=2e-3, epochs=30, batch_size=4, seed=2)
        result = train(samples, vocab, mcfg, tcfg)
        nlls = [r.l_nll for r in result.trace]
        windows = [np.mean(nlls[i : i + 20]) for i in range(0, len(nlls) - 19, 20)]
        assert all(b <= a + 1e-9 for a, b in zip(windows, windows[1:]))

    def test_mean_per_token_nll_positive(self, tiny_run):
        _, _, _, _, result = tiny_run
        value = mean_per_token_nll(result.model, result.encoded)
        assert value > 0.0

    def test_nan_gradient_aborts_before_adam(self, tiny_run, monkeypatch):
        samples, vocab, mcfg, tcfg, _ = tiny_run
        after_step_1 = train(samples, vocab, mcfg, tcfg, max_steps=1).model.parameters()
        models = []

        def recording_model(cfg, seed):
            models.append(CKLModel(cfg, seed=seed))
            return models[-1]

        backward, adam = Tape.backward, training.adam_step
        steps, poisoned = [], []

        def counting_adam(*args):
            steps.append(args)
            return adam(*args)

        def poisoned_backward(tape, loss, grads=None):
            grads = backward(tape, loss, grads)
            if len(steps) == 1 and not poisoned:  # the first backward after the first adam_step
                poisoned.append(loss)
                nid = models[0].params["out.b"].node_id
                grads[nid] = np.full_like(grads[nid], np.nan)
            return grads

        monkeypatch.setattr(training, "CKLModel", recording_model)
        monkeypatch.setattr(training, "adam_step", counting_adam)
        monkeypatch.setattr(Tape, "backward", poisoned_backward)
        with pytest.raises(TrainingAbort, match="gradient norm") as err:
            train(samples, vocab, mcfg, tcfg)
        assert err.value.step == 2 and len(steps) == 1 and poisoned
        for name, p in models[0].parameters().items():
            assert np.array_equal(p.data, after_step_1[name].data), name

    @pytest.mark.parametrize("budget", [training.PACK_BUDGET, 50 * 16])  # one pack, and packs of 50 rows × d_model 16
    def test_mean_per_token_nll_equals_the_per_sample_loop(self, tiny_run, monkeypatch, budget):
        _, _, _, _, result = tiny_run
        monkeypatch.setattr(training, "PACK_BUDGET", budget)
        total = sum(nll(result.model.forward(s)[0], s.response_ids[1:]).item() for s in result.encoded)
        tokens = sum(len(s.response_ids) - 1 for s in result.encoded)
        got = mean_per_token_nll(result.model, result.encoded)
        assert abs(got - total / tokens) <= 1e-12 * (total / tokens)


def mixed_shape_samples():
    """Five samples with different (utterance, sentence) counts; each response
    copies the first knowledge sentence."""
    base = overfit_corpus(5, seed=0)
    samples = []
    for i, (m, l) in enumerate([(1, 1), (2, 3), (3, 2), (1, 4), (2, 2)]):  # noqa: E741
        s = base[i]
        context = ["good morning", "nice to see you", s.context[-1]][-m:]
        knowledge = [s.response] + [b.response for b in base if b is not s][: l - 1]
        samples.append(DialogueSample(context=context, knowledge=knowledge, response=s.response))
    return samples


def first_step_gradients(monkeypatch, samples, vocab, mcfg, tcfg) -> dict[str, np.ndarray]:
    """The gradients the first training step hands to ``clip_gradients``."""
    clipped, clip = [], training.clip_gradients

    def recording_clip(grads, max_norm):
        clipped.append({name: np.array(g, copy=True) for name, g in grads.items()})
        return clip(grads, max_norm)

    monkeypatch.setattr(training, "clip_gradients", recording_clip)
    train(samples, vocab, mcfg, tcfg, max_steps=1)
    monkeypatch.setattr(training, "clip_gradients", clip)
    assert len(clipped) == 1
    return clipped[0]


def assert_gradients_agree(got, expected, rtol=1e-12):
    """Each gradient within ``rtol`` of its own largest entry."""
    assert set(got) == set(expected)
    for name, g in expected.items():
        err = np.max(np.abs(np.asarray(got[name]) - g))
        assert err <= rtol * np.max(np.abs(g)), name


@pytest.mark.parametrize("use_ck_dep", [True, False], ids=["ck-dep", "no-ck-dep"])
def test_step_gradients_equal_per_sample_backward_mean(monkeypatch, use_ck_dep):
    """The gradients one training step clips, from packs of its three samples,
    are the mean, over its batch, of each sample's own ``Tape.backward`` of its
    AWL total."""
    samples = mixed_shape_samples()
    vocab = build_vocab(samples)
    mcfg = small_model_config(len(vocab), use_ck_dep=use_ck_dep)
    tcfg = TrainingConfig(learning_rate=1e-3, epochs=1, batch_size=3, seed=4)
    packs = []
    losses = training.sample_losses

    def recording_losses(model, samples, labels):
        packs.append(list(zip(samples, labels)))
        return losses(model, samples, labels)

    monkeypatch.setattr(training, "sample_losses", recording_losses)
    got = first_step_gradients(monkeypatch, samples, vocab, mcfg, tcfg)
    assert sum(map(len, packs)) == 3 and max(map(len, packs)) > 1
    batch = [pair for pack in packs for pair in pack]
    assert len({len(s.segment_lengths) for s, _ in batch}) > 1

    model, awl_params = CKLModel(mcfg, seed=tcfg.seed), AwlParams()
    leaves = {**model.parameters(), **awl_params.named()}
    expected: dict[str, np.ndarray] = {}
    for sample, label in batch:
        with Tape() as tape:
            total = awl(
                *losses(model, [sample], [label]),
                awl_params,
                use_loss_clwr=tcfg.use_loss_clwr,
                use_loss_clwk=tcfg.use_loss_clwk,
                use_loss_klw=tcfg.use_loss_klw,
            )
            grads = tape.backward(total)
        for name, leaf in leaves.items():
            if leaf.node_id in grads:
                expected[name] = expected.get(name, 0.0) + grads[leaf.node_id]
    expected = {name: g / len(batch) for name, g in expected.items()}

    assert any(name.startswith("klw.ck.") for name in got) == use_ck_dep
    assert_gradients_agree(got, expected)


@pytest.mark.parametrize("use_ck_dep", [True, False], ids=["ck-dep", "no-ck-dep"])
def test_a_full_and_a_partial_pack_give_the_step_of_packs_of_one(monkeypatch, use_ck_dep):
    """Batch 5 as one pack, and as packs of 3 and 2, gives the step of packs of one."""
    samples = mixed_shape_samples()
    vocab = build_vocab(samples)
    mcfg = small_model_config(len(vocab), use_ck_dep=use_ck_dep)
    tcfg = TrainingConfig(learning_rate=1e-3, epochs=1, batch_size=5, seed=4)
    rows = sum(len(e.source_ids()) for e in prepare_training_set(samples, vocab, mcfg, tcfg)[0])
    sizes, losses = [], training.sample_losses
    monkeypatch.setattr(training, "sample_losses", lambda model, s, l: sizes.append(len(s)) or losses(model, s, l))
    steps = {}
    for pack_rows, layout in ((rows, (5,)), (-(-rows // 2), (3, 2)), (1, (1,) * 5)):
        sizes.clear()
        monkeypatch.setattr(training, "PACK_BUDGET", pack_rows * mcfg.d_model)
        steps[layout] = first_step_gradients(monkeypatch, samples, vocab, mcfg, tcfg)
        assert tuple(sizes) == layout
    assert_gradients_agree(steps[3, 2], steps[(1,) * 5])
    assert_gradients_agree(steps[5,], steps[(1,) * 5])


@pytest.mark.parametrize("budget", [16, 7 * 16, 60 * 16, 1000, 300 * 16, 10**6 * 16])  # rows × d_model 16
def test_split_packs_cover_the_batch_in_order_in_near_equal_packs(monkeypatch, budget):
    samples = overfit_corpus(16, seed=0)
    vocab = build_vocab(samples)
    mcfg = small_model_config(len(vocab))
    encoded, _ = prepare_training_set(samples, vocab, mcfg, TrainingConfig(seed=3))
    monkeypatch.setattr(training, "PACK_BUDGET", budget)
    for batch in (np.arange(16), np.random.default_rng(budget).permutation(16)[:11], np.array([5])):
        packs = training.split_packs(batch, encoded, mcfg.d_model)
        rows = sum(len(encoded[i].source_ids()) for i in batch)
        assert np.array_equal(np.concatenate(packs), batch)
        assert len(packs) == min(len(batch), -(-rows * mcfg.d_model // budget))
        assert min(map(len, packs)) >= 1 and max(map(len, packs)) - min(map(len, packs)) <= 1


# The benchmark's two models (perfbench/workloads.py) and the criteria-5/6 model (tests/test_acceptance.py).
DEEP = dict(d_model=64, n_heads=2, n_encoder_layers=2, n_decoder_layers=2, d_ff=256, max_source_len=64)
SMALL = dict(d_model=32, n_heads=2, n_encoder_layers=1, n_decoder_layers=1, d_ff=64, max_source_len=96)
FIXTURE = dict(SMALL, max_source_len=48)
OVERFIT_BATCH = (lambda: overfit_corpus(16, seed=0), DEEP)
WIDE_BATCH = (lambda: retrieval_corpus(48, n_knowledge=8, seed=0)[:24], SMALL)


@pytest.mark.parametrize("corpus,model,layout", [
    (*OVERFIT_BATCH, [8, 8]),
    (*WIDE_BATCH, [8, 8, 8]),
    (lambda: retrieval_corpus(500, n_knowledge=3, seed=1)[:25], FIXTURE, [13, 12]),
], ids=["overfit", "wide", "criteria-5-6"])
def test_split_packs_of_the_benchmark_batches(corpus, model, layout):
    """16 samples of 24-26 source rows at d_model 64 run as 8 + 8, 24 of 72-74 rows at d_model 32 as 3 packs of 8,
    and 25 of 32-34 rows at d_model 32 as 2 packs."""
    samples = corpus()
    vocab = build_vocab(samples)
    mcfg = small_model_config(len(vocab), **model)
    encoded, _ = prepare_training_set(samples, vocab, mcfg, TrainingConfig(seed=3))
    assert [len(pack) for pack in training.split_packs(np.arange(len(encoded)), encoded, mcfg.d_model)] == layout


def held_at_first_backward(corpus, model) -> tuple[int, int]:
    """The first pack's size, and the traced bytes it holds at the start of its backward beyond those held as its
    forward began, in the first step of the benchmark batch ``corpus()`` on ``model``."""
    samples = corpus()
    vocab = build_vocab(samples)
    marks, losses, backward = [], training.sample_losses, Tape.backward

    def marked_losses(model, samples, labels):
        marks.append((len(samples), tracemalloc.get_traced_memory()[0]))
        return losses(model, samples, labels)

    def marked_backward(tape, loss, grads=None):
        marks.append(tracemalloc.get_traced_memory()[0])
        return backward(tape, loss, grads)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "sample_losses", marked_losses)
        patch.setattr(Tape, "backward", marked_backward)
        tracemalloc.start()
        try:
            train(samples, vocab, small_model_config(len(vocab), **model),
                  TrainingConfig(epochs=1, batch_size=len(samples)), max_steps=1)
        finally:
            tracemalloc.stop()
    (size, before), at_backward = marks[:2]
    return size, at_backward - before


def test_a_wide_pack_holds_no_more_at_its_backward_than_an_overfit_pack():
    """The pack budget counts rows × d_model: a d_model-32 pack of 8 samples of 72 rows holds no more, as its
    backward starts, than a d_model-64 pack of 8 samples of 24 rows."""
    overfit_size, overfit = held_at_first_backward(*OVERFIT_BATCH)
    wide_size, wide = held_at_first_backward(*WIDE_BATCH)
    assert overfit_size == wide_size == 8
    assert 0 < wide <= overfit


def test_a_packed_step_writes_each_loss_as_one_record(monkeypatch):
    """Each pack of 8 of the criterion-4 batch writes 3 ``mse``, 1 ``cross_entropy`` and 1 ``awl`` record, and no
    elementwise chain: 98 records, where the chains of ``mse`` and ``awl`` made it 131 and the pack's means 103."""
    samples, model = OVERFIT_BATCH[0](), OVERFIT_BATCH[1]
    vocab = build_vocab(samples)
    tapes = []

    class KeptTape(Tape):
        def __enter__(self):
            tapes.append(self)
            return super().__enter__()

    monkeypatch.setattr(training, "Tape", KeptTape)
    train(samples, vocab, small_model_config(len(vocab), **model), TrainingConfig(epochs=1, batch_size=16), max_steps=1)
    assert len(tapes) == 2
    for tape in tapes:
        kinds = Counter(record[0] for record in tape.records)
        assert (kinds["mse"], kinds["cross_entropy"], kinds["awl"]) == (3, 1, 1)
        assert not kinds.keys() & {"sub", "mul", "exp", "sum_all", "matmul", "scale"}
        assert len(tape.records) == 98


@pytest.mark.xfail(
    strict=True,
    reason="clip_gradients scales in place, which leaves the 0-d AWL s gradients unscaled",
)
def test_clipped_gradients_have_at_most_the_clip_norm(monkeypatch):
    samples = overfit_corpus(8, seed=0)
    vocab = build_vocab(samples)
    tcfg = TrainingConfig(learning_rate=1e-3, epochs=1, batch_size=4, seed=1, grad_clip=1e-3)
    applied = []
    adam = training.adam_step

    def recording_adam(params, grads, state, lr):
        applied.append(np.sqrt(sum(float(np.sum(np.square(g))) for g in grads.values())))
        return adam(params, grads, state, lr)

    monkeypatch.setattr(training, "adam_step", recording_adam)
    train(samples, vocab, small_model_config(len(vocab)), tcfg, max_steps=1)
    assert applied[0] <= tcfg.grad_clip * (1 + 1e-12)


def test_tape_records_do_not_depend_on_the_number_of_segments():
    """The encoder memory is built once, so one more utterance or sentence
    adds rows to tensors, not records to the tape."""
    model = CKLModel(small_model_config(40), seed=0)

    def records(m, l):  # noqa: E741
        sample = EncodedSample(
            context_ids=[[5 + i, 6] for i in range(m)],
            knowledge_ids=[[20 + j] for j in range(l)],
            response_ids=[BOS, 5, 20, EOS],
            segment_lengths=[2] * m + [1] * l,
        )
        label = PseudoGroundTruth(
            gt_clwr=[0] * (m - 1) + [1],
            gt_clwk=[0] * (m - 1) + [1],
            gt_klw=[1] + [0] * (l - 1),
            top1_rk_index=0,
        )
        with Tape() as tape:
            sample_losses(model, [sample], [label])
        return len(tape.records)

    assert records(1, 1) == records(2, 8)


class TestCheckpoint:
    def make_model(self):
        cfg = small_model_config(vocab_size=20)
        return cfg, CKLModel(cfg, seed=5)

    def test_round_trip_bit_exact(self, tmp_path):
        cfg, model = self.make_model()
        p = tmp_path / "model.ckpt"
        checkpoint.save(p, cfg, model.parameters())
        config, arrays = checkpoint.load(p)
        assert config == cfg
        for name, tensor in model.parameters().items():
            assert np.array_equal(arrays[name], tensor.data)

    def test_restore_model_forward_identical(self, tmp_path):
        samples = overfit_corpus(4, seed=3)
        vocab = build_vocab(samples)
        cfg = small_model_config(len(vocab))
        tcfg = TrainingConfig(learning_rate=1e-3, epochs=1, batch_size=4, seed=4)
        result = train(samples, vocab, cfg, tcfg)
        p = tmp_path / "model.ckpt"
        params = dict(result.model.parameters())
        params.update(result.awl_params.named())
        checkpoint.save(p, cfg, params)
        restored = checkpoint.restore_model(p, expected=asdict(cfg))
        before = result.model.forward(result.encoded[0])[0].data
        after = restored.forward(result.encoded[0])[0].data
        assert np.array_equal(before, after)

    def test_restore_draws_nothing_and_holds_the_saved_arrays(self, tmp_path, monkeypatch):
        cfg, model = self.make_model()
        p = tmp_path / "model.ckpt"
        checkpoint.save(p, cfg, model.parameters())
        inits = CKLModel.initialisers

        def undrawable(config):
            return {name: (shape, lambda rng: pytest.fail("restore drew a parameter")) for name, (shape, _) in inits(config).items()}

        monkeypatch.setattr(CKLModel, "initialisers", staticmethod(undrawable))
        restored = checkpoint.restore_model(p)
        assert list(restored.params) == list(model.params)
        for name, tensor in restored.params.items():
            assert tensor.requires_grad and tensor.data.flags.writeable
            assert np.array_equal(tensor.data, model.params[name].data)

    def test_truncated_file_rejected(self, tmp_path):
        cfg, model = self.make_model()
        p = tmp_path / "model.ckpt"
        checkpoint.save(p, cfg, model.parameters())
        blob = p.read_bytes()
        p.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            checkpoint.load(p)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "model.ckpt"
        p.write_bytes(b"NOPE" + b"\0" * 50)
        with pytest.raises(CheckpointError):
            checkpoint.load(p)

    def test_config_mismatch_rejected(self, tmp_path):
        cfg, model = self.make_model()
        p = tmp_path / "model.ckpt"
        checkpoint.save(p, cfg, model.parameters())
        other = small_model_config(vocab_size=20, d_model=32, d_ff=64)
        with pytest.raises(CheckpointError) as err:
            checkpoint.restore_model(p, expected=asdict(other))
        assert "d_model" in str(err.value)

    def test_force_overrides_mismatch(self, tmp_path):
        cfg, model = self.make_model()
        p = tmp_path / "model.ckpt"
        checkpoint.save(p, cfg, model.parameters())
        other = small_model_config(vocab_size=20, use_ck_dep=False)
        restored = checkpoint.restore_model(p, expected=asdict(other), force=True)
        assert restored.config == cfg
