from dataclasses import asdict

import numpy as np
import pytest

from ckl import checkpoint, training
from ckl.checkpoint import CheckpointError
from ckl.corpus import BOS, EOS, EncodedSample, build_vocab
from ckl.model import CKLModel, ModelConfig
from ckl.synthetic import overfit_corpus
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
        mcfg = small_model_config(len(vocab), use_loss_klw=False)
        tcfg = TrainingConfig(learning_rate=1e-3, epochs=2, batch_size=4, seed=1)
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

        backward = Tape.backward
        calls = []

        def poisoned_backward(tape, loss):
            grads = backward(tape, loss)
            calls.append(loss)
            if len(calls) == tcfg.batch_size + 2:  # second sample of step 2
                leaf = grads[models[0].params["out.b"].node_id]
                leaf.data = np.full_like(leaf.data, np.nan)
            return grads

        monkeypatch.setattr(training, "CKLModel", recording_model)
        monkeypatch.setattr(Tape, "backward", poisoned_backward)
        with pytest.raises(TrainingAbort, match="gradient norm") as err:
            train(samples, vocab, mcfg, tcfg)
        assert err.value.step == 2
        for name, p in models[0].parameters().items():
            assert np.array_equal(p.data, after_step_1[name].data), name


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
            sample_losses(model, sample, label)
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
