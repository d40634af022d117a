import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ckl
from ckl import checkpoint as ckpt
from ckl.cli import main
from ckl.corpus import Vocabulary, build_vocab, load_jsonl, tokenize
from ckl.metrics import bleu_n, rouge_l_corpus
from ckl.model import CKLModel, ModelConfig
from ckl.tensor import Tensor
from ckl.synthetic import overfit_corpus, retrieval_corpus, write_jsonl

TINY = {
    "d_model": 16,
    "n_heads": 2,
    "n_encoder_layers": 1,
    "n_decoder_layers": 1,
    "d_ff": 32,
    "max_source_len": 64,
    "max_target_len": 12,
    "learning_rate": 0.002,
    "epochs": 2,
    "batch_size": 4,
}


def write_config(path, **overrides):
    values = dict(TINY)
    values.update(overrides)
    path.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
    return str(path)


@pytest.fixture
def workspace(tmp_path):
    data = tmp_path / "data.jsonl"
    write_jsonl(data, overfit_corpus(8, seed=0))
    config = write_config(tmp_path / "run.cfg")
    return tmp_path, str(data), config


def run_prep(ws):
    tmp, data, config = ws
    out = tmp / "prep"
    assert main(["prep", "--data", data, "--out", str(out), "--config", config]) == 0
    return out


class TestPrep:
    def test_writes_labels_for_every_sample(self, workspace):
        out = run_prep(workspace)
        labels = (out / "labels.jsonl").read_text().splitlines()
        assert len(labels) == 8
        assert (out / "vocab.txt").exists()
        assert (out / "tfidf_stats.json").exists()
        assert (out / "effective_config.txt").exists()

    def test_rerun_byte_identical(self, workspace):
        out = run_prep(workspace)
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        out2 = run_prep(workspace)
        assert {p.name: p.read_bytes() for p in out2.iterdir()} == first

    def test_missing_data_file_exits_2(self, tmp_path):
        code = main(["prep", "--data", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_empty_data_exits_2_and_writes_nothing(self, tmp_path, capsys):
        data = tmp_path / "empty.jsonl"
        data.write_text("")
        out = tmp_path / "o"
        assert main(["prep", "--data", str(data), "--out", str(out)]) == 2
        assert "zero samples" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_key=1\n")
        code = main(["prep", "--data", "x", "--out", str(tmp_path / "o"), "--config", str(cfg)])
        assert code == 2

    @pytest.mark.parametrize(
        "line, message",
        [("epochs 3", "line 2: expected key=value"),
         ("use_ck_dep=maybe", "line 2: config key use_ck_dep: expected a boolean, got 'maybe'")],
        ids=["no-equals", "bad-boolean"],
    )
    def test_bad_config_line_exits_2_naming_it(self, workspace, capsys, line, message):
        tmp, data, _config = workspace
        cfg = tmp / "bad.cfg"
        cfg.write_text(f"# comment\n{line}\n")
        out = tmp / "o"
        assert main(["prep", "--data", data, "--out", str(out), "--config", str(cfg)]) == 2
        assert f"{cfg}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_max_size_exits_2_and_writes_nothing(self, workspace, capsys):
        tmp, data, _config = workspace
        out = tmp / "o"
        assert main(["prep", "--data", data, "--out", str(out), "--max-size", "-1"]) == 2
        assert "max_size must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def train(self, ws, *extra):
        tmp, data, config = ws
        prep = run_prep(ws)
        out = tmp / ("train" + str(len(extra)))
        code = main(
            [
                "train",
                "--data",
                data,
                "--vocab",
                str(prep / "vocab.txt"),
                "--out",
                str(out),
                "--config",
                config,
                *extra,
            ]
        )
        return code, out, prep

    def test_writes_checkpoint_and_trace(self, workspace):
        code, out, _ = self.train(workspace)
        assert code == 0
        assert (out / "checkpoint.ckpt").exists()
        header = (out / "trace.csv").read_text().splitlines()
        assert header[0] == "# effective_samples=8 total_samples=8"
        assert header[1].startswith("step,")

    def test_data_fraction_recorded(self, workspace):
        code, out, _ = self.train(workspace, "--data-fraction", "0.5")
        assert code == 0
        first = (out / "trace.csv").read_text().splitlines()[0]
        assert first == "# effective_samples=4 total_samples=8"

    def test_forward_overflow_exits_3_and_writes_no_results(self, workspace, capsys):
        # Step 1 moves every parameter by about the learning rate, so step 2's
        # forward pass overflows inside an op and raises NumericError.
        code, out, _ = self.train(workspace, "--learning-rate", "1e300")
        assert code == 3
        assert "step 2: linear produced NaN/Inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("learning_rate", "nan"), ("learning_rate", "inf"), ("grad_clip", "nan")],
        ids=["lr-nan", "lr-inf", "grad-clip-nan"],
    )
    def test_non_finite_step_settings_exit_2_and_write_nothing(self, workspace, capsys, key, value):
        config = write_config(workspace[0] / "override.cfg", epochs=1, batch_size=8, **{key: value})
        code, out, _ = self.train(workspace, "--config", config)
        assert code == 2
        assert f"{key} must be" in capsys.readouterr().err
        assert not out.exists()

    def train_with_vocab_lines(self, workspace, change):
        """``ckl train`` on the prep vocabulary after ``change`` edits its lines (bytes)."""
        tmp, data, config = workspace
        vocab = run_prep(workspace) / "vocab.txt"
        vocab.write_bytes(b"\n".join(change(vocab.read_bytes().splitlines())) + b"\n")
        out = tmp / "train"
        code = main(["train", "--data", data, "--vocab", str(vocab), "--out", str(out), "--config", config])
        assert not out.exists()
        return code, vocab

    def test_non_utf8_vocabulary_byte_names_the_line(self, workspace, capsys):
        damage = lambda lines: lines[:7] + [b"\xff" + lines[7]] + lines[8:]  # noqa: E731
        code, vocab = self.train_with_vocab_lines(workspace, damage)
        assert code == 2
        assert f"{vocab}: line 8: not UTF-8 text" in capsys.readouterr().err

    def test_duplicate_vocabulary_token_names_the_line(self, workspace, capsys):
        # The blank line keeps its position: it holds an id of its own.
        damage = lambda lines: lines[:7] + [b""] + lines[7:] + [lines[6]]  # noqa: E731
        code, vocab = self.train_with_vocab_lines(workspace, damage)
        assert code == 2
        lines = vocab.read_bytes().splitlines()
        expected = f"{vocab}: line {len(lines)}: token {lines[6].decode()!r} duplicates line 7"
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage, got",
        [(lambda lines: lines[:2] + [b"<oops>"] + lines[3:], "'<oops>'"), (lambda lines: lines[:2], "end of file")],
        ids=["wrong-token", "short-file"],
    )
    def test_damaged_reserved_header_names_the_line(self, workspace, capsys, damage, got):
        code, vocab = self.train_with_vocab_lines(workspace, damage)
        assert code == 2
        assert f"{vocab}: line 3: expected reserved token '<eos>', got {got}" in capsys.readouterr().err

    def test_missing_data_path_exits_2_and_writes_nothing(self, workspace, capsys):
        tmp, _data, config = workspace
        prep = run_prep(workspace)
        out = tmp / "train"
        assert main(["train", "--vocab", str(prep / "vocab.txt"), "--out", str(out), "--config", config]) == 2
        assert "missing required path: data" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_training_set_exits_2_and_writes_nothing(self, workspace, capsys):
        tmp, _data, config = workspace
        prep = run_prep(workspace)
        empty = tmp / "blank.jsonl"
        empty.write_text("\n  \n\n")
        out = tmp / "train"
        argv = ["train", "--data", str(empty), "--vocab", str(prep / "vocab.txt"), "--out", str(out), "--config", config]
        assert main(argv) == 2
        assert f"{empty}: no samples to train on" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_checkpoint_makes_generate_exit_4(self, workspace, capsys):
        # One Adam step at learning rate 1e300 leaves finite but huge parameters.
        code, run, prep = self.train(workspace, "--epochs", "1", "--batch-size", "8", "--learning-rate", "1e300")
        assert code == 0
        tmp, data, _config = workspace
        checkpoint, out = run / "checkpoint.ckpt", tmp / "gen"
        argv = ["generate", "--data", data, "--vocab", str(prep / "vocab.txt"),
                "--checkpoint", str(checkpoint), "--out", str(out)]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert f"{checkpoint}: the model cannot run" in err and "NaN/Inf" in err
        assert not out.exists()

    def test_no_ck_dep_recorded_and_enforced(self, workspace):
        tmp, data, config = workspace
        code, out, prep = self.train(workspace, "--no-ck-dep")
        assert code == 0
        cfg, _ = ckpt.load(out / "checkpoint.ckpt")
        assert cfg.use_ck_dep is False
        conflicting = write_config(tmp / "conflict.cfg", use_ck_dep="true")
        gen_out = tmp / "gen_mismatch"
        base = [
            "generate",
            "--data",
            data,
            "--vocab",
            str(prep / "vocab.txt"),
            "--checkpoint",
            str(out / "checkpoint.ckpt"),
            "--out",
            str(gen_out),
            "--config",
            conflicting,
        ]
        assert main(base) == 4  # explicitly asserted flag contradicts the checkpoint
        assert main(base + ["--force"]) == 0
        # a config that never mentions the flag follows the checkpoint
        assert main(base[:-1] + [config]) == 0

    def test_default_epoch_count(self, tmp_path):
        data = tmp_path / "d.jsonl"
        write_jsonl(data, overfit_corpus(4, seed=1))
        config = write_config(tmp_path / "run.cfg")
        # drop the epochs override so the default of 10 applies
        lines = [l for l in (tmp_path / "run.cfg").read_text().splitlines() if not l.startswith("epochs")]
        (tmp_path / "run.cfg").write_text("\n".join(lines) + "\n")
        prep_out = tmp_path / "p"
        assert main(["prep", "--data", str(data), "--out", str(prep_out), "--config", config]) == 0
        out = tmp_path / "t"
        assert (
            main(
                [
                    "train",
                    "--data",
                    str(data),
                    "--vocab",
                    str(prep_out / "vocab.txt"),
                    "--out",
                    str(out),
                    "--config",
                    config,
                ]
            )
            == 0
        )
        rows = (out / "trace.csv").read_text().splitlines()[2:]
        assert len(rows) == 10  # one batch per epoch, ten epochs

    def test_determinism_byte_identical_traces(self, workspace):
        code_a, out_a, prep = self.train(workspace)
        tmp, data, config = workspace
        out_b = tmp / "train_b"
        code_b = main(
            [
                "train",
                "--data",
                data,
                "--vocab",
                str(prep / "vocab.txt"),
                "--out",
                str(out_b),
                "--config",
                config,
            ]
        )
        assert code_a == 0 and code_b == 0
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()


@pytest.fixture
def trained(workspace):
    tmp, data, config = workspace
    prep = run_prep(workspace)
    out = tmp / "train"
    assert (
        main(
            [
                "train",
                "--data",
                data,
                "--vocab",
                str(prep / "vocab.txt"),
                "--out",
                str(out),
                "--config",
                config,
            ]
        )
        == 0
    )
    return tmp, data, config, str(prep / "vocab.txt"), str(out / "checkpoint.ckpt")


class TestGenerate:
    def test_one_record_per_sample_with_weights(self, trained):
        tmp, data, config, vocab, checkpoint = trained
        out = tmp / "gen"
        code = main(
            ["generate", "--data", data, "--vocab", vocab, "--checkpoint", checkpoint, "--out", str(out)]
        )
        assert code == 0
        records = [json.loads(l) for l in (out / "generations.jsonl").read_text().splitlines()]
        samples = load_jsonl(data)
        assert len(records) == len(samples)
        for rec, sample in zip(records, samples):
            assert len(rec["clwr"]) == len(sample.context)
            assert len(rec["clwk"]) == len(sample.context)
            assert len(rec["klw"]) == len(sample.knowledge)
            assert isinstance(rec["text"], str)

    def test_beam_one_equals_greedy(self, trained):
        tmp, data, config, vocab, checkpoint = trained
        outs = []
        for i, flags in enumerate((["--beam", "1"], ["--greedy"], ["--beam", "0"])):
            out = tmp / f"gen{i}"
            assert (
                main(
                    ["generate", "--data", data, "--vocab", vocab, "--checkpoint", checkpoint, "--out", str(out)]
                    + flags
                )
                == 0
            )
            outs.append((out / "generations.jsonl").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_training_only_config_keys_leave_decoding_to_the_checkpoint(self, trained):
        """The label and loss settings are training's: a config that holds them decodes as one without them."""
        tmp, data, config, vocab, checkpoint = trained
        argv = ["generate", "--data", data, "--vocab", vocab, "--checkpoint", checkpoint]
        training_only = write_config(tmp / "training_only.cfg", top_n=2, use_loss_klw=0)
        assert main(argv + ["--out", str(tmp / "given"), "--config", training_only]) == 0
        assert main(argv + ["--out", str(tmp / "plain")]) == 0
        assert (tmp / "given" / "generations.jsonl").read_bytes() == (tmp / "plain" / "generations.jsonl").read_bytes()

    def test_negative_beam_exits_2_and_writes_nothing(self, trained, capsys):
        tmp, data, config, vocab, checkpoint = trained
        out = tmp / "gen"
        argv = ["generate", "--data", data, "--vocab", vocab, "--checkpoint", checkpoint, "--out", str(out)]
        assert main(argv + ["--beam", "-2"]) == 2
        assert "beam_size must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("beam", ["1", "-2"])
    def test_empty_data_exits_2_naming_it_and_writes_nothing(self, trained, capsys, beam):
        tmp, _data, config, vocab, checkpoint = trained
        empty, out = tmp / "blank.jsonl", tmp / "gen"
        empty.write_text("\n  \n\n")
        argv = ["generate", "--data", str(empty), "--vocab", vocab, "--checkpoint", checkpoint, "--out", str(out)]
        assert main(argv + ["--beam", beam]) == 2
        err = capsys.readouterr().err
        assert (f"{empty}: no samples to generate from" if beam == "1" else "beam_size must be >= 1") in err
        assert not out.exists()

    def test_missing_out_path_exits_2_and_writes_nothing(self, trained, capsys):
        tmp, data, config, vocab, checkpoint = trained
        before = sorted(tmp.rglob("*"))
        assert main(["generate", "--data", data, "--vocab", vocab, "--checkpoint", checkpoint]) == 2
        assert "missing required path: out" in capsys.readouterr().err
        assert sorted(tmp.rglob("*")) == before

    def test_post_filling_the_source_still_generates(self, tmp_path):
        post = " ".join(f"p{i}" for i in range(10))
        records = [{"context": [post], "knowledge": ["alpha beta", "gamma"], "response": "alpha"}]
        data = tmp_path / "data.jsonl"
        data.write_text("".join(json.dumps(r) + "\n" for r in records))
        vocab = build_vocab(load_jsonl(data))
        vocab.save(tmp_path / "vocab.txt")
        config = ModelConfig(
            vocab_size=len(vocab), d_model=8, n_heads=2, n_encoder_layers=1,
            n_decoder_layers=1, d_ff=8, max_source_len=12, max_target_len=6,
        )
        ckpt.save(tmp_path / "model.ckpt", config, CKLModel(config, seed=0).parameters())
        out = tmp_path / "gen"
        argv = ["generate", "--data", str(data), "--vocab", str(tmp_path / "vocab.txt"),
                "--checkpoint", str(tmp_path / "model.ckpt"), "--out", str(out)]
        with pytest.warns(UserWarning):
            assert main(argv) == 0
        (record,) = [json.loads(l) for l in (out / "generations.jsonl").read_text().splitlines()]
        assert len(record["klw"]) == 1 and len(record["clwr"]) == 1


def _field_offsets(blob):
    """Offsets of the first config key, first config value, first parameter
    name and first parameter's ndim field in a checkpoint."""
    def u32(at):
        return struct.unpack_from("<I", blob, at)[0]

    n_config = u32(4)
    key_at = 12
    value_at = key_at + u32(8) + 4
    pos = 8
    for _ in range(n_config):
        pos += 4 + u32(pos)
        pos += 4 + u32(pos)
    name_at = pos + 8
    return {"key": key_at, "value": value_at, "name": name_at, "ndim": name_at + u32(pos + 4)}


def _damage(blob, field):
    at = _field_offsets(blob)[field]
    if field == "ndim":  # same values, but 65 dimensions: more than numpy allows
        ndim = struct.unpack_from("<I", blob, at)[0]
        dims = struct.unpack_from(f"<{ndim}Q", blob, at + 4)
        padded = struct.pack("<I", 65) + struct.pack("<65Q", *dims, *[1] * (65 - ndim))
        return blob[:at] + padded + blob[at + 4 + 8 * ndim :]
    return blob[:at] + b"\xff" + blob[at + 1 :]  # never valid UTF-8


class TestDamagedCheckpoint:
    @pytest.mark.parametrize("field", ["key", "value", "name", "ndim"])
    def test_parse_failure_is_checkpoint_error_and_exit_4(self, tmp_path, field):
        data = tmp_path / "data.jsonl"
        write_jsonl(data, overfit_corpus(2, seed=0))
        vocab = build_vocab(load_jsonl(data))
        vocab.save(tmp_path / "vocab.txt")
        config = ModelConfig(vocab_size=len(vocab), d_model=8, n_heads=2, d_ff=8, max_source_len=64)
        path = tmp_path / "model.ckpt"
        ckpt.save(path, config, CKLModel(config, seed=0).parameters())
        ckpt.load(path)
        path.write_bytes(_damage(path.read_bytes(), field))
        with pytest.raises(ckpt.CheckpointError):
            ckpt.load(path)
        argv = ["generate", "--data", str(data), "--vocab", str(tmp_path / "vocab.txt"),
                "--checkpoint", str(path), "--out", str(tmp_path / "gen")]
        assert main(argv) == 4

    def test_trailing_byte_exits_4_naming_it_and_writes_nothing(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        write_jsonl(data, overfit_corpus(2, seed=0))
        vocab = build_vocab(load_jsonl(data))
        vocab.save(tmp_path / "vocab.txt")
        config = ModelConfig(vocab_size=len(vocab), d_model=8, n_heads=2, d_ff=8, max_source_len=64)
        path = tmp_path / "model.ckpt"
        ckpt.save(path, config, CKLModel(config, seed=0).parameters())
        path.write_bytes(path.read_bytes() + b"\0")
        out = tmp_path / "gen"
        argv = ["generate", "--data", str(data), "--vocab", str(tmp_path / "vocab.txt"),
                "--checkpoint", str(path), "--out", str(out)]
        assert main(argv) == 4
        assert f"{path}: 1 trailing bytes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameter_exits_4_and_writes_nothing(self, tmp_path, capsys, value):
        data = tmp_path / "data.jsonl"
        write_jsonl(data, overfit_corpus(2, seed=0))
        vocab = build_vocab(load_jsonl(data))
        vocab.save(tmp_path / "vocab.txt")
        config = ModelConfig(vocab_size=len(vocab), d_model=8, n_heads=2, d_ff=8, max_source_len=64)
        params = CKLModel(config, seed=0).parameters()
        params["out.b"].data[3] = value
        path = tmp_path / "model.ckpt"
        ckpt.save(path, config, params)
        with pytest.raises(ckpt.CheckpointError, match="out.b holds NaN or Inf"):
            ckpt.load(path)
        out = tmp_path / "gen"
        argv = ["generate", "--data", str(data), "--vocab", str(tmp_path / "vocab.txt"),
                "--checkpoint", str(path), "--out", str(out)]
        assert main(argv) == 4
        assert "out.b holds NaN or Inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra_ids, damage, message",
        [
            (0, lambda params: params.pop("out.b"),
             "parameter names do not match the model: extra none; missing out.b"),
            (0, lambda params: params.update({"enc0.attn.wk.b": Tensor(np.zeros(8))}),
             "parameter names do not match the model: extra enc0.attn.wk.b; missing none"),
            (0, lambda params: params.update({"out.b": Tensor(np.zeros(3))}), "parameter out.b has shape (3,)"),
            (1, lambda params: None, "but vocabulary has"),
        ],
        ids=["names", "extra", "shapes", "vocab-size"],
    )
    def test_checkpoint_not_matching_its_config_or_vocabulary_exits_4(self, tmp_path, capsys, extra_ids, damage,
                                                                       message):
        data = tmp_path / "data.jsonl"
        write_jsonl(data, overfit_corpus(2, seed=0))
        vocab = build_vocab(load_jsonl(data))
        vocab.save(tmp_path / "vocab.txt")
        config = ModelConfig(vocab_size=len(vocab) + extra_ids, d_model=8, n_heads=2, d_ff=8, max_source_len=64)
        params = dict(CKLModel(config, seed=0).parameters())
        damage(params)
        path = tmp_path / "model.ckpt"
        ckpt.save(path, config, params)
        out = tmp_path / "gen"
        argv = ["generate", "--data", str(data), "--vocab", str(tmp_path / "vocab.txt"),
                "--checkpoint", str(path), "--out", str(out)]
        assert main(argv) == 4
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestEvaluate:
    def make_reference_generations(self, tmp, data):
        gen = tmp / "refs.jsonl"
        with open(gen, "w") as fh:
            for s in load_jsonl(data):
                tokens = tokenize(s.response)
                fh.write(json.dumps({"tokens": tokens, "text": " ".join(tokens)}) + "\n")
        return str(gen)

    def test_self_evaluation_is_perfect(self, workspace, tmp_path):
        tmp, data, _config = workspace
        gen = self.make_reference_generations(tmp, data)
        out = tmp / "eval"
        assert main(["evaluate", "--generations", gen, "--data", data, "--out", str(out)]) == 0
        rows = {
            line.split(",")[0]: float(line.split(",")[1])
            for line in (out / "metrics.csv").read_text().splitlines()[1:]
        }
        for k in range(1, 5):
            assert rows[f"bleu-{k}"] == pytest.approx(1.0)
        assert rows["rouge-l"] == pytest.approx(1.0)
        assert not any(key.startswith("embedding") for key in rows)

    @pytest.mark.parametrize("length", [0, 1], ids=["all-empty", "all-one-token"])
    def test_generations_without_k_grams_write_an_undefined_distinct_row(self, tmp_path, length):
        """With no k-gram in any generation (a model that emits EOS first gives no 1-gram), distinct-k reads 0.0
        over no pairs, every pair excluded, and every other row is written as usual."""
        data = tmp_path / "data.jsonl"
        write_jsonl(data, overfit_corpus(3, seed=0))
        gen = tmp_path / "gen.jsonl"
        gen.write_text("".join(json.dumps({"tokens": ["a"] * length}) + "\n" for _ in range(3)))
        out = tmp_path / "eval"
        assert main(["evaluate", "--generations", str(gen), "--data", str(data), "--out", str(out)]) == 0
        rows = {line.split(",")[0]: line.split(",")[1:] for line in (out / "metrics.csv").read_text().splitlines()[1:]}
        assert list(rows) == ["bleu-1", "bleu-2", "bleu-3", "bleu-4", "rouge-l", "distinct-1", "distinct-2"]
        assert rows["distinct-1"] == (["0.0", "0", "3"] if length == 0 else [repr(1 / 3), "3", "0"])
        assert rows["distinct-2"] == ["0.0", "0", "3"]

    def test_matches_library_values(self, trained):
        tmp, data, config, vocab, checkpoint = trained
        gen_out = tmp / "gen_eval"
        assert (
            main(
                ["generate", "--data", data, "--vocab", vocab, "--checkpoint", checkpoint, "--out", str(gen_out)]
            )
            == 0
        )
        out = tmp / "eval2"
        assert (
            main(
                [
                    "evaluate",
                    "--generations",
                    str(gen_out / "generations.jsonl"),
                    "--data",
                    data,
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        records = [json.loads(l) for l in (gen_out / "generations.jsonl").read_text().splitlines()]
        cands = [r["tokens"] for r in records]
        refs = [tokenize(s.response) for s in load_jsonl(data)]
        rows = {
            line.split(",")[0]: float(line.split(",")[1])
            for line in (out / "metrics.csv").read_text().splitlines()[1:]
        }
        assert rows["bleu-2"] == pytest.approx(bleu_n(cands, refs, 2), abs=1e-12)
        assert rows["rouge-l"] == pytest.approx(rouge_l_corpus(cands, refs), abs=1e-12)

    def test_embeddings_add_rows(self, workspace):
        tmp, data, _config = workspace
        gen = self.make_reference_generations(tmp, data)
        vec = tmp / "vectors.txt"
        vocab_tokens = set()
        for s in load_jsonl(data):
            vocab_tokens.update(tokenize(s.response))
        rng = np.random.default_rng(0)
        with open(vec, "w") as fh:
            for tok in sorted(vocab_tokens):
                vals = " ".join(repr(float(v)) for v in rng.uniform(-1, 1, 4))
                fh.write(f"{tok} {vals}\n")
        out = tmp / "eval3"
        assert (
            main(
                ["evaluate", "--generations", gen, "--data", data, "--embeddings", str(vec), "--out", str(out)]
            )
            == 0
        )
        content = (out / "metrics.csv").read_text()
        assert "embedding-average" in content and "embedding-greedy" in content

    def test_bad_embeddings_file_exits_2_and_writes_nothing(self, workspace, capsys):
        tmp, data, _config = workspace
        gen = self.make_reference_generations(tmp, data)
        vec = tmp / "vectors.txt"
        vec.write_text("alpha 0.5 0.25\nbeta 0.5 oops\n")
        out = tmp / "eval4"
        argv = ["evaluate", "--generations", gen, "--data", data, "--embeddings", str(vec)]
        assert main(argv + ["--out", str(out)]) == 2
        assert "vectors.txt: line 2: bad vector" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text,problem", [
        ("alpha 0.5 0.25 1\nb nan 1 2\n", "a non-finite value"),
        ("alpha 0.5 0.25\nbeta 0.5\n", "1 values, not the first line's 2"),
    ], ids=["nan", "short"])
    def test_embeddings_line_the_metrics_cannot_use_exits_2_naming_it(self, workspace, capsys, text, problem):
        tmp, data, _config = workspace
        gen = self.make_reference_generations(tmp, data)
        vec = tmp / "vectors.txt"
        vec.write_text(text)
        out = tmp / "eval5"
        argv = ["evaluate", "--generations", gen, "--data", data, "--embeddings", str(vec), "--out", str(out)]
        assert main(argv) == 2
        assert f"vectors.txt: line 2: bad vector: {problem}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("reader", ["data", "config", "generations", "embeddings"])
    def test_non_utf8_byte_exits_2_naming_the_line(self, workspace, capsys, reader):
        tmp, data, config = workspace
        gen = self.make_reference_generations(tmp, data)
        vec = tmp / "vectors.txt"
        vec.write_text("alpha 0.5 0.25\nbeta 0.5 0.75\n")
        path = {"data": data, "config": config, "generations": gen, "embeddings": str(vec)}[reader]
        lines = Path(path).read_bytes().splitlines(keepends=True)
        lines[1] = lines[1][:3] + b"\xff" + lines[1][3:]
        with open(path, "wb") as fh:
            fh.write(b"".join(lines))
        out = tmp / "eval"
        argv = ["evaluate", "--generations", gen, "--data", data, "--embeddings", str(vec),
                "--config", config, "--out", str(out)]
        assert main(argv) == 2
        assert f"{path}: line 2: not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    def test_misaligned_counts_exit_2(self, workspace):
        tmp, data, _config = workspace
        gen = tmp / "short.jsonl"
        gen.write_text(json.dumps({"tokens": ["hi"]}) + "\n")
        assert main(["evaluate", "--generations", str(gen), "--data", data, "--out", str(tmp / "e")]) == 2


class TestAnalyze:
    def test_reranked_curve_monotone_and_untrained_spearman_near_zero(self, tmp_path):
        samples = retrieval_corpus(220, n_knowledge=3, seed=5)
        data = tmp_path / "data.jsonl"
        write_jsonl(data, samples)
        vocab = build_vocab(samples)
        (tmp_path / "vocab.txt").write_text("")
        vocab.save(tmp_path / "vocab.txt")
        config = ModelConfig(
            vocab_size=len(vocab),
            d_model=16,
            n_heads=2,
            n_encoder_layers=1,
            n_decoder_layers=1,
            d_ff=32,
            max_source_len=48,
            max_target_len=4,
        )
        model = CKLModel(config, seed=123)
        ckpt.save(tmp_path / "model.ckpt", config, model.parameters())
        gen_out = tmp_path / "gen"
        assert (
            main(
                [
                    "generate",
                    "--data",
                    str(data),
                    "--vocab",
                    str(tmp_path / "vocab.txt"),
                    "--checkpoint",
                    str(tmp_path / "model.ckpt"),
                    "--out",
                    str(gen_out),
                ]
            )
            == 0
        )
        out = tmp_path / "analysis"
        assert (
            main(
                [
                    "analyze",
                    "--generations",
                    str(gen_out / "generations.jsonl"),
                    "--data",
                    str(data),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        rows = [line.split(",") for line in (out / "analysis.csv").read_text().splitlines()[1:]]
        curve = [float(r[2]) for r in rows if r[0] == "p_at_n_reranked"]
        assert curve == sorted(curve)
        assert curve[-1] == pytest.approx(1.0)  # window >= l covers everything
        spearman_klw = next(float(r[2]) for r in rows if r[0] == "spearman_klw")
        assert abs(spearman_klw) <= 0.15

    def test_missing_weights_exit_2(self, workspace):
        tmp, data, _config = workspace
        gen = tmp / "noweights.jsonl"
        with open(gen, "w") as fh:
            for _s in load_jsonl(data):
                fh.write(json.dumps({"tokens": ["hi"]}) + "\n")
        assert main(["analyze", "--generations", str(gen), "--data", data, "--out", str(tmp / "a")]) == 2


class TestVocabularyFileContract:
    def test_header_then_content_ids(self, workspace):
        out = run_prep(workspace)
        lines = (out / "vocab.txt").read_text().splitlines()
        assert lines[:5] == ["<pad>", "<bos>", "<eos>", "<unk>", "<sep>"]
        vocab = Vocabulary.load(out / "vocab.txt")
        for i, token in enumerate(lines):
            assert vocab.token_to_id[token] == i


def test_every_command_runs_on_non_ascii_paths_under_an_ascii_locale(tmp_path):
    """Under the C locale with UTF-8 mode and locale coercion off, Python decodes a non-ASCII path with
    surrogateescape; every file is still written as UTF-8, and the echoed paths keep their bytes."""
    root = tmp_path / "données"
    root.mkdir()
    data, config = root / "été.jsonl", root / "réglages.cfg"
    write_jsonl(data, overfit_corpus(4, seed=0))
    write_config(config, epochs=1)
    src = [str(Path(ckl.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "PYTHONPATH": os.pathsep.join(src)}
    paths = {name: os.fsencode(root / name) for name in ("prep", "train", "generate", "evaluate", "analyze")}
    generations = os.fsencode(root / "generate" / "generations.jsonl")
    flags = {
        "prep": [b"--config", os.fsencode(config)],
        "train": [b"--config", os.fsencode(config), b"--vocab", os.fsencode(root / "prep" / "vocab.txt")],
        "generate": [b"--vocab", os.fsencode(root / "prep" / "vocab.txt"),
                     b"--checkpoint", os.fsencode(root / "train" / "checkpoint.ckpt")],
        "evaluate": [b"--generations", generations],
        "analyze": [b"--generations", generations],
    }
    for command, out in paths.items():
        argv = [sys.executable, "-m", "ckl.cli", command.encode(), b"--data", os.fsencode(data), *flags[command],
                b"--out", out]
        run = subprocess.run(argv, env=env, capture_output=True)
        assert run.returncode == 0, (command, run.stderr)
        echoed = (root / command / "effective_config.txt").read_bytes().splitlines()
        assert b"out=" + out in echoed and b"data=" + os.fsencode(data) in echoed
