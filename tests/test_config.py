"""Config keys, flags, labels and restore each have one definition."""

import inspect
import json
from dataclasses import fields

import numpy as np
import pytest

from ckl import checkpoint as ckpt
from ckl.cli import SCHEMA, build_parser, main
from ckl.corpus import build_vocab, load_jsonl, read_json_lines
from ckl.model import CKLModel, ModelConfig
from ckl.synthetic import retrieval_corpus, write_jsonl
from ckl.training import TrainingConfig, prepare_training_set
from ckl.weak_supervision import PseudoGroundTruth

ACTION_FLAGS = {"--greedy", "--force", "--config"}


def subparsers():
    (action,) = [a for a in build_parser()._actions if a.dest == "command"]
    return action.choices


class TestSingleSource:
    def test_dataclass_fields_are_config_keys_with_their_defaults(self):
        model_fields = [f for f in fields(ModelConfig) if f.name != "vocab_size"]
        for f in model_fields + list(fields(TrainingConfig)):
            assert f.name in SCHEMA, f.name
            assert SCHEMA[f.name] == f.default and type(SCHEMA[f.name]) is type(f.default)

    def test_vocabulary_keys_are_build_vocab_defaults(self):
        params = inspect.signature(build_vocab).parameters
        for key in ("min_freq", "max_size"):
            assert SCHEMA[key] == params[key].default and type(SCHEMA[key]) is int, key

    def test_every_flag_is_a_config_key_or_an_action_flag(self):
        for command, sub in subparsers().items():
            for action in sub._actions:
                for flag in action.option_strings:
                    if flag in ("-h", "--help") or flag in ACTION_FLAGS:
                        continue
                    assert action.dest in SCHEMA, (command, flag)
                    if flag.startswith("--no-"):
                        assert SCHEMA[action.dest] is True, (command, flag)
                    else:
                        assert flag == "--" + action.dest.replace("_", "-"), (command, flag)

    def test_seed_flag_only_on_train(self):
        with_seed = {
            command
            for command, sub in subparsers().items()
            if any("--seed" in a.option_strings for a in sub._actions)
        }
        assert with_seed == {"train"}

    def test_prep_labels_equal_training_labels(self, tmp_path):
        samples = retrieval_corpus(40, n_knowledge=4, seed=3)
        data = tmp_path / "data.jsonl"
        write_jsonl(data, samples)
        settings = {"m_max": 1, "max_source_len": 20, "max_target_len": 6, "top_n": 2, "seed": 7}
        config = tmp_path / "run.cfg"
        config.write_text("".join(f"{k}={v}\n" for k, v in settings.items()))
        out = tmp_path / "prep"
        assert main(["prep", "--data", str(data), "--out", str(out), "--config", str(config)]) == 0
        prep_labels = [PseudoGroundTruth(obj["gt_clwr"], obj["gt_clwk"], obj["gt_klw"], obj["top1_rk"])
                       for _lineno, obj in read_json_lines(out / "labels.jsonl")]

        vocab = build_vocab(samples)
        seed, top_n = settings.pop("seed"), settings.pop("top_n")
        model_cfg = ModelConfig(vocab_size=len(vocab), **settings)
        _encoded, labels = prepare_training_set(
            samples, vocab, model_cfg, TrainingConfig(seed=seed, top_n=top_n)
        )
        # prepare_training_set visits the samples in one seeded shuffle.
        order = np.random.default_rng(seed).permutation(len(samples))
        in_sample_order = [None] * len(samples)
        for label, i in zip(labels, order):
            in_sample_order[i] = label
        assert prep_labels == in_sample_order
        assert any(len(label.gt_klw) < 4 for label in prep_labels)  # the settings bite


def test_source_budget_below_three_rejected(tmp_path, capsys):
    with pytest.raises(ValueError, match="max_source_len"):
        ModelConfig(vocab_size=10, max_source_len=2)
    data = tmp_path / "data.jsonl"
    write_jsonl(data, retrieval_corpus(4, seed=0))
    vocab = tmp_path / "vocab.txt"
    build_vocab(load_jsonl(data)).save(vocab)
    config = tmp_path / "run.cfg"
    config.write_text("max_source_len=2\n")
    argv = ["train", "--data", str(data), "--vocab", str(vocab), "--out", str(tmp_path / "t"),
            "--config", str(config)]
    assert main(argv) == 2
    assert "max_source_len must be >= 3" in capsys.readouterr().err


def write_run(tmp_path, records, **model):
    """A dataset, its vocabulary and an untrained checkpoint; returns generate's argv."""
    data = tmp_path / "data.jsonl"
    data.write_text("".join(json.dumps(r) + "\n" for r in records))
    vocab = build_vocab(load_jsonl(data))
    vocab.save(tmp_path / "vocab.txt")
    config = ModelConfig(
        vocab_size=len(vocab), d_model=8, n_heads=2, n_encoder_layers=1,
        n_decoder_layers=1, d_ff=8, max_target_len=6, **model,
    )
    ckpt.save(tmp_path / "model.ckpt", config, CKLModel(config, seed=0).parameters())
    return ["generate", "--data", str(data), "--vocab", str(tmp_path / "vocab.txt"),
            "--checkpoint", str(tmp_path / "model.ckpt"), "--out", str(tmp_path / "gen")]


def effective_config(out):
    lines = (out / "effective_config.txt").read_text().splitlines()
    return dict(line.split("=", 1) for line in lines)


class TestGenerate:
    def test_post_longer_than_the_source_still_generates(self, tmp_path):
        post = " ".join(f"p{i}" for i in range(30))
        records = [{"context": [post], "knowledge": ["alpha beta", "gamma"], "response": "alpha"}]
        argv = write_run(tmp_path, records, max_source_len=8)
        with pytest.warns(UserWarning):
            assert main(argv) == 0
        (record,) = [json.loads(l) for l in (tmp_path / "gen" / "generations.jsonl").open()]
        assert len(record["klw"]) == 1 and len(record["clwr"]) == 1

    def test_effective_config_echoes_the_checkpoint(self, tmp_path):
        records = [{"context": ["a b"], "knowledge": ["c d"], "response": "c"}]
        argv = write_run(tmp_path, records, max_source_len=12, m_max=3)
        assert main(argv) == 0
        echoed = effective_config(tmp_path / "gen")
        assert echoed["max_source_len"] == "12" and echoed["m_max"] == "3"
        assert echoed["d_model"] == "8" and echoed["max_target_len"] == "6"
        assert set(echoed) == set(SCHEMA)

        conflicting = tmp_path / "conflict.cfg"
        conflicting.write_text("max_source_len=40\n")
        assert main(argv + ["--config", str(conflicting)]) == 4
        assert main(argv + ["--config", str(conflicting), "--force"]) == 0
        assert effective_config(tmp_path / "gen")["max_source_len"] == "12"


# Under max_source_len=12 the second sample keeps 2 of its 3 sentences.
TRUNCATED_RECORDS = [
    {"context": ["a b"], "knowledge": ["k1 k2"], "response": "k1"},
    {"context": ["a b"], "knowledge": ["k1 k2 k3", "k4 k5 k6", "k7 k8 k9"], "response": "k4"},
]


def analyze_argv(tmp_path):
    return ["analyze", "--generations", str(tmp_path / "gen" / "generations.jsonl"),
            "--data", str(tmp_path / "data.jsonl"), "--out", str(tmp_path / "an")]


def test_analyze_names_the_line_and_the_encode_keys(tmp_path, capsys):
    argv = write_run(tmp_path, TRUNCATED_RECORDS, max_source_len=12)
    assert main(argv) == 0
    analyze = analyze_argv(tmp_path)
    assert main(analyze) == 0  # reads max_source_len=12 from gen/effective_config.txt
    (tmp_path / "gen" / "effective_config.txt").unlink()
    assert main(analyze) == 2
    err = capsys.readouterr().err
    assert "generations.jsonl: line 2:" in err
    assert "m_max" in err and "max_source_len" in err
    config = tmp_path / "model.cfg"
    config.write_text("max_source_len=12\n")
    assert main(analyze + ["--config", str(config)]) == 0


def test_analyze_prefers_explicit_keys_and_rejects_a_damaged_echo(tmp_path, capsys):
    assert main(write_run(tmp_path, TRUNCATED_RECORDS, max_source_len=12)) == 0
    analyze = analyze_argv(tmp_path)
    config = tmp_path / "default.cfg"
    config.write_text("max_source_len=1024\n")
    assert main(analyze + ["--config", str(config)]) == 2  # the explicit value wins
    assert "max_source_len=1024" in capsys.readouterr().err
    echoed = tmp_path / "gen" / "effective_config.txt"
    n_lines = len(echoed.read_text().splitlines())
    echoed.write_text(echoed.read_text() + "max_source_len=twelve\n")
    assert main(analyze) == 2
    err = capsys.readouterr().err
    assert f"effective_config.txt: line {n_lines + 1}: config key max_source_len" in err
    assert not (tmp_path / "an").exists()


def test_encode_settings_below_their_least_are_refused_before_anything_is_written(tmp_path, capsys):
    """``m_max=0`` would keep every utterance, and ``max_target_len=1`` no room for BOS and EOS."""
    with pytest.raises(ValueError, match="max_target_len must be >= 2"):
        ModelConfig(vocab_size=10, max_target_len=1)
    assert main(write_run(tmp_path, TRUNCATED_RECORDS)) == 0  # generations for analyze to read
    config = tmp_path / "bad.cfg"
    config.write_text("m_max=0\n")
    prep = ["prep", "--data", str(tmp_path / "data.jsonl"), "--out", str(tmp_path / "prep")]
    for argv, out in ((prep, "prep"), (analyze_argv(tmp_path), "an")):
        assert main(argv + ["--config", str(config)]) == 2
        assert "m_max must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / out).exists()
