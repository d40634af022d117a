"""`ckl generate` conditions each sample once and rejects a ``--max-len``
outside [1, max_target_len] before writing; evaluate and analyze reject
malformed generation records, and analyze rejects latent-weight counts that
disagree with the data, with exit 2 and a line-numbered message."""

import json

import pytest

from ckl import checkpoint as ckpt
from ckl.cli import main
from ckl.corpus import build_vocab, load_jsonl
from ckl.model import CKLModel, ModelConfig

RECORDS = [
    {"context": ["a b", "c d"], "knowledge": ["alpha beta", "gamma"], "response": "alpha"},
    {"context": ["e f"], "knowledge": ["delta", "beta gamma", "alpha"], "response": "gamma"},
    {"context": ["a c"], "knowledge": ["delta epsilon"], "response": "delta"},
]


@pytest.fixture
def data(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in RECORDS))
    return path


def generate_argv(tmp_path, data):
    """``ckl generate`` arguments for a fresh checkpoint with max_target_len=5,
    writing to ``gen/``."""
    vocab = build_vocab(load_jsonl(data))
    vocab.save(tmp_path / "vocab.txt")
    config = ModelConfig(
        vocab_size=len(vocab), d_model=8, n_heads=2, n_encoder_layers=1,
        n_decoder_layers=1, d_ff=8, max_target_len=5,
    )
    ckpt.save(tmp_path / "model.ckpt", config, CKLModel(config, seed=0).parameters())
    return ["generate", "--data", str(data), "--vocab", str(tmp_path / "vocab.txt"),
            "--checkpoint", str(tmp_path / "model.ckpt"), "--out", str(tmp_path / "gen")]


@pytest.mark.parametrize("flags", [["--greedy"], ["--beam", "3"]])
def test_generate_encodes_each_sample_once(tmp_path, data, monkeypatch, flags):
    argv = generate_argv(tmp_path, data)
    encoded = []
    encode = CKLModel.encode

    def counting_encode(self, sample):
        encoded.append(sample)
        return encode(self, sample)

    monkeypatch.setattr(CKLModel, "encode", counting_encode)
    assert main(argv + flags) == 0
    assert len(encoded) == len(RECORDS)


@pytest.mark.parametrize("max_len", ["6", "-3"], ids=["above-max-target-len", "negative"])
def test_generate_rejects_max_len_outside_range(tmp_path, data, capsys, max_len):
    assert main(generate_argv(tmp_path, data) + ["--max-len", max_len]) == 2
    assert f"max_len must be in [1, max_target_len=5], got {max_len}" in capsys.readouterr().err
    assert not (tmp_path / "gen").exists()


def write_generations(tmp_path, bad_record):
    """A generations file whose second line is ``bad_record``."""
    good = {"tokens": ["alpha"], "clwr": [0.5, 0.5], "clwk": [0.5, 0.5], "klw": [0.5, 0.5]}
    path = tmp_path / "generations.jsonl"
    lines = [good, bad_record] + [good] * (len(RECORDS) - 2)
    path.write_text("".join(json.dumps(r) + "\n" for r in lines))
    return str(path)


@pytest.mark.parametrize(
    "command,bad_record",
    [
        ("evaluate", {"text": "alpha"}),
        ("evaluate", ["alpha"]),
        ("analyze", {"tokens": ["alpha"], "clwr": [0.5], "clwk": [0.5], "klw": 0.5}),
    ],
    ids=["evaluate-no-tokens", "evaluate-array-record", "analyze-scalar-klw"],
)
def test_malformed_record_exits_2_naming_the_line(tmp_path, data, capsys, command, bad_record):
    gen = write_generations(tmp_path, bad_record)
    out = tmp_path / "out"
    assert main([command, "--generations", gen, "--data", str(data), "--out", str(out)]) == 2
    assert "generations.jsonl: line 2:" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_rejects_a_wrong_length_clwk(tmp_path, data, capsys):
    # One weight per kept utterance (clwr, clwk) and per kept sentence (klw);
    # line 2 carries four clwk weights for its one utterance.
    lines = [
        {"clwr": [0.5, 0.5], "clwk": [0.5, 0.5], "klw": [0.5, 0.5]},
        {"clwr": [0.5], "clwk": [0.1, 0.2, 0.3, 0.4], "klw": [0.2, 0.3, 0.5]},
        {"clwr": [0.5], "clwk": [0.5], "klw": [0.5]},
    ]
    gen = tmp_path / "generations.jsonl"
    gen.write_text("".join(json.dumps(r) + "\n" for r in lines))
    argv = ["analyze", "--generations", str(gen), "--data", str(data)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "generations.jsonl: line 2:" in err and "4 clwk" in err
    assert not (tmp_path / "out").exists()
    lines[1]["clwk"] = [0.5]
    gen.write_text("".join(json.dumps(r) + "\n" for r in lines))
    assert main(argv + ["--out", str(tmp_path / "fixed")]) == 0
