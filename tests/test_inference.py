"""`ckl generate` conditions each sample once; evaluate and analyze reject
malformed generation records with exit 2 and a line-numbered message."""

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


@pytest.mark.parametrize("flags", [["--greedy"], ["--beam", "3"]])
def test_generate_encodes_each_sample_once(tmp_path, data, monkeypatch, flags):
    vocab = build_vocab(load_jsonl(data))
    vocab.save(tmp_path / "vocab.txt")
    config = ModelConfig(
        vocab_size=len(vocab), d_model=8, n_heads=2, n_encoder_layers=1,
        n_decoder_layers=1, d_ff=8, max_target_len=5,
    )
    ckpt.save(tmp_path / "model.ckpt", config, CKLModel(config, seed=0).parameters())
    encoded = []
    encode = CKLModel.encode

    def counting_encode(self, sample):
        encoded.append(sample)
        return encode(self, sample)

    monkeypatch.setattr(CKLModel, "encode", counting_encode)
    argv = ["generate", "--data", str(data), "--vocab", str(tmp_path / "vocab.txt"),
            "--checkpoint", str(tmp_path / "model.ckpt"), "--out", str(tmp_path / "gen"), *flags]
    assert main(argv) == 0
    assert len(encoded) == len(RECORDS)


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
