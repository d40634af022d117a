"""Property: a damaged checkpoint restores or raises CheckpointError, nothing else; a failed write of any artifact
damages nothing."""

import errno
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ckl import checkpoint as ckpt, corpus
from ckl.cli import main
from ckl.model import CKLModel, ModelConfig
from ckl.synthetic import overfit_corpus, write_jsonl

CONFIG = ModelConfig(vocab_size=7, d_model=4, n_heads=2, n_encoder_layers=1, n_decoder_layers=1, d_ff=4,
                     max_source_len=8, max_target_len=4, m_max=2)


def _blob() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        ckpt.save(path, CONFIG, CKLModel(CONFIG, seed=0).parameters())
        return path.read_bytes()


BLOB = _blob()


def restores_or_raises_checkpoint_error(blob: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        path.write_bytes(blob)
        try:
            ckpt.restore_model(path)
        except ckpt.CheckpointError:
            pass


def test_a_checkpoint_that_records_the_training_keys_still_loads(tmp_path):
    """Checkpoints record the model's keys alone; older ones also hold the label and loss settings, which load
    ignores."""
    assert b"top_n" not in BLOB and b"use_loss" not in BLOB

    class Older:
        def to_dict(self):
            return {**CONFIG.to_dict(), "top_n": "2", "use_loss_klw": "0", "use_loss_clwr": "1", "use_loss_clwk": "1"}

    path = tmp_path / "older.ckpt"
    ckpt.save(path, Older(), CKLModel(CONFIG, seed=0).parameters())
    assert ckpt.load(path)[0] == CONFIG
    assert ckpt.restore_model(path).config == CONFIG


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(0, len(BLOB) - 1))
def test_truncated_checkpoint(end):
    restores_or_raises_checkpoint_error(BLOB[:end])


# Half the draws land in the config header and the first parameters' names and shapes.
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.integers(0, 8 * 512 - 1), st.integers(0, 8 * len(BLOB) - 1)))
def test_checkpoint_with_one_bit_flipped(bit):
    damaged = bytearray(BLOB)
    damaged[bit // 8] ^= 1 << (bit % 8)
    restores_or_raises_checkpoint_error(bytes(damaged))


class FullDisk:
    """A file that takes half of a write and then fails, as a write to a full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


# Artifact to the command that writes it. Each command runs on the outputs the pipeline fixture made.
ARTIFACTS = {
    **dict.fromkeys(("effective_config.txt", "vocab.txt", "labels.jsonl", "tfidf_stats.json"), "prep"),
    **dict.fromkeys(("checkpoint.ckpt", "trace.csv"), "train"),
    "generations.jsonl": "generate",
    "metrics.csv": "evaluate",
    "analysis.csv": "analyze",
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Flags of each command, given the prep, train and generate outputs of a tiny run."""
    run = tmp_path_factory.mktemp("pipeline")
    write_jsonl(run / "data.jsonl", overfit_corpus(4, seed=0))
    (run / "run.cfg").write_text("d_model=8\nn_heads=2\nn_encoder_layers=1\nn_decoder_layers=1\nd_ff=8\n"
                                 "max_source_len=64\nmax_target_len=8\nepochs=1\nbatch_size=4\n")
    data, config = ["--data", str(run / "data.jsonl")], ["--config", str(run / "run.cfg")]
    flags = {
        "prep": data + config,
        "train": data + config + ["--vocab", str(run / "prep" / "vocab.txt")],
        "generate": data + ["--vocab", str(run / "prep" / "vocab.txt"),
                            "--checkpoint", str(run / "train" / "checkpoint.ckpt")],
        "evaluate": data + ["--generations", str(run / "generate" / "generations.jsonl")],
    }
    flags["analyze"] = flags["evaluate"]
    for command in ("prep", "train", "generate"):
        assert main([command, *flags[command], "--out", str(run / command)]) == 0
    return flags


@pytest.mark.parametrize("artifact", ARTIFACTS)
def test_a_write_that_fails_midway_leaves_the_previous_file_and_no_temporary_file(pipeline, artifact, tmp_path,
                                                                                   monkeypatch, capsys):
    command, path = ARTIFACTS[artifact], tmp_path / artifact
    path.write_bytes(b"previous\n")
    written = []

    def open_failing_on_artifact(file, mode):
        if not Path(file).name.startswith(f".{artifact}."):
            return open(file, mode)
        written.append(Path(file))
        return FullDisk(open(file, mode))

    monkeypatch.setattr(corpus, "open", open_failing_on_artifact, raising=False)
    assert main([command, *pipeline[command], "--out", str(tmp_path)]) == 2
    assert "No space left" in capsys.readouterr().err
    assert len(written) == 1 and written[0].parent == tmp_path  # the failed write went to a file beside path
    if artifact == "effective_config.txt":  # the stale echo is removed before the first artifact is written
        assert not path.exists()
    else:
        assert path.read_bytes() == b"previous\n"
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
    monkeypatch.undo()
    assert main([command, *pipeline[command], "--out", str(tmp_path)]) == 0
    assert path.read_bytes() != b"previous\n"
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


def test_a_failed_trace_write_leaves_no_echo_beside_the_new_checkpoint(pipeline, tmp_path, monkeypatch, capsys):
    """The echo is written last, so a directory holds one only when all its files come from one completed run."""
    assert main(["train", *pipeline["train"], "--out", str(tmp_path)]) == 0
    echo, checkpoint = tmp_path / "effective_config.txt", (tmp_path / "checkpoint.ckpt").read_bytes()
    assert echo.exists()

    def open_failing_on_trace(file, mode):
        fh = open(file, mode)
        return FullDisk(fh) if Path(file).name.startswith(".trace.csv.") else fh

    monkeypatch.setattr(corpus, "open", open_failing_on_trace, raising=False)
    assert main(["train", *pipeline["train"], "--seed", "5", "--out", str(tmp_path)]) == 2
    assert "No space left" in capsys.readouterr().err
    assert (tmp_path / "checkpoint.ckpt").read_bytes() != checkpoint  # the new run's checkpoint
    assert not echo.exists()
