"""Property: a damaged checkpoint restores or raises CheckpointError, nothing else; a failed save damages nothing."""

import errno
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ckl import checkpoint as ckpt
from ckl.model import CKLModel, ModelConfig

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


def test_a_save_that_fails_midway_leaves_the_previous_checkpoint_and_no_temporary_file(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    path.write_bytes(BLOB)
    params = CKLModel(CONFIG, seed=1).parameters()
    written = []
    monkeypatch.setattr(ckpt, "open", lambda file, mode: written.append(file) or FullDisk(open(file, mode)),
                        raising=False)
    with pytest.raises(OSError, match="No space left"):
        ckpt.save(path, CONFIG, params)
    assert len(written) == 1 and written[0].parent == tmp_path  # the failed write went to a file beside path
    assert path.read_bytes() == BLOB
    assert list(tmp_path.iterdir()) == [path]
    monkeypatch.undo()
    ckpt.save(path, CONFIG, params)
    assert path.read_bytes() != BLOB and list(tmp_path.iterdir()) == [path]
    assert ckpt.load(path)[1].keys() == params.keys()
