"""Binary checkpoint format.

Layout, all little-endian:

    magic            4 bytes  b"CKL1"
    n_config         u32
    n_config times:  u32 key length, key bytes, u32 value length, value bytes
    n_params         u32
    n_params times:  u32 name length, name bytes, u32 ndim, ndim * u64 dims,
                     prod(dims) * f64 values

Loading parses the whole file before constructing anything, so a truncated
file raises without leaving partial state behind. Every parse failure
(truncation, non-UTF-8 text, impossible shapes, NaN/Inf values, a bad
config) is reported as a ``CheckpointError``.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Mapping

import numpy as np

from .corpus import write_file
from .model import CKLModel, ModelConfig
from .tensor import Tensor

MAGIC = b"CKL1"


class CheckpointError(ValueError):
    """Bad magic, truncated data, or an incompatible configuration."""


def save(path, config: ModelConfig, params: dict[str, Tensor]) -> None:
    """Write through ``corpus.write_file``, so a save that fails midway leaves any previous checkpoint whole."""
    chunks = [MAGIC]
    cfg = config.to_dict()
    chunks.append(struct.pack("<I", len(cfg)))
    for key, value in cfg.items():
        kb, vb = key.encode(), value.encode()
        chunks.append(struct.pack("<I", len(kb)) + kb)
        chunks.append(struct.pack("<I", len(vb)) + vb)
    chunks.append(struct.pack("<I", len(params)))
    for name, tensor in params.items():
        nb = name.encode()
        arr = np.ascontiguousarray(tensor.data, dtype="<f8")
        chunks.append(struct.pack("<I", len(nb)) + nb)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b"")
        chunks.append(arr.tobytes())
    write_file(path, b"".join(chunks))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError("checkpoint file is truncated")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64s(self, n: int) -> tuple:
        return struct.unpack(f"<{n}Q", self.take(8 * n)) if n else ()


def load(path) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return _parse(blob, path)
    except CheckpointError:
        raise
    except (struct.error, ValueError) as err:  # incl. UnicodeDecodeError
        raise CheckpointError(f"{path}: malformed checkpoint: {err}") from err


def _parse(blob: bytes, path) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    r = _Reader(blob)
    if r.take(4) != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    cfg = {}
    for _ in range(r.u32()):
        key = r.take(r.u32()).decode()
        cfg[key] = r.take(r.u32()).decode()
    try:
        config = ModelConfig.from_dict(cfg)
    except (KeyError, ValueError) as err:
        raise CheckpointError(f"{path}: bad config header: {err}") from err
    params = {}
    for _ in range(r.u32()):
        name = r.take(r.u32()).decode()
        shape = r.u64s(r.u32())
        arr = np.frombuffer(r.take(8 * math.prod(shape)), dtype="<f8").reshape(shape)
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: parameter {name} holds NaN or Inf")
        params[name] = arr.astype(np.float64)
    if r.pos != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - r.pos} trailing bytes")
    return config, params


def restore_model(
    path, expected: Mapping[str, object] | None = None, force: bool = False
) -> CKLModel:
    """Rebuild a model from a checkpoint, verifying config compatibility.

    ``expected`` maps ``ModelConfig`` field names to requested values; any
    that differ from the checkpoint's raise ``CheckpointError`` unless
    ``force`` is set, in which case the checkpoint's values win.
    """
    config, arrays = load(path)
    if expected and not force:
        mismatched = {
            name: (want, getattr(config, name))
            for name, want in expected.items()
            if want != getattr(config, name)
        }
        if mismatched:
            detail = ", ".join(
                f"{k}: requested {want} but checkpoint has {got}"
                for k, (want, got) in mismatched.items()
            )
            raise CheckpointError(f"config mismatch ({detail}); use --force to override")
    inits = CKLModel.initialisers(config)
    model_arrays = {k: v for k, v in arrays.items() if not k.startswith("awl.")}
    extra, missing = sorted(set(model_arrays) - set(inits)), sorted(set(inits) - set(model_arrays))
    if extra or missing:
        raise CheckpointError("checkpoint parameter names do not match the model: "
                              f"extra {', '.join(extra) or 'none'}; missing {', '.join(missing) or 'none'}")
    for name, arr in model_arrays.items():
        if inits[name][0] != arr.shape:
            raise CheckpointError(f"parameter {name} has shape {arr.shape}")
    return CKLModel(config, arrays=model_arrays)
