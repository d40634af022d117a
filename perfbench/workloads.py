"""Workload definitions, set-up, timed operations and output checks.

Every workload is the same user pipeline on different inputs: ``ckl prep``,
then ``ckl train``, ``ckl generate`` greedy and ``ckl generate --beam 4``,
each called in-process through ``ckl.cli.main``, and finally ``ckl evaluate``
and ``ckl analyze`` on the greedy output. The workloads differ in corpus
shape, model size and in how the measured seconds are shared between the
train, greedy and beam phases. See README.md for why each exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ckl import checkpoint
from ckl.cli import main as ckl_main
from ckl.corpus import BOS, EOS, PAD, Vocabulary, encode_sample, load_jsonl
from ckl.model import CKLModel, ModelConfig
from ckl.synthetic import overfit_corpus, retrieval_corpus, write_jsonl

# Every decode runs to this many ids (BOS plus 47 generated tokens), so the
# work per decoded sample is fixed by the workload rather than by when an
# untrained model happens to emit EOS.
MAX_LEN = 48

# The decode checkpoint's logit bias for PAD, BOS and EOS: far below any other
# logit of a freshly initialised model, so decoding never stops early and
# never emits ids that ``ckl generate`` drops from the text (an all-dropped
# output has no n-grams for ``ckl evaluate``).
PINNED_IDS = (PAD, BOS, EOS)
PINNED_LOGIT_BIAS = -1e3

# The criterion-4 architecture (tests/test_acceptance.py), with room for
# MAX_LEN target positions.
DEEP_MODEL = dict(
    d_model=64, n_heads=2, n_encoder_layers=2, n_decoder_layers=2, d_ff=256,
    max_source_len=64, max_target_len=MAX_LEN,
)
# The small criteria-5/6 model, with room for 8 knowledge sentences.
SMALL_MODEL = dict(
    d_model=32, n_heads=2, n_encoder_layers=1, n_decoder_layers=1, d_ff=64,
    max_source_len=96, max_target_len=MAX_LEN,
)

# Training and model-initialisation seed. The benchmark's --seed varies the
# corpus only: with the initialisation fixed, train_final_nll varies by ~1%
# across corpus seeds instead of ~9%.
MODEL_SEED = 0

PHASES = ("train", "greedy", "beam4")

# Samples decoded by one generate operation: one keeps beam operations near a
# second, so a run holds enough of them for a percentile.
DECODE_SAMPLES = 1


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: Callable[[int], list]  # seed -> DialogueSample list
    model: dict
    training: dict  # learning_rate, epochs, batch_size
    shares: dict  # phase -> share of the measured seconds

    def config_text(self) -> str:
        items = {**self.model, **self.training, "seed": MODEL_SEED}
        return "".join(f"{k}={v}\n" for k, v in items.items())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="overfit_train",
            corpus=lambda seed: overfit_corpus(16, seed=seed),
            model=DEEP_MODEL,
            training=dict(learning_rate=5e-5, epochs=2, batch_size=16),
            shares=dict(train=0.5, greedy=0.2, beam4=0.3),
        ),
        Workload(
            name="wide_retrieval_train",
            corpus=lambda seed: retrieval_corpus(48, n_knowledge=8, seed=seed),
            model=SMALL_MODEL,
            training=dict(learning_rate=0.003, epochs=1, batch_size=24),
            shares=dict(train=0.5, greedy=0.2, beam4=0.3),
        ),
        Workload(
            name="long_decode",
            corpus=lambda seed: overfit_corpus(16, seed=seed),
            model=DEEP_MODEL,
            training=dict(learning_rate=5e-5, epochs=1, batch_size=16),
            shares=dict(train=0.25, greedy=0.3, beam4=0.45),
        ),
    )
}


class OperationFailed(RuntimeError):
    """A ckl command exited non-zero or raised."""


def run_cli(argv: list[str]) -> None:
    """Run one ckl command in-process; its stdout is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = ckl_main([str(a) for a in argv])
    if code != 0:
        raise OperationFailed(f"ckl {argv[0]} exited {code}")


class Files:
    """The paths one set-up writes and the operations read."""

    def __init__(self, root: Path):
        self.root = root
        self.data = root / "data.jsonl"
        self.decode = root / "decode.jsonl"
        self.config = root / "run.cfg"
        self.vocab = root / "prep" / "vocab.txt"
        self.checkpoint = root / "decode.ckpt"

    def out(self, phase: str) -> Path:
        return self.root / f"out_{phase}"


def set_up(w: Workload, seed: int, root: Path) -> Files:
    """Corpus generation, ``ckl prep`` and the decode checkpoint."""
    f = Files(root)
    root.mkdir(parents=True)
    samples = w.corpus(seed)
    write_jsonl(f.data, samples)
    write_jsonl(f.decode, samples[:DECODE_SAMPLES])
    f.config.write_text(w.config_text())
    run_cli(["prep", "--data", f.data, "--out", root / "prep", "--config", f.config])
    model_cfg = ModelConfig(vocab_size=len(Vocabulary.load(f.vocab)), **w.model)
    model = CKLModel(model_cfg, seed=MODEL_SEED)
    model.params["out.b"].data[list(PINNED_IDS)] = PINNED_LOGIT_BIAS
    checkpoint.save(f.checkpoint, model_cfg, model.params)
    return f


@dataclass
class OpResult:
    seconds: float
    work: int  # samples trained or tokens generated
    output: object  # trace rows or decoded id lists, for the checks


def op_train(w: Workload, f: Files) -> OpResult:
    out = f.out("train")
    start = time.perf_counter()
    run_cli(["train", "--data", f.data, "--vocab", f.vocab, "--out", out, "--config", f.config])
    seconds = time.perf_counter() - start
    lines = (out / "trace.csv").read_text().splitlines()
    n_samples = int(lines[0].split("effective_samples=")[1].split()[0])
    return OpResult(seconds, w.training["epochs"] * n_samples, lines[2:])


def op_generate(phase: str, f: Files) -> OpResult:
    out = f.out(phase)
    mode = ["--greedy"] if phase == "greedy" else ["--beam", "4"]
    start = time.perf_counter()
    run_cli(
        ["generate", "--data", f.decode, "--vocab", f.vocab, "--checkpoint", f.checkpoint,
         "--out", out, "--max-len", MAX_LEN, *mode]
    )
    seconds = time.perf_counter() - start
    ids = [json.loads(line)["token_ids"] for line in (out / "generations.jsonl").open()]
    return OpResult(seconds, sum(len(seq) - 1 for seq in ids), ids)


def run_op(w: Workload, phase: str, f: Files) -> OpResult:
    return op_train(w, f) if phase == "train" else op_generate(phase, f)


def run_reports(f: Files) -> list[str]:
    """``ckl evaluate`` and ``ckl analyze`` on the greedy generations; returns check problems."""
    gens = f.out("greedy") / "generations.jsonl"
    run_cli(["evaluate", "--generations", gens, "--data", f.decode, "--out", f.root / "eval"])
    run_cli(
        ["analyze", "--generations", gens, "--data", f.decode, "--out", f.root / "analysis",
         "--config", f.config]
    )
    return check_reports(f)


# ----- output checks ------------------------------------------------------
# Each returns a list of problems; an empty list means the check passed.


def trace_rows(lines: list[str]) -> list[list[float]]:
    return [[float(x) for x in line.split(",")] for line in lines]


def final_nll(lines: list[str]) -> float:
    return trace_rows(lines)[-1][4]


def check_trace(lines: list[str], reference: list[str], rtol: float) -> list[str]:
    got, want = trace_rows(lines), trace_rows(reference)
    if len(got) != len(want):
        return [f"trace has {len(got)} rows, reference {len(want)}"]
    problems = []
    for row, (g, r) in enumerate(zip(got, want), start=1):
        if len(g) != len(r) or not all(math.isfinite(x) for x in g):
            problems.append(f"trace row {row} is malformed or not finite")
        elif any(abs(a - b) > rtol * abs(b) for a, b in zip(g, r)):
            problems.append(f"trace row {row} differs from the reference beyond rtol={rtol}")
    return problems


def oracle_greedy(f: Files) -> list[list[int]]:
    """Greedy ids from the public ``decoder_forward`` with full-prefix recompute."""
    vocab = Vocabulary.load(f.vocab)
    model = checkpoint.restore_model(f.checkpoint)
    out = []
    for sample in load_jsonl(f.decode):
        enc = model.encode(encode_sample(sample, vocab, model.config.encode_config()))
        clwr, clwk = model.clw_generate(enc)
        klw = model.klw_generate(enc, clwk)
        ids = [BOS]
        while len(ids) < MAX_LEN and ids[-1] != EOS:
            ids.append(int(model.decoder_forward(ids, enc, clwr, klw).data[-1].argmax()))
        out.append(ids)
    return out


def check_decodes(phase: str, ids: list[list[int]], f: Files) -> list[str]:
    problems = [
        f"{phase} decode {i} has {len(seq)} ids, expected {MAX_LEN} starting with BOS"
        for i, seq in enumerate(ids)
        if len(seq) != MAX_LEN or seq[0] != BOS
    ]
    if phase == "greedy" and ids != oracle_greedy(f):
        problems.append("greedy ids differ from the decoder_forward argmax oracle")
    return problems


def check_reports(f: Files) -> list[str]:
    problems = []
    for path, value_col in ((f.root / "eval" / "metrics.csv", 1),
                            (f.root / "analysis" / "analysis.csv", 2)):
        rows = path.read_text().splitlines()[1:]
        if not rows:
            problems.append(f"{path.name} has no rows")
        for row in rows:
            cells = row.split(",")
            try:
                ok = math.isfinite(float(cells[value_col]))
            except (IndexError, ValueError):
                ok = False
            if not ok:
                problems.append(f"{path.name}: row {row!r} does not parse to a finite value")
    return problems
