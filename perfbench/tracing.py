"""Per-layer tracing from outside the program.

A ``Tracer`` replaces public functions of ``ckl`` with timing wrappers at the
namespace where they are called, and puts the originals back when it exits.
Every call becomes a span; a span's self time is its duration minus the time
of the wrapped calls it made. Spans are aggregated in memory per
(phase, label) as call count, total time and self time. A wrapped function
that no longer exists is skipped, so its layer is reported as absent.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict


def _tape_record_kinds(args, _kwargs) -> Counter:
    """Count the tape's records by op kind (``Tape.backward``'s ``self``)."""
    return Counter(f"tensor.records.{record[0]}" for record in args[0].records) + Counter(
        {"tensor.records": len(args[0].records)}
    )


def _decoder_prefix(args, kwargs) -> str:
    prefix = kwargs.get("prefix_ids", args[1] if len(args) > 1 else None)
    return f"model.decoder_forward.prefix_{len(prefix)}"


# (module, attribute path, label, hook). A hook sees the call's arguments and
# returns either a finer span label (str) or work counts to add (Counter).
WRAP_POINTS = [
    ("ckl.cli", "cmd_prep", "cli.prep", None),
    ("ckl.cli", "cmd_train", "cli.train", None),
    ("ckl.cli", "cmd_generate", "cli.generate", None),
    ("ckl.cli", "cmd_evaluate", "cli.evaluate", None),
    ("ckl.cli", "cmd_analyze", "cli.analyze", None),
    ("ckl.cli", "encode_sample", "corpus.encode_sample", None),
    ("ckl.cli", "build_pseudo_gt", "weak_supervision.pseudo_gt", None),
    ("ckl.checkpoint", "save", "checkpoint.save", None),
    ("ckl.checkpoint", "restore_model", "checkpoint.restore", None),
    ("ckl.training", "prepare_training_set", "training.prepare", None),
    ("ckl.training", "encode_sample", "corpus.encode_sample", None),
    ("ckl.training", "build_pseudo_gt", "weak_supervision.pseudo_gt", None),
    ("ckl.training", "mse", "losses.mse", None),
    ("ckl.training", "nll", "losses.nll", None),
    ("ckl.training", "awl", "losses.awl", None),
    ("ckl.training", "clip_gradients", "training.clip", None),
    ("ckl.training", "adam_step", "training.adam", None),
    ("ckl.tensor", "Tape.backward", "tensor.backward", _tape_record_kinds),
    ("ckl.model", "CKLModel.encode", "model.encode", None),
    ("ckl.model", "CKLModel.clw_generate", "model.clw_generate", None),
    ("ckl.model", "CKLModel.klw_generate", "model.klw_generate", None),
    ("ckl.model", "CKLModel.decoder_forward", "model.decoder_forward", _decoder_prefix),
]


class Tracer:
    """Installs wrappers on ``__enter__`` and restores the originals on exit.

    ``phase`` labels the spans recorded while it is set; callers switch it
    between workload phases.
    """

    def __init__(self, points=WRAP_POINTS):
        self.points = points
        self.phase = "setup"
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # (phase, label) -> calls, total s, self s
        self.counts: Counter = Counter()  # (phase, label) -> count
        self.installed: list[tuple[object, str, bool, object]] = []
        self.missing: list[str] = []
        self._child_time = [0.0]

    def __enter__(self) -> "Tracer":
        self.missing = []
        for module_name, path, label, hook in self.points:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            owned = attr in vars(owner)
            self.installed.append((owner, attr, owned, original))
            setattr(owner, attr, self._wrap(original, label, hook))
        return self

    def __exit__(self, *exc) -> None:
        while self.installed:
            owner, attr, owned, original = self.installed.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _wrap(self, fn, label, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            span_label = label
            if hook is not None:
                try:
                    found = hook(args, kwargs)
                except (AttributeError, IndexError, TypeError):
                    found = Counter()  # the program changed shape: its counts are absent
                if isinstance(found, str):
                    span_label = found
                else:
                    for name, n in found.items():
                        tracer.counts[(tracer.phase, name)] += n
            tracer._child_time.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = tracer._child_time.pop()
                tracer._child_time[-1] += elapsed
                span = tracer.spans[(tracer.phase, span_label)]
                span[0] += 1
                span[1] += elapsed
                span[2] += elapsed - children

        wrapper.__wrapped__ = fn
        return wrapper

    # ----- queries -------------------------------------------------------

    def calls(self, phases, label, prefix=False) -> int:
        return sum(
            s[0] for (p, lab), s in self.spans.items() if p in phases and _match(lab, label, prefix)
        )

    def seconds(self, phases, label, prefix=False, self_time=False) -> float:
        idx = 2 if self_time else 1
        return sum(
            s[idx]
            for (p, lab), s in self.spans.items()
            if p in phases and _match(lab, label, prefix)
        )

    def count(self, phases, label) -> int:
        return sum(n for (p, lab), n in self.counts.items() if p in phases and lab == label)

    def snapshot(self, phase) -> dict[str, int]:
        """Integer work counters of one phase, for per-operation differences."""
        out = {lab: n for (p, lab), n in self.counts.items() if p == phase}
        decoder_calls = self.calls({phase}, "model.decoder_forward.", prefix=True)
        out["model.decoder_forward.calls"] = decoder_calls
        out["tensor.backward.calls"] = self.calls({phase}, "tensor.backward")
        return out


def _match(label: str, want: str, prefix: bool) -> bool:
    return label.startswith(want) if prefix else label == want
