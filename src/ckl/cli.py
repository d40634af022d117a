"""Command-line driver: prep, train, generate, evaluate, analyze.

Configuration is a flat key=value text file validated against a schema
derived from the config dataclasses; command-line flags override file values.
A command creates its output directory only once its work has succeeded, and
echoes the effective configuration there after its last artifact, so an echo
marks a directory whose files all come from one completed run. Exit codes: 0
ok, 2 input error, 3 training abort, 4 checkpoint that is damaged, mismatched
or cannot run.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from .corpus import (
    BOS,
    EOS,
    PAD,
    DatasetError,
    EncodeConfig,
    Vocabulary,
    build_vocab,
    detokenize,
    encode_sample,
    kept_segments,
    load_jsonl,
    numbered_lines,
    read_json_lines,
    tokenize,
    write_json_lines,
    write_lines,
)
from .metrics import (
    bleu_n,
    distinct_n,
    embedding_corpus_scores,
    mean_spearman,
    p_at_n,
    rouge_l_corpus,
    WordVectorTable,
    write_metric_report,
)
from .model import ModelConfig
from .tensor import NumericError
from .training import TrainingAbort, TrainingConfig, build_labels, train, write_trace
from .weak_supervision import save_label_cache


def _defaults(cls) -> dict[str, object]:
    """Field name to default for every field of dataclass ``cls`` that has one."""
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


MODEL_DEFAULTS = _defaults(ModelConfig)  # every field but vocab_size

# Config key to default; a key's type is its default's type.
SCHEMA: dict[str, object] = {
    **MODEL_DEFAULTS,
    **_defaults(TrainingConfig),
    # vocabulary build
    **{name: p.default for name, p in inspect.signature(build_vocab).parameters.items() if p.default is not p.empty},
    # decoding
    "beam": 1,
    "max_len": 0,
    # paths
    **dict.fromkeys(("data", "vocab", "checkpoint", "embeddings", "generations", "out"), ""),
}

# Subcommand to (help, config keys settable by flag). A boolean key, on by
# default, becomes a --no-... flag.
COMMANDS = {
    "prep": ("vocabulary, TF-IDF stats, label cache", ("data", "min_freq", "max_size", "top_n")),
    "train": (
        "optimise on a prepared dataset",
        ("data", "vocab", "seed", "epochs", "batch_size", "learning_rate", "data_fraction",
         "top_n", "use_loss_klw", "use_loss_clwr", "use_loss_clwk", "use_ck_dep"),
    ),
    "generate": (
        "decode responses with latent weights",
        ("data", "vocab", "checkpoint", "beam", "max_len", "use_ck_dep"),
    ),
    "evaluate": ("corpus metrics for generations", ("generations", "data", "embeddings")),
    "analyze": ("latent-weight ranking and correlations", ("generations", "data", "top_n")),
}


class ConfigError(ValueError):
    pass


def _parse_value(key: str, raw: str, where: str):
    typ = type(SCHEMA[key])
    if typ is bool:
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes"):
            return True
        if lowered in ("0", "false", "no"):
            return False
        raise ConfigError(f"{where}: config key {key}: expected a boolean, got {raw!r}")
    try:
        return typ(raw.strip())
    except ValueError as err:
        raise ConfigError(f"{where}: config key {key}: {err}") from err


def load_config_file(path) -> dict:
    values = {}
    for lineno, line in numbered_lines(path):
        stripped = line.strip()
        if stripped.startswith("#"):
            continue
        where = f"{path}: line {lineno}"
        if "=" not in stripped:
            raise ConfigError(f"{where}: expected key=value")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{where}: unknown key {key!r}")
        values[key] = _parse_value(key, raw, where)
    return values


class RunConfig:
    """Defaults, overlaid by a config file, overlaid by command-line flags."""

    def __init__(self, args: argparse.Namespace):
        self.values = dict(SCHEMA)
        self.explicit: set[str] = set()
        if getattr(args, "config", None):
            file_values = load_config_file(args.config)
            self.values.update(file_values)
            self.explicit.update(file_values)
        for key in SCHEMA:
            flag = getattr(args, key, None)
            if flag is not None:
                self.values[key] = flag
                self.explicit.add(key)
        if getattr(args, "greedy", False):
            self.values["beam"] = 1
            self.explicit.add("beam")

    def __getitem__(self, key: str):
        return self.values[key]

    def require_path(self, key: str) -> Path:
        if not self.values[key]:
            raise ConfigError(f"missing required path: {key}")
        return Path(self.values[key])

    def build(self, cls, **given):
        """A ``cls`` dataclass whose fields not in ``given`` come from the config."""
        names = [f.name for f in fields(cls) if f.name not in given]
        return cls(**given, **{name: self.values[name] for name in names})

    def echo(self, out_dir: Path) -> None:
        write_lines(out_dir / "effective_config.txt", (f"{key}={self.values[key]}" for key in sorted(SCHEMA)))


def _ensure_out(cfg: RunConfig) -> Path:
    """The output directory, without the echo of an earlier run: ``main`` echoes once every artifact is written."""
    out = cfg.require_path("out")
    out.mkdir(parents=True, exist_ok=True)
    (out / "effective_config.txt").unlink(missing_ok=True)
    return out


def cmd_prep(cfg: RunConfig) -> None:
    samples = load_jsonl(cfg.require_path("data"))
    vocab = build_vocab(samples, min_freq=cfg["min_freq"], max_size=cfg["max_size"])
    enc_cfg = cfg.build(EncodeConfig)
    kept = [kept_segments(s, enc_cfg) for s in samples]
    index, labels = build_labels(kept, cfg["top_n"])
    stats = {
        "samples": len(samples),
        "mean_context_utterances": sum(len(k[0]) for k in kept) / len(kept),
        "mean_knowledge_sentences": sum(len(k[1]) for k in kept) / len(kept),
        "tfidf_documents": index.doc_count,
        "tfidf_terms": len(index.df),
        "vocab_size": len(vocab),
    }
    out = _ensure_out(cfg)
    vocab.save(out / "vocab.txt")
    save_label_cache(out / "labels.jsonl", labels)
    write_lines(out / "tfidf_stats.json", [json.dumps(stats, sort_keys=True, indent=2)])
    print(
        f"prep: n={stats['samples']} mean_m={stats['mean_context_utterances']:.2f} "
        f"mean_l={stats['mean_knowledge_sentences']:.2f} vocab={len(vocab)}"
    )


def cmd_train(cfg: RunConfig) -> None:
    data = cfg.require_path("data")
    vocab = Vocabulary.load(cfg.require_path("vocab"))
    samples = load_jsonl(data)
    if not samples:
        raise DatasetError(f"{data}: no samples to train on")
    model_cfg = cfg.build(ModelConfig, vocab_size=len(vocab))
    result = train(samples, vocab, model_cfg, cfg.build(TrainingConfig))
    params = {**result.model.parameters(), **result.awl_params.named()}
    out = _ensure_out(cfg)
    ckpt.save(out / "checkpoint.ckpt", model_cfg, params)
    write_trace(out / "trace.csv", result.trace, result.effective_n, len(samples))
    print(
        f"train: steps={len(result.trace)} effective_n={result.effective_n} "
        f"final_nll={result.trace[-1].l_nll:.4f}"
    )


def cmd_generate(cfg: RunConfig, force: bool = False) -> None:
    """Decode with the checkpoint's own config; explicit model keys must agree
    with it unless forced, and the echoed config is the checkpoint's."""
    data = cfg.require_path("data")
    vocab = Vocabulary.load(cfg.require_path("vocab"))
    requested = {key: cfg[key] for key in MODEL_DEFAULTS if key in cfg.explicit}
    model = ckpt.restore_model(cfg.require_path("checkpoint"), requested, force)
    if model.config.vocab_size != len(vocab):
        raise ckpt.CheckpointError(
            f"checkpoint vocab_size={model.config.vocab_size} but vocabulary has {len(vocab)}"
        )
    cfg.values.update((key, getattr(model.config, key)) for key in MODEL_DEFAULTS)
    beam_size, max_len = model.decode_width(cfg["beam"] or 1), model.decode_length(cfg["max_len"])  # --beam 0: greedy
    samples = load_jsonl(data)
    if not samples:
        raise DatasetError(f"{data}: no samples to generate from")
    records = []
    try:  # _make reports non-finite op outputs, so numpy need not warn
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for sample in samples:
                enc, weights = model.condition(encode_sample(sample, vocab, model.config.encode_config()))
                ids = model.decode(enc, weights, beam_size=beam_size, max_len=max_len)
                tokens = vocab.decode([i for i in ids if i not in (PAD, BOS, EOS)])
                records.append({"token_ids": ids, "tokens": tokens, "text": detokenize(tokens), **weights.lists()})
    except NumericError as err:
        raise ckpt.CheckpointError(f"{cfg['checkpoint']}: the model cannot run: {err}") from err
    write_json_lines(_ensure_out(cfg) / "generations.jsonl", records)
    print(f"generate: wrote {len(records)} records")


# What each list field of a generations.jsonl record holds: a test of each item, and the items' name.
# json reads NaN and Infinity, and an int too large for a float; none of them is a weight.
RECORD_LISTS = {
    "tokens": (lambda x: type(x) is str, "strings"),
    **dict.fromkeys(("clwr", "clwk", "klw"),
                    (lambda x: type(x) in (int, float) and abs(x) <= sys.float_info.max, "finite numbers")),
}


def _load_generations(cfg: RunConfig, keys: tuple[str, ...]) -> tuple[list, list[tuple[int, dict]]]:
    """The data samples, and (line number, record) for each non-blank generations line, one per sample.

    Each record must be a JSON object in which every field named in ``keys``
    is a list of the items ``RECORD_LISTS`` gives for it.
    """
    path, data = cfg.require_path("generations"), cfg.require_path("data")
    samples = load_jsonl(data)
    if not samples:
        raise DatasetError(f"{data}: no samples to score the generations against")
    records = []
    for lineno, rec in read_json_lines(path):
        where = f"{path}: line {lineno}"
        if not isinstance(rec, dict):
            raise DatasetError(f"{where}: generation record is not a JSON object")
        for key in keys:
            item_ok, name = RECORD_LISTS[key]
            value = rec.get(key)
            if not isinstance(value, list) or not all(map(item_ok, value)):
                raise DatasetError(f"{where}: generation record needs {key} as a list of {name}")
        records.append((lineno, rec))
    if len(records) != len(samples):
        raise DatasetError(f"{path}: {len(records)} generations for {len(samples)} samples")
    return samples, records


def cmd_evaluate(cfg: RunConfig) -> None:
    samples, generations = _load_generations(cfg, ("tokens",))
    cands = [rec["tokens"] for _lineno, rec in generations]
    refs = [tokenize(s.response) for s in samples]
    n_pairs = len(cands)
    rows = [(f"bleu-{k}", bleu_n(cands, refs, k), n_pairs, 0) for k in range(1, 5)]
    rows.append(("rouge-l", rouge_l_corpus(cands, refs), n_pairs, 0))
    for k in (1, 2):
        if any(len(cand) >= k for cand in cands):
            rows.append((f"distinct-{k}", distinct_n(cands, k), n_pairs, 0))
        else:  # no generation holds a k-gram: 0.0, every pair excluded, as an embedding row reports unscoreable pairs
            rows.append((f"distinct-{k}", 0.0, 0, n_pairs))
    if cfg["embeddings"]:
        table = WordVectorTable.load(cfg["embeddings"])
        means, excluded = embedding_corpus_scores(cands, refs, table)
        for name in ("average", "extrema", "greedy"):
            rows.append((f"embedding-{name}", means[name], n_pairs - excluded, excluded))
    write_metric_report(_ensure_out(cfg) / "metrics.csv", rows)
    for metric, value, *_ in rows:
        print(f"{metric}: {value:.4f}")


def cmd_analyze(cfg: RunConfig) -> None:
    """Encode keys not set by --config or a flag come from the generating run's
    effective_config.txt, when one sits beside the generations."""
    gen_path = cfg.require_path("generations")
    echoed = gen_path.parent / "effective_config.txt"
    generating = load_config_file(echoed) if echoed.exists() else {}
    cfg.values.update((f.name, generating[f.name]) for f in fields(EncodeConfig)
                      if f.name in generating and f.name not in cfg.explicit)
    keys = ("klw", "clwr", "clwk")
    samples, generations = _load_generations(cfg, keys)
    enc_cfg = cfg.build(EncodeConfig)
    _index, labels = build_labels([kept_segments(s, enc_cfg) for s in samples], cfg["top_n"])
    reranked, original, targets = [], [], []
    spearman_pairs = {key: [] for key in keys}
    for (lineno, rec), label in zip(generations, labels):
        given = {key: [float(x) for x in rec[key]] for key in keys}
        gold = {key: getattr(label, "gt_" + key) for key in keys}
        if any(len(given[key]) != len(gold[key]) for key in keys):
            raise DatasetError(
                f"{gen_path}: line {lineno}: {len(given['clwr'])} clwr, {len(given['clwk'])} "
                f"clwk and {len(given['klw'])} klw weights, but the data keeps "
                f"{len(label.gt_clwr)} utterances and {len(label.gt_klw)} sentences under "
                f"m_max={cfg['m_max']} max_source_len={cfg['max_source_len']}; set both to "
                "the generating model's values with --config"
            )
        klw = given["klw"]
        order = sorted(range(len(klw)), key=lambda i: (-klw[i], i))
        reranked.append(order)
        original.append(list(range(len(klw))))
        targets.append(label.top1_rk_index)
        for key in keys:
            spearman_pairs[key].append((given[key], [float(v) for v in gold[key]]))
    lines = ["metric,param,value,n,n_excluded"]
    for n in range(1, 11):
        lines.append(f"p_at_n_original,{n},{p_at_n(original, targets, n)!r},{len(targets)},0")
    for n in range(1, 11):
        lines.append(f"p_at_n_reranked,{n},{p_at_n(reranked, targets, n)!r},{len(targets)},0")
    for key in keys:
        mean, defined, undefined = mean_spearman(spearman_pairs[key])
        lines.append(f"spearman_{key},,{mean!r},{defined},{undefined}")
    write_lines(_ensure_out(cfg) / "analysis.csv", lines)
    print(f"analyze: wrote {len(lines) - 1} rows")


def _add_key_flag(p: argparse.ArgumentParser, key: str) -> None:
    default = SCHEMA[key]
    if isinstance(default, bool):
        flag = "--no-" + key.removeprefix("use_").replace("_", "-")
        p.add_argument(flag, dest=key, action="store_false", default=None)
    else:
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=type(default), default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ckl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, keys) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--out", default=None, help="output directory")
        for key in keys:
            _add_key_flag(p, key)
        if command == "generate":
            p.add_argument("--greedy", action="store_true", help="same as --beam 1")
            p.add_argument("--force", action="store_true", help="ignore config mismatch")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig(args)
        out = cfg.require_path("out")  # every command writes there, but only once its work succeeded
        if args.command == "generate":
            cmd_generate(cfg, force=args.force)
        else:
            {"prep": cmd_prep, "train": cmd_train, "evaluate": cmd_evaluate, "analyze": cmd_analyze}[args.command](cfg)
        cfg.echo(out)
    except TrainingAbort as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except ckpt.CheckpointError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except (ConfigError, DatasetError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
