"""Command-line driver: prep, train, generate, evaluate, analyze.

Configuration is a flat key=value text file validated against a schema
derived from the config dataclasses; command-line flags override file values,
and the effective configuration is echoed into every output directory. Exit
codes: 0 ok, 2 input error, 3 training abort, 4 checkpoint mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, fields
from pathlib import Path

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
    tokenize,
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
    "min_freq": 1,
    "max_size": 50000,
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
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
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
        lines = [f"{key}={self.values[key]}" for key in sorted(SCHEMA)]
        (out_dir / "effective_config.txt").write_text("\n".join(lines) + "\n")


def _ensure_out(cfg: RunConfig) -> Path:
    out = cfg.require_path("out")
    out.mkdir(parents=True, exist_ok=True)
    cfg.echo(out)
    return out


def cmd_prep(cfg: RunConfig) -> int:
    data = cfg.require_path("data")
    out = _ensure_out(cfg)
    samples = load_jsonl(data)
    vocab = build_vocab(samples, min_freq=cfg["min_freq"], max_size=cfg["max_size"])
    vocab.save(out / "vocab.txt")
    enc_cfg = cfg.build(EncodeConfig)
    kept = [kept_segments(s, enc_cfg) for s in samples]
    index, labels = build_labels(kept, cfg["top_n"])
    save_label_cache(out / "labels.jsonl", labels)
    stats = {
        "samples": len(samples),
        "mean_context_utterances": sum(len(k[0]) for k in kept) / len(kept),
        "mean_knowledge_sentences": sum(len(k[1]) for k in kept) / len(kept),
        "tfidf_documents": index.doc_count,
        "tfidf_terms": len(index.df),
        "vocab_size": len(vocab),
    }
    (out / "tfidf_stats.json").write_text(json.dumps(stats, sort_keys=True, indent=2) + "\n")
    print(
        f"prep: n={stats['samples']} mean_m={stats['mean_context_utterances']:.2f} "
        f"mean_l={stats['mean_knowledge_sentences']:.2f} vocab={len(vocab)}"
    )
    return 0


def cmd_train(cfg: RunConfig) -> int:
    data = cfg.require_path("data")
    vocab = Vocabulary.load(cfg.require_path("vocab"))
    out = _ensure_out(cfg)
    samples = load_jsonl(data)
    model_cfg = cfg.build(ModelConfig, vocab_size=len(vocab))
    result = train(samples, vocab, model_cfg, cfg.build(TrainingConfig))
    params = dict(result.model.parameters())
    params.update(result.awl_params.named())
    ckpt.save(out / "checkpoint.ckpt", model_cfg, params)
    write_trace(out / "trace.csv", result.trace, result.effective_n, len(samples))
    print(
        f"train: steps={len(result.trace)} effective_n={result.effective_n} "
        f"final_nll={result.trace[-1].l_nll:.4f}"
    )
    return 0


def cmd_generate(cfg: RunConfig, force: bool = False) -> int:
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
    samples = load_jsonl(data)
    beam_size = max(1, cfg["beam"])
    records = []
    for sample in samples:
        enc, weights = model.condition(encode_sample(sample, vocab, model.config.encode_config()))
        ids = model.decode(enc, weights, beam_size=beam_size, max_len=cfg["max_len"])
        tokens = vocab.decode([i for i in ids if i not in (PAD, BOS, EOS)])
        records.append({"token_ids": ids, "tokens": tokens, "text": detokenize(tokens), **weights.lists()})
    out = _ensure_out(cfg)
    with open(out / "generations.jsonl", "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    print(f"generate: wrote {len(records)} records")
    return 0


# What each list field of a generations.jsonl record holds: item types, and their name.
RECORD_LISTS = {
    "tokens": ((str,), "strings"),
    **dict.fromkeys(("clwr", "clwk", "klw"), ((int, float), "numbers")),
}


def _load_generations(path, n_samples: int, keys: tuple[str, ...]) -> list[tuple[int, dict]]:
    """(line number, record) for every non-blank line, one per sample.

    Each record must be a JSON object in which every field named in ``keys``
    is a list of the items ``RECORD_LISTS`` gives for it.
    """
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}: line {lineno}"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as err:
                raise DatasetError(f"{where}: {err.msg}") from err
            if not isinstance(rec, dict):
                raise DatasetError(f"{where}: generation record is not a JSON object")
            for key in keys:
                types, name = RECORD_LISTS[key]
                value = rec.get(key)
                if not isinstance(value, list) or any(type(x) not in types for x in value):
                    raise DatasetError(f"{where}: generation record needs {key} as a list of {name}")
            records.append((lineno, rec))
    if len(records) != n_samples:
        raise DatasetError(f"{path}: {len(records)} generations for {n_samples} samples")
    return records


def cmd_evaluate(cfg: RunConfig) -> int:
    samples = load_jsonl(cfg.require_path("data"))
    generations = _load_generations(cfg.require_path("generations"), len(samples), ("tokens",))
    out = _ensure_out(cfg)
    cands = [rec["tokens"] for _lineno, rec in generations]
    refs = [tokenize(s.response) for s in samples]
    n_pairs = len(cands)
    rows = [(f"bleu-{k}", bleu_n(cands, refs, k), n_pairs, 0) for k in range(1, 5)]
    rows.append(("rouge-l", rouge_l_corpus(cands, refs), n_pairs, 0))
    for k in (1, 2):
        rows.append((f"distinct-{k}", distinct_n(cands, k), n_pairs, 0))
    if cfg["embeddings"]:
        table = WordVectorTable.load(cfg["embeddings"])
        means, excluded = embedding_corpus_scores(cands, refs, table)
        for name in ("average", "extrema", "greedy"):
            rows.append((f"embedding-{name}", means[name], n_pairs - excluded, excluded))
    write_metric_report(out / "metrics.csv", rows)
    for metric, value, *_ in rows:
        print(f"{metric}: {value:.4f}")
    return 0


def cmd_analyze(cfg: RunConfig) -> int:
    """Encode keys not set by --config or a flag come from the generating run's
    effective_config.txt, when one sits beside the generations."""
    gen_path = cfg.require_path("generations")
    echoed = gen_path.parent / "effective_config.txt"
    generating = load_config_file(echoed) if echoed.exists() else {}
    cfg.values.update((f.name, generating[f.name]) for f in fields(EncodeConfig)
                      if f.name in generating and f.name not in cfg.explicit)
    samples = load_jsonl(cfg.require_path("data"))
    keys = ("klw", "clwr", "clwk")
    generations = _load_generations(gen_path, len(samples), keys)
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
    (_ensure_out(cfg) / "analysis.csv").write_text("\n".join(lines) + "\n")
    print(f"analyze: wrote {len(lines) - 1} rows")
    return 0


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
        if args.command == "prep":
            return cmd_prep(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "generate":
            return cmd_generate(cfg, force=args.force)
        if args.command == "evaluate":
            return cmd_evaluate(cfg)
        if args.command == "analyze":
            return cmd_analyze(cfg)
        parser.error(f"unknown command {args.command}")
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
