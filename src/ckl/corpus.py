"""Corpus loading, the atomic file writer, JSON Lines I/O, rule tokenization, vocabulary, and sample encoding.

Dataset files are JSON Lines with keys ``context`` (array of strings, last
entry is the post), ``knowledge`` (array of strings) and ``response``
(string). Encoding keeps the latest ``m_max`` context utterances, truncates
the response to ``max_target_len`` ids including BOS/EOS, and appends
knowledge sentences in order until the separator-joined concatenation would
exceed ``max_source_len``; a sentence that does not fit is dropped whole,
along with everything after it, so per-sentence labels stay aligned. When
that would keep no sentence at all, the first sentence gets reserved room
instead: older utterances are dropped and the post is truncated from the
left to make space for it, and only a sentence that cannot fit next to a
one-token post is truncated from the right.
"""

from __future__ import annotations

import json
import os
import re
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

PAD, BOS, EOS, UNK, SEP = 0, 1, 2, 3, 4
RESERVED_TOKENS = ["<pad>", "<bos>", "<eos>", "<unk>", "<sep>"]
# A word is a run of str.isalnum characters, exactly what [^\W_] matches; \S is one of any other non-space.
_TOKEN = re.compile(r"[^\W_]+|\S")


class DatasetError(ValueError):
    """A dataset file failed structural or record-level validation."""


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, detach punctuation as 1-char tokens."""
    return _TOKEN.findall(text.lower())


def detokenize(tokens: list[str]) -> str:
    return " ".join(tokens)


@dataclass
class DialogueSample:
    """One grounded conversation turn; the last context utterance is the post."""

    context: list[str]
    knowledge: list[str]
    response: str


def numbered_lines(path, keep_blank: bool = False):
    """(line number, text) for each non-blank line of a UTF-8 file, or every line with ``keep_blank``.
    Lines are decoded one by one, so a non-UTF-8 byte raises a DatasetError naming its line."""
    for lineno, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as err:
            raise DatasetError(f"{path}: line {lineno}: not UTF-8 text ({err})") from err
        if keep_blank or line.strip():
            yield lineno, line


def read_json_lines(path):
    """(line number, object) for each non-blank line of a JSON Lines file; bad JSON names its line."""
    for lineno, line in numbered_lines(path):
        try:
            yield lineno, json.loads(line)
        except json.JSONDecodeError as err:
            raise DatasetError(f"{path}: line {lineno}: invalid JSON ({err.msg})") from err


def write_file(path, data: bytes | str) -> None:
    """Write ``data`` to a temporary file beside ``path``, then rename it into place: a write that fails midway leaves
    any previous file whole and no temporary file. Text is UTF-8; surrogateescape keeps a path's bytes in any locale."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode("utf-8", "surrogateescape") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_lines(path, lines) -> None:
    """Each line plus a newline, through ``write_file``."""
    write_file(path, "".join(line + "\n" for line in lines))


def write_json_lines(path, records) -> None:
    """One key-sorted JSON object per line."""
    write_lines(path, (json.dumps(record, sort_keys=True) for record in records))


def load_jsonl(path) -> list[DialogueSample]:
    """Parse a dataset file, reporting malformed lines by file and line number."""
    return [_validate_record(obj, f"{path}: line {lineno}") for lineno, obj in read_json_lines(path)]


def _validate_record(obj, where: str) -> DialogueSample:
    if not isinstance(obj, dict):
        raise DatasetError(f"{where}: record is not an object")
    for key, typ in (("context", list), ("knowledge", list), ("response", str)):
        if key not in obj:
            raise DatasetError(f"{where}: missing field '{key}'")
        if not isinstance(obj[key], typ):
            raise DatasetError(f"{where}: field '{key}' has wrong type")
    context, knowledge, response = obj["context"], obj["knowledge"], obj["response"]
    if not context:
        raise DatasetError(f"{where}: context must contain at least one utterance")
    if not knowledge:
        raise DatasetError(f"{where}: knowledge must contain at least one sentence")
    for name, seq in (("context", context), ("knowledge", knowledge)):
        for i, s in enumerate(seq):
            if not isinstance(s, str):
                raise DatasetError(f"{where}: {name}[{i}] is not a string")
            if not tokenize(s):
                raise DatasetError(f"{where}: {name}[{i}] tokenizes to nothing")
    if not tokenize(response):
        raise DatasetError(f"{where}: response tokenizes to nothing")
    return DialogueSample(list(context), list(knowledge), response)


class Vocabulary:
    """Token/id bijection with fixed reserved ids 0..4."""

    def __init__(self, tokens: list[str]):
        self.id_to_token = RESERVED_TOKENS + list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens: list[str]) -> list[int]:
        get = self.token_to_id.get
        return [get(t, UNK) for t in tokens]

    def decode(self, ids: list[int]) -> list[str]:
        return [self.id_to_token[i] for i in ids]

    def save(self, path) -> None:
        write_lines(path, self.id_to_token)

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """One token per line; line n holds id n - 1, so blank lines count."""
        lines = [line for _, line in numbered_lines(path, keep_blank=True)]
        for lineno, expected in enumerate(RESERVED_TOKENS, start=1):
            if lines[lineno - 1 : lineno] != [expected]:
                got = repr(lines[lineno - 1]) if lineno <= len(lines) else "end of file"
                raise DatasetError(f"{path}: line {lineno}: expected reserved token {expected!r}, got {got}")
        while lines[-1] == "":
            lines.pop()
        first: dict[str, int] = {}
        for lineno, token in enumerate(lines, start=1):
            if first.setdefault(token, lineno) != lineno:
                raise DatasetError(f"{path}: line {lineno}: token {token!r} duplicates line {first[token]}")
        return cls(lines[5:])


def build_vocab(samples: list[DialogueSample], min_freq: int = 1, max_size: int = 50000) -> Vocabulary:
    """Frequency-sorted vocabulary; ties break lexicographically."""
    if not samples:
        raise ValueError("cannot build a vocabulary from zero samples")
    if max_size < 0:
        raise ValueError(f"max_size must be >= 0, got {max_size}")
    counts = Counter()
    for s in samples:
        for text in s.context + s.knowledge + [s.response]:
            counts.update(tokenize(text))
    kept = [t for t, c in counts.items() if c >= min_freq]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocabulary(kept[:max_size])


@dataclass
class EncodeConfig:
    m_max: int = 10
    max_source_len: int = 1024
    max_target_len: int = 64

    def __post_init__(self):
        for name, least, why in (("m_max", 1, "to keep the post"),
                                 ("max_source_len", 3, "to fit a post token, a SEP and a knowledge token"),
                                 ("max_target_len", 2, "to fit BOS and EOS")):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least} {why}, got {getattr(self, name)}")


@dataclass
class EncodedSample:
    """Token-id form of a sample plus the segment layout of the concatenation."""

    context_ids: list[list[int]]
    knowledge_ids: list[list[int]]
    response_ids: list[int]
    segment_lengths: list[int]
    context_tokens: list[list[str]] = field(repr=False, default_factory=list)
    knowledge_tokens: list[list[str]] = field(repr=False, default_factory=list)
    response_tokens: list[str] = field(repr=False, default_factory=list)

    @property
    def m(self) -> int:
        return len(self.context_ids)

    @property
    def l(self) -> int:  # noqa: E741
        return len(self.knowledge_ids)

    def source_ids(self) -> list[int]:
        """Segments joined by a single SEP id, in context-then-knowledge order."""
        out: list[int] = []
        for seg in self.context_ids + self.knowledge_ids:
            if out:
                out.append(SEP)
            out.extend(seg)
        return out


def _joined_len(segments: list[list[str]]) -> int:
    return sum(map(len, segments)) + len(segments) - 1


def _fit_context(context: list[list[str]], budget: int) -> list[list[str]]:
    """Drop the oldest utterances until the SEP-joined context fits ``budget``.

    A post longer than the whole budget keeps only its last ``budget`` tokens.
    """
    post = context[-1]
    if len(post) > budget:
        return [post[-budget:]]
    while len(context) > 1 and _joined_len(context) > budget:
        context = context[1:]
    return context


def kept_segments(
    sample: DialogueSample, config: EncodeConfig
) -> tuple[list[list[str]], list[list[str]], list[str]]:
    """Apply truncation rules on the token level, before any id mapping.

    Returns (context token lists, knowledge token lists, response tokens);
    the response here excludes BOS/EOS but honours the id budget.
    """
    limit = config.max_source_len
    utterances = [tokenize(u) for u in sample.context[-config.m_max :]]
    context = _fit_context(utterances, limit)

    budget = limit - _joined_len(context)
    knowledge: list[list[str]] = []
    for sent in sample.knowledge:
        toks = tokenize(sent)
        if len(toks) + 1 > budget:  # +1 for the SEP joining it
            break
        knowledge.append(toks)
        budget -= len(toks) + 1

    if not knowledge:
        # Reserve room for the first sentence: a one-token post, a SEP and it.
        first = tokenize(sample.knowledge[0])
        if len(first) > limit - 2:
            warnings.warn("first knowledge sentence alone exceeds its budget; truncating")
            first = first[: limit - 2]
        context = _fit_context(utterances, limit - len(first) - 1)
        knowledge = [first]
    if len(context[-1]) < len(utterances[-1]):
        warnings.warn(
            f"post of {len(utterances[-1])} tokens truncated from the left to "
            f"{len(context[-1])} to fit the {limit}-token source"
        )

    response = tokenize(sample.response)[: config.max_target_len - 2]
    return context, knowledge, response


def encode_sample(sample: DialogueSample, vocab: Vocabulary, config: EncodeConfig | None = None) -> EncodedSample:
    config = config or EncodeConfig()
    context, knowledge, response = kept_segments(sample, config)
    context_ids = [vocab.encode(seg) for seg in context]
    knowledge_ids = [vocab.encode(seg) for seg in knowledge]
    response_ids = [BOS] + vocab.encode(response) + [EOS]
    return EncodedSample(
        context_ids=context_ids,
        knowledge_ids=knowledge_ids,
        response_ids=response_ids,
        segment_lengths=[len(s) for s in context_ids + knowledge_ids],
        context_tokens=context,
        knowledge_tokens=knowledge,
        response_tokens=response,
    )
