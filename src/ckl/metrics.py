"""Generation quality metrics and latent-weight analysis quantities.

Corpus-level BLEU without smoothing, ROUGE-L as plain F1, distinct-n over the
whole generated corpus, bag-of-vector Average/Extrema/Greedy similarities,
precision-at-N over rankings, and Spearman correlation with average ranks for
ties.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .corpus import numbered_lines, write_lines


class UndefinedCorrelationError(ValueError):
    """Spearman correlation is undefined (zero rank variance)."""


class EmbeddingOovError(ValueError):
    """A sentence has no in-table tokens, so the pair cannot be scored."""


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu_n(candidates: list[list[str]], references: list[list[str]], n: int) -> float:
    """Corpus BLEU-n: geometric mean of modified precisions times brevity penalty."""
    if not 1 <= n <= 4:
        raise ValueError(f"bleu order must be in 1..4, got {n}")
    if not candidates or len(candidates) != len(references):
        raise ValueError("need equal non-empty candidate and reference lists")
    cand_len = sum(len(c) for c in candidates)
    ref_len = sum(len(r) for r in references)
    if cand_len == 0:
        return 0.0
    log_sum = 0.0
    for k in range(1, n + 1):
        matched = 0
        total = 0
        for cand, ref in zip(candidates, references):
            cgrams = _ngrams(cand, k)
            rgrams = _ngrams(ref, k)
            matched += sum(min(c, rgrams[g]) for g, c in cgrams.items())
            total += sum(cgrams.values())
        if total == 0 or matched == 0:
            return 0.0
        log_sum += math.log(matched / total)
    bp = math.exp(min(0.0, 1.0 - ref_len / cand_len))
    return bp * math.exp(log_sum / n)


def _lcs_length(a: list[str], b: list[str]) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l(candidate: list[str], reference: list[str]) -> float:
    """LCS-based F1 between one candidate and one reference."""
    if not reference:
        raise ValueError("rouge_l needs a non-empty reference")
    lcs = _lcs_length(candidate, reference) if candidate else 0
    if lcs == 0:
        return 0.0
    p = lcs / len(candidate)
    r = lcs / len(reference)
    return 2.0 * p * r / (p + r)


def rouge_l_corpus(candidates: list[list[str]], references: list[list[str]]) -> float:
    if not candidates or len(candidates) != len(references):
        raise ValueError("need equal non-empty candidate and reference lists")
    return sum(rouge_l(c, r) for c, r in zip(candidates, references)) / len(candidates)


def distinct_n(corpus: list[list[str]], n: int) -> float:
    """Unique n-grams across the whole corpus divided by total n-grams."""
    grams = [_ngrams(sent, n) for sent in corpus]
    total = sum(sum(g.values()) for g in grams)
    if total == 0:
        raise ValueError(f"corpus contains no {n}-grams")
    return len(set().union(*grams)) / total


class WordVectorTable:
    """token -> vector map read from 'token v1 v2 ... vd' lines."""

    def __init__(self, vectors: dict[str, np.ndarray]):
        dims = {v.shape for v in vectors.values()}
        if len(dims) > 1:
            raise ValueError(f"inconsistent vector dimensions: {sorted(dims)}")
        self.vectors = vectors
        self.dim = next(iter(dims))[0] if vectors else 0

    @classmethod
    def load(cls, path) -> "WordVectorTable":
        """Every line must hold finite values, as many as the first line holds."""
        vectors, dim = {}, 0
        for lineno, line in numbered_lines(path):
            token, *values = line.split()
            try:
                vec = np.array([float(x) for x in values])
            except ValueError as err:
                raise ValueError(f"{path}: line {lineno}: bad vector") from err
            dim = dim or vec.size
            problem = ("no values" if not vec.size else f"{vec.size} values, not the first line's {dim}"
                       if vec.size != dim else "a non-finite value" if not np.isfinite(vec).all() else None)
            if problem:
                raise ValueError(f"{path}: line {lineno}: bad vector: {problem}")
            vectors[token] = vec
        return cls(vectors)

    def sentence_vectors(self, tokens: list[str]) -> list[np.ndarray]:
        vecs = [self.vectors[t] for t in tokens if t in self.vectors]
        if not vecs:
            raise EmbeddingOovError("sentence has no in-table tokens")
        return vecs


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def emb_average(candidate: list[str], reference: list[str], table: WordVectorTable) -> float:
    cv = np.mean(table.sentence_vectors(candidate), axis=0)
    rv = np.mean(table.sentence_vectors(reference), axis=0)
    return _cosine(cv, rv)


def _extrema_vector(vecs: list[np.ndarray]) -> np.ndarray:
    stacked = np.stack(vecs)
    idx = np.argmax(np.abs(stacked), axis=0)
    return stacked[idx, np.arange(stacked.shape[1])]


def emb_extrema(candidate: list[str], reference: list[str], table: WordVectorTable) -> float:
    cv = _extrema_vector(table.sentence_vectors(candidate))
    rv = _extrema_vector(table.sentence_vectors(reference))
    return _cosine(cv, rv)


def emb_greedy(candidate: list[str], reference: list[str], table: WordVectorTable) -> float:
    cvecs = table.sentence_vectors(candidate)
    rvecs = table.sentence_vectors(reference)

    def direction(src, dst):
        return sum(max(_cosine(u, v) for v in dst) for u in src) / len(src)

    return 0.5 * (direction(cvecs, rvecs) + direction(rvecs, cvecs))


def embedding_corpus_scores(
    candidates: list[list[str]], references: list[list[str]], table: WordVectorTable
) -> tuple[dict[str, float], int]:
    """Mean Average/Extrema/Greedy over scoreable pairs plus excluded count."""
    scores, excluded = [], 0
    for cand, ref in zip(candidates, references):
        try:
            scores.append([score(cand, ref, table) for score in (emb_average, emb_extrema, emb_greedy)])
        except EmbeddingOovError:
            excluded += 1
    means = np.mean(scores, axis=0) if scores else np.zeros(3)
    return dict(zip(("average", "extrema", "greedy"), map(float, means))), excluded


def p_at_n(rankings: list[list[int]], targets: list[int], n: int) -> float:
    """Fraction of samples whose target index sits in the first n positions."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not rankings or len(rankings) != len(targets):
        raise ValueError("need equal non-empty rankings and targets")
    hits = 0
    for ranking, target in zip(rankings, targets):
        if not 0 <= target < len(ranking):
            raise ValueError(f"target {target} outside ranking of length {len(ranking)}")
        if target in ranking[:n]:
            hits += 1
    return hits / len(rankings)


def _average_ranks(values) -> np.ndarray:
    """1-based ranks of finite values; a tie shares the mean of its positions, last - (count - 1) / 2."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def spearman(x, y) -> float:
    """Pearson correlation of average-tie ranks; undefined for fewer than two values."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("spearman needs two equal-length vectors")
    if not np.isfinite([x, y]).all():  # np.unique would pool NaNs into one tie
        raise ValueError("spearman needs finite values")
    if x.size < 2:
        raise UndefinedCorrelationError(f"{x.size} values have no rank variance")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    sx = math.sqrt(float(np.dot(dx, dx)))
    sy = math.sqrt(float(np.dot(dy, dy)))
    if sx == 0.0 or sy == 0.0:
        raise UndefinedCorrelationError("zero variance in a rank vector")
    return float(np.dot(dx, dy) / (sx * sy))


def mean_spearman(pairs: list[tuple[list[float], list[float]]]) -> tuple[float, int, int]:
    """Average per-sample Spearman, skipping undefined pairs; unequal or non-finite pairs raise ``ValueError``.

    Returns (mean over defined pairs, defined count, undefined count).
    """
    total = 0.0
    defined = 0
    undefined = 0
    for x, y in pairs:
        try:
            total += spearman(x, y)
        except UndefinedCorrelationError:
            undefined += 1
            continue
        defined += 1
    return (total / defined if defined else 0.0), defined, undefined


def write_metric_report(path, rows: list[tuple[str, float, int, int]]) -> None:
    """CSV with columns metric,value,n_pairs,n_excluded."""
    lines = (f"{metric},{value!r},{n_pairs},{n_excluded}" for metric, value, n_pairs, n_excluded in rows)
    write_lines(path, ["metric,value,n_pairs,n_excluded", *lines])
