"""Pseudo ground truths for latent-weight supervision.

Context labels come from word-level F1 against the response (and against the
top TF-IDF-retrieved knowledge sentence); knowledge labels mark the top-N
sentences retrieved with the response as the query. The post (last context
utterance) is always labelled 1. All argmax and sort ties resolve to the
lowest original index so labels are reproducible.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .corpus import write_json_lines


def word_f1(a: list[str], b: list[str]) -> float:
    """Multiset token overlap F1; 0 when either side is empty or disjoint."""
    if not a or not b:
        return 0.0
    overlap = sum((Counter(a) & Counter(b)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(a)
    recall = overlap / len(b)
    return 2.0 * precision * recall / (precision + recall)


class TfIdfIndex:
    """Document frequencies over one dataset split's knowledge sentences."""

    def __init__(self, documents: list[list[str]]):
        self.doc_count = len(documents)
        self.df = Counter(term for doc in documents for term in dict.fromkeys(doc))

    def idf(self, term: str) -> float:
        # Smoothed so unseen and ubiquitous terms stay positive-definite.
        return math.log((1.0 + self.doc_count) / (1.0 + self.df[term])) + 1.0


def tfidf_score(index: TfIdfIndex, sentence: list[str], query: list[str]) -> float:
    """Sum over query tokens of raw tf(token, sentence) * idf(token)."""
    if not query:
        return 0.0
    tf = Counter(sentence)
    return sum(tf[t] * index.idf(t) for t in query if tf[t])


def rank_knowledge(index: TfIdfIndex, knowledge: list[list[str]], response: list[str]) -> list[int]:
    """Knowledge indices in descending TF-IDF order; ties keep original order."""
    if not knowledge:
        raise ValueError("rank_knowledge needs at least one knowledge sentence")
    scores = [tfidf_score(index, sent, response) for sent in knowledge]
    return sorted(range(len(knowledge)), key=lambda i: (-scores[i], i))


@dataclass
class PseudoGroundTruth:
    gt_clwr: list[int]
    gt_clwk: list[int]
    gt_klw: list[int]
    top1_rk_index: int


def build_pseudo_gt(
    context: list[list[str]],
    knowledge: list[list[str]],
    response: list[str],
    index: TfIdfIndex,
    top_n: int,
) -> PseudoGroundTruth:
    """Binary targets for the three latent-weight vectors of one sample.

    Token lists must already reflect encode-time truncation so that label
    positions line up with model segments.
    """
    m, l = len(context), len(knowledge)  # noqa: E741
    if m < 1 or l < 1 or top_n < 1:
        raise ValueError("build_pseudo_gt needs m >= 1, l >= 1, top_n >= 1")

    ranking = rank_knowledge(index, knowledge, response)
    top1 = ranking[0]

    def context_target(reference: list[str]) -> list[int]:
        scores = [word_f1(c, reference) for c in context]
        best = max(range(m), key=lambda i: (scores[i], -i))
        gt = [0] * m
        gt[best] = 1
        gt[m - 1] = 1  # the post is always relevant
        return gt

    gt_klw = [0] * l
    for i in ranking[: min(top_n, l)]:
        gt_klw[i] = 1

    return PseudoGroundTruth(
        gt_clwr=context_target(response),
        gt_clwk=context_target(knowledge[top1]),
        gt_klw=gt_klw,
        top1_rk_index=top1,
    )


def save_label_cache(path, labels: list[PseudoGroundTruth]) -> None:
    write_json_lines(path, ({"gt_clwr": lab.gt_clwr, "gt_clwk": lab.gt_clwk, "gt_klw": lab.gt_klw,
                             "top1_rk": lab.top1_rk_index} for lab in labels))
