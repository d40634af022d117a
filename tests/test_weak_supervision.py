import random

import pytest

from ckl.corpus import read_json_lines
from ckl.weak_supervision import (
    PseudoGroundTruth,
    TfIdfIndex,
    build_pseudo_gt,
    rank_knowledge,
    save_label_cache,
    tfidf_score,
    word_f1,
)


class TestWordF1:
    def test_identical(self):
        assert word_f1(["a", "b"], ["a", "b"]) == 1.0

    def test_disjoint(self):
        assert word_f1(["a"], ["b"]) == 0.0

    def test_half_overlap(self):
        a = ["i", "love", "pop", "music"]
        b = ["pop", "music", "is", "fun"]
        assert word_f1(a, b) == pytest.approx(0.5)

    def test_empty(self):
        assert word_f1([], ["a"]) == 0.0
        assert word_f1(["a"], []) == 0.0

    def test_symmetric(self):
        rng = random.Random(0)
        words = ["w%d" % i for i in range(6)]
        for _ in range(50):
            a = [rng.choice(words) for _ in range(rng.randint(1, 8))]
            b = [rng.choice(words) for _ in range(rng.randint(1, 8))]
            assert word_f1(a, b) == pytest.approx(word_f1(b, a))

    def test_multiset_clipping(self):
        # one shared "a"; the duplicate in the candidate is clipped
        assert word_f1(["a", "a"], ["a", "b"]) == pytest.approx(0.5)


class TestTfIdf:
    def test_absent_term_contributes_zero(self):
        index = TfIdfIndex([["x", "y"], ["z"]])
        assert tfidf_score(index, ["x", "y"], ["z"]) == 0.0

    def test_discriminative_term_ranks_its_doc_first(self):
        docs = [["common", "rare"], ["common", "plain"]]
        index = TfIdfIndex(docs)
        assert tfidf_score(index, docs[0], ["rare"]) > tfidf_score(index, docs[1], ["rare"])

    def test_empty_query(self):
        index = TfIdfIndex([["a"]])
        assert tfidf_score(index, ["a"], []) == 0.0

    def test_idf_formula(self):
        import math

        index = TfIdfIndex([["a", "b"], ["a"], ["c"]])
        assert index.idf("a") == pytest.approx(math.log(4 / 3) + 1)
        assert index.idf("zzz") == pytest.approx(math.log(4 / 1) + 1)

    def test_document_frequency_counts_each_document_once(self):
        index = TfIdfIndex([["a"], ["b"], ["a", "c", "a"]])
        assert index.doc_count == 3
        assert list(index.df.items()) == [("a", 2), ("b", 1), ("c", 1)]  # first-occurrence order


class TestRankKnowledge:
    def test_singleton(self):
        index = TfIdfIndex([["a"]])
        assert rank_knowledge(index, [["a"]], ["q"]) == [0]

    def test_verbatim_copy_wins(self):
        knowledge = [["cats", "purr"], ["pop", "music", "is", "fun"], ["dogs", "bark"]]
        index = TfIdfIndex(knowledge)
        ranking = rank_knowledge(index, knowledge, ["pop", "music", "is", "fun"])
        assert ranking[0] == 1

    def test_all_equal_scores_keep_order(self):
        knowledge = [["same"], ["same"], ["same"]]
        index = TfIdfIndex(knowledge)
        assert rank_knowledge(index, knowledge, ["same"]) == [0, 1, 2]

    def test_permutation_and_determinism(self):
        rng = random.Random(3)
        words = ["w%d" % i for i in range(10)]
        for _ in range(25):
            knowledge = [
                [rng.choice(words) for _ in range(rng.randint(1, 5))]
                for _ in range(rng.randint(1, 6))
            ]
            index = TfIdfIndex(knowledge)
            query = [rng.choice(words) for _ in range(rng.randint(1, 5))]
            ranking = rank_knowledge(index, knowledge, query)
            assert sorted(ranking) == list(range(len(knowledge)))
            assert ranking == rank_knowledge(index, knowledge, query)


class TestBuildPseudoGt:
    def test_argmax_at_first_utterance(self):
        context = [["pop", "music", "rocks"], ["nothing", "here"], ["short", "post"]]
        knowledge = [["pop", "music", "rocks"], ["other", "stuff"]]
        response = ["pop", "music", "rocks"]
        index = TfIdfIndex(knowledge)
        gt = build_pseudo_gt(context, knowledge, response, index, top_n=1)
        assert gt.gt_clwr == [1, 0, 1]

    def test_single_utterance_post_only(self):
        knowledge = [["k"]]
        index = TfIdfIndex(knowledge)
        gt = build_pseudo_gt([["hello"]], knowledge, ["resp"], index, top_n=1)
        assert gt.gt_clwr == [1]
        assert gt.gt_clwk == [1]

    def test_top_n_cardinality(self):
        knowledge = [["k%d" % i] for i in range(5)]
        index = TfIdfIndex(knowledge)
        gt = build_pseudo_gt([["post"]], knowledge, ["k2"], index, top_n=2)
        assert sum(gt.gt_klw) == 2
        gt_all = build_pseudo_gt([["post"]], knowledge, ["k2"], index, top_n=10)
        assert gt_all.gt_klw == [1, 1, 1, 1, 1]

    def test_clwk_follows_top1_retrieved(self):
        # response retrieves knowledge[1]; context[0] matches that sentence
        context = [["solar", "panels"], ["tell", "me", "more"]]
        knowledge = [["wind", "turbines", "spin"], ["solar", "panels", "shine"]]
        response = ["solar", "panels", "shine"]
        index = TfIdfIndex(knowledge)
        gt = build_pseudo_gt(context, knowledge, response, index, top_n=1)
        assert gt.top1_rk_index == 1
        assert gt.gt_clwk == [1, 1]
        assert gt.gt_klw == [0, 1]

    def test_invariants_on_random_samples(self):
        rng = random.Random(9)
        words = ["w%d" % i for i in range(15)]

        def sentence():
            return [rng.choice(words) for _ in range(rng.randint(1, 6))]

        for _ in range(300):
            m = rng.randint(1, 5)
            l = rng.randint(1, 6)  # noqa: E741
            n = rng.randint(1, 4)
            context = [sentence() for _ in range(m)]
            knowledge = [sentence() for _ in range(l)]
            response = sentence()
            index = TfIdfIndex(knowledge)
            gt = build_pseudo_gt(context, knowledge, response, index, n)
            assert gt.gt_clwr[m - 1] == 1 and gt.gt_clwk[m - 1] == 1
            assert 1 <= sum(gt.gt_clwr) <= 2
            assert 1 <= sum(gt.gt_clwk) <= 2
            assert sum(gt.gt_klw) == min(n, l)
            assert gt.gt_klw[gt.top1_rk_index] == 1

    def test_response_appended_as_knowledge_becomes_top1(self):
        rng = random.Random(4)
        words = ["alpha", "beta", "gamma", "delta", "epsilon"]
        for _ in range(20):
            response = [rng.choice(words) for _ in range(4)]
            knowledge = [["unrelated", "text", "%d" % i] for i in range(3)]
            knowledge.append(list(response))
            index = TfIdfIndex(knowledge)
            ranking = rank_knowledge(index, knowledge, response)
            assert ranking[0] == 3


class TestLabelCache:
    def test_round_trip(self, tmp_path):
        labels = [
            PseudoGroundTruth([1, 0, 1], [0, 1, 1], [1, 0], 0),
            PseudoGroundTruth([1], [1], [0, 1, 1], 2),
        ]
        p = tmp_path / "labels.jsonl"
        save_label_cache(p, labels)
        records = [obj for _lineno, obj in read_json_lines(p)]
        assert records == [{"gt_clwr": lab.gt_clwr, "gt_clwk": lab.gt_clwk, "gt_klw": lab.gt_klw,
                            "top1_rk": lab.top1_rk_index} for lab in labels]
