import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ckl import metrics
from ckl.metrics import (
    EmbeddingOovError,
    UndefinedCorrelationError,
    WordVectorTable,
    bleu_n,
    distinct_n,
    emb_average,
    emb_extrema,
    emb_greedy,
    embedding_corpus_scores,
    mean_spearman,
    p_at_n,
    rouge_l,
    rouge_l_corpus,
    spearman,
)

# ---------------------------------------------------------------------------
# brute-force oracles, written independently of the library implementations
# ---------------------------------------------------------------------------


def oracle_bleu(cands, refs, n):
    log_precisions = []
    for k in range(1, n + 1):
        matched, total = 0, 0
        for cand, ref in zip(cands, refs):
            cand_ngrams = [tuple(cand[i : i + k]) for i in range(len(cand) - k + 1)]
            ref_ngrams = [tuple(ref[i : i + k]) for i in range(len(ref) - k + 1)]
            for gram in set(cand_ngrams):
                matched += min(cand_ngrams.count(gram), ref_ngrams.count(gram))
            total += len(cand_ngrams)
        if total == 0 or matched == 0:
            return 0.0
        log_precisions.append(math.log(matched / total))
    c = sum(len(x) for x in cands)
    r = sum(len(x) for x in refs)
    if c == 0:
        return 0.0
    bp = 1.0 if c > r else math.exp(1 - r / c)
    return bp * math.exp(sum(log_precisions) / n)


def oracle_lcs(a, b):
    if not a or not b:
        return 0
    if a[-1] == b[-1]:
        return 1 + oracle_lcs(a[:-1], b[:-1])
    return max(oracle_lcs(a[:-1], b), oracle_lcs(a, b[:-1]))


def oracle_rouge(cand, ref):
    lcs = oracle_lcs(cand, ref)
    if lcs == 0:
        return 0.0
    p, r = lcs / len(cand), lcs / len(ref)
    return 2 * p * r / (p + r)


def oracle_distinct(corpus, n):
    grams = []
    for sent in corpus:
        for i in range(len(sent) - n + 1):
            grams.append(tuple(sent[i : i + n]))
    uniq = []
    for g in grams:
        if g not in uniq:
            uniq.append(g)
    return len(uniq) / len(grams)


def oracle_cosine(u, v):
    nu = math.sqrt(sum(x * x for x in u))
    nv = math.sqrt(sum(x * x for x in v))
    if nu == 0 or nv == 0:
        return 0.0
    return sum(a * b for a, b in zip(u, v)) / (nu * nv)


def oracle_embedding(cand, ref, table):
    cvecs = [list(table[t]) for t in cand if t in table]
    rvecs = [list(table[t]) for t in ref if t in table]
    d = len(cvecs[0])
    avg_c = [sum(v[i] for v in cvecs) / len(cvecs) for i in range(d)]
    avg_r = [sum(v[i] for v in rvecs) / len(rvecs) for i in range(d)]

    def extrema(vecs):
        out = []
        for i in range(d):
            best = vecs[0][i]
            for v in vecs:
                if abs(v[i]) > abs(best):
                    best = v[i]
            out.append(best)
        return out

    def greedy_dir(src, dst):
        return sum(max(oracle_cosine(u, v) for v in dst) for u in src) / len(src)

    return (
        oracle_cosine(avg_c, avg_r),
        oracle_cosine(extrema(cvecs), extrema(rvecs)),
        (greedy_dir(cvecs, rvecs) + greedy_dir(rvecs, cvecs)) / 2,
    )


def oracle_ranks(vals):
    out = []
    for v in vals:
        below = sum(1 for w in vals if w < v)
        equal = sum(1 for w in vals if w == v)
        # average of positions below+1 .. below+equal
        out.append(below + (equal + 1) / 2)
    return out


def oracle_spearman(x, y):
    rx, ry = oracle_ranks(x), oracle_ranks(y)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = math.sqrt(sum((a - mx) ** 2 for a in rx)) * math.sqrt(
        sum((b - my) ** 2 for b in ry)
    )
    return num / den


def oracle_p_at_n(rankings, targets, n):
    return sum(1 for r, t in zip(rankings, targets) if t in r[:n]) / len(rankings)


# ---------------------------------------------------------------------------


class TestBleu:
    def test_identity(self):
        refs = [["a", "b", "c", "d", "e"], ["f", "g", "h", "i"]]
        for n in range(1, 5):
            assert bleu_n(refs, refs, n) == pytest.approx(1.0)

    def test_disjoint(self):
        assert bleu_n([["a", "b"]], [["c", "d"]], 2) == 0.0

    def test_brevity_penalty(self):
        got = bleu_n([["the", "cat"]], [["the", "cat", "sat"]], 1)
        assert got == pytest.approx(math.exp(-0.5))

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            bleu_n([], [], 1)


class TestRouge:
    def test_identity(self):
        assert rouge_l(["a", "b"], ["a", "b"]) == 1.0

    def test_partial(self):
        assert rouge_l(["a", "b", "c"], ["a", "c"]) == pytest.approx(0.8)

    def test_disjoint(self):
        assert rouge_l(["a"], ["b"]) == 0.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            rouge_l(["a"], [])


class TestDistinct:
    def test_all_unique(self):
        assert distinct_n([["a", "b"], ["c"]], 1) == 1.0

    def test_repeats(self):
        assert distinct_n([["a", "a", "b"]], 1) == pytest.approx(2 / 3)

    def test_bigrams(self):
        assert distinct_n([["a", "a", "a"]], 2) == pytest.approx(0.5)

    def test_no_ngrams_rejected(self):
        with pytest.raises(ValueError):
            distinct_n([["a"]], 2)


class TestEmbeddingMetrics:
    table = WordVectorTable({"x": np.array([1.0, 0.0]), "y": np.array([0.0, 1.0]), "z": np.array([1.0, 1.0])})

    def test_identical_sentences(self):
        for fn in (emb_average, emb_extrema, emb_greedy):
            assert fn(["x", "y"], ["x", "y"], self.table) == pytest.approx(1.0)

    def test_orthogonal_words(self):
        for fn in (emb_average, emb_extrema, emb_greedy):
            assert fn(["x"], ["y"], self.table) == pytest.approx(0.0)

    def test_oov_pair_excluded_and_counted(self):
        means, excluded = embedding_corpus_scores(
            [["x"], ["missing"]], [["x"], ["y"]], self.table
        )
        assert excluded == 1
        assert means["average"] == pytest.approx(1.0)

    def test_oov_sentence_raises(self):
        with pytest.raises(EmbeddingOovError):
            emb_average(["missing"], ["x"], self.table)

    def test_table_io(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("x 1.0 0.0\ny 0.0 1.0\n")
        table = WordVectorTable.load(p)
        assert table.dim == 2

    def test_inconsistent_dim_rejected(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("x 1.0 0.0\ny 0.0\n")
        with pytest.raises(ValueError):
            WordVectorTable.load(p)

    @pytest.mark.parametrize("text,problem", [
        ("x 1.0 0.0\ny nan 1.0\n", "line 2: bad vector: a non-finite value"),
        ("x 1.0 0.0\ny 1.0 -inf\n", "line 2: bad vector: a non-finite value"),
        ("x 1.0 0.0\ny\n", "line 2: bad vector: no values"),
        ("x 1.0 0.0\n\ny 0.0\n", "line 3: bad vector: 1 values, not the first line's 2"),
        ("x 1.0 0.0\ny 0.0 1.0 2.0\n", "line 2: bad vector: 3 values, not the first line's 2"),
    ], ids=["nan", "inf", "empty", "short-after-a-blank-line", "long"])
    def test_bad_line_is_named(self, tmp_path, text, problem):
        p = tmp_path / "vec.txt"
        p.write_text(text)
        with pytest.raises(ValueError, match=f"vec.txt: {problem}"):
            WordVectorTable.load(p)


class TestPAtN:
    def test_always_first(self):
        assert p_at_n([[0, 1], [0, 2, 1]], [0, 0], 1) == 1.0

    def test_full_window(self):
        rankings = [[2, 0, 1], [1, 0]]
        targets = [1, 0]
        assert p_at_n(rankings, targets, 3) == 1.0

    def test_mixed(self):
        rankings = [[0, 1, 2], [0, 1, 2]]
        targets = [0, 2]
        assert p_at_n(rankings, targets, 1) == 0.5
        assert p_at_n(rankings, targets, 3) == 1.0

    def test_monotone_in_n(self):
        rng = random.Random(5)
        rankings, targets = [], []
        for _ in range(40):
            l = rng.randint(1, 8)  # noqa: E741
            perm = list(range(l))
            rng.shuffle(perm)
            rankings.append(perm)
            targets.append(rng.randrange(l))
        prev = 0.0
        for n in range(1, 9):
            cur = p_at_n(rankings, targets, n)
            assert cur >= prev
            prev = cur

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            p_at_n([[0]], [0], 0)


class TestSpearman:
    def test_identical(self):
        assert spearman([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_reversed(self):
        assert spearman([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(-1.0)

    def test_ties_match_oracle(self):
        x = [1.0, 2.0, 3.0, 4.0]
        y = [1.0, 1.0, 0.0, 0.0]
        assert spearman(x, y) == pytest.approx(oracle_spearman(x, y), abs=1e-12)
        assert spearman(x, y) == pytest.approx(-2 / math.sqrt(5))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -2.5, 1e300]), st.integers(-3, 3),
                              st.floats(allow_nan=False, allow_infinity=False)), min_size=1, max_size=30))
    def test_average_ranks_equal_the_oracle_bitwise(self, values):
        ranks = metrics._average_ranks(np.asarray(values, dtype=np.float64))
        assert ranks.tolist() == oracle_ranks([float(v) for v in values])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_raise(self, bad):
        for x, y in (([1.0, bad, 2.0], [1.0, 2.0, 3.0]), ([1.0, 2.0, 3.0], [bad, bad, 0.0])):
            with pytest.raises(ValueError, match="finite"):
                spearman(x, y)

    def test_constant_vector_is_undefined(self):
        with pytest.raises(UndefinedCorrelationError):
            spearman([1.0, 1.0], [0.0, 1.0])

    def test_mean_spearman_skips_undefined(self):
        pairs = [([1.0, 2.0], [1.0, 2.0]), ([1.0, 1.0], [0.0, 1.0])]
        mean, defined, undefined = mean_spearman(pairs)
        assert (mean, defined, undefined) == (pytest.approx(1.0), 1, 1)


class TestOracleEquivalence:
    """Library metrics against the brute-force implementations above."""

    def test_fifty_random_corpora(self):
        rng = random.Random(77)
        words = ["w%d" % i for i in range(8)]
        vec_rng = np.random.default_rng(78)
        table_arrays = {w: vec_rng.uniform(-1, 1, 3) for w in words}
        table = WordVectorTable({w: v.copy() for w, v in table_arrays.items()})
        plain_table = {w: list(v) for w, v in table_arrays.items()}

        for _ in range(50):
            n_pairs = rng.randint(1, 4)
            cands = [
                [rng.choice(words) for _ in range(rng.randint(1, 6))]
                for _ in range(n_pairs)
            ]
            refs = [
                [rng.choice(words) for _ in range(rng.randint(1, 6))]
                for _ in range(n_pairs)
            ]

            for n in range(1, 5):
                assert bleu_n(cands, refs, n) == pytest.approx(
                    oracle_bleu(cands, refs, n), abs=1e-9
                )
            expected_rouge = sum(oracle_rouge(c, r) for c, r in zip(cands, refs)) / n_pairs
            assert rouge_l_corpus(cands, refs) == pytest.approx(expected_rouge, abs=1e-9)
            for n in (1, 2):
                if sum(max(0, len(c) - n + 1) for c in cands) > 0:
                    assert distinct_n(cands, n) == pytest.approx(
                        oracle_distinct(cands, n), abs=1e-9
                    )
            rows = []
            for cand, ref in zip(cands, refs):
                rows.append((emb_average(cand, ref, table), emb_extrema(cand, ref, table), emb_greedy(cand, ref, table)))
                assert rows[-1] == pytest.approx(oracle_embedding(cand, ref, plain_table), abs=1e-9)
            # The corpus means are the running sums over pairs divided by the pair count, bit for bit.
            means, excluded = embedding_corpus_scores(cands, refs, table)
            assert excluded == 0
            assert [means[k] for k in ("average", "extrema", "greedy")] == [sum(col) / n_pairs for col in zip(*rows)]

            # spearman / p@n on random score vectors and rankings
            size = rng.randint(2, 7)
            x = [rng.choice([0.0, 0.5, 1.0, 2.0]) for _ in range(size)]
            y = [rng.choice([0.0, 1.0]) for _ in range(size)]
            if len(set(x)) > 1 and len(set(y)) > 1:
                assert spearman(x, y) == pytest.approx(oracle_spearman(x, y), abs=1e-9)
            rankings, targets = [], []
            for _ in range(n_pairs):
                l = rng.randint(1, 6)  # noqa: E741
                perm = list(range(l))
                rng.shuffle(perm)
                rankings.append(perm)
                targets.append(rng.randrange(l))
            for n in (1, 2, 3):
                assert p_at_n(rankings, targets, n) == pytest.approx(
                    oracle_p_at_n(rankings, targets, n), abs=1e-9
                )

    def test_ranges(self):
        rng = random.Random(99)
        words = ["a", "b", "c"]
        for _ in range(30):
            n_pairs = rng.randint(1, 3)
            cands = [[rng.choice(words) for _ in range(rng.randint(1, 5))] for _ in range(n_pairs)]
            refs = [[rng.choice(words) for _ in range(rng.randint(1, 5))] for _ in range(n_pairs)]
            for n in range(1, 5):
                assert 0.0 <= bleu_n(cands, refs, n) <= 1.0
            assert 0.0 <= rouge_l_corpus(cands, refs) <= 1.0
            assert 0.0 < distinct_n(cands, 1) <= 1.0
            size = rng.randint(2, 6)
            x = [rng.random() for _ in range(size)]
            y = [rng.choice([0.0, 1.0]) for _ in range(size)]
            if len(set(y)) > 1:
                assert -1.0 <= spearman(x, y) <= 1.0

    def test_permutation_equivariance(self):
        rng = random.Random(13)
        words = ["a", "b", "c", "d"]
        cands = [[rng.choice(words) for _ in range(4)] for _ in range(6)]
        refs = [[rng.choice(words) for _ in range(4)] for _ in range(6)]
        perm = list(range(6))
        rng.shuffle(perm)
        pc = [cands[i] for i in perm]
        pr = [refs[i] for i in perm]
        assert bleu_n(cands, refs, 2) == pytest.approx(bleu_n(pc, pr, 2), abs=1e-12)
        assert rouge_l_corpus(cands, refs) == pytest.approx(rouge_l_corpus(pc, pr), abs=1e-12)
        assert distinct_n(cands, 2) == pytest.approx(distinct_n(pc, 2), abs=1e-12)
