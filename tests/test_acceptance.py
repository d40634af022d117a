"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) carrying the measured quantities next to their thresholds.
"""

import random
import time

import numpy as np
import pytest

from ckl.cli import main
from ckl.corpus import build_vocab
from ckl.losses import AwlParams, awl, mse, nll
from ckl.metrics import (
    bleu_n,
    distinct_n,
    emb_average,
    emb_extrema,
    emb_greedy,
    p_at_n,
    rouge_l_corpus,
    spearman,
    WordVectorTable,
)
from ckl.model import CKLModel, ModelConfig, attention, lwe_attention
from ckl.synthetic import overfit_corpus, retrieval_corpus, write_jsonl
from ckl.tensor import Tape, Tensor
from ckl.training import TrainingConfig, mean_per_token_nll, train
from ckl.weak_supervision import TfIdfIndex, build_pseudo_gt

from conftest import check_gradients, encoding_from_views


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nCRITERION {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def small_config(vocab_size, **overrides):
    base = dict(
        vocab_size=vocab_size,
        d_model=8,
        n_heads=2,
        n_encoder_layers=1,
        n_decoder_layers=1,
        d_ff=16,
        max_source_len=32,
        max_target_len=6,
        m_max=4,
        top_n=1,
    )
    base.update(overrides)
    return ModelConfig(**base)


def test_criterion_1_gradient_suite(gradcheck):
    from ckl.tensor import (
        add,
        add_row,
        cols,
        concat_cols,
        concat_vec,
        element,
        embedding_lookup,
        exp,
        layer_norm,
        log_softmax_lastdim,
        matmul,
        mul,
        relu,
        rows,
        scale,
        sigmoid,
        softmax_lastdim,
        sub,
        sum_all,
        take_per_row,
        transpose,
    )

    start = time.perf_counter()
    rng = np.random.default_rng(100)
    a = rng.uniform(-2, 2, (3, 4))
    b = rng.uniform(-2, 2, (4, 2))
    v = rng.uniform(-2, 2, 4)
    gradcheck(lambda x, y: sum_all(matmul(x, y)), [a, b])
    gradcheck(lambda x: sum_all(mul(transpose(x), transpose(x))), [a])
    gradcheck(lambda x, y: sum_all(add(x, y)), [a, a.copy()])
    gradcheck(lambda x, y: sum_all(mul(sub(x, y), sub(x, y))), [a, a * 0.5])
    gradcheck(lambda x: sum_all(scale(x, 2.5)), [a])
    gradcheck(lambda x: sum_all(sigmoid(x)), [a])
    gradcheck(lambda x: sum_all(exp(x)), [a * 0.5])
    gradcheck(lambda x: sum_all(mul(relu(x), x)), [a])
    gradcheck(lambda x: sum_all(mul(softmax_lastdim(x), x)), [a])
    gradcheck(lambda x: sum_all(mul(log_softmax_lastdim(x), x)), [a])
    gradcheck(
        lambda x, g, be: sum_all(mul(layer_norm(x, g, be), x)),
        [a, rng.uniform(0.5, 2, 4), rng.uniform(-1, 1, 4)],
    )
    gradcheck(lambda t: sum_all(mul(embedding_lookup(t, [0, 2, 2]), embedding_lookup(t, [0, 2, 2]))), [rng.uniform(-2, 2, (4, 3))])
    gradcheck(lambda x, y: sum_all(add_row(x, y)), [a, v])
    gradcheck(lambda x: sum_all(mul(rows(x, 0, 2), rows(x, 0, 2))), [a])
    gradcheck(lambda x: sum_all(mul(cols(x, 1, 2), cols(x, 1, 2))), [a])
    gradcheck(lambda x, y: sum_all(mul(concat_cols([x, y]), concat_cols([x, y]))), [a, a * 2])
    gradcheck(lambda x, y: sum_all(mul(concat_vec([x, y]), concat_vec([x, y]))), [a, v])
    gradcheck(lambda x: sum_all(mul(take_per_row(x, [1, 0, 3]), take_per_row(x, [1, 0, 3]))), [a])
    gradcheck(lambda x: mul(element(x, 1), element(x, 1)), [v])

    # full model, d_model=8, one layer each, m = l = 2
    from ckl.corpus import BOS, EOS, EncodedSample

    config = small_config(vocab_size=12)
    sample = EncodedSample(
        context_ids=[[5, 6], [7, 8]],
        knowledge_ids=[[9], [10, 11]],
        response_ids=[BOS, 5, 9, EOS],
        segment_lengths=[2, 2, 1, 2],
    )
    template = CKLModel(config, seed=41)
    names = list(template.params)
    arrays = [template.params[n].data.copy() for n in names]

    def full_loss(*leaves):
        model = CKLModel.__new__(CKLModel)
        model.config = config
        model.params = dict(zip(names, leaves))
        logits, weights = model.forward(sample)
        return awl(
            mse(weights.clwr, [1.0, 1.0]),
            mse(weights.clwk, [0.0, 1.0]),
            mse(weights.klw, [1.0, 0.0]),
            nll(logits, sample.response_ids[1:]),
            AwlParams(),
        )

    check_gradients(full_loss, arrays)
    elapsed = time.perf_counter() - start
    report(1, elapsed < 60.0, f"gradient suite rel err < 1e-4, runtime {elapsed:.1f}s < 60s")


def test_criterion_2_lwe_reduction_identity():
    rng = np.random.default_rng(200)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 7))
        q = Tensor(rng.normal(size=(int(rng.integers(1, 6)), d)))
        segments = []
        for _ in range(int(rng.integers(1, 6))):
            n = int(rng.integers(1, 6))
            segments.append(
                (Tensor(rng.normal(size=(n, d))), Tensor(rng.normal(size=(n, d))))
            )
        combined = lwe_attention(q, segments, [1.0] * len(segments))
        expected = sum(attention(q, k, v).data for k, v in segments)
        worst = max(worst, float(np.max(np.abs(combined.data - expected))))
    report(2, worst < 1e-12, f"LWE unit-weight identity, max abs diff {worst:.2e} < 1e-12")


def test_criterion_3_segment_zeroing():
    rng = np.random.default_rng(300)
    config = small_config(vocab_size=12)
    model = CKLModel(config, seed=42)
    worst = 0.0
    for trial in range(10):
        m, l = 2, 3  # noqa: E741
        views = [Tensor(rng.normal(size=(2, 8))) for _ in range(m + l)]
        j = trial % l
        perturbed = list(views)
        perturbed[m + j] = Tensor(views[m + j].data + rng.normal(scale=50.0, size=(2, 8)))

        def encoding(vs):
            return encoding_from_views(vs, m)

        clwr = Tensor(rng.uniform(0.1, 0.9, m))
        klw_values = rng.uniform(0.1, 0.9, l)
        klw_values[j] = 0.0
        klw = Tensor(klw_values)
        base = model.decoder_forward([1, 5, 6], encoding(views), clwr, klw)
        moved = model.decoder_forward([1, 5, 6], encoding(perturbed), clwr, klw)
        worst = max(worst, float(np.max(np.abs(base.data - moved.data))))
    report(3, worst < 1e-12, f"zeroed segment leaves logits unchanged, max diff {worst:.2e} < 1e-12")


def test_criterion_4_overfit_experiment():
    start = time.perf_counter()
    samples = overfit_corpus(16, seed=0)
    vocab = build_vocab(samples)
    model_cfg = ModelConfig(
        vocab_size=len(vocab),
        d_model=64,
        n_heads=2,
        n_encoder_layers=2,
        n_decoder_layers=2,
        d_ff=256,
        max_source_len=64,
        max_target_len=16,
    )
    train_cfg = TrainingConfig(learning_rate=5e-5, epochs=500, batch_size=16, seed=0)
    result = train(samples, vocab, model_cfg, train_cfg, max_steps=500)
    per_token = mean_per_token_nll(result.model, result.encoded)
    matches = sum(
        result.model.generate(enc) == enc.response_ids
        for enc in result.encoded
    )
    elapsed = time.perf_counter() - start
    ok = per_token < 0.1 and matches >= 0.9 * len(result.encoded) and elapsed < 300.0
    report(
        4,
        ok,
        f"overfit: per-token NLL {per_token:.4f} < 0.1, exact match {matches}/16 >= 90%, "
        f"runtime {elapsed:.0f}s < 300s",
    )


@pytest.fixture(scope="module")
def retrieval_runs(tmp_path_factory):
    """Criteria 5/6 share one corpus: a full run and a KLW-ablated run via the CLI."""
    tmp = tmp_path_factory.mktemp("retrieval")
    data = tmp / "data.jsonl"
    write_jsonl(data, retrieval_corpus(500, n_knowledge=3, seed=1))
    config = tmp / "run.cfg"
    config.write_text(
        "d_model=32\nn_heads=2\nn_encoder_layers=1\nn_decoder_layers=1\nd_ff=64\n"
        "max_source_len=48\nmax_target_len=12\ntop_n=1\n"
        "learning_rate=0.003\nepochs=20\nbatch_size=25\nseed=2\nmax_len=4\n"
    )
    prep = tmp / "prep"
    assert main(["prep", "--data", str(data), "--out", str(prep), "--config", str(config)]) == 0
    results = {}
    for label, extra in (("full", []), ("ablated", ["--no-loss-klw"])):
        out = tmp / label
        code = main(
            [
                "train",
                "--data",
                str(data),
                "--vocab",
                str(prep / "vocab.txt"),
                "--out",
                str(out),
                "--config",
                str(config),
                *extra,
            ]
        )
        assert code == 0
        gen = tmp / f"gen_{label}"
        code = main(
            [
                "generate",
                "--data",
                str(data),
                "--vocab",
                str(prep / "vocab.txt"),
                "--checkpoint",
                str(out / "checkpoint.ckpt"),
                "--out",
                str(gen),
                "--config",
                str(config),
            ]
        )
        assert code == 0
        analysis = tmp / f"analysis_{label}"
        code = main(
            [
                "analyze",
                "--generations",
                str(gen / "generations.jsonl"),
                "--data",
                str(data),
                "--out",
                str(analysis),
                "--top-n",
                "1",
            ]
        )
        assert code == 0
        rows = [
            line.split(",")
            for line in (analysis / "analysis.csv").read_text().splitlines()[1:]
        ]
        results[label] = {
            "spearman_klw": next(float(r[2]) for r in rows if r[0] == "spearman_klw"),
            "p1_original": next(
                float(r[2]) for r in rows if r[0] == "p_at_n_original" and r[1] == "1"
            ),
            "p1_reranked": next(
                float(r[2]) for r in rows if r[0] == "p_at_n_reranked" and r[1] == "1"
            ),
        }
    return results


def test_criterion_5_weak_supervision_learning(retrieval_runs):
    full = retrieval_runs["full"]
    gain = full["p1_reranked"] - full["p1_original"]
    ok = full["spearman_klw"] >= 0.8 and gain >= 0.2
    report(
        5,
        ok,
        f"KLW learning: Spearman {full['spearman_klw']:.3f} >= 0.8, "
        f"P@1 re-ranked {full['p1_reranked']:.3f} vs original {full['p1_original']:.3f} "
        f"(gain {gain:.3f} >= 0.2)",
    )


def test_criterion_6_ablation_direction(retrieval_runs):
    full = retrieval_runs["full"]["spearman_klw"]
    ablated = retrieval_runs["ablated"]["spearman_klw"]
    drop = full - ablated
    report(
        6,
        drop >= 0.3,
        f"ablation: Spearman {full:.3f} (full) vs {ablated:.3f} (no KLW loss), drop {drop:.3f} >= 0.3",
    )


def test_criterion_7_awl_analytic_checks():
    # delta = 1 gives exactly half the plain sum
    params = AwlParams()
    values = (0.37, 0.21, 0.55, 2.3)
    total = awl(*[Tensor(np.asarray(v)) for v in values], params)
    exact = total.item() == 0.5 * sum(values)

    # gradient of each s_i against central differences at 1e-6
    worst = 0.0
    for i in range(4):
        params = AwlParams()
        base = [Tensor(np.asarray(v)) for v in values]
        with Tape() as tape:
            out = awl(*base, params)
            grads = tape.backward(out)
        got = grads[params.s[i].node_id].item()
        h = 1e-6
        shifted = AwlParams()
        shifted.s[i] = Tensor(np.asarray(h))
        hi = awl(*base, shifted).item()
        shifted = AwlParams()
        shifted.s[i] = Tensor(np.asarray(-h))
        lo = awl(*base, shifted).item()
        worst = max(worst, abs(got - (hi - lo) / (2 * h)))

    # a disabled flag keeps its s constant across 100 real training steps
    samples = overfit_corpus(4, seed=2)
    vocab = build_vocab(samples)
    cfg = small_config(len(vocab), max_source_len=64, max_target_len=12, use_loss_klw=False)
    tcfg = TrainingConfig(learning_rate=1e-3, epochs=50, batch_size=2, seed=3)
    result = train(samples, vocab, cfg, tcfg, max_steps=100)
    s_trace = [row.s[2] for row in result.trace]
    frozen = all(v == 0.0 for v in s_trace) and result.awl_params.values()[2] == 0.0
    others_move = abs(result.awl_params.values()[3]) > 1e-9
    ok = exact and worst < 1e-6 and frozen and others_move and len(result.trace) == 100
    report(
        7,
        ok,
        f"AWL: half-sum exact={exact}, ds_i FD err {worst:.2e} < 1e-6, "
        f"disabled s3 frozen over 100 steps={frozen}",
    )


def test_criterion_8_metric_oracle_equivalence():
    from test_metrics import (
        oracle_bleu,
        oracle_distinct,
        oracle_embedding,
        oracle_p_at_n,
        oracle_rouge,
        oracle_spearman,
    )

    rng = random.Random(800)
    vec_rng = np.random.default_rng(801)
    words = ["w%d" % i for i in range(9)]
    arrays = {w: vec_rng.uniform(-1, 1, 3) for w in words}
    table = WordVectorTable({w: v.copy() for w, v in arrays.items()})
    plain = {w: list(v) for w, v in arrays.items()}
    worst = 0.0
    for _ in range(50):
        n_pairs = rng.randint(1, 4)
        cands = [[rng.choice(words) for _ in range(rng.randint(1, 7))] for _ in range(n_pairs)]
        refs = [[rng.choice(words) for _ in range(rng.randint(1, 7))] for _ in range(n_pairs)]
        for n in range(1, 5):
            worst = max(worst, abs(bleu_n(cands, refs, n) - oracle_bleu(cands, refs, n)))
        worst = max(
            worst,
            abs(
                rouge_l_corpus(cands, refs)
                - sum(oracle_rouge(c, r) for c, r in zip(cands, refs)) / n_pairs
            ),
        )
        for n in (1, 2):
            if sum(max(0, len(c) - n + 1) for c in cands):
                worst = max(worst, abs(distinct_n(cands, n) - oracle_distinct(cands, n)))
        for cand, ref in zip(cands, refs):
            oa, oe, og = oracle_embedding(cand, ref, plain)
            worst = max(worst, abs(emb_average(cand, ref, table) - oa))
            worst = max(worst, abs(emb_extrema(cand, ref, table) - oe))
            worst = max(worst, abs(emb_greedy(cand, ref, table) - og))
        size = rng.randint(2, 7)
        x = [rng.choice([0.0, 0.5, 1.0, 2.0]) for _ in range(size)]
        y = [rng.choice([0.0, 1.0]) for _ in range(size)]
        if len(set(x)) > 1 and len(set(y)) > 1:
            worst = max(worst, abs(spearman(x, y) - oracle_spearman(x, y)))
        rankings, targets = [], []
        for _ in range(n_pairs):
            l = rng.randint(1, 6)  # noqa: E741
            perm = list(range(l))
            rng.shuffle(perm)
            rankings.append(perm)
            targets.append(rng.randrange(l))
        for n in (1, 2, 3):
            worst = max(worst, abs(p_at_n(rankings, targets, n) - oracle_p_at_n(rankings, targets, n)))
    report(8, worst < 1e-9, f"metric oracle equivalence on 50 corpora, max diff {worst:.2e} < 1e-9")


def test_criterion_9_pseudo_gt_invariants():
    rng = random.Random(900)
    words = ["w%d" % i for i in range(20)]

    def sentence():
        return [rng.choice(words) for _ in range(rng.randint(1, 7))]

    violations = 0
    deterministic = True
    for _ in range(1000):
        m = rng.randint(1, 6)
        l = rng.randint(1, 7)  # noqa: E741
        n = rng.randint(1, 5)
        context = [sentence() for _ in range(m)]
        knowledge = [sentence() for _ in range(l)]
        response = sentence()
        index = TfIdfIndex(knowledge)
        gt = build_pseudo_gt(context, knowledge, response, index, n)
        again = build_pseudo_gt(context, knowledge, response, index, n)
        deterministic &= gt == again
        ok = (
            gt.gt_clwr[m - 1] == 1
            and gt.gt_clwk[m - 1] == 1
            and 1 <= sum(gt.gt_clwr) <= 2
            and 1 <= sum(gt.gt_clwk) <= 2
            and sum(gt.gt_klw) == min(n, l)
            and set(gt.gt_clwr) <= {0, 1}
            and set(gt.gt_klw) <= {0, 1}
        )
        violations += not ok
    report(
        9,
        violations == 0 and deterministic,
        f"pseudo-GT invariants on 1000 samples: {violations} violations, deterministic={deterministic}",
    )


def test_criterion_10_training_determinism(tmp_path):
    data = tmp_path / "data.jsonl"
    write_jsonl(data, overfit_corpus(8, seed=4))
    config = tmp_path / "run.cfg"
    config.write_text(
        "d_model=16\nn_heads=2\nn_encoder_layers=1\nn_decoder_layers=1\nd_ff=32\n"
        "max_source_len=64\nmax_target_len=12\nlearning_rate=0.001\nepochs=2\n"
        "batch_size=4\nseed=7\n"
    )
    prep = tmp_path / "prep"
    assert main(["prep", "--data", str(data), "--out", str(prep), "--config", str(config)]) == 0
    traces = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(
            [
                "train",
                "--data",
                str(data),
                "--vocab",
                str(prep / "vocab.txt"),
                "--out",
                str(out),
                "--config",
                str(config),
            ]
        )
        assert code == 0
        traces.append((out / "trace.csv").read_bytes())
    report(10, traces[0] == traces[1], "identical seeds give byte-identical loss traces")


def test_criterion_11_low_resource_harness(tmp_path):
    data = tmp_path / "data.jsonl"
    write_jsonl(data, overfit_corpus(16, seed=5))
    config = tmp_path / "run.cfg"
    config.write_text(
        "d_model=16\nn_heads=2\nn_encoder_layers=1\nn_decoder_layers=1\nd_ff=32\n"
        "max_source_len=64\nmax_target_len=12\nlearning_rate=0.001\nepochs=1\n"
        "batch_size=4\nseed=8\n"
    )
    prep = tmp_path / "prep"
    assert main(["prep", "--data", str(data), "--out", str(prep), "--config", str(config)]) == 0
    observed = {}
    for fraction in ("1.0", "0.5", "0.25"):
        out = tmp_path / f"frac{fraction}"
        code = main(
            [
                "train",
                "--data",
                str(data),
                "--vocab",
                str(prep / "vocab.txt"),
                "--out",
                str(out),
                "--config",
                str(config),
                "--data-fraction",
                fraction,
            ]
        )
        assert code == 0
        header = (out / "trace.csv").read_text().splitlines()[0]
        observed[fraction] = header
    expected = {
        "1.0": f"# effective_samples=16 total_samples=16",
        "0.5": f"# effective_samples=8 total_samples=16",
        "0.25": f"# effective_samples=4 total_samples=16",
    }
    ok = observed == expected
    report(
        11,
        ok,
        "low-resource fractions ran to completion with effective n = ceil(f*16): "
        + ", ".join(f"{k}->{v.split('=')[1].split()[0]}" for k, v in observed.items()),
    )
