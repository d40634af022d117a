"""Train on a small copy-task corpus and inspect what the weights learned.

A compact version of the package's core experiment: responses copy the
knowledge sentence matching the post, so the knowledge latent weights should
learn to rank that sentence first. Takes roughly a minute on one core.

Run with: python3 demos/04_training_and_analysis.py
"""

from ckl.corpus import build_vocab
from ckl.metrics import mean_spearman, p_at_n
from ckl.model import ModelConfig
from ckl.synthetic import retrieval_corpus
from ckl.training import TrainingConfig, train

samples = retrieval_corpus(n=120, n_knowledge=3, seed=3)
vocab = build_vocab(samples)
model_cfg = ModelConfig(
    vocab_size=len(vocab),
    d_model=32,
    n_heads=2,
    n_encoder_layers=1,
    n_decoder_layers=1,
    d_ff=64,
    max_source_len=48,
    max_target_len=12,
)
train_cfg = TrainingConfig(learning_rate=3e-3, epochs=25, batch_size=20, seed=0, top_n=1)

print(f"training on {len(samples)} samples ...")
result = train(samples, vocab, model_cfg, train_cfg)
for row in result.trace[:: max(1, len(result.trace) // 8)]:
    print(
        f"  step {row.step:3d}  nll={row.l_nll:7.3f}  klw={row.l_klw:.4f} "
        f" clwr={row.l_clwr:.4f}  total={row.awl_total:7.3f}"
    )

print("\n== latent-weight analysis ==")
pairs, reranked, original, targets = [], [], [], []
for enc, label in zip(result.encoded, result.labels):
    klw = result.model.condition(enc)[1].klw.data
    pairs.append((list(klw), [float(v) for v in label.gt_klw]))
    reranked.append(sorted(range(len(klw)), key=lambda i: (-klw[i], i)))
    original.append(list(range(len(klw))))
    targets.append(label.top1_rk_index)
rho, defined, undefined = mean_spearman(pairs)
print(f"mean Spearman(klw, gt_klw) = {rho:.3f}  ({defined} defined, {undefined} undefined)")
for n in (1, 2, 3):
    print(
        f"P@{n}: original order {p_at_n(original, targets, n):.3f}"
        f"  re-ranked by klw {p_at_n(reranked, targets, n):.3f}"
    )

print("\n== a few greedy decodes ==")
for enc in result.encoded[:3]:
    out = result.model.generate(enc)
    print("  target:", " ".join(vocab.decode([i for i in enc.response_ids if i > 4])))
    print("  output:", " ".join(vocab.decode([i for i in out if i > 4])))
