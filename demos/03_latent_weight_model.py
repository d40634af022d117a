"""Anatomy of one forward pass and the latent-weight attention property.

Shows the per-segment weights a fresh model assigns, the layout a pack of two
samples carries, and that setting a knowledge weight to zero makes the decoder
blind to that sentence's content.

Run with: python3 demos/03_latent_weight_model.py
"""

import numpy as np

from ckl.corpus import build_vocab, encode_sample
from ckl.model import CKLModel, ModelConfig, SegmentedEncoding
from ckl.synthetic import retrieval_corpus
from ckl.tensor import Tensor

samples = retrieval_corpus(n=3, n_knowledge=3, seed=4)
vocab = build_vocab(samples)
config = ModelConfig(
    vocab_size=len(vocab),
    d_model=32,
    n_heads=2,
    n_encoder_layers=1,
    n_decoder_layers=1,
    d_ff=64,
    max_source_len=48,
    max_target_len=12,
)
model = CKLModel(config, seed=0)
enc_sample = encode_sample(samples[0], vocab)

print("== forward pass ==")
logits, weights = model.forward(enc_sample)
print("teacher-forced logits shape:", logits.shape)
for name, values in weights.lists().items():
    print(f"  {name}: {[round(v, 3) for v in values]}")
print("(an untrained model sits near 0.5 everywhere; training moves these)")

print("\n== a pack's layout ==")
# An encoding carries its layout, worked out once when it is made; a lone sample is a pack of one.
pack = model.encode(enc_sample, encode_sample(samples[1], vocab))
print("(m, l) per sample:", pack.samples, " memory rows per sample:", pack.rows.tolist())
print("each segment's sample:", pack.sample.tolist(), " context?", pack.context.astype(int).tolist())
print("each segment's weight, as an index into clwr + klw:", pack.order.tolist())

print("\n== zero weight means zero influence ==")
enc = model.encode(enc_sample)
clwr, clwk = model.clw_generate(enc)
klw_values = np.array([0.8, 0.0, 0.6])
klw = Tensor(klw_values)
base = model.decoder_forward(enc_sample.response_ids[:-1], enc, clwr, klw)

# scramble the zero-weighted sentence's rows of the memory and decode again
[(m, _)] = enc.samples  # its context utterances come first, then its knowledge sentences
start = sum(enc.lengths[: m + 1])
length = enc.lengths[m + 1]
memory = enc.memory.data.copy()
noise = np.random.default_rng(1).normal(scale=25.0, size=(length, config.d_model))
memory[start : start + length] += noise
scrambled = SegmentedEncoding(Tensor(memory), enc.lengths, enc.samples)
moved = model.decoder_forward(enc_sample.response_ids[:-1], scrambled, clwr, klw)
print("klw =", klw_values.tolist())
print("max |logit change| after scrambling sentence 1:", float(np.max(np.abs(base.data - moved.data))))

print("\n== generation ==")
out = model.generate(enc_sample, beam_size=3, max_len=10)
print("beam-3 ids:", out)
print("decoded:", " ".join(vocab.decode([i for i in out if i > 4])))
