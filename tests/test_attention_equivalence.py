"""The model's attention against a loop-formulated oracle.

``LoopOracle`` computes the network the way it is written in the paper's
terms: one attention per head and, for LWE attention, per segment; heads are
sliced with ``cols`` and rejoined with ``concat_cols``, and each segment's
output is scaled by its latent weight, picked by ``embedding_lookup``, and
summed. Each context utterance and knowledge sentence gets its own
cross-attention call in the weight generators. It reads the model's
parameters and builds each attention from ``matmul``, ``transpose``,
``scale``, an additive mask and ``exp`` of ``log_softmax_lastdim``, sharing
no code with the ``attention`` kernel, so it is a fixed reference for however
the model batches heads and segments. The kernels the model does not call
come from ``oracle_ops``.
"""

import math

import numpy as np
import pytest

from ckl.corpus import BOS, EOS, EncodedSample
from ckl.model import CKLModel, ModelConfig, SegmentedEncoding
from ckl.tensor import (
    Tape,
    Tensor,
    add,
    add_norm,
    concat_vec,
    embedding_lookup,
    linear,
    sigmoid,
)

from conftest import encoding_from_views
from oracle_ops import cols, concat_cols, exp, log_softmax_lastdim, matmul, mul, relu, scale, sum_all, transpose

FORWARD_ATOL = 1e-12
GRAD_RTOL = 1e-10
MASK_VALUE = -1e9


def attention(q, k, v, mask=None):
    """softmax(q k^T / sqrt(d) + mask) v for one head."""
    scores = scale(matmul(q, transpose(k)), 1.0 / math.sqrt(k.shape[1]))
    if mask is not None:
        scores = add(scores, Tensor(mask))
    return matmul(exp(log_softmax_lastdim(scores)), v)


class LoopOracle:
    def __init__(self, model: CKLModel):
        self.p = model.params
        self.cfg = model.config

    def project(self, name, x):
        return linear(x, self.p[f"{name}.w"], self.p[f"{name}.b"])

    def ffn(self, name, x):
        return self.project(f"{name}.out", relu(self.project(f"{name}.in", x)))

    def norm(self, name, x, y):
        """LayerNorm(x + y)."""
        return add_norm(x, y, self.p[f"{name}.g"], self.p[f"{name}.b"])

    def mha(self, name, x_q, x_kv, mask=None, n_heads=None):
        n_heads = n_heads or self.cfg.n_heads
        q = self.project(f"{name}.wq", x_q)
        k = matmul(x_kv, self.p[f"{name}.wk.w"])
        v = self.project(f"{name}.wv", x_kv)
        dh = self.cfg.d_model // n_heads
        heads = [
            attention(cols(q, h * dh, dh), cols(k, h * dh, dh), cols(v, h * dh, dh), mask)
            for h in range(n_heads)
        ]
        merged = heads[0] if n_heads == 1 else concat_cols(heads)
        return self.project(f"{name}.wo", merged)

    def mha_lwe(self, name, x_q, views, lw, n_heads=None):
        n_heads = n_heads or self.cfg.n_heads
        q = self.project(f"{name}.wq", x_q)
        ks = [matmul(view, self.p[f"{name}.wk.w"]) for view in views]
        vs = [self.project(f"{name}.wv", view) for view in views]
        dh = self.cfg.d_model // n_heads
        heads = []
        for h in range(n_heads):
            qh = cols(q, h * dh, dh)
            total = None
            for k, v, w in zip(ks, vs, lw):
                out = mul(attention(qh, cols(k, h * dh, dh), cols(v, h * dh, dh)), w)
                total = out if total is None else add(total, out)
            heads.append(total)
        merged = heads[0] if n_heads == 1 else concat_cols(heads)
        return self.project(f"{name}.wo", merged)

    def cross_block(self, name, q, kv=None, views=None, lw=None):
        if views is None:
            attn = self.mha(f"{name}.attn", q, kv, n_heads=1)
        else:
            attn = self.mha_lwe(f"{name}.attn", q, views, lw, n_heads=1)
        h = self.norm(f"{name}.ln1", q, attn)
        return self.norm(f"{name}.ln2", h, self.ffn(f"{name}.ffn", h))

    def encode(self, sample):
        src = sample.source_ids()
        x = add(
            embedding_lookup(self.p["emb.token"], src),
            embedding_lookup(self.p["emb.pos_src"], np.arange(len(src))),
        )
        for i in range(self.cfg.n_encoder_layers):
            x = self.norm(f"enc{i}.ln1", x, self.mha(f"enc{i}.attn", x, x))
            x = self.norm(f"enc{i}.ln2", x, self.ffn(f"enc{i}.ffn", x))
        lengths = sample.segment_lengths
        starts = np.cumsum([0] + [n + 1 for n in lengths[:-1]])  # one SEP after every segment but the last
        keep = np.concatenate([np.arange(s, s + n) for s, n in zip(starts, lengths)])
        return SegmentedEncoding(embedding_lookup(x, keep), list(lengths), ((sample.m, sample.l),))

    def views(self, enc):
        """Each segment's rows of the memory, in segment order."""
        starts = np.cumsum([0] + enc.lengths[:-1])
        return [embedding_lookup(enc.memory, np.arange(s, s + n)) for s, n in zip(starts, enc.lengths)]

    def clw_generate(self, enc):
        r_parts, k_parts = [], []
        [(m, _)] = enc.samples
        for view in self.views(enc)[:m]:
            h = self.cross_block("clw.block", self.p["clw.latent"], kv=view)
            r_parts.append(sigmoid(self.project("clw.head_r", h)))
            k_parts.append(sigmoid(self.project("clw.head_k", h)))
        return concat_vec(r_parts), concat_vec(k_parts)

    def klw_generate(self, enc, clwk):
        z = self.p["klw.latent"]
        [(m, _)] = enc.samples
        if self.cfg.use_ck_dep:
            lw = [embedding_lookup(clwk, [i]) for i in range(m)]
            z = self.cross_block("klw.ck", z, views=self.views(enc)[:m], lw=lw)
        parts = []
        for view in self.views(enc)[m:]:
            h = self.cross_block("klw.know", z, kv=view)
            parts.append(sigmoid(self.project("klw.head", h)))
        return concat_vec(parts)

    def decoder_forward(self, prefix, enc, clwr, klw):
        t = len(prefix)
        y = add(
            embedding_lookup(self.p["emb.token"], prefix),
            embedding_lookup(self.p["emb.pos_tgt"], np.arange(t)),
        )
        mask = np.triu(np.full((t, t), MASK_VALUE), k=1)
        views = self.views(enc)
        [(m, l)] = enc.samples  # noqa: E741
        lw = [embedding_lookup(clwr, [i]) for i in range(m)] + [
            embedding_lookup(klw, [j]) for j in range(l)
        ]
        for i in range(self.cfg.n_decoder_layers):
            y = self.norm(f"dec{i}.ln1", y, self.mha(f"dec{i}.self", y, y, mask))
            y = self.norm(f"dec{i}.ln2", y, self.mha_lwe(f"dec{i}.cross", y, views, lw))
            y = self.norm(f"dec{i}.ln3", y, self.ffn(f"dec{i}.ffn", y))
        return self.project("out", y)

    def forward(self, sample):
        enc = self.encode(sample)
        clwr, clwk = self.clw_generate(enc)
        klw = self.klw_generate(enc, clwk)
        return self.decoder_forward(sample.response_ids[:-1], enc, clwr, klw), clwr, clwk, klw


def random_config(n_heads, use_ck_dep=True):
    return ModelConfig(
        vocab_size=20,
        d_model=8,
        n_heads=n_heads,
        n_encoder_layers=2,
        n_decoder_layers=2,
        d_ff=12,
        max_source_len=64,
        max_target_len=8,
        m_max=4,
        use_ck_dep=use_ck_dep,
    )


def random_sample(rng, segment_lengths, m):
    segments = [list(rng.integers(5, 20, size=n)) for n in segment_lengths]
    segments = [[int(t) for t in seg] for seg in segments]
    response = [BOS] + [int(t) for t in rng.integers(5, 20, size=4)] + [EOS]
    return EncodedSample(
        context_ids=segments[:m],
        knowledge_ids=segments[m:],
        response_ids=response,
        segment_lengths=list(segment_lengths),
    )


# (n_heads, segment lengths, m, use_ck_dep): m=1, l=1 and length-1 segments
# all appear, alongside wider layouts and segments longer than eight rows.
CASES = [
    (1, [1, 1], 1, True),
    (2, [3, 1], 1, True),
    (4, [1, 2, 1], 2, True),
    (2, [2, 3, 1, 4, 1], 2, True),
    (4, [4, 1, 1, 2, 3, 1], 3, False),
    (8, [2, 1, 3], 1, True),
    (1, [1, 5, 2, 1, 1, 1], 4, True),
    (2, [9, 2, 12], 1, True),
]


def outputs_and_grads(forward, leaves, seed):
    """Forward values plus gradients of a random linear read-out of them.

    ``leaves`` maps names to the trainable tensors whose gradients are kept.
    """
    with Tape() as tape:
        outs = forward()
        rng = np.random.default_rng(seed)
        loss = None
        for out in outs:
            term = sum_all(mul(out, Tensor(rng.normal(size=out.shape))))
            loss = term if loss is None else add(loss, term)
        grads = tape.backward(loss)
    values = [o.data.copy() for o in outs]
    return values, {name: grads[t.node_id] for name, t in leaves.items() if t.node_id in grads}


def assert_close(new, old):
    new_vals, new_grads = new
    old_vals, old_grads = old
    for a, b in zip(new_vals, old_vals):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= FORWARD_ATOL
    assert set(new_grads) == set(old_grads)
    for name, g_old in old_grads.items():
        rel = np.abs(new_grads[name] - g_old) / np.maximum(1.0, np.abs(g_old))
        assert np.max(rel) <= GRAD_RTOL, f"{name}: rel err {np.max(rel):.2e}"


@pytest.mark.parametrize("n_heads,lengths,m,use_ck_dep", CASES)
def test_full_forward_and_gradients_match_loop_oracle(n_heads, lengths, m, use_ck_dep):
    rng = np.random.default_rng(sum(lengths) * 31 + n_heads)
    model = CKLModel(random_config(n_heads, use_ck_dep), seed=int(rng.integers(1000)))
    sample = random_sample(rng, lengths, m)
    oracle = LoopOracle(model)

    def new():
        logits, w = model.forward(sample)
        return logits, w.clwr, w.clwk, w.klw

    assert_close(
        outputs_and_grads(new, model.params, seed=5),
        outputs_and_grads(lambda: oracle.forward(sample), model.params, seed=5),
    )


@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_components_on_views_that_differ_from_full_rep(n_heads):
    """Each component must read its own segments' rows of a hand-built memory."""
    rng = np.random.default_rng(40 + n_heads)
    model = CKLModel(random_config(n_heads), seed=3)
    oracle = LoopOracle(model)
    lengths, m = [2, 1, 3, 1], 2
    views = [Tensor(rng.normal(size=(n, 8))) for n in lengths]
    views[3] = Tensor(rng.normal(size=(1, 8)) * 5.0)
    enc = encoding_from_views(views, m)
    clwk = Tensor(rng.uniform(0.1, 0.9, m), requires_grad=True)
    clwr = Tensor(rng.uniform(0.1, 0.9, m), requires_grad=True)
    klw = Tensor(rng.uniform(0.1, 0.9, 2), requires_grad=True)
    prefix = [BOS, 7, 9]

    def run(component):
        return lambda: (
            *component.clw_generate(enc),
            component.klw_generate(enc, clwk),
            component.decoder_forward(prefix, enc, clwr, klw),
        )

    leaves = {**model.params, "clwr": clwr, "clwk": clwk, "klw": klw}
    new = outputs_and_grads(run(model), leaves, seed=9)
    old = outputs_and_grads(run(oracle), leaves, seed=9)
    assert set(new[1]) >= {"clwr", "clwk", "klw"}
    assert_close(new, old)
