"""Encoder/decoder network with per-segment latent weights.

The encoder runs over the SEP-joined concatenation of context utterances and
knowledge sentences; its non-SEP output rows form the memory, in which each
segment is a consecutive block of rows that saw the full input. Two
trainable latent vectors cross-attend to the segments: the context latent
vector yields two weight sets (one for response generation, one for
conditioning knowledge weighting) and the knowledge latent vector, optionally
conditioned on the context via latent-weight-enhanced attention, yields one
weight per knowledge sentence.

Attention is written once, as the one-record ``tensor.attention`` kernel,
with heads and segments as array axes inside it. Every cross-attention is
segment attention: one score matrix against the whole memory, a softmax within
each segment's keys separately, each segment scaled by its weight, and one
multiplication by the values. Nothing is renormalised across segments, so a
zero weight removes a segment's contribution exactly. The decoder's LWE
(latent-weight-enhanced) cross-attention weights the segments by their
latent weights. Every sublayer ends in the post-norm residual step
``LayerNorm(x + Sublayer(x))``, one ``add_norm`` record; the feed-forward is
one ``ffn`` record. One block (attention, then the feed-forward) serves the
encoder layers and the three latent-weight blocks. ``blocks`` is the one way
rows are kept apart, each layout one padded batch in ``attention``. Every pass
takes a pack of samples (a lone sample is a pack of one), positions restarting
per sample; block-diagonal attention keeps each sample to itself. The weight
generators give their latent query one row per segment, a block whose keys are
that segment's rows, so one call scores every utterance or sentence on its own.

A decode step advances every live hypothesis by one row in one call, each
hypothesis a self-attention block of its own. The cache keeps each cached
hypothesis's ids beside each layer's self-attention K/V, one array for all of
them, so a call finds every hypothesis's row by its prefix; the cross-attention
K/V and segment weights are shared. Cached calls are tape-free. A checkpoint's
arrays become the parameters as they are, with nothing drawn at random.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .corpus import BOS, EOS, SEP, EncodeConfig, EncodedSample
from .tensor import (
    ShapeError,
    Tape,
    Tensor,
    _wrap,
    add,
    add_norm,
    attention,
    concat_vec,
    embedding_lookup,
    ffn,
    linear,
    sigmoid,
)


@dataclass
class ModelConfig:
    """Architecture, encode settings and the context-knowledge dependence switch.

    The boolean field is the switch; every other field is a size that must be
    at least 1. The encode settings take ``EncodeConfig``'s defaults and checks.
    The label and loss settings are training's (``TrainingConfig``).
    """

    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    n_encoder_layers: int = 2
    n_decoder_layers: int = 2
    d_ff: int = 128
    max_source_len: int = EncodeConfig.max_source_len
    max_target_len: int = EncodeConfig.max_target_len
    m_max: int = EncodeConfig.m_max
    use_ck_dep: bool = True

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(f.default, bool) and int(value) < 1:
                raise ValueError(f"{f.name} must be >= 1, got {value}")
        self.encode_config()  # checks the encode settings
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}"
            )

    def encode_config(self) -> EncodeConfig:
        return EncodeConfig(**{f.name: getattr(self, f.name) for f in fields(EncodeConfig)})

    def to_dict(self) -> dict[str, str]:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = str(int(value)) if isinstance(f.default, bool) else str(value)
        return out

    @classmethod
    def from_dict(cls, d: dict[str, str]) -> "ModelConfig":
        kwargs = {}
        for f in fields(cls):
            raw = d[f.name]
            kwargs[f.name] = bool(int(raw)) if isinstance(f.default, bool) else int(raw)
        return cls(**kwargs)


@dataclass
class SegmentedEncoding:
    """Encoder memory: the rows of every segment, stacked in segment order.

    Segment s is ``lengths[s]`` rows long; the first ``m`` segments are the
    context utterances, the rest the knowledge sentences. A pack stacks its samples'
    memories; ``samples`` holds each one's ``(m, l)`` (one sample's by default), and ``m`` sums theirs.
    """

    memory: Tensor
    lengths: list[int]
    m: int
    samples: tuple = ()

    def __post_init__(self):
        self.samples = self.samples or ((self.m, self.l),)

    def pack(self) -> tuple[np.ndarray, np.ndarray]:
        """Per segment: whether it is a context utterance, and its sample."""
        return (np.concatenate([[True] * m + [False] * l for m, l in self.samples]),
                np.repeat(np.arange(len(self.samples)), [m + l for m, l in self.samples]))

    def part(self, context: bool) -> tuple[Tensor, list[int], np.ndarray]:
        """The context's (or the knowledge's) memory rows, segment lengths, and each segment's sample."""
        is_context, sample = self.pack()
        mask, lengths = is_context == context, np.asarray(self.lengths)
        rows = embedding_lookup(self.memory, np.flatnonzero(np.repeat(mask, lengths)))
        return rows, lengths[mask].tolist(), sample[mask]

    @property
    def l(self) -> int:  # noqa: E741
        return len(self.lengths) - self.m


@dataclass
class LatentWeights:
    clwr: Tensor
    clwk: Tensor
    klw: Tensor

    def lists(self) -> dict[str, list[float]]:
        return {
            "clwr": self.clwr.tolist(),
            "clwk": self.clwk.tolist(),
            "klw": self.klw.tolist(),
        }


class CKLModel:
    """Parameter container plus the forward passes of every component."""

    def __init__(self, config: ModelConfig, seed: int = 0, arrays: dict[str, np.ndarray] | None = None):
        """Parameters drawn from ``seed``, or ``arrays`` as they are (``checkpoint.restore_model`` checks them)."""
        self.config = config
        rng = np.random.default_rng(seed)
        self.params: dict[str, Tensor] = {
            name: Tensor(init(rng) if arrays is None else arrays[name], requires_grad=True)
            for name, (_, init) in self.initialisers(config).items()
        }

    @staticmethod
    def initialisers(cfg: ModelConfig) -> dict[str, tuple]:
        """Each parameter's shape and initialiser, a function of the rng, in the order of the draws."""
        d, out = cfg.d_model, {}

        def emb(name, n):
            out[name] = ((n, d), lambda rng: rng.normal(0.0, 0.02, (n, d)))

        def linear(name, fan_in=d, fan_out=d, bias=True):
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            out[f"{name}.w"] = ((fan_in, fan_out), lambda rng: rng.uniform(-limit, limit, (fan_in, fan_out)))
            if bias:
                out[f"{name}.b"] = ((fan_out,), lambda rng: np.zeros(fan_out))

        def sublayers(name, *parts):  # in order: layer norms "ln*", the "ffn", or attentions
            for part in parts:
                if part.startswith("ln"):
                    out[f"{name}.{part}.g"] = ((d,), lambda rng: np.ones(d))
                    out[f"{name}.{part}.b"] = ((d,), lambda rng: np.zeros(d))
                elif part == "ffn":
                    linear(f"{name}.ffn.in", d, cfg.d_ff)
                    linear(f"{name}.ffn.out", cfg.d_ff, d)
                else:
                    for proj in ("wq", "wk", "wv", "wo"):  # no key bias: it shifts all of a query's scores alike
                        linear(f"{name}.{part}.{proj}", bias=proj != "wk")

        block = ("attn", "ln1", "ffn", "ln2")
        emb("emb.token", cfg.vocab_size)
        emb("emb.pos_src", cfg.max_source_len)
        emb("emb.pos_tgt", cfg.max_target_len)
        for i in range(cfg.n_encoder_layers):
            sublayers(f"enc{i}", *block)
        # Distinct latent vectors: the knowledge one is not the context one.
        emb("clw.latent", 1)
        emb("klw.latent", 1)
        sublayers("clw.block", *block)
        # The two context heads share the block but not their parameters.
        linear("clw.head_r", d, 1)
        linear("clw.head_k", d, 1)
        sublayers("klw.ck", *block)
        sublayers("klw.know", *block)
        linear("klw.head", d, 1)
        for i in range(cfg.n_decoder_layers):
            sublayers(f"dec{i}", "self", "ln1", "cross", "ln2", "ffn", "ln3")
        linear("out", d, cfg.vocab_size)
        return out

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    # ----- shared sublayers --------------------------------------------

    def _project(self, name: str, x: Tensor) -> Tensor:
        return linear(x, self.params[f"{name}.w"], self.params[f"{name}.b"])

    def _ffn(self, name: str, x: Tensor) -> Tensor:
        p = self.params
        return ffn(x, p[f"{name}.in.w"], p[f"{name}.in.b"], p[f"{name}.out.w"], p[f"{name}.out.b"])

    def _norm(self, name: str, x: Tensor, y: Tensor) -> Tensor:
        """The residual step: layer norm ``name`` of ``x + y``."""
        return add_norm(x, y, self.params[f"{name}.g"], self.params[f"{name}.b"])

    def _kv(self, name, x) -> tuple[Tensor, Tensor]:
        """The keys and values of attention ``name`` for the rows of ``x``."""
        return linear(x, self.params[f"{name}.wk.w"]), self._project(f"{name}.wv", x)

    def _attend(self, name, x_q, k, v, n_heads=None, causal=False, segments=None, blocks=None) -> Tensor:
        """Attention ``name`` of the rows of ``x_q`` to projected keys and values."""
        q = self._project(f"{name}.wq", x_q)
        out = attention(q, k, v, n_heads or self.config.n_heads, causal, segments, blocks)
        return self._project(f"{name}.wo", out)

    def _block(self, name, q, kv, n_heads=1, segments=None, blocks=None) -> Tensor:
        """Attention of the rows of ``q`` to the rows of ``kv``, then the feed-forward, each a residual step."""
        attn = self._attend(f"{name}.attn", q, *self._kv(f"{name}.attn", kv), n_heads, False, segments, blocks)
        h = self._norm(f"{name}.ln1", q, attn)
        return self._norm(f"{name}.ln2", h, self._ffn(f"{name}.ffn", h))

    def _per_segment_block(self, name, latent: Tensor, enc: SegmentedEncoding, context: bool) -> Tensor:
        """Row s is the block's output for its sample's latent row (or the one row) attending to segment s alone."""
        kv, lengths, sample = enc.part(context)
        q = embedding_lookup(latent, sample if latent.data.shape[0] > 1 else [0] * len(lengths))
        return self._block(name, q, kv, blocks=([1] * len(lengths), lengths))

    def _weights(self, name, h) -> Tensor:
        """One sigmoid weight per row of h, as a vector."""
        return concat_vec([sigmoid(self._project(name, h))])

    # ----- components ---------------------------------------------------

    def encode(self, *samples: EncodedSample) -> SegmentedEncoding:
        """The memory of a pack of samples, each attending within itself."""
        srcs = [sample.source_ids() for sample in samples]
        lens = [len(src) for src in srcs]
        if max(lens) > self.config.max_source_len:
            raise ShapeError(f"source of {max(lens)} tokens exceeds max_source_len={self.config.max_source_len}")
        ids = np.concatenate(srcs)
        x = add(embedding_lookup(self.params["emb.token"], ids),
                embedding_lookup(self.params["emb.pos_src"], np.concatenate([np.arange(n) for n in lens])))
        for i in range(self.config.n_encoder_layers):
            x = self._block(f"enc{i}", x, x, self.config.n_heads, blocks=(lens, lens))
        keep = np.flatnonzero(ids != SEP)  # SEP appears only between segments
        lengths = [n for sample in samples for n in sample.segment_lengths]
        pack = tuple((sample.m, sample.l) for sample in samples)
        return SegmentedEncoding(embedding_lookup(x, keep), lengths, sum(sample.m for sample in samples), pack)

    def clw_generate(self, enc: SegmentedEncoding) -> tuple[Tensor, Tensor]:
        """One response weight and one knowledge weight per context utterance."""
        h = self._per_segment_block("clw.block", self.params["clw.latent"], enc, context=True)
        return self._weights("clw.head_r", h), self._weights("clw.head_k", h)

    def klw_generate(self, enc: SegmentedEncoding, clwk: Tensor) -> Tensor:
        """One weight per knowledge sentence, context-conditioned if ``use_ck_dep``."""
        z, b = self.params["klw.latent"], len(enc.samples)
        if self.config.use_ck_dep:
            kv, lengths, sample = enc.part(context=True)
            # The latent row, once per sample, attends to that sample's context alone.
            blocks = ([1] * b, np.bincount(sample, lengths).astype(int))
            z = self._block("klw.ck", embedding_lookup(z, [0] * b), kv, segments=(lengths, clwk), blocks=blocks)
        h = self._per_segment_block("klw.know", z, enc, context=False)
        return self._weights("klw.head", h)

    def decoder_forward(self, prefix_ids: list, enc: SegmentedEncoding, clwr: Tensor, klw: Tensor,
                        cache: list | None = None) -> Tensor:
        """Decoder logits, one row per prefix position that ``cache`` does not hold yet.

        ``prefix_ids`` is ``t`` ids, or ``t`` rows of ``B`` ids, one column per
        hypothesis, each a causal block; the logits are hypothesis-major. Without
        a cache this is the teacher-forced pass. A ``cache`` list, empty at first,
        holds first what every hypothesis shares: ``enc``, the segment weights, the
        cross-attention keys and values and the memory's rows per sample. Then come
        each cached hypothesis's ``n`` ids and each layer's self-attention keys and
        values as ``(hypotheses, n, d)`` arrays. A call finds each hypothesis's row
        by its first ``n`` ids, so hypotheses may be permuted, repeated or dropped
        between calls and add any number of rows; a prefix the cache does not hold,
        or another ``enc``, raises.
        Cached rows are constants and carry no gradient, so a cached call under a tape raises.
        For a pack ``enc`` of several samples, ``prefix_ids`` is one prefix per
        sample, decoded teacher-forced with no cache.
        """
        if cache and Tape._active is not None:
            raise RuntimeError("a cached decoder_forward call is tape-free: its cached keys and values carry no gradient")
        if len(enc.samples) > 1:  # the blocks check the prefix count and lengths
            lens, limit = [len(ids) for ids in prefix_ids], self.config.max_target_len
            if cache is not None or max(lens) > limit:
                raise ShapeError(f"a pack takes prefixes of at most max_target_len={limit} ids, and no cache")
            n, ids, queries, keys, per_sample = 0, np.concatenate(prefix_ids), lens, lens, lens
        else:
            t, limit, n = len(prefix_ids), self.config.max_target_len, len(cache[1][0]) if cache else 0
            if not n < t <= limit:
                raise ShapeError(f"decoder prefix of {t} tokens must be longer than its {n} cached rows, "
                                 f"and at most max_target_len={limit}")
            if cache and cache[0][0] is not enc:
                raise ShapeError("the cache was filled from another SegmentedEncoding")
            ids = np.asarray(prefix_ids[n:], dtype=np.int64)
            held = list(zip(*prefix_ids[:n])) if ids.ndim > 1 else [tuple(prefix_ids[:n])]  # each one's cached ids
            ids = ids.reshape(t - n, -1).T  # (B, new rows)
            b, new = ids.shape
            if n:
                rows = {hyp: row for row, hyp in enumerate(cache[1])}
                parents = [rows.get(hyp) for hyp in held]
                if len(held) != b or None in parents:
                    raise ShapeError(f"the cache does not hold the first {n} ids of all {b} hypotheses")
                # One gather per array puts the cached rows in hypothesis order, unless they are in it already.
                past = cache[2:] if parents == list(range(len(cache[1]))) else [x[parents] for x in cache[2:]]
            hyps = [prefix + tuple(row) for prefix, row in zip(held if n else [()] * b, ids.tolist())]
            ids, queries, keys, per_sample = ids.ravel(), [new] * b, [t] * b, [b * new]
        pos = np.concatenate([np.arange(k - q, k) for q, k in zip(queries, keys)])  # each sequence's new positions
        y = add(embedding_lookup(self.params["emb.token"], ids), embedding_lookup(self.params["emb.pos_tgt"], pos))
        if not cache:
            is_context, sample = enc.pack()
            order = np.argsort(np.argsort(~is_context, kind="stable"))  # memory order: each sample's clwr, then klw
            shared = (enc, (enc.lengths, embedding_lookup(concat_vec([clwr, klw]), order)),
                      [self._kv(f"dec{i}.cross", enc.memory) for i in range(self.config.n_decoder_layers)],
                      np.bincount(sample, enc.lengths).astype(int))
        _, segments, cross, memory_rows = shared = cache[0] if cache else shared
        blocks = (per_sample, memory_rows)  # each sample's rows read its own memory
        kv = []
        for i, (ck, cv) in enumerate(cross):
            k, v = self._kv(f"dec{i}.self", y)
            if n:  # each cached row was checked for NaN/Inf when it was made
                k, v = (_wrap(np.concatenate([p, x.data.reshape(b, new, -1)], axis=1).reshape(b * t, -1))
                        for p, x in zip(past[2 * i : 2 * i + 2], (k, v)))
            if cache is not None:
                kv += [k.data.reshape(b, t, -1), v.data.reshape(b, t, -1)]
            y = self._norm(f"dec{i}.ln1", y, self._attend(f"dec{i}.self", y, k, v, None, True, None, (queries, keys)))
            y = self._norm(f"dec{i}.ln2", y, self._attend(f"dec{i}.cross", y, ck, cv, None, False, segments, blocks))
            y = self._norm(f"dec{i}.ln3", y, self._ffn(f"dec{i}.ffn", y))
        if cache is not None:
            cache[:] = [shared, hyps, *kv]
        return self._project("out", y)

    def condition(self, *samples: EncodedSample) -> tuple[SegmentedEncoding, LatentWeights]:
        """Encode a pack of samples once and derive every latent weight from that encoding."""
        enc = self.encode(*samples)
        clwr, clwk = self.clw_generate(enc)
        return enc, LatentWeights(clwr=clwr, clwk=clwk, klw=self.klw_generate(enc, clwk))

    def forward(self, *samples: EncodedSample) -> tuple[Tensor, LatentWeights]:
        """Teacher-forced pass over the response of each sample of a pack; logits predict the next id."""
        enc, w = self.condition(*samples)
        prefixes = [sample.response_ids[:-1] for sample in samples]
        return self.decoder_forward(prefixes if len(samples) > 1 else prefixes[0], enc, w.clwr, w.klw), w

    def latent_weights(self, sample: EncodedSample) -> LatentWeights:
        return self.condition(sample)[1]

    # ----- inference ------------------------------------------------------

    def decode_length(self, max_len: int | None) -> int:
        """``max_len`` checked against [1, max_target_len]; 0 or None means max_target_len."""
        limit = self.config.max_target_len
        if not 1 <= (max_len or limit) <= limit:
            raise ValueError(f"max_len must be in [1, max_target_len={limit}], got {max_len}")
        return max_len or limit

    @staticmethod
    def decode_width(beam_size: int) -> int:
        """``beam_size`` checked to be at least 1."""
        if beam_size < 1:
            raise ValueError(f"beam_size must be >= 1, got {beam_size}")
        return beam_size

    def decode(self, enc: SegmentedEncoding, weights: LatentWeights, beam_size: int = 1,
               max_len: int | None = None) -> list[int]:
        """Beam search from BOS until EOS or ``max_len`` ids; width 1 is greedy.

        Returns ids including the leading BOS and, when reached, the final
        EOS. Hypotheses are ranked by per-token mean log-probability, and a
        stable sort keeps the lower token id on ties. ``decode_width`` and ``decode_length`` check both arguments.
        """
        beam_size, max_len = self.decode_width(beam_size), self.decode_length(max_len)
        beams, finished, cache = [([BOS], 0.0)], [], []  # a hypothesis is (ids, log-probability)
        while beams and len(beams[0][0]) < max_len:
            prefix = list(zip(*(ids for ids, _ in beams)))  # position-major: one row of ids per step
            logits = self.decoder_forward(prefix, enc, weights.clwr, weights.klw, cache).data
            shifted = logits - logits.max(axis=1, keepdims=True)
            # libm's log of each row's sum: numpy's vectorised log can differ from it in the last bit.
            lp = shifted - np.array([[math.log(total)] for total in np.exp(shifted).sum(axis=1).tolist()])
            top = np.argsort(-lp, axis=1, kind="stable")[:, :beam_size].tolist()
            candidates = [(ids + [token], logp + float(scores[token]))
                          for (ids, logp), tokens, scores in zip(beams, top, lp) for token in tokens]
            candidates.sort(key=lambda c: -(c[1] / (len(c[0]) - 1)))
            finished += [c for c in candidates[:beam_size] if c[0][-1] == EOS]
            beams = [c for c in candidates[:beam_size] if c[0][-1] != EOS]
        finished.extend(beams)
        finished.sort(key=lambda c: -(c[1] / max(1, len(c[0]) - 1)))
        return finished[0][0]

    def generate(self, sample: EncodedSample, beam_size: int = 1, max_len: int | None = None) -> list[int]:
        """``decode`` over the sample's ``condition``."""
        return self.decode(*self.condition(sample), beam_size=beam_size, max_len=max_len)
