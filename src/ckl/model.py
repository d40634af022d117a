"""Encoder/decoder network with per-segment latent weights.

The encoder runs over the SEP-joined concatenation of context utterances and
knowledge sentences; its non-SEP output rows form the memory, in which each
segment is a consecutive block of rows that saw the full input. Two
trainable latent vectors cross-attend to the segments: the context latent
vector yields two weight sets (one for response generation, one for
conditioning knowledge weighting) and the knowledge latent vector, optionally
conditioned on the context via latent-weight-enhanced attention, yields one
weight per knowledge sentence.

Attention keeps heads and segments as array axes. Heads are a leading axis
of one batched matmul. The decoder's LWE (latent-weight-enhanced)
cross-attention computes one score matrix against the whole memory, takes a
softmax within each segment's columns separately (``segment_softmax``),
scales each segment's columns by its latent weight and multiplies once by
the values. Nothing is renormalised across segments, so a zero weight
removes a segment's contribution exactly. The weight generators give their
latent query one row per segment and a block-diagonal mask, so each row
attends only to its own utterance or sentence and one pass yields every
weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .corpus import BOS, EOS, EncodeConfig, EncodedSample
from .tensor import (
    ShapeError,
    Tensor,
    add,
    add_row,
    concat_rows,
    concat_vec,
    embedding_lookup,
    layer_norm,
    matmul,
    merge_heads,
    relu,
    rows,
    scale,
    segment_softmax,
    sigmoid,
    softmax_lastdim,
    split_heads,
    transpose,
)

MASK_VALUE = -1e9


@dataclass
class ModelConfig:
    """Architecture, encode settings and loss switches.

    Boolean fields are the switches; every other field is a size that must be
    at least 1. The encode settings take ``EncodeConfig``'s defaults.
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
    top_n: int = 1
    use_loss_klw: bool = True
    use_loss_clwr: bool = True
    use_loss_clwk: bool = True
    use_ck_dep: bool = True

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(f.default, bool) and int(value) < 1:
                raise ValueError(f"{f.name} must be >= 1, got {value}")
        if self.max_source_len < 3:
            raise ValueError(
                "max_source_len must be >= 3 to fit a post token, a SEP and a "
                f"knowledge token, got {self.max_source_len}"
            )
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
    context utterances, the rest the knowledge sentences.
    """

    memory: Tensor
    lengths: list[int]
    m: int

    @property
    def l(self) -> int:  # noqa: E741
        return len(self.lengths) - self.m

    @property
    def context_rows(self) -> int:
        return sum(self.lengths[: self.m])


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


def _scores(q: Tensor, k: Tensor) -> Tensor:
    return scale(matmul(q, transpose(k)), 1.0 / math.sqrt(k.shape[-1]))


def attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """softmax(q k^T / sqrt(d) + mask) v.

    Operands are 2-D, or 3-D stacks with one matrix per head; an additive
    2-D mask applies to every head. ``matmul`` rejects mismatched shapes.
    """
    scores = _scores(q, k)
    if mask is not None:
        scores = add(scores, Tensor(np.broadcast_to(mask, scores.shape)))
    return matmul(softmax_lastdim(scores), v)


def _segment_attention(q: Tensor, k: Tensor, v: Tensor, lengths, w: Tensor) -> Tensor:
    """Attention whose keys form consecutive segments of ``lengths`` rows.

    The softmax runs within each segment, segment s is scaled by ``w[s]``,
    and one matmul with ``v`` sums the scaled outputs of every segment.
    """
    return matmul(segment_softmax(_scores(q, k), lengths, w), v)


def lwe_attention(q: Tensor, segments: list[tuple[Tensor, Tensor]], lw: list) -> Tensor:
    """Per-segment attention outputs scaled by latent weights, then summed.

    The softmax runs within each segment independently; entries of ``lw`` may
    be floats or scalar tensors (so gradients can flow into learned weights).
    """
    if not segments:
        raise ShapeError("lwe_attention needs at least one segment")
    if len(segments) != len(lw):
        raise ShapeError(f"{len(segments)} segments but {len(lw)} latent weights")
    if any(k.shape[0] != v.shape[0] for k, v in segments):
        raise ShapeError("every segment needs as many value rows as key rows")
    w = concat_vec([x if isinstance(x, Tensor) else Tensor(float(x)) for x in lw])
    lengths = [k.shape[0] for k, _ in segments]
    k = concat_rows([k for k, _ in segments])
    v = concat_rows([v for _, v in segments])
    return _segment_attention(q, k, v, lengths, w)


def _own_segment_mask(lengths: list[int]) -> np.ndarray:
    """Row s is 0 over segment s's columns and MASK_VALUE elsewhere."""
    seg = np.repeat(np.arange(len(lengths)), lengths)
    return np.where(seg[None, :] == np.arange(len(lengths))[:, None], 0.0, MASK_VALUE)


def _causal_mask(t: int) -> np.ndarray:
    return np.triu(np.full((t, t), MASK_VALUE), k=1)


class CKLModel:
    """Parameter container plus the forward passes of every component."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        self.params: dict[str, Tensor] = {}
        rng = np.random.default_rng(seed)
        self._build(rng)

    # ----- parameter construction -------------------------------------

    def _emb(self, name: str, shape, rng) -> None:
        self.params[name] = Tensor(rng.normal(0.0, 0.02, shape), requires_grad=True)

    def _linear(self, name: str, fan_in: int, fan_out: int, rng) -> None:
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        self.params[f"{name}.w"] = Tensor(
            rng.uniform(-limit, limit, (fan_in, fan_out)), requires_grad=True
        )
        self.params[f"{name}.b"] = Tensor(np.zeros(fan_out), requires_grad=True)

    def _ln(self, name: str, rng) -> None:
        d = self.config.d_model
        self.params[f"{name}.g"] = Tensor(np.ones(d), requires_grad=True)
        self.params[f"{name}.b"] = Tensor(np.zeros(d), requires_grad=True)

    def _attn_params(self, name: str, rng) -> None:
        d = self.config.d_model
        for proj in ("wq", "wk", "wv", "wo"):
            self._linear(f"{name}.{proj}", d, d, rng)

    def _ffn_params(self, name: str, rng) -> None:
        self._linear(f"{name}.in", self.config.d_model, self.config.d_ff, rng)
        self._linear(f"{name}.out", self.config.d_ff, self.config.d_model, rng)

    def _block_params(self, name: str, rng) -> None:
        self._attn_params(f"{name}.attn", rng)
        self._ln(f"{name}.ln1", rng)
        self._ffn_params(f"{name}.ffn", rng)
        self._ln(f"{name}.ln2", rng)

    def _build(self, rng) -> None:
        cfg = self.config
        self._emb("emb.token", (cfg.vocab_size, cfg.d_model), rng)
        self._emb("emb.pos_src", (cfg.max_source_len, cfg.d_model), rng)
        self._emb("emb.pos_tgt", (cfg.max_target_len, cfg.d_model), rng)
        for i in range(cfg.n_encoder_layers):
            self._block_params(f"enc{i}", rng)
        # Distinct latent vectors: the knowledge one is not the context one.
        self._emb("clw.latent", (1, cfg.d_model), rng)
        self._emb("klw.latent", (1, cfg.d_model), rng)
        self._block_params("clw.block", rng)
        # The two context heads share the block but not their parameters.
        self._linear("clw.head_r", cfg.d_model, 1, rng)
        self._linear("clw.head_k", cfg.d_model, 1, rng)
        self._block_params("klw.ck", rng)
        self._block_params("klw.know", rng)
        self._linear("klw.head", cfg.d_model, 1, rng)
        for i in range(cfg.n_decoder_layers):
            self._attn_params(f"dec{i}.self", rng)
            self._ln(f"dec{i}.ln1", rng)
            self._attn_params(f"dec{i}.cross", rng)
            self._ln(f"dec{i}.ln2", rng)
            self._ffn_params(f"dec{i}.ffn", rng)
            self._ln(f"dec{i}.ln3", rng)
        self._linear("out", cfg.d_model, cfg.vocab_size, rng)

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    # ----- shared sublayers --------------------------------------------

    def _project(self, name: str, x: Tensor) -> Tensor:
        return add_row(matmul(x, self.params[f"{name}.w"]), self.params[f"{name}.b"])

    def _ffn(self, name: str, x: Tensor) -> Tensor:
        return self._project(f"{name}.out", relu(self._project(f"{name}.in", x)))

    def _norm(self, name: str, x: Tensor) -> Tensor:
        return layer_norm(x, self.params[f"{name}.g"], self.params[f"{name}.b"])

    def _mha(self, name, x_q, x_kv, mask=None, n_heads=None, segments=None) -> Tensor:
        """Multi-head attention with every head in one batched op.

        ``segments=(lengths, w)`` makes it LWE attention: the keys form
        segments of ``lengths`` rows, each normalised on its own and scaled
        by its entry of the weight vector ``w``.
        """
        n_heads = n_heads or self.config.n_heads
        q = split_heads(self._project(f"{name}.wq", x_q), n_heads)
        k = split_heads(self._project(f"{name}.wk", x_kv), n_heads)
        v = split_heads(self._project(f"{name}.wv", x_kv), n_heads)
        if segments is None:
            out = attention(q, k, v, mask)
        else:
            out = _segment_attention(q, k, v, *segments)
        return self._project(f"{name}.wo", merge_heads(out))

    def _cross_block(self, name, q, kv, mask=None, segments=None) -> Tensor:
        """Single-head cross-attention block with residuals and layer norms."""
        attn = self._mha(f"{name}.attn", q, kv, mask=mask, n_heads=1, segments=segments)
        h = self._norm(f"{name}.ln1", add(q, attn))
        return self._norm(f"{name}.ln2", add(h, self._ffn(f"{name}.ffn", h)))

    def _per_segment_block(self, name, latent: Tensor, kv: Tensor, lengths: list[int]) -> Tensor:
        """Row s is the block's output for ``latent`` attending to segment s of ``kv`` alone."""
        q = embedding_lookup(latent, [0] * len(lengths))  # the latent row, once per segment
        return self._cross_block(name, q, kv, mask=_own_segment_mask(lengths))

    def _weights(self, name, h) -> Tensor:
        """One sigmoid weight per row of h, as a vector."""
        return concat_vec([sigmoid(self._project(name, h))])

    # ----- components ---------------------------------------------------

    def encode(self, sample: EncodedSample) -> SegmentedEncoding:
        src = sample.source_ids()
        if len(src) > self.config.max_source_len:
            raise ShapeError(
                f"source of {len(src)} tokens exceeds max_source_len="
                f"{self.config.max_source_len}"
            )
        x = add(
            embedding_lookup(self.params["emb.token"], src),
            rows(self.params["emb.pos_src"], 0, len(src)),
        )
        for i in range(self.config.n_encoder_layers):
            x = self._norm(f"enc{i}.ln1", add(x, self._mha(f"enc{i}.attn", x, x)))
            x = self._norm(f"enc{i}.ln2", add(x, self._ffn(f"enc{i}.ffn", x)))
        keep = [off + i for off, length in sample.segment_offsets() for i in range(length)]
        return SegmentedEncoding(embedding_lookup(x, keep), list(sample.segment_lengths), sample.m)

    def clw_generate(self, enc: SegmentedEncoding) -> tuple[Tensor, Tensor]:
        """One response weight and one knowledge weight per context utterance."""
        context = rows(enc.memory, 0, enc.context_rows)
        h = self._per_segment_block("clw.block", self.params["clw.latent"], context, enc.lengths[: enc.m])
        return self._weights("clw.head_r", h), self._weights("clw.head_k", h)

    def klw_generate(self, enc: SegmentedEncoding, clwk: Tensor) -> Tensor:
        """One weight per knowledge sentence, context-conditioned if ``use_ck_dep``."""
        z = self.params["klw.latent"]
        if self.config.use_ck_dep:
            context = rows(enc.memory, 0, enc.context_rows)
            z = self._cross_block("klw.ck", z, context, segments=(enc.lengths[: enc.m], clwk))
        knowledge = rows(enc.memory, enc.context_rows, enc.memory.shape[0] - enc.context_rows)
        h = self._per_segment_block("klw.know", z, knowledge, enc.lengths[enc.m :])
        return self._weights("klw.head", h)

    def decoder_forward(self, prefix_ids: list[int], enc: SegmentedEncoding, clwr: Tensor, klw: Tensor) -> Tensor:
        """Teacher-forced decoder logits, one row per prefix position."""
        if not prefix_ids:
            raise ShapeError("decoder prefix must be non-empty")
        t = len(prefix_ids)
        if t > self.config.max_target_len:
            raise ShapeError(
                f"prefix of {t} tokens exceeds max_target_len={self.config.max_target_len}"
            )
        y = add(
            embedding_lookup(self.params["emb.token"], prefix_ids),
            rows(self.params["emb.pos_tgt"], 0, t),
        )
        mask = _causal_mask(t)
        segments = (enc.lengths, concat_vec([clwr, klw]))
        for i in range(self.config.n_decoder_layers):
            y = self._norm(f"dec{i}.ln1", add(y, self._mha(f"dec{i}.self", y, y, mask)))
            cross = self._mha(f"dec{i}.cross", y, enc.memory, segments=segments)
            y = self._norm(f"dec{i}.ln2", add(y, cross))
            y = self._norm(f"dec{i}.ln3", add(y, self._ffn(f"dec{i}.ffn", y)))
        return self._project("out", y)

    def condition(self, sample: EncodedSample) -> tuple[SegmentedEncoding, LatentWeights]:
        """Encode ``sample`` once and derive every latent weight from that encoding."""
        enc = self.encode(sample)
        clwr, clwk = self.clw_generate(enc)
        return enc, LatentWeights(clwr=clwr, clwk=clwk, klw=self.klw_generate(enc, clwk))

    def forward(self, sample: EncodedSample) -> tuple[Tensor, LatentWeights]:
        """Teacher-forced pass over the response; logits predict the next id."""
        enc, weights = self.condition(sample)
        return self.decoder_forward(sample.response_ids[:-1], enc, weights.clwr, weights.klw), weights

    def latent_weights(self, sample: EncodedSample) -> LatentWeights:
        return self.condition(sample)[1]

    # ----- inference ------------------------------------------------------

    def decode(self, enc: SegmentedEncoding, weights: LatentWeights, beam_size: int = 1,
               max_len: int | None = None) -> list[int]:
        """Beam search from BOS until EOS or ``max_len`` ids; width 1 is greedy.

        Returns ids including the leading BOS and, when reached, the final
        EOS. Hypotheses are ranked by per-token mean log-probability, and a
        stable sort keeps the lower token id on ties. ``max_len`` 0 or None
        means ``max_target_len``.
        """
        if beam_size < 1:
            raise ValueError("beam_size must be >= 1")
        limit = self.config.max_target_len
        max_len = max_len or limit
        if not 1 <= max_len <= limit:
            raise ValueError(f"max_len must be in [1, max_target_len={limit}], got {max_len}")
        beams = [([BOS], 0.0)]
        finished: list[tuple[list[int], float]] = []
        while beams and len(beams[0][0]) < max_len:
            candidates = []
            for ids, logp in beams:
                logits = self.decoder_forward(ids, enc, weights.clwr, weights.klw).data[-1]
                shifted = logits - logits.max()
                lp = shifted - math.log(np.exp(shifted).sum())
                top = np.argsort(-lp, kind="stable")[:beam_size]
                for token in top:
                    candidates.append((ids + [int(token)], logp + float(lp[token])))
            candidates.sort(key=lambda c: -(c[1] / (len(c[0]) - 1)))
            beams = []
            for ids, logp in candidates[:beam_size]:
                if ids[-1] == EOS:
                    finished.append((ids, logp))
                else:
                    beams.append((ids, logp))
        finished.extend(beams)
        finished.sort(key=lambda c: -(c[1] / max(1, len(c[0]) - 1)))
        return finished[0][0]

    def generate(self, sample: EncodedSample, beam_size: int = 1, max_len: int | None = None) -> list[int]:
        """``decode`` over the sample's ``condition``."""
        return self.decode(*self.condition(sample), beam_size=beam_size, max_len=max_len)
