"""Properties of sample truncation, of the vocabulary file and of attention blocks, over generated inputs."""

import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from ckl.corpus import RESERVED_TOKENS, DialogueSample, EncodeConfig, Vocabulary, kept_segments, tokenize
from ckl.tensor import Tape, Tensor, attention

from oracle_ops import mul, sum_all

# Words and 1-char punctuation survive " ".join and tokenize unchanged, so a text's tokens are its words.
TEXT = st.lists(st.sampled_from(["a", "bb", "ccc", "d4", "?", ","]), min_size=1, max_size=12).map(" ".join)


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(
    context=st.lists(TEXT, min_size=1, max_size=6),
    knowledge=st.lists(TEXT, min_size=1, max_size=5),
    response=TEXT,
    m_max=st.integers(1, 5),
    max_source_len=st.integers(3, 40),
    max_target_len=st.integers(2, 16),
)
def test_kept_segments_invariants(context, knowledge, response, m_max, max_source_len, max_target_len):
    config = EncodeConfig(m_max=m_max, max_source_len=max_source_len, max_target_len=max_target_len)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # truncation warnings are expected here
        kept, sentences_kept, response_kept = kept_segments(DialogueSample(context, knowledge, response), config)
    m, l = len(kept), len(sentences_kept)  # noqa: E741
    assert 1 <= m <= m_max and l >= 1
    segments = kept + sentences_kept
    assert all(segments)
    assert sum(map(len, segments)) + len(segments) - 1 <= max_source_len  # SEP-joined
    # The context is the last m of the last m_max utterances; only the post may lose tokens, from the left.
    utterances = [tokenize(u) for u in context[-m_max:]]
    post = utterances[-1]
    assert kept[:-1] == utterances[len(utterances) - m : -1]
    assert kept[-1] == post[len(post) - len(kept[-1]) :]
    # The knowledge is the first l sentences, whole; only a lone first sentence may lose tokens, from the right.
    sentences = [tokenize(s) for s in knowledge]
    assert sentences_kept[:-1] == sentences[: l - 1]
    last = sentences[l - 1]
    assert sentences_kept[-1] == (last if l > 1 else last[: len(sentences_kept[-1])])
    assert response_kept == tokenize(response)[: max_target_len - 2]


# Any text without a line break is a token; a blank one keeps its id, except at the end of the file.
TOKEN = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\n\r"), max_size=6)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(TOKEN, unique=True, max_size=12).filter(
    lambda tokens: not set(tokens) & set(RESERVED_TOKENS) and tokens[-1:] != [""]))
def test_vocabulary_survives_save_and_load(tokens):
    vocab = Vocabulary(tokens)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vocab.txt"
        vocab.save(path)
        loaded = Vocabulary.load(path)
    assert loaded.id_to_token == vocab.id_to_token
    assert loaded.encode(tokens) == vocab.encode(tokens)


@st.composite
def block_layouts(draw):
    """Query and key block lengths, causal or not, and without causal each block's key segments or None."""
    causal = draw(st.booleans())
    q_lengths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    k_lengths = [draw(st.integers(n if causal else 1, 6)) for n in q_lengths]
    if causal or not draw(st.booleans()):
        return q_lengths, k_lengths, causal, None
    cuts = [sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else [] for n in k_lengths]
    return q_lengths, k_lengths, causal, [np.diff([0, *c, n]).tolist() for c, n in zip(cuts, k_lengths)]


def attend(q, k, v, read_out, n_heads, causal, segments=None, blocks=None):
    """The output and the q, k, v (and segment weight) gradients of ``sum(out * read_out)``."""
    leaves = [Tensor(x, requires_grad=True) for x in (q, k, v) + (() if segments is None else (segments[1],))]
    with Tape() as tape:
        seg = None if segments is None else (segments[0], leaves[3])
        out = attention(*leaves[:3], n_heads, causal, seg, blocks)
        grads = tape.backward(sum_all(mul(out, Tensor(read_out))))
    return [out.data] + [grads[leaf.node_id] for leaf in leaves]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(layout=block_layouts(), n_heads=st.sampled_from([1, 2]), seed=st.integers(0, 2**16))
def test_blocks_equal_one_attention_call_per_block(layout, n_heads, seed):
    """Query block b attends to key block b alone, as one call with those rows would, short blocks included."""
    q_lengths, k_lengths, causal, block_segments = layout
    rng = np.random.default_rng(seed)
    q0, k0 = np.cumsum([0, *q_lengths]), np.cumsum([0, *k_lengths])
    q, k, v = (rng.uniform(-3, 3, shape) for shape in ((q0[-1], 4), (k0[-1], 4), (k0[-1], 6)))
    read_out = rng.uniform(-1, 1, (q0[-1], 6))
    segments = None if block_segments is None else [n for parts in block_segments for n in parts]
    w = None if segments is None else rng.uniform(0.1, 1.5, len(segments))
    got = attend(q, k, v, read_out, n_heads, causal, None if w is None else (segments, w), (q_lengths, k_lengths))
    s0 = np.cumsum([0, *map(len, block_segments or [])])
    parts = [attend(q[qa:qb], k[ka:kb], v[ka:kb], read_out[qa:qb], n_heads, causal,
                    None if w is None else (block_segments[b], w[s0[b] : s0[b + 1]]))
             for b, (qa, qb, ka, kb) in enumerate(zip(q0, q0[1:], k0, k0[1:]))]
    for g, e in zip(got, map(np.concatenate, zip(*parts)), strict=True):
        assert np.max(np.abs(g - e)) <= 1e-12 * np.max(np.abs(e))
