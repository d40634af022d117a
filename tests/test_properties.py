"""Properties of sample truncation, of the vocabulary file and of one-row attention blocks, over generated inputs."""

import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from ckl.corpus import RESERVED_TOKENS, DialogueSample, EncodeConfig, Vocabulary, kept_segments, tokenize
from ckl.tensor import Tensor, attention

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


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    key_lengths=st.lists(st.integers(1, 6), min_size=2, max_size=8),
    n_heads=st.sampled_from([1, 2]),
    causal=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_one_row_blocks_equal_one_attention_call_per_row(key_lengths, n_heads, causal, seed):
    """Query row i attends to its key block alone, as one call with that row and those keys would."""
    rng = np.random.default_rng(seed)
    n, starts = len(key_lengths), np.cumsum([0, *key_lengths])
    q, k, v = (rng.uniform(-3, 3, shape) for shape in ((n, 4), (starts[-1], 4), (starts[-1], 6)))
    got = attention(Tensor(q), Tensor(k), Tensor(v), n_heads, causal, blocks=([1] * n, key_lengths)).data
    for i, (a, b) in enumerate(zip(starts, starts[1:])):
        expected = attention(Tensor(q[i : i + 1]), Tensor(k[a:b]), Tensor(v[a:b]), n_heads, causal).data[0]
        assert np.max(np.abs(got[i] - expected)) <= 1e-12 * np.max(np.abs(expected))
