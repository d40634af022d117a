import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from ckl import corpus
from ckl.corpus import (
    BOS,
    EOS,
    SEP,
    UNK,
    DatasetError,
    DialogueSample,
    EncodeConfig,
    Vocabulary,
    build_vocab,
    encode_sample,
    load_jsonl,
    tokenize,
)
from ckl.model import CKLModel, ModelConfig


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


GOOD = {
    "context": ["hello there", "tell me about pop music"],
    "knowledge": ["pop music is a genre", "rock is loud"],
    "response": "pop music is a genre of popular music",
}


def oracle_tokenize(text):
    """The character scanner the tokenizer's pattern replaced."""
    tokens = []
    word = []
    for ch in text.lower():
        if ch.isalnum():
            word.append(ch)
        else:
            if word:
                tokens.append("".join(word))
                word = []
            if not ch.isspace():
                tokens.append(ch)
    if word:
        tokens.append("".join(word))
    return tokens


# Characters where a regex class and a str predicate could part: "_" is in \w, "İ" lowercases to two
# characters, "²" and "٣" are numeric, and the rest are spaces outside ASCII or separators \s might miss.
EDGE_CHARS = "_İßΣ²٣\u00a0\u0085\u1680\u2028\u3000\x1c\x1f\u200b\ufeff-'"


class TestTokenize:
    def test_pattern_classes_agree_with_str_predicates_on_every_code_point(self):
        bad = []
        for cp in range(sys.maxunicode + 1):
            ch = chr(cp)
            expected = ["a" + ch + "a"] if ch.isalnum() else ["a", "a"] if ch.isspace() else ["a", ch, "a"]
            if corpus._TOKEN.findall("a" + ch + "a") != expected:
                bad.append(hex(cp))
        assert bad == []

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.text(st.one_of(st.characters(), st.sampled_from(EDGE_CHARS), st.sampled_from(" \t\nAb1")), max_size=40))
    def test_equals_the_character_scanner(self, text):
        assert tokenize(text) == oracle_tokenize(text)

    def test_punctuation_detached(self):
        assert tokenize("Pop music!") == ["pop", "music", "!"]

    def test_empty(self):
        assert tokenize("") == []

    def test_whitespace_collapse(self):
        assert tokenize("A  B") == ["a", "b"]

    def test_inner_punctuation(self):
        assert tokenize("it's rock-n-roll") == ["it", "'", "s", "rock", "-", "n", "-", "roll"]


class TestLoadJsonl:
    def test_order_preserved(self, tmp_path):
        p = tmp_path / "d.jsonl"
        rec2 = dict(GOOD, response="different answer")
        write_jsonl(p, [GOOD, rec2])
        samples = load_jsonl(p)
        assert len(samples) == 2
        assert samples[0].response == GOOD["response"]
        assert samples[1].response == "different answer"

    def test_missing_field_names_line(self, tmp_path):
        p = tmp_path / "d.jsonl"
        bad = {k: v for k, v in GOOD.items() if k != "response"}
        write_jsonl(p, [GOOD, bad])
        with pytest.raises(DatasetError) as err:
            load_jsonl(p)
        assert "line 2" in str(err.value) and "response" in str(err.value)

    def test_empty_context_rejected(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_jsonl(p, [dict(GOOD, context=[])])
        with pytest.raises(DatasetError) as err:
            load_jsonl(p)
        assert "line 1" in str(err.value)

    def test_wrong_type_rejected(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_jsonl(p, [dict(GOOD, knowledge="not a list")])
        with pytest.raises(DatasetError):
            load_jsonl(p)

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"context": ["hi"', "invalid JSON"),
            (json.dumps([GOOD]), "record is not an object"),
            (json.dumps(dict(GOOD, knowledge=[])), "knowledge must contain at least one sentence"),
            (json.dumps(dict(GOOD, context=["hi", 3])), "context[1] is not a string"),
            (json.dumps(dict(GOOD, context=["hi", " \t "])), "context[1] tokenizes to nothing"),
            (json.dumps(dict(GOOD, knowledge=["  "])), "knowledge[0] tokenizes to nothing"),
            (json.dumps(dict(GOOD, response="   ")), "response tokenizes to nothing"),
        ],
        ids=["invalid-json", "not-an-object", "empty-knowledge", "non-string-utterance",
             "blank-utterance", "blank-sentence", "blank-response"],
    )
    def test_bad_record_names_its_line(self, tmp_path, line, message):
        p = tmp_path / "d.jsonl"
        p.write_text(json.dumps(GOOD) + "\n\n" + line + "\n", encoding="utf-8")
        with pytest.raises(DatasetError) as err:
            load_jsonl(p)
        assert str(err.value).startswith(f"{p}: line 3: ") and message in str(err.value)


class TestBuildVocab:
    def test_frequency_order(self):
        s = DialogueSample(["a a b"], ["a"], "a b")
        vocab = build_vocab([s], min_freq=1)
        assert vocab.token_to_id["a"] < vocab.token_to_id["b"]

    def test_min_freq_threshold(self):
        s = DialogueSample(["a a b"], ["c"], "d")
        vocab = build_vocab([s], min_freq=3)
        assert len(vocab) == 5  # reserved only: every token is too rare

    def test_tie_is_lexicographic(self):
        s = DialogueSample(["zed apple"], ["zed apple"], "zed apple")
        vocab = build_vocab([s])
        assert vocab.token_to_id["apple"] < vocab.token_to_id["zed"]

    def test_save_load_round_trip(self, tmp_path):
        s = DialogueSample(["some words here"], ["more words"], "words again")
        vocab = build_vocab([s])
        p = tmp_path / "vocab.txt"
        vocab.save(p)
        loaded = Vocabulary.load(p)
        assert loaded.id_to_token == vocab.id_to_token


class TestEncodeSample:
    def make_vocab(self, *samples):
        return build_vocab(list(samples))

    def test_latest_context_kept(self):
        s = DialogueSample([f"utterance {i}" for i in range(12)], ["know"], "resp")
        vocab = self.make_vocab(s)
        enc = encode_sample(s, vocab)
        assert enc.m == 10
        assert enc.context_tokens[0] == ["utterance", "2"]
        assert enc.context_tokens[-1] == ["utterance", "11"]

    def test_response_truncated_to_target_budget(self):
        s = DialogueSample(["hi"], ["know"], " ".join(f"w{i}" for i in range(100)))
        vocab = self.make_vocab(s)
        enc = encode_sample(s, vocab)
        assert len(enc.response_ids) == 64
        assert enc.response_ids[0] == BOS and enc.response_ids[-1] == EOS

    def test_overflowing_knowledge_dropped_whole(self):
        s = DialogueSample(
            ["hi"],
            ["small sent", " ".join(f"k{i}" for i in range(50)), "tail sent"],
            "resp",
        )
        vocab = self.make_vocab(s)
        enc = encode_sample(s, vocab, EncodeConfig(max_source_len=20))
        # first sentence fits; the 50-token one does not, and drops with the rest
        assert enc.l == 1
        assert enc.knowledge_tokens == [["small", "sent"]]

    def test_post_longer_than_budget_truncates_left_and_warns(self):
        s = DialogueSample([" ".join(f"p{i}" for i in range(30))], ["k"], "r")
        vocab = self.make_vocab(s)
        with pytest.warns(UserWarning):
            enc = encode_sample(s, vocab, EncodeConfig(max_source_len=8))
        assert enc.m == 1 and enc.l == 1
        assert enc.context_tokens[0][-1] == "p29"
        assert enc.context_tokens == [[f"p{i}" for i in range(24, 30)]]
        assert enc.knowledge_tokens == [["k"]]
        assert len(enc.source_ids()) == 8

    def test_full_post_leaves_room_for_first_knowledge_sentence(self):
        post = " ".join(f"p{i}" for i in range(10))
        s = DialogueSample([post], ["alpha beta gamma", "delta"], "resp")
        vocab = self.make_vocab(s)
        with pytest.warns(UserWarning):
            enc = encode_sample(s, vocab, EncodeConfig(max_source_len=12))
        assert enc.knowledge_tokens == [["alpha", "beta", "gamma"]]
        assert enc.context_tokens == [[f"p{i}" for i in range(2, 10)]]
        assert len(enc.source_ids()) == 12

    def test_reserved_room_drops_oldest_utterances_first(self):
        s = DialogueSample(
            ["a b c", "p1 p2 p3 p4 p5"], [" ".join(f"k{i}" for i in range(8))], "resp"
        )
        vocab = self.make_vocab(s)
        enc = encode_sample(s, vocab, EncodeConfig(max_source_len=14))
        assert enc.context_tokens == [["p1", "p2", "p3", "p4", "p5"]]
        assert enc.l == 1 and len(enc.knowledge_tokens[0]) == 8
        assert len(enc.source_ids()) == 14

    def test_sentence_too_long_for_any_post_is_truncated_from_the_right(self):
        s = DialogueSample(["x y"], [" ".join(f"k{i}" for i in range(20)), "z"], "resp")
        vocab = self.make_vocab(s)
        with pytest.warns(UserWarning):
            enc = encode_sample(s, vocab, EncodeConfig(max_source_len=8))
        assert enc.context_tokens == [["y"]]
        assert enc.knowledge_tokens == [[f"k{i}" for i in range(6)]]
        assert len(enc.source_ids()) == 8

    def test_empty_knowledge_regression_runs_through_the_model(self):
        post = " ".join(f"p{i}" for i in range(10))
        s = DialogueSample([post], ["alpha beta gamma"], "alpha resp")
        vocab = self.make_vocab(s)
        config = ModelConfig(
            vocab_size=len(vocab), d_model=8, n_heads=2, n_encoder_layers=1,
            n_decoder_layers=1, d_ff=8, max_source_len=12, max_target_len=6,
        )
        with pytest.warns(UserWarning):
            enc = encode_sample(s, vocab, config.encode_config())
        model = CKLModel(config, seed=0)
        assert model.condition(enc)[1].klw.shape == (1,)
        assert model.generate(enc)[0] == BOS

    def test_oov_becomes_unk(self):
        s = DialogueSample(["hello"], ["world"], "hello world")
        vocab = self.make_vocab(s)
        other = DialogueSample(["zzz"], ["world"], "hello")
        enc = encode_sample(other, vocab)
        assert enc.context_ids[0] == [UNK]

    def test_segment_layout_invariants(self):
        s = DialogueSample(GOOD["context"], GOOD["knowledge"], GOOD["response"])
        vocab = self.make_vocab(s)
        enc = encode_sample(s, vocab)
        assert len(enc.segment_lengths) == enc.m + enc.l
        src = enc.source_ids()
        assert sum(enc.segment_lengths) + (enc.m + enc.l - 1) == len(src)
        assert src.count(SEP) == enc.m + enc.l - 1
        seps = [i for i, t in enumerate(src) if t == SEP]
        pieces = [src[a + 1 : b] for a, b in zip([-1] + seps, seps + [len(src)])]
        assert pieces == enc.context_ids + enc.knowledge_ids
        assert [len(p) for p in pieces] == enc.segment_lengths

    def test_idempotent(self):
        s = DialogueSample(GOOD["context"], GOOD["knowledge"], GOOD["response"])
        vocab = self.make_vocab(s)
        assert encode_sample(s, vocab) == encode_sample(s, vocab)

    def test_round_trip_in_vocab_text(self):
        s = DialogueSample(["alpha beta"], ["gamma"], "alpha gamma")
        vocab = self.make_vocab(s)
        tokens = tokenize("alpha beta gamma")
        assert vocab.decode(vocab.encode(tokens)) == tokens
