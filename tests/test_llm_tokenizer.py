"""Tests for the tokenizer (digit chunking, round-trip, fallbacks)."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TokenizationError
from repro.llm.tokenizer import PIECE_MEMO_CAP, Tokenizer, chunk_digits


class TestChunkDigits:
    def test_left_to_right_groups_of_three(self):
        assert chunk_digits("1234567") == ["123", "456", "7"]
        assert chunk_digits("0022155") == ["002", "215", "5"]

    def test_short_runs(self):
        assert chunk_digits("7") == ["7"]
        assert chunk_digits("42") == ["42"]
        assert chunk_digits("123") == ["123"]

    def test_non_digits_rejected(self):
        with pytest.raises(TokenizationError):
            chunk_digits("12a")


class TestValueTokenization:
    def test_paper_example_shape(self, tokenizer):
        """0.0022155 must tokenize as 0 | . | 002 | 215 | 5 (Section IV-B:
        every value string is at least three tokens with '.' second)."""
        strs = tokenizer.token_strings(tokenizer.encode("0.0022155"))
        assert strs == ["0", ".", "002", "215", "5"]

    def test_xl_value_shape(self, tokenizer):
        strs = tokenizer.token_strings(tokenizer.encode("2.2767"))
        assert strs == ["2", ".", "276", "7"]

    def test_encode_value_validates(self, tokenizer):
        assert tokenizer.encode_value("1.5")
        with pytest.raises(TokenizationError):
            tokenizer.encode_value("1.5e-3")
        with pytest.raises(TokenizationError):
            tokenizer.encode_value("-1.5")


class TestRoundTrip:
    CASES = [
        "Performance: 0.0022155\n",
        "Hyperparameter configuration: size is SM, first_array_packed is True",
        "for i=0 to N in tiles of size outer_loop_tiling_factor",
        "<|begin_of_text|><|start_header_id|>system<|end_header_id|>\n\nHi<|eot_id|>",
        "weird ünïcode ☃ text",
        "tabs\tand\rcarriage",
        "",
        "  leading and trailing  ",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_roundtrip(self, tokenizer, text):
        assert tokenizer.decode(tokenizer.encode(text)) == text

    @given(st.text(max_size=120))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, text):
        tok = Tokenizer()
        assert tok.decode(tok.encode(text)) == text

    @given(
        st.floats(
            min_value=1e-6, max_value=1e4, allow_nan=False, allow_infinity=False
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_value_roundtrip_property(self, value):
        tok = Tokenizer()
        text = f"{value:.7f}"
        assert tok.decode(tok.encode(text)) == text


class TestSegmentation:
    def test_words_single_tokens(self, tokenizer):
        strs = tokenizer.token_strings(tokenizer.encode("the configuration"))
        assert strs == ["the", " configuration"]

    def test_special_tokens_atomic(self, tokenizer):
        ids = tokenizer.encode("<|eot_id|>")
        assert ids == [tokenizer.vocab.specials.eot]

    def test_unknown_word_falls_back_to_chars(self, tokenizer):
        strs = tokenizer.token_strings(tokenizer.encode("qzxv"))
        assert "".join(strs) == "qzxv"
        assert all(len(s) == 1 for s in strs)

    def test_number_after_space(self, tokenizer):
        strs = tokenizer.token_strings(tokenizer.encode("is 80"))
        assert strs == ["is", " ", "80"]

    def test_double_newline_single_token(self, tokenizer):
        assert tokenizer.token_strings(tokenizer.encode("\n\n")) == ["\n\n"]

    def test_unicode_via_bytes(self, tokenizer):
        ids = tokenizer.encode("é")
        assert all(tokenizer.vocab.is_byte(i) for i in ids)
        assert tokenizer.decode(ids) == "é"


def reference_encode(tok, text):
    """Memo-free encoding: scan pieces, falling back on skipped characters."""
    piece_re = re.compile(
        r"<\|[a-z_]+\|>|\n\n|\n| ?[A-Za-z]+|[0-9]+| ?[^\sA-Za-z0-9]| +"
    )
    ids, pos = [], 0
    for match in piece_re.finditer(text):
        if match.start() != pos:
            tok._encode_fallback(text[pos : match.start()], ids)
        tok._encode_piece(match.group(0), ids)
        pos = match.end()
    if pos != len(text):
        tok._encode_fallback(text[pos:], ids)
    return ids


# Letters, digits, punctuation, exotic whitespace the piece regex has no
# pattern for, a non-ASCII digit ('²'), and characters that need bytes.
_FUZZ_ALPHABET = (
    "abcXYZ019 .,:_-\n\t\r\x0b\x0c\u00a0\u3000"
    "\u00b2\u00b3\u00e9\u6f22\U0001f642"
)


class TestPieceMemo:
    @given(
        st.lists(
            st.sampled_from(
                list(_FUZZ_ALPHABET)
                + ["<|eot_id|>", " configuration", " 0.0022155", "\n\n"]
            ),
            max_size=40,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_memoized_equals_reference(self, parts):
        tok = Tokenizer()
        text = "".join(parts)
        expected = reference_encode(tok, text)
        assert tok.encode(text) == expected  # cold memo
        assert tok.encode(text) == expected  # warm memo
        assert tok.decode(expected) == text

    def test_prompt_text_matches_reference(self, tokenizer, sm_dataset):
        from repro.dataset import Syr2kTask
        from repro.prompts.builder import PromptBuilder

        builder = PromptBuilder(Syr2kTask("SM"), tokenizer)
        examples = [
            (sm_dataset.config(i), float(sm_dataset.runtimes[i]))
            for i in range(20)
        ]
        text = builder.discriminative(examples, sm_dataset.config(30)).text
        assert tokenizer.encode(text) == reference_encode(tokenizer, text)

    def test_memo_never_grows_past_cap(self):
        tok = Tokenizer()
        words = [
            " " + "".join("abcdefghij"[int(d)] for d in f"{i:05d}")
            for i in range(PIECE_MEMO_CAP + 500)
        ]
        text = "".join(words)
        assert tok.encode(text) == reference_encode(tok, text)
        assert len(tok._piece_memo) == PIECE_MEMO_CAP
        # Pieces past the cap still encode, just without being stored.
        assert tok.encode(text) == reference_encode(tok, text)
        assert len(tok._piece_memo) == PIECE_MEMO_CAP
