"""Tests for the surrogate-LM scorers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.llm.scorers import (
    FormatScorer,
    InductionScorer,
    PriorScorer,
    RecencyUnigramScorer,
    SparseScores,
)
from repro.llm.tokenizer import Tokenizer


@pytest.fixture(scope="module")
def tok():
    return Tokenizer()


class TestSparseScores:
    def test_accumulate_sums_overlap(self):
        a = SparseScores(np.array([1, 2]), np.array([1.0, 2.0]))
        b = SparseScores(np.array([2, 3]), np.array([5.0, 7.0]))
        merged = SparseScores.accumulate([a, b])
        by_id = dict(zip(merged.ids.tolist(), merged.scores.tolist()))
        assert by_id == {1: 1.0, 2: 7.0, 3: 7.0}

    def test_accumulate_empty(self):
        assert SparseScores.accumulate([]).ids.size == 0
        assert SparseScores.accumulate([SparseScores.empty()]).ids.size == 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            SparseScores(np.array([1]), np.array([1.0, 2.0]))


class TestInductionScorer:
    def test_single_continuation_dominates(self):
        """Context 'A B A B A' -> suffix ...'A' was always followed by 'B'."""
        ctx = np.array([10, 20, 10, 20, 10])
        scores = InductionScorer().score(ctx)
        by_id = dict(zip(scores.ids.tolist(), scores.scores.tolist()))
        assert max(by_id, key=by_id.get) == 20

    def test_longer_match_wins(self):
        """'X Y Z ... Q Y Z' — the length-2 match (-> after 'Y Z') should
        out-vote length-1 matches of 'Z' elsewhere."""
        # tokens: 1 2 3 | 9 5 3 7 | 1 2 3 -> suffix [2,3]; after [2,3] came 4
        ctx = np.array([1, 2, 3, 4, 9, 5, 3, 7, 1, 2, 3])
        scores = InductionScorer().score(ctx)
        by_id = dict(zip(scores.ids.tolist(), scores.scores.tolist()))
        assert by_id[4] > by_id[7]  # 7 only follows a length-1 '3' match

    def test_no_match_empty(self):
        scores = InductionScorer().score(np.array([1, 2, 3]))
        # suffix token 3 never occurred before -> only weaker L=... nothing
        assert scores.ids.size == 0

    def test_recency_bias(self):
        """Matches near the end vote more strongly."""
        far = [5, 77] + [9] * 50
        near = [9] * 50 + [5, 88]
        ctx = np.array(far + near + [5])
        scorer = InductionScorer(recency_halflife=30.0)
        scores = scorer.score(ctx)
        by_id = dict(zip(scores.ids.tolist(), scores.scores.tolist()))
        assert by_id[88] > by_id[77]

    def test_offset_shift(self):
        ctx = np.array([1, 2, 1, 2, 1])
        plain = InductionScorer().score(ctx)
        shifted = InductionScorer().score(ctx, offset_shift=-3.0)
        np.testing.assert_allclose(shifted.scores, plain.scores - 3.0)

    def test_short_context_empty(self):
        assert InductionScorer().score(np.array([1])).ids.size == 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            InductionScorer(max_ngram=0)
        with pytest.raises(ValueError):
            InductionScorer(match_base=0.5)


class TestRecencyUnigram:
    def test_frequency_order(self):
        ctx = np.array([7, 7, 7, 8])
        scores = RecencyUnigramScorer(halflife=1e9).score(ctx)
        by_id = dict(zip(scores.ids.tolist(), scores.scores.tolist()))
        assert by_id[7] > by_id[8]

    def test_recency_tilts(self):
        """With a short halflife, the most recent token beats an older,
        slightly more frequent one."""
        ctx = np.array([7, 7] + [0] * 30 + [8])
        scores = RecencyUnigramScorer(halflife=3.0).score(ctx)
        by_id = dict(zip(scores.ids.tolist(), scores.scores.tolist()))
        assert by_id[8] > by_id[7]

    def test_empty(self):
        assert RecencyUnigramScorer().score(np.array([])).ids.size == 0

    def test_invalid_halflife(self):
        with pytest.raises(ValueError):
            RecencyUnigramScorer(halflife=0)


class TestFormatScorer:
    def _analysis(self, tok, text):
        fs = FormatScorer(tok.vocab)
        return fs, fs.analyze_prompt(np.asarray(tok.encode(text)))

    def test_analyze_finds_start_votes(self, tok):
        fs, analysis = self._analysis(
            tok, "Performance: 0.0022155\nPerformance: 0.0031921\n"
        )
        zero = tok.vocab.id_of("0")
        assert set(analysis.start_votes) == {zero}
        assert analysis.expected_decimals == 7

    def test_analyze_collects_fraction_prefixes(self, tok):
        fs, analysis = self._analysis(
            tok, "Performance: 0.0022155\nPerformance: 0.0031921\n"
        )
        assert sorted(analysis.fraction_prefixes) == ["002", "003"]

    def test_analyze_xl_decimals(self, tok):
        fs, analysis = self._analysis(tok, "Performance: 2.2767\n")
        assert analysis.expected_decimals == 4

    def test_analyze_no_cue(self, tok):
        fs, analysis = self._analysis(tok, "no values here at all")
        assert analysis.start_votes == {}
        assert analysis.expected_decimals is None

    def test_value_state_phases(self, tok):
        fs = FormatScorer(tok.vocab)
        assert fs.value_state([]).phase == "preamble"
        assert fs.value_state(["Performance", ":"]).phase == "preamble"
        assert fs.value_state(["0"]).phase == "value"
        s = fs.value_state(["0", ".", "002"])
        assert s.phase == "value" and s.seen_dot and s.digits_after_dot == 3
        assert fs.value_state(["0", ".", "002", "\n"]).phase == "done"

    def test_dot_boost_only_after_integer(self, tok):
        fs, analysis = self._analysis(tok, "Performance: 0.0022155\n")
        scores = fs.score(["0"], analysis)
        by_id = dict(zip(scores.ids.tolist(), scores.scores.tolist()))
        assert by_id[tok.vocab.dot_id] == pytest.approx(fs.dot_boost)

    def test_termination_after_expected_decimals(self, tok):
        fs, analysis = self._analysis(tok, "Performance: 0.0022155\n")
        done = fs.score(["0", ".", "002", "215", "5"], analysis)
        by_id = dict(zip(done.ids.tolist(), done.scores.tolist()))
        assert by_id[tok.vocab.newline_id] > 0

    def test_premature_stop_penalized(self, tok):
        fs, analysis = self._analysis(tok, "Performance: 0.0022155\n")
        early = fs.score(["0", ".", "002"], analysis)
        by_id = dict(zip(early.ids.tolist(), early.scores.tolist()))
        assert by_id[tok.vocab.newline_id] < 0

    def test_digit_noise_restricted_to_remaining(self, tok):
        fs, analysis = self._analysis(tok, "Performance: 2.2767\n")
        # after "2", ".", "276": one decimal remains -> only 1-digit tokens
        noise = fs.digit_noise(["2", ".", "276"], analysis)
        strings = [tok.vocab.string_of(int(i)) for i in noise.ids]
        assert all(len(s) == 1 for s in strings)
        assert noise.scores.sum() == pytest.approx(1.0)

    def test_digit_noise_empty_when_complete(self, tok):
        fs, analysis = self._analysis(tok, "Performance: 2.2767\n")
        assert fs.digit_noise(["2", ".", "276", "7"], analysis).ids.size == 0

    def test_digit_noise_prefix_affinity(self, tok):
        """First-chunk noise concentrates on demonstrated prefixes."""
        fs, analysis = self._analysis(
            tok, "Performance: 0.0022155\nPerformance: 0.0021042\n"
        )
        noise = fs.digit_noise(["0", "."], analysis)
        by_str = {
            tok.vocab.string_of(int(i)): float(s)
            for i, s in zip(noise.ids, noise.scores)
        }
        affine_mass = sum(v for k, v in by_str.items() if k.startswith("00"))
        loose_mass = sum(v for k, v in by_str.items() if k.startswith("0"))
        assert affine_mass > 0.7
        assert loose_mass > 0.85

    def test_done_state_boosts_eot(self, tok):
        fs = FormatScorer(tok.vocab)
        scores = fs.score(["0", ".", "1", " "], None)
        assert scores.ids.tolist() == [tok.vocab.specials.eot]


class TestPriorScorer:
    def test_magnitude_sm_prefers_zero(self, tok):
        ps = PriorScorer(tok.vocab)
        scores = ps.first_token_magnitude("SM")
        assert scores.ids.tolist() == [tok.vocab.id_of("0")]

    def test_magnitude_xl_prefers_nonzero(self, tok):
        ps = PriorScorer(tok.vocab)
        scores = ps.first_token_magnitude("XL")
        strings = {tok.vocab.string_of(int(i)) for i in scores.ids}
        assert strings == {str(d) for d in range(1, 10)}

    def test_unknown_size_empty(self, tok):
        assert PriorScorer(tok.vocab).first_token_magnitude(None).ids.size == 0

    def test_bias_deterministic(self, tok):
        a = PriorScorer(tok.vocab, prior_seed=3)
        b = PriorScorer(tok.vocab, prior_seed=3)
        ids = np.array([1, 2, 3])
        np.testing.assert_array_equal(a.bias_for(ids), b.bias_for(ids))

    def test_bias_seed_sensitive(self, tok):
        a = PriorScorer(tok.vocab, prior_seed=3)
        b = PriorScorer(tok.vocab, prior_seed=4)
        ids = np.array([1, 2, 3])
        assert not np.array_equal(a.bias_for(ids), b.bias_for(ids))


class TestPackedNgramIndex:
    """The packed-key index path against the reference full scan."""

    @staticmethod
    def assert_indexed_equals_cold(prefix, generated, **params):
        scorer = InductionScorer(**params)
        prefix = np.asarray(prefix, dtype=np.int64)
        ctx = np.concatenate([prefix, np.asarray(generated, dtype=np.int64)])
        index = scorer.build_index(prefix)
        for n in range(prefix.size, ctx.size + 1):
            cold = scorer.score(ctx[:n], offset_shift=-1.3)
            warm = scorer.score_indexed(
                ctx[:n], index, prefix.size, offset_shift=-1.3
            )
            assert np.array_equal(cold.ids, warm.ids)
            # Bit-for-bit: no tolerance.
            assert np.array_equal(cold.scores, warm.scores)

    @given(
        prefix=st.lists(st.integers(0, 6), min_size=0, max_size=5),
        generated=st.lists(
            st.integers(0, 6) | st.integers(7, 2081), min_size=1, max_size=8
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_short_prefixes(self, prefix, generated):
        """Prefix lengths 0-5; generated ids in, absent from and above it."""
        self.assert_indexed_equals_cold(prefix, generated)

    @given(
        prefix=st.lists(st.integers(0, 3), min_size=6, max_size=60),
        generated=st.lists(
            st.integers(0, 3) | st.integers(4, 2081), min_size=1, max_size=10
        ),
        max_ngram=st.integers(1, 5),
    )
    @settings(max_examples=100, deadline=None)
    def test_longer_prefixes(self, prefix, generated, max_ngram):
        self.assert_indexed_equals_cold(
            prefix, generated, max_ngram=max_ngram
        )

    @pytest.mark.parametrize("length", [1, 2, 5, 40])
    def test_repeated_token_prefix(self, length):
        self.assert_indexed_equals_cold([9] * length, [9, 9, 3, 9, 9, 9, 12])

    def test_starts_ascend_within_each_key(self):
        rng = np.random.default_rng(3)
        index = InductionScorer().build_index(rng.integers(0, 5, size=400))
        for keys, starts in zip(index.keys, index.starts):
            assert np.all(np.diff(keys) >= 0)
            same = np.diff(keys) == 0
            assert np.all(np.diff(starts)[same] > 0)

    def test_default_vocabulary_keys_fit_well_inside_int64(self, tok):
        size = len(tok.vocab)
        assert size**4 < 2**45
        index = InductionScorer().build_index(np.array([0, size - 1, 5]))
        assert index.base == size

    def test_key_overflow_raises_at_build(self):
        with pytest.raises(ValueError, match="overflow"):
            InductionScorer(max_ngram=4).build_index(np.array([1, 2**16]))
        with pytest.raises(ValueError, match="overflow"):
            InductionScorer(max_ngram=8).build_index(np.array([1, 300]))

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            InductionScorer().build_index(np.array([1, -2, 3]))

    def test_index_is_read_only(self):
        index = InductionScorer().build_index(np.array([1, 2, 1, 2, 3]))
        with pytest.raises(ValueError):
            index.keys[0][0] = 7
