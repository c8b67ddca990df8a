"""WER / WERR / OOV accuracy metric contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hintasr.metrics import (
    WerCounts,
    evaluate_transcripts,
    oov_accuracy,
    werr,
    word_error_rate,
)


def levenshtein(a, b):
    """Two-row dynamic-programming edit distance with unit costs."""
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def brute_force_distance(a, b):
    """Plain recursive Levenshtein, exact for short sequences."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    if a[0] == b[0]:
        return brute_force_distance(a[1:], b[1:])
    return 1 + min(brute_force_distance(a[1:], b),
                   brute_force_distance(a, b[1:]),
                   brute_force_distance(a[1:], b[1:]))


class TestWer:
    def test_exact_match(self):
        wer, counts = word_error_rate("a b c", "a b c")
        assert wer == 0.0
        assert counts.errors == 0
        assert counts.ref_words == 3

    def test_single_substitution(self):
        wer, counts = word_error_rate("a x c", "a b c")
        assert counts.substitutions == 1 and counts.errors == 1
        assert wer == pytest.approx(100.0 / 3)

    def test_all_deleted(self):
        wer, counts = word_error_rate("", "a b")
        assert counts.deletions == 2
        assert wer == 100.0

    def test_empty_reference(self):
        wer, counts = word_error_rate("", "")
        assert wer == 0.0
        wer, counts = word_error_rate("x y", "")
        assert counts.insertions == 2
        assert wer == 200.0  # sentinel: 100 per insertion against N_ref=0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        words = ["a", "b", "c", "d"]
        for _ in range(300):
            ref = [words[i] for i in rng.integers(0, 4, size=rng.integers(0, 7))]
            hyp = [words[i] for i in rng.integers(0, 4, size=rng.integers(0, 7))]
            _, counts = word_error_rate(" ".join(hyp), " ".join(ref))
            assert counts.errors == brute_force_distance(ref, hyp)

    @settings(max_examples=300, deadline=None)
    @given(ref=st.lists(st.sampled_from(["a", "b", "ab", "cat", "kat"]), max_size=12),
           hyp=st.lists(st.sampled_from(["a", "b", "ab", "cat", "kat"]), max_size=12),
           sep=st.sampled_from([" ", "  ", "\t", " \n "]))
    def test_error_count_equals_levenshtein_property(self, ref, hyp, sep):
        _, counts = word_error_rate(sep.join(hyp), sep + sep.join(ref))
        assert counts.errors == levenshtein(ref, hyp)
        assert counts.ref_words == len(ref)
        assert counts.insertions - counts.deletions == len(hyp) - len(ref)


class TestWerr:
    def test_equal_is_zero(self):
        assert werr(10.0, 10.0) == 0.0

    def test_improvement_positive(self):
        assert werr(9.0, 10.0) == pytest.approx(10.0)

    def test_degradation_negative(self):
        assert werr(10.4, 10.0) == pytest.approx(-4.0)

    def test_zero_baseline_not_applicable(self):
        assert werr(5.0, 0.0) is None

    def test_antitone_in_wer_with(self):
        vals = [werr(w, 12.0) for w in (6.0, 8.0, 10.0, 14.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestOovAccuracy:
    def test_all_reproduced(self):
        acc, present, correct = oov_accuracy(["the kolmogorov test"], ["the kolmogorov test"],
                                             ["kolmogorov"])
        assert acc == 100.0 and present == correct == 1

    def test_omitted_hint_counts_zero(self):
        acc, present, correct = oov_accuracy(["the test"], ["the kolmogorov test"],
                                             ["kolmogorov"])
        assert acc == 0.0 and present == 1 and correct == 0

    def test_fractional(self):
        hyps = ["alpha beta", "gamma"]
        refs = ["alpha beta", "gamma delta epsilon"]
        # three present hint occurrences, one correct
        acc, present, correct = oov_accuracy(hyps, refs, ["beta", "delta", "epsilon"])
        assert present == 3 and correct == 1
        assert acc == pytest.approx(100.0 / 3)

    def test_no_hints_present_sentinel(self):
        acc, present, _ = oov_accuracy(["a"], ["a"], ["zzz"])
        assert acc is None and present == 0

    def test_word_boundary_matching(self):
        # substring inside a longer word must not count
        acc, present, correct = oov_accuracy(["scatter"], ["cat"], ["cat"])
        assert present == 1 and correct == 0

    def test_adding_correct_hint_never_decreases(self):
        base, _, _ = oov_accuracy(["a b", "c"], ["a b", "c d"], ["b", "d"])
        more, _, _ = oov_accuracy(["a b", "c d"], ["a b", "c d"], ["b", "d"])
        assert more >= base

    def test_bounds(self):
        rng = np.random.default_rng(1)
        vocab = ["a", "b", "c", "d", "e"]
        for _ in range(100):
            refs = [" ".join(vocab[i] for i in rng.integers(0, 5, size=4)) for _ in range(3)]
            hyps = [" ".join(vocab[i] for i in rng.integers(0, 5, size=4)) for _ in range(3)]
            acc, _, _ = oov_accuracy(hyps, refs, ["a", "e"])
            if acc is not None:
                assert 0.0 <= acc <= 100.0


class TestEvalReport:
    def test_aggregates_and_serializes(self):
        report = evaluate_transcripts(["a b", "c"], ["a b", "c d"], hints=["d"],
                                      baseline_wer=50.0)
        assert report.counts.ref_words == 4
        assert report.wer == pytest.approx(25.0)
        assert report.werr == pytest.approx(50.0)
        assert report.oov_accuracy == 0.0
        d = report.to_dict()
        assert d["hints_present"] == 1 and d["hints_correct"] == 0
        assert "WER" in report.to_table()

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            evaluate_transcripts(["a"], ["a", "b"])
