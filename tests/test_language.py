"""Word enumeration, complexity counts, forbidden words, growth rates."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kneading.encoding import binary_digits, kneading_from_tau, xi
from kneading.language import LanguageQuery, complexity, forbidden_words, language_words
from kneading.symbolic import PeriodicStream, feigenbaum_stream, shift
from oracles import Order, dfs_language_words, in_lambda, word_order

WINDOW = PeriodicStream("", "101")  # tau = 6/7

# frozen from the exhaustive filter below at nmax = 12
WINDOW_CORE = [2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377]
WINDOW_FULL = [2, 4, 7, 12, 20, 33, 54, 88, 143, 232, 376, 609]
CASCADE2_CORE = [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13]
CASCADE2_FULL = [2, 4, 7, 11, 16, 22, 29, 37, 46, 56, 67, 79]
CASCADE3_CORE = [2, 3, 5, 7, 10, 13, 17, 21, 26, 31, 37, 43]
CASCADE3_FULL = [2, 4, 7, 12, 19, 29, 42, 59, 80, 106, 137, 174]

GOLDEN = math.log((1 + math.sqrt(5)) / 2)

# tau = p/q in Lambda (every tent iterate stays <= tau): exactly the tau
# whose kneading stream is maximal
MAXIMAL_TAU = sorted({Fraction(p, q) for q in range(1, 65) for p in range(q + 1)
                      if in_lambda(Fraction(p, q))})


def _digit_word(u):
    out = []
    p = 0
    for ch in u:
        p ^= int(ch)
        out.append(str(p))
    return "".join(out)


def _naive_counts(K, nmax, mode):
    # independent oracle: filter all 2^n words through word_order directly
    U = xi(K).prefix(nmax)
    L = xi(shift(K, 1)).prefix(nmax) if mode == "core" else None

    def viable(u):
        for m in range(len(u)):
            dw = _digit_word(u[m:])
            if word_order(dw, U[: len(dw)]) == Order.GT:
                return False
            if L is not None and word_order(dw, L[: len(dw)]) == Order.LT:
                return False
        return True

    return [
        sum(viable(format(w, f"0{n}b")) for w in range(2 ** n))
        for n in range(1, nmax + 1)
    ]


def test_full_shift_counts_everything():
    K = kneading_from_tau(Fraction(1))
    expect = [2 ** n for n in range(1, 11)]
    assert complexity(LanguageQuery(K, 10)) == expect
    assert complexity(LanguageQuery(K, 10, "full-interval")) == expect


def test_window_counts_frozen():
    assert complexity(LanguageQuery(WINDOW, 12)) == WINDOW_CORE
    assert complexity(LanguageQuery(WINDOW, 12, "full-interval")) == WINDOW_FULL
    # core counts are the Fibonacci numbers, full-interval counts F(n+3) - 1
    fib = [1, 1]
    while len(fib) < 24:
        fib.append(fib[-1] + fib[-2])
    assert WINDOW_CORE == [fib[n + 1] for n in range(1, 13)]
    assert WINDOW_FULL == [fib[n + 2] - 1 for n in range(1, 13)]


def test_cascade_counts_frozen():
    assert complexity(LanguageQuery(feigenbaum_stream(2), 12)) == CASCADE2_CORE
    assert complexity(LanguageQuery(feigenbaum_stream(2), 12, "full-interval")) == CASCADE2_FULL
    assert complexity(LanguageQuery(feigenbaum_stream(3), 12)) == CASCADE3_CORE
    assert complexity(LanguageQuery(feigenbaum_stream(3), 12, "full-interval")) == CASCADE3_FULL


@pytest.mark.parametrize("mode", ["core", "full-interval"])
@pytest.mark.parametrize(
    "K",
    [
        kneading_from_tau(Fraction(1)),
        WINDOW,
        feigenbaum_stream(2),
        feigenbaum_stream(3),
    ],
    ids=["full-shift", "window", "cascade2", "cascade3"],
)
def test_matches_exhaustive_filter(K, mode):
    assert complexity(LanguageQuery(K, 10, mode)) == _naive_counts(K, 10, mode)


def test_window_growth_rate():
    p = complexity(LanguageQuery(WINDOW, 20))
    rate = math.log(p[19]) / 20
    assert abs(rate - GOLDEN) < 0.05
    # the gap to the certified entropy shrinks along the sequence
    gaps = [abs(math.log(p[n - 1]) / n - GOLDEN) for n in (8, 12, 16, 20)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    p = complexity(LanguageQuery(WINDOW, 20, "full-interval"))
    assert abs(math.log(p[19]) / 20 - GOLDEN) < 0.05


def test_full_shift_growth_rate():
    p = complexity(LanguageQuery(kneading_from_tau(Fraction(1)), 20))
    assert p == [2 ** n for n in range(1, 21)]
    gaps = [abs(math.log(p[n - 1]) / n - math.log(2)) for n in (8, 12, 16, 20)]
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))


def test_cascade_growth_subexponential():
    # zero-entropy stream: polynomial counts, rate decaying toward 0
    # (still 0.15 at n = 20; the limit is approached slowly)
    for j, tail in ((2, 21), (3, 111)):
        p = complexity(LanguageQuery(feigenbaum_stream(j), 20))
        assert p[19] == tail
        rates = [math.log(p[n - 1]) / n for n in (8, 12, 16, 20)]
        assert all(a > b for a, b in zip(rates, rates[1:]))
        assert rates[-1] < 0.25


def test_factor_closure():
    queries = [
        LanguageQuery(kneading_from_tau(Fraction(1)), 12),
        LanguageQuery(WINDOW, 12),
        LanguageQuery(WINDOW, 12, "full-interval"),
        LanguageQuery(feigenbaum_stream(2), 12),
        LanguageQuery(feigenbaum_stream(3), 12, "full-interval"),
    ]
    for q in queries:
        words = language_words(q)
        assert [len(words[n]) for n in range(1, 13)] == complexity(q)
        for n in range(2, 13):
            shorter = set(words[n - 1])
            for w in words[n]:
                assert w[1:] in shorter
                assert w[:-1] in shorter


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from(MAXIMAL_TAU).map(kneading_from_tau),
                 st.integers(min_value=1, max_value=4).map(feigenbaum_stream)),
       st.sampled_from(["core", "full-interval"]), st.integers(min_value=1, max_value=14))
def test_counting_dp_matches_word_walk(K, mode, n):
    # the automaton's layers against the depth-first walk, word for word
    q = LanguageQuery(K, n, mode)
    words = dfs_language_words(q)
    assert language_words(q) == words
    assert complexity(q) == [len(w) for w in words.values()]


def test_forbidden_words_window():
    fw = forbidden_words(binary_digits(Fraction(6, 7)), 12)
    assert fw == ["100", "101100", "101101100", "101101101100"]


def test_forbidden_words_full_shift_none():
    assert forbidden_words(binary_digits(Fraction(1)), 12) == []


def test_forbidden_words_first_cascade_level():
    fw = forbidden_words(binary_digits(Fraction(4, 5)), 12)
    assert fw[:2] == ["100", "1011"]
    assert [len(w) for w in fw] == [3, 4, 7, 8, 11, 12]


@given(st.text(alphabet="01", max_size=5), st.text(alphabet="01", min_size=1, max_size=6),
       st.integers(1, 30))
@settings(max_examples=200, deadline=None)
def test_forbidden_words_match_letter_loop(pre, per, nmax):
    # reference: symbols s_k = t_k ^ t_(k-1) letter by letter, then for each
    # zero digit t_j the word s_1 .. s_(j-1) with s_j flipped
    t = [int(c) for c in PeriodicStream(pre, per).prefix(nmax)]
    s = [t[0]] + [t[k] ^ t[k - 1] for k in range(1, nmax)]
    want = ["".join(map(str, s[:j])) + str(1 - s[j]) for j in range(nmax) if t[j] == 0]
    assert forbidden_words(PeriodicStream(pre, per), nmax) == want


def test_forbidden_words_absent_from_language():
    cases = [
        (LanguageQuery(WINDOW, 12), Fraction(6, 7)),
        (LanguageQuery(WINDOW, 12, "full-interval"), Fraction(6, 7)),
        (LanguageQuery(feigenbaum_stream(2), 12), Fraction(4, 5)),
    ]
    for q, tau in cases:
        words = language_words(q)
        fw = forbidden_words(binary_digits(tau), 12)
        for n in range(1, 13):
            for w in words[n]:
                assert not any(f in w for f in fw)


def test_query_validation():
    with pytest.raises(ValueError):
        LanguageQuery(WINDOW, 0)
    with pytest.raises(ValueError):
        LanguageQuery(WINDOW, 8, "both")
    with pytest.raises(ValueError, match="^nmax must be at most 24$"):
        complexity(LanguageQuery(WINDOW, 25))
    with pytest.raises(ValueError, match="nodes"):
        language_words(LanguageQuery(WINDOW, 17))
    with pytest.raises(ValueError, match="maximal"):
        complexity(LanguageQuery(PeriodicStream("", "011"), 6))
