"""Incidence matrices, exact eigenvectors, empirical block statistics."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kneading.encoding import xi
from kneading.feigenbaum import PAIR_RULE, tau_infinity_digits
from kneading.frequency import (
    _DIRECT_LEN,
    IncidenceMatrix,
    _fixed_point_counts,
    empirical_frequencies,
    incidence,
    letter_frequencies,
    pair_frequencies,
    perron_frobenius,
)
from kneading.symbolic import (
    FixedPointStream,
    PeriodicStream,
    SymbolStream,
    feigenbaum_limit,
)
from kneading.words import FEIGENBAUM_RULE, THUE_MORSE_RULE, SubstitutionRule
from oracles import (
    characteristic_polynomial,
    column_sums,
    fraction_characteristic_polynomial,
    integer_eigenvalues,
    matrix_power,
    perron_frobenius_via_eigenvalues,
)

TOL = Fraction(1, 2 ** 8)


def test_incidence_feigenbaum():
    M = incidence(FEIGENBAUM_RULE)
    assert M.alphabet == ("0", "1")
    assert M.entries == ((0, 1), (2, 1))
    assert column_sums(M) == (2, 2)


def test_incidence_thue_morse():
    assert incidence(THUE_MORSE_RULE).entries == ((1, 1), (1, 1))


def test_incidence_pair_rule():
    M = incidence(PAIR_RULE)
    assert M.alphabet == ("a", "b", "c", "d")
    assert M.entries == ((1, 1, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 1, 1))
    assert column_sums(M) == (2, 2, 2, 2)


@pytest.mark.parametrize("rule", [FEIGENBAUM_RULE, THUE_MORSE_RULE, PAIR_RULE])
def test_matrix_power_counts_expanded_words(rule):
    M = incidence(rule)
    for n in range(11):
        P = matrix_power(M, n)
        for j, b in enumerate(M.alphabet):
            w = b
            for _ in range(n):
                w = rule.apply(w)
            assert sum(P.entries[i][j] for i in range(M.dim)) == len(w)
            for i, a in enumerate(M.alphabet):
                assert P.entries[i][j] == w.count(a)


def test_characteristic_polynomials():
    assert characteristic_polynomial(incidence(FEIGENBAUM_RULE)) == (1, -1, -2)
    assert characteristic_polynomial(incidence(THUE_MORSE_RULE)) == (1, -2, 0)
    assert characteristic_polynomial(incidence(PAIR_RULE)) == (1, -2, -1, 2, 0)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(lambda n: st.lists(
    st.lists(st.integers(min_value=0, max_value=9), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_characteristic_polynomial_matches_fraction_loop(rows):
    M = IncidenceMatrix(tuple("abcdef"[:len(rows)]), tuple(map(tuple, rows)))
    assert characteristic_polynomial(M) == fraction_characteristic_polynomial(M)


def test_integer_eigenvalues():
    assert integer_eigenvalues(incidence(FEIGENBAUM_RULE)) == [-1, 2]
    assert integer_eigenvalues(incidence(THUE_MORSE_RULE)) == [0, 2]
    assert integer_eigenvalues(incidence(PAIR_RULE)) == [-1, 0, 1, 2]


def test_perron_frobenius_exact():
    third = Fraction(1, 3)
    sixth = Fraction(1, 6)
    cases = [
        (FEIGENBAUM_RULE, 2, (third, 2 * third)),
        (THUE_MORSE_RULE, 2, (Fraction(1, 2), Fraction(1, 2))),
        (PAIR_RULE, 2, (third, sixth, sixth, third)),
    ]
    for rule, lam_expect, v_expect in cases:
        M = incidence(rule)
        lam, v = perron_frobenius(M)
        assert (lam, v) == (lam_expect, v_expect)
        for i in range(M.dim):
            assert sum(M.entries[i][j] * v[j] for j in range(M.dim)) == lam * v[i]


def _outcome(f, M):
    try:
        return f(M)
    except (ValueError, ArithmeticError) as e:
        return type(e), str(e)


@settings(max_examples=500, deadline=None)
@example([])  # the empty rule: no column sums, and the search's error
@given(st.integers(min_value=1, max_value=4).flatmap(lambda n: st.lists(
    st.text(alphabet="abcd"[:n], min_size=1, max_size=5), min_size=n, max_size=n)))
def test_perron_frobenius_matches_integer_eigenvalue_search(images):
    # the column-sum bracket finds the pair, or raises the error, that the
    # search over every integer root of the characteristic polynomial did
    M = incidence(dict(zip("abcd", images)))
    assert _outcome(perron_frobenius, M) == _outcome(perron_frobenius_via_eigenvalues, M)


def test_letter_frequencies():
    assert letter_frequencies(FEIGENBAUM_RULE) == {
        "0": Fraction(1, 3),
        "1": Fraction(2, 3),
    }
    assert letter_frequencies(THUE_MORSE_RULE) == {
        "0": Fraction(1, 2),
        "1": Fraction(1, 2),
    }


def test_non_primitive_rejected():
    with pytest.raises(ValueError, match="primitive"):
        letter_frequencies({"0": "0", "1": "1"})
    with pytest.raises(ValueError, match="primitive"):
        letter_frequencies({"0": "01", "1": "1"})


def test_pair_frequencies():
    assert pair_frequencies() == {
        "00": Fraction(1, 3),
        "01": Fraction(1, 6),
        "10": Fraction(1, 6),
        "11": Fraction(1, 3),
    }


def test_empirical_on_periodic_stream():
    s = PeriodicStream("", "10")
    assert empirical_frequencies(s, 1, 1000) == {
        "0": Fraction(1, 2),
        "1": Fraction(1, 2),
    }
    assert empirical_frequencies(s, 2, 10) == {
        "01": Fraction(4, 9),
        "10": Fraction(5, 9),
    }
    assert empirical_frequencies(s, 2, 10, aligned=True) == {"10": Fraction(1)}
    with pytest.raises(ValueError):
        empirical_frequencies(s, 0, 10)
    with pytest.raises(ValueError):
        empirical_frequencies(s, 4, 3)


def test_empirical_letters_match_eigenvector():
    f = empirical_frequencies(feigenbaum_limit(), 1, 2 ** 20)
    assert abs(f["0"] - Fraction(1, 3)) <= TOL
    assert abs(f["1"] - Fraction(2, 3)) <= TOL


def test_empirical_pairs_aligned_and_sliding():
    digits = xi(feigenbaum_limit())
    predicted = pair_frequencies()
    aligned = empirical_frequencies(digits, 2, 2 ** 20, aligned=True)
    for b, p in predicted.items():
        assert abs(aligned[b] - p) <= TOL
    # overlapping windows see the complementary profile
    sliding = empirical_frequencies(digits, 2, 2 ** 20)
    swapped = {"00": Fraction(1, 6), "01": Fraction(1, 3),
               "10": Fraction(1, 3), "11": Fraction(1, 6)}
    for b, p in swapped.items():
        assert abs(sliding[b] - p) <= TOL


def test_letter_convergence():
    text = feigenbaum_limit().prefix(2 ** 20)
    devs = []
    for k in range(10, 21):
        n = 2 ** k
        c0 = text[:n].count("0")
        devs.append(max(abs(Fraction(c0, n) - Fraction(1, 3)),
                        abs(Fraction(n - c0, n) - Fraction(2, 3))))
    assert all(b <= 2 * a for a, b in zip(devs, devs[1:]))
    assert devs[-1] <= devs[0]
    # power-of-two prefixes are exact substitution words, so the error
    # is pinned at 1/(3n)
    assert devs[0] == Fraction(1, 3 * 2 ** 10)
    assert devs[-1] == Fraction(1, 3 * 2 ** 20)


def _pair_deviations(N):
    """The aligned digit-pair frequencies of tau_infinity's first N digits,
    as ``freq --stream tau-inf --block 2 --aligned`` prints them beside
    ``pair_frequencies()``, with their largest deviations from uniform and
    from that prediction."""
    observed = empirical_frequencies(tau_infinity_digits(), 2, N, aligned=True)
    predicted = pair_frequencies()
    blocks = set(observed) | set(predicted)
    zero = Fraction(0)
    dev_uniform = max(abs(observed.get(b, zero) - Fraction(1, 4)) for b in blocks)
    dev_predicted = max(abs(observed.get(b, zero) - predicted.get(b, zero)) for b in blocks)
    return observed, dev_uniform, dev_predicted


def test_normality_report_large():
    _, dev_uniform, dev_predicted = _pair_deviations(2 ** 20)
    assert dev_uniform >= Fraction(1, 15)
    assert dev_predicted <= TOL
    assert dev_predicted < dev_uniform


def test_normality_report_medium():
    _, dev_uniform, dev_predicted = _pair_deviations(2 ** 10)
    assert dev_uniform > dev_predicted


def test_normality_report_tiny_sample():
    observed, _, _ = _pair_deviations(4)
    assert sum(observed.values()) == 1


def test_incidence_matrix_validation():
    with pytest.raises(ValueError):
        IncidenceMatrix(("0", "1"), ((1, 2),))
    with pytest.raises(ValueError):
        IncidenceMatrix(("0", "1"), ((1, -1), (0, 1)))
    with pytest.raises(ValueError):
        IncidenceMatrix(("0",), ((1, 1),))


class _WordStream(SymbolStream):
    """A finite word over any alphabet, read as a stream prefix."""

    def __init__(self, word):
        self.word = word

    def prefix(self, n):
        assert n <= len(self.word)
        return self.word[:n]


def _window_frequencies(text, b, aligned):
    """Reference: one slice per window position."""
    step = b if aligned else 1
    counts = Counter(text[i:i + b] for i in range(0, len(text) - b + 1, step))
    total = sum(counts.values())
    return {w: Fraction(c, total) for w, c in sorted(counts.items())}


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(["01", "abcd", "\u03b1\u03b2", "0"]),
       st.integers(min_value=1, max_value=10), st.booleans())
def test_lane_counts_match_window_loop(data, alphabet, b, aligned):
    # binary and four-letter words take the lane path while A^b <= 256 and
    # the per-position loop above it; non-ASCII symbols always loop
    word = data.draw(st.text(alphabet=alphabet, min_size=b, max_size=300))
    got = empirical_frequencies(_WordStream(word), b, len(word), aligned)
    assert got == _window_frequencies(word, b, aligned)


@pytest.mark.parametrize("b", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("aligned", [False, True])
def test_lane_counts_on_pair_rule_stream(b, aligned):
    # four letters: lanes up to b = 4 (4^4 = 256 codes), the loop at b = 5
    stream = FixedPointStream(PAIR_RULE, "a")
    for N in (b, 1000, 4099):
        got = empirical_frequencies(stream, b, N, aligned)
        assert got == _window_frequencies(stream.prefix(N), b, aligned)


# the streams of `kneading freq`
_CLI_STREAMS = {
    "feigenbaum": feigenbaum_limit,
    "thue-morse": lambda: FixedPointStream(THUE_MORSE_RULE, "0"),
    "tau-inf": tau_infinity_digits,
}


@st.composite
def _uniform_fixed_points(draw):
    # 2 to 4 letters, every image of length k in {2, 3}, "a" starting its own;
    # half the time each letter is written as a word of one length 1..3
    letters = "abcd"[:draw(st.integers(2, 4))]
    k = draw(st.sampled_from([2, 3]))
    images = {a: draw(st.text(alphabet=letters, min_size=k, max_size=k)) for a in letters}
    images["a"] = "a" + images["a"][1:]
    coding = None
    if draw(st.booleans()):
        L = draw(st.integers(1, 3))
        coding = {a: draw(st.text(alphabet="01x", min_size=L, max_size=L)) for a in letters}
    return FixedPointStream(SubstitutionRule(images), "a", coding)


@settings(max_examples=80, deadline=None)
@example(tau_infinity_digits(), 64, 200_000, True)
@example(feigenbaum_limit(), 3, 200_000, True)
@given(st.one_of(st.sampled_from(sorted(_CLI_STREAMS)).map(lambda name: _CLI_STREAMS[name]()),
                 _uniform_fixed_points()),
       st.integers(min_value=1, max_value=64),
       st.integers(min_value=_DIRECT_LEN, max_value=200_000), st.booleans())
def test_recursive_counts_match_window_loop(stream, b, N, aligned):
    counts = _fixed_point_counts(stream, b, N, b if aligned else 1)
    total = sum(counts.values())
    got = {w: Fraction(c, total) for w, c in sorted(counts.items())}
    assert got == _window_frequencies(stream.prefix(N), b, aligned)


@pytest.mark.parametrize("name, b, aligned", [
    ("feigenbaum", 64, False), ("thue-morse", 5, True), ("tau-inf", 3, False)])
def test_recursive_counts_at_2_20(name, b, aligned):
    got = empirical_frequencies(_CLI_STREAMS[name](), b, 2 ** 20, aligned)
    assert got == _window_frequencies(_CLI_STREAMS[name]().prefix(2 ** 20), b, aligned)


def test_only_uniform_growing_rules_recurse():
    # images of length 1 take the prefix path, which refuses them
    still = FixedPointStream(SubstitutionRule({"0": "0", "1": "1"}), "0")
    assert _fixed_point_counts(still, 1, 2 ** 20, 1) is None
    with pytest.raises(ValueError, match="substitution iteration does not grow"):
        empirical_frequencies(still, 1, 2 ** 20)
    # images of two lengths, and short prefixes, are tallied from the prefix
    fibonacci = FixedPointStream(SubstitutionRule({"0": "01", "1": "0"}), "0")
    assert _fixed_point_counts(fibonacci, 3, 2 ** 14, 1) is None
    assert empirical_frequencies(fibonacci, 3, 2 ** 14) == _window_frequencies(
        fibonacci.prefix(2 ** 14), 3, False)
    assert _fixed_point_counts(feigenbaum_limit(), 3, _DIRECT_LEN - 1, 1) is None
