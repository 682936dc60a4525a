import random
from fractions import Fraction

import pytest

from kneading.encoding import binary_digits, xi
from kneading.feigenbaum import (
    _DECIMAL_CHUNK_BITS,
    _decimal_str,
    PAIR_RULE,
    DyadicEnclosure,
    TauLevel,
    renormalize_tau,
    tau_infinity_digits,
    tau_infinity_enclosure,
    tau_level,
)
from kneading.symbolic import PeriodicStream, feigenbaum_limit
from oracles import (
    intersect,
    tau_difference,
    tau_from_kneading,
    tau_infinity_digit,
    tau_infinity_enclosure_via,
    tau_level_via,
    thue_morse_check,
)

# Frozen exact values of the hierarchy, levels 1..7.
TAU_TABLE = {
    1: (2, 3),
    2: (4, 5),
    3: (14, 17),
    4: (212, 257),
    5: (54062, 65537),
    6: (3542953172, 4294967297),
    7: (15216868001456509742, 18446744073709551617),
}

DIGIT_WORDS = {
    1: "10",
    2: "1100",
    3: "11010010",
    4: "1101001100101100",
    5: "11010011001011010010110011010010",
}

METHODS = ["digit-rule", "pair-substitution", "pq-recursion", "closed-form"]


@pytest.mark.parametrize("j", sorted(TAU_TABLE))
@pytest.mark.parametrize("method", METHODS)
def test_tau_table(j, method):
    lvl = tau_level_via(j, method)
    assert (lvl.p, lvl.q) == TAU_TABLE[j]
    assert Fraction(lvl.p, lvl.q) == lvl.value


@pytest.mark.parametrize("j,word", sorted(DIGIT_WORDS.items()))
def test_digit_words(j, word):
    for method in METHODS:
        assert tau_level_via(j, method).period_digits == word


def test_methods_agree_deep():
    for j in range(1, 13):
        levels = [tau_level_via(j, m) for m in METHODS]
        assert all(l == levels[0] for l in levels[1:])


def test_digit_rule_matches_closed_form_and_recursion():
    # digit-rule takes p/q from the closed form; pq-recursion derives it
    # independently, and both derive the word's value from p/q
    for j in range(1, 15):
        lvl = tau_level(j)
        assert lvl == tau_level_via(j, "closed-form") == tau_level_via(j, "pq-recursion")


def test_tau_matches_kneading_encoding():
    for j in range(1, 11):
        assert tau_from_kneading(j) == tau_level(j).value
        assert xi(PeriodicStream("", "1")).period == "10"  # anchor


def test_digit_word_length_and_parity():
    for j in range(1, 13):
        w = tau_level(j).period_digits
        assert len(w) == 2 ** j
        # digits are the binary expansion: value check
        assert Fraction(int(w, 2), 2 ** len(w) - 1) == tau_level(j).value


def test_fermat_denominators():
    for j in range(1, 13):
        q = tau_level_via(j, "closed-form").q
        assert q == 2 ** (2 ** (j - 1)) + 1
    for j in range(1, 13):
        q1 = tau_level_via(j, "pq-recursion").q
        q2 = tau_level_via(j + 1, "pq-recursion").q
        assert q2 - 1 == (q1 - 1) ** 2


def test_tau_difference():
    for j in range(1, 9):
        gap = tau_difference(j)
        assert gap > 0
        assert gap == tau_level(j + 1).value - tau_level(j).value
    assert tau_difference(1) == Fraction(4, 5) - Fraction(2, 3)


def test_monotone_increasing():
    vals = [tau_level(j).value for j in range(1, 13)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_tau_infinity_digit_first_bytes():
    first32 = "".join(str(tau_infinity_digit(k)) for k in range(1, 33))
    assert first32 == "11010011" "00101101" "00101100" "11010011"


def test_tau_infinity_digit_invariance():
    # decimating by powers of two leaves the digit stream fixed
    for k in range(1, 200):
        assert tau_infinity_digit(k) == tau_infinity_digit(2 * k)
        assert tau_infinity_digit(k) == tau_infinity_digit(4 * k)


def test_tau_infinity_digits_match_digit_oracle():
    prefix = tau_infinity_digits().prefix(5000)
    assert prefix == "".join(str(tau_infinity_digit(k)) for k in range(1, 5001))


def test_tau_infinity_prefix_matches_levels():
    # the first 2^j digits agree with tau_j's period word
    stream = tau_infinity_digits()
    for j in range(1, 9):
        lvl = tau_level(j)
        assert stream.prefix(2 ** j - 1) == lvl.period_digits[:-1]
        # the last digit of the level word is where they differ
        assert stream.at(2 ** j) != int(lvl.period_digits[-1])


def test_enclosure_validation():
    # a numerator and an exponent cannot hold a non-dyadic, empty or too
    # wide interval; what is left to refuse is bits < 1 and a numerator
    # outside 0..2^bits - 1
    for n, bits in ((0, 0), (0, -1), (-1, 4), (16, 4), (1 << 64, 64)):
        with pytest.raises(ValueError):
            DyadicEnclosure(n, bits)
    e = DyadicEnclosure(15, 4)
    assert (e.lo, e.hi, e.width) == (Fraction(15, 16), 1, Fraction(1, 16))
    assert DyadicEnclosure(0, 1).to_json() == {"lo": "0/2^0", "hi": "1/2^1", "bits": 1}


def _fraction_to_json(lo: Fraction, hi: Fraction, bits: int) -> dict:
    """to_json of the enclosure as it was held before, a pair of Fractions:
    the reference for the integer form."""
    def dyadic(x: Fraction) -> str:
        return f"{_decimal_str(x.numerator)}/2^{x.denominator.bit_length() - 1}"

    return {"lo": dyadic(lo), "hi": dyadic(hi), "bits": bits}


def test_enclosure_to_json_matches_fraction_form():
    digits = tau_infinity_digits()
    for bits in [*range(1, 3001), 14300, 16384, 65536]:
        lo = Fraction(int(digits.prefix(bits), 2), 2 ** bits)
        assert tau_infinity_enclosure(bits).to_json() == _fraction_to_json(
            lo, lo + Fraction(1, 2 ** bits), bits), bits
    # both ends of the range and every run of trailing zeros
    for bits in range(1, 70):
        for n in {0, 1, (1 << bits) - 1, *(1 << k for k in range(bits)),
                  *((1 << bits) - (1 << k) for k in range(bits))}:
            e = DyadicEnclosure(n, bits)
            assert e.to_json() == _fraction_to_json(e.lo, e.hi, bits), (n, bits)


def test_enclosure_digit_sum():
    e = tau_infinity_enclosure_via(8, "digit-sum")
    assert e.lo == Fraction(211, 256)
    assert e.hi == Fraction(212, 256)
    assert e.width <= Fraction(1, 2 ** 8)


def test_enclosure_product_formula():
    e = tau_infinity_enclosure_via(8, "product-formula")
    assert e.width <= Fraction(1, 2 ** 8)
    d = tau_infinity_enclosure_via(8, "digit-sum")
    inter = intersect(e, d)
    assert inter.lo <= inter.hi


def test_enclosures_agree_tightly():
    a = tau_infinity_enclosure_via(102, "digit-sum")
    b = tau_infinity_enclosure_via(102, "product-formula")
    inter = intersect(a, b)
    assert inter.width <= Fraction(1, 2 ** 100)


def test_enclosure_sits_above_levels():
    e = tau_infinity_enclosure(130)
    for j in range(1, 13):
        assert tau_level(j).value < e.hi
    for j in range(1, 8):  # 2^j < 130
        assert e.lo > tau_level(j).value


def test_renormalize_tau_periodic():
    for j in range(1, 10):
        t = PeriodicStream("", tau_level(j + 1).period_digits)
        assert renormalize_tau(t) == PeriodicStream("", tau_level(j).period_digits)


def test_renormalize_tau_fixed_point():
    t = tau_infinity_digits()
    r = renormalize_tau(t)
    assert r.prefix(4096) == t.prefix(4096)


def test_renormalize_tau_preperiod():
    t = PeriodicStream("110", "10")
    out = renormalize_tau(t)
    assert out.prefix(10) == t.prefix(20)[1::2]


def test_pair_rule_fixed_point_matches_digits():
    from kneading.feigenbaum import PAIR_TO_DIGITS

    w = "c"
    for _ in range(7):
        w = PAIR_RULE.apply(w)
    level = tau_level(8).period_digits
    expanded = "".join(PAIR_TO_DIGITS[c] for c in w)
    assert expanded == level
    # level word and limit digits agree except at the very last digit
    digits = "".join(str(tau_infinity_digit(k)) for k in range(1, 2 ** 8 + 1))
    assert digits[:-1] == level[:-1]
    assert digits[-1] != level[-1]


def test_thue_morse_check():
    assert thue_morse_check(16)
    assert thue_morse_check(2 ** 12)


def test_digits_equal_binary_expansion_of_any_enclosed_value():
    # digit stream prefix agrees with the expansion of the enclosure lo
    e = tau_infinity_enclosure_via(64, "digit-sum")
    bits = bin(e.lo.numerator)[2:].zfill(64)
    assert bits == tau_infinity_digits().prefix(64)


def test_decimal_str_matches_str(lift_str_limit):
    rng = random.Random(7)
    c = _DECIMAL_CHUNK_BITS
    sizes = [0, 1, 2, 64, c - 1, c, c + 1, 2 * c - 1, 2 * c, 2 * c + 1,
             3 * c + 5, 4 * c, 4 * c + 1, 7 * c - 3, 1 << 16]
    cases = [0, 1, -1, 10 ** 4299, -(10 ** 4299), 2 ** (4 * c), 2 ** (4 * c) - 1]
    for bits in sizes:
        for _ in range(3):
            x = rng.getrandbits(bits) | (1 << bits) >> 1
            cases += [x, -x]
    got = [_decimal_str(x) for x in cases]
    lift_str_limit()
    assert got == [str(x) for x in cases]
