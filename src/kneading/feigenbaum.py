"""Exact arithmetic of the period-doubling tau hierarchy.

Everything here is integer/rational; no floating point enters this
module.  tau_j is the encoded value of the j-th cascade kneading
sequence; tau_infinity is its limit at the accumulation point.
"""

from __future__ import annotations

from fractions import Fraction

from kneading.encoding import xi, tau_of_periodic
from kneading.symbolic import (
    THUE_MORSE_RULE,
    FixedPointStream,
    SubstitutionRule,
    SymbolStream,
    _Record,
    _every_second,
    complement,
    feigenbaum_limit,
    feigenbaum_stream,
    parity_word,
)

# Pair coding of digit streams: two digits at a time, a=00 b=01 c=10 d=11.
PAIR_RULE = SubstitutionRule({"a": "ac", "b": "ad", "c": "da", "d": "db"})
PAIR_TO_DIGITS = {"a": "00", "b": "01", "c": "10", "d": "11"}


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


# Integers up to this many bits go through str(), which is quadratic but
# fast at this size and far below the 4300-digit conversion limit.
_DECIMAL_CHUNK_BITS = 8192


def _decimal_str(n: int) -> str:
    """Decimal digits of an integer of any size.

    str() on an int is quadratic and refuses more than 4300 digits.  Here
    n is split in halves at bit positions chunk * 2^i, the halves are
    converted recursively, and decimal (libmpdec, whose multiplication is
    subquadratic) rebuilds n = hi * 2^w + lo exactly; 2^19 bits take tens
    of milliseconds against hundreds for str().
    """
    if n < 0:
        return "-" + _decimal_str(-n)
    chunk = _DECIMAL_CHUNK_BITS
    if n.bit_length() <= chunk:
        return str(n)
    import decimal  # only big integers pay for the import

    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                          Emin=decimal.MIN_EMIN, traps=[decimal.Inexact])
    # powers[i] = 2^(chunk * 2^i), up to the top split of n
    powers = [ctx.power(decimal.Decimal(2), chunk)]
    while chunk << len(powers) < n.bit_length():
        powers.append(ctx.multiply(powers[-1], powers[-1]))

    def convert(x: int, i: int):
        # x < 2^(chunk * 2^(i+1))
        if i < 0:
            return decimal.Decimal(x)
        w = chunk << i
        hi = x >> w
        if not hi:
            return convert(x, i - 1)
        return ctx.add(ctx.multiply(convert(hi, i - 1), powers[i]),
                       convert(x - (hi << w), i - 1))

    return str(convert(n, len(powers) - 1))


class DyadicEnclosure(_Record):
    """Interval [lo, hi] with dyadic endpoints and certified width."""

    lo: Fraction
    hi: Fraction
    bits: int

    def __post_init__(self):
        if not (_is_power_of_two(self.lo.denominator)
                and _is_power_of_two(self.hi.denominator)):
            raise ValueError("endpoints must be dyadic rationals")
        if not self.lo <= self.hi:
            raise ValueError("empty enclosure")
        if self.hi - self.lo > Fraction(1, 2 ** self.bits):
            raise ValueError("enclosure wider than advertised")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __contains__(self, x) -> bool:
        return self.lo <= x <= self.hi

    def intersect(self, other: "DyadicEnclosure") -> "DyadicEnclosure":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo > hi:
            raise ValueError("disjoint enclosures")
        return DyadicEnclosure(lo, hi, max(self.bits, other.bits))

    def to_json(self) -> dict:
        def dyadic(x: Fraction) -> str:
            return f"{_decimal_str(x.numerator)}/2^{x.denominator.bit_length() - 1}"

        return {"lo": dyadic(self.lo), "hi": dyadic(self.hi), "bits": self.bits}


class TauLevel(_Record):
    """Level j of the tau hierarchy: exact value p/q and its digit period."""

    j: int
    p: int
    q: int
    period_digits: str

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, self.q)

    def to_json(self) -> dict:
        return {"j": self.j, "p": self.p, "q": self.q, "digits": self.period_digits}


_TAU_METHODS = ("digit-rule", "pair-substitution", "pq-recursion", "closed-form")


def _digits_from_value(p: int, q: int, n: int) -> str:
    """Digit period of length n for p/q, where q divides 2^n - 1."""
    full = 2 ** n - 1
    if full % q:
        raise ValueError(f"{q} does not divide 2^{n}-1")
    return format(p * (full // q), f"0{n}b")


def _level_from_word(j: int, word: str) -> TauLevel:
    v = Fraction(int(word, 2), 2 ** len(word) - 1)
    return TauLevel(j, v.numerator, v.denominator, word)


def _closed_form_pq(j: int) -> tuple[int, int]:
    """p and q of tau_j in lowest terms, with no gcd and no division.

    q = 2^(2^(j-1)) + 1 and p = q - P with P = prod_{k<j-1} (2^(2^k) - 1).
    Each factor is a shift and a subtraction: P (2^m - 1) = (P << m) - P.

    Lowest terms: 2^(2^k) - 1 divides 2^(2^(j-1)) - 1 = q - 2 for every
    k < j - 1, since 2^k divides 2^(j-1).  So a common divisor of P and q
    divides q - 2 and q, hence 2; q is odd, so gcd(P, q) = 1 and with it
    gcd(p, q) = gcd(q - P, q) = 1.
    """
    prod = 1
    for k in range(j - 1):
        prod = (prod << (1 << k)) - prod
    q = (1 << (1 << (j - 1))) + 1
    return q - prod, q


def tau_level(j: int, method: str = "digit-rule") -> TauLevel:
    """tau_j by any of four equivalent constructions.

    digit-rule: rewrite the digit period w -> w' of doubled length; p/q
    from the closed form (the word is 2^j digits long, and reducing
    w / (2^(2^j) - 1) would cost a gcd of 2^j-bit integers).
    pair-substitution: expand the pair coding under PAIR_RULE and reduce
    the word's value.
    pq-recursion: p' = 2 + p(q-2), q' = 2 + q(q-2) from (2, 3).
    closed-form: q = 2^(2^(j-1)) + 1 and a product formula for p.
    """
    if j < 1:
        raise ValueError("level must be >= 1")
    if method not in _TAU_METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "digit-rule":
        w = "10"
        for _ in range(j - 1):
            w = w[:-1] + complement(w[-1]) + complement(w[:-1]) + w[-1]
        return TauLevel(j, *_closed_form_pq(j), w)
    if method == "pair-substitution":
        w = "c"
        for _ in range(j - 1):
            w = PAIR_RULE.apply(w)
        return _level_from_word(j, "".join(PAIR_TO_DIGITS[c] for c in w))
    if method == "pq-recursion":
        p, q = 2, 3
        for _ in range(j - 1):
            p, q = 2 + p * (q - 2), 2 + q * (q - 2)
        return TauLevel(j, p, q, _digits_from_value(p, q, 2 ** j))
    # closed-form
    p, q = _closed_form_pq(j)
    return TauLevel(j, p, q, _digits_from_value(p, q, 2 ** j))


def tau_difference(j: int) -> Fraction:
    """Exact gap tau_{j+1} - tau_j, cross-checked against the closed form
    2 (1 - tau_j) / (2^(2^j) + 1)."""
    a = tau_level(j, "closed-form").value
    b = tau_level(j + 1, "closed-form").value
    gap = b - a
    if gap != 2 * (1 - a) / (2 ** (2 ** j) + 1):
        raise ArithmeticError(f"gap formula mismatch at level {j}")
    return gap


def tau_infinity_digit(k: int) -> int:
    """k-th digit of tau_infinity: write k = p 2^l with p odd; the digit
    is the bit-sum parity of p."""
    if k < 1:
        raise IndexError("digit indices are 1-based")
    p = k >> ((k & -k).bit_length() - 1)
    return p.bit_count() % 2


def tau_infinity_digits() -> SymbolStream:
    """The digit stream of tau_infinity (memoized): the running parities of
    the limit kneading sequence, built by substitution and one parity pass
    instead of one tau_infinity_digit call per index."""
    return xi(feigenbaum_limit())


def tau_infinity_enclosure(bits: int, method: str = "digit-sum") -> DyadicEnclosure:
    """Two-sided dyadic enclosure of tau_infinity of width <= 2^-bits.

    digit-sum: partial sum of the digits, plus a one-ulp tail.
    product-formula: partial product of 1 - 1/2 prod (1 - 2^-2^k), with a
    rigorous bound on the discarded factors.
    """
    if bits < 1:
        raise ValueError("bits must be >= 1")
    if method == "digit-sum":
        n = bits
        lo = Fraction(int(tau_infinity_digits().prefix(n), 2), 2 ** n)
        return DyadicEnclosure(lo, lo + Fraction(1, 2 ** n), bits)
    if method == "product-formula":
        # Partial product P_K over k <= K; the tail factor lies in
        # [1 - 2^(1 - 2^(K+1)), 1], so the value 1 - P/2 lies in
        # [1 - P_K/2, 1 - P_K/2 + P_K 2^-2^(K+1)].
        K = 0
        while 2 ** (K + 1) < bits + 1:
            K += 1
        prod = Fraction(1)
        for k in range(K + 1):
            prod *= 1 - Fraction(1, 2 ** (2 ** k))
        lo = 1 - prod / 2
        hi = lo + prod * Fraction(1, 2 ** (2 ** (K + 1)))
        return DyadicEnclosure(lo, hi, bits)
    raise ValueError(f"unknown method {method!r}")


def renormalize_tau(t: SymbolStream) -> SymbolStream:
    """Digit renormalization: keep every second digit (t_2 t_4 t_6 ...)."""
    return _every_second(t, flip=False)


def thue_morse_check(n: int) -> bool:
    """Prepending 0 to the cascade limit and encoding it digit-wise gives
    the fixed point of 0 -> 01, 1 -> 10; verify the first n symbols."""
    u = feigenbaum_limit().prefix(max(n - 1, 0))
    tm = FixedPointStream(THUE_MORSE_RULE, "0").prefix(n)
    return parity_word("0" + u)[:n] == tm


def tau_from_kneading(j: int) -> Fraction:
    """tau_j obtained independently from the kneading word via xi."""
    return tau_of_periodic(xi(feigenbaum_stream(j)))
