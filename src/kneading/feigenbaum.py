"""Exact arithmetic of the period-doubling tau hierarchy.

Everything here is integer/rational; no floating point enters this
module.  tau_j is the encoded value of the j-th cascade kneading
sequence; tau_infinity is its limit at the accumulation point.
"""

from __future__ import annotations

from fractions import Fraction

from kneading.encoding import xi
from kneading.symbolic import (
    SubstitutionRule,
    SymbolStream,
    _Record,
    _every_second,
    feigenbaum_limit,
    feigenbaum_word,
    parity_word,
)

# Pair coding of digit streams: two digits at a time, a=00 b=01 c=10 d=11.
PAIR_RULE = SubstitutionRule({"a": "ac", "b": "ad", "c": "da", "d": "db"})
PAIR_TO_DIGITS = {"a": "00", "b": "01", "c": "10", "d": "11"}


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
    """Interval [n / 2^bits, (n + 1) / 2^bits] of the integer n = numerator:
    dyadic, nonempty and of width 2^-bits by construction.  lo, hi and width
    build their Fraction when read."""

    numerator: int
    bits: int

    def __post_init__(self):
        if self.bits < 1 or not 0 <= self.numerator < 1 << self.bits:
            raise ValueError("need bits >= 1 and 0 <= numerator < 2^bits")

    @property
    def lo(self) -> Fraction:
        return Fraction(self.numerator, 1 << self.bits)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.numerator + 1, 1 << self.bits)

    @property
    def width(self) -> Fraction:
        return Fraction(1, 1 << self.bits)

    def to_json(self) -> dict:
        def dyadic(m: int) -> str:
            # m / 2^bits in lowest terms: strip m's trailing zero bits, O(bits)
            t = (m & -m).bit_length() - 1 if m else self.bits
            return f"{_decimal_str(m >> t)}/2^{self.bits - t}"

        return {"lo": dyadic(self.numerator), "hi": dyadic(self.numerator + 1),
                "bits": self.bits}


class TauLevel(_Record):
    """Level j of the tau hierarchy: exact value p/q and its digit period."""

    j: int
    p: int
    q: int
    period_digits: str

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, self.q)


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


def tau_level(j: int) -> TauLevel:
    """tau_j: the digit period is the running parities of the level-j word
    over two periods (the word has odd weight); p/q from the closed form, as
    reducing w / (2^(2^j) - 1) would cost a gcd of 2^j-bit integers."""
    w = feigenbaum_word(j)
    return TauLevel(j, *_closed_form_pq(j), parity_word(w + w))


def tau_infinity_digits() -> SymbolStream:
    """The digit stream of tau_infinity (memoized): the running parities of
    the limit kneading sequence, built by substitution and one parity pass."""
    return xi(feigenbaum_limit())


def tau_infinity_enclosure(bits: int) -> DyadicEnclosure:
    """Two-sided dyadic enclosure of tau_infinity of width 2^-bits: the
    partial sum of the digits, plus a one-ulp tail."""
    if bits < 1:
        raise ValueError("bits must be >= 1")
    return DyadicEnclosure(int(tau_infinity_digits().prefix(bits), 2), bits)


def renormalize_tau(t: SymbolStream) -> SymbolStream:
    """Digit renormalization: keep every second digit (t_2 t_4 t_6 ...)."""
    return _every_second(t, flip=False)

