"""Exact arithmetic of the period-doubling tau hierarchy.

Everything here is integer/rational; no floating point enters this
module.  tau_j is the encoded value of the j-th cascade kneading
sequence; tau_infinity is its limit at the accumulation point.
"""

from __future__ import annotations

from kneading._base import _Record
from kneading.words import SubstitutionRule

# Pair coding of digit streams: two digits at a time, a=00 b=01 c=10 d=11.
PAIR_RULE = SubstitutionRule({"a": "ac", "b": "ad", "c": "da", "d": "db"})
PAIR_TO_DIGITS = {"a": "00", "b": "01", "c": "10", "d": "11"}


# Integers up to this many bits go through str(), which is quadratic but
# fast at this size and far below the 4300-digit conversion limit.
_DECIMAL_CHUNK_BITS = 8192


def _exact_context():
    """A decimal context in which integer arithmetic is exact (any rounding
    raises); libmpdec's multiplication is subquadratic, CPython's int to
    str conversion is not."""
    import decimal  # only big integers pay for the import

    return decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                           Emin=decimal.MIN_EMIN, traps=[decimal.Inexact])


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
    ctx = _exact_context()
    # powers[i] = 2^(chunk * 2^i), up to the top split of n
    powers = [ctx.power(ctx.create_decimal(2), chunk)]
    while chunk << len(powers) < n.bit_length():
        powers.append(ctx.multiply(powers[-1], powers[-1]))

    def convert(x: int, i: int):
        # x < 2^(chunk * 2^(i+1))
        if i < 0:
            return ctx.create_decimal(x)
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
        from fractions import Fraction
        return Fraction(self.numerator, 1 << self.bits)

    @property
    def hi(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self.numerator + 1, 1 << self.bits)

    @property
    def width(self) -> Fraction:
        from fractions import Fraction
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
        from fractions import Fraction
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


def _decimal_pq(j: int) -> tuple[str, str]:
    """Decimal digits of p and q of tau_j, the closed form of _closed_form_pq.

    Past _DECIMAL_CHUNK_BITS the product is evaluated in exact decimal
    arithmetic: from f = 2 and P = 1, j - 1 steps of P <- P (f - 1) and
    f <- f^2 leave f = 2^(2^(j-1)), so q = f + 1 and p = q - P.  The
    operands double in size at each step, so the whole costs a constant
    times the last multiplication, O(M(n)) for n = 2^(j-1) bits, where
    _decimal_str of the two finished integers costs O(M(n) log n).  The
    int closed form keeps its shifts, which no multiplication beats.
    """
    if 1 << (j - 1) < _DECIMAL_CHUNK_BITS:
        p, q = _closed_form_pq(j)
        return str(p), str(q)
    ctx = _exact_context()
    one = ctx.create_decimal(1)
    f, prod = ctx.create_decimal(2), one
    for _ in range(j - 1):
        prod = ctx.multiply(prod, ctx.subtract(f, one))
        f = ctx.multiply(f, f)
    q = ctx.add(f, one)
    return str(ctx.subtract(q, prod)), str(q)


def tau_level(j: int) -> TauLevel:
    """tau_j = p/q from the closed form, with its digit period.

    The period is the binary of D = p (2^n - 1) = (p << n) - p for
    n = 2^(j-1), zero-filled to 2n digits.  Proof: 2^(2n) - 1 =
    (2^n - 1)(2^n + 1) = (2^n - 1) q, so tau_j = D / (2^(2n) - 1), and
    0 <= D < 2^(2n) - 1 since p < q.  Any such D / (2^m - 1) =
    D (2^-m + 2^-2m + ...) is the m binary digits of D repeated, and
    tau_j has no other binary expansion, as q is odd and greater than 1.
    """
    if j < 1:
        raise ValueError("level must be >= 1")
    p, q = _closed_form_pq(j)
    n = 1 << (j - 1)
    return TauLevel(j, p, q, format((p << n) - p, f"0{2 * n}b"))


def tau_infinity_digits():
    """The digit stream of tau_infinity (memoized), a
    ``kneading.symbolic.FixedPointStream``: t_k = s_1 ^ ... ^ s_k for
    the limit kneading sequence s, read as the fixed point of PAIR_RULE from
    d, each letter written as its digit pair.

    s = sigma(s) for sigma = (1 -> 10, 0 -> 11) gives s_(2i-1) = 1 and
    s_(2i) = 1 - s_i, so t_(2i) = t_i and t_(2i-1) = 1 - t_(2i-2) (t_0 = 0).
    So pair j, (x, y) = (t_(2j-1), t_(2j)), fixes pairs 2j - 1 and 2j:
    (t_(4j-3), t_(4j-2)) = (1 - t_(2j-2), t_(2j-1)) = (x, x) and
    (t_(4j-1), t_(4j)) = (1 - x, y), that is a -> ac, b -> ad, c -> da,
    d -> db, which is PAIR_RULE.  The first pair is t_1 t_2 = 11, letter d.
    """
    # the stream layer loads here, so the finite levels (tau --j, cf
    # tau-level, cf table) compile no stream code
    from kneading.symbolic import FixedPointStream

    return FixedPointStream(PAIR_RULE, "d", PAIR_TO_DIGITS)


def tau_infinity_enclosure(bits: int) -> DyadicEnclosure:
    """Two-sided dyadic enclosure of tau_infinity of width 2^-bits: the
    partial sum of the digits, plus a one-ulp tail."""
    if bits < 1:
        raise ValueError("bits must be >= 1")
    return DyadicEnclosure(int(tau_infinity_digits().prefix(bits), 2), bits)
