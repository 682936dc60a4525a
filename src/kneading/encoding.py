"""Dyadic encoding of symbol streams and the induced order.

A stream s_1 s_2 ... is encoded by digits t_k = s_1 + ... + s_k (mod 2);
the value tau = sum t_k 2^-k is order-compatible with the position of
points on the interval, and conjugates the shift to the tent map.
"""

from __future__ import annotations

from fractions import Fraction

from kneading.symbolic import FixedPointStream, PeriodicStream, SymbolStream, _DerivedStream
from kneading.words import FEIGENBAUM_RULE, complement, parity_word, unparity_word


def xi(s: SymbolStream) -> SymbolStream:
    """Digit stream t of s: t_k is the parity of s_1..s_k.

    Eventually periodic input gives eventually periodic output; a period
    of odd weight doubles (the parity flips across one period).
    """
    if isinstance(s, PeriodicStream):
        m, n = len(s.preperiod), len(s.period)
        span = n if s.period.count("1") % 2 == 0 else 2 * n
        t = parity_word(s.prefix(m + span))
        return PeriodicStream(t[:m], t[m:])
    return _DerivedStream(s, parity_word)


def xi_inverse(t: SymbolStream) -> SymbolStream:
    """Recover s from its digit stream: s_k = t_k xor t_{k-1} (t_0 = 0)."""
    if isinstance(t, PeriodicStream):
        # s_{m+1} mixes the last preperiod digit with the cycle, so the
        # output preperiod can be one longer than the input's.
        m, n = len(t.preperiod), len(t.period)
        w = unparity_word(t.prefix(m + 1 + n))
        return PeriodicStream(w[:m + 1], w[m + 1:])
    return _DerivedStream(t, unparity_word)


def tau_of_periodic(t: PeriodicStream) -> Fraction:
    """Exact value sum t_k 2^-k of an eventually periodic digit stream."""
    if not isinstance(t, PeriodicStream):
        raise TypeError("exact tau needs an eventually periodic digit stream")
    m, n = len(t.preperiod), len(t.period)
    head = int(t.preperiod, 2) if m else 0
    body = int(t.period, 2)
    return Fraction(head, 2 ** m) + Fraction(body, (2 ** n - 1) * 2 ** m)


def stream_tau(s: SymbolStream) -> Fraction:
    """Exact tau of an eventually periodic symbol stream."""
    return tau_of_periodic(xi(s))


def binary_digits(x: Fraction) -> PeriodicStream:
    """Binary digits of x in [0, 1] as an eventually periodic stream.

    Dyadic rationals get the terminating expansion; x = 1 is 0.111... .

    Write x = p/q in lowest terms with q = 2^m o, o odd, and let n be the
    order of 2 modulo o (n = 1 when o = 1).  Then o divides 2^n - 1, so
    2^(m+n) x - 2^m x = p (2^n - 1) / o is an integer: the digits after the
    first m repeat with period n.  As 0 <= x < 1, the first m + n digits are
    the m + n bits of floor(2^(m+n) x), one integer division.
    """
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError(f"value out of [0, 1]: {x}")
    if x == 1:
        return PeriodicStream("", "1")
    p, q = x.numerator, x.denominator
    m = (q & -q).bit_length() - 1
    o = q >> m
    # r = 2^n mod o; o = 1 gives r = 0 and stops at n = 1
    n, r = 1, 2 % o
    while r > 1:
        n, r = n + 1, 2 * r % o
    digits = format((p << (m + n)) // q, "b").zfill(m + n)
    return PeriodicStream(digits[:m], digits[m:])


def kneading_from_tau(x: Fraction) -> PeriodicStream:
    """Symbol stream whose digit stream is the binary expansion of x."""
    return xi_inverse(binary_digits(x))


def is_maximal(K: SymbolStream) -> bool:
    """Whether every shift of K has tau <= tau(K), decided exactly for an
    eventually periodic K and proved below for sigma's fixed point.

    sigma is 1 -> 10, 0 -> 11: any FixedPointStream of FEIGENBAUM_RULE
    without a coding is its fixed point (the letter is "1", as sigma(0)
    does not start with 0), and gives True with no symbol read.  Any other
    stream raises TypeError.

    Shift m's digits are t[m:], t = xi(K), complemented when t_m = 1: one
    slice of t or of its complement, compared with t itself as a string.
    For eventually periodic K, past P = len(t.preperiod) digits a window
    and t both have period a = len(t.period); by Fine and Wilf two such
    sequences that agree on H = P + 2a digits are equal, so H digits decide
    exactly, over the distinct shifts 1 <= m <= preperiod + period of K.

    Digit order is value order here: no comparison meets the two
    expansions w01^inf and w10^inf of one dyadic rational.  A shift m >= 1
    of K is never the other expansion of K, as it would put the last digit
    change of t at two positions.

    sigma's fixed point is maximal.  Let u = xi(sigma K); the docstring of
    kneading_determinant proves u_(2i) = t_i and u_(2i+1) = 1 - t_i for
    i >= 0 (t_0 = 0).  Shift m >= 1 of sigma K has the digits
    d_k = u_(m+k) xor u_m:
    - odd m = 2j + 1: u_m = 1 - t_j, so d_1 d_2 = (1 xor x, x) with
      x = t_(j+1) xor t_j, that is 10 or 01, below u_1 u_2 = 1 t_1 = 11
      when K_1 = 1;
    - even m = 2j: u_m = t_j, so d_(2k) = t_(j+k) xor t_j = e_k, the
      digits of shift j of K, and d_(2k+1) = 1 - e_k (e_0 = 0).  So d is
      1 e_1 e'_1 e_2 e'_2 ..., each digit of e followed by its complement
      e', and u is 1 t_1 t'_1 t_2 t'_2 ... alike.  A first difference of e
      and t at place k is one of d and u at place 2k, in the same
      direction, so shift 2j of sigma K compares with sigma K exactly as
      shift j of K with K.
    So sigma keeps a maximal K with K_1 = 1 maximal.  For the fixed point
    F = sigma F, u = t and F_1 = 1, and induction on m shows every shift
    of F below F digit-wise: an odd shift by the first case, shift 2j by
    the second, as j < 2j.  A digit string below t has tau <= tau(F).
    """
    if isinstance(K, FixedPointStream) and K.rule == FEIGENBAUM_RULE and K.coding is None:
        return True
    if not isinstance(K, PeriodicStream):
        raise TypeError("exact maximality needs an eventually periodic stream"
                        " or the fixed point of 1 -> 10, 0 -> 11")
    t_stream = xi(K)
    last = len(K.preperiod) + len(K.period)
    H = len(t_stream.preperiod) + 2 * len(t_stream.period)
    t = t_stream.prefix(last + H)
    tc = complement(t)
    head = t[:H]
    for m in range(1, last + 1):
        if (tc if t[m - 1] == "1" else t)[m:m + H] > head:
            return False
    return True
