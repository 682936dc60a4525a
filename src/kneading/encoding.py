"""Dyadic encoding of symbol streams and the induced order.

A stream s_1 s_2 ... is encoded by digits t_k = s_1 + ... + s_k (mod 2);
the value tau = sum t_k 2^-k is order-compatible with the position of
points on the interval, and conjugates the shift to the tent map.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from kneading.symbolic import (
    PeriodicStream,
    SymbolStream,
    _MemoizedStream,
    shift,
)


class Order(enum.Enum):
    LT = -1
    EQ_PREFIX = 0
    GT = 1


def _parity_word(bits: str) -> str:
    """Running parities t_k = s_1 ^ ... ^ s_k of a 0/1 word.

    The word is read as one integer with s_1 as its top bit; prefix-xor
    doubling (x ^= x >> 1, 2, 4, ...) leaves t_k in the place of s_k after
    log2(n) big-integer steps, with no per-symbol Python work.
    """
    n = len(bits)
    if not n:
        return ""
    x = int(bits, 2)
    s = 1
    while s < n:
        x ^= x >> s
        s <<= 1
    return format(x, "b").zfill(n)


def _unparity_word(bits: str) -> str:
    """Inverse of _parity_word: s_k = t_k ^ t_(k-1), with t_0 = 0."""
    n = len(bits)
    if not n:
        return ""
    x = int(bits, 2)
    return format(x ^ (x >> 1), "b").zfill(n)


class _ParityStream(_MemoizedStream):
    """Running-parity digits t_k of a base stream."""

    def __init__(self, base: SymbolStream):
        super().__init__()
        self.base = base

    def _compute_prefix(self, n: int) -> str:
        return _parity_word(self.base.prefix(n))


class _UnparityStream(_MemoizedStream):
    """Inverse of the parity encoding: s_k = t_k xor t_{k-1}."""

    def __init__(self, base: SymbolStream):
        super().__init__()
        self.base = base

    def _compute_prefix(self, n: int) -> str:
        return _unparity_word(self.base.prefix(n))


def xi(s: SymbolStream) -> SymbolStream:
    """Digit stream t of s: t_k is the parity of s_1..s_k.

    Eventually periodic input gives eventually periodic output; a period
    of odd weight doubles (the parity flips across one period).
    """
    if isinstance(s, PeriodicStream):
        m, n = len(s.preperiod), len(s.period)
        span = n if s.period.count("1") % 2 == 0 else 2 * n
        t = _parity_word(s.prefix(m + span))
        return PeriodicStream(t[:m], t[m:])
    return _ParityStream(s)


def xi_inverse(t: SymbolStream) -> SymbolStream:
    """Recover s from its digit stream: s_k = t_k xor t_{k-1} (t_0 = 0)."""
    if isinstance(t, PeriodicStream):
        # s_{m+1} mixes the last preperiod digit with the cycle, so the
        # output preperiod can be one longer than the input's.
        m, n = len(t.preperiod), len(t.period)
        w = _unparity_word(t.prefix(m + 1 + n))
        return PeriodicStream(w[:m + 1], w[m + 1:])
    return _UnparityStream(t)


def epsilon(s: SymbolStream, k: int) -> int:
    """Signed digit (-1)^(s_1+...+s_k); epsilon_0 = +1."""
    if k == 0:
        return 1
    return 1 - 2 * (s.prefix(k).count("1") % 2)


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
    """
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError(f"value out of [0, 1]: {x}")
    if x == 1:
        return PeriodicStream("", "1")
    digits = []
    seen: dict[Fraction, int] = {}
    r = x
    while r not in seen:
        seen[r] = len(digits)
        r *= 2
        d = 1 if r >= 1 else 0
        digits.append("01"[d])
        r -= d
    start = seen[r]
    return PeriodicStream("".join(digits[:start]), "".join(digits[start:]))


def kneading_from_tau(x: Fraction) -> PeriodicStream:
    """Symbol stream whose digit stream is the binary expansion of x."""
    return xi_inverse(binary_digits(x))


def tent(x: Fraction) -> Fraction:
    """Full tent map on [0, 1]."""
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError(f"value out of [0, 1]: {x}")
    return 2 * x if x < Fraction(1, 2) else 2 * (1 - x)


def in_lambda(x: Fraction) -> bool:
    """Whether every tent iterate of x stays <= x (exact, rationals only).

    The orbit of p/q under the tent map lives in the finite set k/q, so
    the decision terminates.
    """
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError(f"value out of [0, 1]: {x}")
    seen = set()
    y = x
    while y not in seen:
        seen.add(y)
        y = tent(y)
        if y > x:
            return False
    return True


def word_order(u: str, v: str) -> Order:
    """Compare two digit words as binary expansions, shorter-prefix aware."""
    n = min(len(u), len(v))
    for i in range(n):
        if u[i] != v[i]:
            return Order.LT if u[i] < v[i] else Order.GT
    return Order.EQ_PREFIX


def _distinct_shift_count(s: PeriodicStream) -> int:
    return len(s.preperiod) + len(s.period)


def is_maximal(K: SymbolStream, horizon: int = 4096) -> bool | None:
    """Whether every shift of K has tau <= tau(K).

    Exact (True/False) for eventually periodic streams; for generated
    streams the comparison runs to ``horizon`` digits per shift and may
    return None (undetermined).
    """
    if isinstance(K, PeriodicStream):
        bound = stream_tau(K)
        for m in range(1, _distinct_shift_count(K) + 1):
            if stream_tau(shift(K, m)) > bound:
                return False
        return True
    t = xi(K).prefix(2 * horizon)
    tv = [int(c) for c in t]
    undetermined = False
    for m in range(1, horizon + 1):
        pm = tv[m - 1]
        for j in range(1, horizon + 1):
            d = tv[m + j - 1] ^ pm
            ref = tv[j - 1]
            if d != ref:
                if d > ref:
                    return False
                break
        else:
            undetermined = True
    return None if undetermined else True


def admissible(s: SymbolStream, K: SymbolStream, horizon: int = 4096) -> bool | None:
    """Two-sided admissibility of s relative to a maximal kneading stream K:
    tau(shift(K)) <= tau(shift(s, m)) <= tau(K) for every m >= 0.

    Exact when both streams are eventually periodic, three-valued at the
    horizon otherwise.
    """
    if isinstance(s, PeriodicStream) and isinstance(K, PeriodicStream):
        hi = stream_tau(K)
        lo = stream_tau(shift(K, 1))
        for m in range(_distinct_shift_count(s) + 1):
            v = stream_tau(shift(s, m))
            if not lo <= v <= hi:
                return False
        return True
    uv = [int(c) for c in xi(K).prefix(horizon)]
    lv = [int(c) for c in xi(shift(K, 1)).prefix(horizon)]
    tv = [int(c) for c in xi(s).prefix(2 * horizon)]
    undetermined = False
    for m in range(horizon + 1):
        pm = tv[m - 1] if m else 0
        for j in range(1, horizon + 1):
            d = tv[m + j - 1] ^ pm
            if d != uv[j - 1]:
                if d > uv[j - 1]:
                    return False
                break
        else:
            undetermined = True
        for j in range(1, horizon + 1):
            d = tv[m + j - 1] ^ pm
            if d != lv[j - 1]:
                if d < lv[j - 1]:
                    return False
                break
        else:
            undetermined = True
    return None if undetermined else True
