"""Infinite symbol streams and the period-doubling kneading hierarchy.

A stream is read through ``prefix`` alone: ``s.prefix(n)`` is its first n
symbols, and it is the one method a new stream type implements.  Finite
words and substitution rules are in :mod:`kneading.words`.
"""

from __future__ import annotations

from .words import (
    FEIGENBAUM_RULE,
    SubstitutionRule,
    _byte_columns,
    _translate_columns,
    check_word,
    minimal_period,
)


class SymbolStream:
    """Infinite symbol sequence s_1 s_2 s_3 ... (1-based)."""

    def prefix(self, n: int) -> str:
        raise NotImplementedError

    def _check_length(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"prefix length must be >= 0, got {n}")


class PeriodicStream(SymbolStream):
    """Eventually periodic stream, stored in canonical form.

    Canonical means the period word is primitive (not a repetition of a
    shorter word) and the preperiod is as short as possible; equality of
    canonical forms is equality of streams.
    """

    def __init__(self, preperiod: str, period: str):
        check_word(preperiod)
        check_word(period)
        if not period:
            raise ValueError("period must be nonempty")
        period = minimal_period(period)
        # Absorb the longest preperiod suffix that the period already
        # produces: the d last symbols agree with the d symbols of period^∞
        # that end at a period boundary, so d is the number of trailing zero
        # bits of the two words' XOR.  Dropping them rotates the period right
        # by d, and a rotation of a primitive word is primitive, so the
        # period stays minimal.
        if preperiod:
            m, p = len(preperiod), len(period)
            x = int(preperiod, 2) ^ int((period * (m // p + 1))[-m:], 2)
            d = (x & -x).bit_length() - 1 if x else m
            r = d % p
            preperiod = preperiod[:m - d]
            period = period[p - r:] + period[:p - r]
        self.preperiod = preperiod
        self.period = period

    def prefix(self, n: int) -> str:
        self._check_length(n)
        m = len(self.preperiod)
        if n <= m:
            return self.preperiod[:n]
        reps = (n - m) // len(self.period) + 1
        return (self.preperiod + self.period * reps)[:n]

    def __eq__(self, other):
        return (
            isinstance(other, PeriodicStream)
            and self.preperiod == other.preperiod
            and self.period == other.period
        )

    def __hash__(self):
        return hash((self.preperiod, self.period))

    def __repr__(self):
        return f"PeriodicStream({self.preperiod!r}, {self.period!r})"


class FixedPointStream(SymbolStream):
    """Fixed point of a substitution, determined by its first letter; with a
    ``coding``, each letter is written as its word there (one length, >= 1).

    Requires the image of ``letter`` to start with ``letter`` and the
    iteration to grow, so the fixed point exists and is unique; a prefix
    longer than an iteration that stops growing raises ValueError.
    """

    def __init__(self, rule: SubstitutionRule, letter: str, coding: dict | None = None):
        if letter not in rule.alphabet:
            raise ValueError(f"{letter!r} not in rule alphabet")
        if not rule.images[letter].startswith(letter):
            raise ValueError(f"image of {letter!r} must start with it")
        self.rule = rule
        self.letter = letter
        self.coding = None if coding is None else dict(coding)
        self._code = (self.coding and self.coding.keys() == rule.alphabet
                      and _byte_columns(self.coding))
        if coding is not None and not self._code:
            raise ValueError("coding: a Latin-1 word per letter, all of one length")

    def prefix(self, n: int) -> str:
        self._check_length(n)
        # the iterates stay over the rule's alphabet, so no symbol check; a
        # coding by words of length L needs ceil(n / L) letters
        L = len(self._code) if self.coding else 1
        w = self.letter
        while len(w) * L < n:
            grown = self.rule._expand(w)
            if len(grown) <= len(w):
                raise ValueError("substitution iteration does not grow")
            w = grown
        return (_translate_columns(self._code, w) if self.coding else w)[:n]

    def __repr__(self):
        coded = "" if self.coding is None else f", coding={self.coding!r}"
        return f"FixedPointStream({self.rule!r}, {self.letter!r}{coded})"


class _DerivedStream(SymbolStream):
    """Stream read off a base stream prefix by prefix: its first n symbols
    are derive(base.prefix(n + skip))[:n].  Shifts and the parity recodings
    of generated streams are both of this form."""

    def __init__(self, base: SymbolStream, derive, skip: int = 0):
        self.base = base
        self.derive = derive
        self.skip = skip

    def prefix(self, n: int) -> str:
        self._check_length(n)
        return self.derive(self.base.prefix(n + self.skip))[:n]


def shift(s: SymbolStream, m: int = 1) -> SymbolStream:
    """Drop the first ``m`` symbols."""
    if m < 0:
        raise ValueError("shift distance must be >= 0")
    if m == 0:
        return s
    if isinstance(s, PeriodicStream):
        pre, per = s.preperiod, s.period
        if m < len(pre):
            return PeriodicStream(pre[m:], per)
        r = (m - len(pre)) % len(per)
        return PeriodicStream("", per[r:] + per[:r])
    return _DerivedStream(s, lambda w: w[m:], skip=m)


def feigenbaum_word(j: int) -> str:
    """Period word of the j-th kneading sequence in the doubling cascade.

    Level j is sigma^(j-1)(1) for sigma: 1 -> 10, 0 -> 11, and as sigma(1)
    starts with 1, each iterate starts with the one before: level j is the
    prefix of length 2^(j-1) of sigma's fixed point.  Each level is also the
    previous one twice over, its last symbol flipped.  sigma^n(0) and
    sigma^n(1) differ only in their last symbol: for n = 0 they are 0 and 1,
    and sigma^(n+1)(1) = sigma^n(1) sigma^n(0) and sigma^(n+1)(0) =
    sigma^n(1) sigma^n(1) differ only in their second halves.  So
    sigma^(n+1)(1) = w w' for w = sigma^n(1) and w' the word w with its last
    symbol flipped, and it has 2c +- 1 ones when w has c: level 1 is "1",
    and every level has an odd number of 1s.
    """
    if j < 1:
        raise ValueError("level must be >= 1")
    return feigenbaum_limit().prefix(1 << (j - 1))


def feigenbaum_stream(j: int) -> PeriodicStream:
    """The j-th cascade kneading sequence as a periodic stream."""
    return PeriodicStream("", feigenbaum_word(j))


def feigenbaum_limit() -> FixedPointStream:
    """The aperiodic limit kneading sequence (fixed point of 1->10, 0->11)."""
    return FixedPointStream(FEIGENBAUM_RULE, "1")
