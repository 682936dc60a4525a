"""Exact continued fractions: canonical expansions, certified prefixes, convergents."""

from __future__ import annotations

from .feigenbaum import DyadicEnclosure, _closed_form_pq
from .words import _Record


class ContinuedFraction(_Record):
    """Canonical expansion [a1, a2, ..., an] of a rational in (0, 1]."""

    quotients: tuple

    def __post_init__(self):
        q = tuple(int(a) for a in self.quotients)
        object.__setattr__(self, "quotients", q)
        if not q:
            raise ValueError("empty expansion")
        if any(a < 1 for a in q):
            raise ValueError("quotients must be positive")
        # canonical form rewrites [..., a, 1] as [..., a + 1]; a trailing 1
        # survives only in the single-quotient expansion of 1 itself
        if len(q) >= 2 and q[-1] < 2:
            raise ValueError("canonical expansion cannot end in 1")

    def value(self):
        """The expansion's value, a Fraction."""
        from fractions import Fraction
        for r, s in _convergent_pairs(self.quotients):
            pass
        return Fraction(r, s)


class Convergent(_Record):
    """Truncation r/s of an expansion after `index` quotients."""

    r: int
    s: int
    index: int

    def value(self):
        """r/s, a Fraction."""
        from fractions import Fraction
        return Fraction(self.r, self.s)


class ContinuationReport(_Record):
    """How the expansion at level j + 1 extends the expansion at level j."""

    j: int
    n_j: int
    expected: str
    observed: str
    matches: bool


def _quotients(n: int, d: int):
    """Euclidean quotients of n/d for 0 <= n <= d (none when n = 0): the
    floors of 1/x along the Gauss map x -> 1/x - floor(1/x), the same for
    any multiple of (n, d).  The module's one division loop.

    Greedy floor division cannot emit a trailing 1 (remainders strictly
    decrease), so the output is canonical by construction; n = d gives the
    lone exception [1].
    """
    while n:
        q, r = divmod(d, n)
        yield q
        d, n = n, r


def cf_of_rational(x) -> ContinuedFraction:
    """Canonical continued fraction of a rational x with 0 < x <= 1."""
    from fractions import Fraction
    x = Fraction(x)
    if not 0 < x <= 1:
        raise ValueError(f"need 0 < x <= 1, got {x}")
    return ContinuedFraction(tuple(_quotients(x.numerator, x.denominator)))


def cf_of_enclosure(enclosure) -> list:
    """Quotients provably shared by every point of an interval in [0, 1].

    Accepts a DyadicEnclosure or any (lo, hi) pair of rationals, and
    returns the common prefix of the endpoints' quotients, up to the first
    place where they differ or either expansion ends; the result may be
    empty, and a degenerate interval gives the full expansion ([] at 0).

    Sound: each branch of the Gauss map is monotone, so the points whose
    expansion begins a_1..a_k form one interval, and a prefix that both
    endpoints share is shared by every point between them.  An endpoint
    whose expansion ends at a_k certifies a_k and nothing after it: points
    beside it continue with arbitrarily large next quotients.
    """
    # endpoints as unreduced integer pairs ln/ld <= hn/hd: the floors need no
    # gcd, so none is taken; a DyadicEnclosure's lie in [0, 1] by construction
    if isinstance(enclosure, DyadicEnclosure):
        n, d = enclosure.numerator, 1 << enclosure.bits
        ln, ld, hn, hd = n, d, n + 1, d
    else:
        from fractions import Fraction
        lo, hi = map(Fraction, enclosure)
        if not 0 <= lo <= hi <= 1:
            raise ValueError(f"need 0 <= lo <= hi <= 1, got [{lo}, {hi}]")
        ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    out = []
    for a, b in zip(_quotients(ln, ld), _quotients(hn, hd)):
        if a != b:
            break
        out.append(a)
    return out


def _convergent_pairs(quotients):
    """Yield r_n, s_n by the three-term recurrence, n = 1, 2, ..."""
    r_prev, r_cur = 1, 0
    s_prev, s_cur = 0, 1
    for a in quotients:
        r_prev, r_cur = r_cur, a * r_cur + r_prev
        s_prev, s_cur = s_cur, a * s_cur + s_prev
        yield r_cur, s_cur


def convergents(cf: ContinuedFraction) -> list:
    """Convergents r_n/s_n of an expansion by the three-term recurrence."""
    return [Convergent(r, s, i)
            for i, (r, s) in enumerate(_convergent_pairs(cf.quotients), start=1)]


def cf_table(jmax: int) -> list:
    """Rows (j, quotients, n_j) for the period-doubling parameters tau_j.

    Capped at j = 12: the denominator of tau_12 already has 617 digits and
    the quotient counts grow steeply past that.
    """
    if not 1 <= jmax <= 12:
        raise ValueError("jmax must be in 1..12")
    rows = []
    for j in range(1, jmax + 1):
        q = list(_quotients(*_closed_form_pq(j)))
        rows.append((j, q, len(q)))
    return rows


def cf_continuation_check(j: int) -> ContinuationReport:
    """Classify how the level j + 1 expansion continues the level j one.

    Observed rule: for even n_j the next level keeps all n_j quotients
    verbatim before appending new ones; for odd n_j the last quotient drops
    by one first.  j = 1 breaks the rule (a_2 jumps 2 -> 4) and is reported
    as an exception.
    """
    if not 1 <= j <= 11:
        raise ValueError("j must be in 1..11")
    cur = tuple(_quotients(*_closed_form_pq(j)))
    nxt = tuple(_quotients(*_closed_form_pq(j + 1)))
    n = len(cur)
    head = nxt[:n]
    if head == cur:
        observed = "verbatim"
    elif head[:-1] == cur[:-1] and head[-1] == cur[-1] - 1:
        observed = "decrement"
    else:
        observed = "exception"
    expected = "decrement" if n % 2 else "verbatim"
    return ContinuationReport(j, n, expected, observed, observed == expected)
