"""Exact continued fractions: canonical expansions, certified prefixes, convergents."""

from __future__ import annotations

from ._base import _Record
from .feigenbaum import DyadicEnclosure, _closed_form_pq


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

    Theorem.  For every j >= 2, tau_j = p_j/q_j is the convergent of
    tau_inf of index n_j or n_j + 1, whichever is even.  So level j + 1's
    expansion begins with level j's n_j quotients verbatim when n_j is
    even, and with them, the last lowered by 1, when n_j is odd.  j = 1 is
    the one exception: tau_1 = 2/3 = [1, 2] is no convergent of tau_inf,
    and level 2 is [1, 4].

    Proof.  Convergent k of [a_1, a_2, ...] is [a_1, ..., a_k], numbered
    as ``convergents`` numbers them.

    (1) The relations in ``tau_infinity_digits``' docstring, t_(2i) = t_i
    and t_(2i-1) = 1 - t_(2i-2) with t_0 = 0, give t_k = popcount(k) mod 2
    by induction on k: popcount(2i) = popcount(i), and 2i - 1 is 2i - 2
    with its last bit set.  As 1 - t_k = (1 + (-1)^t_k)/2,
    1 - tau_inf = sum_{k>=1} (1 - t_k) 2^-k = (1/2) sum_{k>=0}
    (-1)^popcount(k) 2^-k, and expanding prod_{k>=0} (1 - y^(2^k)) writes
    each power y^m once, with sign (-1)^popcount(m), so
    1 - tau_inf = (1/2) prod_{k>=0} (1 - 2^-(2^k)).  The digits t are the
    Thue-Morse word, which is not eventually periodic, so tau_inf is
    irrational.

    (2) Take n = 2^(j-1), x = 2^-n and A = prod_{k<j-1} (1 - 2^-(2^k)).
    By ``_closed_form_pq``, 1 - tau_j = P/q with q = 2^n + 1 = 2^n (1 + x)
    and P = prod_{k<j-1} (2^(2^k) - 1) = 2^(n-1) A, so
    1 - tau_j = (A/2)/(1 + x).  The factors of (1) with k >= j - 1 are
    1 - x^(2^i) for i = k - j + 1, so 1 - tau_inf = (A/2) prod_{i>=0}
    (1 - x^(2^i)).

    (3) So tau_inf - tau_j = (A/2) D(x), where the coefficient of x^m in
    D(x) = 1/(1 + x) - prod_{i>=0} (1 - x^(2^i)) is
    (-1)^m - (-1)^popcount(m): 0 for m < 2, 2 at m = 2, and 0 or +-2
    after that.  The terms past x^2 add up to at most 2 x^3/(1 - x) in
    modulus, so
        A x^2 (1 - 2x)/(1 - x) <= tau_inf - tau_j <= A x^2/(1 - x).
    For j >= 2, x <= 1/4 and the left side is positive: tau_j < tau_inf.
    As q x = 1 + x, q_j^2 (tau_inf - tau_j) <= A (1 + x)^2/(1 - x).  At
    j = 3 (A = 3/8, x = 1/16) that is 289/640, and it decreases with j, as
    A and x do, so it is below 1/2 for every j >= 3.

    (4) Legendre's criterion (Hardy and Wright, An Introduction to the
    Theory of Numbers, Thm 184): a fraction p/q with |alpha - p/q| <
    1/(2 q^2) is a convergent of alpha.  p_j/q_j is in lowest terms
    (``_closed_form_pq``), so for j >= 3 it is convergent k_j of tau_inf
    for some k_j.  Convergent 1, 1/a_1 with a_1 = floor(1/tau_inf), lies
    above the irrational tau_inf, and the convergents alternate about it,
    so those below it have even indices: k_j is even.  For j = 2, the
    quotients of tau_inf that ``cf_of_enclosure`` certifies from
    ``tau_infinity_enclosure(6)`` are [1, 4], so its convergent 2 is
    4/5 = tau_2, and k_2 = 2.

    (5) Convergent k is written canonically as [a_1, ..., a_k] when
    a_k >= 2 or k = 1, and as [a_1, ..., a_(k-1) + 1] when a_k = 1 and
    k >= 2.  So n_j = k_j when n_j is even, and k_j = n_j + 1, with
    a_(k_j) = 1 and level j ending in a_(n_j) + 1, when n_j is odd: k_j is
    the even one of n_j and n_j + 1.  Denominators of convergents strictly
    increase from k = 1 on (s_(k+1) = a_(k+1) s_k + s_(k-1)), and
    q_(j+1) > q_j, so k_(j+1) > k_j, and as both are even,
    k_(j+1) >= k_j + 2.  Level j + 1's first k_(j+1) - 2 quotients are
    a_1, a_2, ... as they stand, and these include a_1, ..., a_(k_j): level
    j's quotients when n_j is even, and level j's with the last lowered by
    1 when n_j is odd.  At j = 1, the denominators of tau_inf's
    convergents are 1, 5, ... (a_1 = 1, a_2 = 4), never 3.
    """
    if not 1 <= jmax <= 12:
        raise ValueError("jmax must be in 1..12")
    rows = []
    for j in range(1, jmax + 1):
        q = list(_quotients(*_closed_form_pq(j)))
        rows.append((j, q, len(q)))
    return rows
