"""Independent constructions that the tests cross-check the library against.

The package keeps one code path per quantity.  The second, third and fourth
constructions of tau_j, tau_infinity and the cascade words live here, with
the exact tent-map checks and the word order they rest on, and so do the
depth-first walk of a language's words, the loops that four exact kernels
replaced by closed forms (binary digits, minimal periods, prime orbit counts
and characteristic polynomials), the symbol-by-symbol absorption of a
periodic stream's preperiod, and the Perron-Frobenius root found among the
integer roots of the characteristic polynomial, with its eigenvector from a
Gauss-Jordan kernel over Fraction, which the column-sum bracket and the
integer cofactors of ``perron_frobenius`` replaced, so that a test can
compare two constructions that share no code.  So do the helpers only
tests use: the product of two series, the limit's determinant as the
lacunary product ``xi_series``, the cascade zeta series from that product,
the intersection of two enclosures as an (lo, hi) ``Interval``, and powers
and column sums of an incidence matrix.  ``flip_cf_of_enclosure`` runs the
two endpoints' Euclids interleaved, the reference for the common prefix of
two quotient streams that ``cf_of_enclosure`` takes, and
``cf_continuation_check`` classifies how one cascade level's continued
fraction continues the last, the check of the theorem that
``kneading.cfrac.cf_table``'s docstring proves.
``GeneratedStream`` reads a stream through its ``prefix`` alone, so a test
can hand a periodic stream to the library as a generated one, and
``skew_tent_map`` is a third float family, with its peak off 1/2.
``lemma1_via_parity_words`` decides each sampled pair from both whole
itineraries and parity words, the construction that ``lemma1_validate``
replaced with a walk to the first symbol discrepancy.
``monotonicity_scan_via_parity_words`` builds each scan row from the
symbol string and its parity word, the construction that
``monotonicity_scan`` replaced with one integer per row.
``renormalize_map`` rescales a float map's second iterate, raising
``NotRenormalizableError`` when its geometry fails, and ``renormalize_word``
undoes the period-doubling substitution on a kneading word with its flags:
the float check that renormalizing the map and the word commute, which left
the package because no command reached it.
``tau_infinity_parity_digits`` reads the digits of tau_infinity as the
running parities of the limit kneading sequence, the construction that
``tau_infinity_digits`` replaced with the pair substitution's fixed point.
``parity_digit_period`` builds tau_j's digit period as the running parities
of the level word over two periods, the construction that ``tau_level``
replaced with the binary of p (2^n - 1); it is ``tau_level_via``'s
digit-rule method.  ``tau_level_via``, ``tau_infinity_enclosure_via`` and
``feigenbaum_word_via`` take the method names the acceptance criteria use;
``tau_infinity_enclosure_via`` hands its reference method to the library,
and ``feigenbaum_word_via`` builds all three itself.
"""

from __future__ import annotations

import enum
import math
import random
from collections.abc import Callable
from fractions import Fraction
from typing import NamedTuple

from kneading.cfrac import cf_of_rational
from kneading.dynamics import (
    Lemma1Report,
    ScanReport,
    ScanRow,
    UnimodalMap,
    itinerary,
    logistic_map,
)
from kneading.encoding import tau_of_periodic, xi
from kneading.feigenbaum import (
    PAIR_RULE,
    PAIR_TO_DIGITS,
    DyadicEnclosure,
    TauLevel,
    _closed_form_pq,
    tau_infinity_enclosure,
)
from kneading.frequency import (
    IncidenceMatrix,
    _is_primitive,
    _mat_mul,
    _residual_zero,
)
from kneading.language import LanguageQuery, _references
from kneading.spectral import IntSeries, _times_one_minus_z, series_of_rational
from kneading.symbolic import (
    FixedPointStream,
    PeriodicStream,
    _MemoizedStream,
    feigenbaum_limit,
    feigenbaum_stream,
    feigenbaum_word,
)
from kneading.words import FEIGENBAUM_RULE, THUE_MORSE_RULE, complement, parity_word


# === tent map and word order ===========================================

class Order(enum.Enum):
    LT = -1
    EQ_PREFIX = 0
    GT = 1


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


# === binary digits and periods =========================================

def remainder_binary_digits(x: Fraction) -> PeriodicStream:
    """Binary digits of x in [0, 1] by doubling the remainder until one
    repeats, the loop ``encoding.binary_digits`` replaced."""
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


def divisor_scan_minimal_period(word: str) -> str:
    """Shortest word whose repetition equals ``word``, by trying every
    divisor of its length, the scan ``words.minimal_period`` replaced."""
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d]
    return word


def stepwise_canonical_form(preperiod: str, period: str) -> tuple[str, str]:
    """Canonical (preperiod, period) of an eventually periodic stream,
    absorbing the preperiod one symbol at a time, the loop
    ``PeriodicStream.__init__`` replaced."""
    period = divisor_scan_minimal_period(period)
    # Absorb preperiod symbols that the period already produces.  Each
    # step rotates the period, and a rotation of a primitive word is
    # primitive, so the period stays minimal.
    while preperiod and preperiod[-1] == period[-1]:
        preperiod = preperiod[:-1]
        period = period[-1] + period[:-1]
    return preperiod, period


# === tau_j ============================================================

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


def parity_digit_period(j: int) -> str:
    """The 2^j-digit period of tau_j: the running parities of the level-j
    word over two periods (the word has odd weight, so one period of
    parities does not close the cycle)."""
    return parity_word(feigenbaum_word(j) * 2)


def tau_level_via(j: int, method: str = "digit-rule") -> TauLevel:
    """tau_j by any of four equivalent constructions.

    digit-rule: the running parities of the level word over two periods
    (``parity_digit_period``), whose value is reduced to lowest terms.
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
        return _level_from_word(j, parity_digit_period(j))
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
    a = tau_level_via(j, "closed-form").value
    b = tau_level_via(j + 1, "closed-form").value
    gap = b - a
    if gap != 2 * (1 - a) / (2 ** (2 ** j) + 1):
        raise ArithmeticError(f"gap formula mismatch at level {j}")
    return gap


def tau_from_kneading(j: int) -> Fraction:
    """tau_j obtained independently from the kneading word via xi."""
    return tau_of_periodic(xi(feigenbaum_stream(j)))


# === tau_infinity =====================================================

def tau_infinity_digit(k: int) -> int:
    """k-th digit of tau_infinity: write k = p 2^l with p odd; the digit
    is the bit-sum parity of p."""
    if k < 1:
        raise IndexError("digit indices are 1-based")
    p = k >> ((k & -k).bit_length() - 1)
    return p.bit_count() % 2


def tau_infinity_parity_digits():
    """The digit stream of tau_infinity as the running parities of the limit
    kneading sequence, one ``xi`` pass over its substitution prefix: the
    construction that the pair substitution's coded fixed point replaced."""
    return xi(feigenbaum_limit())


class Interval(NamedTuple):
    """A closed interval [lo, hi] of rationals, as a plain (lo, hi) pair."""

    lo: Fraction
    hi: Fraction

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


def tau_infinity_enclosure_via(bits: int, method: str = "digit-sum"):
    """Two-sided dyadic enclosure of tau_infinity of width <= 2^-bits.

    digit-sum: the library's ``tau_infinity_enclosure``.
    product-formula: partial product of 1 - 1/2 prod (1 - 2^-2^k), with a
    rigorous bound on the discarded factors, as an ``Interval``.
    """
    if bits < 1:
        raise ValueError("bits must be >= 1")
    if method == "digit-sum":
        return tau_infinity_enclosure(bits)
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
        return Interval(lo, lo + prod * Fraction(1, 2 ** (2 ** (K + 1))))
    raise ValueError(f"unknown method {method!r}")


def intersect(a, b) -> Interval:
    """Common part of two enclosures of one value; disjoint ones raise."""
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    if lo > hi:
        raise ValueError("disjoint enclosures")
    return Interval(lo, hi)


def flip_cf_of_enclosure(enclosure) -> list:
    """Quotients provably shared by every point of an interval in [0, 1],
    by one loop that steps both endpoints through the flipped interval.

    Accepts a DyadicEnclosure or any (lo, hi) pair of rationals.  A quotient
    is emitted only when the floors of the reciprocals agree at both
    endpoints, so boundary coincidences are never overclaimed; the result
    may be empty.  On a degenerate interval both endpoints run the same
    Euclidean steps, so the loop returns the full expansion ([] at 0).
    """
    # endpoints as unreduced integer pairs ln/ld <= hn/hd: the floors need no
    # gcd, so none is taken; a DyadicEnclosure's lie in [0, 1] by construction
    if isinstance(enclosure, DyadicEnclosure):
        n, d = enclosure.numerator, 1 << enclosure.bits
        ln, ld, hn, hd = n, d, n + 1, d
    else:
        lo, hi = map(Fraction, enclosure)
        if not 0 <= lo <= hi <= 1:
            raise ValueError(f"need 0 <= lo <= hi <= 1, got [{lo}, {hi}]")
        ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    out = []
    while ln > 0:
        a, rem = divmod(hd, hn)
        if a != ld // ln:
            break
        out.append(a)
        # taking reciprocals flips the interval: 1/hi - a is the new lower end
        ln, ld, hn, hd = rem, hn, ld - a * ln, ln
        if ln == 0:
            # the upper endpoint terminated exactly here; interior points
            # continue with arbitrarily large next quotients
            break
    return out


def cf_continuation_check(j: int) -> str:
    """How level j + 1's expansion begins: "verbatim" with level j's n_j
    quotients, "decrement" with them and the last lowered by 1, else
    "exception".  The theorem in ``cf_table``'s docstring predicts
    "verbatim" for even n_j, "decrement" for odd n_j, at every j >= 2."""
    cur, nxt = (cf_of_rational(Fraction(*_closed_form_pq(i))).quotients
                for i in (j, j + 1))
    head = nxt[:len(cur)]
    if head == cur:
        return "verbatim"
    if head[:-1] == cur[:-1] and head[-1] == cur[-1] - 1:
        return "decrement"
    return "exception"


def thue_morse_check(n: int) -> bool:
    """Prepending 0 to the cascade limit and encoding it digit-wise gives
    the fixed point of 0 -> 01, 1 -> 10; verify the first n symbols."""
    u = feigenbaum_limit().prefix(max(n - 1, 0))
    tm = FixedPointStream(THUE_MORSE_RULE, "0").prefix(n)
    return parity_word("0" + u)[:n] == tm


# === float orbits =====================================================

def skew_tent_map(c0: float, eta: float = 1e-9) -> UnimodalMap:
    """Full-height piecewise-linear map with its peak at c0."""
    if not 0 < c0 < 1:
        raise ValueError("peak must lie in (0, 1)")
    return UnimodalMap(
        "custom-piecewise-linear", c0,
        lambda x: x / c0 if x < c0 else (1.0 - x) / (1.0 - c0),
        c0, eta,
    )


def lemma1_via_parity_words(m: UnimodalMap, pairs: int, n: int,
                            seed: int = 0) -> Lemma1Report:
    """``lemma1_validate`` from whole words: both itineraries, both parity
    words, the first index d where they differ and every flag through d."""
    if pairs < 0:
        raise ValueError("pairs must be >= 0")
    if n < 1:
        raise ValueError("need at least one symbol")
    rng = random.Random(seed)
    tested = decided = excluded = violations = 0
    while tested < pairs:
        x, y = rng.random(), rng.random()
        if x == y:
            continue
        if x > y:
            x, y = y, x
        tested += 1
        wx, fx = itinerary(m, x, n)
        wy, fy = itinerary(m, y, n)
        tx, ty = parity_word(wx), parity_word(wy)
        d = next((i for i in range(n) if tx[i] != ty[i]), None)
        if d is None or not (all(fx[: d + 1]) and all(fy[: d + 1])):
            excluded += 1
            continue
        decided += 1
        if tx[d] > ty[d]:
            violations += 1
    return Lemma1Report(tested, decided, excluded, violations)


def monotonicity_scan_via_parity_words(r_grid, n: int) -> ScanReport:
    """``monotonicity_scan`` from words: each critical orbit stepped by
    ``logistic_map(r).fn``, its symbols joined into a string, their parity
    word, and tau's first 53 digits read back as an int."""
    grid = list(r_grid)
    if not grid or not all(2.9 <= r <= 4.0 for r in grid):
        raise ValueError("grid must stay within [2.9, 4.0]")
    if n < 1:
        raise ValueError("need at least one symbol")
    eta = UnimodalMap.eta  # logistic_map's default band
    rows = []
    for r in grid:
        fn = logistic_map(r).fn
        u, word = fn(0.5), []
        for _ in range(n):
            if abs(u - 0.5) < eta:
                break
            word.append("1" if u >= 0.5 else "0")
            u = fn(u)
        k = len(word)
        if k == 0:
            rows.append(ScanRow(r, None, 0))
            continue
        digits = parity_word("".join(word))
        # the first 53 terms in one exact ldexp (each partial sum of at most
        # 53 dyadic bits is a float), the nonzero rest added in order, one
        # rounded addition each (adding 0.0 leaves a sum unchanged); a loop,
        # not the builtin sum, which compensates its rounding from Python
        # 3.12; ldexp, not division by 2.0 ** i, which overflows from i = 1024
        head = min(k, 53)
        tau = math.ldexp(int(digits[:head], 2), -head)
        for i in range(head + 1, k + 1):
            if digits[i - 1] == "1":
                tau += math.ldexp(1.0, -i)
        rows.append(ScanRow(r, tau, k))
    vals = [row.tau for row in rows if row.tau is not None]
    decreases = sum(1 for u, v in zip(vals, vals[1:]) if v < u)
    return ScanReport(tuple(rows), decreases)


class NotRenormalizableError(RuntimeError):
    """The map has no admissible (a, b) geometry for renormalization."""


def renormalize_word(word: str, flags=None):
    """Inverse of the duplicate-flip substitution on a kneading word.

    The rescaling that conjugates f^2 back to a unimodal map reverses
    orientation, so the renormalized symbols are the complemented
    even-position symbols; odd positions carry no information.
    """
    out = complement(word[1::2])
    if flags is None:
        return out
    return out, tuple(flags[1:2 * len(out):2])


def _bisect(g: Callable[[float], float], lo: float, hi: float,
            tol: float = 0.0, iters: int = 200) -> float:
    glo = g(lo)
    ghi = g(hi)
    if glo == 0:
        return lo
    if ghi == 0:
        return hi
    if (glo > 0) == (ghi > 0):
        raise ValueError("no sign change on the bracket")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi or hi - lo <= tol:
            break
        gm = g(mid)
        if gm == 0:
            return mid
        if (gm > 0) == (glo > 0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def renormalize_map(m: UnimodalMap) -> UnimodalMap:
    """Rescaled second iterate L o f^2 o L^-1 with L(x) = (x-b)/(a-b).

    b is the fixed point above c0, a its preimage below c0; the second
    image of the critical point must stay inside [a, b] or the second
    iterate is not unimodal on the rescaled interval.
    """
    fc = m.fn(m.c0)
    if fc <= m.c0:
        raise NotRenormalizableError("no fixed point above the critical point")
    b = _bisect(lambda x: m.fn(x) - x, m.c0, 1.0)
    a = _bisect(lambda x: m.fn(x) - b, 0.0, m.c0)
    if not 0 < a < m.c0 < b < 1:
        raise NotRenormalizableError("degenerate rescaling interval")
    if m.fn(fc) < a:
        raise NotRenormalizableError(
            "second image of the critical point leaves the core interval"
        )
    scale = a - b
    fn = m.fn

    def rf(y: float) -> float:
        u = b + y * scale
        return (fn(fn(u)) - b) / scale

    return UnimodalMap(
        f"R({m.family})", m.parameter, rf,
        (m.c0 - b) / scale, m.eta / abs(scale),
    )


# === generated streams ================================================

class GeneratedStream(_MemoizedStream):
    """The stream K read through K.prefix alone, so that the library sees a
    generated stream even where K is a PeriodicStream."""

    def __init__(self, K):
        super().__init__()
        self.K = K

    def _compute_prefix(self, n: int) -> str:
        return self.K.prefix(n)


# === cascade words ====================================================

_FEIGENBAUM_METHODS = ("duplicate-flip", "index-doubling", "substitution")


def feigenbaum_word_via(j: int, method: str = "duplicate-flip") -> str:
    """Period word of the j-th kneading sequence in the doubling cascade.

    The three constructions are equivalent, and none is the library's
    ``feigenbaum_word``, which takes a prefix of the substitution's fixed
    point: "duplicate-flip" writes each level as the last one twice over,
    its last symbol flipped.
    """
    if j < 1:
        raise ValueError("level must be >= 1")
    if method not in _FEIGENBAUM_METHODS:
        raise ValueError(f"unknown method {method!r}")
    w = "1"
    for _ in range(j - 1):
        if method == "duplicate-flip":
            w = w + w[:-1] + complement(w[-1])
        elif method == "index-doubling":
            w = "".join("1" + complement(c) for c in w)
        else:
            w = FEIGENBAUM_RULE.apply(w)
    return w


# === languages ========================================================

def _enumerate(q: LanguageQuery, visit):
    """Depth-first walk of viable words, pruning at the first decided violation.

    A shift of the current word stays "live" while its digit word is a
    prefix of the reference expansion; a decided < (upper) or > (lower)
    settles that shift for every extension, so only live shifts carry
    forward.  visit(d) is called once per viable word with the letters
    in word[1..d].
    """
    n = q.nmax
    U, L = _references(q)
    tv = [0] * (n + 1)
    word = [0] * (n + 1)
    # frame: depth, letter, digit parity at depth, live shifts (upper, lower)
    stack = [(0, 0, 0, (), () if L is not None else None)]
    while stack:
        d, letter, tvd, lu, ll = stack.pop()
        tv[d] = tvd
        word[d] = letter
        if d:
            visit(d, word)
        if d == n:
            continue
        for b in (0, 1):
            tvc = tvd ^ b
            nu = []
            ok = True
            for m in lu:
                digit = tvc ^ tv[m]
                ref = U[d - m]
                if digit > ref:
                    ok = False
                    break
                if digit == ref:
                    nu.append(m)
            if not ok:
                continue
            # the fresh shift starting at position d sees digit b
            if b > U[0]:
                continue
            if b == U[0]:
                nu.append(d)
            nl = None
            if ll is not None:
                nl = []
                for m in ll:
                    digit = tvc ^ tv[m]
                    ref = L[d - m]
                    if digit < ref:
                        ok = False
                        break
                    if digit == ref:
                        nl.append(m)
                if not ok:
                    continue
                if b < L[0]:
                    continue
                if b == L[0]:
                    nl.append(d)
            stack.append((d + 1, b, tvc, nu, nl))


def dfs_language_words(q: LanguageQuery) -> dict:
    """The viable words of a LanguageQuery, keyed by length, in the order
    the depth-first walk visits them (decreasing at each length)."""
    out = {d: [] for d in range(1, q.nmax + 1)}

    def visit(d, word):
        out[d].append("".join(map(str, word[1:d + 1])))

    _enumerate(q, visit)
    return out


# === series ===========================================================

def series_product(a: IntSeries, b: IntSeries) -> IntSeries:
    """Product of two series by the schoolbook convolution, truncated at the
    smaller order."""
    n = min(a.order, b.order)
    out = [0] * (n + 1)
    for i, x in enumerate(a.coefficients[: n + 1]):
        if x == 0:
            continue
        for j in range(0, n + 1 - i):
            out[i + j] += x * b[j]
    return IntSeries(tuple(out))


def xi_series(N: int) -> IntSeries:
    """Product of (1 - z^(2^n)) over 2^n <= N, truncated at order N.

    Coefficient k is (-1)**bit_count(k), the sign attached to the k-th digit
    of the period-doubling limit parameter; the library reads the same
    series as ``kneading_determinant(feigenbaum_limit(), N)``.
    """
    if N < 1:
        raise ValueError("order must be >= 1")
    c = [0] * (N + 1)
    c[0] = 1
    e = 1
    while e <= N:
        for k in range(N, e - 1, -1):
            c[k] -= c[k - e]
        e *= 2
    return IntSeries(tuple(c))


def feigenbaum_zeta(j: int, N: int) -> IntSeries:
    """Series of 1 / ((1 - z) * prod_{n=0..j} (1 - z^(2^n))), truncated at N.

    This is the zeta series of the period-doubling cascade stream whose
    digit expansion has period 2^(j+1) (level j + 1 in the word hierarchy),
    which the library builds as
    ``zeta_series(kneading_determinant(feigenbaum_stream(j + 1), N))``.
    The factors with 2^n > N are 1 up to order N, so the product is
    xi_series at order min(N, 2^(j+1) - 1), and j past log2 N costs nothing.
    """
    if j < 1 or N < 1:
        raise ValueError("need j >= 1 and N >= 1")
    product = xi_series(min(N, (1 << min(j + 1, N.bit_length())) - 1))
    return series_of_rational((1,), _times_one_minus_z(product.coefficients), N)


def evaluate_series(series, x) -> Fraction:
    """Exact Horner evaluation of the truncation at a rational point."""
    x = Fraction(x)
    v = Fraction(0)
    for c in reversed(series.coefficients):
        v = v * x + c
    return v


def reciprocal_untrimmed(series) -> tuple:
    """Coefficients of 1/f by the full convolution c_1..c_k at every order k,
    trailing zeros included; series_of_rational((1,), c, N) stops at the
    last nonzero coefficient."""
    c = series.coefficients
    c0 = c[0]
    out = [c0]
    for k in range(1, len(c)):
        out.append(-c0 * sum(c[i] * out[k - i] for i in range(1, k + 1)))
    return tuple(out)


def newton_per_counts(series) -> list:
    """#Per_1..#Per_N of a zeta series c by the Newton identity
    #Per_n = n c_n - sum_{i<n} #Per_i c_{n-i}, over the coefficients alone;
    no sign is checked."""
    c = series.coefficients
    per = []
    for n in range(1, len(c)):
        per.append(n * c[n] - sum(per[i - 1] * c[n - i] for i in range(1, n)))
    return per


def moebius_prime_counts(per) -> dict:
    """Prime orbit counts N(1..N) from #Per_1..#Per_N by Moebius inversion
    p N(p) = sum_{d | p} mu(d) #Per_{p/d}, the code ``orbit_counts``
    replaced by a sieve; raises the same errors."""
    N = len(per)
    # Moebius inversion p N(p) = sum_{d | p} mu(d) #Per_{p/d}, over one table
    # of mu (mu(m) = -sum of mu(d) over proper divisors d of m) and a loop
    # over multiples: O(N log N) steps
    per = [0] + list(per)
    mu = [0, 1] + [0] * (N - 1)
    acc = [0] * (N + 1)
    for d in range(1, N + 1):
        for m in range(2 * d, N + 1, d):
            mu[m] -= mu[d]
        if mu[d]:
            for k in range(1, N // d + 1):
                acc[d * k] += mu[d] * per[k]
    prime = {}
    for p in range(1, N + 1):
        if acc[p] % p:
            raise ArithmeticError(f"orbit count N({p}) is not an integer")
        prime[p] = acc[p] // p
        if prime[p] < 0:
            raise ArithmeticError(f"orbit count N({p}) = {prime[p]} is negative")
    return prime


# === incidence matrices ===============================================

def column_sums(M: IncidenceMatrix) -> tuple[int, ...]:
    """Length of each letter's image: the column sums of M."""
    return tuple(sum(r[j] for r in M.entries) for j in range(M.dim))


def matrix_power(M: IncidenceMatrix, n: int) -> IncidenceMatrix:
    """M^n as n products from the identity: entry (i, j) counts letter i in
    the n-fold image of letter j."""
    if n < 0:
        raise ValueError("nonnegative powers only")
    acc = tuple(tuple(int(i == j) for j in range(M.dim)) for i in range(M.dim))
    for _ in range(n):
        acc = _mat_mul(acc, M.entries)
    return IncidenceMatrix(M.alphabet, acc)


def characteristic_polynomial(M: IncidenceMatrix) -> tuple[int, ...]:
    """Coefficients of det(lambda*I - M), monic, highest degree first.

    Faddeev-LeVerrier over the integers: M_1 = M, c_k = -tr(M_k)/k and
    M_(k+1) = M (M_k + c_k I).  For an integer matrix every c_k is an
    integer, so each division is exact.
    """
    n = M.dim
    coeffs = [1]
    Mk = M.entries
    for k in range(1, n + 1):
        ck, rem = divmod(-sum(Mk[i][i] for i in range(n)), k)
        if rem:
            raise ArithmeticError("characteristic coefficients must be integers")
        coeffs.append(ck)
        if k < n:
            Mk = _mat_mul(M.entries, tuple(
                tuple(x + ck if i == j else x for j, x in enumerate(row))
                for i, row in enumerate(Mk)))
    return tuple(coeffs)


def _poly_eval(coeffs, x):
    v = 0
    for c in coeffs:
        v = v * x + c
    return v


def _synthetic_divide(coeffs, root):
    out = [coeffs[0]]
    for c in coeffs[1:]:
        out.append(c + out[-1] * root)
    assert out[-1] == 0
    return out[:-1]


def integer_eigenvalues(M: IncidenceMatrix) -> list[int]:
    """All integer roots of the characteristic polynomial, with multiplicity."""
    coeffs = list(characteristic_polynomial(M))
    roots = []
    while len(coeffs) > 1:
        const = coeffs[-1]
        if const == 0:
            roots.append(0)
            coeffs = coeffs[:-1]
            continue
        candidates = set()
        d = 1
        while d * d <= abs(const):
            if const % d == 0:
                candidates.update((d, -d, const // d, -const // d))
            d += 1
        for r in sorted(candidates, key=abs):
            if _poly_eval(coeffs, r) == 0:
                roots.append(r)
                coeffs = _synthetic_divide(coeffs, r)
                break
        else:
            break
    return sorted(roots)


def _kernel_vector(A):
    """One nonzero rational kernel vector of square A, or None, by
    Gauss-Jordan elimination over Fraction."""
    n = len(A)
    rows = [list(r) for r in A]
    r = 0
    pivots = {}
    for col in range(n):
        piv = next((i for i in range(r, n) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][col]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots[col] = r
        r += 1
    free = [c for c in range(n) if c not in pivots]
    if not free:
        return None
    # basis vector for the first free column
    f0 = free[0]
    v = [Fraction(0)] * n
    v[f0] = Fraction(1)
    for col, row in pivots.items():
        v[col] = -rows[row][f0]
    return v


def perron_frobenius_via_eigenvalues(M: IncidenceMatrix) -> tuple[int, tuple[Fraction, ...]]:
    """``perron_frobenius`` by the integer roots of the characteristic
    polynomial, tried largest first: the code the column-sum bracket
    replaced; returns the same pair and raises the same errors."""
    if not _is_primitive(M):
        raise ValueError(
            "matrix is not primitive: no power is strictly positive"
        )
    for lam in sorted(set(integer_eigenvalues(M)), reverse=True):
        A = tuple(
            tuple(Fraction(M.entries[i][j] - (lam if i == j else 0))
                  for j in range(M.dim))
            for i in range(M.dim)
        )
        v = _kernel_vector(A)
        if v is None:
            continue
        if all(x > 0 for x in v) or all(x < 0 for x in v):
            total = sum(v)
            vec = tuple(x / total for x in v)
            assert _residual_zero(M, lam, vec)
            return lam, vec
    raise ArithmeticError("no integer eigenvalue carries a positive eigenvector")


def fraction_characteristic_polynomial(M: IncidenceMatrix) -> tuple[int, ...]:
    """Coefficients of det(lambda*I - M) by Faddeev-LeVerrier over Fraction,
    the code ``characteristic_polynomial`` above replaced."""
    n = M.dim
    A = tuple(tuple(Fraction(x) for x in row) for row in M.entries)
    coeffs = [Fraction(1)]
    Mk = A
    for k in range(1, n + 1):
        ck = sum(Mk[i][i] for i in range(n)) / k
        coeffs.append(-ck)
        if k == n:
            break
        shifted = tuple(
            tuple(Mk[i][j] - (ck if i == j else 0) for j in range(n))
            for i in range(n)
        )
        Mk = tuple(
            tuple(sum(A[i][l] * shifted[l][j] for l in range(n)) for j in range(n))
            for i in range(n)
        )
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise ArithmeticError("characteristic coefficients must be integers")
        out.append(c.numerator)
    return tuple(out)
