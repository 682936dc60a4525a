"""Independent constructions that the tests cross-check the library against.

The package keeps one code path per quantity.  The second, third and fourth
constructions of tau_j, tau_infinity and the cascade words live here, with
the exact tent-map checks and the word order they rest on, and so do the
depth-first walk of a language's words, the loops that four exact kernels
replaced by closed forms (binary digits, minimal periods, prime orbit counts
and characteristic polynomials) and the symbol-by-symbol absorption of a
periodic stream's preperiod, so that a test can compare two constructions
that share no code.  So do the helpers only tests use: the product of two
series, the cascade zeta series from its product formula, the intersection
of two enclosures, and powers and column sums of an incidence matrix.
``tau_level_via``, ``tau_infinity_enclosure_via`` and ``feigenbaum_word_via``
take the method names the acceptance criteria use; each hands its reference
method to the library.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from kneading.encoding import tau_of_periodic, xi
from kneading.feigenbaum import (
    PAIR_RULE,
    PAIR_TO_DIGITS,
    DyadicEnclosure,
    TauLevel,
    _closed_form_pq,
    tau_infinity_enclosure,
    tau_level,
)
from kneading.frequency import IncidenceMatrix, _mat_mul
from kneading.language import LanguageQuery, _references
from kneading.spectral import IntSeries, _times_one_minus_z, series_of_rational, xi_series
from kneading.symbolic import (
    FEIGENBAUM_RULE,
    THUE_MORSE_RULE,
    FixedPointStream,
    PeriodicStream,
    complement,
    feigenbaum_limit,
    feigenbaum_stream,
    feigenbaum_word,
    parity_word,
)


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
    divisor of its length, the scan ``symbolic.minimal_period`` replaced."""
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


def tau_level_via(j: int, method: str = "digit-rule") -> TauLevel:
    """tau_j by any of four equivalent constructions.

    digit-rule: the library's ``tau_level``.
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
        return tau_level(j)
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


def tau_infinity_enclosure_via(bits: int, method: str = "digit-sum") -> DyadicEnclosure:
    """Two-sided dyadic enclosure of tau_infinity of width <= 2^-bits.

    digit-sum: the library's ``tau_infinity_enclosure``.
    product-formula: partial product of 1 - 1/2 prod (1 - 2^-2^k), with a
    rigorous bound on the discarded factors.
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
        hi = lo + prod * Fraction(1, 2 ** (2 ** (K + 1)))
        return DyadicEnclosure(lo, hi, bits)
    raise ValueError(f"unknown method {method!r}")


def intersect(a: DyadicEnclosure, b: DyadicEnclosure) -> DyadicEnclosure:
    """Common part of two enclosures of one value; disjoint ones raise."""
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    if lo > hi:
        raise ValueError("disjoint enclosures")
    return DyadicEnclosure(lo, hi, max(a.bits, b.bits))


def thue_morse_check(n: int) -> bool:
    """Prepending 0 to the cascade limit and encoding it digit-wise gives
    the fixed point of 0 -> 01, 1 -> 10; verify the first n symbols."""
    u = feigenbaum_limit().prefix(max(n - 1, 0))
    tm = FixedPointStream(THUE_MORSE_RULE, "0").prefix(n)
    return parity_word("0" + u)[:n] == tm


# === cascade words ====================================================

_FEIGENBAUM_METHODS = ("duplicate-flip", "index-doubling", "substitution")


def feigenbaum_word_via(j: int, method: str = "duplicate-flip") -> str:
    """Period word of the j-th kneading sequence in the doubling cascade.

    The three constructions are equivalent; "duplicate-flip" is the
    library's ``feigenbaum_word``.
    """
    if j < 1:
        raise ValueError("level must be >= 1")
    if method not in _FEIGENBAUM_METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "duplicate-flip":
        return feigenbaum_word(j)
    w = "1"
    for _ in range(j - 1):
        if method == "index-doubling":
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


def feigenbaum_zeta(j: int, N: int) -> IntSeries:
    """Series of 1 / ((1 - z) * prod_{n=0..j} (1 - z^(2^n))), truncated at N.

    This is the zeta series of the period-doubling cascade stream whose
    digit expansion has period 2^(j+1) (level j + 1 in the word hierarchy),
    which the library builds as ``zeta_series(feigenbaum_stream(j + 1), N)``.
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


def fraction_characteristic_polynomial(M: IncidenceMatrix) -> tuple[int, ...]:
    """Coefficients of det(lambda*I - M) by Faddeev-LeVerrier over Fraction,
    the code ``frequency.characteristic_polynomial`` replaced."""
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
