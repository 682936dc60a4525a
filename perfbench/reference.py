"""Independent reference computations for the benchmark's output checks.

Nothing here imports ``kneading``.  Each function recomputes a quantity the
CLI prints, by a closed form or by a construction different from the one the
package uses (bit-parallel parity on an ``int``, interleaved substitution on
``bytes``, integer-only Euclid and series recurrences), so that a check is not
the package checking itself.
"""

from __future__ import annotations

import contextlib
import math
import random
import sys
from fractions import Fraction

_FLIP = bytes.maketrans(b"01", b"10")


@contextlib.contextmanager
def unlimited_int_str():
    """Lift the int/str conversion digit limit for the checks' own big integers.

    The limit is restored afterwards because the traced replay runs the CLI in
    this process, and the CLI must see the interpreter's default limit.
    """
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    old = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# the interpreter's default int/str conversion limit, in decimal digits
STR_DIGIT_LIMIT = 4300


def exceeds_str_limit(n: int) -> bool:
    """Whether str(n) has more than STR_DIGIT_LIMIT decimal digits."""
    n = abs(n)
    b = n.bit_length()
    if b <= math.floor(STR_DIGIT_LIMIT * math.log2(10)) - 1:
        return False
    if b - 1 >= math.ceil(STR_DIGIT_LIMIT * math.log2(10)) + 1:
        return True
    return n >= 10 ** STR_DIGIT_LIMIT


# ------------------------------------------------------------ symbol words

def limit_word(n: int) -> str:
    """First n symbols of the fixed point of 1 -> 10, 0 -> 11.

    Each letter's image is '1' followed by the complemented letter, so one
    substitution step interleaves a run of ones with the complemented word.
    """
    w = b"1"
    while len(w) < n:
        out = bytearray(2 * len(w))
        out[0::2] = b"1" * len(w)
        out[1::2] = w.translate(_FLIP)
        w = bytes(out)
    return w[:n].decode()


def thue_morse_word(n: int) -> str:
    """First n symbols of the fixed point of 0 -> 01, 1 -> 10."""
    w = b"0"
    while len(w) < n:
        out = bytearray(2 * len(w))
        out[0::2] = w
        out[1::2] = w.translate(_FLIP)
        w = bytes(out)
    return w[:n].decode()


def parity(word: str) -> str:
    """Running parity t_k = s_1 xor ... xor s_k, by prefix-xor doubling."""
    n = len(word)
    if not n:
        return ""
    x = int(word, 2)
    s = 1
    while s < n:
        x ^= x >> s
        s <<= 1
    return format(x, f"0{n}b")


def unparity(digits: str) -> str:
    """Inverse of :func:`parity`: s_k = t_k xor t_(k-1), t_0 = 0."""
    n = len(digits)
    if not n:
        return ""
    x = int(digits, 2)
    return format(x ^ (x >> 1), f"0{n}b")


def minimal_period(word: str) -> int:
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[:d] * (n // d):
            return d
    return n


# --------------------------------------------------------- cascade levels

def tau_level(j: int) -> tuple[int, int]:
    """Reduced (p, q) of tau_j: q = 2^(2^(j-1)) + 1, p = q - prod_{k<j-1} (2^(2^k) - 1)."""
    q = 2 ** (2 ** (j - 1)) + 1
    prod = 1
    for k in range(j - 1):
        prod *= 2 ** (2 ** k) - 1
    p = q - prod
    g = math.gcd(p, q)
    return p // g, q // g


def tau_level_digits(j: int) -> str:
    """Digit period of tau_j, of length 2^j."""
    p, q = tau_level(j)
    n = 2 ** j
    return format(p * ((2 ** n - 1) // q), f"0{n}b")


def tau_infinity_digits(n: int) -> str:
    """First n binary digits of tau_infinity: the parity stream of the limit word."""
    return parity(limit_word(n))


def cf_quotients(p: int, q: int) -> list[int]:
    """Canonical continued fraction of p/q in (0, 1] by integer Euclid."""
    a, b = q, p
    out = []
    while b:
        k, r = divmod(a, b)
        out.append(k)
        a, b = b, r
    return out


def cf_of_interval(ln: int, ld: int, hn: int, hd: int) -> list[int]:
    """Quotients shared by every point of [ln/ld, hn/hd], on integer pairs."""
    out = []
    while ln > 0:
        a = hd // hn
        if a != ld // ln:
            break
        out.append(a)
        ln, ld, hn, hd = hd - a * hn, hn, ld - a * ln, ln
        if ln == 0:
            break
    return out


# -------------------------------------------------------- tau arguments

def is_maximal(x: Fraction) -> bool:
    """Exact tent-orbit check: every tent iterate of p/q stays <= p/q.

    The orbit lives in {k/q}, so it is tracked on the integer numerators.
    """
    p, q = x.numerator, x.denominator
    seen = set()
    y = p
    while y not in seen:
        seen.add(y)
        y = 2 * y if 2 * y < q else 2 * (q - y)
        if y > p:
            return False
    return True


class TauStream:
    """Digit stream t = xi(K) of a --tau argument, with K's periodic structure.

    ``pure_period`` is the minimal period of t when the symbol stream K is
    purely periodic, else None; the kneading determinant is a polynomial of
    degree pure_period - 1 exactly in that case.  ``pre``/``per`` describe t
    as eventually periodic (None for the aperiodic limit).
    """

    def __init__(self, spec: str):
        self.spec = spec
        self.pure_period = None
        self.pre = self.per = None
        if spec == "feigenbaum:inf":
            self._digits = tau_infinity_digits
            return
        if spec.startswith("feigenbaum:"):
            w = limit_word(2 ** (int(spec.split(":", 1)[1]) - 1))
            t = parity(w + w)
            self._set_periodic("", t)
            self.pure_period = minimal_period(t)
            return
        x = Fraction(spec)
        if x == 1:
            self._set_periodic("", "1")
        else:
            self._set_periodic(*_binary_expansion(x))
        m, n = len(self.pre), len(self.per)
        t = self.prefix(m + 2 * n + 2)
        s = unparity(t)
        if all(s[k] == s[k + n] for k in range(m + 1)):
            # K is purely periodic; its digit stream then is too
            L = n if s[:n].count("1") % 2 == 0 else 2 * n
            self.pure_period = minimal_period(t[:L])

    def _set_periodic(self, pre: str, per: str):
        self.pre, self.per = pre, per
        self._digits = None

    def prefix(self, n: int) -> str:
        if self._digits is not None:
            return self._digits(n)
        m = len(self.pre)
        if n <= m:
            return self.pre[:n]
        reps = (n - m) // len(self.per) + 1
        return (self.pre + self.per * reps)[:n]


def _binary_expansion(x: Fraction) -> tuple[str, str]:
    """Preperiod and period of the binary digits of x in [0, 1)."""
    p, q = x.numerator, x.denominator
    m = 0
    while q % 2 == 0:
        q //= 2
        m += 1
    digits = []
    num, den = p, x.denominator
    for _ in range(m):
        num *= 2
        d = num >= den
        digits.append("01"[d])
        num -= d * den
    n = 1
    while q > 1 and pow(2, n, q) != 1:
        n += 1
    per = []
    for _ in range(n):
        num *= 2
        d = num >= den
        per.append("01"[d])
        num -= d * den
    return "".join(digits), "".join(per)


def determinant(ts: TauStream, N: int) -> list[int]:
    """Kneading determinant coefficients 1, eps_1, ..., eps_N with eps_k = 1 - 2 t_k."""
    bound = N if ts.pure_period is None else min(N, ts.pure_period - 1)
    t = ts.prefix(bound)
    return [1] + [1 - 2 * int(c) for c in t] + [0] * (N - bound)


def reciprocal(e: list[int]) -> list[int]:
    """Integer power series 1/e for e[0] = 1, using only e's nonzero terms."""
    N = len(e) - 1
    terms = [(i, c) for i, c in enumerate(e) if i and c]
    out = [0] * (N + 1)
    out[0] = 1
    for k in range(1, N + 1):
        acc = 0
        for i, c in terms:
            if i > k:
                break
            acc += c * out[k - i]
        out[k] = -acc
    return out


def zeta(ts: TauStream, N: int) -> list[int]:
    """Zeta series 1 / ((1 - z) D(z)) truncated at N."""
    if ts.spec == "feigenbaum:inf":
        # D is exactly prod_n (1 - z^(2^n)): its k-th coefficient is
        # (-1)^popcount(k), which is 1 - 2 t_k.  Dividing by each factor is a
        # strided running sum, so no general inversion is needed.
        c = [1] + [0] * N
        e = 1
        strides = [1]
        while e <= N:
            strides.append(e)
            e *= 2
        for e in strides:
            for k in range(e, N + 1):
                c[k] += c[k - e]
        return c
    d = determinant(ts, N)
    e = [d[0]] + [d[k] - d[k - 1] for k in range(1, N + 1)]
    return reciprocal(e)


def rational_series(num: list[int], den: list[int], N: int) -> list[int]:
    """Series of num/den, den[0] = 1, by the linear recurrence of den."""
    out = []
    for k in range(N + 1):
        v = num[k] if k < len(num) else 0
        for i in range(1, min(k, len(den) - 1) + 1):
            v -= den[i] * out[k - i]
        out.append(v)
    return out


# closed-form zeta functions: numerator, denominator coefficients
ZETA_CLOSED_FORMS = {
    "1": ([1], [1, -2]),
    "5/6": ([1, 1], [1, -1, -2, 2]),
    "6/7": ([1], [1, -2, 0, 1]),
}

# exact entropies of the closed-form cases
ENTROPY_CLOSED_FORMS = {
    "1": math.log(2.0),
    "5/6": math.log(2.0) / 2.0,
    "6/7": math.log((1.0 + math.sqrt(5.0)) / 2.0),
}


def periodic_counts(z: list[int]) -> dict[int, int]:
    """#Per_n from zeta coefficients by the Newton identity
    Per_n = n c_n - sum_{i<n} Per_i c_(n-i), from z zeta'/zeta = sum Per_n z^n."""
    per = {}
    for n in range(1, len(z)):
        per[n] = n * z[n] - sum(per[i] * z[n - i] for i in range(1, n))
    return per


def _mobius(n: int) -> int:
    res, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            res = -res
        d += 1
    return -res if n > 1 else res


def prime_counts(per: dict[int, int]) -> dict[int, int]:
    return {p: sum(_mobius(d) * per[p // d] for d in range(1, p + 1) if p % d == 0) // p
            for p in per}


def determinant_value(ts: TauStream, x):
    """Value at x in (0, 1) of the determinant the entropy routine roots.

    Purely periodic K gives the polynomial of degree pure_period - 1; an
    eventually periodic K gives the whole series, summed geometrically.  x may
    be a Fraction (exact) or a float.
    """
    if ts.pure_period is not None:
        v = 0
        for c in reversed(determinant(ts, ts.pure_period - 1)):
            v = v * x + c
        return v
    m, n = len(ts.pre), len(ts.per)
    eps = [1 - 2 * int(c) for c in ts.prefix(m + n)]
    head = 1 + sum(eps[k - 1] * x ** k for k in range(1, m + 1))
    cycle = sum(eps[m + k - 1] * x ** (m + k) for k in range(1, n + 1))
    return head + cycle / (1 - x ** n)


def is_cascade_level(spec: str) -> bool:
    """Whether a --tau argument is a level of the doubling cascade (zero entropy)."""
    if spec.startswith("feigenbaum:"):
        return spec != "feigenbaum:inf"
    x = Fraction(spec)
    return any(Fraction(*tau_level(j)) == x for j in range(1, 9))


# --------------------------------------------------------- language counts

# symbol budget of one brute-force language count
WORD_BUDGET = 20000


def viable_counts(ts: TauStream, nmax: int, core: bool) -> list[int]:
    """p(1), p(2), ... by brute force over words, for as many lengths as
    WORD_BUDGET allows.

    A word is viable when the digit word of every suffix is <= the prefix of
    xi(K) of the same length and, in core mode, >= that of xi(shift K).
    """
    t = ts.prefix(nmax + 1)
    upper = t[:nmax]
    lower = parity(unparity(t)[1:nmax + 1])
    counts = []
    level = [""]
    for d in range(1, nmax + 1):
        nxt = []
        for w in level:
            for b in "01":
                u = w + b
                ok = True
                for m in range(d):
                    dig = parity(u[m:])
                    if dig > upper[:d - m] or (core and dig < lower[:d - m]):
                        ok = False
                        break
                if ok:
                    nxt.append(u)
        level = nxt
        counts.append(len(level))
        if len(level) * 2 * d > WORD_BUDGET:
            break
    return counts


def forbidden(ts: TauStream, nmax: int) -> list[str]:
    t = ts.prefix(nmax)
    s = unparity(t)
    return [s[:j - 1] + "10"[int(s[j - 1])] for j in range(1, nmax + 1) if t[j - 1] == "0"]


# ---------------------------------------------------------------- float maps

ESCAPE_TOL = 1e-12
# turning point, and the distance from it below which a symbol is unreliable
C0 = 0.5
ETA = 1e-9


class Escape(ValueError):
    """The orbit left [0, 1]."""


def unimodal(family: str, par: float):
    if family == "logistic":
        return lambda x: par * x * (1.0 - x)
    return lambda x: par * x if x < 0.5 else par * (1.0 - x)


def itinerary(f, x: float, n: int):
    """Symbols and reliability flags of n points of the orbit of x."""
    u = min(max(x, 0.0), 1.0)
    syms, flags = [], []
    for _ in range(n):
        syms.append("1" if u >= C0 else "0")
        flags.append(abs(u - C0) >= ETA)
        u = f(u)
        if not -ESCAPE_TOL <= u <= 1 + ESCAPE_TOL:
            raise Escape(u)
        u = min(max(u, 0.0), 1.0)
    return "".join(syms), flags


def critical_itinerary(f, n: int):
    return itinerary(f, f(C0), n)


def scan_rows(lo: float, hi: float, steps: int, n: int):
    rows = []
    for i in range(steps):
        r = lo + (hi - lo) * i / (steps - 1)
        word, flags = critical_itinerary(unimodal("logistic", r), n)
        k = 0
        while k < n and flags[k]:
            k += 1
        if k == 0:
            rows.append((r, None, 0))
            continue
        digits = parity(word[:k])
        rows.append((r, sum(int(c) / 2.0 ** (i + 1) for i, c in enumerate(digits)), k))
    return rows


def lemma1_counts(family: str, par: float, pairs: int, n: int, seed: int):
    """(tested, decided, excluded, violations), replaying the sampler."""
    f = unimodal(family, par)
    rng = random.Random(seed)
    tested = decided = excluded = violations = 0
    while tested < pairs:
        x, y = rng.random(), rng.random()
        if x == y:
            continue
        if x > y:
            x, y = y, x
        tested += 1
        wx, fx = itinerary(f, x, n)
        wy, fy = itinerary(f, y, n)
        tx, ty = parity(wx), parity(wy)
        d = next((i for i in range(n) if tx[i] != ty[i]), None)
        if d is None or not (all(fx[:d + 1]) and all(fy[:d + 1])):
            excluded += 1
            continue
        decided += 1
        violations += tx[d] > ty[d]
    return tested, decided, excluded, violations
