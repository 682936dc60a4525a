"""Topological zeta functions of unimodal itineraries as exact integer series,
periodic-point counts, and certified entropy enclosures."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .encoding import xi
from .symbolic import PeriodicStream, parity_word

__all__ = [
    "EntropyInconclusive",
    "EntropyResult",
    "IntSeries",
    "OrbitCounts",
    "entropy",
    "feigenbaum_zeta",
    "kneading_determinant",
    "orbit_counts",
    "series_of_rational",
    "xi_series",
    "zeta_series",
]


class EntropyInconclusive(RuntimeError):
    """Raised when root isolation cannot be certified at the given order."""


@dataclass(frozen=True)
class IntSeries:
    """Power series with integer coefficients c0..cN, truncated at order N."""

    coefficients: tuple

    def __post_init__(self):
        c = tuple(int(x) for x in self.coefficients)
        if not c:
            raise ValueError("need at least the constant coefficient")
        object.__setattr__(self, "coefficients", c)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, k: int) -> int:
        return self.coefficients[k]

    def __add__(self, other):
        n = min(self.order, other.order)
        return IntSeries(tuple(self[k] + other[k] for k in range(n + 1)))

    def __sub__(self, other):
        n = min(self.order, other.order)
        return IntSeries(tuple(self[k] - other[k] for k in range(n + 1)))

    def __mul__(self, other):
        n = min(self.order, other.order)
        out = [0] * (n + 1)
        for i, a in enumerate(self.coefficients[: n + 1]):
            if a == 0:
                continue
            for j in range(0, n + 1 - i):
                out[i + j] += a * other[j]
        return IntSeries(tuple(out))

    def reciprocal(self) -> "IntSeries":
        """Multiplicative inverse, defined over the integers iff c0 = 1 or -1."""
        c0 = self[0]
        if c0 not in (1, -1):
            raise ArithmeticError(f"reciprocal needs constant term 1 or -1, got {c0}")
        c = self.coefficients
        out = [c0]
        for k in range(1, self.order + 1):
            out.append(-c0 * sum(map(mul, c[1:k + 1], reversed(out))))
        return IntSeries(tuple(out))

    def evaluate(self, x) -> Fraction:
        """Exact Horner evaluation of the truncation at a rational point."""
        x = Fraction(x)
        v = Fraction(0)
        for c in reversed(self.coefficients):
            v = v * x + c
        return v


@dataclass(frozen=True)
class OrbitCounts:
    """Periodic-point counts per period and prime-orbit counts per prime period."""

    per_counts: dict
    prime_counts: dict


@dataclass(frozen=True)
class EntropyResult:
    """Certified enclosure [lo, hi] for the topological entropy.

    method is one of "unit-root-factors" (determinant is a product of
    cyclotomic-type factors, entropy exactly 0), "exact-rational-root",
    "bisection", or "no-root-below" (no zero up to the recorded cutoff).
    z_bracket holds the exact rational bracket for the smallest root of the
    determinant when one was isolated.
    """

    lo: float
    hi: float
    method: str
    z_bracket: tuple = None


_SIGN = {"0": 1, "1": -1}


def _epsilon_prefix(stream, count: int) -> list:
    """eps_k = (-1)**(s_1 + ... + s_k) for k = 1..count."""
    return list(map(_SIGN.__getitem__, parity_word(stream.prefix(count))))


def kneading_determinant(K, N: int) -> IntSeries:
    """Determinant 1 + sum eps_k z^k of a kneading stream, truncated at N.

    A purely periodic stream whose digit expansion has minimal period n gets
    the finite polynomial with k <= n - 1; every other stream (eventually
    periodic or generated) gets the infinite sum truncated at order N.
    """
    if N < 1:
        raise ValueError("order must be >= 1")
    if isinstance(K, PeriodicStream) and not K.preperiod:
        n = len(xi(K).period)
        bound = min(N, n - 1)
    else:
        bound = N
    eps = _epsilon_prefix(K, bound)
    coeffs = [1] + eps + [0] * (N - bound)
    return IntSeries(tuple(coeffs))


def zeta_series(K, N: int) -> IntSeries:
    """Zeta series 1 / ((1 - z) * determinant), truncated at N."""
    D = kneading_determinant(K, N)
    one_minus_z = IntSeries((1, -1) + (0,) * (N - 1))
    return (one_minus_z * D).reciprocal()


def series_of_rational(numerator, denominator, N: int) -> IntSeries:
    """Series of a rational function from integer coefficient lists."""
    num = tuple(numerator) + (0,) * (N + 1 - len(numerator))
    den = tuple(denominator) + (0,) * (N + 1 - len(denominator))
    return IntSeries(num[: N + 1]) * IntSeries(den[: N + 1]).reciprocal()


def xi_series(N: int) -> IntSeries:
    """Product of (1 - z^(2^n)) over 2^n <= N, truncated at order N.

    Coefficient k is (-1)**bit_count(k), the sign attached to the k-th digit
    of the period-doubling limit parameter.
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
    digit expansion has period 2^(j+1) (level j + 1 in the word hierarchy).
    """
    if j < 1 or N < 1:
        raise ValueError("need j >= 1 and N >= 1")
    c = [0] * (N + 1)
    c[0] = 1
    for e in [1] + [2 ** n for n in range(j + 1)]:
        if e > N:
            continue
        for k in range(N, e - 1, -1):
            c[k] -= c[k - e]
    return IntSeries(tuple(c)).reciprocal()


def orbit_counts(zeta: IntSeries) -> OrbitCounts:
    """Recover #Per_n = n [z^n] log zeta and prime-orbit counts N(p).

    With zeta = sum c_n z^n (c_0 = 1) and log zeta = sum #Per_n z^n / n,
    differentiating gives z zeta' = zeta * sum #Per_n z^n; comparing the
    coefficients of z^n yields the Newton identity

        #Per_n = n c_n - sum_{i<n} #Per_i c_{n-i}.

    It involves only integers and no division, so every #Per_n of an integer
    series is an integer and only its sign needs checking.  The recurrence
    costs O(N^2) integer products at order N.  Negative counts, or prime
    counts that fail divisibility or sign, mean the input is not a
    truncation of a topological zeta function and raise immediately.
    """
    if zeta[0] != 1:
        raise ValueError("zeta series must have constant term 1")
    c = zeta.coefficients
    per = []
    for n in range(1, zeta.order + 1):
        v = n * c[n] - sum(map(mul, per, c[n - 1:0:-1]))
        if v < 0:
            raise ArithmeticError(f"#Per_{n} = {v} is not a nonnegative integer")
        per.append(v)
    # Moebius inversion p N(p) = sum_{d | p} mu(d) #Per_{p/d}, over one table
    # of mu (mu(m) = -sum of mu(d) over proper divisors d of m) and a loop
    # over multiples: O(N log N) steps
    N = zeta.order
    per = [0] + per
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
    return OrbitCounts(dict(enumerate(per[1:], start=1)), prime)


# ---------------------------------------------------------------------------
# entropy: certified isolation of the smallest determinant root in (0, 1)

def _exact_determinant_poly(K) -> list:
    """Integer polynomial with the determinant's sign on (0, 1).

    Purely periodic streams give the determinant itself.  Eventually periodic
    streams give its numerator after resumming the tail geometrically:
    D = A + z^m C / (1 - z^p) with deg A = m, deg C = p, so the sign agrees
    with A (1 - z^p) + z^m C because 1 - z^p > 0 on (0, 1).
    """
    t = xi(K)
    m, p = len(t.preperiod), len(t.period)
    eps = _epsilon_prefix(K, m + p)
    if not K.preperiod:
        n = len(t.period)
        return [1] + eps[: n - 1]
    poly = [0] * (m + p + 1)
    head = [1] + eps[:m]
    for k, a in enumerate(head):
        poly[k] += a
        poly[k + p] -= a
    for k in range(1, p + 1):
        poly[m + k] += eps[m + k - 1]
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    return poly


def _try_divide(poly: list, e: int, sign: int = 1):
    """Quotient of poly by (1 - sign*z^e) if the division is exact, else None."""
    deg = len(poly) - 1
    if e > deg:
        return None
    q = [0] * (deg + 1)
    for k in range(deg + 1):
        q[k] = poly[k] + (sign * q[k - e] if k >= e else 0)
    if any(q[k] for k in range(deg - e + 1, deg + 1)):
        return None
    q = q[: deg - e + 1]
    while len(q) > 1 and q[-1] == 0:
        q.pop()
    return q


def _strip_unit_factors(poly: list) -> list:
    """Divide out every factor (1 +- z^(2^i)); their roots all lie on |z| = 1.

    One ascending pass over e = 1, 2, 4, ...: each (1 - z^e) and (1 + z^e)
    is divided out as often as the division is exact.  A factor that does
    not divide a polynomial divides none of its divisors, so no later
    division lets a factor of an earlier level divide again.
    """
    e = 1
    while e < len(poly):
        for sign in (1, -1):
            while (q := _try_divide(poly, e, sign)) is not None:
                poly = q
        e *= 2
    return poly


def _interval_eval(coeffs: list, a: Fraction, b: Fraction):
    """Enclosure of the polynomial on [a, b], 0 <= a <= b, by interval Horner."""
    lo = hi = Fraction(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        products = (lo * a, lo * b, hi * a, hi * b)
        lo, hi = min(products) + c, max(products) + c
    return lo, hi


def _certify_positive(coeffs, a, b, tail=None, max_boxes=20000):
    """Prove the polynomial (minus an optional tail bound) is > 0 on [a, b]."""
    a, b = Fraction(a), Fraction(b)
    if a >= b:
        return True
    floor = (b - a) / (1 << 24)
    stack = [(a, b)]
    boxes = 0
    while stack:
        x0, x1 = stack.pop()
        boxes += 1
        if boxes > max_boxes or x1 - x0 < floor:
            return False
        lo, hi = _interval_eval(coeffs, x0, x1)
        if tail is not None:
            lo -= tail(x1)
        if lo > 0:
            continue
        if hi <= 0:
            return False
        mid = (x0 + x1) / 2
        stack.append((x0, mid))
        stack.append((mid, x1))
    return True


def _divide_out_root(poly: list, x: Fraction) -> list:
    """Exact quotient poly / (1 - z/x) for a known rational root x."""
    deg = len(poly) - 1
    q = [Fraction(0)] * deg
    for k in range(deg):
        q[k] = poly[k] + (q[k - 1] / x if k else Fraction(0))
    if poly[deg] + q[deg - 1] / x != 0:
        raise ArithmeticError(f"{x} is not a root")
    return q


def _certified_sign(poly, x, tail):
    """Sign of the (tail-perturbed) polynomial at x, or None if uncertifiable."""
    v = Fraction(0)
    for c in reversed(poly):
        v = v * x + c
    if tail is None:
        return 0 if v == 0 else (1 if v > 0 else -1)
    e = tail(x)
    if v > e:
        return 1
    if v < -e:
        return -1
    return None


def entropy(K, N: int = 256, tol=Fraction(1, 10 ** 10)) -> EntropyResult:
    """Certified enclosure for the entropy h = -log z* of a kneading stream.

    z* is the smallest root of the kneading determinant in (0, 1); when the
    determinant provably has no such root the entropy is 0.  Periodic and
    eventually periodic streams are handled exactly; generated streams use
    the order-N truncation with the tail bound x^(N+1)/(1-x), and raise
    EntropyInconclusive when that bound cannot settle a needed sign.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    pad = 1e-12

    if isinstance(K, PeriodicStream):
        poly = _exact_determinant_poly(K)
        tail = None
        poly = _strip_unit_factors(poly)
        if poly == [1]:
            return EntropyResult(0.0, 0.0, "unit-root-factors")
    else:
        if N < 8:
            raise ValueError("order too small for a meaningful tail bound")
        poly = list(kneading_determinant(K, N).coefficients)
        tail = lambda x: Fraction(x) ** (N + 1) / (1 - Fraction(x))

    # scan for the leftmost certified sign change (the grid includes 1 only
    # in the exact case; the tail bound diverges there)
    grid_hi = 64 if tail is None else 63
    points = [Fraction(k, 64) for k in range(0, grid_hi + 1)]
    bracket = None
    exact_root = None
    last_pos = Fraction(0)
    for x in points[1:]:
        s = _certified_sign(poly, x, tail)
        if s is None:
            continue
        if s == 0:
            exact_root = x
            break
        if s > 0:
            last_pos = x
            continue
        bracket = (last_pos, x)
        break

    if exact_root is not None:
        reduced = _divide_out_root(poly, exact_root)
        if not _certify_positive(reduced, 0, exact_root, tail=None):
            raise EntropyInconclusive(
                "rational root found but smallest-root certificate failed; increase N"
            )
        h = -math.log(exact_root)
        return EntropyResult(max(0.0, h - pad), h + pad, "exact-rational-root",
                             (exact_root, exact_root))

    if bracket is not None:
        a, b = bracket
        if not _certify_positive(poly, 0, a, tail=tail):
            raise EntropyInconclusive(
                "sign change found but positivity left of it failed; increase N"
            )
        while (b - a) / a > Fraction(4, 5) * tol:
            progressed = False
            # the midpoint may sit on the root itself and resist signing
            # under the tail bound; fall back to off-center probes before
            # declaring the whole strip uncertifiable
            for num, den in ((1, 2), (3, 7), (4, 7), (2, 7), (5, 7)):
                mid = a + (b - a) * Fraction(num, den)
                s = _certified_sign(poly, mid, tail)
                if s == 0 and tail is None:
                    reduced = _divide_out_root(poly, mid)
                    if not _certify_positive(reduced, 0, mid, tail=None):
                        raise EntropyInconclusive("smallest-root certificate failed")
                    h = -math.log(mid)
                    return EntropyResult(max(0.0, h - pad), h + pad,
                                         "exact-rational-root", (mid, mid))
                if s is None:
                    continue
                if s > 0:
                    a = mid
                else:
                    b = mid
                progressed = True
                break
            if not progressed:
                raise EntropyInconclusive(
                    f"tail bound at order {N} cannot sign any probe; increase N"
                )
        h_lo = max(0.0, -math.log(float(b)) - pad)
        h_hi = -math.log(float(a)) + pad
        return EntropyResult(h_lo, h_hi, "bisection", (a, b))

    # no certified sign change: try to push a no-root certificate to a cutoff
    # close enough to 1 that the residual entropy fits inside tol
    cutoff = 1 - Fraction(3, 4) * tol
    if _certify_positive(poly, 0, cutoff, tail=tail):
        h_hi = -math.log(float(cutoff)) + pad
        return EntropyResult(0.0, h_hi, "no-root-below", (cutoff, Fraction(1)))
    raise EntropyInconclusive(
        f"no root isolated and no-root certificate failed at order {N}; increase N"
    )
