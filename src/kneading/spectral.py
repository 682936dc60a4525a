"""Topological zeta functions of unimodal itineraries as exact integer series,
periodic-point counts, and certified entropy enclosures."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from operator import mul, sub

from ._base import _Record
from .encoding import xi
from .symbolic import PeriodicStream


class EntropyInconclusive(RuntimeError):
    """Raised when root isolation cannot be certified at the given order."""


class IntSeries(_Record):
    """Power series with integer coefficients c0..cN, truncated at order N.

    exact is (P, R), integer coefficient tuples with series = P / R, or None
    when the coefficients are all that is known; only kneading_determinant
    sets it.  R_0 = +-1 and P_0 = R_0 c_0 are checked, as orbit_counts
    relies on them.  As a field it counts in repr, == and hash.
    """

    coefficients: tuple
    exact: tuple = None

    def __post_init__(self):
        c = tuple(map(int, self.coefficients))
        if not c:
            raise ValueError("need at least the constant coefficient")
        if self.exact is not None:
            P, R = self.exact
            if not (P and R and R[0] in (1, -1) and P[0] == R[0] * c[0]):
                raise ValueError("exact pair P / R needs R_0 = +-1 and P_0 = R_0 c_0")
        object.__setattr__(self, "coefficients", c)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, k: int) -> int:
        return self.coefficients[k]


class OrbitCounts(_Record):
    """Periodic-point counts per period and prime-orbit counts per prime period."""

    per_counts: dict
    prime_counts: dict


class EntropyResult(_Record):
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
# half-width added around an entropy computed from an exact bracket in float
_PAD = 1e-12


def _epsilon_prefix(t, count: int) -> list:
    """eps_k = (-1)**t_k for k = 1..count, from the digit stream t = xi(K)."""
    return list(map(_SIGN.__getitem__, t.prefix(count)))


def kneading_determinant(K, N: int) -> IntSeries:
    """Determinant 1 + sum eps_k z^k of a kneading stream, truncated at N.

    A purely periodic stream whose digit expansion has minimal period p gets
    the finite polynomial with k <= p - 1; every other stream (eventually
    periodic or generated) gets the infinite sum truncated at order N.

    An eventually periodic stream's determinant is a fraction D = P / R of
    integer polynomials, and its exact field is the pair (P, R).  A purely
    periodic stream has P = D and R = 1.  With xi(K) of preperiod m and
    period p, the tail resums geometrically: D = A + z^m C / (1 - z^p) with
    deg A = m, deg C = p, so P = A (1 - z^p) + z^m C and R = 1 - z^p.
    R > 0 on (0, 1), so P has the sign of D there.  A generated stream's
    determinant has exact None: its truncation is all that is known of it.

    At z = 1/2 the determinant gives tau.  With t = xi(K), eps_k = (-1)^t_k
    = 1 - 2 t_k, so S = 1 + sum_{k>=1} eps_k z^k has S(1/2) = 1 + sum
    (1 - 2 t_k) 2^-k = 2 - 2 tau(K).  D = S, except for a purely periodic K:
    there t_p = 0 (K has a period L and t_{k+L} = t_k + t_L, so t_p = t_{2L}
    = 0), eps has period p and D = S (1 - z^p).  So tau(K) = 1 - P(1/2) /
    (2 R(1/2)) with a preperiod, and 1 - P(1/2) / (2 (1 - 2^-p)) without one.

    Doubling: D_{sigma K}(z) = (1 - z) D_K(z^2) for sigma: 1 -> 10, 0 -> 11.
    sigma K has 1 at odd places and 1 - K_i at place 2i, so t_{2i}(sigma K)
    = 2i - (K_1 + ... + K_i) = t_i(K) and t_{2i+1}(sigma K) = t_i(K) + 1
    (mod 2): eps_{2i}(sigma K) = eps_i(K) and eps_{2i+1}(sigma K) =
    -eps_i(K), for every i >= 0 with eps_0 = 1.  So S_{sigma K}(z) = sum_i
    eps_i(K) (z^(2i) - z^(2i+1)) = (1 - z) S_K(z^2).  K_i = 1 - (sigma K)_{2i}
    gives K back, so sigma K is purely periodic exactly when K is, and then
    t(sigma K) has least period 2p: its even and odd places repeat with p
    in i, a period 2r of it is a period r of t(K), and an odd period would
    be one of sigma K past its first place, making its even places 1 like
    its odd ones, but t(1^inf) = (10)^inf has period 2.  So D_{sigma K} =
    S_{sigma K} (1 - z^(2p)) = (1 - z) S_K(z^2) (1 - z^(2p)) = (1 - z)
    D_K(z^2), and with a preperiod D = S on both sides.  The cascade
    feigenbaum_stream(j) is sigma^(j-1)(1^inf), and 1^inf has the pair
    (1 - z, 1), so level j has the pair (prod_{i<j} (1 - z^(2^i)), 1).
    """
    if N < 1:
        raise ValueError("order must be >= 1")
    t = xi(K)
    if not isinstance(K, PeriodicStream):
        return IntSeries((1, *_epsilon_prefix(t, N)))
    m, p = len(t.preperiod), len(t.period)
    if K.preperiod:
        eps = _epsilon_prefix(t, max(N, m + p))
        poly = [1] + eps[: m + p]  # A + z^m C
        for k, a in enumerate(poly[: m + 1]):
            poly[k + p] -= a
        exact = tuple(_trimmed(poly)), (1,) + (0,) * (p - 1) + (-1,)
    else:
        eps = _epsilon_prefix(t, p - 1)
        exact = (1, *eps), (1,)
    return IntSeries(tuple(([1] + eps + [0] * N)[: N + 1]), exact)


def zeta_series(D: IntSeries) -> IntSeries:
    """Zeta series 1 / ((1 - z) D) of a kneading determinant, to D's order.

    With D's exact pair P / R (P = D and R = 1 when it has none), this is
    R / ((1 - z) P); an eventually periodic stream costs O(N deg P)
    products, deg P <= m + p.
    """
    P, R = D.exact or (D.coefficients, (1,))
    return series_of_rational(R, _times_one_minus_z(P), D.order)


def series_of_rational(numerator, denominator, N: int) -> IntSeries:
    """Series of a rational function from integer coefficient lists.

    With d_0 = 1 or -1 (so 1/d_0 = d_0), comparing z^k in num = den * c
    gives c_k = d_0 (n_k - sum_{i=1}^{deg den} d_i c_{k-i}): O(N deg den)
    products.
    """
    num = tuple(numerator) + (0,) * (N + 1 - len(numerator))
    den = tuple(denominator) + (0,) * (N + 1 - len(denominator))
    num, den = IntSeries(num[: N + 1]), IntSeries(den[: N + 1])
    d0 = den[0]
    if d0 not in (1, -1):
        raise ArithmeticError(f"reciprocal needs constant term 1 or -1, got {d0}")
    tail = _trimmed(den.coefficients)[1:]
    c = []
    for n in num.coefficients:
        c.append(d0 * (n - sum(map(mul, tail, reversed(c)))))
    return IntSeries(tuple(c))


def orbit_counts(D: IntSeries) -> OrbitCounts:
    """#Per_n = n [z^n] log zeta and prime-orbit counts N(p), for the zeta
    function zeta = 1 / ((1 - z) D) of a kneading determinant, to D's order.

    With D's exact pair P / R (P = D and R = 1 when it has none),
    sum #Per_n z^n = z zeta'/zeta = s((1 - z) P) - s(R), where s(f) =
    -z f'/f = sum s_n z^n.  With f normalised to f_0 = 1, -z f' = f s(f)
    compared at z^n is the Newton identity of f's power sums,
    s_n = -n f_n - sum_{i=1}^{min(n-1, deg f)} f_i s_{n-i}: integers and no
    division, so only the sign of #Per_n needs checking.  O(N (deg P +
    deg R)) products: O(N (m + p)) for an eventually periodic stream, O(N^2)
    for a truncation.  Negative counts mean the input is not a truncation of
    a topological zeta function and raise; the first negative #Per_n, or if
    none the first negative N(p), is the one reported.

    The sieve divides exactly.  (1 - z) P and R have constant term +-1, as
    D_0 = 1 and IntSeries checks R_0 = +-1 and P_0 = R_0 D_0.  Such an
    integer series f factors as f / f_0 = prod_{n >= 1} (1 - z^n)^(a_n),
    integer a_n (the necklace, or Witt, factorisation: each a_n is fixed by
    the z^n coefficient, with no division).  Then s(f) = sum n a_n z^n /
    (1 - z^n), so s_n = sum_{d | n} d a_d; with a for (1 - z) P and b for
    R, the sieve leaves p (a_p - b_p) at p, and N(p) = a_p - b_p.
    """
    if D[0] != 1:
        raise ValueError("determinant must have constant term 1")
    N = D.order
    P, R = D.exact or (D.coefficients, (1,))
    # s_1..s_N read f_0..f_N alone, so P and R are cut there
    per = list(map(sub, _power_sums(_times_one_minus_z(P[: N + 1]), N),
                   _power_sums(R[: N + 1], N)))
    for n, v in enumerate(per, start=1):
        if v < 0:
            raise ArithmeticError(f"#Per_{n} = {v} is not a nonnegative integer")
    # #Per_m = sum_{d | m} d N(d), solved by a sieve: once every proper
    # divisor p of m has been subtracted from rest[m], it is m N(m).  O(N log N)
    # steps
    rest = [0] + per
    prime = {}
    for p in range(1, N + 1):
        prime[p] = rest[p] // p
        if prime[p] < 0:
            raise ArithmeticError(f"orbit count N({p}) = {prime[p]} is negative")
        for m in range(2 * p, N + 1, p):
            rest[m] -= rest[p]
    return OrbitCounts(dict(enumerate(per, start=1)), prime)


def _times_one_minus_z(f) -> list:
    """Coefficients of (1 - z) f."""
    return [a - b for a, b in zip([*f, 0], [0, *f])]


def _trimmed(c):
    """c without its trailing zeros; the constant term always stays."""
    d = len(c)
    while d > 1 and not c[d - 1]:
        d -= 1
    return c[:d]


def _power_sums(f, N: int) -> list:
    """s_1..s_N of -z f'/f for f_0 = +-1 (see orbit_counts)."""
    a = [f[0] * x for x in _trimmed(f)[1:]]  # f / f_0, as 1/f_0 = f_0
    s = []
    for n in range(1, N + 1):
        s.append((-n * a[n - 1] if n <= len(a) else 0) - sum(map(mul, a, reversed(s))))
    return s


# ---------------------------------------------------------------------------
# entropy: certified isolation of the smallest determinant root in (0, 1)

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
    return _trimmed(q[: deg - e + 1])


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


def _sign(poly: list, x) -> int:
    """Sign of poly at x = a/b: that of the integer sum c_i a^i b^(d-i)."""
    a, b = x.numerator, x.denominator
    v, bk = 0, 1
    for c in reversed(poly):
        v = v * a + c * bk
        bk *= b
    return (v > 0) - (v < 0)


def _taylor_shift(q: list) -> list:
    """Coefficients of q(t + 1): d synthetic divisions by t - 1, each a run of
    partial sums from the leading coefficient down."""
    q = q[::-1]
    for n in range(len(q), 1, -1):
        q[:n] = accumulate(q[:n])
    return q[::-1]


def _certify_positive(poly: list, x) -> bool:
    """True only if poly > 0 on [0, x]; False when that cannot be shown.

    q(t) = b^d poly(a t / b) carries [0, x = a/b] to [0, 1].  The positive
    roots of T(t) = (1 + t)^d q(1 / (1 + t)) (q reversed, then shifted by 1)
    are the roots of q in (0, 1), so by Descartes' rule T has none when its
    coefficients show no sign change, V = 0 (Collins and Akritas, SYMSAC
    1976).  T(0) = q(1) and the leading coefficient of T, q(0), are kept
    positive (both ends at the top, each midpoint before a split), so V is
    even, and V = 0 means no coefficient of T is negative; it holds once no
    root lies in the disc with the interval as diameter.  Otherwise the
    interval is halved, into 2^d q(t / 2) and its shift by 1.  A tangent
    root keeps V even and nonzero, so bisection stops at depth 24, a width
    of 2^-24 of [0, x].
    """
    if _sign(poly, 0) <= 0 or _sign(poly, x) <= 0:
        return False
    a, b = x.numerator, x.denominator
    d = len(poly) - 1
    stack = [([c * a ** i * b ** (d - i) for i, c in enumerate(poly)], 0)]
    while stack:
        q, depth = stack.pop()
        if min(_taylor_shift(q[::-1])) >= 0:
            continue
        if depth == 24:
            return False
        left = [c << (d - i) for i, c in enumerate(q)]
        right = _taylor_shift(left)
        if right[0] <= 0:
            return False
        stack += ((left, depth + 1), (right, depth + 1))
    return True


def _exact_root(poly: list, x: Fraction, failure: str) -> EntropyResult:
    """Result for the root x = a/b of poly, certified as the smallest.

    a - b z is primitive, so by Gauss's lemma it divides poly over Z and the
    quotient is exact.  1 - z/x = (a - b z)/a with a > 0, so the quotient has
    the sign of poly / (1 - z/x) on [0, x).
    """
    a, b = x.numerator, x.denominator
    quotient, prev = [], 0
    for c in poly[:-1]:
        prev = (c + b * prev) // a
        quotient.append(prev)
    if not _certify_positive(quotient, x):
        raise EntropyInconclusive(failure)
    h = -math.log(x)
    return EntropyResult(max(0.0, h - _PAD), h + _PAD, "exact-rational-root", (x, x))


def entropy(D: IntSeries, *, tol=Fraction(1, 10 ** 10)) -> EntropyResult:
    """Certified enclosure for the entropy h = -log z* from a kneading
    determinant D.

    z* is the smallest root of D in (0, 1); when D provably has no such
    root the entropy is 0.  A determinant with an exact pair (P, R) (a
    periodic or eventually periodic stream) gives one polynomial P with the
    sign of D, upper = lower.  Any other D must be 1 + sum of
    eps_k z^k with every eps_k = +-1, the order-N truncation of a generated
    stream's determinant, or ValueError is raised.  Its tail then has
    coefficients of modulus at most 1, so |D - P| is at most x^(N+1)/(1-x)
    on [0, 1) for P = D's coefficients.  Multiplying by 1 - x > 0, D(x) > 0 once
    P(x) > x^(N+1)/(1-x), that is once upper = P (1 - z) - z^(N+1) is
    positive at x, and D(x) < 0 once P(x) < -x^(N+1)/(1-x), that is once
    lower = P (1 - z) + z^(N+1) is negative.  EntropyInconclusive is raised
    when a sign that neither settles blocks the certificate.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if tol >= Fraction(4, 3):
        # the no-root cutoff 1 - 3 tol / 4 must stay above 0
        raise ValueError("tolerance must be below 4/3")

    N = D.order
    if D.exact is not None:
        upper = lower = _strip_unit_factors(list(D.exact[0]))
        if upper == [1]:
            return EntropyResult(0.0, 0.0, "unit-root-factors")
    else:
        if D[0] != 1 or any(c not in (1, -1) for c in D.coefficients[1:]):
            raise ValueError("a series not from kneading_determinant must be "
                             "1 + sum of +-1 z^k")
        if N < 8:
            raise ValueError("order too small for a meaningful tail bound")
        poly = list(D.coefficients)
        upper, lower = ([c - p for c, p in zip(poly + [e], [0] + poly)] for e in (-1, 1))
    exact = upper is lower

    def probe(x) -> int:
        # 1 or -1 where certified; 0 at an exact root or where the tail
        # bound leaves the sign open
        s = _sign(upper, x)
        if s > 0 or exact:
            return s
        return -1 if _sign(lower, x) < 0 else 0

    # scan for the leftmost certified sign change (the grid includes 1 only
    # in the exact case; the tail bound diverges there)
    last_pos = Fraction(0)
    for x in (Fraction(k, 64) for k in range(1, 65 if exact else 64)):
        s = probe(x)
        if s == 0 and exact:
            return _exact_root(upper, x, "rational root found but smallest-root "
                                         "certificate failed; increase N")
        if s < 0:
            break
        if s > 0:
            last_pos = x
    else:
        # no certified sign change: try to push a no-root certificate to a
        # cutoff close enough to 1 that the residual entropy fits inside tol
        cutoff = 1 - Fraction(3, 4) * tol
        if _certify_positive(upper, cutoff):
            # a cutoff below the smallest float is logged from its parts
            h_hi = (-math.log(float(cutoff)) if float(cutoff) else
                    math.log(cutoff.denominator) - math.log(cutoff.numerator)) + _PAD
            return EntropyResult(0.0, h_hi, "no-root-below", (cutoff, Fraction(1)))
        raise EntropyInconclusive(
            f"no root isolated and no-root certificate failed at order {N}; increase N"
        )

    a, b = last_pos, x
    if not _certify_positive(upper, a):
        raise EntropyInconclusive(
            "sign change found but positivity left of it failed; increase N"
        )
    while (b - a) / a > Fraction(4, 5) * tol:
        # the midpoint may sit on the root itself and resist signing under
        # the tail bound; fall back to off-center probes before declaring the
        # whole strip uncertifiable
        for num, den in ((1, 2), (3, 7), (4, 7), (2, 7), (5, 7)):
            mid = a + (b - a) * Fraction(num, den)
            s = probe(mid)
            if s == 0 and exact:
                return _exact_root(upper, mid, "smallest-root certificate failed")
            if s:
                a, b = (mid, b) if s > 0 else (a, mid)
                break
        else:
            raise EntropyInconclusive(
                f"tail bound at order {N} cannot sign any probe; increase N"
            )
    h_lo = max(0.0, -math.log(float(b)) - _PAD)
    h_hi = -math.log(float(a)) + _PAD
    return EntropyResult(h_lo, h_hi, "bisection", (a, b))
