"""Floating-point unimodal families: itineraries, renormalization, validation.

Floats live only in this module; every symbol carries a reliability flag
marking orbit points that came within eta of the critical point.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .words import _Record, complement, parity_word

_BOUNDARY_TOL = 1e-12


class OrbitEscapeError(RuntimeError, ValueError):
    """The orbit left [0, 1]; the parameter is outside the family's range.
    That is bad input, so it is a ValueError too."""


class NotRenormalizableError(RuntimeError):
    """The map has no admissible (a, b) geometry for renormalization."""


class UnimodalMap(_Record):
    """A map of [0, 1] with its peak at c0 and the endpoints mapped to 0.

    ``closed`` declares that fn maps every double in [0, 1] into [0, 1], so
    no orbit from [0, 1] can escape and its remaining steps are skipped once
    an answer is settled.  Only constructors that prove it set it."""
    family: str
    parameter: float
    fn: Callable[[float], float]
    c0: float
    eta: float = 1e-9
    closed: bool = False

    def __post_init__(self):
        if not 0 < self.c0 < 1:
            raise ValueError("critical point must lie in (0, 1)")
        if not self.eta > 0:
            raise ValueError("reliability band must be positive")
        for e in (0.0, 1.0):
            if not abs(self.fn(e)) <= 1e-9:
                raise ValueError("endpoints must map to 0")


def _logistic(r: float) -> Callable[[float], float]:
    """The logistic step, evaluated as (r x)(1 - x)."""
    return lambda x: r * x * (1.0 - x)


def logistic_map(r: float, eta: float = 1e-9) -> UnimodalMap:
    """x -> r x (1 - x), peak 1/2; closed for 0 < r <= 4.

    Proof: rounding is monotone, so a = fl(r x) <= fl(4 x) = 4 x.  For
    x >= 1/2, 1 - x is exact (Sterbenz) and a (1 - x) <= 4 x (1 - x) <= 1.
    For x < 1/4 both factors are below 1.  For 1/4 <= x = 1/2 - d < 1/2,
    1 - x = 1/2 + d lies in [1/2, 1), where doubles are 2^-53 apart, so
    b = fl(1 - x) <= 1/2 + d + 2^-54 and a b <= (2 - 4 d)(1/2 + d + 2^-54)
    = 1 + 2^-53 - 4 d^2 - d 2^-52 < 1 + 2^-53, which rounds to at most 1.
    No factor is negative, so no image is.  The bound is tight: at
    r = nextafter(4, 5), x = 0.49999999254941946 maps to 1.0000000000000002.
    """
    if r <= 0:
        raise ValueError("parameter must be positive")
    return UnimodalMap("logistic", r, _logistic(r), 0.5, eta, r <= 4.0)


def tent_map(slope: float = 2.0, eta: float = 1e-9) -> UnimodalMap:
    """x -> s x below 1/2 and s (1 - x) from 1/2, peak 1/2; closed for
    0 < s <= 2.

    Proof: rounding is monotone.  For x < 1/2, fl(s x) <= fl(2 x) = 2 x < 1.
    For x >= 1/2, 1 - x is exact (Sterbenz), so fl(s (1 - x)) <= 2 (1 - x)
    <= 1.  No factor is negative, so no image is.
    """
    if slope <= 0:
        raise ValueError("slope must be positive")
    return UnimodalMap(
        "tent", slope,
        lambda x: slope * x if x < 0.5 else slope * (1.0 - x),
        0.5, eta, slope <= 2.0,
    )


def _orbit(m: UnimodalMap, x: float, n: int) -> list[float]:
    """The first n points of the orbit of x, clamped into [0, 1]; fn runs n
    times, so an escape on the last step still raises (that point is dropped)."""
    if n < 1:
        raise ValueError("need at least one symbol")
    if not -_BOUNDARY_TOL <= x <= 1 + _BOUNDARY_TOL:
        raise ValueError("starting point outside [0, 1]")
    fn, pts = m.fn, []
    u = 0.0 if x < 0.0 else 1.0 if x > 1.0 else x
    for step in range(1, n + 1):
        pts.append(u)
        u = fn(u)
        if not 0.0 <= u <= 1.0:
            if not -_BOUNDARY_TOL <= u <= 1 + _BOUNDARY_TOL:
                raise OrbitEscapeError(f"orbit left [0, 1] at step {step}: {u!r}")
            u = 0.0 if u < 0.0 else 1.0
    return pts


def itinerary(m: UnimodalMap, x: float, n: int) -> tuple[str, tuple[bool, ...]]:
    """n symbols of the orbit of x; 1 when the point is >= c0.  A symbol is
    flagged unreliable when the point sits within eta of the critical point,
    where float error can flip it."""
    pts, c0, eta = _orbit(m, x, n), m.c0, m.eta
    return ("".join(["1" if p >= c0 else "0" for p in pts]),
            tuple([abs(p - c0) >= eta for p in pts]))


def kneading(m: UnimodalMap, n: int) -> tuple[str, tuple[bool, ...]]:
    """Itinerary of the critical value f(c0)."""
    c1 = m.fn(m.c0)
    if not -_BOUNDARY_TOL <= c1 <= 1 + _BOUNDARY_TOL:
        raise OrbitEscapeError(f"critical value outside [0, 1]: {c1!r}")
    return itinerary(m, c1, n)


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


def superstable_parameter(period: int, lo: float, hi: float,
                          tol: float = 1e-12) -> float:
    """Logistic parameter where the critical orbit returns in `period` steps.

    Bisection on the sign of f^period(c0) - c0, which is the kneading
    symbol that flips across the superstable parameter.
    """
    if period < 1:
        raise ValueError("period must be positive")

    def g(r: float) -> float:
        m = logistic_map(r)
        u = m.c0
        for _ in range(period):
            u = m.fn(u)
        return u - m.c0

    return _bisect(g, lo, hi, tol)


def band_merging_parameter(lo: float = 3.6, hi: float = 3.7,
                           tol: float = 1e-12) -> float:
    """Logistic parameter where the third critical image hits the fixed point."""

    def g(r: float) -> float:
        m = logistic_map(r)
        u = m.c0
        for _ in range(3):
            u = m.fn(u)
        return u - (1.0 - 1.0 / r)

    return _bisect(g, lo, hi, tol)


class Lemma1Report(_Record):
    pairs_tested: int
    pairs_decided: int
    pairs_excluded: int
    violations: int


def lemma1_validate(m: UnimodalMap, pairs: int, n: int, seed: int = 0) -> Lemma1Report:
    """Sampled check that digit-stream order never contradicts point order.

    Pairs whose digit words agree to length n, or whose symbols are
    unreliable anywhere up to the first discrepancy, are excluded.  Digits
    t_k = s_0 xor ... xor s_k first differ where symbols do, at d, so x < y
    is contradicted exactly when x's t_d, the parity of s_0..s_d, is 1.  A
    closed map's orbits are stepped together only until the pair is
    settled; any other map's are stepped all n times, x first, so escapes
    raise as in itinerary.
    """
    if pairs < 0:
        raise ValueError("pairs must be >= 0")
    if n < 1:
        # with no pairs no orbit is stepped, so n is checked here
        raise ValueError("need at least one symbol")
    import random  # only sampling pays for the import
    rng = random.Random(seed)
    fn, c0, eta, closed = m.fn, m.c0, m.eta, m.closed
    tested = decided = violations = 0
    while tested < pairs:
        x, y = sorted([rng.random(), rng.random()])
        if x == y:
            continue
        tested += 1
        odd = False
        if closed:
            for _ in range(n):
                if not (abs(x - c0) >= eta and abs(y - c0) >= eta):
                    break
                odd ^= x >= c0
                if (x >= c0) != (y >= c0):
                    decided += 1
                    violations += odd
                    break
                x, y = fn(x), fn(y)
            continue
        for u, v in zip(_orbit(m, x, n), _orbit(m, y, n)):
            if not (abs(u - c0) >= eta and abs(v - c0) >= eta):
                break
            odd ^= u >= c0
            if (u >= c0) != (v >= c0):
                decided += 1
                violations += odd
                break
    return Lemma1Report(tested, decided, tested - decided, violations)


class ScanRow(_Record):
    r: float
    tau: float | None
    reliable_prefix: int


class ScanReport(_Record):
    rows: tuple[ScanRow, ...]
    decreases: int


def monotonicity_scan(r_grid, n: int) -> ScanReport:
    """Truncated tau along a logistic parameter grid; decreases are counted,
    not asserted away (plateaux and short reliable prefixes are expected).

    Each row is the kneading word of ``logistic_map(r)`` up to its first
    unreliable symbol.  Every r of the grid makes a closed map, so the
    critical orbit is stepped only that far, with no escape check."""
    grid = list(r_grid)
    if not grid or not all(2.9 <= r <= 4.0 for r in grid):
        raise ValueError("grid must stay within [2.9, 4.0]")
    eta = UnimodalMap.eta  # logistic_map's default band
    rows = []
    for r in grid:
        fn = _logistic(r)
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
        # 53 dyadic bits is a float), the nonzero rest added in order as
        # before (adding 0.0 leaves a sum unchanged); ldexp, not division by
        # 2.0 ** i, which overflows from i = 1024
        head = min(k, 53)
        tau = sum([math.ldexp(1.0, -i) for i in range(head + 1, k + 1) if digits[i - 1] == "1"],
                  math.ldexp(int(digits[:head], 2), -head))
        rows.append(ScanRow(r, tau, k))
    vals = [row.tau for row in rows if row.tau is not None]
    decreases = sum(1 for u, v in zip(vals, vals[1:]) if v < u)
    return ScanReport(tuple(rows), decreases)
