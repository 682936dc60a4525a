"""Symbol statistics of substitution fixed points, exact and empirical."""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from ._base import _Record
from .feigenbaum import PAIR_RULE, PAIR_TO_DIGITS
from .symbolic import FixedPointStream, SymbolStream
from .words import SubstitutionRule, _translate_columns


class IncidenceMatrix(_Record):
    """Counts entries[i][j] of alphabet[i] inside the image of alphabet[j]."""

    alphabet: tuple[str, ...]
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.alphabet)
        if len(self.entries) != n or any(len(r) != n for r in self.entries):
            raise ValueError("entries must be square over the alphabet")
        if any(x < 0 for r in self.entries for x in r):
            raise ValueError("entries must be nonnegative")

    @property
    def dim(self) -> int:
        return len(self.alphabet)


def _mat_mul(A, B):
    n = len(A)
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def incidence(rule: SubstitutionRule | dict) -> IncidenceMatrix:
    """Incidence matrix of a substitution, alphabet in sorted order."""
    if not isinstance(rule, SubstitutionRule):
        rule = SubstitutionRule(rule)
    alphabet = tuple(sorted(rule.alphabet))
    entries = tuple(
        tuple(rule.images[b].count(a) for b in alphabet) for a in alphabet
    )
    return IncidenceMatrix(alphabet, entries)


def _is_primitive(M: IncidenceMatrix) -> bool:
    # Wielandt: a primitive matrix has a strictly positive power by
    # exponent (n-1)^2 + 1
    limit = (M.dim - 1) ** 2 + 1
    P = M.entries
    for _ in range(limit):
        if all(x > 0 for row in P for x in row):
            return True
        P = _mat_mul(P, M.entries)
    return False


def _determinant(A) -> int:
    """Determinant of a square integer matrix by fraction-free elimination
    (Bareiss 1968): after step k every entry is a k + 1 by k + 1 minor, so
    each division by the previous pivot is exact."""
    A = [list(row) for row in A]
    n, sign, prev = len(A), 1, 1
    for k in range(n - 1):
        p = next((i for i in range(k, n) if A[i][k]), None)
        if p is None:
            return 0
        if p != k:
            A[k], A[p], sign = A[p], A[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[-1][-1] if n else 1


def perron_frobenius(M: IncidenceMatrix) -> tuple[int, tuple[Fraction, ...]]:
    """Integer leading eigenvalue and its positive eigenvector, sum 1.

    In a primitive M the Perron-Frobenius root rho is the only eigenvalue
    with a positive eigenvector, and rho lies between the least and the
    greatest column sum of M (Frobenius; Horn & Johnson, Matrix Analysis,
    Thm 8.1.22).  Column j of an incidence matrix sums to the length of
    the image of alphabet[j].

    For B = lam I - M, B adj B = det B I.  Column 0 of adj B is the integer
    vector v_i = (-1)^i det(B without row 0 and column i); expanding along
    row 0, det B = sum_i B_0i v_i, and if det B = 0 then B v = 0.  At rho,
    v > 0: rho is simple, so adj B = c v' w^T with Perron vectors v', w > 0,
    and c > 0, since tr adj B = d/dlam det(lam I - M) = c w^T v' is the
    derivative of a monic polynomial at its largest real root, a simple
    one.  At any other lam, det B != 0, or v is 0 or an eigenvector of
    another eigenvalue, so not positive.  So the first integer of the
    bracket, from the top, with det B = 0 and v > 0 is rho, and none is
    exactly when rho is not an integer.
    """
    if not _is_primitive(M):
        raise ValueError("matrix is not primitive: no power is strictly positive")
    n = M.dim
    # an empty alphabet has no columns: 0 alone is tried, and has no v
    sums = [sum(column) for column in zip(*M.entries)]
    for lam in range(max(sums, default=0), min(sums, default=0) - 1, -1):
        B = [[(lam if i == j else 0) - M.entries[i][j] for j in range(n)]
             for i in range(n)]
        v = [(-1) ** i * _determinant([row[:i] + row[i + 1:] for row in B[1:]])
             for i in range(n)]
        if v and sum(map(mul, B[0], v)) == 0 and min(v) > 0:
            assert _residual_zero(M, lam, v)
            total = sum(v)
            return lam, tuple(Fraction(x, total) for x in v)
    raise ArithmeticError("no integer eigenvalue carries a positive eigenvector")


def _residual_zero(M, lam, v):
    return all(sum(map(mul, row, v)) == lam * x for row, x in zip(M.entries, v))


def letter_frequencies(rule: SubstitutionRule | dict) -> dict[str, Fraction]:
    """Exact limiting letter frequencies of the substitution's fixed points."""
    M = incidence(rule)
    _, v = perron_frobenius(M)
    return dict(zip(M.alphabet, v))


def pair_frequencies() -> dict[str, Fraction]:
    """Exact frequencies of aligned digit pairs in the limit parameter.

    The digit stream is the image of the fixed point of the pair
    substitution, one letter per aligned (odd, even) digit pair, so its
    letter frequencies transfer directly.
    """
    by_letter = letter_frequencies(PAIR_RULE)
    return {PAIR_TO_DIGITS[a]: f for a, f in sorted(by_letter.items())}


def empirical_frequencies(
    stream: SymbolStream, block_len: int, N: int, aligned: bool = False
) -> dict[str, Fraction]:
    """Observed block frequencies over the first N symbols.

    Sliding windows by default; aligned=True advances in steps of
    block_len, which is the reading that matches the pair substitution.
    A uniform substitution's fixed point is counted without building its
    prefix (see _fixed_point_counts).
    """
    if block_len < 1:
        raise ValueError("block_len must be positive")
    if N < block_len:
        raise ValueError("prefix shorter than one block")
    step = block_len if aligned else 1
    counts = _fixed_point_counts(stream, block_len, N, step)
    if counts is None:
        counts = _tally(stream.prefix(N), block_len, step)
    total = len(range(0, N - block_len + 1, step))
    return {b: Fraction(c, total) for b, c in sorted(counts.items())}


# fixed-point windows over up to this many symbols are sliced from one
# materialized prefix and tallied
_DIRECT_LEN = 1 << 7


def _fixed_point_counts(stream, b: int, N: int, step: int) -> dict[str, int] | None:
    """Counts of the length-b windows at 0, step, 2 step, ... of the first
    N symbols of the fixed point u = phi(u) of a k-uniform rule, k >= 2,
    read through its coding if it has one; None for any other stream.

    A window at i = k q + r of phi(u) is phi(u[q:q+m])[r:r+b] with
    m = ceil((r + b) / k).  The starts i <= N - b with i = c (mod M) are
    those with q <= (N - b - r) // k and k q = c - r (mod M): none unless
    g = gcd(k, M) divides c - r, else one class q0 (mod M / g).  M is 1
    for sliding windows and b for aligned ones.  An l-uniform coding
    gamma is one more level, with gamma and l for phi and k.  Each level
    divides the length by about k and brings m down to at most 2, so there
    are O(log N) levels of few (length, m, M, c) states, memoized;
    each state maps the distinct windows its children found, at most the
    factor complexity of u (linear for automatic sequences; Allouche and
    Shallit, Automatic Sequences, 2003, ch. 10).  Lengths up to
    _DIRECT_LEN are sliced from one materialized prefix of u, an offset c
    as a slice, and tallied by _tally.  The counts are exact.
    """
    if not isinstance(stream, FixedPointStream):
        return None
    rule = stream.rule
    lengths = {len(w) for w in rule.images.values()}
    if len(lengths) != 1 or min(lengths) < 2:
        return None
    k = lengths.pop()
    base = FixedPointStream(rule, stream.letter).prefix(_DIRECT_LEN)
    memo = {}

    def windows(L, m, M, c):
        # windows u[q:q+m] with q <= L - m and q = c (mod M)
        key = L, m, M, c
        if key not in memo:
            memo[key] = (_tally(base[c:L], m, M) if L <= _DIRECT_LEN
                         else expand(rule._expand, k, L, m, M, c))
        return memo[key]

    def expand(h, K, L, m, M, c):
        # the windows of h(u) that windows() describes, from windows of u;
        # h is K-uniform
        g = gcd(K, M)
        Mq = M // g
        out = {}
        for r in range(K):
            Q = (L - m - r) // K
            if Q < 0 or (c - r) % g:
                continue
            n = -(-(r + m) // K)
            q0 = (c - r) // g * pow(K // g, -1, Mq) % Mq
            for w, count in windows(Q + n, n, Mq, q0).items():
                v = h(w)[r:r + m]
                out[v] = out.get(v, 0) + count
        return out

    if stream.coding is None:
        return windows(N, b, step, 0)
    code = stream._code
    return expand(lambda w: _translate_columns(code, w), len(code), N, b, step, 0)


def _tally(text: str, b: int, step: int) -> dict[str, int]:
    """Counts of the length-b windows of text starting at 0, step, 2 step,
    ..., one slice per window."""
    counts = {}
    for i in range(0, len(text) - b + 1, step):
        w = text[i:i + b]
        counts[w] = counts.get(w, 0) + 1
    return counts
