"""Symbol statistics of substitution fixed points, exact and empirical."""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .feigenbaum import PAIR_RULE, PAIR_TO_DIGITS, tau_infinity_digits
from .symbolic import SubstitutionRule, SymbolStream, _Record


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
    """
    if block_len < 1:
        raise ValueError("block_len must be positive")
    if N < block_len:
        raise ValueError("prefix shorter than one block")
    text = stream.prefix(N)
    step = block_len if aligned else 1
    counts = _lane_block_counts(text, block_len, step)
    if counts is None:
        counts = {}
        for i in range(0, N - block_len + 1, step):
            b = text[i:i + block_len]
            counts[b] = counts.get(b, 0) + 1
    total = len(range(0, N - block_len + 1, step))
    return {b: Fraction(c, total) for b, c in sorted(counts.items())}


def _lane_block_counts(text: str, b: int, step: int) -> dict[str, int] | None:
    """Counts of the length-b windows of text starting at 0, step, 2 step, ...

    Each symbol becomes its index in the sorted alphabet (radix A), one
    8-bit lane per symbol of a single integer T, first symbol on top.
    T * sum_r A^r 256^(b-1-r) adds, for r < b, T shifted up by b-1-r lanes
    times A^r, which puts the code sum_r s_(m-r) A^r of the window ending
    at symbol m into lane m: the window read as a base-A numeral.  Codes
    stay below A^b <= 256, so no lane carries into the next, and each code
    is tallied by _byte_tally.  Returns None (caller loops per position)
    when A^b > 256 or a symbol is not ASCII.
    """
    if not text.isascii():
        return None
    raw = text.encode("ascii")
    alphabet = bytes(sorted(_byte_tally(raw)))
    A, n = len(alphabet), len(text)
    if A ** b > 256:
        return None
    spread = sum(A ** r << 8 * (b - 1 - r) for r in range(b))
    # one expression, so each n-byte temporary is freed once consumed
    lanes = (int.from_bytes(raw.translate(bytes.maketrans(alphabet, bytes(range(A)))),
                            "big") * spread).to_bytes(n + b - 1, "big")[b - 1:n:step]
    # the code's base-A digits, most significant first, spell the window
    return {bytes(alphabet[code // A ** r % A] for r in reversed(range(b))).decode(): c
            for code, c in _byte_tally(lanes).items()}


def _byte_tally(data: bytes) -> dict[int, int]:
    """Count of each byte value present in data, one C pass per value:
    delete the first byte's value and record how many bytes went."""
    counts = {}
    while data:
        rest = data.translate(None, data[:1])
        counts[data[0]] = len(data) - len(rest)
        data = rest
    return counts


class NormalityReport(_Record):
    """Aligned pair statistics of the limit parameter's digits."""

    prefix_len: int
    frequencies: dict
    deviation_from_uniform: Fraction
    deviation_from_predicted: Fraction

    @property
    def non_normal_profile(self) -> bool:
        return self.deviation_from_predicted < self.deviation_from_uniform


def normality_report(N: int) -> NormalityReport:
    """Compare observed digit-pair frequencies against uniform and predicted."""
    observed = empirical_frequencies(tau_infinity_digits(), 2, N, aligned=True)
    predicted = pair_frequencies()
    blocks = sorted(set(observed) | set(predicted))
    zero = Fraction(0)
    dev_uniform = max(abs(observed.get(b, zero) - Fraction(1, 4)) for b in blocks)
    dev_predicted = max(
        abs(observed.get(b, zero) - predicted.get(b, zero)) for b in blocks
    )
    return NormalityReport(N, observed, dev_uniform, dev_predicted)
