"""Symbol statistics of substitution fixed points, exact and empirical."""

from __future__ import annotations

from fractions import Fraction

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


def _kernel_vector(A):
    """One nonzero rational kernel vector of square A, or None."""
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


def perron_frobenius(M: IncidenceMatrix) -> tuple[int, tuple[Fraction, ...]]:
    """Integer leading eigenvalue and its positive eigenvector, sum 1.

    In a primitive M the Perron-Frobenius root rho is the only eigenvalue
    with a positive eigenvector, and rho lies between the least and the
    greatest column sum of M (Frobenius; Horn & Johnson, Matrix Analysis,
    Thm 8.1.22).  Column j of an incidence matrix sums to the length of
    the image of alphabet[j].  So the first integer of that bracket, tried
    from the top, whose kernel vector of M - lam I is positive (or
    negative) is rho, and none is exactly when rho is not an integer.
    """
    if not _is_primitive(M):
        raise ValueError(
            "matrix is not primitive: no power is strictly positive"
        )
    # an empty alphabet has no columns: 0 alone is tried, and has no kernel
    sums = [sum(column) for column in zip(*M.entries)]
    for lam in range(max(sums, default=0), min(sums, default=0) - 1, -1):
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


def _residual_zero(M, lam, v):
    return all(
        sum(M.entries[i][j] * v[j] for j in range(M.dim)) == lam * v[i]
        for i in range(M.dim)
    )


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
    is tallied with bytes.count.  Returns None (caller loops per position)
    when A^b > 256 or a symbol is not ASCII.
    """
    if not text.isascii():
        return None
    raw = text.encode("ascii")
    # the alphabet, one C pass per symbol: delete each newly seen symbol
    seen, rest = b"", raw
    while rest:
        seen += rest[:1]
        if len(seen) ** b > 256:
            return None
        rest = rest.translate(None, seen)
    alphabet = bytes(sorted(seen))
    A, n = len(alphabet), len(text)
    spread = sum(A ** r << 8 * (b - 1 - r) for r in range(b))
    # one expression, so each n-byte temporary is freed once consumed
    lanes = (int.from_bytes(raw.translate(bytes.maketrans(alphabet, bytes(range(A)))),
                            "big") * spread).to_bytes(n + b - 1, "big")[b - 1:n:step]
    counts = {}
    for code in range(A ** b):
        c = lanes.count(code)
        if c:
            word = []
            for _ in range(b):
                code, d = divmod(code, A)
                word.append(alphabet[d])
            counts[bytes(reversed(word)).decode("ascii")] = c
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
