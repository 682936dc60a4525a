"""Admissible-word languages: enumeration, complexity counts, forbidden words."""

from __future__ import annotations

from .encoding import is_maximal, xi
from .symbolic import SymbolStream, _Record, complement, shift, unparity_word

MODES = ("core", "full-interval")

# the documented caps on word length: complexity counts without listing
# words but keeps the cap of the enumeration it replaced; language_words
# lists every word, and its output alone is exponential in nmax
ENUM_LIMIT = 24
WORD_LIMIT = 16


class LanguageQuery(_Record):
    """A language to enumerate: kneading stream, max word length, criterion.

    core mode keeps words compatible with the two-sided bound on every
    shifted suffix (candidate itineraries inside the core interval);
    full-interval mode drops the lower bound and keeps everything below
    the kneading digit stream.  Comparisons that run off the end of a
    finite word count as satisfiable.
    """

    K: SymbolStream
    nmax: int
    mode: str = "core"

    def __post_init__(self):
        if self.nmax < 1:
            raise ValueError("nmax must be positive")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


def _references(q: LanguageQuery):
    U = [int(c) for c in xi(q.K).prefix(q.nmax)]
    if q.mode != "core":
        return U, None
    return U, [int(c) for c in xi(shift(q.K, 1)).prefix(q.nmax)]


def _validate(q: LanguageQuery, limit: int):
    if q.nmax > limit:
        raise ValueError(
            f"refusing nmax={q.nmax}: enumeration may touch ~2^{q.nmax + 1} "
            f"nodes; keep nmax <= {limit}"
        )
    if is_maximal(q.K) is not True:
        raise ValueError("K is not a maximal stream")


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


def _advance(offsets, b, R, sign):
    """Live offsets after letter b, or None if some shift decides against R.

    A shift live at offset k >= 1 has matched R[:k]; its last digit was
    R[k - 1], so the next one is b ^ R[k - 1], compared with R[k].  The
    shift starting at the current position sees b, compared with R[0].
    sign is 1 for an upper reference (a digit above R kills the word) and
    -1 for a lower one.
    """
    out = []
    for k in offsets:
        diff = ((b ^ R[k - 1]) - R[k]) * sign
        if diff > 0:
            return None
        if diff == 0:
            out.append(k + 1)
    diff = (b - R[0]) * sign
    if diff > 0:
        return None
    return ((1,) if diff == 0 else ()) + tuple(out)


def complexity(q: LanguageQuery) -> list[int]:
    """Counts p(1), ..., p(nmax) of viable words of each length.

    The walk of _enumerate depends on a word only through the offsets of
    its live shifts into the references, so words are counted per state
    (live upper offsets, live lower offsets), one layer per length.  These
    states are the levels of the Hofbauer tower.  Every tested case has at
    most d + 1 states at length d, each with at most d offsets, so the cost
    is O(nmax^3) small-integer steps instead of the ~2^nmax words a walk
    visits.
    """
    _validate(q, ENUM_LIMIT)
    U, L = _references(q)
    layer = {((), () if L is not None else None): 1}
    counts = []
    for _ in range(q.nmax):
        nxt = {}
        for (lu, ll), cnt in layer.items():
            for b in (0, 1):
                nu = _advance(lu, b, U, 1)
                if nu is None:
                    continue
                nl = None
                if ll is not None:
                    nl = _advance(ll, b, L, -1)
                    if nl is None:
                        continue
                nxt[nu, nl] = nxt.get((nu, nl), 0) + cnt
        layer = nxt
        counts.append(sum(layer.values()))
    return counts


def language_words(q: LanguageQuery) -> dict[int, list[str]]:
    """The counted words themselves, keyed by length; for closure checks."""
    _validate(q, WORD_LIMIT)
    out: dict[int, list[str]] = {d: [] for d in range(1, q.nmax + 1)}

    def visit(d, word):
        out[d].append("".join(map(str, word[1:d + 1])))

    _enumerate(q, visit)
    return out


def forbidden_words(tdigits: SymbolStream, nmax: int) -> list[str]:
    """Words s_1 .. s_(j-1) s~_j for every zero digit t_j with j <= nmax.

    A zero at digit position j forces the symbol stream to carry s_j
    there; flipping that one letter produces a word no admissible
    sequence can start with.
    """
    if nmax < 1:
        raise ValueError("nmax must be positive")
    t = tdigits.prefix(nmax)
    s = unparity_word(t)
    return [s[:j] + complement(s[j]) for j in range(nmax) if t[j] == "0"]
