"""Admissible-word languages: enumeration, complexity counts, forbidden words."""

from __future__ import annotations

from itertools import chain

from ._base import _Record
from .encoding import is_maximal, xi
from .symbolic import SymbolStream, shift
from .words import complement, unparity_word

MODES = ("core", "full-interval")

# the documented caps on word length: complexity counts in O(nmax^3) steps
# (see _layers), so its cap of 24 is a documented bound, not a cost limit;
# language_words lists every word, and its output alone is exponential in nmax
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


def _validate(q: LanguageQuery, limit: int, refusal: str):
    if q.nmax > limit:
        raise ValueError(refusal)
    if not is_maximal(q.K):
        raise ValueError("K is not a maximal stream")


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


def _layers(q: LanguageQuery, start, grow):
    """One dict per length 1..nmax from the state of a viable word to a value.

    Whether a word extends depends on it only through the offsets of its
    live shifts into the references, so words are grouped per state (live
    upper offsets, live lower offsets).  The empty word gets start; after
    letter b a value becomes grow(value, b), and the values of states that
    merge are added.  These states are the levels of the Hofbauer tower.
    Every tested case has at most d + 1 states at length d, each with at
    most d offsets, so counting costs O(nmax^3) small-integer steps instead
    of the ~2^nmax words a walk visits.
    """
    U, L = _references(q)
    layer = {((), () if L is not None else None): start}
    for _ in range(q.nmax):
        nxt = {}
        for (lu, ll), value in layer.items():
            for b in (0, 1):
                nu = _advance(lu, b, U, 1)
                if nu is None:
                    continue
                nl = None
                if ll is not None:
                    nl = _advance(ll, b, L, -1)
                    if nl is None:
                        continue
                grown = grow(value, b)
                if (nu, nl) in nxt:
                    nxt[nu, nl] += grown
                else:
                    nxt[nu, nl] = grown
        layer = nxt
        yield layer


def complexity(q: LanguageQuery) -> list[int]:
    """Counts p(1), ..., p(nmax) of viable words of each length."""
    _validate(q, ENUM_LIMIT, f"nmax must be at most {ENUM_LIMIT}")
    return [sum(layer.values()) for layer in _layers(q, 1, lambda count, b: count)]


def language_words(q: LanguageQuery) -> dict[int, list[str]]:
    """The counted words themselves, keyed by length, each length's words in
    decreasing order; for closure checks."""
    _validate(q, WORD_LIMIT, f"refusing nmax={q.nmax}: enumeration may touch "
              f"~2^{q.nmax + 1} nodes; keep nmax <= {WORD_LIMIT}")
    layers = _layers(q, [""], lambda words, b: [w + "01"[b] for w in words])
    return {d: sorted(chain.from_iterable(layer.values()), reverse=True)
            for d, layer in enumerate(layers, start=1)}


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
