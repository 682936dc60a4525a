"""Finite binary words and substitutions: the layer the exact layers build on.

Finite words are plain '0'/'1' strings.  A substitution maps each letter of
its alphabet to a nonempty word; its iterates and infinite streams live in
:mod:`kneading.symbolic`.  The record base and the parity kernel are in
:mod:`kneading._base`, so the float lab runs without this module.
"""

from __future__ import annotations

from ._base import _prefix_xor

_FLIP = str.maketrans("01", "10")


def check_word(bits: str) -> str:
    """Validate a finite binary word; returns it unchanged."""
    if not isinstance(bits, str) or set(bits) - {"0", "1"}:
        raise ValueError(f"not a binary word: {bits!r}")
    return bits


def complement(bits: str) -> str:
    return bits.translate(_FLIP)


def parity_word(bits: str) -> str:
    """Running parities t_k = s_1 ^ ... ^ s_k of a 0/1 word.

    The word is read as one integer with s_1 as its top bit, and
    ``_prefix_xor`` leaves t_k in the place of s_k.
    """
    n = len(bits)
    if not n:
        return ""
    return format(_prefix_xor(int(bits, 2), n), "b").zfill(n)


def unparity_word(bits: str) -> str:
    """Inverse of parity_word: s_k = t_k ^ t_(k-1), with t_0 = 0."""
    n = len(bits)
    if not n:
        return ""
    x = int(bits, 2)
    return format(x ^ (x >> 1), "b").zfill(n)


def minimal_period(word: str) -> str:
    """Shortest word whose repetition equals ``word``.

    A word equals its rotation by d exactly when d is a period of it that
    divides its length, so the first occurrence of the word inside
    word + word past position 0 is the length of its primitive root.
    """
    if not word:
        return word
    return word[:(word + word).find(word, 1)]


def _byte_columns(images: dict[str, str]) -> tuple[bytes, ...] | None:
    """Images of one length L >= 1 over Latin-1 symbols: the r-th letters of
    the images, as byte tables, fill positions r, r + L, r + 2L, ... of the
    output in one bytes.translate each.  None for any other images."""
    lengths = {len(w) for w in images.values()}
    if len(lengths) != 1 or 0 in lengths or max(
            map(ord, "".join(images) + "".join(images.values()))) > 255:
        return None
    src = "".join(images).encode("latin-1")
    return tuple(bytes.maketrans(src, "".join(w[r] for w in images.values())
                                 .encode("latin-1")) for r in range(lengths.pop()))


def _translate_columns(columns: tuple[bytes, ...], word: str) -> str:
    src = word.encode("latin-1")
    out = bytearray(len(columns) * len(src))
    for r, column in enumerate(columns):
        out[r::len(columns)] = src.translate(column)
    return out.decode("latin-1")


class SubstitutionRule:
    """Substitution on single-character symbols.

    Images must be nonempty words over the rule's own alphabet.
    """

    def __init__(self, images: dict[str, str]):
        self.images = dict(images)
        self.alphabet = frozenset(self.images)
        for a, w in self.images.items():
            if len(a) != 1:
                raise ValueError(f"symbols must be single characters: {a!r}")
            if not w or set(w) - self.alphabet:
                raise ValueError(f"bad image for {a!r}: {w!r}")
        self._table = str.maketrans(self.images)
        self._columns = _byte_columns(self.images)

    def apply(self, word: str) -> str:
        if not self.alphabet.issuperset(word):
            raise KeyError(next(c for c in word if c not in self.alphabet))
        return self._expand(word)

    def _expand(self, word: str) -> str:
        """apply() without the alphabet check, for words over the alphabet."""
        if self._columns is None:
            return word.translate(self._table)
        return _translate_columns(self._columns, word)

    def __eq__(self, other):
        return isinstance(other, SubstitutionRule) and self.images == other.images

    def __repr__(self):
        body = ", ".join(f"{a}->{w}" for a, w in sorted(self.images.items()))
        return f"SubstitutionRule({body})"


FEIGENBAUM_RULE = SubstitutionRule({"1": "10", "0": "11"})
THUE_MORSE_RULE = SubstitutionRule({"0": "01", "1": "10"})
