"""Binary words, infinite symbol streams, substitutions, and the
period-doubling kneading hierarchy.

Finite words are plain '0'/'1' strings.  Infinite streams are exposed
through 1-based access: ``s.at(1)`` is the first symbol.
"""

from __future__ import annotations

import threading

_FLIP = str.maketrans("01", "10")


class _Record:
    """Base of the layers' frozen records: ``dataclass(frozen=True)`` without
    importing ``dataclasses``, which pulls ``inspect`` and ``ast`` into start-up.
    The fields are the class annotations in order and a class value is a
    field's default; ``__post_init__`` runs last and may set a field with
    ``object.__setattr__``.  ``==`` holds only within one class."""

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls.__annotations__
        if not kwargs and len(args) == len(fields):
            # every field given in order: the common call, bound directly
            self.__dict__.update(zip(fields, args))
        else:
            given = dict(zip(fields, args), **kwargs)
            if len(given) < len(args) + len(kwargs) or not given.keys() <= fields.keys():
                raise TypeError(f"{cls.__name__}() got unexpected or repeated arguments")
            for name in fields:
                if name not in given and name not in cls.__dict__:
                    raise TypeError(f"{cls.__name__}() missing argument {name!r}")
                self.__dict__[name] = given.get(name, cls.__dict__.get(name))
        if hasattr(cls, "__post_init__"):
            self.__post_init__()

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, type(self).__annotations__))

    def __repr__(self):
        fields = zip(type(self).__annotations__, self._values())
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in fields)})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


def check_word(bits: str) -> str:
    """Validate a finite binary word; returns it unchanged."""
    if not isinstance(bits, str) or set(bits) - {"0", "1"}:
        raise ValueError(f"not a binary word: {bits!r}")
    return bits


def complement(bits: str) -> str:
    return bits.translate(_FLIP)


def parity_word(bits: str) -> str:
    """Running parities t_k = s_1 ^ ... ^ s_k of a 0/1 word.

    The word is read as one integer with s_1 as its top bit; prefix-xor
    doubling (x ^= x >> 1, 2, 4, ...) leaves t_k in the place of s_k after
    log2(n) big-integer steps, with no per-symbol Python work.
    """
    n = len(bits)
    if not n:
        return ""
    x = int(bits, 2)
    s = 1
    while s < n:
        x ^= x >> s
        s <<= 1
    return format(x, "b").zfill(n)


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
        # Images of one length L over Latin-1 symbols: the r-th letters of
        # the images, as byte tables, fill positions r, r + L, r + 2L, ...
        # of the output in one bytes.translate each.
        self._columns = None
        lengths = {len(w) for w in self.images.values()}
        if len(lengths) == 1 and all(ord(a) < 256 for a in self.alphabet):
            src = "".join(self.images).encode("latin-1")
            self._columns = tuple(
                bytes.maketrans(src, "".join(w[r] for w in self.images.values())
                                .encode("latin-1"))
                for r in range(lengths.pop()))

    def apply(self, word: str) -> str:
        if not self.alphabet.issuperset(word):
            raise KeyError(next(c for c in word if c not in self.alphabet))
        return self._expand(word)

    def _expand(self, word: str) -> str:
        """apply() without the alphabet check, for words over the alphabet."""
        if self._columns is None:
            return word.translate(self._table)
        src = word.encode("latin-1")
        L = len(self._columns)
        out = bytearray(L * len(src))
        for r, column in enumerate(self._columns):
            out[r::L] = src.translate(column)
        return out.decode("latin-1")

    def __eq__(self, other):
        return isinstance(other, SubstitutionRule) and self.images == other.images

    def __repr__(self):
        body = ", ".join(f"{a}->{w}" for a, w in sorted(self.images.items()))
        return f"SubstitutionRule({body})"


def substitute(rule: SubstitutionRule, word: str) -> str:
    """Apply ``rule`` once to every symbol of ``word``."""
    return rule.apply(word)


FEIGENBAUM_RULE = SubstitutionRule({"1": "10", "0": "11"})
THUE_MORSE_RULE = SubstitutionRule({"0": "01", "1": "10"})


class SymbolStream:
    """Infinite symbol sequence s_1 s_2 s_3 ... (1-based)."""

    def at(self, k: int) -> int:
        raise NotImplementedError

    def prefix(self, n: int) -> str:
        raise NotImplementedError

    def _check_index(self, k: int) -> None:
        if k < 1:
            raise IndexError(f"stream indices are 1-based, got {k}")

    def _check_length(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"prefix length must be >= 0, got {n}")


class PeriodicStream(SymbolStream):
    """Eventually periodic stream, stored in canonical form.

    Canonical means the period word is primitive (not a repetition of a
    shorter word) and the preperiod is as short as possible; equality of
    canonical forms is equality of streams.
    """

    def __init__(self, preperiod: str, period: str):
        check_word(preperiod)
        check_word(period)
        if not period:
            raise ValueError("period must be nonempty")
        period = minimal_period(period)
        # Absorb preperiod symbols that the period already produces.  Each
        # step rotates the period, and a rotation of a primitive word is
        # primitive, so the period stays minimal.
        while preperiod and preperiod[-1] == period[-1]:
            preperiod = preperiod[:-1]
            period = period[-1] + period[:-1]
        self.preperiod = preperiod
        self.period = period

    def at(self, k: int) -> int:
        self._check_index(k)
        m = len(self.preperiod)
        if k <= m:
            return int(self.preperiod[k - 1])
        return int(self.period[(k - m - 1) % len(self.period)])

    def prefix(self, n: int) -> str:
        self._check_length(n)
        m = len(self.preperiod)
        if n <= m:
            return self.preperiod[:n]
        reps = (n - m) // len(self.period) + 1
        return (self.preperiod + self.period * reps)[:n]

    def __eq__(self, other):
        return (
            isinstance(other, PeriodicStream)
            and self.preperiod == other.preperiod
            and self.period == other.period
        )

    def __hash__(self):
        return hash((self.preperiod, self.period))

    def __repr__(self):
        return f"PeriodicStream({self.preperiod!r}, {self.period!r})"


class _MemoizedStream(SymbolStream):
    """Stream that materializes prefixes on demand, growing geometrically."""

    _MIN_GROW = 64

    def __init__(self):
        self._lock = threading.Lock()
        self._buf = ""

    def _compute_prefix(self, n: int) -> str:
        raise NotImplementedError

    def prefix(self, n: int) -> str:
        self._check_length(n)
        if len(self._buf) < n:
            with self._lock:
                if len(self._buf) < n:
                    target = max(n, 2 * len(self._buf), self._MIN_GROW)
                    self._buf = self._compute_prefix(target)
        return self._buf[:n]

    def at(self, k: int) -> int:
        self._check_index(k)
        return int(self.prefix(k)[k - 1])


class FixedPointStream(_MemoizedStream):
    """Fixed point of a substitution, determined by its first letter.

    Requires the image of ``letter`` to start with ``letter`` and the
    iteration to grow, so the fixed point exists and is unique.
    """

    def __init__(self, rule: SubstitutionRule, letter: str):
        super().__init__()
        if letter not in rule.alphabet:
            raise ValueError(f"{letter!r} not in rule alphabet")
        if not rule.images[letter].startswith(letter):
            raise ValueError(f"image of {letter!r} must start with it")
        self.rule = rule
        self.letter = letter

    def _compute_prefix(self, n: int) -> str:
        # the iterates stay over the rule's alphabet, so no symbol check
        w = self.letter
        while len(w) < n:
            grown = self.rule._expand(w)
            if len(grown) <= len(w):
                raise ValueError("substitution iteration does not grow")
            w = grown
        return w[:n]

    def __repr__(self):
        return f"FixedPointStream({self.rule!r}, {self.letter!r})"


class FunctionStream(_MemoizedStream):
    """Stream defined by a 1-based symbol function."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def _compute_prefix(self, n: int) -> str:
        return "".join(str(self.fn(k)) for k in range(1, n + 1))


class _DerivedStream(_MemoizedStream):
    """Stream read off a base stream prefix by prefix: its first n symbols
    are derive(base.prefix(stretch * n + skip))[:n].  Shifts, the
    every-second-symbol renormalizations and the parity recodings of
    generated streams are all of this form."""

    def __init__(self, base: SymbolStream, derive, stretch: int = 1, skip: int = 0):
        super().__init__()
        self.base = base
        self.derive = derive
        self.stretch = stretch
        self.skip = skip

    def _compute_prefix(self, n: int) -> str:
        return self.derive(self.base.prefix(self.stretch * n + self.skip))[:n]


def shift(s: SymbolStream, m: int = 1) -> SymbolStream:
    """Drop the first ``m`` symbols."""
    if m < 0:
        raise ValueError("shift distance must be >= 0")
    if m == 0:
        return s
    if isinstance(s, PeriodicStream):
        pre, per = s.preperiod, s.period
        if m < len(pre):
            return PeriodicStream(pre[m:], per)
        r = (m - len(pre)) % len(per)
        return PeriodicStream("", per[r:] + per[:r])
    return _DerivedStream(s, lambda w: w[m:], skip=m)


def fixed_point_prefix(rule: SubstitutionRule, letter: str, n: int) -> str:
    """First ``n`` symbols of the substitution fixed point starting at ``letter``."""
    return FixedPointStream(rule, letter).prefix(n)


def _every_second(s: SymbolStream, flip: bool) -> SymbolStream:
    """s_2 s_4 s_6 ..., complemented when ``flip``: the period-doubling
    renormalization of kneading sequences (flip) and of digit streams."""
    def derive(w: str) -> str:
        return complement(w[1::2]) if flip else w[1::2]

    if isinstance(s, PeriodicStream):
        # the preperiod halves (rounding up); an even period halves, an odd
        # one is read twice over before it repeats
        n = len(s.period)
        pre_len = (len(s.preperiod) + 1) // 2
        out = derive(s.prefix(2 * pre_len + (2 * n if n % 2 else n)))
        return PeriodicStream(out[:pre_len], out[pre_len:])
    return _DerivedStream(s, derive, stretch=2)


def renormalize_seq(s: SymbolStream) -> SymbolStream:
    """Sequence renormalization: k-th output symbol is the complemented
    2k-th input symbol."""
    return _every_second(s, flip=True)


def feigenbaum_word(j: int) -> str:
    """Period word of the j-th kneading sequence in the doubling cascade.

    Level 1 is "1"; level j has length 2^(j-1) and an odd number of 1s.
    Each level is the previous word twice over, its last symbol flipped.
    """
    if j < 1:
        raise ValueError("level must be >= 1")
    w = "1"
    for _ in range(j - 1):
        w = w + w[:-1] + complement(w[-1])
    return w


def feigenbaum_stream(j: int) -> PeriodicStream:
    """The j-th cascade kneading sequence as a periodic stream."""
    return PeriodicStream("", feigenbaum_word(j))


def feigenbaum_limit() -> FixedPointStream:
    """The aperiodic limit kneading sequence (fixed point of 1->10, 0->11)."""
    return FixedPointStream(FEIGENBAUM_RULE, "1")


# === serialization =====================================================

def stream_to_json(s: SymbolStream) -> dict:
    if isinstance(s, PeriodicStream):
        return {"preperiod": s.preperiod, "period": s.period}
    if isinstance(s, FixedPointStream):
        return {"rule": dict(s.rule.images), "prefix": s.letter}
    raise TypeError(f"cannot serialize {type(s).__name__}")


def stream_from_json(obj: dict) -> SymbolStream:
    if "period" in obj:
        return PeriodicStream(obj.get("preperiod", ""), obj["period"])
    if "rule" in obj:
        return FixedPointStream(SubstitutionRule(obj["rule"]), obj["prefix"])
    raise ValueError(f"unrecognized stream object: {obj!r}")
