import dataclasses
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kneading.symbolic import (
    FixedPointStream,
    PeriodicStream,
    feigenbaum_limit,
    feigenbaum_stream,
    feigenbaum_word,
    shift,
)
from kneading.words import (
    FEIGENBAUM_RULE,
    THUE_MORSE_RULE,
    SubstitutionRule,
    complement,
    minimal_period,
    parity_word,
    unparity_word,
)
import kneading
from kneading import cfrac, dynamics, encoding, feigenbaum, frequency, language, spectral
from kneading.symbolic import SymbolStream, _DerivedStream, _MemoizedStream
from kneading._base import _Record
from oracles import (
    GeneratedStream,
    divisor_scan_minimal_period,
    feigenbaum_word_via,
    renormalize_word,
    stepwise_canonical_form,
)

# Frozen period words of the doubling cascade, levels 1..5.
CASCADE_WORDS = {
    1: "1",
    2: "10",
    3: "1011",
    4: "10111010",
    5: "1011101010111011",
}


def test_minimal_period():
    assert minimal_period("10101010") == "10"
    assert minimal_period("1011") == "1011"
    assert minimal_period("111") == "1"


def test_minimal_period_matches_divisor_scan():
    assert minimal_period("") == "" == divisor_scan_minimal_period("")
    for n in range(1, 14):
        for x in range(1 << n):
            w = format(x, "b").zfill(n)
            assert minimal_period(w) == divisor_scan_minimal_period(w), w


def test_periodic_stream_canonical_form():
    # "1" then repeating "10" equals repeating "1" "01"... both reduce
    # to the same canonical pair.
    a = PeriodicStream("1", "01")
    b = PeriodicStream("", "10")
    assert a == b
    assert a.preperiod == ""
    assert a.period == "10"
    assert PeriodicStream("", "101101").period == "101"
    assert PeriodicStream("1", "1").preperiod == ""


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="01", max_size=12), st.text(alphabet="01", min_size=1, max_size=9),
       st.integers(0, 400))
@example("0", "1011", 40000)
@example("0", "101", 30002)  # the period rotates by 2 of 3
def test_periodic_stream_matches_stepwise_absorption(head, per, tail):
    # the preperiod ends in `tail` symbols of per^∞ up to a period boundary,
    # all absorbable unless `head` continues them
    pre = head + (per * tail)[(len(per) - 1) * tail:]
    s = PeriodicStream(pre, per)
    assert (s.preperiod, s.period) == stepwise_canonical_form(pre, per)


def test_periodic_stream_access_is_one_based():
    s = PeriodicStream("0", "10")
    assert s.prefix(5) == "01010"


def test_shift_periodic():
    s = PeriodicStream("01", "110")
    assert shift(s, 0) is s
    assert shift(s, 1) == PeriodicStream("1", "110")
    assert shift(s, 2) == PeriodicStream("", "110")
    assert shift(s, 4) == PeriodicStream("", "011")
    assert shift(shift(s, 3), 2) == shift(s, 5)


def test_shift_generated_prefix():
    limit = feigenbaum_limit()
    assert limit.prefix(8) == "10111010"
    assert shift(limit, 2).prefix(6) == "111010"


def test_substitute():
    assert FEIGENBAUM_RULE.apply("1") == "10"
    assert FEIGENBAUM_RULE.apply("10") == "1011"
    assert THUE_MORSE_RULE.apply("01") == "0110"
    with pytest.raises(ValueError):
        SubstitutionRule({"0": ""})
    with pytest.raises(ValueError):
        SubstitutionRule({"0": "01"})  # image uses a foreign symbol


# one rule per expansion branch: images of one length over Latin-1 symbols
# (residue-class byte tables) and the str.translate table otherwise
BRANCH_RULES = [
    THUE_MORSE_RULE,
    SubstitutionRule({"a": "ac", "b": "ad", "c": "da", "d": "db"}),
    SubstitutionRule({"0": "011", "1": "101"}),
    SubstitutionRule({"0": "01", "1": "0"}),
    SubstitutionRule({"\u03b1": "\u03b1\u03b2", "\u03b2": "\u03b2\u03b1"}),
]


def test_expansion_branch_selection():
    assert [r._columns is not None for r in BRANCH_RULES] == [
        True, True, True, False, False]


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from(BRANCH_RULES))
def test_apply_matches_symbol_by_symbol(data, rule):
    word = data.draw(st.text(alphabet=sorted(rule.alphabet), max_size=200))
    assert rule.apply(word) == "".join(rule.images[c] for c in word)


@pytest.mark.parametrize("rule", BRANCH_RULES)
def test_apply_rejects_foreign_symbols(rule):
    with pytest.raises(KeyError):
        rule.apply(min(rule.alphabet) + "x")


def test_fixed_point_prefix_stability():
    p64 = FixedPointStream(FEIGENBAUM_RULE, "1").prefix(64)
    p16 = FixedPointStream(FEIGENBAUM_RULE, "1").prefix(16)
    assert p64.startswith(p16)
    assert p16 == "1011101010111011"
    tm = FixedPointStream(THUE_MORSE_RULE, "0").prefix(16)
    assert tm == "0110100110010110"


def test_fixed_point_requires_growth_and_prefix_letter():
    with pytest.raises(ValueError):
        FixedPointStream(SubstitutionRule({"0": "0", "1": "1"}), "0").prefix(4)
    with pytest.raises(ValueError):
        FixedPointStream(THUE_MORSE_RULE, "x")
    with pytest.raises(ValueError):
        # image of '1' under 0->01, 1->00 does not start with '1'
        FixedPointStream(SubstitutionRule({"0": "01", "1": "00"}), "1")


@pytest.mark.parametrize("j,word", sorted(CASCADE_WORDS.items()))
@pytest.mark.parametrize("method", ["duplicate-flip", "index-doubling", "substitution"])
def test_feigenbaum_words_match_table(j, word, method):
    assert feigenbaum_word_via(j, method) == word


def test_feigenbaum_word_properties():
    for j in range(1, 15):
        w = feigenbaum_word(j)
        assert len(w) == 2 ** (j - 1)
        assert w.count("1") % 2 == 1
        assert feigenbaum_word(j + 1).startswith(w)


def test_feigenbaum_methods_agree_deep():
    for j in range(1, 15):
        a = feigenbaum_word_via(j, "duplicate-flip")
        b = feigenbaum_word_via(j, "index-doubling")
        c = feigenbaum_word_via(j, "substitution")
        assert a == b == c


def test_limit_structure():
    s = feigenbaum_limit()
    w = s.prefix(2 ** 12)
    # odd positions all 1, positions 2 mod 4 all 0 (1-based)
    assert all(w[k] == "1" for k in range(0, len(w), 2))
    assert all(w[k] == "0" for k in range(1, len(w), 4))
    assert w.startswith(feigenbaum_word(10))


def test_renormalize_seq_ladder():
    # sequence renormalization, the complemented even-position symbols,
    # takes each cascade level to the one below, two periods at a time
    for j in range(1, 14):
        n = 2 ** j
        above = feigenbaum_stream(j + 1).prefix(2 * n)
        assert complement(above[1::2]) == feigenbaum_stream(j).prefix(n)
    # the limit stream is a fixed point of renormalization
    w = feigenbaum_limit().prefix(1024)
    assert complement(w[1::2]) == w[:512]


# both sides of a memoized stream's first 64-symbol buffer
_EDGE_LENGTHS = (1, 63, 64, 65, 200)


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="01", max_size=5), st.text(alphabet="01", min_size=1, max_size=7),
       st.integers(0, 9))
def test_generated_branches_match_periodic(pre, per, m):
    # each stream operation reads a generated stream (the periodic stream
    # hidden behind its symbol function) as it reads the periodic one
    s = PeriodicStream(pre, per)
    ops = [lambda x: shift(x, m), encoding.xi, encoding.xi_inverse]
    for op in ops:
        want = op(s)
        got = op(GeneratedStream(s))
        assert [got.prefix(n) for n in _EDGE_LENGTHS] == [
            want.prefix(n) for n in _EDGE_LENGTHS]
        for k in _EDGE_LENGTHS:
            # a fresh stream each time, so prefix() also runs on an empty buffer
            assert op(GeneratedStream(s)).prefix(k)[k - 1] == want.prefix(k)[k - 1]
            assert got.prefix(k)[k - 1] == want.prefix(k)[k - 1]


def _renormalize_word_loop(word, flags=None):
    n = len(word) // 2
    out = "".join("1" if word[2 * i + 1] == "0" else "0" for i in range(n))
    if flags is None:
        return out
    return out, tuple(flags[2 * i + 1] for i in range(n))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(0, 41))
def test_renormalize_word_matches_index_loop(data, n):
    # the slicing oracle that criteria 11 and 14 use, against the index loop
    word = data.draw(st.text(alphabet="01", min_size=n, max_size=n))
    flags = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    assert renormalize_word(word) == _renormalize_word_loop(word)
    for f in (tuple(flags), flags):
        assert renormalize_word(word, f) == _renormalize_word_loop(word, f)


_periodic = st.builds(PeriodicStream, st.text(alphabet="01", max_size=5),
                      st.text(alphabet="01", min_size=1, max_size=7))


@st.composite
def _fixed_points(draw):
    # the letter's image starts with it and is longer, so the iteration grows
    letter = draw(st.sampled_from("01"))
    other = "10"["01".index(letter)]
    images = {letter: letter + draw(st.text(alphabet="01", min_size=1, max_size=3)),
              other: draw(st.text(alphabet="01", min_size=1, max_size=3))}
    # and, half the time, each letter is written as a binary word of one length
    coding = draw(st.none() | st.integers(1, 3).flatmap(lambda L: st.fixed_dictionaries(
        dict.fromkeys("01", st.text(alphabet="01", min_size=L, max_size=L)))))
    return FixedPointStream(SubstitutionRule(images), letter, coding)


_functions = _periodic.map(GeneratedStream)
_generated = st.one_of(_functions, _fixed_points())

# how to build each concrete stream class; _MemoizedStream is abstract
_STREAMS = {
    PeriodicStream: _periodic,
    FixedPointStream: _fixed_points(),
    _DerivedStream: st.one_of(
        st.builds(shift, _generated, st.integers(1, 10)),
        *(st.builds(op, _generated) for op in (encoding.xi, encoding.xi_inverse))),
}


def _stream_classes():
    for layer in kneading._EXPORTS:
        vars(sys.modules[f"kneading.{layer}"])  # runs the layer
    found, todo = [], list(SymbolStream.__subclasses__())
    while todo:
        cls = todo.pop()
        if cls.__module__.split(".")[0] == "kneading" and cls is not _MemoizedStream:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return sorted(found, key=lambda cls: cls.__name__)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_stream_prefix_contract(data):
    # every stream class of the package, so a new one needs an entry in _STREAMS
    for cls in _stream_classes():
        s = data.draw(_STREAMS[cls], label=cls.__name__)
        assert type(s) is cls
        n = data.draw(st.integers(0, 63), label="n")
        m = data.draw(st.integers(64, 200), label="n + m") - n
        with pytest.raises(ValueError):
            s.prefix(-1)  # before the buffer grows
        head = s.prefix(n)
        # a memoized buffer grows to 64 symbols first, then geometrically
        longer = s.prefix(n + m)
        assert len(head) == n and len(longer) == n + m
        assert longer[:n] == head == s.prefix(n)
        for k in range(n + m + 1):
            assert len(s.prefix(k)) == k
            if k >= 1:
                assert s.prefix(k)[k - 1] == longer[k - 1]
        with pytest.raises(ValueError):
            s.prefix(-1)  # after it grew


def test_coded_fixed_point():
    plain = FixedPointStream(THUE_MORSE_RULE, "0")
    coding = {"0": "00", "1": "10"}
    coded = FixedPointStream(THUE_MORSE_RULE, "0", coding)
    coding["1"] = "11"  # the stream keeps its own copy
    word = "".join({"0": "00", "1": "10"}[a] for a in plain.prefix(200))
    for n in (0, 1, 63, 64, 65, 127, 400):
        assert coded.prefix(n) == word[:n]
    assert repr(coded) == ("FixedPointStream(SubstitutionRule(0->01, 1->10), '0', "
                           "coding={'0': '00', '1': '10'})")
    assert repr(plain) == "FixedPointStream(SubstitutionRule(0->01, 1->10), '0')"


@pytest.mark.parametrize("coding", [{"0": "x", "1": "yz"}, {"0": "1"}, {},
                                    {"0": "", "1": ""}, {"0": "0", "1": "1", "2": "0"},
                                    {"0": "0", "1": "1", "01": "1"},
                                    {"0": "\u0100", "1": "1"}])
def test_coding_must_be_uniform_over_the_alphabet(coding):
    with pytest.raises(ValueError, match="coding"):
        FixedPointStream(THUE_MORSE_RULE, "0", coding)


@given(st.text(alphabet="01", max_size=300))
@settings(max_examples=200, deadline=None)
def test_parity_word_matches_running_xor(bits):
    t, acc = [], 0
    for c in bits:
        acc ^= int(c)
        t.append(str(acc))
    assert parity_word(bits) == "".join(t)
    assert unparity_word(parity_word(bits)) == bits


# === frozen records ====================================================

def _tent(x):
    return 2.0 * x if x < 0.5 else 2.0 * (1.0 - x)


# every record class, with valid arguments, then argument lists that its
# __post_init__ rejects
_RECORDS = [
    (cfrac.ContinuedFraction, ([1, 4, 1, 2],), [((),), ((1, 0),), ((2, 1),)]),
    (cfrac.Convergent, (1, 2, 3), []),
    (dynamics.UnimodalMap, ("tent", 2.0, _tent, 0.5), [
        ("tent", 2.0, _tent, 1.0), ("tent", 2.0, _tent, 0.5, 0.0),
        ("tent", 2.0, lambda x: 1.0, 0.5)]),
    (dynamics.UnimodalMap, ("tent", 2.0, _tent, 0.5, 1e-9, True), [
        ("tent", 2.0, _tent, 0.5, 0.0, True)]),
    (dynamics.Lemma1Report, (10, 8, 2, 0), []),
    (dynamics.ScanRow, (3.5, 0.75, 12), []),
    (dynamics.ScanReport, ((dynamics.ScanRow(3.5, None, 0),), 0), []),
    (feigenbaum.DyadicEnclosure, (3, 2), [(0, 0), (-1, 2), (4, 2)]),
    (feigenbaum.TauLevel, (2, 4, 5, "1100"), []),
    (frequency.IncidenceMatrix, (("0", "1"), ((0, 1), (2, 1))), [
        (("0", "1"), ((0, 1),)), (("0", "1"), ((0, -1), (2, 1)))]),
    (language.LanguageQuery, (PeriodicStream("", "10"), 6), [
        (PeriodicStream("", "10"), 0), (PeriodicStream("", "10"), 6, "all")]),
    (spectral.IntSeries, ((1, -1, 0),), [((),)]),
    (spectral.OrbitCounts, ({1: 2}, {1: 2}), []),
    (spectral.EntropyResult, (0.0, 0.5, "bisection"), []),
]


def _dataclass_twin(cls):
    """``cls`` as ``dataclass(frozen=True)`` builds it from the same
    annotations, defaults, __post_init__ and methods."""
    twin = type(cls.__name__, (), dict(vars(cls)))
    twin.__qualname__ = cls.__qualname__
    return dataclasses.dataclass(frozen=True)(twin)


def test_every_record_class_is_checked():
    assert {cls for cls, _, _ in _RECORDS} == set(_Record.__subclasses__())


def _record_ids():
    """Each row's class name, numbered from a class's second row on."""
    seen = []
    for cls, _, _ in _RECORDS:
        seen.append(cls)
        k = seen.count(cls)
        yield cls.__name__ if k == 1 else f"{cls.__name__}-{k}"


@pytest.mark.parametrize("cls, args, bad", _RECORDS, ids=list(_record_ids()))
def test_record_matches_frozen_dataclass(cls, args, bad):
    twin = _dataclass_twin(cls)
    names = [f.name for f in dataclasses.fields(twin)]
    required = [f.name for f in dataclasses.fields(twin)
                if f.default is dataclasses.MISSING]
    a, b = cls(*args), twin(*args)
    assert repr(a) == repr(b)
    assert list(vars(a).items()) == list(vars(b).items())
    assert repr(cls(**dict(zip(names, args)))) == repr(a)
    # a record class built from the same body is another class: never equal
    lookalike = type(cls.__name__, (_Record,), dict(vars(cls)))(*args)
    assert repr(lookalike) == repr(a)
    for x, y, other in ((a, cls(*args), b), (b, twin(*args), a), (a, cls(*args), lookalike)):
        assert (x == y, x != y, x == other, x != other, x == args, x != args) == (
            True, False, False, True, False, True)
    try:
        h = hash(b)
    except TypeError:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == h
    for obj in (a, b):
        for name in (*names, "extra"):
            with pytest.raises(AttributeError):
                setattr(obj, name, 0)
            with pytest.raises(AttributeError):
                delattr(obj, name)
    # missing, extra, unknown and repeated arguments
    too_many = (*args, *[0] * (len(names) - len(args) + 1))
    for call_args, call_kwargs in (((), {}), (too_many, {}), (args, {"extra": 0}),
                                   (args, {names[0]: args[0]})):
        for make in (cls, twin):
            with pytest.raises(TypeError):
                make(*call_args, **call_kwargs)
    assert repr(cls(*args[:len(required)])) == repr(twin(*args[:len(required)]))
    # positional, keyword and mixed calls bind the same fields in order; one
    # required field left out, or one unknown keyword, is a TypeError
    for split in range(len(args) + 1):
        kw = dict(zip(names[split:], args[split:]))
        x = cls(*args[:split], **kw)
        assert x == a and list(vars(x).items()) == list(vars(b).items())
        for name in set(kw) & set(required):
            for make in (cls, twin):
                with pytest.raises(TypeError):
                    make(*args[:split], **{k: v for k, v in kw.items() if k != name})
        for make in (cls, twin):
            with pytest.raises(TypeError):
                make(*args[:split], **kw, extra=0)
    if required:
        for make in (cls, twin):
            with pytest.raises(TypeError):
                make(*args[:len(required) - 1])
    for bad_args in bad:
        with pytest.raises(ValueError) as mine:
            cls(*bad_args)
        with pytest.raises(ValueError) as theirs:
            twin(*bad_args)
        assert str(mine.value) == str(theirs.value)
