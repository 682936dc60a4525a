"""Float itineraries, renormalization geometry, and symbolic cross-checks."""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kneading.dynamics import (
    Lemma1Report,
    OrbitEscapeError,
    UnimodalMap,
    itinerary,
    kneading,
    lemma1_validate,
    logistic_map,
    monotonicity_scan,
    tent_map,
)
from kneading.encoding import kneading_from_tau
from kneading.symbolic import feigenbaum_stream, feigenbaum_word
from kneading.words import parity_word
from oracles import (
    NotRenormalizableError,
    lemma1_via_parity_words,
    monotonicity_scan_via_parity_words,
    renormalize_map,
    renormalize_word,
    skew_tent_map,
    tent,
)


def digit_word(word):
    out, p = [], 0
    for ch in word:
        p ^= int(ch)
        out.append("01"[p])
    return "".join(out)


def test_itinerary_tent_worked_example():
    word, flags = itinerary(tent_map(), 0.3, 5)
    assert word == "01101"
    assert all(flags)


def test_itinerary_fixed_endpoints():
    word, flags = itinerary(tent_map(), 0.0, 8)
    assert word == "00000000"
    assert all(flags)
    # boundary convention: the critical point itself reads 1, flagged
    word, flags = itinerary(tent_map(), 0.5, 4)
    assert word[0] == "1"
    assert flags[0] is False
    assert word[1:3] == "10"


def test_itinerary_validation():
    with pytest.raises(ValueError):
        itinerary(tent_map(), 0.3, 0)
    with pytest.raises(ValueError):
        itinerary(tent_map(), 1.5, 4)
    word, _ = itinerary(tent_map(), -1e-15, 4)
    assert word == "0000"


def test_kneading_full_logistic():
    word, flags = kneading(logistic_map(4.0), 12)
    assert word == "1" + "0" * 11
    assert all(flags)


def test_orbit_escape():
    with pytest.raises(OrbitEscapeError):
        kneading(logistic_map(4.2), 10)
    with pytest.raises(OrbitEscapeError):
        kneading(tent_map(2.4), 10)
    with pytest.raises(ValueError):
        logistic_map(-1.0)
    with pytest.raises(ValueError):
        tent_map(0.0)


def _adversarial_points():
    """Doubles of [0, 1] where rounding decides whether fn stays in [0, 1]:
    consecutive doubles on both sides of 1/2 and 1/4, next to 0 and 1, and
    1/2 - d for random d at every binary scale below 1/4."""
    pts = []
    for start, toward in ((0.5, 0.0), (0.5, 1.0), (0.25, 0.0), (0.25, 1.0),
                          (0.0, 1.0), (1.0, 0.0)):
        u = start
        for _ in range(3000):
            pts.append(u)
            u = math.nextafter(u, toward)
    rng = random.Random(30)
    pts += [0.5 - math.ldexp(1.0 + rng.random(), -e) for e in range(3, 60) for _ in range(50)]
    return pts


def test_closed_maps_keep_the_unit_interval():
    rng = random.Random(4)
    maps = [logistic_map(r) for r in (4.0, math.nextafter(4.0, 0.0), 3.9999999999,
                                      *(4.0 * (1.0 - rng.random()) for _ in range(6)))]
    maps += [tent_map(s) for s in (2.0, math.nextafter(2.0, 0.0), 1.9999999999)]
    pts = _adversarial_points()
    for m in maps:
        assert m.closed
        assert all(0.0 <= m.fn(u) <= 1.0 for u in pts), m.parameter


def test_closed_bound_is_tight():
    # one ulp past r = 4 the logistic map leaves [0, 1] by rounding alone
    m = logistic_map(math.nextafter(4.0, 5.0))
    assert m.parameter == 4.000000000000001
    assert not m.closed
    assert m.fn(0.49999999254941946) == 1.0000000000000002
    assert not tent_map(math.nextafter(2.0, 3.0)).closed
    assert not renormalize_map(logistic_map(3.5)).closed
    assert not UnimodalMap("tent", 2.0, tent_map().fn, 0.5).closed


def test_unimodal_validation():
    with pytest.raises(ValueError):
        UnimodalMap("custom", 0.0, lambda x: x, 0.5)
    with pytest.raises(ValueError):
        UnimodalMap("custom", 0.0, lambda x: 4 * x * (1 - x), 1.5)
    with pytest.raises(ValueError):
        logistic_map(3.5, eta=0.0)


# logistic parameters found by float bisection, pinned as doubles: where the
# third critical image hits the fixed point, and where the critical orbit
# returns in 3 and in 2 steps (1 + sqrt(5))
R_BAND_MERGING = 3.6785735104280315
R_SUPERSTABLE_3 = 3.8318740552835515
R_SUPERSTABLE_2 = 3.236067977499534


def test_band_merging_parameter():
    word, flags = kneading(logistic_map(R_BAND_MERGING), 40)
    assert word == kneading_from_tau(Fraction(5, 6)).prefix(40)
    assert all(flags)


def test_superstable_period3_window():
    word, flags = kneading(logistic_map(R_SUPERSTABLE_3), 30)
    ref = kneading_from_tau(Fraction(6, 7)).prefix(30)
    for i in range(30):
        if (i + 1) % 3 == 0:
            # critical-orbit return: the symbol sits on the boundary
            assert flags[i] is False
        else:
            assert flags[i] is True
            assert word[i] == ref[i]


def test_superstable_period2_exact():
    assert abs(R_SUPERSTABLE_2 - (1 + math.sqrt(5))) < 1e-9
    word, flags = kneading(logistic_map(R_SUPERSTABLE_2), 30)
    ref = feigenbaum_stream(2).prefix(30)
    for i in range(30):
        # every second symbol is the critical orbit's return, on the boundary
        assert flags[i] is (i % 2 == 0)
        if flags[i]:
            assert word[i] == ref[i]


def test_renormalize_logistic_geometry():
    for r in (3.2, 3.3, 3.5, 3.6):
        m = logistic_map(r)
        R = renormalize_map(m)
        # symmetry of the logistic family puts the rescaled peak at 1/2
        assert abs(R.c0 - 0.5) < 1e-12
        assert abs(R.fn(0.0)) <= 1e-9
        assert abs(R.fn(1.0)) <= 1e-9
        assert 2.0 < R.eta / m.eta < 4.0
        assert R.family == "R(logistic)"


def test_not_renormalizable():
    with pytest.raises(NotRenormalizableError, match="core interval"):
        renormalize_map(logistic_map(3.7))
    with pytest.raises(NotRenormalizableError, match="no fixed point"):
        renormalize_map(logistic_map(1.5))
    with pytest.raises(NotRenormalizableError, match="core interval"):
        renormalize_map(tent_map())


def test_renormalize_word_inverts_duplicate_flip():
    for j in range(1, 9):
        assert renormalize_word(feigenbaum_word(j + 1)) == feigenbaum_word(j)
    word, flags = renormalize_word("1011", (True, False, True, True))
    assert word == "10"
    assert flags == (False, True)


def test_renormalization_commutes_with_seq():
    rng = random.Random(7)
    for _ in range(10):
        r = 3.05 + 0.55 * rng.random()
        m = logistic_map(r)
        R = renormalize_map(m)
        kw, kf = kneading(m, 32)
        rw, rf = kneading(R, 16)
        sw, sf = renormalize_word(kw, kf)
        compared = [i for i in range(16) if rf[i] and sf[i]]
        assert len(compared) >= 12
        assert all(rw[i] == sw[i] for i in compared)


def test_renormalize_at_period2_parameter():
    m = logistic_map(3.3)
    kw, kf = kneading(m, 32)
    assert kw == feigenbaum_stream(2).prefix(32)
    assert all(kf)
    rw, rf = kneading(renormalize_map(m), 16)
    assert rw == feigenbaum_stream(1).prefix(16)
    assert all(rf)


def test_lemma1_validation():
    for m in (logistic_map(3.9), tent_map()):
        rep = lemma1_validate(m, 1000, 40)
        assert isinstance(rep, Lemma1Report)
        assert rep.pairs_tested == 1000
        assert rep.pairs_decided + rep.pairs_excluded == 1000
        assert rep.pairs_decided >= 900
        assert rep.violations == 0


def test_tent_matches_exact_iteration():
    m = tent_map()
    n = 25
    for x0 in (Fraction(3, 10), Fraction(1, 7), Fraction(2, 9), Fraction(17, 64)):
        word, flags = itinerary(m, float(x0), n)
        u = x0
        for i in range(n):
            exact = "1" if u >= Fraction(1, 2) else "0"
            if flags[i] and abs(u - Fraction(1, 2)) > Fraction(1, 10 ** 6):
                assert word[i] == exact
            u = tent(u)


def test_conjugacy_identity():
    # word-level: tent of the truncated digit value tracks the shifted digits
    m = tent_map()
    n = 20
    for x0 in (0.3, 0.137, 0.652, 0.925):
        word, flags = itinerary(m, x0, n + 1)
        if not all(flags):
            continue
        ta = digit_word(word[:n])
        tb = digit_word(word[1:n + 1])
        va = sum(Fraction(int(c), 2 ** (i + 1)) for i, c in enumerate(ta))
        vb = sum(Fraction(int(c), 2 ** (i + 1)) for i, c in enumerate(tb))
        assert abs(tent(va) - vb) <= Fraction(1, 2 ** (n - 1))


def test_monotonicity_scan():
    grid = [3.5 + 0.5 * i / 99 for i in range(100)]
    rep = monotonicity_scan(grid, 24)
    assert len(rep.rows) == 100
    assert all(row.reliable_prefix >= 20 for row in rep.rows)
    assert rep.decreases <= 2
    assert abs(rep.rows[-1].tau - 1.0) < 1e-6
    assert rep.rows[0].tau < rep.rows[-1].tau

    rep2 = monotonicity_scan([3.0], 24)
    assert abs(rep2.rows[0].tau - 2 / 3) < 1e-6

    with pytest.raises(ValueError):
        monotonicity_scan([2.5, 3.5], 24)
    with pytest.raises(ValueError):
        monotonicity_scan([3.5, 4.1], 24)
    with pytest.raises(ValueError):
        monotonicity_scan([], 24)
    for n in (0, -4):
        with pytest.raises(ValueError, match="need at least one symbol"):
            monotonicity_scan([3.5], n)


def test_monotonicity_scan_past_1023_digits():
    # each term is a power of two: 2.0 ** 1024 overflowed once the reliable
    # prefix reached 1024 symbols, and the float sum is settled long before
    long = monotonicity_scan([3.2], 1100).rows[0]
    assert long.reliable_prefix > 1024
    assert long.tau == monotonicity_scan([3.2], 1000).rows[0].tau


# superstable parameters of periods 2, 4 and 3: the critical orbit returns
# to within the 1e-9 band of 1/2 after one, three and two symbols
_SUPERSTABLE = (3.2360679774997896, 3.4985616993277016, 3.8318740552835515)


@settings(max_examples=300, deadline=None)
@given(grid=st.lists(st.one_of(st.floats(2.9, 4.0), st.sampled_from(_SUPERSTABLE)),
                     min_size=1, max_size=40),
       n=st.integers(1, 256))
@example(grid=list(_SUPERSTABLE), n=256)
@example(grid=[2.9, 3.2, 3.9, 4.0], n=53)
@example(grid=[2.9, 3.2, 3.9, 4.0], n=54)
# tau's digit 54 is 1 in each row: a tie that rounds half to even, up at
# 3.237 (digit 53 is 1) and down at 3.595 and 3.707 (digit 53 is 0), where
# set digits past 54 follow (from digit 55 on at 3.707) and must not move
# the double
@example(grid=[3.237, 3.595, 3.707], n=256)
@example(grid=[4.0], n=256)  # tau's digits are all 1: it carries to 1.0
def test_monotonicity_scan_matches_parity_words(grid, n):
    # n from 1 to 256 gives k <= 53 symbols, whose digits are exact, and
    # k > 53, whose double the oracle sums digit by digit past the 53rd
    rep = monotonicity_scan(grid, n)
    assert rep == monotonicity_scan_via_parity_words(grid, n)
    # the scan steps its own copy of the logistic expression: each row is
    # kneading(logistic_map(r), n) cut at its first unreliable symbol
    for r, row in zip(grid, rep.rows):
        word, flags = kneading(logistic_map(r), n)
        k = flags.index(False) if False in flags else n
        assert row.reliable_prefix == k
        head = min(k, 53)
        top = math.ldexp(int(parity_word(word[:head]), 2), -head)
        if k <= 53:
            assert row.tau == top
        else:
            assert 0 <= row.tau - top <= math.ldexp(1.0, -53)


# sha256 over the repr of every result (or exception type and message) in
# _dynamics_golden_cases, recorded before the orbit kernel in itinerary was
# rewritten to iterate the orbit first and read symbols and flags after
DYNAMICS_GOLDEN_SHA256 = "05cc3d187a506bb17f6be26103912c6267ae04aa43839498b698b3dafb0fff65"

_GOLDEN_STARTS = (0.0, 1.0, 1e-13, -1e-13, 1 - 1e-13, 1 + 1e-13, 0.3, 0.5, 0.9, -2e-12, 1.5)
_GOLDEN_NS = (1, 20, 62, 256)


def _golden_maps():
    for r in (2.5, 3.2, 3.5, 3.5699456, 3.6785735104283, 3.8318740552843, 3.9,
              4.0, 4.0 + 1e-15, 4.0000001, 4.1, 4.3):
        yield logistic_map(r)
    for slope in (0.5, 1.0, 1.5, 1.99, 2.0, 2.0 + 1e-12, 2.0 + 4e-12, 2.3):
        yield tent_map(slope)
    yield logistic_map(3.7, eta=1e-3)
    yield skew_tent_map(0.3)
    yield renormalize_map(logistic_map(3.5))


def _dynamics_golden_cases():
    for m in _golden_maps():
        for n in _GOLDEN_NS:
            yield lambda m=m, n=n: kneading(m, n)
            for x in _GOLDEN_STARTS:
                yield lambda m=m, x=x, n=n: itinerary(m, x, n)
    for seed in (0, 1, 7):
        for m in (logistic_map(3.9), tent_map(), logistic_map(4.1)):
            yield lambda m=m, seed=seed: lemma1_validate(m, 200, 40, seed=seed)
    grid = [2.9 + 1.1 * i / 199 for i in range(200)]
    for n in _GOLDEN_NS:
        yield lambda n=n: monotonicity_scan(grid, n)


def test_dynamics_golden_hash():
    h = hashlib.sha256()
    for run in _dynamics_golden_cases():
        try:
            out = repr(run())
        except (ValueError, RuntimeError) as e:
            out = f"{type(e).__name__}: {e}"
        h.update(out.encode() + b"\n")
    assert h.hexdigest() == DYNAMICS_GOLDEN_SHA256


def _itinerary_per_step(m, x, n):
    """The earlier loop, kept as the oracle: read each point's symbol and
    flag, then step, check for escape and clamp."""
    if n < 1:
        raise ValueError("need at least one symbol")
    lo, hi = -1e-12, 1 + 1e-12
    if not lo <= x <= hi:
        raise ValueError("starting point outside [0, 1]")
    u = min(max(x, 0.0), 1.0)
    symbols, flags = [], []
    for i in range(n):
        symbols.append("1" if u >= m.c0 else "0")
        flags.append(abs(u - m.c0) >= m.eta)
        u = m.fn(u)
        if not lo <= u <= hi:
            raise OrbitEscapeError(f"orbit left [0, 1] at step {i + 1}: {u!r}")
        u = min(max(u, 0.0), 1.0)
    return "".join(symbols), tuple(flags)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as e:
        return type(e), str(e)


_edge_points = st.sampled_from([0.0, 1.0, 0.5, -1e-12, 1 + 1e-12, -1e-13, 1 + 1e-13])
_starts = st.one_of(_edge_points, st.floats(-2e-12, 1 + 2e-12),
                    st.floats(-2e-12, 2e-12), st.floats(1 - 2e-12, 1 + 2e-12))


@settings(max_examples=300, deadline=None)
@given(logistic=st.booleans(), r=st.floats(0.2, 4.3), slope=st.floats(0.1, 2.3),
       x=_starts, n=st.integers(1, 256), eta=st.sampled_from([1e-9, 1e-4, 0.1]))
def test_itinerary_matches_per_step_loop(logistic, r, slope, x, n, eta):
    m = logistic_map(r, eta) if logistic else tent_map(slope, eta)
    assert _outcome(itinerary, m, x, n) == _outcome(_itinerary_per_step, m, x, n)


@settings(max_examples=300, deadline=None)
@given(logistic=st.booleans(), r=st.floats(3.3, 4.3), slope=st.floats(0.3, 2.3),
       c0=st.sampled_from([0.5, 0.5, 0.3, 0.7]),
       eta=st.sampled_from([1e-9, 1e-3, 0.05, 0.3, 0.6]), pairs=st.integers(0, 80),
       n=st.integers(1, 64), seed=st.integers(0, 2 ** 32), keep_closed=st.booleans())
def test_lemma1_matches_parity_words(logistic, r, slope, c0, eta, pairs, n, seed,
                                     keep_closed):
    # escapes (r > 4, slope > 2) raise from the same orbit step in both; a
    # symbol boundary c0 away from the peak (half the examples keep 0.5)
    # breaks monotonicity on a branch, so decided pairs include violations;
    # half the examples keep the constructor's closed mark (r <= 4,
    # slope <= 2), which stops stepping once a pair is settled
    m = logistic_map(r) if logistic else tent_map(slope)
    m = UnimodalMap(m.family, m.parameter, m.fn, c0, eta, keep_closed and m.closed)
    assert (_outcome(lemma1_validate, m, pairs, n, seed)
            == _outcome(lemma1_via_parity_words, m, pairs, n, seed))
