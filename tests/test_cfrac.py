"""Continued fractions: canonical form, certified prefixes, convergents."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kneading.cfrac import (
    ContinuedFraction,
    cf_continuation_check,
    cf_of_enclosure,
    cf_of_rational,
    cf_table,
    convergents,
)
from kneading.feigenbaum import DyadicEnclosure, tau_infinity_enclosure, tau_level
from oracles import flip_cf_of_enclosure

# expansions of the first eight period-doubling parameters, frozen from
# exact Euclid runs on the closed-form p_j/q_j
TAU_CF = {
    1: [1, 2],
    2: [1, 4],
    3: [1, 4, 1, 2],
    4: [1, 4, 1, 2, 2, 6],
    5: [1, 4, 1, 2, 2, 6, 2, 1, 2, 9, 1, 2],
    6: [1, 4, 1, 2, 2, 6, 2, 1, 2, 9, 1, 2, 2, 1, 1, 21, 1, 10, 2, 1, 1, 1, 5],
    7: [1, 4, 1, 2, 2, 6, 2, 1, 2, 9, 1, 2, 2, 1, 1, 21, 1, 10, 2, 1, 1, 1, 4,
        1, 2, 29, 1, 24, 1, 1, 7, 11, 3, 2, 5, 1, 1, 1, 89],
    8: [1, 4, 1, 2, 2, 6, 2, 1, 2, 9, 1, 2, 2, 1, 1, 21, 1, 10, 2, 1, 1, 1, 4,
        1, 2, 29, 1, 24, 1, 1, 7, 11, 3, 2, 5, 1, 1, 1, 88, 1, 1, 1, 6, 1, 1,
        33, 2, 6, 1, 24, 1, 5, 212, 2, 1, 10, 1, 3, 11, 2, 1, 2, 1, 10, 1, 1,
        2, 3, 2549, 1, 2],
}

# quotient counts n_j for j = 1..12
N_J = [2, 2, 4, 6, 12, 23, 39, 71, 121, 253, 528, 1129]


def test_rational_examples():
    assert cf_of_rational(Fraction(2, 3)).quotients == (1, 2)
    assert cf_of_rational(Fraction(14, 17)).quotients == (1, 4, 1, 2)
    assert cf_of_rational(Fraction(1, 2)).quotients == (2,)
    assert cf_of_rational(1).quotients == (1,)
    for bad in (0, Fraction(-1, 3), Fraction(3, 2)):
        with pytest.raises(ValueError):
            cf_of_rational(bad)


def test_tau_level_expansions():
    for j, want in TAU_CF.items():
        got = cf_of_rational(tau_level(j).value)
        assert list(got.quotients) == want, f"level {j}"


def test_quotient_counts_through_level_12():
    rows = cf_table(12)
    assert [n for _, _, n in rows] == N_J
    for j, q, n in rows:
        assert len(q) == n
        if j in TAU_CF:
            assert q == TAU_CF[j]
    with pytest.raises(ValueError):
        cf_table(13)


def test_canonical_validation():
    with pytest.raises(ValueError):
        ContinuedFraction((1, 2, 1))
    with pytest.raises(ValueError):
        ContinuedFraction(())
    with pytest.raises(ValueError):
        ContinuedFraction((0, 2))
    assert ContinuedFraction((1,)).value() == 1
    assert ContinuedFraction((1, 2)).value() == Fraction(2, 3)


def test_round_trip_random():
    rng = random.Random(20260815)
    for _ in range(10_000):
        den = rng.randrange(2, 1 << 256)
        num = rng.randrange(1, den + 1)
        x = Fraction(num, den)
        cf = cf_of_rational(x)
        assert cf.value() == x
        # canonical: no trailing 1 outside the single-quotient case
        if len(cf.quotients) >= 2:
            assert cf.quotients[-1] >= 2


def test_certified_prefix_is_sound():
    rng = random.Random(7)
    for _ in range(300):
        den = rng.randrange(3, 1 << 64)
        num = rng.randrange(1, den)
        x = Fraction(num, den)
        k = rng.randrange(4, 120)
        eps = Fraction(1, 1 << k)
        lo = max(Fraction(0), x - eps)
        hi = min(Fraction(1), x + eps)
        prefix = cf_of_enclosure((lo, hi))
        full = cf_of_rational(x).quotients
        assert tuple(prefix) == full[: len(prefix)]
        assert cf_of_enclosure((x, x)) == list(full)


def test_enclosure_boundary_cases():
    # interval spanning a quotient boundary certifies nothing
    assert cf_of_enclosure((Fraction(1, 3), Fraction(2, 3))) == []
    assert cf_of_enclosure((Fraction(127, 256), Fraction(129, 256))) == []
    # degenerate interval agrees with the full expansion
    assert cf_of_enclosure((Fraction(2, 3), Fraction(2, 3))) == [1, 2]
    # upper endpoint terminating exactly mid-run stops emission afterwards
    assert cf_of_enclosure((Fraction(3, 8), Fraction(1, 2))) == [2]
    with pytest.raises(ValueError):
        cf_of_enclosure((Fraction(1, 2), Fraction(1, 3)))


def test_enclosure_matches_flip_loop_small_denominators():
    # every pair lo <= hi of rationals in [0, 1] with denominators <= 30
    points = sorted({Fraction(n, d) for d in range(1, 31) for n in range(d + 1)})
    for i, lo in enumerate(points):
        for hi in points[i:]:
            assert cf_of_enclosure((lo, hi)) == flip_cf_of_enclosure((lo, hi)), (lo, hi)


@st.composite
def _dyadic(draw):
    bits = draw(st.integers(1, 600))
    return draw(st.integers(0, (1 << bits) - 1)), bits


# lo = 0 and hi = 1, at both ends of the bits range
@given(_dyadic())
@example((0, 1))
@example((0, 600))
@example((1, 1))
@example(((1 << 600) - 1, 600))
@settings(max_examples=400, deadline=None)
def test_enclosure_integer_pairs_match_fractions(nb):
    # the dyadic path reads n/2^bits and (n + 1)/2^bits unreduced; the
    # floors, and so the quotients, are those of the reduced pairs, and
    # the common prefix is what the interleaved loop certifies
    n, bits = nb
    got = cf_of_enclosure(DyadicEnclosure(n, bits))
    assert got == cf_of_enclosure((Fraction(n, 2 ** bits), Fraction(n + 1, 2 ** bits)))
    assert got == flip_cf_of_enclosure(DyadicEnclosure(n, bits))


def test_limit_parameter_integer_pairs_match_fractions():
    for bits in (4096, 16384):
        e = tau_infinity_enclosure(bits)
        got = cf_of_enclosure(e)
        assert got == cf_of_enclosure((e.lo, e.hi))
        assert got == flip_cf_of_enclosure(e)


def test_limit_parameter_certified_prefix():
    enc = tau_infinity_enclosure(4096)
    prefix = cf_of_enclosure(enc)
    assert prefix[:12] == TAU_CF[5]
    # stable through the level-8 expansion with its last quotients still open
    assert prefix[:39] == TAU_CF[8][:39]
    # width 2^-4096 pins the limit to the accuracy of level 12, whose
    # expansion has 1129 quotients: exactly that many get certified
    assert len(prefix) == 1129


def test_convergent_recurrence():
    cv = convergents(cf_of_rational(Fraction(14, 17)))
    assert [(c.r, c.s) for c in cv] == [(1, 1), (4, 5), (5, 6), (14, 17)]
    assert [c.index for c in cv] == [1, 2, 3, 4]
    cv = convergents(cf_of_rational(Fraction(2, 3)))
    assert [(c.r, c.s) for c in cv] == [(1, 1), (2, 3)]
    cv = convergents(cf_of_rational(Fraction(1, 2)))
    assert [(c.r, c.s) for c in cv] == [(1, 2)]


def test_convergent_quality_random():
    rng = random.Random(99)
    for _ in range(200):
        den = rng.randrange(3, 1 << 96)
        num = rng.randrange(1, den)
        x = Fraction(num, den)
        cv = convergents(cf_of_rational(x))
        assert cv[-1].value() == x
        for a, b in zip(cv, cv[1:]):
            # consecutive convergents are unimodular neighbours
            assert a.r * b.s - b.r * a.s in (-1, 1)
            gap = abs(x - a.value())
            if b is cv[-1]:
                # finite expansion: the bound is attained at the last index
                assert gap == Fraction(1, a.s * b.s)
            else:
                assert gap < Fraction(1, a.s * b.s)


def test_continuation_pattern():
    # the parity rule holds exactly for j = 2..11; j = 1 is the lone break
    r1 = cf_continuation_check(1)
    assert r1.observed == "exception" and not r1.matches
    for j in range(2, 12):
        r = cf_continuation_check(j)
        assert r.matches, (j, r.observed, r.expected)
    assert cf_continuation_check(4).observed == "verbatim"
    assert cf_continuation_check(7).observed == "decrement"
    # the decrement at j = 7 turns the final 89 into 88
    assert TAU_CF[7][38] == 89 and TAU_CF[8][38] == 88


def test_prefix_stability_across_levels():
    rows = {j: q for j, q, _ in cf_table(12)}
    for j in range(2, 12):
        a, b = rows[j], rows[j + 1]
        k = 0
        while k < len(a) and a[k] == b[k]:
            k += 1
        assert k >= len(a) - 1, f"levels {j} and {j + 1} agree only to {k}"
