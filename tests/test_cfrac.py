"""Continued fractions: canonical form, certified prefixes, convergents."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kneading.cfrac import (
    ContinuedFraction,
    _convergent_pairs,
    cf_of_enclosure,
    cf_of_rational,
    cf_table,
    convergents,
)
from kneading.feigenbaum import (
    DyadicEnclosure,
    _closed_form_pq,
    tau_infinity_enclosure,
    tau_level,
)
from oracles import cf_continuation_check, flip_cf_of_enclosure

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


def _n(j):
    return len(cf_of_rational(Fraction(*_closed_form_pq(j))).quotients)


def test_continuation_pattern():
    # the theorem in cf_table's docstring: past j = 1, level j + 1 keeps
    # level j's quotients verbatim for even n_j and lowers the last one
    # for odd n_j; the check has no cap of its own
    assert cf_continuation_check(1) == "exception"
    for j in range(2, 15):
        want = "decrement" if _n(j) % 2 else "verbatim"
        assert cf_continuation_check(j) == want, j
    assert cf_continuation_check(4) == "verbatim"
    assert cf_continuation_check(7) == "decrement"
    # the decrement at j = 7 turns the final 89 into 88
    assert TAU_CF[7][38] == 89 and TAU_CF[8][38] == 88


def test_levels_are_even_convergents_of_the_limit():
    # for j >= 2, p_j/q_j is the convergent of tau_inf of index n_j or
    # n_j + 1, whichever is even; 2^16 bits certify 19032 quotients, past
    # the index 9410 of level 15
    prefix = cf_of_enclosure(tau_infinity_enclosure(1 << 16))
    want = {}
    for j in range(2, 16):
        n = _n(j)
        want[n + n % 2] = _closed_form_pq(j)
    assert max(want) <= len(prefix)
    got = {}
    for k, pair in enumerate(_convergent_pairs(prefix[:max(want)]), start=1):
        # tau_1 = 2/3 is none of them (denominators only grow past 3)
        assert pair != (2, 3)
        if k in want:
            got[k] = pair
    assert got == want


def _level_terms(j):
    """x = 2^-n for n = 2^(j-1), and A = prod_{k<j-1} (1 - 2^-(2^k))."""
    A = Fraction(1)
    for k in range(j - 1):
        A *= 1 - Fraction(1, 1 << (1 << k))
    return A, Fraction(1, 1 << (1 << (j - 1)))


def test_level_gap_bound():
    A, x = _level_terms(3)
    assert A * (1 + x) ** 2 / (1 - x) == Fraction(289, 640)
    for j in range(3, 21):
        A, x = _level_terms(j)
        # A (1 + x)^2/(1 - x) < 1/2, with each gcd on operands of one size
        assert 2 * A < (1 - x) / (1 + x) / (1 + x), j
    # steps (2) and (3) of the proof against tau_inf's enclosure
    enc = tau_infinity_enclosure(1 << 14)
    for j in range(2, 13):
        A, x = _level_terms(j)
        tau_j = Fraction(*_closed_form_pq(j))
        assert 1 - tau_j == A / 2 / (1 + x)
        lo, hi = A * x * x * (1 - 2 * x) / (1 - x), A * x * x / (1 - x)
        assert enc.lo - tau_j <= hi and enc.hi - tau_j >= lo > 0, j


def test_prefix_stability_across_levels():
    rows = {j: q for j, q, _ in cf_table(12)}
    for j in range(2, 12):
        a, b = rows[j], rows[j + 1]
        k = 0
        while k < len(a) and a[k] == b[k]:
            k += 1
        assert k >= len(a) - 1, f"levels {j} and {j + 1} agree only to {k}"
