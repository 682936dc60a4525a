"""Acceptance gate: fourteen checks, one per release criterion.

Each test prints a single PASS line on success; tolerances are pinned in
the assertions and never loosened at runtime.
"""

import math
import random
from fractions import Fraction

from kneading.cfrac import cf_of_rational, cf_table
from kneading.dynamics import (
    kneading as float_kneading,
    lemma1_validate,
    logistic_map,
    renormalize_map,
    renormalize_word,
    tent_map,
)
from kneading.encoding import kneading_from_tau, stream_tau, xi
from kneading.feigenbaum import tau_level
from kneading.frequency import (
    empirical_frequencies,
    incidence,
    pair_frequencies,
    perron_frobenius,
)
from kneading.spectral import (
    entropy,
    kneading_determinant,
    orbit_counts,
    series_of_rational,
    zeta_series,
)
from kneading.symbolic import (
    PeriodicStream,
    feigenbaum_limit,
    feigenbaum_stream,
    feigenbaum_word,
    shift,
)
from kneading.words import FEIGENBAUM_RULE
from oracles import (
    characteristic_polynomial,
    feigenbaum_word_via,
    integer_eigenvalues,
    intersect,
    tau_infinity_digit,
    tau_infinity_enclosure_via,
    tau_level_via,
    thue_morse_check,
)

TAU_METHODS = ("digit-rule", "pair-substitution", "pq-recursion", "closed-form")

TAU_TABLE = (
    Fraction(2, 3),
    Fraction(4, 5),
    Fraction(14, 17),
    Fraction(212, 257),
    Fraction(54062, 65537),
    Fraction(3542953172, 4294967297),
    Fraction(15216868001456509742, 18446744073709551617),
)

CF_TABLE = {
    1: (1, 2),
    2: (1, 4),
    3: (1, 4, 1, 2),
    4: (1, 4, 1, 2, 2, 6),
    5: (1, 4, 1, 2, 2, 6, 2, 1, 2, 9, 1, 2),
    6: (1, 4, 1, 2, 2, 6, 2, 1, 2, 9, 1, 2, 2, 1, 1, 21, 1, 10, 2, 1, 1, 1, 5),
    7: (1, 4, 1, 2, 2, 6, 2, 1, 2, 9, 1, 2, 2, 1, 1, 21, 1, 10, 2, 1, 1, 1, 4,
        1, 2, 29, 1, 24, 1, 1, 7, 11, 3, 2, 5, 1, 1, 1, 89),
    8: (1, 4, 1, 2, 2, 6, 2, 1, 2, 9, 1, 2, 2, 1, 1, 21, 1, 10, 2, 1, 1, 1, 4,
        1, 2, 29, 1, 24, 1, 1, 7, 11, 3, 2, 5, 1, 1, 1, 88, 1, 1, 1, 6, 1, 1,
        33, 2, 6, 1, 24, 1, 5, 212, 2, 1, 10, 1, 3, 11, 2, 1, 2, 1, 10, 1, 1,
        2, 3, 2549, 1, 2),
}

N_J = (2, 2, 4, 6, 12, 23, 39, 71, 121, 253, 528, 1129)

XI_17 = (1, -1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, 1, -1, -1, 1, -1)


def test_criterion_01_tau_table():
    for j, want in enumerate(TAU_TABLE, start=1):
        assert tau_level(j).value == want
    print("criterion 1 PASS: tau_1..tau_7 match the reference fractions exactly")


def test_criterion_02_four_way_construction():
    for j in range(1, 13):
        values = {tau_level_via(j, m).value for m in TAU_METHODS}
        assert len(values) == 1, f"level {j} methods disagree"
    print("criterion 2 PASS: four tau constructions agree exactly for j <= 12")


def test_criterion_03_fermat_denominators():
    for j in range(1, 13):
        q = tau_level(j).q
        assert q == 2 ** (2 ** (j - 1)) + 1
        if j < 12:
            assert tau_level(j + 1).q - 1 == (q - 1) ** 2
    print("criterion 3 PASS: Fermat denominators and squaring recursion exact for j <= 12")


def test_criterion_04_cf_tables():
    for j, want in CF_TABLE.items():
        got = cf_of_rational(tau_level(j).value).quotients
        assert got == want, f"level {j}"
    assert tuple(n for _, _, n in cf_table(12)) == N_J
    print("criterion 4 PASS: CF expansions of tau_1..tau_8 token-exact, quotient counts match for j <= 12")


def test_criterion_05_xi_series():
    assert kneading_determinant(feigenbaum_limit(), 16).coefficients == XI_17
    big = kneading_determinant(feigenbaum_limit(), 4096)
    assert big[0] == 1
    for k in range(1, 4097):
        assert big[k] == 1 - 2 * tau_infinity_digit(k)
    # functional equation: product(z) = (1 - z) * product(z^2), residual 0
    n = 1024
    lhs = kneading_determinant(feigenbaum_limit(), n)
    sq = kneading_determinant(feigenbaum_limit(), n // 2)
    rhs = [0] * (n + 1)
    for i, c in enumerate(sq.coefficients):
        rhs[2 * i] += c
        if 2 * i + 1 <= n:
            rhs[2 * i + 1] -= c
    assert list(lhs.coefficients) == rhs
    print("criterion 5 PASS: 17 printed coefficients, sign rule to 2^12, functional equation exact at order 1024")


def test_criterion_06_tau_infinity_enclosures():
    a = tau_infinity_enclosure_via(128, method="digit-sum")
    b = tau_infinity_enclosure_via(128, method="product-formula")
    both = intersect(a, b)
    assert both.width <= Fraction(1, 2 ** 100)
    print("criterion 6 PASS: digit-sum and product-formula enclosures intersect at width <= 2^-100")


def test_criterion_07_zeta_closed_forms():
    cases = (
        (Fraction(1), (1,), (1, -2)),
        (Fraction(5, 6), (1, 1), (1, -1, -2, 2)),
        (Fraction(6, 7), (1,), (1, -2, 0, 1)),
    )
    for tau, num, den in cases:
        got = zeta_series(kneading_determinant(kneading_from_tau(tau), 30))
        assert got.coefficients == series_of_rational(num, den, 30).coefficients
    print("criterion 7 PASS: three zeta closed forms match through order 30 exactly")


def test_criterion_08_entropy_enclosures():
    targets = (
        (Fraction(1), math.log(2.0)),
        (Fraction(5, 6), math.log(2.0) / 2.0),
        (Fraction(6, 7), math.log((1.0 + math.sqrt(5.0)) / 2.0)),
    )
    for tau, ref in targets:
        res = entropy(kneading_determinant(kneading_from_tau(tau), 256))
        assert res.lo <= ref <= res.hi
        assert res.hi - res.lo <= 1e-10
    for j in range(1, 11):
        res = entropy(kneading_determinant(feigenbaum_stream(j), 256))
        assert res.lo == 0.0 == res.hi
    print("criterion 8 PASS: entropy enclosures at width <= 1e-10 and certified zeros for j <= 10")


def _brute_periodic_count(n, K):
    # one-sided domination keeps the fixed point at the origin
    bound = stream_tau(K)
    cnt = 0
    for bits in range(2 ** n):
        s = PeriodicStream("", format(bits, f"0{n}b"))
        if all(stream_tau(shift(s, m)) <= bound for m in range(n)):
            cnt += 1
    return cnt


def test_criterion_09_orbit_counts():
    full = orbit_counts(kneading_determinant(kneading_from_tau(Fraction(1)), 10))
    for n in range(1, 11):
        assert full.per_counts[n] == 2 ** n
    window = kneading_from_tau(Fraction(6, 7))
    oc = orbit_counts(kneading_determinant(window, 12))
    for n in range(1, 13):
        assert oc.per_counts[n] == _brute_periodic_count(n, window)
    print("criterion 9 PASS: per-counts 2^n for the full shift and brute-force-exact for tau=6/7, n <= 12")


def test_criterion_10_frequencies():
    M = incidence(FEIGENBAUM_RULE)
    assert sorted(integer_eigenvalues(M)) == [-1, 2]
    lam, vec = perron_frobenius(M)
    assert lam == 2 and vec == (Fraction(1, 3), Fraction(2, 3))
    assert pair_frequencies() == {"00": Fraction(1, 3), "01": Fraction(1, 6),
                                  "10": Fraction(1, 6), "11": Fraction(1, 3)}
    digits = xi(feigenbaum_limit())
    obs = empirical_frequencies(digits, 2, 1 << 20, aligned=True)
    for block, want in pair_frequencies().items():
        assert abs(obs.get(block, Fraction(0)) - want) <= Fraction(1, 2 ** 8)
    print("criterion 10 PASS: eigen-structure exact, pair frequencies exact and empirical within 2^-8 at 2^20")


def test_criterion_11_symbolic_tower():
    methods = ("duplicate-flip", "index-doubling", "substitution")
    limit = feigenbaum_limit()
    for j in range(1, 15):
        words = {feigenbaum_word_via(j, m) for m in methods}
        assert len(words) == 1
        word = words.pop()
        assert word == limit.prefix(2 ** (j - 1))
        assert word.count("1") % 2 == 1
    for j in range(1, 14):
        assert renormalize_word(feigenbaum_word(j + 1)) == feigenbaum_word(j)
    for k in range(1 << 15):
        assert limit.at(2 * k + 1) == 1
        if k % 2 == 0:
            assert limit.at(4 * (k // 2) + 2) == 0
    print("criterion 11 PASS: three constructions, renormalization ladder, prefix/parity/position laws to 2^16")


def test_criterion_12_thue_morse():
    assert thue_morse_check(1 << 16) is True
    print("criterion 12 PASS: digit stream equals the 0-prefixed Thue-Morse fixed point on 2^16 symbols")


def test_criterion_13_digit_rule():
    digits = xi(feigenbaum_limit())
    prefix = digits.prefix(1 << 16)
    for k in range(1, (1 << 16) + 1):
        assert tau_infinity_digit(k) == int(prefix[k - 1])
    print("criterion 13 PASS: odd-part digit rule matches substitution digits for k <= 2^16")


def test_criterion_14_numeric_validation():
    for m in (logistic_map(3.9), tent_map()):
        rep = lemma1_validate(m, 1000, 40)
        assert rep.violations == 0
        assert rep.pairs_decided >= 900
    rng = random.Random(7)
    for _ in range(10):
        r = 3.05 + 0.55 * rng.random()
        m = logistic_map(r)
        R = renormalize_map(m)
        kw, kf = float_kneading(m, 32)
        rw, rf = float_kneading(R, 16)
        sw, sf = renormalize_word(kw, kf)
        compared = [i for i in range(16) if rf[i] and sf[i]]
        assert len(compared) >= 12
        assert all(rw[i] == sw[i] for i in compared)
    print("criterion 14 PASS: zero order violations on 2x1000 reliable pairs; renormalization commutes on 10 parameters")
