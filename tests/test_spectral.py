"""Zeta series, kneading determinants, orbit counts, entropy enclosures."""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kneading.spectral as spectral
from kneading.encoding import is_maximal, kneading_from_tau, stream_tau
from kneading.feigenbaum import tau_infinity_enclosure, tau_level
from kneading.spectral import (
    EntropyInconclusive,
    IntSeries,
    OrbitCounts,
    _certify_positive,
    _strip_unit_factors,
    _try_divide,
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
    shift,
)
from kneading.words import FEIGENBAUM_RULE
from oracles import (
    GeneratedStream,
    evaluate_series,
    feigenbaum_zeta,
    moebius_prime_counts,
    newton_per_counts,
    reciprocal_untrimmed,
    series_product,
    tau_infinity_digit,
    xi_series,
)

# signs of the product expansion prod (1 - z^(2^n)) for k = 1..16
XI_SIGNS = (-1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, 1, -1, -1, 1, -1)

# periodic-point counts of the period-three window parameter: 1 + Lucas(n)
WINDOW_PER = [2, 4, 5, 8, 12, 19, 30, 48, 77, 124, 200, 323]


def _one_minus_z(N):
    return IntSeries((1, -1) + (0,) * (N - 1))


def _reciprocal(f):
    return series_of_rational((1,), f.coefficients, f.order)


def _determinant(zeta):
    # the determinant 1 / ((1 - z) zeta) of any zeta series, by the oracles;
    # integral because zeta_0 = 1
    return IntSeries(reciprocal_untrimmed(series_product(_one_minus_z(zeta.order), zeta)))


def _euler_rebuild(counts, N):
    acc = IntSeries((1,) + (0,) * N)
    for p, cnt in counts.prime_counts.items():
        if p > N or cnt == 0:
            continue
        base = [0] * (N + 1)
        base[0] = 1
        base[p] = -1
        inv = _reciprocal(IntSeries(tuple(base)))
        for _ in range(cnt):
            acc = series_product(acc, inv)
    return acc


def _count_dominated(n, K):
    # periodic words all of whose rotations stay below the kneading tau;
    # the one-sided bound keeps genuine periodic points like the fixed
    # point at the origin that a two-sided itinerary test would drop
    bound = stream_tau(K)
    cnt = 0
    for bits in range(2 ** n):
        s = PeriodicStream("", format(bits, f"0{n}b"))
        if all(stream_tau(shift(s, m)) <= bound for m in range(n)):
            cnt += 1
    return cnt


def test_series_arithmetic_and_reciprocal():
    rng = random.Random(5)
    for _ in range(50):
        coeffs = [1] + [rng.randrange(-9, 10) for _ in range(12)]
        f = IntSeries(tuple(coeffs))
        assert series_product(f, _reciprocal(f)).coefficients == (1,) + (0,) * 12
    with pytest.raises(ArithmeticError):
        _reciprocal(IntSeries((2, 1)))
    with pytest.raises(ArithmeticError):
        _reciprocal(IntSeries((0, 1)))
    f = IntSeries((1, -1, 0, 0))
    g = IntSeries((1, 1, 0, 0))
    assert series_product(f, g).coefficients == (1, 0, -1, 0)
    assert evaluate_series(f, Fraction(1, 2)) == Fraction(1, 2)


def _fraction_log(zeta):
    # reference: coefficients of log(zeta) over Fraction, from
    # k b_k = k c_k - sum_{i<k} i b_i c_{k-i}
    c = zeta.coefficients
    b = [Fraction(0)] * len(c)
    for k in range(1, len(c)):
        acc = sum((i * b[i] * c[k - i] for i in range(1, k)), Fraction(0))
        b[k] = c[k] - acc / k
    return b


def test_fraction_log_geometric():
    f = series_of_rational([1], [1, -2], 10)
    b = _fraction_log(f)
    for n in range(1, 11):
        assert b[n] == Fraction(2 ** n, n)
    assert orbit_counts(_determinant(f)).per_counts == {n: 2 ** n for n in range(1, 11)}


@settings(max_examples=60, deadline=None)
@given(
    st.builds(
        PeriodicStream,
        st.text(alphabet="01", min_size=0, max_size=6),
        st.text(alphabet="01", min_size=1, max_size=8),
    ),
    st.integers(min_value=1, max_value=40),
)
def test_orbit_counts_match_fraction_log(K, N):
    D = kneading_determinant(K, N)
    z = zeta_series(D)
    b = _fraction_log(z)
    per = {n: n * b[n] for n in range(1, N + 1)}
    assert all(v.denominator == 1 for v in per.values())
    if any(v < 0 for v in per.values()):
        with pytest.raises(ArithmeticError, match="#Per_"):
            orbit_counts(D)
        return
    try:
        oc = orbit_counts(D)
    except ArithmeticError as e:
        # only the prime-orbit sign check may reject nonnegative #Per_n
        assert "is negative" in str(e)
        return
    assert oc.per_counts == per


def _counts(D):
    # an exception, by type and message, stands for the counts
    try:
        return orbit_counts(D)
    except ArithmeticError as e:
        return type(e), str(e)


def _assert_matches_generic(K, N):
    # the expansion without the rational form or the library's recurrence,
    # its counts from a determinant that carries no pair, and #Per_n from the
    # Newton identity on its own
    D = kneading_determinant(K, N)
    generic = IntSeries(reciprocal_untrimmed(series_product(_one_minus_z(N), D)))
    z = zeta_series(D)
    assert z.coefficients == generic.coefficients
    counts = _counts(D)
    assert counts == _counts(_determinant(generic))
    per = newton_per_counts(generic)
    negative = [(n, v) for n, v in enumerate(per, start=1) if v < 0]
    if negative:
        n, v = negative[0]
        assert counts == (ArithmeticError, f"#Per_{n} = {v} is not a nonnegative integer")
    elif isinstance(counts, OrbitCounts):
        assert counts.per_counts == dict(enumerate(per, start=1))


@settings(max_examples=80, deadline=None)
@given(
    st.builds(
        PeriodicStream,
        st.text(alphabet="01", min_size=0, max_size=6),
        st.text(alphabet="01", min_size=1, max_size=9),
    ),
    st.integers(min_value=1, max_value=200),
)
def test_rational_zeta_matches_generic_expansion(K, N):
    _assert_matches_generic(K, N)


@pytest.mark.parametrize("j", range(1, 11))
def test_cascade_zeta_matches_generic_expansion(j):
    for N in (1, 5, 100, 700):
        _assert_matches_generic(feigenbaum_stream(j), N)


def test_trimmed_reciprocal_matches_untrimmed():
    rng = random.Random(12)
    for _ in range(200):
        poly = [rng.choice((1, -1))] + [rng.randint(-3, 3) for _ in range(rng.randint(0, 8))]
        f = IntSeries(tuple(poly) + (0,) * rng.randint(0, 40))
        assert _reciprocal(f).coefficients == reciprocal_untrimmed(f)
    assert _reciprocal(IntSeries((-1, 0, 0))).coefficients == (-1, 0, 0)


def _padded(c, N):
    return IntSeries((tuple(c) + (0,) * (N + 1))[: N + 1])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((1, -1)), st.lists(st.integers(-4, 4), max_size=14),
       st.lists(st.integers(-9, 9), max_size=14), st.integers(0, 12))
def test_series_of_rational_times_denominator(d0, tail, num, N):
    # the one expansion recurrence, checked by multiplying back; num and den
    # may be shorter or longer than the N + 1 coefficients kept
    den = [d0] + tail
    c = series_of_rational(num, den, N)
    assert c.order == N
    assert series_product(c, _padded(den, N)) == _padded(num, N)
    for bad in (0, 2, -3):
        with pytest.raises(ArithmeticError) as e:
            series_of_rational(num, [bad] + tail, N)
        assert str(e.value) == f"reciprocal needs constant term 1 or -1, got {bad}"
    with pytest.raises(ArithmeticError) as e:
        series_of_rational(num, [], N)
    assert str(e.value) == "reciprocal needs constant term 1 or -1, got 0"


def test_determinant_cases():
    # eventually periodic stream: infinite sum, truncated
    D = kneading_determinant(PeriodicStream("1", "0"), 5)
    assert D.coefficients == (1, -1, -1, -1, -1, -1)
    # purely periodic stream with digit period 3: polynomial of degree 2
    D = kneading_determinant(PeriodicStream("", "101"), 6)
    assert D.coefficients == (1, -1, -1, 0, 0, 0, 0)
    # generated stream: truncated infinite sum
    D = kneading_determinant(feigenbaum_limit(), 16)
    assert D.coefficients == (1,) + XI_SIGNS


@settings(max_examples=200, deadline=None)
@given(
    st.builds(
        PeriodicStream,
        st.text(alphabet="01", min_size=0, max_size=6),
        st.text(alphabet="01", min_size=1, max_size=9),
    ),
    st.integers(min_value=1, max_value=60),
)
def test_determinant_carries_its_exact_fraction(K, N):
    # the determinant's exact pair (P, R) is D itself: with a preperiod
    # R = 1 - z^p resums the tail, without one P is the polynomial
    D = kneading_determinant(K, N)
    P, R = D.exact
    if K.preperiod:
        assert series_of_rational(P, R, N).coefficients == D.coefficients
    else:
        assert R == (1,)
        assert _padded(P, N).coefficients == D.coefficients
    # a stream seen only through a generator gives the truncation, no pair
    assert kneading_determinant(GeneratedStream(K), N).exact is None
    # no series but a determinant carries a pair
    assert zeta_series(D).exact is None
    assert series_of_rational(P, R, N).exact is None


def _at_z_squared(f):
    """Coefficients of f(z^2)."""
    out = [0] * (2 * len(f) - 1)
    out[::2] = f
    return out


def _sigma(K):
    """sigma K for sigma: 1 -> 10, 0 -> 11, substituted into both words."""
    return PeriodicStream(FEIGENBAUM_RULE.apply(K.preperiod),
                          FEIGENBAUM_RULE.apply(K.period))


@settings(max_examples=300, deadline=None)
@given(
    st.builds(
        PeriodicStream,
        st.text(alphabet="01", min_size=0, max_size=6),
        st.text(alphabet="01", min_size=1, max_size=9),
    ),
    st.integers(min_value=1, max_value=60),
)
def test_doubling_identity(K, N):
    # D_{sigma K}(z) = (1 - z) D_K(z^2), proved in kneading_determinant's
    # docstring: on the order-N series, and on the exact pairs crossed over
    sK = _sigma(K)
    D, sD = kneading_determinant(K, N), kneading_determinant(sK, N)
    assert list(sD.coefficients) == _poly_product(
        [(1, -1), _at_z_squared(D.coefficients)])[: N + 1]
    (P, R), (sP, sR) = D.exact, sD.exact
    assert _poly_product([sP, _at_z_squared(R)]) == _poly_product(
        [(1, -1), _at_z_squared(P), sR])


def test_doubling_keeps_maximal_streams_maximal():
    # sigma K is maximal whenever K is, over every maximal reduced p/q, q < 40
    for q in range(1, 40):
        for p in range(1, q + 1):
            if math.gcd(p, q) == 1 and is_maximal(K := kneading_from_tau(Fraction(p, q))):
                assert is_maximal(_sigma(K)) is True, (p, q)


def test_cascade_pairs_are_the_doubled_products():
    # 1^inf has the pair (1 - z, 1), and level j is sigma^(j-1) of it
    for j in range(1, 13):
        P = _poly_product([(1,) + (0,) * ((1 << i) - 1) + (-1,) for i in range(j)])
        assert kneading_determinant(feigenbaum_stream(j), 1).exact == (tuple(P), (1,)), j
        if j > 1:
            assert feigenbaum_stream(j) == _sigma(feigenbaum_stream(j - 1))


def test_xi_oracle_is_the_limit_determinant():
    # the lacunary product and the determinant read from the limit stream,
    # at every order to 64 and around each power of two to 4096
    for N in [*range(1, 65), *((1 << k) + d for k in range(6, 12) for d in (-1, 0, 1)),
              4095, 4096]:
        assert xi_series(N) == kneading_determinant(feigenbaum_limit(), N), N


def test_zeta_closed_forms():
    N = 30
    full = zeta_series(kneading_determinant(kneading_from_tau(Fraction(1)), N))
    assert full == series_of_rational([1], [1, -2], N)
    band = zeta_series(kneading_determinant(kneading_from_tau(Fraction(5, 6)), N))
    assert band == series_of_rational([1, 1], [1, -1, -2, 2], N)
    window = zeta_series(kneading_determinant(kneading_from_tau(Fraction(6, 7)), N))
    assert window == series_of_rational([1], [1, -2, 0, 1], N)


def test_xi_series_printed_coefficients():
    assert kneading_determinant(feigenbaum_limit(), 16).coefficients == (1,) + XI_SIGNS


def test_xi_coefficient_identity():
    c = kneading_determinant(feigenbaum_limit(), 4096).coefficients
    for k in range(1, 4097):
        assert c[k] == (-1) ** k.bit_count()
        assert c[k] == 1 - 2 * tau_infinity_digit(k)


@pytest.mark.parametrize("N", [16, 64, 256, 1024])
def test_functional_equation_residual_is_zero(N):
    xi_z = kneading_determinant(feigenbaum_limit(), N)
    sq = [0] * (N + 1)
    for k in range(N // 2 + 1):
        sq[2 * k] = xi_z[k]
    rhs = series_product(_one_minus_z(N), IntSeries(tuple(sq)))
    assert xi_z.coefficients == rhs.coefficients


def test_xi_half_evaluation_hits_limit_parameter():
    # the tail past z^N moves S(1/2) by at most 2^-N, so tau by 2^-(N+1)
    enc = tau_infinity_enclosure(200)
    for N in (1, 7, 64, 200):
        s = evaluate_series(kneading_determinant(feigenbaum_limit(), N), Fraction(1, 2))
        err = Fraction(1, 2 ** N)
        lo, hi = 1 - (s + err) / 2, 1 - (s - err) / 2
        assert max(lo, enc.lo) <= min(hi, enc.hi), N


def _tau_at_one_half(K, D):
    # tau(K) = 1 - S(1/2) / 2 (proof in kneading_determinant): S = P / R with
    # a preperiod, S = P / (1 - z^p) with p = len P without one
    P, R = (evaluate_series(IntSeries(f), Fraction(1, 2)) for f in D.exact)
    if not K.preperiod:
        R = 1 - Fraction(1, 2 ** len(D.exact[0]))
    return 1 - P / (2 * R)


@settings(max_examples=300, deadline=None)
@given(
    st.builds(
        PeriodicStream,
        st.text(alphabet="01", min_size=0, max_size=8),
        st.text(alphabet="01", min_size=1, max_size=10),
    ),
    st.integers(min_value=1, max_value=40),
)
def test_tau_is_the_determinant_at_one_half(K, N):
    assert _tau_at_one_half(K, kneading_determinant(K, N)) == stream_tau(K)


def test_tau_level_is_the_cascade_determinant_at_one_half():
    for j in range(1, 12):
        K = feigenbaum_stream(j)
        D = kneading_determinant(K, 1)
        assert not K.preperiod and D.exact[1] == (1,)
        assert _tau_at_one_half(K, D) == tau_level(j).value, j


def test_cascade_zeta_polynomial():
    N = 20
    assert feigenbaum_zeta(1, N) == series_of_rational([1], [1, -2, 0, 2, -1], N)
    # the degree-(2^(j+1)) polynomial is the determinant of the level j+1
    # word stream times (1 - z)
    for j in range(1, 7):
        K = feigenbaum_stream(j + 1)
        assert feigenbaum_zeta(j, 40) == zeta_series(kneading_determinant(K, 40)), j
    # coefficientwise stabilization once 2^(j+1) exceeds the order
    limit = IntSeries(reciprocal_untrimmed(series_product(
        _one_minus_z(30), kneading_determinant(feigenbaum_limit(), 30))))
    assert feigenbaum_zeta(5, 30) == feigenbaum_zeta(9, 30) == limit
    # levels past log2 N cost no more than the first one that reaches N
    assert feigenbaum_zeta(10 ** 6, 64) == feigenbaum_zeta(6, 64)


def test_cascade_polynomial_roots_on_circle():
    import cmath

    for j in range(1, 7):
        deg = 2 ** (j + 1)
        poly = _reciprocal(zeta_series(
            kneading_determinant(feigenbaum_stream(j + 1), deg))).coefficients
        roots = [1.0 + 0j]
        for n in range(j + 1):
            m = 2 ** n
            roots += [cmath.exp(2j * cmath.pi * k / m) for k in range(m)]
        assert len(roots) == deg
        for r in roots:
            assert abs(abs(r) - 1) < 1e-12
            v = 0j
            for c in reversed(poly):
                v = v * r + c
            assert abs(v) < 1e-9


def test_full_shift_orbit_counts():
    D = kneading_determinant(kneading_from_tau(Fraction(1)), 10)
    z = zeta_series(D)
    oc = orbit_counts(D)
    assert [oc.per_counts[n] for n in range(1, 11)] == [2 ** n for n in range(1, 11)]
    assert [oc.prime_counts[p] for p in (1, 2, 3, 4)] == [2, 1, 2, 3]
    assert _euler_rebuild(oc, 10) == z


def test_window_orbit_counts():
    D = kneading_determinant(kneading_from_tau(Fraction(6, 7)), 12)
    z = zeta_series(D)
    oc = orbit_counts(D)
    assert [oc.per_counts[n] for n in range(1, 13)] == WINDOW_PER
    assert _euler_rebuild(oc, 12) == z
    K = kneading_from_tau(Fraction(6, 7))
    for n in range(1, 9):
        assert _count_dominated(n, K) == oc.per_counts[n]


def _euler_product(exponents):
    # coefficients of prod_p (1 - z^p)^(-e_p) to order len(exponents)
    c = [1] + [0] * len(exponents)
    for p, e in enumerate(exponents, start=1):
        for _ in range(e):
            for n in range(p, len(c)):
                c[n] += c[n - p]
        for _ in range(-e):
            for n in range(len(c) - 1, p - 1, -1):
                c[n] -= c[n - p]
    return IntSeries(c)


_zeta_like = st.one_of(
    st.lists(st.integers(min_value=-3, max_value=6), max_size=30).map(
        lambda c: IntSeries([1, *c])),
    st.lists(st.integers(min_value=-2, max_value=3), max_size=30).map(_euler_product),
    st.builds(zeta_series, st.builds(kneading_determinant, st.builds(
        PeriodicStream,
        st.text(alphabet="01", min_size=0, max_size=6),
        st.text(alphabet="01", min_size=1, max_size=8),
    ), st.integers(min_value=1, max_value=40))),
)


@settings(max_examples=300, deadline=None)
@given(_zeta_like)
def test_orbit_counts_match_moebius_inversion(z):
    # the same counts, or the same error by type and message
    per = newton_per_counts(z)
    bad = next(((n, v) for n, v in enumerate(per, start=1) if v < 0), None)
    if bad:
        expected = ArithmeticError, f"#Per_{bad[0]} = {bad[1]} is not a nonnegative integer"
    else:
        try:
            expected = dict(enumerate(per, start=1)), moebius_prime_counts(per)
        except ArithmeticError as e:
            expected = type(e), str(e)
    got = _counts(_determinant(z))
    if isinstance(got, OrbitCounts):
        got = got.per_counts, got.prime_counts
    assert got == expected


def test_orbit_counts_reject_invalid():
    with pytest.raises(ArithmeticError):
        orbit_counts(_determinant(IntSeries((1, -1, 0, 0))))
    with pytest.raises(ArithmeticError):
        orbit_counts(_determinant(IntSeries((1, 1, 0, 0))))


def test_exact_pair_constant_terms_are_checked():
    # orbit_counts' sieve divides exactly because R_0 = +-1 and P_0 = R_0 c_0
    for pair in (((1,), (3,)), ((2,), (1,)), ((1,), (-1,)), ((), (1,))):
        with pytest.raises(ValueError, match="exact pair"):
            IntSeries((1, 0, 0, 0, 0, 0), pair)
    assert IntSeries((-1, 2), ((1,), (-1,))).exact == ((1,), (-1,))


def test_entropy_full_shift():
    r = entropy(kneading_determinant(kneading_from_tau(Fraction(1)), 256))
    assert r.method == "exact-rational-root"
    assert r.hi - r.lo <= 1e-10
    assert r.lo <= math.log(2) <= r.hi


def test_entropy_band_merging():
    r = entropy(kneading_determinant(kneading_from_tau(Fraction(5, 6)), 256))
    assert r.method == "bisection"
    assert r.hi - r.lo <= 1e-10
    assert r.lo <= math.log(2) / 2 <= r.hi


def test_entropy_period_three_window():
    r = entropy(kneading_determinant(kneading_from_tau(Fraction(6, 7)), 256))
    assert r.hi - r.lo <= 1e-10
    assert r.lo <= math.log((1 + math.sqrt(5)) / 2) <= r.hi


def test_entropy_cascade_is_zero():
    for j in range(1, 11):
        r = entropy(kneading_determinant(feigenbaum_stream(j), 256))
        assert (r.lo, r.hi, r.method) == (0.0, 0.0, "unit-root-factors"), j


def test_entropy_values_increase():
    h_band = entropy(kneading_determinant(kneading_from_tau(Fraction(5, 6)), 256))
    h_window = entropy(kneading_determinant(kneading_from_tau(Fraction(6, 7)), 256))
    h_full = entropy(kneading_determinant(kneading_from_tau(Fraction(1)), 256))
    assert h_band.hi < h_window.lo
    assert h_window.hi < h_full.lo


def test_entropy_generated_stream_matches_exact():
    # same symbols as the full-shift stream, but exposed only through a
    # generator: forces the truncation + tail-bound path
    raw = GeneratedStream(PeriodicStream("1", "0"))
    r = entropy(kneading_determinant(raw, 256), tol=Fraction(1, 10 ** 8))
    assert r.method == "bisection"
    assert r.lo <= math.log(2) <= r.hi
    assert r.hi - r.lo <= 1e-8


def test_entropy_generated_inconclusive():
    with pytest.raises(EntropyInconclusive):
        entropy(kneading_determinant(feigenbaum_limit(), 64), tol=Fraction(1, 10 ** 6))


def test_entropy_cutoff_below_smallest_float():
    # tol just below 4/3 puts the no-root cutoff 1 - 3 tol / 4 = 3 / (4 10^400)
    # under the smallest float; its log comes from numerator and denominator
    tol = Fraction(4 * 10 ** 400 - 3, 3 * 10 ** 400)
    r = entropy(kneading_determinant(feigenbaum_limit(), 64), tol=tol)
    assert r.method == "no-root-below"
    assert r.z_bracket == (Fraction(3, 4 * 10 ** 400), 1)
    assert r.lo == 0.0
    assert 0 < r.hi - (400 * math.log(10) + math.log(4 / 3)) < 1e-9


def test_entropy_trusts_only_the_determinants_mark():
    # a series with the determinant's coefficients but built from its pair
    # carries no pair: it is read as a truncation, never as exact, and a
    # series that no stream gives is refused
    K = kneading_from_tau(Fraction(37, 40))
    exact = entropy(kneading_determinant(K, 3))
    h = (exact.lo + exact.hi) / 2
    for N in (3, 64):
        D = kneading_determinant(K, N)
        S = series_of_rational(*D.exact, N)
        assert S.coefficients == D.coefficients
        assert S.exact is None
        if N < 8:
            with pytest.raises(ValueError):
                entropy(S)
        else:
            r = entropy(S, tol=Fraction(1, 10 ** 6))
            assert r.lo <= h <= r.hi
    with pytest.raises(ValueError):
        entropy(IntSeries(tuple(range(1, 20))))
    with pytest.raises(ValueError):
        entropy(IntSeries((1,) + (1, 0) * 10))


def _poly_product(factors):
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, u in enumerate(out):
            for j, v in enumerate(f):
                prod[i + j] += u * v
        out = prod
    return out


def _exact(*factors):
    """The series of the polynomial prod(factors), carrying it as its pair."""
    P = tuple(_poly_product(factors))
    return IntSeries(P, (P, (1,)))


@pytest.mark.parametrize("D,reason", [
    # the root 1/2 sits on the scan's grid, but the double root 1/3 left of
    # it blocks the certificate that 1/2 is the smallest
    (_exact((1, -3), (1, -3), (1, -2)),
     "rational root found but smallest-root certificate failed; increase N"),
    # the same double root left of the sign change the scan finds at 3/5
    (_exact((1, -3), (1, -3), (3, -5)),
     "sign change found but positivity left of it failed; increase N"),
    # a truncation whose tail bound leaves every probe's sign open
    (IntSeries((1, -1, -1, -1, -1, -1, 1, -1, 1)),
     "tail bound at order 8 cannot sign any probe; increase N"),
])
def test_entropy_refusals(D, reason):
    with pytest.raises(EntropyInconclusive) as e:
        entropy(D)
    assert str(e.value) == reason


def test_entropy_exact_root_at_a_bisection_midpoint():
    # 65 - 128 z changes sign between 32/64 and 33/64, and the first
    # midpoint of that bracket is its root
    r = entropy(_exact((65, -128)))
    assert r.method == "exact-rational-root"
    assert r.z_bracket == (Fraction(65, 128), Fraction(65, 128))
    assert r.lo <= math.log(128 / 65) <= r.hi


# (a, b, root positive?, multiplicity)
_linear = st.tuples(st.integers(1, 12), st.integers(1, 12), st.booleans(), st.integers(1, 2))
# m z^2 + p z + q with p^2 < 4 m q: no real root, positive everywhere
_quadratic = st.tuples(st.integers(1, 6), st.integers(-12, 12), st.integers(1, 12)).filter(
    lambda t: t[1] ** 2 < 4 * t[0] * t[2])


@settings(max_examples=400, deadline=None)
@given(st.lists(_linear, max_size=4), st.lists(_quadratic, max_size=3),
       st.fractions(Fraction(1, 64), Fraction(2)), st.sampled_from((0, 1, 2)),
       st.sampled_from(([1], [-1], [0, 1])))
def test_certify_positive_against_root_locations(linear, quadratic, x, at_root, unit):
    # a - b z (root a/b > 0) or a + b z (root -a/b < 0): every factor is
    # positive at 0, and so is the product unless unit is -1 or z.  x may sit
    # on the first root, or put it on the first midpoint of the bisection.
    if at_root and linear and linear[0][2]:
        x = at_root * Fraction(linear[0][0], linear[0][1])
    factors = [[a, -b] if pos else [a, b] for a, b, pos, k in linear for _ in range(k)]
    poly = _poly_product(factors + [[q, p, m] for m, p, q in quadratic] + [unit])
    not_positive = unit != [1] or any(pos and Fraction(a, b) <= x for a, b, pos, _ in linear)
    # the disc with diameter [0, x] holds a root r iff |r|^2 <= x Re r: for
    # the quadratic's roots, q/m <= -x p / (2m)
    in_disc = not_positive or any(2 * q + x * p <= 0 for m, p, q in quadratic)
    certified = _certify_positive(poly, x)
    if not_positive:
        assert not certified
    if not in_disc:
        # the one-circle theorem: no sign change after the Moebius map
        assert certified


def test_certify_positive_bisects(monkeypatch):
    shifts = []
    shift = spectral._taylor_shift
    monkeypatch.setattr(spectral, "_taylor_shift", lambda q: shifts.append(q) or shift(q))

    def certify(poly):
        """_certify_positive(poly, 1) and, if it returns True, the number of
        bisections it made: each interval popped costs one Taylor shift, and
        each split one more."""
        shifts.clear()
        certified = _certify_positive(poly, Fraction(1))
        return certified, (len(shifts) - 1) // 3 if certified else None

    # roots 1/2 +- i/10 lie in the disc over [0, 1] but in neither disc over
    # its halves: one split
    assert certify([26, -100, 100]) == (True, 1)
    # 9 4^e (z - 1/3)^2 + 9, roots 1/3 +- i 2^-e, is positive on [0, 1] and
    # at every midpoint, so False can only come from the depth-24 cap
    for e, result in ((20, (True, 19)), (40, (False, None))):
        assert certify([4 ** e + 9, -6 * 4 ** e, 9 * 4 ** e]) == result, e


# sha256 of the repr of every EntropyResult (or EntropyInconclusive message)
# over _entropy_golden_cases, recorded before the entropy certificate moved
# from Fraction interval boxes to integer signs and Descartes' rule
ENTROPY_GOLDEN_SHA256 = "4102998eb43be58d9909129ae0dc262e9d782f69ed375683a5c27f19dce462b9"


def _entropy_golden_cases():
    for q in range(1, 65):
        for p in range(1, q + 1):
            if math.gcd(p, q) == 1:
                K = kneading_from_tau(Fraction(p, q))
                if is_maximal(K):
                    yield lambda K=K: entropy(kneading_determinant(K, 256))
    for j in range(1, 11):
        yield lambda j=j: entropy(kneading_determinant(feigenbaum_stream(j), 256))
    for N in (64, 256):
        yield lambda N=N: entropy(kneading_determinant(feigenbaum_limit(), N))
    for tau, N in (("1", 256), ("5/6", 256), ("6/7", 256), ("4/5", 64), ("14/17", 64)):
        K = kneading_from_tau(Fraction(tau))
        yield lambda K=K, N=N: entropy(kneading_determinant(GeneratedStream(K), N))


def test_entropy_golden_hash():
    h = hashlib.sha256()
    for run in _entropy_golden_cases():
        try:
            out = repr(run())
        except EntropyInconclusive as e:
            out = "EntropyInconclusive: " + str(e)
        h.update(out.encode() + b"\n")
    assert h.hexdigest() == ENTROPY_GOLDEN_SHA256


def _strip_unit_factors_restarting(poly):
    """The earlier loop, kept as the oracle: divide out one factor
    (1 -+ z^(2^i)) at a time, restarting the scan at e = 1 after each."""
    changed = True
    while changed:
        changed = False
        e = 1
        while e <= len(poly) - 1:
            for sign in (1, -1):
                q = _try_divide(poly, e, sign)
                if q is not None:
                    poly = q
                    changed = True
                    break
            if changed:
                break
            e *= 2
    return poly


def _times_unit_factor(poly, e, sign):
    """poly * (1 - sign z^e)."""
    out = list(poly) + [0] * e
    for k, c in enumerate(poly):
        out[k + e] -= sign * c
    return out


def test_strip_unit_factors_matches_restarting_loop():
    rng = random.Random(11)
    for _ in range(300):
        poly = [1] + [rng.randint(-3, 3) for _ in range(rng.randint(0, 6))]
        for _ in range(rng.randint(0, 8)):
            poly = _times_unit_factor(poly, 1 << rng.randint(0, 5), rng.choice((1, -1)))
        while len(poly) > 1 and poly[-1] == 0:
            poly.pop()
        got = _strip_unit_factors(poly)
        assert got == _strip_unit_factors_restarting(poly)
        assert all(_try_divide(got, 1 << i, s) is None
                   for i in range(len(got).bit_length()) for s in (1, -1))
    for j in range(1, 15):
        poly = list(kneading_determinant(feigenbaum_stream(j), 8).exact[0])
        assert _strip_unit_factors(poly) == _strip_unit_factors_restarting(poly) == [1]
