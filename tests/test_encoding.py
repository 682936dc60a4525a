import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kneading.encoding import (
    binary_digits,
    is_maximal,
    kneading_from_tau,
    stream_tau,
    tau_of_periodic,
    xi,
    xi_inverse,
)
from kneading.symbolic import (
    PeriodicStream,
    feigenbaum_limit,
    feigenbaum_stream,
    shift,
)
from kneading.spectral import _epsilon_prefix
from oracles import (
    GeneratedStream,
    Order,
    in_lambda,
    remainder_binary_digits,
    tent,
    word_order,
)

periodic_streams = st.builds(
    PeriodicStream,
    st.text(alphabet="01", min_size=0, max_size=6),
    st.text(alphabet="01", min_size=1, max_size=8),
)


def rand_stream(rng, max_pre=6, max_per=8):
    pre = "".join(rng.choice("01") for _ in range(rng.randrange(0, max_pre + 1)))
    per = "".join(rng.choice("01") for _ in range(rng.randrange(1, max_per + 1)))
    return PeriodicStream(pre, per)


def test_xi_examples():
    assert xi(PeriodicStream("", "10")) == PeriodicStream("", "1100")
    assert xi(PeriodicStream("", "1")) == PeriodicStream("", "10")
    assert xi(PeriodicStream("1", "0")) == PeriodicStream("", "1")
    # period of even weight keeps its length
    assert xi(PeriodicStream("", "101")) == PeriodicStream("", "110")


def test_xi_odd_weight_period_doubles():
    s = PeriodicStream("", "1011")  # weight 3
    t = xi(s)
    assert len(t.period) == 8
    assert t == PeriodicStream("", "11010010")


def test_xi_inverse_examples():
    assert xi_inverse(PeriodicStream("", "1")) == PeriodicStream("1", "0")
    assert xi_inverse(PeriodicStream("", "1100")) == PeriodicStream("", "10")


@given(periodic_streams)
def test_xi_round_trip_hypothesis(s):
    assert xi_inverse(xi(s)) == s


def test_xi_round_trip_bulk():
    rng = random.Random(2024)
    for _ in range(1000):
        s = rand_stream(rng)
        assert xi_inverse(xi(s)) == s
        t = xi(s)
        assert xi(xi_inverse(t)) == t


def test_xi_on_generated_stream():
    t = xi(feigenbaum_limit())
    assert t.prefix(8) == "11010011"
    assert t.prefix(3)[2] == "0"


def test_epsilon():
    # eps_k = (-1)^(s_1 + ... + s_k), the signs of the kneading determinant
    s = PeriodicStream("1", "0")
    assert _epsilon_prefix(xi(s), 4) == [-1, -1, -1, -1]
    assert _epsilon_prefix(xi(s), 0) == []
    eps = _epsilon_prefix(xi(feigenbaum_limit()), 16)
    assert eps == [-1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, 1, -1, -1, 1, -1]


def test_tau_of_periodic():
    assert tau_of_periodic(PeriodicStream("", "10")) == Fraction(2, 3)
    assert tau_of_periodic(PeriodicStream("", "1100")) == Fraction(4, 5)
    assert tau_of_periodic(PeriodicStream("", "110")) == Fraction(6, 7)
    assert tau_of_periodic(PeriodicStream("1", "10")) == Fraction(5, 6)
    assert tau_of_periodic(PeriodicStream("", "1")) == 1
    with pytest.raises(TypeError):
        tau_of_periodic(feigenbaum_limit())


def test_stream_tau_cascade_values():
    assert stream_tau(feigenbaum_stream(1)) == Fraction(2, 3)
    assert stream_tau(feigenbaum_stream(2)) == Fraction(4, 5)
    assert stream_tau(feigenbaum_stream(3)) == Fraction(14, 17)
    assert stream_tau(feigenbaum_stream(4)) == Fraction(212, 257)


def test_binary_digits():
    assert binary_digits(Fraction(2, 3)) == PeriodicStream("", "10")
    assert binary_digits(Fraction(1, 2)) == PeriodicStream("1", "0")
    assert binary_digits(Fraction(1)) == PeriodicStream("", "1")
    assert binary_digits(Fraction(0)) == PeriodicStream("", "0")
    assert binary_digits(Fraction(5, 6)) == PeriodicStream("1", "10")
    rng = random.Random(5)
    for _ in range(300):
        q = rng.randrange(1, 1000)
        p = rng.randrange(0, q + 1)
        x = Fraction(p, q)
        assert tau_of_periodic(binary_digits(x)) == x


def test_binary_digits_match_remainder_loop():
    # every p/q with q < 100, and one p for each q < 2000
    rng = random.Random(14)
    xs = {Fraction(p, q) for q in range(1, 100) for p in range(q + 1)}
    xs.update(Fraction(rng.randrange(q + 1), q) for q in range(100, 2000))
    for x in xs:
        assert binary_digits(x) == remainder_binary_digits(x), x
    for bad in (Fraction(-1, 3), Fraction(4, 3)):
        with pytest.raises(ValueError, match=r"value out of \[0, 1\]"):
            binary_digits(bad)


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=64),
       st.integers(min_value=0, max_value=49999), st.data())
def test_binary_digits_match_remainder_loop_long_preperiod(k, half, data):
    # q = 2^k o with o odd below 10^5: preperiod k, period the order of 2 mod o
    q = (2 * half + 1) << k
    x = Fraction(data.draw(st.integers(min_value=0, max_value=q)), q)
    assert binary_digits(x) == remainder_binary_digits(x)


def test_kneading_from_tau():
    assert kneading_from_tau(Fraction(6, 7)) == PeriodicStream("", "101")
    assert kneading_from_tau(Fraction(5, 6)) == PeriodicStream("10", "1")
    assert kneading_from_tau(Fraction(1)) == PeriodicStream("1", "0")


def test_tent():
    assert tent(Fraction(1, 3)) == Fraction(2, 3)
    assert tent(Fraction(2, 3)) == Fraction(2, 3)
    assert tent(Fraction(1, 2)) == 1
    assert tent(Fraction(6, 7)) == Fraction(2, 7)


def test_conjugacy_bulk():
    # tau(shift(s)) = tent(tau(s)), exactly, on random periodic streams
    rng = random.Random(99)
    for _ in range(1000):
        s = rand_stream(rng)
        q = stream_tau(s)
        assert stream_tau(shift(s, 1)) == tent(q)


def test_in_lambda():
    assert in_lambda(Fraction(6, 7)) is True
    assert in_lambda(Fraction(2, 3)) is True
    assert in_lambda(Fraction(1, 3)) is False
    assert in_lambda(Fraction(1)) is True
    assert in_lambda(Fraction(0)) is True
    assert in_lambda(Fraction(4, 5)) is True


def all_streams(max_pre=3, max_per=5):
    """Every eventually periodic stream with preperiod <= max_pre and
    period <= max_per (416 of them at the defaults)."""
    def words(lo, hi):
        return ("".join(w) for n in range(lo, hi + 1)
                for w in itertools.product("01", repeat=n))

    return {PeriodicStream(a, b) for a in words(0, max_pre) for b in words(1, max_per)}


def test_lambda_matches_maximality():
    rng = random.Random(41)
    streams = all_streams()
    assert len(streams) == 416
    streams = list(streams) + [rand_stream(rng, max_pre=0) for _ in range(500)]
    streams += [rand_stream(rng) for _ in range(500)]
    for s in streams:
        q = stream_tau(s)
        assert in_lambda(q) == is_maximal(s)


def test_word_order():
    assert word_order("110", "101") is Order.GT
    assert word_order("10", "101") is Order.EQ_PREFIX
    assert word_order("011", "10") is Order.LT
    assert word_order("", "1") is Order.EQ_PREFIX
    # antisymmetry
    rng = random.Random(3)
    for _ in range(200):
        u = "".join(rng.choice("01") for _ in range(rng.randrange(0, 8)))
        v = "".join(rng.choice("01") for _ in range(rng.randrange(0, 8)))
        o1, o2 = word_order(u, v), word_order(v, u)
        if o1 is Order.EQ_PREFIX:
            assert o2 is Order.EQ_PREFIX
        else:
            assert o2.value == -o1.value


def test_is_maximal_periodic():
    assert is_maximal(PeriodicStream("", "101")) is True
    assert is_maximal(PeriodicStream("", "01")) is False
    assert is_maximal(PeriodicStream("1", "0")) is True
    for j in range(1, 9):
        assert is_maximal(feigenbaum_stream(j)) is True


def test_is_maximal_generated():
    assert is_maximal(feigenbaum_limit()) is True
    # a periodic stream seen only through its symbols: the shift by one
    # period ties with K over every compared digit, so it stays undetermined
    assert is_maximal(GeneratedStream(feigenbaum_stream(3))) is None
    assert is_maximal(GeneratedStream(PeriodicStream("", "01"))) is False
