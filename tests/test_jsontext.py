"""The CLI's JSON emitter against its oracle, json.dumps(sort_keys=True, indent=2)."""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kneading._jsontext import json_text


def oracle(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


# every code point: control characters, DEL, non-ASCII, lone surrogates and
# characters outside the BMP, which json writes as surrogate pairs
_TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
_SCALARS = (st.none() | st.booleans()
            | st.integers() | st.integers(min_value=-10**300, max_value=10**300)
            | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0])
            | _TEXT)
# one key type per dict: json sorts the items, and mixed types do not sort
_KEYS = (_TEXT, st.integers(), st.floats(), st.booleans(), st.none())
_TREES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        *(st.dictionaries(keys, children, max_size=4) for keys in _KEYS)),
    max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(_TREES)
@example({"\x00\x1f\x7f\"\\\b\f\n\r\t": ["é", " ", "\U0001d11e", "\ud800"]})
@example({"b": [], "a": {}, "c": [[{}], ()], "d": {"z": None, "y": True}})
@example([math.nan, math.inf, -math.inf, -0.0, 10**4000, -(10**4000), 1e308, 5e-324])
@example({1.5: 0, math.inf: 1, -0.0: 2})
@example({True: 1, False: 2})
@example({None: 1})
@example("")
def test_matches_json_dumps(obj):
    assert json_text(obj) == oracle(obj)


@pytest.mark.parametrize("obj", [
    pytest.param(10**4300, id="int past the 4300-digit limit"),
    pytest.param({"a": [1, 10**4300]}, id="nested int past the limit"),
    pytest.param({"a": object()}, id="object"),
    pytest.param([1, {2, 3}], id="set"),
    pytest.param({"a": 1j}, id="complex"),
    pytest.param({(1, 2): "a"}, id="tuple key"),
    pytest.param({b"a": 1}, id="bytes key"),
    pytest.param({1: "a", "b": 2}, id="keys that do not sort"),
    pytest.param({None: 1, True: 2}, id="None and bool keys"),
])
def test_raises_what_json_raises(obj):
    with pytest.raises(Exception) as want:
        oracle(obj)
    with pytest.raises(want.type) as got:
        json_text(obj)
    assert str(got.value) == str(want.value)
