"""The gates of the two bench scripts: caps.compare and pairs.verdict."""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


caps = _load("caps")
pairs = _load("pairs")


def _row(sha, exit=None):
    row = {"sha256": sha}
    if exit is not None:
        row["exit"] = exit
    return row


def test_compare_same_exit_compares_digests():
    parent = {"a": _row("x", 0), "b": _row("y", 2)}
    assert caps.compare(parent, {"a": _row("x", 0), "b": _row("y", 2)}) == {
        "digests_identical": True, "rows_changed": [], "rows_newly_accepted": []}
    assert caps.compare(parent, {"a": _row("z", 0), "b": _row("y", 2)}) == {
        "digests_identical": False, "rows_changed": ["a"], "rows_newly_accepted": []}


@pytest.mark.parametrize("old, new", [(0, 3), (0, 2), (2, 1), (1, 0)])
def test_compare_changed_exit_is_a_change(old, new):
    # the same output under another exit code is still a changed row
    got = caps.compare({"a": _row("x", old)}, {"a": _row("x", new)})
    assert got == {"digests_identical": False, "rows_changed": ["a"],
                   "rows_newly_accepted": []}


def test_compare_newly_accepted_row_is_not_a_change():
    got = caps.compare({"a": _row("x", 2), "b": _row("y", 0)},
                       {"a": _row("z", 0), "b": _row("y", 0)})
    assert got == {"digests_identical": True, "rows_changed": [],
                   "rows_newly_accepted": ["a"]}


def test_compare_library_rows_and_new_rows():
    # a row without an exit code is a library call, compared by digest; a
    # row the parent did not run is not compared
    parent = {"lib": _row("x"), "same": _row("y")}
    change = {"lib": _row("w"), "same": _row("y"), "new": _row("v", 3)}
    assert caps.compare(parent, change) == {
        "digests_identical": False, "rows_changed": ["lib"], "rows_newly_accepted": []}
    assert caps.compare(parent, {"same": _row("y"), "new": _row("v", 3)})[
        "digests_identical"]


# parent runs with median 10 and quartiles 9.75 and 10.25
_TIGHT = [9.5, 9.75, 10.0, 10.25, 10.5]


def test_verdict_worse():
    # change median 12.5 exceeds 10 by more than 0.1 * 10
    assert pairs.verdict(_TIGHT, [12.0, 12.5, 13.0], 0.1) == "worse"


def test_verdict_unresolved():
    # the parent's interquartile range, 5, is wider than the bound, 1
    wide = [5.0, 7.5, 10.0, 12.5, 15.0]
    assert pairs.verdict(wide, [10.5, 10.5, 10.5], 0.1) == "unresolved"


def test_verdict_within_bound():
    assert pairs.verdict(_TIGHT, [10.5, 10.9, 11.0], 0.1) == "within bound"
    assert pairs.verdict(_TIGHT, [9.0, 10.0, 11.0], 0.1) == "within bound"


def test_verdict_every_change_run_better():
    # a change whose every run beats every parent run is within bound,
    # however wide the parent's spread
    wide = [5.0, 7.5, 10.0, 12.5, 15.0]
    assert pairs.verdict(wide, [1.0, 2.0, 4.9], 0.1) == "within bound"
    assert pairs.verdict(wide, [1.0, 2.0, 5.0], 0.1) == "unresolved"
