import sys

import pytest


@pytest.fixture
def lift_str_limit():
    """Call it to lift the 4300-digit int/str conversion limit; the limit
    comes back when the test ends.  Lift it only after the code under test
    has run, so that code still sees the default limit."""
    old = sys.get_int_max_str_digits()
    yield lambda: sys.set_int_max_str_digits(0)
    sys.set_int_max_str_digits(old)
