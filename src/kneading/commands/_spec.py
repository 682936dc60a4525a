"""Number and ``--tau`` spec parsing, for the commands that read them.

Only ``zeta``, ``lang`` and ``reproduce`` import this module, so no other
command compiles it.
"""

from .. import encoding, symbolic

# Fraction("1e-10000000") builds 10^10000000 (8 s on a 2-core Xeon) before
# any cap on the value can refuse it
_MAX_EXPONENT = 1000


def _fraction(text: str):
    """Fraction(text), with a zero denominator, an exponent past
    _MAX_EXPONENT and a run of digits past Python's int-to-str limit
    reported as bad input (ValueError, exit 2) like any other malformed
    number, each before Fraction does the work."""
    import re
    import sys
    from fractions import Fraction
    _, e, exp = text.lower().rpartition("e")
    exp = exp.strip().lstrip("+-").replace("_", "").lstrip("0")
    if e and exp.isdecimal() and (len(exp) > 4 or int(exp) > _MAX_EXPONENT):
        raise ValueError(f"exponent must be in -{_MAX_EXPONENT}..{_MAX_EXPONENT}")
    limit = sys.get_int_max_str_digits()
    if limit and any(len(run) > limit for run in re.findall(r"\d+", text.replace("_", ""))):
        raise ValueError(f"numbers must have at most {limit} digits")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text}") from None


def _tau_stream(spec: str):
    """Stream for a --tau argument: p/q, feigenbaum:j, or feigenbaum:inf."""
    if spec == "feigenbaum:inf":
        return symbolic.feigenbaum_limit()
    if spec.startswith("feigenbaum:"):
        # zeta --entropy on level j strips a degree-2^j determinant: about
        # 0.3 s at the cap on a 2-core Xeon, 2.4x that per level past it
        try:
            j = int(spec.split(":", 1)[1])
        except ValueError:
            j = 0  # not a level: refused below with the range
        if not 1 <= j <= 14:
            raise ValueError("level must be in 1..14")
        return symbolic.feigenbaum_stream(j)
    x = _fraction(spec)
    # the digit period is ord_2 of q's odd part, up to q - 1 digits: at the
    # cap, zeta --order 8 takes about 0.5 s in a fresh process on a 2-core Xeon
    if x.denominator > 1 << 20:
        raise ValueError("denominator must be at most 1048576")
    return encoding.kneading_from_tau(x)
