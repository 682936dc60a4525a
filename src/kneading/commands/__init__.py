"""One module per ``kneading`` subcommand, and the helpers they share.

Each module defines ``add_arguments(p)``, which adds the subcommand's
options to its argparse parser, and ``run(args)``, its handler; ``run``
returns a :class:`_Result` for the one emitter in :mod:`kneading.cli`, or an
exit code when it prints its own lines.  The dispatcher imports a module
only for a subcommand named on the command line, so a command compiles its
own handler and no other.  A command module imports from this package,
never from ``kneading.cli``: under ``python -m kneading.cli`` that module
runs as ``__main__``, and importing it by name would run it a second time.
"""

from __future__ import annotations

import os

# the layers load on first use (see the package docstring), so each command
# runs only the ones it touches
from .. import encoding, symbolic


class _Result:
    """What a handler returns: a JSON payload, an optional CSV table
    (header, rows), an optional text line, and the exit code.  A plain
    class: building a NamedTuple class costs every command about 0.15 ms."""
    __slots__ = ("payload", "table", "text", "code")

    def __init__(self, payload, table=None, text=None, code=0):
        self.payload, self.table, self.text, self.code = payload, table, text, code


def _num(x, args):
    """Exact string for a Fraction unless --float was passed."""
    from fractions import Fraction
    if isinstance(x, Fraction):
        return float(x) if args.as_float else str(x)
    return x


def _json_text(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) and a newline; the emitter
    loads only in commands that print JSON."""
    from .._jsontext import json_text
    return json_text(obj) + "\n"


def _require_dir(d: str):
    if not os.path.isdir(d or "."):
        raise ValueError(f"no such output directory: {d}")


def _atomic_write(path: str, text: str):
    import tempfile
    _require_dir(os.path.dirname(path))
    if os.path.isdir(path):
        raise ValueError(f"output path is a directory: {path}")
    d = os.path.dirname(os.path.abspath(path))
    # a path the OS refuses to create or to rename to is bad input (exit 2),
    # reported by the user's name for it, not by the temporary file's; a
    # write that fails (a full disk) is the environment's and stays OSError
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    except OSError as e:
        raise ValueError(f"cannot write {path}: {e.strerror or e}") from None
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        try:
            os.replace(tmp, path)
        except OSError as e:
            raise ValueError(f"cannot write {path}: {e.strerror or e}") from None
    except BaseException:
        os.unlink(tmp)
        raise


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


_fraction.__name__ = "Fraction"  # argparse names the type in its messages


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
    _check_cap("denominator", x.denominator, 1 << 20)
    return encoding.kneading_from_tau(x)


_MAX_BITS = 1 << 16


def _check_bits(bits: int):
    # both the enclosure and its certified quotients grow with --bits; the
    # quotients cost O(bits^2): about 0.5 s at the cap on a 2-core Xeon
    if not 1 <= bits <= _MAX_BITS:
        raise ValueError(f"bits must be in 1..{_MAX_BITS}")


def _check_cap(name: str, value: int, cap: int):
    """Upper bound of a costly option; its lower bound is checked where the
    value is used."""
    if value > cap:
        raise ValueError(f"{name} must be at most {cap}")
