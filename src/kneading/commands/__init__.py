"""One module per ``kneading`` subcommand, and the helpers they share.

Each module defines ``add_arguments(p)``, which adds the subcommand's options
to its parser, with ``CAPS`` beside it if any integer option has a bound,
and ``run(args)``, its handler, which starts with :func:`_reads`
and returns a :class:`_Result` for the one emitter in :mod:`kneading.cli`, or
an exit code when it prints its own lines.  The dispatcher imports a module
only for a subcommand named on the command line, so a command compiles its own
handler and no other.  A command module imports from this package, never from
``kneading.cli``: under ``python -m kneading.cli`` that module runs as
``__main__``, and importing it by name would run it a second time.

``import kneading.cli`` compiles this module, so every command does: it holds
only what the dispatcher and the handlers share.  Number and ``--tau`` spec
parsing is in :mod:`._spec`, which only the commands that read them import,
and the ``--out`` file writer is in :mod:`._out`, which loads only for a file.
"""

from __future__ import annotations

import argparse


class _Result:
    """What a handler returns: a JSON payload, an optional CSV table
    (header, rows), an optional text line, and the exit code.  A plain
    class: building a NamedTuple class costs every command about 0.15 ms."""
    __slots__ = ("payload", "table", "text", "code")

    def __init__(self, payload, table=None, text=None, code=0):
        self.payload, self.table, self.text, self.code = payload, table, text, code


def _num(x, args):
    """Exact string for the Fraction x unless --float was passed."""
    return float(x) if args.as_float else str(x)


def _json_text(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) and a newline; the emitter
    loads only in commands that print JSON."""
    from .._jsontext import json_text
    return json_text(obj) + "\n"


def _unset_options(p):
    """Leave each option of parser p out of the parsed namespace unless the
    command line passes it, and keep its action, default and type in the
    namespace's ``options`` for :func:`_reads`, with p as ``parser``.  A
    passed value stays the string argparse read, so that an option a mode
    does not read is refused before its value is converted.  The parser's
    help and usage texts show neither defaults nor types, so they do not
    change."""
    options = {}
    for a in p._actions:
        if a.option_strings and a.default is not argparse.SUPPRESS:
            options[a.dest] = (a, a.default, a.type)
            a.default, a.type = argparse.SUPPRESS, None
    p.set_defaults(options=options, parser=p)


def _reads(args, label: str, dests, caps=()):
    """Refuse every option that the command line passed and that is not one
    of ``dests``, so no option is accepted and then ignored, and an empty
    ``--out``, which names no file; then convert each option it passed by
    the option's type, failing as argparse would, and give each option it
    did not pass its default.  Last, check each of ``dests`` in ``caps``,
    which maps a dest to (label, lo, hi); lo None leaves the lower bound to
    where the value is used."""
    refused = [a.option_strings[0] for dest, (a, _, _) in args.options.items()
               if dest not in dests and hasattr(args, dest)]
    if refused:
        raise ValueError(f"{label} does not read {', '.join(refused)}")
    if getattr(args, "out", None) == "":
        raise ValueError("--out must not be empty")
    for dest, (a, default, convert) in args.options.items():
        if not hasattr(args, dest):
            setattr(args, dest, default)
        elif convert is not None:
            value = getattr(args, dest)
            try:
                setattr(args, dest, convert(value))
            except ValueError:
                # argparse's usage lines, message and exit status 2
                args.parser.error(str(argparse.ArgumentError(
                    a, f"invalid {convert.__name__} value: {value!r}")))
    for dest in dests:
        if dest in caps:
            name, lo, hi = caps[dest]
            value = getattr(args, dest)
            if value > hi or lo is not None and value < lo:
                raise ValueError(f"{name} must be at most {hi}" if lo is None
                                 else f"{name} must be in {lo}..{hi}")


# the cap of --bits, which tau --infinity and cf tau-infinity share: the
# certified quotients cost O(bits^2), about 0.35 s at the cap on a 2-core Xeon
_BITS_CAP = ("bits", 1, 1 << 16)
