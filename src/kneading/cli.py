"""Command-line surface: exact tables, series, scans, and reproduction checks.

This module parses and dispatches; each subcommand's options and handler
live in its own module of :mod:`kneading.commands`, imported only when the
command line names it.
"""

from __future__ import annotations

import argparse
import importlib
import io
import sys

from .commands import _atomic_write, _json_text

# (name, help line) of every subcommand, in the order --help lists them
_COMMANDS = (
    ("tau", "period-doubling parameter levels"),
    ("cf", "continued-fraction expansions"),
    ("zeta", "kneading determinant and zeta series"),
    ("lang", "admissible-word language"),
    ("freq", "block frequencies of symbol streams"),
    ("dyn", "floating-point unimodal dynamics"),
    ("reproduce", "regenerate reference tables and diff"),
    ("export", "plot-ready data files"),
)


def _emit(args, res) -> int:
    """The one output rule: --format text prints the text line if there is
    one; any format other than json prints the CSV table if there is one;
    everything else prints JSON.  --out writes the file atomically."""
    if args.format == "text" and res.text is not None:
        text = res.text + "\n"
    elif args.format != "json" and res.table is not None:
        import csv
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(res.table[0])
        w.writerows(res.table[1])
        text = buf.getvalue()
    else:
        text = _json_text(res.payload)
    out = getattr(args, "out", None)
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)
    return res.code


def _add_common(p):
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.add_argument("--float", dest="as_float", action="store_true",
                   help="emit floats instead of exact fraction strings")


def _build_parser(commands) -> argparse.ArgumentParser:
    """Every subcommand with its help line, but options only for those in
    ``commands``, the subcommands to give options: argparse runs the one
    the command line names, so it parses and words its messages as the full
    parser would.  A subcommand's module is imported only here, so a
    command compiles no other command's code."""
    parser = argparse.ArgumentParser(
        prog="kneading",
        description="Exact kneading-theory tables, series, and scans.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary in _COMMANDS:
        p = sub.add_parser(name, help=summary)
        if name in commands:
            command = importlib.import_module(f".commands.{name}", __package__)
            _add_common(p)
            command.add_arguments(p)
            p.set_defaults(handler=command.run)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the first word that is not an option names the subcommand; an option
    # value that happens to be a subcommand name loads nothing
    parser = _build_parser([a for a in argv if not a.startswith("-")][:1])
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 0
        return 2 if code else 0
    try:
        res = args.handler(args)
        # reproduce prints its own PASS/FAIL lines; every other handler
        # returns a _Result for the one emitter
        return res if isinstance(res, int) else _emit(args, res)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        # the environment refused the output (a closed stdout, a full disk):
        # not bad input, and not a bug here either
        print(f"error: cannot write output: {e.strerror or e}", file=sys.stderr)
        return 3
    except Exception as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
