"""JSON text of a command's payload, as ``json.dumps(obj, sort_keys=True,
indent=2)`` writes it, without importing :mod:`json`.

With an indent, ``json`` runs its pure-Python encoder, so the import (a few
milliseconds of a command's start-up) buys no speed.  Only commands that
print JSON import this module.  Payloads are trees: there is no check for
cycles.
"""

_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t",
            "\b": "\\b", "\f": "\\f"}
_INF = float("inf")


def _escape(c: str) -> str:
    """One character as json's ``ensure_ascii`` writes it."""
    n = ord(c)
    if c in _ESCAPES:
        return _ESCAPES[c]
    if 0x20 <= n < 0x7f:
        return c
    if n < 0x10000:
        return f"\\u{n:04x}"
    n -= 0x10000  # a UTF-16 surrogate pair
    return f"\\u{0xd800 | n >> 10:04x}\\u{0xdc00 | n & 0x3ff:04x}"


def _quote(s: str) -> str:
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    return '"' + "".join(map(_escape, s)) + '"'


def _text(o, nl: str) -> str:
    """``o`` at the indent that the newline-plus-padding ``nl`` opens, its
    types tested in json's order."""
    if isinstance(o, str):
        return _quote(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == _INF or o == -_INF:
            return "Infinity" if o > 0 else "-Infinity"
        return float.__repr__(o)
    inner = nl + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        return f"[{inner}{(',' + inner).join([_text(v, inner) for v in o])}{nl}]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = [f"{_quote(_key(k))}: {_text(v, inner)}" for k, v in sorted(o.items())]
        return f"{{{inner}{(',' + inner).join(items)}{nl}}}"
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _key(k) -> str:
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return _text(k, "")
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def json_text(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte."""
    return _text(obj, "\n")
