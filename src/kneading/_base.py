"""What every layer shares: the record base and the parity kernel.

Not a layer and not exported: importing it compiles two definitions, so a
layer that needs nothing else of :mod:`kneading.words` (the float lab, in
:mod:`kneading.dynamics`) does not run that module.
"""

from __future__ import annotations


class _Record:
    """Base of the layers' frozen records: ``dataclass(frozen=True)`` without
    importing ``dataclasses``, which pulls ``inspect`` and ``ast`` into start-up.
    The fields are the class annotations in order and a class value is a
    field's default; ``__post_init__`` runs last and may set a field with
    ``object.__setattr__``.  ``==`` holds only within one class."""

    # None on a record with no check of its own: at every construction a
    # class attribute found costs less than a failed hasattr lookup
    __post_init__ = None

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls.__annotations__
        if not kwargs and len(args) == len(fields):
            # every field given in order: the common call, bound directly
            self.__dict__.update(zip(fields, args))
        else:
            given = dict(zip(fields, args), **kwargs)
            if len(given) < len(args) + len(kwargs) or not given.keys() <= fields.keys():
                raise TypeError(f"{cls.__name__}() got unexpected or repeated arguments")
            for name in fields:
                if name not in given and name not in cls.__dict__:
                    raise TypeError(f"{cls.__name__}() missing argument {name!r}")
                self.__dict__[name] = given.get(name, cls.__dict__.get(name))
        if cls.__post_init__ is not None:
            self.__post_init__()

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, type(self).__annotations__))

    def __repr__(self):
        fields = zip(type(self).__annotations__, self._values())
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in fields)})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


def _prefix_xor(x: int, n: int) -> int:
    """Running parities of the n-bit word x, read with its top bit first:
    bit k from the top becomes the xor of the top k bits.  Prefix-xor
    doubling (x ^= x >> 1, 2, 4, ...) takes log2(n) big-integer steps,
    with no per-symbol Python work."""
    s = 1
    while s < n:
        x ^= x >> s
        s <<= 1
    return x
