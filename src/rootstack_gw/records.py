"""The package's immutable value objects, exact rationals and their text.

Every record type derives from :class:`Record`, so no command imports
``dataclasses`` or decorates a class.  :mod:`rootstack_gw.algebra`
re-exports ``Record`` and ``rat``.  :func:`fmt_rat` and :func:`fmt_ints`
write a rational and an integer tuple in every report, so both
:mod:`rootstack_gw.cli` and :mod:`rootstack_gw.report` import them here.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce to an exact rational."""
    return value if isinstance(value, Fraction) else Fraction(value)


def fmt_rat(q: Fraction, records: bool) -> str:
    if records or q.denominator != 1:
        return f"{q.numerator}/{q.denominator}"
    return str(q.numerator)


def fmt_ints(values: tuple[int, ...]) -> str:
    return ",".join(str(v) for v in values) if values else "-"


class Record:
    """Base of the package's immutable value objects.

    A subclass declares its fields as class annotations, in order, each
    with an optional default as its class attribute.  An instance is built
    positionally or by keyword and then checked by the subclass's
    ``__post_init__``; it refuses assignment and deletion, equals another
    instance of the same type with equal fields, hashes by its fields and
    changes only through :meth:`_replace`, which builds and checks a new
    instance.  Instances keep a ``__dict__``, so ``functools.cached_property``
    works on them.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the class's own annotations, in declaration order
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}
        # the field values that equality and hashing compare, read in C
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__} takes {len(fields)} fields, got {len(args)}")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name in values or name not in fields:
                raise TypeError(f"{cls.__name__}: unexpected or repeated field {name!r}")
            values[name] = value
        # object.__setattr__ passes by the refusing __setattr__ below, as in
        # a frozen dataclass
        for name in fields:
            if name not in values:
                if name not in cls._defaults:
                    raise TypeError(f"{cls.__name__}: missing field {name!r}")
                values[name] = cls._defaults[name]
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate the fields; a subclass raises here on bad values."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; use _replace")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return other is self or key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _replace(self, **changes):
        """A new instance with ``changes`` applied, checked like any other."""
        values = {name: getattr(self, name) for name in self._fields}
        values.update(changes)
        return type(self)(**values)
