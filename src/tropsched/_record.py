"""Immutable value records: the package's public input and result types.

A subclass lists its fields as annotated class attributes, after those of
its bases; a class attribute gives a field its default.  Records are built
by position or keyword and checked by `__post_init__`; they compare and
hash by type and field values, and change only through `replace`, which
builds and checks a new record.  Unlike `dataclasses`, this generates no
code when a class is defined, which keeps importing the package cheap.
"""

_MISSING = object()


class Record:
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls).get("__annotations__", {})
        cls._fields += tuple(f for f in own if f not in cls._fields)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        name, fields = cls.__qualname__, cls._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{name}() takes {len(fields)} arguments but {len(args)} were given"
            )
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key in values:
                raise TypeError(f"{name}() got multiple values for field {key!r}")
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected field {key!r}")
            values[key] = value
        state = self.__dict__
        for f in fields:
            value = values[f] if f in values else getattr(cls, f, _MISSING)
            if value is _MISSING:
                raise TypeError(f"{name}() missing field {f!r}")
            state[f] = value
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self):
        state = self.__dict__
        return tuple(state[f] for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        inner = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({inner})"

    def replace(self, **changes):
        """A copy with the given fields changed, checked as a new record."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})
