"""The frozen-record base every agiecon value class subclasses.

A subclass lists its fields as annotations, with defaults as class
attributes, and may define ``__post_init__`` to validate or normalize
them (writing through ``object.__setattr__``).  Records are immutable,
compare by their fields, hash by them where every field hashes (a record
with a mapping field does not), and share ``_fields`` and ``_replace``
with the package's ``NamedTuple`` rows.  The generated-code machinery of
``dataclasses`` costs more at import than the few Cobb-Douglas evaluations
of a typical command, so the few behaviours needed are written out here.
"""

_set = object.__setattr__


class Record:
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # one object.__setattr__ per field, as a generated __init__ does:
        # touching self.__dict__ would detach the instance's values from the
        # class's shared key table and make every later attribute read slower
        for name, value in zip(fields, args):
            _set(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Every field value in order, bound as a dataclass ``__init__`` binds."""
        name, fields = cls.__qualname__, cls._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{name}() takes {len(fields)} positional arguments but {len(args)} were given"
            )
        for key in kwargs:
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if fields.index(key) < len(args):
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
        values = list(args)
        for key in fields[len(args) :]:
            if key in kwargs:
                values.append(kwargs[key])
            elif key in cls._defaults:
                values.append(cls._defaults[key])
            else:
                raise TypeError(f"{name}() missing required argument {key!r}")
        return values

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign {name!r}: {type(self).__name__} is frozen")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is frozen")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _replace(self, **changes) -> "Record":
        """A copy with ``changes`` applied, validated like a new record."""
        values = {name: getattr(self, name) for name in self._fields}
        values.update(changes)
        return type(self)(**values)
