"""Time-sensitive key-policy attribute encryption and the distribution
machinery around it: transparent pairing oracle, time-tree covers, linear
secret sharing, hybrid content envelopes, a named-data cache simulator,
and a revocation ledger."""

from operator import attrgetter

_set = object.__setattr__

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DENIED = 2
EXIT_INTEGRITY = 3
EXIT_VERIFICATION = 4


class ProgramError(Exception):
    """An outcome a command reports: each subclass declares its ``exit_code``
    and ``prefix``, and ``cli.main`` prints ``prefix: message`` on stderr."""


class Record:
    """Base of the program's value records, built without generating code.

    A subclass's fields are its ``__slots__`` if it declares them, else its
    annotations, in order.  A field's class attribute is its default; a
    slotted record has none unless it writes its own ``__init__``.  Records
    are immutable unless the subclass is declared with ``frozen=False``,
    equal when their types and fields are, hashed by their fields (mutable
    records are unhashable), and shown as ``Name(field=value, ...)``.
    """

    __slots__ = ()

    def __init_subclass__(cls, frozen=True, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = cls.__dict__.get("__slots__")
        cls._fields = tuple(slots or cls.__dict__["__annotations__"])
        cls._defaults = {} if slots else {
            name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__
        }
        cls._values = attrgetter(*cls._fields)
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            _set(self, name, value)

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        """Field values in order from positional, keyword and default values."""
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} fields, got {len(args)}")
        values = list(args)
        for name in cls._fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__} missing field {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__} got unexpected fields {sorted(kwargs)}")
        return values

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
