"""The frozen-record base of the package's dataclasses.

`@dataclass(frozen=True)` writes the source of six methods per class and
compiles it in every process that defines the class. A record here is
declared by its base alone, `class Name(Record):`. Record applies
`dataclass(init=False, repr=False, eq=False)` to each subclass as it is
defined, which only does the bookkeeping (`__dataclass_fields__`,
`__match_args__`, so that `dataclasses.replace`, `fields`, `asdict` and
`is_dataclass` work), and supplies `__init__`, `__repr__`, `__eq__`,
`__hash__`, `__setattr__` and `__delattr__` once, read from the fields.
Each behaves as its `dataclass(frozen=True)` counterpart does. A call
that does not fit the fields is made again on a stub of the `__init__`
that dataclass would write, compiled only for that call, so its
TypeError is Python's own; no code is compiled at import or for a call
that fits.
`class Name(Record, eq=False)` stands for `dataclass(frozen=True,
eq=False)`: identity equality and hash. A class that defines its own
`__eq__` keeps it, with the field hash unless eq=False.

Fields take no `field()` options; a field with one is refused with
TypeError when its class is defined. The module needs nothing but the
standard library.
"""

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from inspect import Parameter, Signature
from reprlib import recursive_repr

# Per record class: its field names in order, {name: default}, the
# names without a default, and {name: None} in field order.
_SPECS: dict = {}


def _spec(cls) -> tuple:
    names, defaults = [], {}
    for f in fields(cls):
        if not (f.init and f.repr and f.compare and f.hash is None and not f.kw_only
                and f.default_factory is MISSING):
            raise TypeError(f"record field {cls.__qualname__}.{f.name} takes no field() options")
        names.append(f.name)
        if f.default is not MISSING:
            defaults[f.name] = f.default
    required = frozenset(names) - defaults.keys()
    return tuple(names), defaults, required, dict.fromkeys(names)


def _bind(cls, args: tuple, kwargs: dict) -> dict:
    """{name: value} of every field of cls(*args, **kwargs), in field
    order. A call that does not fit is made again on a stub of the
    __init__ that dataclass would write, compiled for that call alone,
    so that Python raises its own TypeError."""
    names, defaults, required, template = _SPECS[cls]
    given = {**dict(zip(names, args)), **kwargs} if args else kwargs
    # a keyword repeating a positional field, or a positional argument
    # past the last field, leaves given shorter than the arguments
    if len(given) == len(args) + len(kwargs) and required <= given.keys() <= template.keys():
        return {**template, **defaults, **given}
    first = "__dataclass_self__" if "self" in template else "self"  # as dataclass names it
    scope = {}
    exec(f"def __init__({', '.join((first, *names))}): pass", scope)
    stub = scope["__init__"]
    stub.__defaults__ = tuple(defaults.values())
    stub.__qualname__ = f"{cls.__qualname__}.__init__"
    stub(None, *args, **kwargs)  # raises


def _values(record) -> tuple:
    return tuple(getattr(record, name) for name in _SPECS[type(record)][0])


class _InitSignature:
    """A record class's __signature__: that of the __init__ dataclass
    would write, so that inspect.signature, help() and the docstring
    dataclass gives an undocumented class name the fields."""

    def __get__(self, record, cls):
        if "__dataclass_fields__" not in vars(cls):
            return None
        return Signature([
            Parameter(f.name, Parameter.POSITIONAL_OR_KEYWORD, annotation=f.type,
                      default=Parameter.empty if f.default is MISSING else f.default)
            for f in fields(cls)
        ], return_annotation=None)


class Record:
    """Base of a frozen dataclass whose methods are not generated."""

    __slots__ = ()
    __signature__ = _InitSignature()

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        dataclass(cls, init=False, repr=False, eq=False)
        _SPECS[cls] = _spec(cls)
        body = cls.__dict__
        if not eq:
            if "__eq__" not in body:
                cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__
        elif body.get("__hash__", MISSING) is None and "__eq__" in body:
            # Python unsets the hash of a class that defines __eq__ alone;
            # dataclass(frozen=True) gives it the field hash
            cls.__hash__ = Record.__hash__

    def __init__(self, /, *args, **kwargs):
        names = _SPECS[type(self)][0]
        if kwargs or len(args) != len(names):
            self.__dict__.update(_bind(type(self), args, kwargs))
        else:
            self.__dict__.update(zip(names, args))
        # looked up per call, so that a wrapper installed later is seen
        post_init = getattr(self, "__post_init__", None)
        if post_init is not None:
            post_init()

    @recursive_repr()
    def __repr__(self):
        names = _SPECS[type(self)][0]
        listed = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({listed})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return _values(self) == _values(other)
        return NotImplemented

    def __hash__(self):
        return hash(_values(self))

    def __setattr__(self, name, value):
        cls = type(self)
        if "__dataclass_fields__" in cls.__dict__ or name in cls.__dataclass_fields__:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super().__setattr__(name, value)

    def __delattr__(self, name):
        cls = type(self)
        if "__dataclass_fields__" in cls.__dict__ or name in cls.__dataclass_fields__:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super().__delattr__(name)
