"""The frozen-record base of the package's dataclasses.

`@dataclass(frozen=True)` writes the source of six methods per class and
compiles it in every process that defines the class. A record here is
declared by its base alone, `class Name(Record):`. Record applies
`dataclass(init=False, repr=False, eq=False)` to each subclass as it is
defined, which only does the bookkeeping (`__dataclass_fields__`,
`__match_args__`, so that `dataclasses.replace`, `fields`, `asdict` and
`is_dataclass` work), and supplies `__init__`, `__repr__`, `__eq__`,
`__hash__`, `__setattr__` and `__delattr__` once, read from the fields.
Each behaves as its `dataclass(frozen=True)` counterpart does on Python
3.10–3.12, including the wording of its errors.
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


def _quoted(names) -> str:
    """'a'; 'a' and 'b'; 'a', 'b', and 'c': how Python lists missing arguments."""
    quoted = [repr(name) for name in names]
    if len(quoted) < 3:
        return " and ".join(quoted)
    return ", ".join(quoted[:-1]) + ", and " + quoted[-1]


def _bind(cls, args: tuple, kwargs: dict) -> dict:
    """{name: value} of every field of cls(*args, **kwargs), in field
    order. A call that does not fit raises the TypeError Python raises
    for the signature (self, name, ..., name=default, ...), checked in
    the same order: keywords, then the positional count, then missing
    fields."""
    names, defaults, required, template = _SPECS[cls]
    given = {**dict(zip(names, args)), **kwargs} if args else kwargs
    # a keyword repeating a positional field, or a positional argument
    # past the last field, leaves given shorter than the arguments
    if len(given) == len(args) + len(kwargs) and required <= given.keys() <= template.keys():
        return {**template, **defaults, **given}
    where = f"{cls.__qualname__}.__init__()"
    for name in kwargs:
        if name not in template:
            raise TypeError(f"{where} got an unexpected keyword argument '{name}'")
        if name in names[:len(args)]:
            raise TypeError(f"{where} got multiple values for argument '{name}'")
    if len(args) > len(names):
        takes = len(names) + 1  # self counts
        if defaults:
            takes = f"from {takes - len(defaults)} to {takes}"
        raise TypeError(
            f"{where} takes {takes} positional arguments but {len(args) + 1} were given"
        )
    missing = [name for name in names if name in required and name not in given]
    s = "s" if len(missing) > 1 else ""
    raise TypeError(
        f"{where} missing {len(missing)} required positional argument{s}: {_quoted(missing)}"
    )


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

    def __init__(self, *args, **kwargs):
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
