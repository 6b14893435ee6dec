"""Parity of the package's record base with dataclass(frozen=True).

A record's twin is a class with the same name, body and fields, put
through the standard `dataclass(frozen=True)` decorator (with eq=False
where the record is declared so). check() builds a record and its twin
from the same arguments and compares what each does: repr, ==, !=,
hash, dataclasses.replace, fields, __match_args__, frozen assignment
and deletion, __post_init__ errors, argument errors, and copy and
pickle round trips. Where one raises, the other must raise the same
exception type with the same message.

The module needs neither numpy nor pytest:

    PYTHONPATH=src python tests/record_parity.py

checks the base on the synthetic records below under any interpreter
the package supports; tests/test_record.py runs the same checks on
these and on every record of the package.
"""

import copy
import dataclasses
import functools
import inspect
import pickle
import sys
import types
from dataclasses import dataclass, replace
from typing import Optional

from omnipredict._record import Record

# What dataclass or the base put in a record's class dict; a twin gets
# its own from the standard decorator.
_BOOKKEEPING = {
    "__dict__", "__weakref__", "__dataclass_fields__", "__dataclass_params__",
    "__match_args__", "__replace__",
}
_GENERIC = (object.__eq__, object.__hash__, Record.__dict__["__hash__"])


def _rebound(value, scope: dict):
    """value, with every function in it reading its globals from scope."""
    if isinstance(value, types.FunctionType):
        fn = types.FunctionType(value.__code__, scope, value.__name__,
                                value.__defaults__, value.__closure__)
        fn.__kwdefaults__, fn.__qualname__ = value.__kwdefaults__, value.__qualname__
        fn.__doc__ = value.__doc__
        return fn
    if isinstance(value, (classmethod, staticmethod)):
        return type(value)(_rebound(value.__func__, scope))
    if isinstance(value, property):
        parts = (value.fget, value.fset, value.fdel)
        return property(*(f and _rebound(f, scope) for f in parts), value.__doc__)
    if isinstance(value, functools.cached_property):
        return functools.cached_property(_rebound(value.func, scope))
    return value


def twins(classes, identity=()) -> dict:
    """{cls: its twin} for Record classes; those in identity are declared
    eq=False. Each twin's methods read a copy of its module's globals in
    which every name of one of classes names its twin, so that a body's
    own isinstance checks and constructions meet twins."""
    scopes = {}
    for cls in classes:
        module = sys.modules[cls.__module__]
        scopes.setdefault(cls.__module__, dict(vars(module)))
    result = {}
    for cls in classes:
        scope = scopes[cls.__module__]
        body = {
            name: _rebound(value, scope) for name, value in vars(cls).items()
            if name not in _BOOKKEEPING and not any(value is g for g in _GENERIC)
        }
        if cls.__doc__.startswith(cls.__name__ + "("):
            del body["__doc__"]  # written by dataclass: the twin writes its own
        twin = type(cls.__name__, (), body)
        twin.__qualname__ = cls.__qualname__
        result[cls] = dataclass(frozen=True, eq=cls not in identity)(twin)
    for scope in scopes.values():
        for name, value in scope.items():
            if isinstance(value, type) and value in result:
                scope[name] = result[value]
    return result


def outcome(fn, *args):
    """('ok', value) or ('raise', exception type name, message)."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001  (any exception is an outcome)
        return ("raise", type(exc).__name__, str(exc))


def same(fn, record_args: tuple, twin_args: tuple, what: str) -> None:
    got, want = outcome(fn, *record_args), outcome(fn, *twin_args)
    assert got == want, f"{what}: record {got!r}, dataclass {want!r}"


def _field_specs(cls) -> list:
    return [(f.name, f.type, f.default, f.default_factory, f.init, f.repr,
             f.hash, f.compare, f.kw_only) for f in dataclasses.fields(cls)]


def _hash(obj):
    """hash(obj), or "identity" where it is object's hash."""
    value = hash(obj)
    return "identity" if value == object.__hash__(obj) else value


def _frozen(obj, name):
    setattr(obj, name, None)


def _deleted(obj, name):
    delattr(obj, name)


def check(cls, twin, samples, bad=()) -> int:
    """Compare cls with twin; samples are argument tuples that build valid
    records (at least two, built alike into unequal records), bad ones
    whose __post_init__ refuses them. Returns the number of comparisons."""
    name = cls.__qualname__
    count = 0

    def compare(fn, record_args, twin_args, what):
        nonlocal count
        same(fn, record_args, twin_args, f"{name}: {what}")
        count += 1

    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(twin), name
    assert _field_specs(cls) == _field_specs(twin), name
    assert cls.__match_args__ == twin.__match_args__, name
    assert str(inspect.signature(cls)) == str(inspect.signature(twin)), name
    assert cls.__doc__ == twin.__doc__, name
    names = [f.name for f in dataclasses.fields(cls)]

    records = [cls(*args) for args in samples]
    copies = [twin(*args) for args in samples]
    # equal-valued instances that are other objects
    again = [cls(*args) for args in samples]
    again_twin = [twin(*args) for args in samples]
    for i, (r, t) in enumerate(zip(records, copies)):
        assert dataclasses.is_dataclass(r) and dataclasses.is_dataclass(t), name
        compare(repr, (r,), (t,), f"repr of sample {i}")
        compare(_hash, (r,), (t,), f"hash of sample {i}")
        keywords = dict(zip(names, samples[i]))
        compare(lambda c: repr(c(**keywords)), (cls,), (twin,), f"keyword build {i}")
        for other in (samples[i], None, 1, "x", object()):
            compare(lambda o: o.__eq__(other), (r,), (t,), f"__eq__ of {other!r}")
            compare(lambda o: o == other, (r,), (t,), f"== {other!r}")
            compare(lambda o: other != o, (r,), (t,), f"{other!r} !=")
        for j in range(len(samples)):
            for pool, twin_pool, how in ((records, copies, "same"),
                                         (again, again_twin, "rebuilt")):
                compare(lambda a, b: a == b, (r, pool[j]), (t, twin_pool[j]),
                        f"sample {i} == {how} sample {j}")
                compare(lambda a, b: a != b, (r, pool[j]), (t, twin_pool[j]),
                        f"sample {i} != {how} sample {j}")
        # replace each field by the next sample's value
        following = records[(i + 1) % len(records)]
        for field in names:
            changes = {field: getattr(following, field)}
            compare(lambda o: repr(replace(o, **changes)), (r,), (t,),
                    f"replace({field}=...) of sample {i}")
        compare(lambda o: repr(replace(o, not_a_field=1)), (r,), (t,),
                "replace with an unknown field")
        for field in (names[0], names[-1], "not_a_field"):
            compare(_frozen, (r, field), (t, field), f"set {field}")
            compare(_deleted, (r, field), (t, field), f"delete {field}")
        compare(lambda o: repr(copy.copy(o)), (r,), (t,), "copy.copy")
        compare(lambda o: copy.copy(o) == o, (r,), (t,), "copy.copy ==")
        compare(lambda o: repr(copy.deepcopy(o)), (r,), (t,), "copy.deepcopy")
        # a twin is not importable by its name, so its deep copy stands
        # for the pickle round trip it cannot make
        compare(lambda o, round_trip: round_trip(o) == o,
                (r, lambda o: pickle.loads(pickle.dumps(o))), (t, copy.deepcopy),
                "pickle round trip ==")
        restored = pickle.loads(pickle.dumps(r))
        assert type(restored) is cls and repr(restored) == repr(r), name

    args = samples[0]
    calls = {
        "no argument": ((), {}),
        "one argument too many": ((*args, args[0]), {}),
        "two too many": ((*args, args[0], args[0]), {}),
        "an unexpected keyword": (args, {"not_a_field": 1}),
        "a field given twice": (args, {names[0]: args[0]}),
        "a keyword named self": (args, {"self": args[0]}),
        "only the last field": ((), {names[-1]: args[-1]}),
        "all but the last": (args[:-1], {}),
    }
    for what, (positional, keywords) in calls.items():
        compare(lambda c: repr(c(*positional, **keywords)), (cls,), (twin,), what)
    for i, args in enumerate(bad):
        compare(lambda c: repr(c(*args)), (cls,), (twin,), f"refused sample {i}")
    return count


# Synthetic records: every kind of body the base must serve.

class Point(Record):
    x: int
    y: int = 0


class Labels(Record):
    """A __post_init__ that refuses, and a property."""

    labels: tuple
    note: Optional[str] = None
    scale: float = 1.0

    def __post_init__(self):
        if not self.labels:
            raise ValueError("labels must be nonempty")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"labels {self.labels!r} repeat")

    @property
    def k(self) -> int:
        return len(self.labels)


class Named(Record):
    """A custom __eq__ over a normal form, so the field hash comes back."""

    name: str
    table: object

    def __eq__(self, other):
        if not isinstance(other, Named):
            return NotImplemented
        return (self.name.lower(), self.table) == (other.name.lower(), other.table)


class Handle(Record, eq=False):
    """eq=False: identity equality and hash."""

    path: str
    size: int
    labels: Labels


class Dataset(Record, eq=False):
    """eq=False with its own __eq__, so unhashable; a cached property."""

    rows: tuple
    meta: Point

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.meta == other.meta and list(self.rows) == list(other.rows)

    @functools.cached_property
    def total(self) -> int:
        return sum(self.rows)


class Mutating(Record):
    """A __post_init__ that writes a field and an attribute through
    object.__setattr__, as the package's Scenario does."""

    values: tuple
    total: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(sorted(self.values)))
        object.__setattr__(self, "_cache", sum(self.values))


class Itself(Record):
    """A field named self, which dataclass allows."""

    self: int
    other: int = 0


SYNTHETIC = {
    Point: ([(1, 2), (3,), (1.0, 2)], []),
    Labels: ([(("a", "b"),), (("a",), "note", 2.0), (["c"], None)],
             [((),), (("a", "a"),)]),
    Named: ([("Loss", (1, 2)), ("loss", (1, 2)), ("other", {"x": 1})], []),
    Handle: ([("a.json", 3, Labels(("a",))), ("b.json", 0, Labels(("b",)))], []),
    Dataset: ([((1, 2), Point(1)), ([1, 2], Point(1)), ((3,), Point(2))], []),
    Mutating: ([((3, 1, 2),), ((1.0,), 1.0), ((2, 1), float("inf"))], []),
    Itself: ([(1,), (2, 3)], []),
}
SYNTHETIC_IDENTITY = (Handle, Dataset)


def _self_holding(cls):
    """cls(1, [it]): a record its own field holds, so repr recurses."""
    cell = []
    record = cls(1, cell)
    cell.append(record)
    return record


def check_synthetic() -> int:
    twin_of = twins(SYNTHETIC, SYNTHETIC_IDENTITY)
    same(lambda c: repr(_self_holding(c)), (Point,), (twin_of[Point],),
         "Point: repr of a record that holds itself")
    return 1 + sum(check(cls, twin_of[cls], samples, bad)
                   for cls, (samples, bad) in SYNTHETIC.items())


if __name__ == "__main__":
    done = check_synthetic()
    print(f"record parity: {len(SYNTHETIC)} records, {done} comparisons, "
          f"Python {sys.version.split()[0]}: PASS")
