"""Records: the part of the standard dataclass decorator vl uses, without the
start-up cost of that module and of the `inspect` it loads.

`@record` builds `__init__` from the class's annotations, in declaration order,
with one `exec`; `==`, the hash and `repr` read the compared fields through one
`attrgetter`.  Every record has `__slots__` and no instance dict.  A record
is unhashable unless `frozen` (read-only) or `unsafe_hash`.  A
`field(compare=False)` is a back-link: it is left out of `==`, the hash and
`repr`.
"""

from operator import attrgetter

_MISSING = object()


class field:
    def __init__(self, *, default=_MISSING, default_factory=None, compare=True):
        self.default, self.factory, self.compare = default, default_factory, compare


def _frozen(self, name, value=None):
    raise AttributeError(f"cannot assign to field '{name}' of a frozen {type(self).__name__}")


def record(cls=None, /, *, frozen=False, unsafe_hash=False):
    if cls is None:
        return lambda cls: record(cls, frozen=frozen, unsafe_hash=unsafe_hash)
    ns = {k: v for k, v in cls.__dict__.items() if k not in ("__dict__", "__weakref__")}
    names = tuple(ns.get("__annotations__", ()))
    env, params, init, compared = {"_MISSING": _MISSING, "_set": object.__setattr__}, [], [], []
    for n in names:
        f = ns.pop(n, _MISSING)
        f = f if isinstance(f, field) else field(default=f)
        env[f"_d_{n}"], env[f"_f_{n}"] = _MISSING if f.factory else f.default, f.factory
        params.append(n if f.factory is None and f.default is _MISSING else f"{n}=_d_{n}")
        v = f"_f_{n}() if {n} is _MISSING else {n}" if f.factory else n
        init.append(f" _set(self, '{n}', {v})" if frozen else f" self.{n} = {v}")
        if f.compare:
            compared.append(n)
    exec("\n".join([f"def __init__(self, {', '.join(params)}):", *init, " pass"]), env)
    value = attrgetter(*compared)

    def __eq__(self, other):
        return value(self) == value(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in compared)})"

    ns.update(__init__=env["__init__"], __eq__=__eq__, __repr__=__repr__, __record_fields__=names, __slots__=names)
    ns["__hash__"] = (lambda self: hash(value(self))) if frozen or unsafe_hash else None
    if frozen:
        ns["__setattr__"] = ns["__delattr__"] = _frozen
    return type(cls)(cls.__name__, cls.__bases__, ns)


def replace(obj, **changes):
    """A copy of record `obj` with `changes`; every other field is the same object."""
    return obj.__class__(**{**{n: getattr(obj, n) for n in obj.__record_fields__}, **changes})
