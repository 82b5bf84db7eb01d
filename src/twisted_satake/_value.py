"""Frozen value classes that are cheap to declare at import.

`@frozen` makes a class an immutable value whose fields are its own
annotations, in order.  It compiles the class's `__init__`, `__eq__` and
`__hash__` from one source string, so they cost what hand-written ones do,
and attaches shared `__repr__`, `__setattr__` and `__delattr__`.  A method
the class body defines itself is kept.  `__init__` ends by calling
`__post_init__` when the class has one.  Instances keep a `__dict__`, so
`functools.cached_property` works on them, and so does `@memo`: a value keeps
what is derived from it and frees it with itself; equal values compute alike.
"""

import functools

_MISSING = object()


class _Field:
    __slots__ = ("default", "compare", "repr")

    def __init__(self, default=_MISSING, compare=True, repr=True):
        self.default, self.compare, self.repr = default, compare, repr


def field(*, default=_MISSING, compare=True, repr=True):
    """A field with options: `compare=False` leaves it out of `==` and
    `hash`, `repr=False` out of the repr."""
    return _Field(default, compare, repr)


def _repr(self):
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__value_repr__)
    return f"{type(self).__qualname__}({shown})"


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def frozen(cls):
    """Make cls a frozen value class, as the module docstring describes."""
    specs = {}
    for name in cls.__dict__.get("__annotations__", {}):
        spec = cls.__dict__.get(name, _MISSING)
        specs[name] = spec = spec if isinstance(spec, _Field) else _Field(spec)
        if spec.default is _MISSING:
            if name in cls.__dict__:
                delattr(cls, name)
        else:
            setattr(cls, name, spec.default)
    params = ", ".join(name if spec.default is _MISSING else f"{name}=_d_{name}"
                       for name, spec in specs.items())
    sets = "".join(f"    _set(self, {name!r}, {name})\n" for name in specs)
    post = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
    mine = "".join(f"self.{name}, " for name, spec in specs.items() if spec.compare)
    theirs = mine.replace("self.", "other.")
    source = (f"def __init__(self, {params}):\n{sets}{post}"
              "def __eq__(self, other):\n"
              "    if other.__class__ is self.__class__:\n"
              f"        return ({mine}) == ({theirs})\n"
              "    return NotImplemented\n"
              f"def __hash__(self):\n    return hash(({mine}))\n")
    namespace = {"_set": object.__setattr__}
    namespace.update((f"_d_{name}", spec.default) for name, spec in specs.items())
    exec(source, namespace)
    methods = {"__repr__": _repr, "__setattr__": _setattr, "__delattr__": _delattr}
    for name in ("__init__", "__eq__", "__hash__"):
        methods[name] = namespace[name]
        namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    cls.__value_repr__ = tuple(name for name, spec in specs.items() if spec.repr)
    return cls


def memo(maxsize=None):
    """Keep fn(value, *args) on the value, as `cached_property` does: one
    result in its `__dict__`, or keyed ones in its own `lru_cache` of maxsize
    entries.  A miss calls `fn.__wrapped__`, so wrapping that counts builds;
    `fn.put(value, result)` stores a result and returns the value."""
    def decorate(fn):
        key = f"{fn.__module__}.{fn.__qualname__}"
        keyed = fn.__code__.co_argcount > 1

        def wrapper(value, *args):
            slots = value.__dict__
            if key not in slots:
                build = functools.partial(wrapper.__wrapped__, value)
                slots[key] = functools.lru_cache(maxsize)(build) if keyed else build()
            return slots[key](*args) if keyed else slots[key]

        wrapper.put = lambda value, result: vars(value).update({key: result}) or value
        return functools.update_wrapper(wrapper, fn)
    return decorate
