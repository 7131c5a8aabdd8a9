"""Record classes: a constructor, value equality, hashing and repr from a
class's annotated fields, without `dataclasses`.

`dataclasses` imports `inspect`, `ast` and `dis`, then writes each class's
methods as source and compiles them at import. Here every record shares the
same few functions, closed over its field names, so importing the package
compiles nothing and loads none of those modules.
"""

from __future__ import annotations

from operator import itemgetter


class FrozenRecordError(AttributeError):
    """Assignment to or deletion of an attribute of a frozen record."""


def _refuse_set(self, name, value):
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    raise FrozenRecordError(f"cannot delete field {name!r}")


def record(frozen: bool = False, memos: tuple = (), hidden: tuple = ()):
    """Make the decorated class a record of its annotated fields, in order.

    - The constructor takes each field positionally or by keyword; a class
      attribute of a field's name is its default. A missing, extra or
      repeated argument is a TypeError. It then calls the class's
      `__post_init__`, if it has one.
    - Each name in memos is an instance attribute holding a fresh dict, set
      before `__post_init__` runs. Memos are not fields: they take no part in
      equality, hashing or repr.
    - Records are equal when they are of the same class and their fields are
      equal. Only frozen records hash; they refuse assignment and deletion
      with FrozenRecordError, an AttributeError. `cached_property` and
      `vars(record)` still write the instance's attributes.
    - repr reads `Name(field=value, ...)`, leaving out the fields in hidden.
    """

    def make(cls):
        names = tuple(cls.__annotations__)
        fields = frozenset(names)
        defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
        shown = tuple(name for name in names if name not in hidden)
        values = itemgetter(*names)  # of an instance's __dict__, which holds every field
        post_init = hasattr(cls, "__post_init__")

        def __init__(self, *args, **kwargs):
            if not kwargs and len(args) == len(names):
                attrs = dict(zip(names, args))
            elif not args and kwargs.keys() == fields:
                attrs = kwargs  # a new dict on every call
            else:
                attrs = _bind(cls.__qualname__, names, defaults, args, kwargs)
            for memo in memos:
                attrs[memo] = {}
            # One new dict per record: filling the split-table dict that reading
            # self.__dict__ makes leaves CPython 3.11 and 3.12 reading each
            # attribute about 3 times slower.
            object.__setattr__(self, "__dict__", attrs)
            if post_init:
                self.__post_init__()

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return values(self.__dict__) == values(other.__dict__)
            return NotImplemented

        def __hash__(self):
            return hash(values(self.__dict__))

        def __repr__(self):
            return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in shown)})"

        cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
        cls.__hash__ = __hash__ if frozen else None
        if frozen:
            cls.__setattr__, cls.__delattr__ = _refuse_set, _refuse_delete
        return cls

    return make


def _bind(name: str, names: tuple, defaults: dict, args: tuple, kwargs: dict) -> dict:
    """Each field's value from the arguments, else its default, in field order."""
    if len(args) > len(names):
        raise TypeError(f"{name}() takes {len(names)} positional arguments but {len(args)} were given")
    given = dict(zip(names, args))
    for key, value in kwargs.items():
        if key not in names:
            raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        if key in given:
            raise TypeError(f"{name}() got multiple values for argument {key!r}")
        given[key] = value
    missing = [field for field in names if field not in given and field not in defaults]
    if missing:
        raise TypeError(f"{name}() missing required arguments: {', '.join(map(repr, missing))}")
    return {field: given[field] if field in given else defaults[field] for field in names}
