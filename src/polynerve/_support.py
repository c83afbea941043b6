"""Helpers every module shares: a cached property without a lock, a base
for immutable value classes, the nesting limit, and the one JSON loader of
the from_json readers."""
from __future__ import annotations

import json
import re
from itertools import accumulate

from .errors import MalformedInput

MAX_NESTING = 500  # the deepest nesting the formula parser and load_json accept


class cached_property:
    """functools.cached_property without the lock that CPython 3.10 and 3.11
    take on every first access (3.12 dropped it). Values are immutable, so a
    race computes the same value twice and stores either."""

    def __init__(self, compute):
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.compute(instance)
        return value


class FrozenInstanceError(AttributeError):
    """An attempt to assign or delete an attribute of an immutable object:
    a programming error, not a refusal of input, so no PolynerveError. It
    has the name and messages of the dataclasses error it replaces."""


class Frozen:
    """A base for immutable value classes: assigning or deleting an attribute
    raises FrozenInstanceError. Constructors write their fields through
    object.__setattr__ or the instance dict, as cached_property does."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')
_NOT_BRACKET = re.compile(r"[^\[\]{}]+")


def load_json(text: str, what: str):
    """json.loads for a from_json reader, refusing with MalformedInput: text
    that is not JSON, an integer past the interpreter's digit limit, and
    nesting deeper than MAX_NESTING, which is refused before the decoder's
    own stack would overflow. Valid payloads nest at most 4 deep, so the
    bracket count alone clears them."""
    if text.count("[") + text.count("{") > MAX_NESTING:
        brackets = _NOT_BRACKET.sub("", _STRING.sub("", text))
        if max(accumulate(1 if c in "[{" else -1 for c in brackets), default=0) > MAX_NESTING:
            raise MalformedInput(f"{what} JSON nests more than {MAX_NESTING} levels deep")
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer with too many digits
        raise MalformedInput(f"{what} JSON is malformed: {exc}") from exc
