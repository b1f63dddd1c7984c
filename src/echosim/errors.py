"""Exception types shared across the package, the one check of declared field
types and domains that every config dataclass's ``validate()`` runs, the
check of a run's day count that both run functions make, the check of a
node index that the per-node graph queries make, and the integer check under
it that counts of nodes and agents make too."""

import math
import numbers
from dataclasses import fields
from functools import cache
from typing import Union, get_args, get_origin, get_type_hints

INF = math.inf


class ParameterError(ValueError):
    """An argument to a generator, engine, or metric is out of its valid range."""


class ConfigError(Exception):
    """A run configuration is malformed, inconsistent, or incomplete."""


class BackendError(Exception):
    """A text backend failed at the transport level (network, HTTP, timeout)."""


class OpinionParseError(ValueError):
    """Backend output did not contain a usable belief/opinion pair."""


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}

# the day functions validate their parameters every day
_type_hints = cache(get_type_hints)


def _check_value(key: str, value, hint) -> None:
    """Raise a ParameterError naming ``key`` unless ``value`` has the annotated
    type ``hint``. Nothing is converted, so ``2`` stays ``2`` in a float field."""
    if get_origin(hint) is Union:  # Optional[X]
        if value is None:
            return
        (hint,) = [arg for arg in get_args(hint) if arg is not type(None)]
    if get_origin(hint) is tuple:  # tuple[X, ...], a list in YAML
        if not isinstance(value, (list, tuple)):
            raise ParameterError(f"{key} must be a list, got {type(value).__name__}")
        for i, item in enumerate(value):
            _check_value(f"{key}[{i}]", item, get_args(hint)[0])
        return
    # bool is a subclass of int, so true/false must be ruled out of the numbers by hand
    if isinstance(value, bool) or not isinstance(value, (int, float) if hint is float else hint):
        name = _TYPE_NAMES.get(hint) or f"a {hint.__name__}"
        raise ParameterError(f"{key} must be {name}, got {type(value).__name__}")


def check_fields(obj) -> None:
    """Raise a ParameterError naming the first field of dataclass ``obj`` whose
    value does not have its annotated type, or is outside the domain in its
    metadata: ``choices``, a tuple of the allowed values, or ``range``, an
    interval written ``("(", 0, 0.5, "]")`` with ``INF`` for no upper bound.
    NaN and +-inf lie in no range. ``None`` in an Optional field (unset) has
    no domain to check."""
    hints = _type_hints(type(obj))
    for f in fields(obj):
        value = getattr(obj, f.name)
        _check_value(f.name, value, hints[f.name])
        if value is None or not f.metadata:
            continue
        if "choices" in f.metadata:
            if value in f.metadata["choices"]:
                continue
            domain = "one of " + ", ".join(map(repr, f.metadata["choices"]))
        else:
            left, lo, hi, right = f.metadata["range"]
            if (lo < value if left == "(" else lo <= value) and (value < hi if right == ")" else value <= hi):
                continue
            domain = f"{'>' if left == '(' else '>='} {lo}" if hi == INF else f"in {left}{lo}, {hi}{right}"
        raise ParameterError(f"{f.name} must be {domain}, got {value!r}")


def check_days(days) -> None:
    """Raise a ParameterError unless ``days``, a run's length, is an integer >= 1.
    A bool is not one, and a float is not truncated."""
    if isinstance(days, bool) or not isinstance(days, numbers.Integral) or days < 1:
        raise ParameterError(f"days must be an integer >= 1, got {days!r}")


def check_integer(name: str, value) -> None:
    """Raise a ParameterError naming ``name`` unless ``value`` is an integer.
    A bool is not one, and a float is not truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")


def check_index(name: str, index, n: int) -> None:
    """Raise a ParameterError naming ``name`` unless ``index`` is an integer in
    ``[0, n)``."""
    check_integer(name, index)
    if not 0 <= index < n:
        raise ParameterError(f"{name} {index} out of range for n={n}")
