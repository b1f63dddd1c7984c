"""Exception types shared across the package, and the one check of declared
field domains that every config dataclass's ``validate()`` runs."""

import math
from dataclasses import fields

INF = math.inf


class ParameterError(ValueError):
    """An argument to a generator, engine, or metric is out of its valid range."""


class ConfigError(Exception):
    """A run configuration is malformed, inconsistent, or incomplete."""


class BackendError(Exception):
    """A text backend failed at the transport level (network, HTTP, timeout)."""


class OpinionParseError(ValueError):
    """Backend output did not contain a usable belief/opinion pair."""


def check_fields(obj) -> None:
    """Raise a ParameterError naming the first field of dataclass ``obj`` whose
    value is outside the domain in its metadata: ``choices``, a tuple of the
    allowed values, or ``range``, an interval written ``("(", 0, 0.5, "]")``
    with ``INF`` for no upper bound. NaN and +-inf lie in no range. ``None``
    (an unset Optional field) is not checked."""
    for f in fields(obj):
        value = getattr(obj, f.name)
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
