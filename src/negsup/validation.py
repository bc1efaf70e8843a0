"""Type checks for config values.

JSON gives ints, floats, bools and strings alike, and a Python bool is an
int, so the config dataclasses check each field's type before its range.
A wrong type raises ValueError (exit 2 at the CLI) instead of a TypeError
deep in the pipeline or a truthy string silently enabling a stage.
"""

from __future__ import annotations

import math
import numbers


def check_int(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_float(name: str, value, optional: bool = False) -> None:
    """Finite real number (ints included, bools not); None when `optional`."""
    if value is None and optional:
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not isinstance(value, numbers.Integral) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def check_bool(name: str, value) -> None:
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
