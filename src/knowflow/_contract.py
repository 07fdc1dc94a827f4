"""The input contract: the predicates and readers that check every argument and config key; no knowflow imports."""

from __future__ import annotations

import math
import numbers
import re
from typing import Any, Callable, Sequence

import numpy as np


def _is_int(x: object) -> bool:
    """An int or numpy integer; booleans are not ids or counts."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_real(x: object) -> bool:
    """An int, a float or a numpy number of either kind; booleans are not numbers here."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _is_list(value: object) -> bool:
    """A sequence other than a text or byte string, or a numpy array of one or more dimensions."""
    if isinstance(value, np.ndarray):
        return value.ndim > 0
    return isinstance(value, Sequence) and not isinstance(value, (str, bytes, bytearray, memoryview))


# -- input readers -------------------------------------------------------------------
# A reader takes a value, the name it goes by (a parameter or a config key path)
# and the error class to raise; it returns the value parsed or raises
# ``error("name: rule, got value")``. The library and the config share them.


def _bounded(value: Any, path: str, error: type[ValueError], lo=None, hi=None, gt=None, lt=None) -> Any:
    if lo is not None and not value >= lo:
        rule, bound = ">=", lo
    elif hi is not None and not value <= hi:
        rule, bound = "<=", hi
    elif gt is not None and not value > gt:
        rule, bound = ">", gt
    elif lt is not None and not value < lt:
        rule, bound = "<", lt
    else:
        return value
    raise error(f"{path}: must be {rule} {bound}, got {value}")


def _as_int(value: Any, path: str, error: type[ValueError], **bounds: int) -> int:
    if not _is_int(value):
        raise error(f"{path}: expected an integer, got {value!r}")
    return _bounded(int(value), path, error, **bounds)


def _as_float(value: Any, path: str, error: type[ValueError], **bounds: float) -> float:
    if not _is_real(value):
        raise error(f"{path}: expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise error(f"{path}: expected a finite number, got {value}")
    return _bounded(value, path, error, **bounds)


def _as_pair(value: Any, path: str, error: type[ValueError], **bounds: float) -> tuple[float, float]:
    if not _is_list(value) or len(value) != 2:
        raise error(f"{path}: expected a [low, high] pair")
    lo, hi = (_as_float(v, f"{path}[{i}]", error, **bounds) for i, v in enumerate(value))
    if hi < lo:
        raise error(f"{path}: interval is reversed: [{lo}, {hi}]")
    return (lo, hi)


def _as_list(
    value: Any,
    path: str,
    error: type[ValueError],
    item: Callable[[Any, str], Any],
    empty: bool = False,
    unique: str | None = None,
    then: Callable[[list], Any] = tuple,
) -> Any:
    """Each entry read by ``item``; ``unique`` names the entries that may not repeat."""
    if not _is_list(value) or not (len(value) or empty):
        raise error(f"{path}: expected a {'' if empty else 'non-empty '}list")
    try:
        items = [item(v, path) for v in value]
    except error:  # a valid list builds no entry names; read a bad one again to name the entry
        items = [item(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if unique is not None:
        seen: set = set()
        for i, v in enumerate(items):
            if v in seen:
                raise error(f"{path}[{i}]: duplicate {unique} {v!r}; entries must be unique")
            seen.add(v)
    return then(items)


def _as_ids(value: Any, path: str, error: type[ValueError], below: int, **options: Any) -> list[int]:
    """A list of integer ids, each in [0, below); ``options`` go to ``_as_list``."""
    return _as_list(value, path, error, lambda v, name: _as_int(v, name, error, lo=0, lt=below), then=list, **options)


def _as_bool(value: Any, path: str, error: type[ValueError]) -> bool:
    """A bool or a numpy bool; no other value stands for true or false."""
    if not isinstance(value, (bool, np.bool_)):
        raise error(f"{path}: expected true or false, got {value!r}")
    return bool(value)


def _as_str(value: Any, path: str, error: type[ValueError], choices: Sequence[str] | None = None) -> str:
    if not isinstance(value, str):
        raise error(f"{path}: expected a string, got {value!r}")
    if choices is not None and value not in choices:
        raise error(f"{path}: expected one of {sorted(choices)}, got {value!r}")
    return value


_NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def _as_name(value: Any, path: str, error: type[ValueError]) -> str:
    """A string that can label a column or a file: letters, digits, ``_``, ``.`` and ``-``."""
    if not _NAME_RE.match(_as_str(value, path, error)):
        raise error(f"{path}: must match [A-Za-z0-9_.-]+, got {value!r}")
    return value


def _as_array(
    value: Any, path: str, error: type[ValueError], shape: tuple | None = None, integer: bool = False, **bounds: float
) -> np.ndarray:
    """``value`` as a float array, or with ``integer`` an integer one, of ``shape`` (None: a free axis) whose entries,
    given ``bounds``, are finite and within them; numpy must read it as booleans or reals (with ``integer``, as
    integers), not as strings, objects or a ragged list. An empty array holds none of those."""
    try:
        array = np.asarray(value)
    except ValueError:  # ragged nesting
        array = None
    if array is None or (array.size and array.dtype.kind not in ("iu" if integer else "biuf")):
        raise error(f"{path}: expected a rectangular array of {'integers' if integer else 'numbers'}, got {value!r}")
    if not (integer and array.size):  # integers are kept as they are; an empty array is an int array
        array = array.astype(int if integer else float, copy=False)
    if shape is not None and (array.ndim != len(shape) or any(w not in (None, a) for a, w in zip(array.shape, shape))):
        expected = str(shape).replace("None", "n")  # n: any length
        raise error(f"{path}: expected shape {expected}, got {array.shape}")
    if bounds and array.size:  # NaN fails every bound, so the least and the greatest entry speak for all
        for entry in (array.min(), array.max()):
            (_as_int if integer else _as_float)(entry, path, error, **bounds)
    return array


def _as_rng(value: Any, path: str, error: type[ValueError]) -> np.random.Generator:
    if not isinstance(value, np.random.Generator):
        raise error(f"{path}: expected a numpy random Generator, got {value!r}")
    return value
