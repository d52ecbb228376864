"""JSON encoding for matrices, vectors, and masks.

Matrix schema: {"shape": [n, m], "rows": [[...], ...]}, with "shape"
optional; vector schema: {"values": [...]}. Any other key is refused.
Entries are numbers or the string "-inf", which marks a hard exclusion;
parsing returns the finite values plus the admissibility mask. Masks
can also be supplied as explicit 0/1 matrices. A bare list of lists is
accepted as shorthand on input; output always writes the full schema.

Every report is printed by `dump_canonical`, whose output is exactly
`json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)` plus one
newline; a property test holds it to that, and golden files pin the
`ga` stdout. Output matrices and vectors stay float64 arrays until orjson
prints them in this process, with repr's digits and layout; if orjson fails
a probe of that, json prints them.
"""

from __future__ import annotations

import json
import math
import sys
from functools import cache
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigInvalid, NonFinite

_BLOCK = 16  # matrix rows per orjson call of dump_canonical


def matrix_from_json(obj, where: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Parse a matrix object into (values, mask)."""
    if isinstance(obj, list):
        rows = obj
        shape = None
    elif isinstance(obj, dict) and "rows" in obj:
        refuse_unknown_keys(obj, "a matrix object", ("rows", "shape"), where)
        rows = obj["rows"]
        shape = obj.get("shape")
        if "shape" in obj and not (
            type(shape) is list and len(shape) == 2 and all(type(v) is int for v in shape)
        ):
            raise ConfigInvalid(f"{where}.shape",
                                f"expected a list of two integers, got {shown(shape)}")
    else:
        raise ConfigInvalid(where, "expected a matrix object with a 'rows' field")
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ConfigInvalid(where, "'rows' must be a nonempty list of lists")
    width = len(rows[0])
    ragged = next((i for i, row in enumerate(rows) if len(row) != width), None)
    # Rows before the first ragged one are parsed first, so that a bad
    # entry there is reported ahead of the ragged row, in reading order.
    values, mask = _parse_rows(rows[:ragged], width, where)
    if ragged is not None:
        raise ConfigInvalid(
            where, f"row {ragged} has length {len(rows[ragged])}, expected {width}"
        )
    if shape is not None and tuple(shape) != values.shape:
        raise ConfigInvalid(
            where, f"declared shape {shape} does not match rows {list(values.shape)}"
        )
    return values, mask


def _parse_rows(rows, width: int, where: str) -> tuple[np.ndarray, np.ndarray]:
    """Rows of equal width to (values, mask); excluded cells hold 0.0.

    Rows of plain ints and floats, as JSON gives a matrix without holes,
    skip the scan for "-inf" strings and the per-type check."""
    flat = list(chain.from_iterable(rows))
    kinds = set(map(type, flat))
    holes = 0
    if not kinds <= {float, int}:
        holes = flat.count("-inf")
        if holes:
            hole = -math.inf  # one lookup, not one per entry
            flat = [hole if entry == "-inf" else entry for entry in flat]
            kinds = set(map(type, flat))
        if not all(issubclass(kind, (int, float)) and not issubclass(kind, bool)
                   for kind in kinds):
            _raise_first_bad_entry(rows, where)
    values = _doubles(flat).reshape(len(rows), width)
    # The holes must be the only non-finite entries: the number -inf
    # (JSON's -Infinity) marks none.
    if np.count_nonzero(~np.isfinite(values)) != holes:
        _raise_first_bad_entry(rows, where)
    mask = values != -np.inf
    values[~mask] = 0.0
    return values, mask


def _doubles(numbers) -> np.ndarray:
    """numbers as a float64 array; an integer beyond the range of doubles
    reads as NaN, so that it is reported as a non-finite entry."""
    try:
        return np.array(numbers, dtype=np.float64)
    except OverflowError:
        return np.array([x if type(x) is float or abs(x) <= sys.float_info.max else math.nan
                         for x in numbers], dtype=np.float64)


def _raise_first_bad_entry(rows, where: str):
    """Raise for the first entry, in reading order, that is neither a
    finite number nor the string "-inf"; an integer beyond the range of
    doubles is not finite."""
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            if entry == "-inf":
                continue
            if not isinstance(entry, (int, float)) or isinstance(entry, bool):
                raise ConfigInvalid(where, f"entry at ({i},{j}) is not a number or '-inf'")
            if not abs(entry) <= sys.float_info.max:
                raise ConfigInvalid(where, f"non-finite entry at ({i},{j})")


def mask_from_json(obj, where: str = "mask") -> np.ndarray:
    values, mask = matrix_from_json(obj, where)
    if not mask.all():
        raise ConfigInvalid(where, "a mask matrix cannot itself contain '-inf'")
    if not np.isin(values, (0.0, 1.0)).all():
        raise ConfigInvalid(where, "mask entries must be 0 or 1")
    return values > 0


def vector_from_json(obj, where: str = "vector") -> np.ndarray:
    if isinstance(obj, dict) and "values" in obj:
        refuse_unknown_keys(obj, "a vector object", ("values",), where)
        obj = obj["values"]
    if not isinstance(obj, list) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in obj
    ):
        raise ConfigInvalid(where, "expected a list of numbers")
    values = _doubles(obj)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ConfigInvalid(where, f"non-finite entry at {bad[0]}")
    return values


def refuse_unknown_keys(obj: dict, noun: str, keys: tuple, where: str) -> None:
    """ConfigInvalid on <where>.<key> for the first key of obj not in keys."""
    for key in obj:
        if key not in keys:
            raise ConfigInvalid(f"{where}.{min(key, shown(key), key=len)}",
                                f"unknown field; {noun} takes {', '.join(keys)}")


def shown(value) -> str:
    """value as a refusal names it: its repr, or, for a list, an object or
    a string whose repr passes 80 characters, its type and length."""
    text = repr(value)
    noun = {list: "a list", dict: "an object", str: "a string"}.get(type(value))
    return text if noun is None or len(text) <= 80 else f"{noun} of length {len(value)}"


class _Rows(NamedTuple):
    """An output matrix's float64 values, and where its holes are."""
    values: np.ndarray
    holes: np.ndarray


def matrix_to_json(values, mask=None) -> dict:
    """The matrix schema for dump_canonical, which prints the rows,
    copied here as float64 arrays, as lists, a hole as "-inf"; the rows
    of a matrix without entries are empty lists from the start."""
    values = np.array(values, dtype=np.float64)
    rows = _Rows(values, np.zeros(values.shape, bool) if mask is None else ~np.array(mask, bool))
    return {"shape": list(values.shape), "rows": rows if values.size else [[]] * len(values)}


def vector_to_json(values) -> np.ndarray:
    """A float64 copy of values, which dump_canonical prints as a list."""
    return np.array(values, dtype=np.float64)


def dump_canonical(obj) -> str:
    """Deterministic serialization, byte for byte
    `json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"`;
    where that call raises ValueError (a NaN or an infinity, which JSON
    cannot hold), this raises NonFinite.

    Dict keys must be strings; matrix_to_json's rows and vector_to_json's
    arrays print as lists (_orjson_array). _encode appends the text of
    each piece to one list. A dict object met again at the same depth,
    such as a mask carried over several stages, is not walked again: a
    memo for this call maps it to the pieces its first occurrence
    appended, and those are appended once more.
    """
    parts = []
    try:
        _encode(obj, "\n", parts, {})
    except ValueError as exc:
        raise NonFinite("the output holds a NaN or an infinity, which JSON cannot hold") from exc
    parts.append("\n")
    return "".join(parts)


def _leaf(items, separator: str) -> str:
    """The items of a list of scalars, as dump_canonical prints them."""
    return json.dumps(items, separators=(separator, ": "), allow_nan=False)[1:-1]


def _orjson_array(values: np.ndarray, holes: np.ndarray, newline: str) -> list:
    """Pieces of values' text as lists at newline's depth, holes as "-inf", printed by orjson
    _BLOCK rows a call; holes and entries _repr_tokens relays go as NaN (null), filled after."""
    import orjson  # here, so that commands that print no array never load it
    if not (np.isfinite(values) | holes).all():
        raise ValueError("an admitted entry is not finite")
    magnitude = np.abs(values)
    redo = ((magnitude >= 1e-9) & (magnitude < 1e-4) | (magnitude >= 1e16)) & ~holes
    nulls = redo | holes
    printed = np.ascontiguousarray(np.where(nulls, np.nan, values))  # as orjson takes arrays
    fill = np.repeat(np.array([b'"-inf"'], dtype=object), np.count_nonzero(nulls))
    if redo.any():  # np.strings.replace refuses an empty array
        fill[redo[nulls]] = _repr_tokens(values[redo], orjson)
    tokens, at, pieces, step = fill.tolist(), 0, ["["], _BLOCK if values.ndim == 2 else len(values)
    for k in range(0, len(values), step):
        text = orjson.dumps(printed[k:k + step],
                            option=orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_INDENT_2)
        cuts = text.split(b"null")
        spliced = [b""] * (2 * len(cuts) - 1)
        spliced[::2], spliced[1::2] = cuts, tokens[at:at + len(cuts) - 1]
        at += len(cuts) - 1
        text = b"".join(spliced)[1:-2].replace(b"\n", newline.encode())
        pieces += ("," if k else "", text.decode())
    return pieces + [newline + "]"]


def _repr_tokens(doubles: np.ndarray, orjson) -> np.ndarray:
    """repr's text of doubles of magnitude in [1e-9, 1e-4) or from 1e16, from orjson's
    with the same digits: 1.234e-05, 3e-07 and 1e+16 for 0.00001234, 3e-7 and 1e16."""
    text = orjson.dumps(doubles, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
    tokens = np.array(text.split(b","), dtype="S24")  # orjson prints 23 bytes at most
    magnitude = np.abs(doubles)
    fixed, big = (magnitude >= 1e-5) & (magnitude < 1e-4), magnitude >= 1e16
    head = np.strings.lstrip(tokens, b"-0.").astype("S1")
    old = np.where(fixed, b"0.0000" + head, np.where(big, b"e", b"e-"))
    new = np.where(fixed, head + b".", np.where(big, b"e+", b"e-0"))
    tokens = np.strings.rstrip(np.strings.replace(tokens, old, new, 1), b".")
    return tokens + np.where(fixed, b"e-05", b"")  # np.strings sizes each result to fit


@cache
def _orjson_agrees() -> bool:
    """Whether _orjson_array prints this probe as json does; another orjson version may not."""
    probe = np.array([[0.0, -0.0, 5e-324, -1.7976931348623157e308, 1e-10, -2.5e-9, 3.25e-7],
                      [-1e-5, 9.87e-5, 1e-4, math.nan, 123456789.25, 1e15, -6.02e23]])
    listed = np.where(np.isnan(probe), "-inf", probe.astype(object)).tolist()
    try:
        matrix = "".join(_orjson_array(probe, np.isnan(probe), "\n  "))
        vector = "".join(_orjson_array(probe[0], np.isnan(probe[0]), "\n"))
    except TypeError:  # orjson refused the probe
        return False
    return (matrix == json.dumps([listed], indent=2)[4:-2]
            and vector == json.dumps(listed[0], indent=2))


def _encode(obj, newline: str, parts: list, done: dict) -> None:
    """Append the text of obj to parts; `newline` starts each of its
    lines at the current depth. done maps (id, depth) of each dict
    already encoded to the slice of parts that holds its text; every
    such dict lives inside the object being dumped, so no id is reused."""
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        slot = (id(obj), len(newline))
        if slot in done:
            parts += parts[done[slot]]
            return
        start = len(parts)
        opener = "{" + inner
        for key in sorted(obj):
            parts.append(opener + json.encoder.encode_basestring_ascii(key) + ": ")
            _encode(obj[key], inner, parts, done)
            opener = "," + inner
        parts.append(newline + "}")
        done[slot] = slice(start, len(parts))
    elif isinstance(obj, (_Rows, np.ndarray)):
        values, holes = obj if isinstance(obj, _Rows) else (obj, np.zeros(obj.shape, bool))
        if len(values) and values.dtype == np.float64 and _orjson_agrees():
            parts += _orjson_array(values, holes, newline)
        else:
            _encode(np.where(holes, "-inf", values.astype(object)).tolist(), newline, parts, done)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
        elif any(issubclass(kind, (list, tuple, dict)) for kind in set(map(type, obj))):
            opener = "[" + inner
            for item in obj:
                parts.append(opener)
                _encode(item, inner, parts, done)
                opener = "," + inner
            parts.append(newline + "]")
        else:
            parts.append("[" + inner + _leaf(obj, "," + inner) + newline + "]")
    else:
        parts.append(json.dumps(obj, allow_nan=False))


def load_json(path: str | Path):
    """The value of a UTF-8 JSON file, as json.loads reads it (save the
    README's integer rule), or a ConfigInvalid that names the path."""
    import orjson  # here, so that commands that read no JSON never load it
    try:
        data = Path(path).read_bytes()
        value = orjson.loads(data)
        if _nested_within(value):  # orjson reads any depth; json.loads decides deeper ones
            return value
    except OSError as exc:
        raise ConfigInvalid(str(path), f"cannot read input file: {exc.strerror}") from exc
    except orjson.JSONDecodeError:
        pass  # json.loads decides what orjson refuses
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigInvalid(str(path), f"invalid JSON: {exc}") from exc


def _nested_within(value, levels: int = 100) -> bool:
    """Whether value nests lists and objects at most levels deep."""
    items = value.values() if type(value) is dict else value if type(value) is list else ()
    return not {list, dict} & set(map(type, items)) or levels > 1 and all(
        _nested_within(item, levels - 1) for item in items)
