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
`ga` stdout. Its number lists are formatted on every CPU through the
fork pool of attnkit.spread; the bytes never depend on how many.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ConfigInvalid, NonFinite
from .spread import spread


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
            raise ConfigInvalid(f"{where}.shape", f"expected a list of two integers, got {shape!r}")
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
            raise ConfigInvalid(f"{where}.{key}", f"unknown field; {noun} takes {', '.join(keys)}")


def matrix_to_json(values, mask=None) -> dict:
    values = np.asarray(values, dtype=np.float64)
    if mask is None:
        rows = values.tolist()
    else:
        cells = values.astype(object)
        cells[~np.asarray(mask, dtype=bool)] = "-inf"
        rows = cells.tolist()
    return {"shape": list(values.shape), "rows": rows}


def vector_to_json(values) -> list:
    return np.asarray(values, dtype=np.float64).tolist()


def dump_canonical(obj) -> str:
    """Deterministic serialization, byte for byte
    `json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"`;
    where that call raises ValueError (a NaN or an infinity, which JSON
    cannot hold), this raises NonFinite.

    Dict keys must be strings. _encode walks obj and leaves a
    placeholder for each list of scalars (a matrix row, a vector); the
    leaves then go to json's C encoder, one call each, with the item
    separator carrying the newline and indent, spread over the CPUs
    (attnkit.spread), and fill their placeholders when the pieces are
    joined. A dict object met again at the same depth, such as a mask
    carried over several stages, is not walked again: a memo that lives
    for this call only maps it to the run of pieces, placeholders
    included, that its first occurrence appended, and those pieces are
    appended once more.
    """
    parts, leaves = [], []
    try:
        _encode(obj, "\n", parts, {}, leaves)
        texts = spread(lambda k: _leaf(*leaves[k]), len(leaves))
    except ValueError as exc:
        raise NonFinite("the output holds a NaN or an infinity, which JSON cannot hold") from exc
    parts.append("\n")
    return "".join(texts[p] if type(p) is int else p for p in parts)


def _leaf(items, separator: str) -> str:
    """The items of a list of scalars, as dump_canonical prints them."""
    return json.dumps(items, separators=(separator, ": "), allow_nan=False)[1:-1]


def _encode(obj, newline: str, parts: list, done: dict, leaves: list) -> None:
    """Append the text of obj to parts; `newline` starts each of its
    lines at the current depth. A list of scalars goes to leaves with
    its item separator, and its index in leaves stands in parts for its
    items. done maps (id, depth) of each dict already encoded to the
    slice of parts that holds its text; every such dict lives inside
    the object being dumped, so no id is reused."""
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
            _encode(obj[key], inner, parts, done, leaves)
            opener = "," + inner
        parts.append(newline + "}")
        done[slot] = slice(start, len(parts))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
        elif any(issubclass(kind, (list, tuple, dict)) for kind in set(map(type, obj))):
            opener = "[" + inner
            for item in obj:
                parts.append(opener)
                _encode(item, inner, parts, done, leaves)
                opener = "," + inner
            parts.append(newline + "]")
        else:
            leaves.append((obj, "," + inner))
            parts += ("[" + inner, len(leaves) - 1, newline + "]")
    else:
        parts.append(json.dumps(obj, allow_nan=False))


def load_json(path: str | Path):
    """The value of a UTF-8 JSON file; a file that cannot be read or
    holds no JSON value is a ConfigInvalid that names the path."""
    try:
        return json.loads(Path(path).read_bytes().decode("utf-8"))
    except OSError as exc:
        raise ConfigInvalid(str(path), f"cannot read input file: {exc.strerror}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigInvalid(str(path), f"invalid JSON: {exc}") from exc
