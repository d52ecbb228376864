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
`ga` stdout. Output matrices and vectors stay float64 arrays until the
fork pool of attnkit.spread turns them into text on every CPU; the
bytes never depend on how many.
"""

from __future__ import annotations

import json
import math
import sys
from functools import partial
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigInvalid, NonFinite
from .spread import spread

_BLOCK = 16  # matrix rows per spread job of dump_canonical


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
            raise ConfigInvalid(f"{where}.{key}", f"unknown field; {noun} takes {', '.join(keys)}")


def shown(value) -> str:
    """value as a refusal names it: its repr, or, for a list, an object or
    a string whose repr passes 80 characters, its type and length."""
    text = repr(value)
    noun = {list: "a list", dict: "an object", str: "a string"}.get(type(value))
    return text if noun is None or len(text) <= 80 else f"{noun} of length {len(value)}"


class _Rows(NamedTuple):
    """An output matrix's float64 values and mask (None: no holes)."""
    values: np.ndarray
    mask: np.ndarray | None


def matrix_to_json(values, mask=None) -> dict:
    """The matrix schema for dump_canonical, whose jobs turn the rows,
    copied here as float64 arrays, into lists, a hole into "-inf"; the
    rows of a matrix without entries are empty lists from the start."""
    values = np.array(values, dtype=np.float64)
    rows = _Rows(values, None if mask is None else np.array(mask, dtype=bool))
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
    arrays print as lists. _encode walks obj and leaves a placeholder
    for each list of scalars, vector, and block of _BLOCK matrix rows.
    Each is a job, spread over the CPUs (attnkit.spread), that turns
    the numbers into Python values and passes each list to json's C
    encoder, with the item separator carrying the newline and indent;
    the texts fill the placeholders when the pieces are joined. A dict
    object met again at the same depth, such as a mask carried over
    several stages, is not walked again: a memo that lives for this
    call only maps it to the run of pieces, placeholders included, that
    its first occurrence appended, and those pieces are appended once
    more.
    """
    parts, jobs = [], []
    try:
        _encode(obj, "\n", parts, {}, jobs)
        texts = spread(lambda k: jobs[k](), len(jobs))
    except ValueError as exc:
        raise NonFinite("the output holds a NaN or an infinity, which JSON cannot hold") from exc
    parts.append("\n")
    return "".join(texts[p] if type(p) is int else p for p in parts)


def _leaf(items, separator: str) -> str:
    """The items of a list of scalars or a vector, as dump_canonical prints them."""
    items = items.tolist() if isinstance(items, np.ndarray) else items
    return json.dumps(items, separators=(separator, ": "), allow_nan=False)[1:-1]


def _block(rows: _Rows, start: int, newline: str) -> str:
    """Matrix rows start to start + _BLOCK, as dump_canonical prints them."""
    block = rows.values[start:start + _BLOCK]
    if rows.mask is not None:
        block = block.astype(object)
        block[~rows.mask[start:start + _BLOCK]] = "-inf"
    inner = newline + "  "
    return ("," + newline).join(
        "[" + inner + _leaf(row, "," + inner) + newline + "]" for row in block.tolist())


def _encode(obj, newline: str, parts: list, done: dict, jobs: list) -> None:
    """Append the text of obj to parts; `newline` starts each of its
    lines at the current depth. A list of scalars, a vector and a block
    of matrix rows each become a job, whose index in jobs stands in
    parts for its text. done maps (id, depth) of each dict already
    encoded to the slice of parts that holds its text; every such dict
    lives inside the object being dumped, so no id is reused."""
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
            _encode(obj[key], inner, parts, done, jobs)
            opener = "," + inner
        parts.append(newline + "}")
        done[slot] = slice(start, len(parts))
    elif isinstance(obj, _Rows):
        for start in range(0, len(obj.values), _BLOCK):
            jobs.append(partial(_block, obj, start, inner))
            parts += ("," + inner if start else "[" + inner, len(jobs) - 1)
        parts.append(newline + "]")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        if not len(obj):
            parts.append("[]")
        elif type(obj) is not np.ndarray and any(
                issubclass(kind, (list, tuple, dict)) for kind in set(map(type, obj))):
            opener = "[" + inner
            for item in obj:
                parts.append(opener)
                _encode(item, inner, parts, done, jobs)
                opener = "," + inner
            parts.append(newline + "]")
        else:
            jobs.append(partial(_leaf, obj, "," + inner))
            parts += ("[" + inner, len(jobs) - 1, newline + "]")
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
