"""JSON encoding for matrices, vectors, and masks.

Matrix schema: {"shape": [n, m], "rows": [[...], ...]}. Entries are
numbers or the string "-inf", which marks a hard exclusion; parsing
returns the finite values plus the admissibility mask. Masks can also
be supplied as explicit 0/1 matrices. A bare list of lists is accepted
as shorthand on input; output always writes the full schema.

Every report is printed by `dump_canonical`, whose output is exactly
`json.dumps(obj, indent=2, sort_keys=True)` plus one newline; a
property test holds it to that, and golden files pin the `ga` stdout.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import ConfigInvalid


def matrix_from_json(obj, where: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Parse a matrix object into (values, mask)."""
    if isinstance(obj, list):
        rows = obj
        shape = None
    elif isinstance(obj, dict) and "rows" in obj:
        rows = obj["rows"]
        shape = obj.get("shape")
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
    """Rows of equal width to (values, mask); excluded cells hold 0.0."""
    flat = [entry for row in rows for entry in row]
    if "-inf" in flat:
        flat = [-math.inf if entry == "-inf" else entry for entry in flat]
    if not all(
        issubclass(kind, (int, float)) and not issubclass(kind, bool)
        for kind in set(map(type, flat))
    ):
        _raise_first_bad_entry(rows, where)
    values = np.array(flat, dtype=np.float64).reshape(len(rows), width)
    mask = values != -np.inf
    bad = mask & ~np.isfinite(values)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ConfigInvalid(where, f"non-finite entry at ({i},{j})")
    values[~mask] = 0.0
    return values, mask


def _raise_first_bad_entry(rows, where: str):
    """Raise for the first entry, in reading order, that is neither a
    finite number, -inf, nor the string "-inf"."""
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            if entry == "-inf":
                continue
            if not isinstance(entry, (int, float)) or isinstance(entry, bool):
                raise ConfigInvalid(where, f"entry at ({i},{j}) is not a number or '-inf'")
            if math.isnan(entry) or entry == math.inf:
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
        obj = obj["values"]
    if not isinstance(obj, list) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in obj
    ):
        raise ConfigInvalid(where, "expected a list of numbers")
    values = np.asarray(obj, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ConfigInvalid(where, f"non-finite entry at {bad[0]}")
    return values


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
    `json.dumps(obj, indent=2, sort_keys=True) + "\n"`.

    Dict keys must be strings. Lists of scalars (matrix rows, vectors)
    go to json's C encoder in one call each, with the item separator
    carrying the newline and indent; the indenting pure-Python encoder
    would otherwise visit every number. The pieces are joined once.
    """
    parts = []
    _encode(obj, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _encode(obj, newline: str, parts: list) -> None:
    """Append the text of obj to parts; `newline` starts each of its
    lines at the current depth."""
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        opener = "{" + inner
        for key in sorted(obj):
            parts.append(opener + json.encoder.encode_basestring_ascii(key) + ": ")
            _encode(obj[key], inner, parts)
            opener = "," + inner
        parts.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
        elif any(issubclass(kind, (list, tuple, dict)) for kind in set(map(type, obj))):
            opener = "[" + inner
            for item in obj:
                parts.append(opener)
                _encode(item, inner, parts)
                opener = "," + inner
            parts.append(newline + "]")
        else:
            text = json.dumps(obj, separators=("," + inner, ": "))
            parts += ("[" + inner, text[1:-1], newline + "]")
    else:
        parts.append(json.dumps(obj))


def load_json(path: str | Path):
    path = Path(path)
    if not path.exists():
        raise ConfigInvalid(str(path), "input file does not exist")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(str(path), f"invalid JSON: {exc}") from exc
