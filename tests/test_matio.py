"""JSON matrix schema: exclusions, masks, and canonical dumps."""

import decimal
import json
import math
import os
import struct
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import attnkit.matio as matio
from attnkit.errors import ConfigInvalid, NonFinite
from attnkit.matio import (
    dump_canonical,
    load_json,
    mask_from_json,
    matrix_from_json,
    matrix_to_json,
    vector_from_json,
    vector_to_json,
)

from test_spread import _cpus


def test_bare_list_shorthand():
    values, mask = matrix_from_json([[1, 2.5], [3, 4]])
    npt.assert_array_equal(values, [[1.0, 2.5], [3.0, 4.0]])
    assert mask.all()


def test_minus_inf_string_marks_exclusion():
    values, mask = matrix_from_json({"shape": [1, 3], "rows": [[0.5, "-inf", 2]]})
    npt.assert_array_equal(values, [[0.5, 0.0, 2.0]])
    npt.assert_array_equal(mask, [[True, False, True]])


def test_number_minus_inf_is_no_exclusion():
    # JSON's -Infinity reads as the number -inf: only the string marks a
    # hole, with or without string holes elsewhere in the matrix.
    for rows in ([[1.0, -math.inf], [1.0, 1.0]], [["-inf", -math.inf], [1.0, 1.0]]):
        with pytest.raises(ConfigInvalid, match=r"^matrix: non-finite entry at \(0,1\)$"):
            matrix_from_json(rows)
    with pytest.raises(ConfigInvalid, match=r"non-finite entry at \(1,0\)$"):
        matrix_from_json([["-inf", 1.0], [-math.inf, "-inf"]])


def test_non_finite_entries_are_reported_in_reading_order():
    # Ahead of a non-number, an integer beyond every double and -inf are
    # the first bad entry.
    for first in (10**400, -math.inf, math.nan):
        with pytest.raises(ConfigInvalid, match=r"non-finite entry at \(0,0\)$"):
            matrix_from_json([[first, "x"]])


def test_round_trip_preserves_exclusions():
    values = np.array([[1.5, 0.0], [0.0, 2.0]])
    mask = np.array([[True, False], [False, True]])
    # The payload is for dump_canonical; the round trip goes through its text.
    text = dump_canonical(matrix_to_json(values, mask))
    back_values, back_mask = matrix_from_json(json.loads(text))
    npt.assert_array_equal(back_values, np.where(mask, values, 0.0))
    npt.assert_array_equal(back_mask, mask)


def test_shape_declaration_checked():
    with pytest.raises(ConfigInvalid) as exc:
        matrix_from_json({"shape": [2, 2], "rows": [[1, 2]]}, where="config.kernel")
    assert "config.kernel" in str(exc.value)


def test_ragged_rows_rejected():
    with pytest.raises(ConfigInvalid):
        matrix_from_json([[1, 2], [3]])


def test_plus_inf_and_nan_rejected():
    with pytest.raises(ConfigInvalid):
        matrix_from_json([[math.inf]])
    with pytest.raises(ConfigInvalid):
        matrix_from_json([[math.nan]])


def test_non_numeric_entry_rejected():
    with pytest.raises(ConfigInvalid):
        matrix_from_json([["high", 1.0]])
    with pytest.raises(ConfigInvalid):
        matrix_from_json([[True, 1.0]])


def test_mask_parsing():
    mask = mask_from_json([[1, 0], [0, 1]])
    npt.assert_array_equal(mask, np.eye(2, dtype=bool))
    with pytest.raises(ConfigInvalid):
        mask_from_json([[2, 0]])
    with pytest.raises(ConfigInvalid):
        mask_from_json([[1, "-inf"]])


def test_vector_parsing():
    npt.assert_array_equal(vector_from_json([1, 2.5]), [1.0, 2.5])
    npt.assert_array_equal(vector_from_json({"values": [3]}), [3.0])
    with pytest.raises(ConfigInvalid):
        vector_from_json([1, "x"])
    for bad in (-math.inf, math.inf, math.nan):
        with pytest.raises(ConfigInvalid, match=r"non-finite entry at 1$"):
            vector_from_json([1, bad])
    assert dump_canonical(vector_to_json(np.array([1.0]))) == "[\n  1.0\n]\n"


def test_dump_canonical_is_key_order_independent():
    a = dump_canonical({"b": 1, "a": [1, 2]})
    b = dump_canonical({"a": [1, 2], "b": 1})
    assert a == b
    assert a.endswith("\n") and not a.endswith("\n\n")


def test_load_json_diagnostics(tmp_path):
    with pytest.raises(ConfigInvalid, match="cannot read input file: No such file"):
        load_json(tmp_path / "missing.json")
    good = tmp_path / "good.json"
    good.write_text('{"k": [1, 2]}')
    assert load_json(good) == {"k": [1, 2]}
    # orjson refuses each of these, and json.loads too: the message is
    # json.loads's, as it was before orjson read the files.
    for name, data in [
        ("bad", b"{not json"), ("empty", b""), ("blank", b" \n"), ("comma", b"[1,]"),
        ("extra", b"[1] 2"), ("zero", b"01"), ("control", b'"a\x01"'), ("bom", b"\xef\xbb\xbf{}"),
        ("latin1", b'{"note": "caf\xe9"}'), ("utf8_surrogate", b'"\xed\xa0\x80"'),
        # Nested past Python's recursion limit, by itself and with a NaN.
        ("deep", b"[" * 100000 + b"]" * 100000), ("deep_nan", b"[" * 2000 + b"NaN" + b"]" * 2000),
        ("deep_object", b'{"a": ' * 2000 + b"1" + b"}" * 2000),
    ]:
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        with pytest.raises((UnicodeDecodeError, ValueError, RecursionError)) as refused:
            json.loads(data.decode("utf-8"))
        with pytest.raises(ConfigInvalid) as caught:
            load_json(path)
        assert str(caught.value) == f"{path}: invalid JSON: {refused.value}", name


def _exact(value):
    """value as nested tuples that compare equal only if the types, the
    key order and every float's bits agree."""
    if type(value) is dict:
        return ("object", tuple((key, _exact(item)) for key, item in value.items()))
    if type(value) is list:
        return ("list", tuple(_exact(item) for item in value))
    if type(value) is float:
        return ("float", struct.pack("<d", value))
    return (type(value).__name__, value)


def _same_as_json_loads(path) -> None:
    expected = json.loads(Path(path).read_bytes().decode("utf-8"))
    assert _exact(load_json(path)) == _exact(expected)


def test_load_json_reads_every_golden_input_as_json_loads_does():
    inputs = sorted((Path(__file__).parent / "golden").glob("*.json"))
    assert len(inputs) >= 15
    for path in inputs:
        _same_as_json_loads(path)


def _decimal(digits: str, exponent: int, negative: bool) -> str:
    """A decimal literal: 1 to 40 significant digits, one before the point."""
    point = f"{digits[0]}.{digits[1:]}" if len(digits) > 1 else digits
    return f"{'-' if negative else ''}{point}e{exponent}"


def _halfway(x: float, negative: bool) -> str:
    """The exact decimal midpoint of x and the next double up: rounding
    to nearest, ties to even, must pick the one with an even mantissa."""
    with decimal.localcontext() as ctx:
        ctx.prec = 1000
        middle = (decimal.Decimal(x) + decimal.Decimal(math.nextafter(x, math.inf))) / 2
    return f"{-middle if negative else middle:e}"


_NUMBER_LITERALS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.builds(_decimal, st.text("0123456789", min_size=1, max_size=40),
              st.integers(-345, 307), st.booleans()),
    st.builds(_halfway, st.floats(0.0, 1e308), st.booleans()),
    st.integers(-(2**63), 2**64 - 1).map(str),
    st.sampled_from([str(2**63 - 1), str(2**63), str(2**64 - 1), str(-(2**63)), "-0", "-0.0",
                     "1E2", "1e+2", "5e-324", "2.4703282292062328e-324", "1.7976931348623157e308"]),
)

# Strings and literals that orjson refuses and json.loads reads, so the
# documents that hold them are json.loads's to decide.
_REFUSED_LITERALS = st.sampled_from(
    ["NaN", "Infinity", "-Infinity", "1e400", "-1.8e308", str(10**400), '"\\ud800"',
     '"a\\udfffb"'])

_JSON_TEXTS = st.recursive(
    _NUMBER_LITERALS | st.sampled_from(["true", "false", "null"])
    | st.text(max_size=5).map(json.dumps),
    lambda inner: st.lists(inner, max_size=6).map(lambda items: "[" + ", ".join(items) + "]")
    | st.lists(st.tuples(st.text(max_size=3).map(json.dumps), inner), max_size=6).map(
        lambda pairs: "{" + ", ".join(f"{key}: {item}" for key, item in pairs) + "}"),
    max_leaves=40,
)


@pytest.fixture(scope="module")
def scratch_json(tmp_path_factory):
    return tmp_path_factory.mktemp("load_json") / "doc.json"


@settings(deadline=None, max_examples=300)
@given(st.lists(_NUMBER_LITERALS, min_size=1, max_size=50))
def test_load_json_reads_numbers_bit_for_bit_as_json_loads(scratch_json, literals):
    scratch_json.write_text("[" + ",".join(literals) + "]")
    _same_as_json_loads(scratch_json)


@settings(deadline=None, max_examples=200)
@given(_JSON_TEXTS, st.lists(_REFUSED_LITERALS, max_size=2))
def test_load_json_reads_documents_as_json_loads(scratch_json, text, refused):
    # A repeated key takes its last value at the place of its first.
    scratch_json.write_text(f'{{"doc": {text}, "x": [{", ".join(refused)}], "doc": [{text}]}}')
    _same_as_json_loads(scratch_json)


def test_json_loads_reads_only_what_orjson_refuses(monkeypatch, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"k": [[1.5, "-inf"]], "n": 2}')
    monkeypatch.setattr(json, "loads", None)
    assert load_json(path) == {"k": [[1.5, "-inf"]], "n": 2}


def test_load_json_leaves_deep_documents_to_json_loads(tmp_path):
    # orjson reads any depth, so past 100 levels json.loads decides;
    # these stay within Python's recursion limit, and it reads them.
    for depth in (99, 100, 101, 300):
        path = tmp_path / f"deep{depth}.json"
        path.write_text("[" * depth + "1" + "]" * depth)
        _same_as_json_loads(path)


@settings(deadline=None)
@given(st.integers(-(10**308), -(2**63) - 1) | st.integers(2**64, 10**308))
@example(2**64)
@example(-(2**63) - 1)
def test_an_integer_outside_64_bits_reads_as_the_nearest_double(scratch_json, n):
    # The one value orjson reads otherwise than json.loads, so that an
    # integer field refuses it. Past the largest double orjson refuses
    # the document, and json.loads reads the integer.
    scratch_json.write_text(f"[{n}]")
    assert _exact(load_json(scratch_json)) == _exact([float(n)])
    scratch_json.write_text(f"[{n * 10**400}]")
    assert _exact(load_json(scratch_json)) == _exact([n * 10**400])


def _reference_matrix_from_json(rows, where="matrix"):
    """Entry-by-entry parser: the reference for matrix_from_json."""
    width = len(rows[0])
    values = np.zeros((len(rows), width))
    mask = np.ones((len(rows), width), dtype=bool)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ConfigInvalid(where, f"row {i} has length {len(row)}, expected {width}")
        for j, entry in enumerate(row):
            if entry == "-inf":
                mask[i, j] = False
            elif isinstance(entry, (int, float)) and not isinstance(entry, bool):
                if not abs(entry) <= sys.float_info.max:
                    raise ConfigInvalid(where, f"non-finite entry at ({i},{j})")
                values[i, j] = float(entry)
            else:
                raise ConfigInvalid(where, f"entry at ({i},{j}) is not a number or '-inf'")
    return values, mask


_ENTRIES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**70), 2**70),
    st.just("-inf"),
    st.sampled_from([-math.inf, math.inf, math.nan, 10**400, True, None, "x", "inf"]),
)


@st.composite
def _rows(draw):
    """Rows of one width, with at times a ragged row put in."""
    width = draw(st.integers(0, 4))
    row = st.lists(_ENTRIES, min_size=width, max_size=width)
    rows = draw(st.lists(row, min_size=1, max_size=5))
    if draw(st.booleans()):
        ragged = draw(st.lists(_ENTRIES, max_size=5))
        rows.insert(draw(st.integers(0, len(rows))), ragged)
    return rows


# A hole next to a non-number: the type check must still see the
# non-number once the holes are replaced, and report it (ConfigInvalid).
@example([["-inf", "x"]])
@example([[1.0, "x"]])
@example([[True, "-inf"]])
@example([["-inf", None]])
@settings(deadline=None)
@given(_rows())
def test_matrix_from_json_agrees_with_reference_parser(rows):
    try:
        expected = _reference_matrix_from_json(rows)
    except ConfigInvalid as exc:
        with pytest.raises(ConfigInvalid) as got:
            matrix_from_json(rows)
        assert str(got.value) == str(exc)
        return
    values, mask = matrix_from_json(rows)
    assert values.tobytes() == expected[0].tobytes()
    npt.assert_array_equal(mask, expected[1])


def _masked_matrices():
    """(values, mask, rows to blank, columns to blank)."""
    shapes = st.tuples(st.integers(1, 6), st.integers(1, 6))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return shapes.flatmap(
        lambda shape: st.tuples(
            arrays(np.float64, shape, elements=finite),
            arrays(np.bool_, shape),
            st.lists(st.integers(0, shape[0] - 1), max_size=2),
            st.lists(st.integers(0, shape[1] - 1), max_size=2),
        )
    )


@settings(deadline=None)
@given(_masked_matrices())
def test_matrix_round_trip_through_canonical_text(case):
    values, mask, hole_rows, hole_cols = case
    mask = mask.copy()
    mask[hole_rows, :] = False
    mask[:, hole_cols] = False
    text = dump_canonical(matrix_to_json(values, mask))
    back_values, back_mask = matrix_from_json(json.loads(text))
    npt.assert_array_equal(back_mask, mask)
    assert back_values.tobytes() == np.where(mask, values, 0.0).tobytes()


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**63, -(2**63) - 1, 2**200]),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]),
    st.floats().map(np.float64),
    st.text(),
    st.sampled_from(["\u00e9t\u00e9", "\u2603\U0001f600", 'q"uo\\te', "tab\tnl\n\x00", "-inf"]),
)


def _shared(d):
    """One dict object twice at one depth and once a level deeper, as a
    carried stage-run mask occurs in its report."""
    return [d, d, {"": d}]


_PAYLOADS = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=6)
    | st.dictionaries(st.text(), inner, max_size=6)
    | st.dictionaries(st.text(), inner, max_size=3).map(_shared),
    max_leaves=60,
)


@example(_shared({"rows": [[1.0, "-inf"]], "shape": [1, 2]}))
@settings(deadline=None)
@given(_PAYLOADS)
def test_dump_canonical_is_json_dumps_indent_2_sorted(obj):
    try:
        expected = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        with pytest.raises(NonFinite):
            dump_canonical(obj)
    else:
        assert dump_canonical(obj) == expected


def test_a_failed_dump_leaves_the_next_one_exact():
    # The failed call has met `seen` twice before the NaN; a fresh dict
    # of the same size can then take its id. A memo that outlived the
    # call would print the old text for it.
    for i in range(50):
        seen = {"i": i}
        with pytest.raises(NonFinite):
            dump_canonical([seen, seen, math.nan])
        del seen
        fresh = {"j": -i}
        obj = [fresh, fresh]
        assert dump_canonical(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


# dump_canonical prints in the calling process: _no_fork makes os.fork
# raise, so a worker started anywhere in it fails the test.


def _no_fork(monkeypatch):
    def fork():
        raise AssertionError("dump_canonical starts no process")

    monkeypatch.setattr(os, "fork", fork)


@contextmanager
def _printed_by(path):
    """dump_canonical's arrays printed by orjson, or by json as when
    orjson fails the probe."""
    real = matio._orjson_agrees
    matio._orjson_agrees = real if path == "orjson" else lambda: False
    try:
        yield
    finally:
        matio._orjson_agrees = real


def _report(leaves):
    """A report of the given number of leaves, 7 doubles each, inside
    stage dicts."""
    rng = np.random.default_rng(5)
    return {"stages": [{"rows": rng.normal(size=(10, 7)).tolist(), "t": t}
                       for t in range(leaves // 10)], "sizes": [10, 7]}


def _canonical(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("workers", ["one", 2, 3, "no fork"])
def test_the_bytes_do_not_depend_on_the_workers(monkeypatch, workers):
    # On any number of CPUs, lists and arrays print in this process.
    values = np.random.default_rng(3).normal(size=(40, 7)) * 1e-5
    obj = {**_report(400), "plan": matrix_to_json(values, values > 0)}
    expected = {**_report(400), "plan": _list_form(values, values > 0)}
    if workers == "no fork":
        monkeypatch.delattr(os, "fork")
    else:
        _cpus(monkeypatch, 1 if workers == "one" else workers)
        _no_fork(monkeypatch)
    assert dump_canonical(obj) == _canonical(expected)


def test_a_nan_in_a_leaf_raises_nonfinite_in_this_process(monkeypatch):
    obj = _report(40)
    obj["stages"][2]["rows"][3][4] = math.nan
    _no_fork(monkeypatch)
    with pytest.raises(NonFinite):
        dump_canonical(obj)


def test_a_mask_carried_over_stages_is_exact(monkeypatch):
    # As in a stage-run report: one mask dict in every stage, at one
    # depth, whose pieces the memo appends again.
    mask = {"shape": [6, 6], "rows": np.tril(np.ones((6, 6))).tolist()}
    rng = np.random.default_rng(2)
    obj = {"stages": [{"mask": mask, "records": rng.normal(size=(6, 4)).tolist(), "t": t}
                      for t in range(8)]}
    _no_fork(monkeypatch)
    assert dump_canonical(obj) == _canonical(obj)


# matrix_to_json and vector_to_json keep float64 arrays, which
# dump_canonical prints as lists, a block of matrix rows (matio._BLOCK)
# per orjson call.


def _list_form(values, mask=None):
    """matrix_to_json's payload as plain lists, built entry by entry:
    the reference for the array path."""
    rows = [[x if mask is None or mask[i, j] else "-inf" for j, x in enumerate(row)]
            for i, row in enumerate(values.tolist())]
    return {"shape": list(values.shape), "rows": rows}


_EDGE_DOUBLES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                 1.7976931348623157e308, -1.7976931348623157e308, 1.7976931348623155e308]


@st.composite
def _output_matrices(draw):
    """(values, mask or None, depth): row counts on both sides of
    multiples of the block, and 0xm and nx0 shapes."""
    rows = draw(st.one_of(st.integers(0, 3 * matio._BLOCK + 2),
                          st.sampled_from([matio._BLOCK - 1, matio._BLOCK, matio._BLOCK + 1])))
    shape = (rows, draw(st.integers(0, 4)))
    finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_DOUBLES)
    values = draw(arrays(np.float64, shape, elements=finite))
    mask = draw(st.none() | arrays(np.bool_, shape))
    return values, mask, draw(st.integers(0, 2))


@example((np.zeros((3, 0)), None, 0))
@example((np.zeros((3, 0)), np.ones((3, 0), dtype=bool), 1))
@example((np.zeros((0, 3)), None, 1))
@example((np.arange(34.0).reshape(17, 2), np.tri(17, 2, dtype=bool), 0))
@settings(deadline=None)
@given(_output_matrices())
def test_output_arrays_print_as_their_list_form(case):
    values, mask, depth = case
    obj = {"matrix": matrix_to_json(values, mask), "vector": vector_to_json(values.ravel())}
    expected = {"matrix": _list_form(values, mask), "vector": values.ravel().tolist()}
    for _ in range(depth):
        obj, expected = [{"k": obj}, 1], [{"k": expected}, 1]
    assert dump_canonical(obj) == _canonical(expected)


# orjson prints the shortest digits of a double, as repr does, but lays
# out those of magnitude in [1e-9, 1e-5) (3e-7), [1e-5, 1e-4)
# (0.00001234) and from 1e16 (1e16) otherwise; raw bit patterns cover
# every finite double, subnormals included.
_MAGNITUDES = st.one_of(
    st.floats(1e-9, 1e-5, exclude_max=True),
    st.floats(1e-5, 1e-4, exclude_max=True),
    st.floats(1e16, sys.float_info.max),
    st.floats(1e-4, 1e16),
    st.floats(0, 1e-9),
    st.floats(0, sys.float_info.min),
    st.integers(0, 0x7FEFFFFFFFFFFFFF).map(lambda bits: struct.unpack("<d", struct.pack("<q", bits))[0]),
    st.sampled_from([1e-9, 1e-5, 1e-4, 1e16, 9.999999999999999e-05, 9.999999999999999e-06,
                     9.999999999999999e-10, 9999999999999998.0, 5e-324, 0.0]),
)
_DOUBLES = st.tuples(_MAGNITUDES, st.booleans()).map(lambda m: -m[0] if m[1] else m[0])


@st.composite
def _printed_arrays(draw):
    """(values, mask or None, depth): a vector, or a matrix on both sides
    of a multiple of the block; NaN and infinities sit under holes only."""
    rows = draw(st.sampled_from([1, 2, matio._BLOCK - 1, matio._BLOCK, 2 * matio._BLOCK + 3]))
    shape = draw(st.sampled_from([(rows,), (rows, draw(st.integers(1, 5)))]))
    values = draw(arrays(np.float64, shape, elements=_DOUBLES))
    mask = None if len(shape) == 1 else draw(st.none() | arrays(np.bool_, shape))
    if mask is not None:
        values[~mask] = draw(st.sampled_from([0.0, 5e-5, math.nan, math.inf, -math.inf]))
    return values, mask, draw(st.integers(0, 3))


@pytest.mark.parametrize("path", ["orjson", "json"])
@settings(deadline=None, max_examples=200)
@given(case=_printed_arrays())
def test_arrays_print_as_json_dumps_at_every_depth(path, case):
    values, mask, depth = case
    if values.ndim == 1:
        obj, expected = vector_to_json(values), values.tolist()
    else:
        obj, expected = matrix_to_json(values, mask), _list_form(values, mask)
    for _ in range(depth):
        obj, expected = {"k": obj}, {"k": expected}
    with _printed_by(path):
        assert dump_canonical(obj) == _canonical(expected)


def test_an_orjson_that_lays_numbers_out_otherwise_leaves_the_bytes(monkeypatch):
    # A later orjson may print another layout, which the probe sees:
    # then json prints the arrays, as it prints lists, to the same bytes.
    import orjson

    values = np.array([[1e-5, 3e-7, 1e16, 0.5], [-2.5e-5, 1e-10, -1e300, 7.0]])
    mask = np.array([[True, True, False, True], [True, True, True, True]])
    obj = {"m": matrix_to_json(values, mask), "v": vector_to_json(values[1])}
    expected = _canonical({"m": _list_form(values, mask), "v": values[1].tolist()})
    real = orjson.dumps
    monkeypatch.setattr(orjson, "dumps", lambda *a, **kw: real(*a, **kw).replace(b"e", b"E"))
    matio._orjson_agrees.cache_clear()
    try:
        assert not matio._orjson_agrees()
        assert dump_canonical(obj) == expected
    finally:
        monkeypatch.undo()
        matio._orjson_agrees.cache_clear()
    assert dump_canonical(obj) == expected


@pytest.mark.parametrize("path", ["orjson", "json"])
@pytest.mark.parametrize("where", ["admitted cell", "unmasked matrix", "vector"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_output_entry_raises_nonfinite(monkeypatch, path, where, bad):
    # The bad entry sits in the last block. A hole over a NaN prints
    # "-inf" and raises nothing, and a payload built before the entry
    # went bad holds a copy.
    values = np.arange(40 * 3, dtype=np.float64).reshape(40, 3)
    mask = np.ones_like(values, dtype=bool)
    mask[38, 1] = False
    values[38, 1] = math.nan
    _no_fork(monkeypatch)
    holed = matrix_to_json(values, mask)
    values[39, 2] = bad
    obj = {"admitted cell": lambda: matrix_to_json(values, mask),
           "unmasked matrix": lambda: matrix_to_json(np.where(mask, values, 0.0)),
           "vector": lambda: vector_to_json(values[39])}[where]()
    with _printed_by(path):
        assert json.loads(dump_canonical(holed))["rows"][38:] == [[114.0, "-inf", 116.0],
                                                                  [117.0, 118.0, 119.0]]
        with pytest.raises(NonFinite, match="^the output holds a NaN or an infinity"):
            dump_canonical({"stages": [holed, obj]})


def test_a_mask_carried_over_stages_is_printed_once(monkeypatch):
    # As ga stage-run builds it: one mask payload in all eight stages,
    # whose text the memo appends again, so orjson prints 9 matrices.
    matio._orjson_agrees()  # the probe prints arrays of its own
    calls = []
    real = matio._orjson_array

    def counted(values, holes, newline):
        calls.append(values.shape)
        return real(values, holes, newline)

    n = 2 * matio._BLOCK + 3
    causal = np.tril(np.ones((n, n)))
    rng = np.random.default_rng(2)
    records = [rng.normal(size=(n, 4)) for _ in range(8)]
    mask = matrix_to_json(causal)
    obj = {"stages": [{"mask": mask, "records": matrix_to_json(r, r > -1.0), "t": t}
                      for t, r in enumerate(records)]}
    expected = {"stages": [{"mask": _list_form(causal), "records": _list_form(r, r > -1.0), "t": t}
                           for t, r in enumerate(records)]}
    monkeypatch.setattr(matio, "_orjson_array", counted)
    _no_fork(monkeypatch)
    assert dump_canonical(obj) == _canonical(expected)
    assert calls == [(n, n)] + [(n, 4)] * 8
