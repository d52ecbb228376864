"""JSON matrix schema: exclusions, masks, and canonical dumps."""

import json
import math
import os
import sys

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

from test_spread import _cpus, _hold_back, _one_worker, no_child_left  # noqa: F401


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
    with pytest.raises(ConfigInvalid):
        load_json(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigInvalid):
        load_json(bad)
    good = tmp_path / "good.json"
    good.write_text('{"k": [1, 2]}')
    assert load_json(good) == {"k": [1, 2]}


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


# dump_canonical formats its leaves, the lists of scalars, through the
# fork pool (attnkit.spread); the helpers of test_spread set the
# affinity mask and wrap os.fork.


def _report(leaves):
    """A report of the given number of leaves, 7 doubles each, inside
    stage dicts."""
    rng = np.random.default_rng(5)
    return {"stages": [{"rows": rng.normal(size=(10, 7)).tolist(), "t": t}
                       for t in range(leaves // 10)], "sizes": [10, 7]}


def _canonical(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("workers", ["one", 2, 3, "no fork"])
def test_the_bytes_do_not_depend_on_the_workers(monkeypatch, no_child_left, workers):
    obj = _report(400)
    if workers == "one":
        _one_worker(monkeypatch)
    elif workers == "no fork":
        monkeypatch.delattr(os, "fork")
    else:
        _cpus(monkeypatch, workers)
    assert dump_canonical(obj) == _canonical(obj)


def test_a_nan_in_a_leaf_the_child_claims_raises_nonfinite(monkeypatch, tmp_path, no_child_left):
    # The parent is held back, so the child meets the NaN, stops and
    # delivers what it ran; the re-run here raises.
    log = tmp_path / "pids"
    real = matio._leaf

    def logged(items, separator):
        if any(x != x for x in items):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
        return real(items, separator)

    obj = _report(40)
    obj["stages"][2]["rows"][3][4] = math.nan
    monkeypatch.setattr(matio, "_leaf", logged)
    _hold_back(monkeypatch, "parent")
    with pytest.raises(NonFinite):
        dump_canonical(obj)
    child, rerun = (int(pid) for pid in log.read_text().split())
    assert child != os.getpid() and rerun == os.getpid()


@pytest.mark.parametrize("when", ["at the fork", "after its first leaves"])
def test_a_worker_that_dies_leaves_exact_bytes(monkeypatch, no_child_left, when):
    parent = os.getpid()
    _hold_back(monkeypatch, "parent")
    real_fork, real_leaf = os.fork, matio._leaf
    formatted = []

    def fork():
        pid = real_fork()
        if pid == 0 and when == "at the fork":
            os._exit(1)
        return pid

    def leaf(items, separator):
        formatted.append(items)
        if os.getpid() != parent and len(formatted) == 5:
            os._exit(1)
        return real_leaf(items, separator)

    obj = _report(200)
    monkeypatch.setattr(matio, "_leaf", leaf)
    monkeypatch.setattr(os, "fork", fork)
    assert dump_canonical(obj) == _canonical(obj)


def test_a_mask_carried_over_stages_is_exact_under_the_spread(monkeypatch, no_child_left):
    # As in a stage-run report: one mask dict in every stage, at one
    # depth. Its pieces, placeholders included, are re-appended through
    # the memo, and the held-back parent fills them from what the child
    # formatted.
    mask = {"shape": [6, 6], "rows": np.tril(np.ones((6, 6))).tolist()}
    rng = np.random.default_rng(2)
    obj = {"stages": [{"mask": mask, "records": rng.normal(size=(6, 4)).tolist(), "t": t}
                      for t in range(8)]}
    _hold_back(monkeypatch, "parent")
    assert dump_canonical(obj) == _canonical(obj)


# matrix_to_json and vector_to_json keep float64 arrays; the jobs of
# dump_canonical turn them into Python values, a block of matrix rows
# (matio._BLOCK) per job.


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


@pytest.mark.parametrize("workers", ["one", "two, the child meeting it"])
@pytest.mark.parametrize("where", ["admitted cell", "unmasked matrix", "vector"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_output_entry_raises_nonfinite(monkeypatch, no_child_left, workers, where,
                                                    bad):
    # The bad entry sits in the last block. A hole over a NaN prints
    # "-inf" and raises nothing, and a payload built before the entry
    # went bad holds a copy.
    values = np.arange(40 * 3, dtype=np.float64).reshape(40, 3)
    mask = np.ones_like(values, dtype=bool)
    mask[38, 1] = False
    values[38, 1] = math.nan
    if workers == "one":
        _one_worker(monkeypatch)
    else:
        _hold_back(monkeypatch, "parent")
    holed = matrix_to_json(values, mask)
    values[39, 2] = bad
    assert json.loads(dump_canonical(holed))["rows"][38:] == [[114.0, "-inf", 116.0],
                                                              [117.0, 118.0, 119.0]]
    obj = {"admitted cell": lambda: matrix_to_json(values, mask),
           "unmasked matrix": lambda: matrix_to_json(np.where(mask, values, 0.0)),
           "vector": lambda: vector_to_json(values[39])}[where]()
    with pytest.raises(NonFinite, match="^the output holds a NaN or an infinity"):
        dump_canonical({"stages": [holed, obj]})


def test_a_mask_carried_over_stages_is_exact_when_the_child_formats_every_block(
        monkeypatch, tmp_path, no_child_left):
    # As ga stage-run builds it: one mask payload in all eight stages,
    # whose block placeholders the memo re-appends.
    log = tmp_path / "pids"
    real = matio._block

    def logged(rows, start, newline):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(rows, start, newline)

    n = 2 * matio._BLOCK + 3
    causal = np.tril(np.ones((n, n)))
    rng = np.random.default_rng(2)
    records = [rng.normal(size=(n, 4)) for _ in range(8)]
    mask = matrix_to_json(causal)
    obj = {"stages": [{"mask": mask, "records": matrix_to_json(r, r > -1.0), "t": t}
                      for t, r in enumerate(records)]}
    expected = {"stages": [{"mask": _list_form(causal), "records": _list_form(r, r > -1.0), "t": t}
                           for t, r in enumerate(records)]}
    monkeypatch.setattr(matio, "_block", logged)
    _hold_back(monkeypatch, "parent")
    assert dump_canonical(obj) == _canonical(expected)
    pids = log.read_text().split()
    assert len(pids) == 9 * 3 and str(os.getpid()) not in pids
