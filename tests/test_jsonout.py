"""The one JSON writer: ``jsonout.dumps`` is ``json.dumps`` indented by 2, byte for byte."""
import enum
import io
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import leaf_atlas
from leaf_atlas.jsonout import Text, dump, dumps


class Colour(enum.IntEnum):
    RED = 1
    BLUE = -7


strings = st.text() | st.sampled_from(["", "é", "\x00\x1f\n\t\"\\", " ", "\ud800", "😀"])
scalars = (st.none() | st.booleans() | st.integers() | st.sampled_from(Colour)
           | st.integers(-(10 ** 40), 10 ** 40) | st.floats() | strings
           | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, 5e-324]))
keys = strings | st.none() | st.booleans() | st.integers() | st.floats()
values = st.recursive(scalars, lambda inner: (st.lists(inner)
                                              | st.lists(inner).map(tuple)
                                              | st.dictionaries(strings, inner)
                                              | st.dictionaries(keys, inner)),
                      max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(values)
def test_writer_equals_indented_json_dumps(obj):
    assert dumps(obj) == json.dumps(obj, indent=2)


def _lazy(obj):
    """``obj`` with its list values, or itself if a list, turned into iterators."""
    if isinstance(obj, dict):
        return {k: iter(v) if isinstance(v, list) else v for k, v in obj.items()}
    return iter(obj) if isinstance(obj, list) else obj


@settings(max_examples=200, deadline=None)
@given(values | st.dictionaries(strings, st.lists(values) | values), st.booleans())
@example({}, False)
@example([], True)
@example((), False)
@example({"a": [], "b": (), "c": [[]], "d": ({},)}, True)
@example({"a": [], "b": ()}, False)
def test_stream_writer_equals_dumps_and_a_newline(obj, lazy):
    stream = io.StringIO()
    dump(_lazy(obj) if lazy else obj, stream)
    assert stream.getvalue() == dumps(obj) + "\n"


def test_only_exact_ints_are_written_in_place():
    # bool and IntEnum are int subclasses: json writes true/false and the int value
    obj = [1, True, Colour.RED, {"a": 2, "b": False, "c": Colour.BLUE, "d": [0, Colour.RED]}]
    assert dumps(obj) == json.dumps(obj, indent=2)


def test_text_is_written_as_is_at_any_depth():
    raw = Text("[1,2]")
    assert dumps(raw) == "[1,2]" and dumps("[1,2]") == '"[1,2]"'
    assert dumps({"a": raw, "b": [raw, {"c": raw}]}) == (
        '{\n  "a": [1,2],\n  "b": [\n    [1,2],\n    {\n      "c": [1,2]\n    }\n  ]\n}')
    for obj, text in [(iter([raw]), "[\n  [1,2]\n]\n"),
                      ({"n": 2, "items": iter([raw, raw])},
                       '{\n  "n": 2,\n  "items": [\n    [1,2],\n    [1,2]\n  ]\n}\n')]:
        stream = io.StringIO()
        dump(obj, stream)
        assert stream.getvalue() == text


@pytest.mark.parametrize("obj", [{"x": object()}, [1, {2}], {"a": [float]},
                                 {"a": {(1, 2): 0}}, {b"k": 0}])
def test_writer_raises_what_json_dumps_raises(obj):
    with pytest.raises(TypeError) as expected:
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError, match=re.escape(str(expected.value))):
        dumps(obj)


def test_writer_is_the_only_pretty_printing_path():
    root = Path(leaf_atlas.__file__).parent
    found = [path.name for path in sorted(root.rglob("*.py"))
             if "indent=" in path.read_text(encoding="utf-8")]
    assert found == []
