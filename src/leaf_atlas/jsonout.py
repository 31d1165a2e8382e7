"""The package's one pretty-printing JSON writer.

``json.dumps`` uses its C encoder only when no indentation is asked for;
indented, every value goes through the pure-Python ``json.encoder``.
``dumps`` writes the same text as ``json.dumps`` with an indent of 2,
encoding strings with the C ``encode_basestring_ascii`` and integers with
``int.__repr__``.  ``dump`` writes the same text, and a final newline, to a
stream, listing by listing.  No other code of the package pretty-prints JSON.

A ``Text`` is JSON text made already, which both write as is.  A listing
lays out its records this way: ``dumps`` writes records of the listing's
shape with ``Text("%d")`` in place of each number, once per listing, and
each record is made of the pieces between the numbers and the numbers'
texts.
"""
from __future__ import annotations

import json
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii as _string
from typing import TextIO


class Text(str):
    """A string that ``dumps`` and ``dump`` write as is, not as a JSON string."""

    __slots__ = ()


def dumps(obj, pad: str = "\n") -> str:
    """
    ``json.dumps`` of ``obj`` with an indent of 2, byte for byte.  ``pad`` is
    the newline and indentation of the depth ``obj`` sits at.

    Non-empty lists, tuples and dicts recurse, but write an element or value
    whose type is exactly ``int`` in place; ``int`` and ``str`` are encoded
    directly, and a ``Text`` is written as is.  Every other value (``bool``,
    ``None``, ``float``, empty containers, and values that cannot be encoded)
    goes through the compact ``json.dumps``, which writes a scalar as the
    indented form does and raises the same errors.

    >>> print(dumps({"w": [2, 1], "ok": True, "skips": []}))
    {
      "w": [
        2,
        1
      ],
      "ok": true,
      "skips": []
    }
    >>> print(dumps({"t": Text("%d"), "w": [Text("%d")] * 2}) % (1, 2, 1))
    {
      "t": 1,
      "w": [
        2,
        1
      ]
    }
    """
    kind = type(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is str:
        return _string(obj)
    if kind is Text:
        return obj
    if isinstance(obj, (list, tuple)) and obj:
        inner = pad + "  "
        items = [int.__repr__(x) if type(x) is int else dumps(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(obj, dict) and obj:
        inner = pad + "  "
        items = [(_string(k) if type(k) is str else _key(k)) + ": "
                 + (int.__repr__(v) if type(v) is int else dumps(v, inner))
                 for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    return json.dumps(obj)


def dump(obj, stream: TextIO) -> None:
    """
    Write ``dumps(obj) + "\n"`` to ``stream``, one element at a time for a
    list, tuple or iterator that is ``obj`` itself or a value of the dict
    ``obj``.  Such an iterator (of a listing's ``Text`` records, say) is
    written as the list of its elements, so a listing is never held whole,
    neither as records nor as text.

    >>> import sys
    >>> dump({"count": 1, "w": iter([[]])}, sys.stdout)
    {
      "count": 1,
      "w": [
        []
      ]
    }
    """
    if isinstance(obj, dict) and obj:
        head = "{\n  "
        for k, v in obj.items():
            stream.write(head + (_string(k) if type(k) is str else _key(k)) + ": ")
            _dump_value(v, "\n  ", stream)
            head = ",\n  "
        stream.write("\n}\n")
    else:
        _dump_value(obj, "\n", stream)
        stream.write("\n")


def _dump_value(obj, pad: str, stream: TextIO) -> None:
    """``dumps(obj, pad)`` to ``stream``, a list, tuple or iterator an element at a time."""
    if not isinstance(obj, (list, tuple, Iterator)):
        stream.write(dumps(obj, pad))
        return
    inner = pad + "  "
    head = "[" + inner
    for x in obj:
        stream.write(head + dumps(x, inner))
        head = "," + inner
    stream.write("[]" if head[0] == "[" else pad + "]")


def _key(key) -> str:
    """
    A dict key that is not a ``str``, as ``json`` writes it: ``int``,
    ``float``, ``bool`` and ``None`` keys become strings, and any other key
    raises the ``TypeError`` of ``json.dumps``.

    >>> _key(3), _key(None), _key(float("nan"))
    ('"3"', '"null"', '"NaN"')
    """
    return json.dumps({key: 0})[1:-len(": 0}")]
