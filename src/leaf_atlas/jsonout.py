"""The package's one pretty-printing JSON writer.

``json.dumps`` uses its C encoder only when no indentation is asked for;
indented, every value goes through the pure-Python ``json.encoder``.
``dumps`` writes the same text as ``json.dumps`` with an indent of 2,
encoding strings with the C ``encode_basestring_ascii`` and integers with
``int.__repr__``.  No other code of the package pretty-prints JSON.
"""
from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _string


def dumps(obj, pad: str = "\n") -> str:
    """
    ``json.dumps`` of ``obj`` with an indent of 2, byte for byte.  ``pad`` is
    the newline and indentation of the depth ``obj`` sits at.

    Non-empty lists, tuples and dicts recurse, but write an element or value
    whose type is exactly ``int`` in place; ``int`` and ``str`` are encoded
    directly.  Every other value (``bool``, ``None``, ``float``,
    empty containers, and values that cannot be encoded) goes through the
    compact ``json.dumps``, which writes a scalar as the indented form does
    and raises the same errors.

    >>> print(dumps({"w": [2, 1], "ok": True, "skips": []}))
    {
      "w": [
        2,
        1
      ],
      "ok": true,
      "skips": []
    }
    """
    kind = type(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is str:
        return _string(obj)
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


def _key(key) -> str:
    """
    A dict key that is not a ``str``, as ``json`` writes it: ``int``,
    ``float``, ``bool`` and ``None`` keys become strings, and any other key
    raises the ``TypeError`` of ``json.dumps``.

    >>> _key(3), _key(None), _key(float("nan"))
    ('"3"', '"null"', '"NaN"')
    """
    return json.dumps({key: 0})[1:-len(": 0}")]
