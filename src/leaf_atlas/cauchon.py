"""Cauchon diagrams: each stratum's diagram, and a member restored from it.

An ``m x n`` Cauchon diagram colours the grid black and white so that every
black box has only black boxes to its left or only black boxes above it.
The diagrams index the strata (Cauchon, J. Algebra 260, 2003).  A diagram is
stored as one bitmask per row, with bit ``j`` set when the box in column
``j + 1`` is black.

The stratum of a diagram is read off its pipe dream: a black box is a
crossing, a white box an elbow (a pipe entering from the left leaves
downward, one entering from the top leaves rightward).  The sources
``1..m+n`` are the top edge read right to left, then the left edge read top
to bottom; the sinks are the bottom edge read left to right, then the right
edge read bottom to top.  ``w`` sends each sink to the source of its pipe.

Restoration puts nonzero parameters on the white boxes and turns the
diagram into a member of its stratum (Launois, Lenagan & Rigal, Selecta
Math. 13, 2008).  Neither function classifies a matrix or computes a rank,
so a restored member is an independent witness for ``classify_leaf`` and
``in_leaf``.
"""
from __future__ import annotations

from typing import Optional, Sequence

from .exact_matrix import check_shape
from .permutations import check_perm

Diagram = tuple[int, ...]


def diagram(w: Sequence[int], m: int, n: int) -> Diagram:
    """
    The Cauchon diagram of the stratum ``w`` of ``m x n``, found row by row:
    a row is kept when it obeys the Cauchon rule under the rows above and
    sends the pipe ``w`` asks for out of the right edge.  Raises
    ``ValueError`` if ``m x n`` is no shape (``check_shape``) or ``w``
    indexes no stratum of it.
    """
    check_shape(m, n)
    w = check_perm(w)
    if len(w) != m + n:
        raise ValueError(f"permutation size {len(w)} != {m}+{n}")
    bottom = w[:n]

    def rows(i: int, down: tuple[int, ...], above: int) -> Optional[Diagram]:
        if i == m:
            return () if down == bottom else None
        for mask in range(1 << n):
            if mask & (mask + 1) & ~above:  # a black box with white to its left and above
                continue
            pipe, below = n + 1 + i, list(down)
            for j in range(n):
                if not mask >> j & 1:  # an elbow swaps the two pipes
                    below[j], pipe = pipe, below[j]
            if pipe == w[n + m - 1 - i]:
                rest = rows(i + 1, tuple(below), above & mask)
                if rest is not None:
                    return (mask,) + rest
        return None

    found = rows(0, tuple(range(n, 0, -1)), (1 << n) - 1)
    if found is None:
        raise ValueError(f"{w} indexes no stratum of {m}x{n}")
    return found


def restore(C: Diagram, n: int, params: Sequence) -> list[list]:
    """
    The member of the stratum of ``C`` (an ``len(C) x n`` diagram) with
    ``params`` on its white boxes, in row-major order, and 0 on its black
    boxes.  Each white box ``(r, s)``, taken in row-major order, adds
    ``t_is * t_rj / t_rs`` to every ``t_ij`` with ``i < r`` and ``j < s``.
    Only ``+``, ``*`` and ``/`` touch the entries, so any field type works;
    pass ``Fraction``s for exact members.
    """
    whites = sum(n - bin(mask).count("1") for mask in C)
    if len(params) != whites:
        raise ValueError(f"{len(params)} parameters for {whites} white boxes")
    it = iter(params)
    t = [[0 if mask >> j & 1 else next(it) for j in range(n)] for mask in C]
    for r, mask in enumerate(C):
        for s in range(n):
            if not mask >> s & 1:  # t_rs is still its parameter: updates reach only rows above
                for i in range(r):
                    for j in range(s):
                        t[i][j] = t[i][j] + t[i][s] * t[r][j] / t[r][s]
    return t
