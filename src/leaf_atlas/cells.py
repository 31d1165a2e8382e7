"""Bruhat-cell classification for rectangular matrices.

Each matrix lies in the cell of exactly one partial permutation for either
triangular pair: the (upper, upper) class is cut out by the ranks of
lower-left submatrices, the (lower, lower) class by the ranks of upper-right
submatrices.  Classification reads the partial permutation off the pivots
of one fraction-free elimination (``exact_matrix.bruhat_pivots``).  The rank
conditions are tested once, on strata, by ``leaves.in_leaf``; the harness
ties the cell labels to them through the matrix's stratum
(``check_classify_equiv`` matches the stratum to the rank tables,
``check_block_classes`` the labels to the stratum).

Profiles of partial permutations are computed by counting entries in the
corner region, never by numeric rank of the 0/1 matrix.  Every northeast
table is the half-turn (``exact_matrix._half_turn``) of a southwest one.
"""
from __future__ import annotations

from itertools import accumulate
from typing import Sequence, Union

from .exact_matrix import NORTHEAST, SOUTHWEST, RationalMatrix, _half_turn, bruhat_pivots
from .permutations import PartialPerm, as_partial

B_PLUS = "B+"
B_MINUS = "B-"

CellLabel = Union[PartialPerm, Sequence[int]]


def _as_pp(w: CellLabel) -> PartialPerm:
    return w if isinstance(w, PartialPerm) else as_partial(w)


def _kind(side: str) -> str:
    if side == B_PLUS:
        return SOUTHWEST
    if side == B_MINUS:
        return NORTHEAST
    raise ValueError(f"side must be 'B+' or 'B-', got {side!r}")


def pp_rank_profile(w: CellLabel, kind: str) -> tuple[tuple[int, ...], ...]:
    """Corner rank table of a (partial) permutation matrix, by dot counting."""
    w = _as_pp(w)
    m, n = w.rows, w.cols
    if kind == NORTHEAST:
        turned = PartialPerm(m, n, tuple(None if r is None else m + 1 - r
                                         for r in reversed(w.image)))
        return _half_turn(pp_rank_profile(turned, SOUTHWEST))
    if kind != SOUTHWEST:
        raise ValueError(f"unknown profile kind {kind!r}")
    image = w.image
    return tuple([tuple(accumulate([r is not None and r >= p for r in image], initial=0))
                  for p in range(1, m + 2)])


def classify(x: RationalMatrix, side: str = B_PLUS) -> PartialPerm:
    """
    The unique partial permutation whose cell contains ``x``: the pivots of
    one fraction-free elimination of ``x`` (``bruhat_pivots``).
    """
    return PartialPerm.from_pairs(x.rows, x.cols, bruhat_pivots(x._irows, _kind(side)))
