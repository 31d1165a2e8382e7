"""Generalized double Bruhat cells of the rectangular matrix space.

A pair of equal-rank partial permutations ``(w1, w2)`` names the
intersection of the upper cell of ``w1`` with the lower cell of ``w2``.
Nonemptiness has two local criteria (Bruhat comparison of the unique
factorizations, and domain/range set comparison) plus an independent
global one (existence of a stratum index with the prescribed off-diagonal
blocks).  This module implements the factorization and global criteria.
``sigma.decompose_partial`` keeps one factorization per label, and a cell
tests its two once (``DoubleCellIndex.base``); every function here reads
that one result, and the harness checks the factors and the set criterion.
A nonempty cell splits into finitely many strata, with the base
factorization quadruple naming the unique open dense one.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from . import cells
from .exact_matrix import RationalMatrix, check_shape
from .leaves import block_pairs
from .permutations import Perm, PartialPerm, bruhat_leq, with_head
from .sigma import SigmaTuple, decompose_partial


@dataclass(frozen=True)
class DoubleCellIndex:
    """Upper-cell label ``w1`` and lower-cell label ``w2`` on the same grid."""

    w1: PartialPerm
    w2: PartialPerm

    def __post_init__(self) -> None:
        if (self.w1.rows, self.w1.cols) != (self.w2.rows, self.w2.cols):
            raise ValueError("dimension mismatch between the two labels")
        check_shape(self.w1.rows, self.w1.cols)

    @property
    def shape(self) -> tuple[int, int]:
        return self.w1.rows, self.w1.cols

    @property
    def factors(self) -> tuple[Perm, Perm, Perm, Perm]:
        """
        ``(y, v0, z0, u)``: ``w1`` factored in the form ``yv`` and ``w2`` in
        the form ``zu``, read from ``sigma.decompose_partial``, which keeps
        one factorization per label and form.
        """
        return (*decompose_partial(self.w1, "yv"), *decompose_partial(self.w2, "zu"))

    @cached_property
    def base(self) -> Optional[tuple[Perm, Perm, Perm, Perm]]:
        """
        The base quadruple ``(y, v0, z0, u)`` (``factors``), or ``None`` if
        the factorization test fails: unequal ranks, or not ``z0 <= y`` and
        ``v0 <= u``.  Tested on first use and kept on the cell, outside its
        fields, so equality, hash and repr are those of the two labels.
        """
        if self.w1.rank() != self.w2.rank():
            return None
        y, v0, z0, u = base = self.factors
        return base if bruhat_leq(z0, y) and bruhat_leq(v0, u) else None


def is_nonempty(d: DoubleCellIndex) -> bool:
    """
    Nonemptiness of the double cell by the factorization criterion: the
    Bruhat tests ``z <= y`` and ``v <= u`` on the unique factorizations.
    Unequal ranks give ``False``.
    """
    return d.base is not None


def nonempty_by_completion(d: DoubleCellIndex) -> bool:
    """
    Independent global criterion: some stratum index has the cell labels
    ``(w1, w2)`` (``leaves.cell_labels``).  Looks the pair up among the
    labels of all stratum indices, enumerated once per shape; intended for
    small shapes.  The two labels of an index have equal rank, so unequal
    ranks are never found.
    """
    return (d.w1, d.w2) in block_pairs(*d.shape)


def decompose(d: DoubleCellIndex) -> list[SigmaTuple]:
    """
    The strata contained in the double cell: all quadruples ``(y, v, z, u)``
    with ``z`` sharing the first ``t`` images of ``z0`` and ``z <= y``, and
    ``v`` sharing those of ``v0`` and ``v <= u``.  The tails of ``z0`` and
    ``v0`` ascend, so the base quadruple ``(y, v0, z0, u)`` comes first; order
    is lexicographic in ``(z, v)``.  The quadruples are built unchecked
    (``SigmaTuple._trusted``): the factor forms and the fixed heads make
    them minimal representatives, and the two Bruhat filters are the
    remaining conditions.  The check ``orbit_partition`` rebuilds every one
    of them, over all nonempty cells of a shape, through the validating
    constructor.
    """
    base = d.base
    if base is None:
        raise ValueError("empty double cell has no decomposition")
    y, v0, z0, u = base
    m, n = d.shape
    t = d.w1.rank()
    vs = [v for v in with_head(n, v0[:t]) if bruhat_leq(v, u)]
    trusted = SigmaTuple._trusted
    return [trusted(y, v, z, u, t)
            for z in with_head(m, z0[:t]) if bruhat_leq(z, y) for v in vs]


def dense_orbit(d: DoubleCellIndex) -> SigmaTuple:
    """
    The quadruple of the unique stratum open and dense in the cell: the base
    quadruple, from the cell's one factorization of each label.  It is built
    unchecked (``SigmaTuple._trusted``); the check ``dense_orbit`` compares
    it with the first quadruple of ``decompose``, which ``orbit_partition``
    validates.
    """
    base = d.base
    if base is None:
        raise ValueError("empty double cell has no dense stratum")
    return SigmaTuple._trusted(*base, d.w1.rank())


def classify_double(x: RationalMatrix) -> DoubleCellIndex:
    """The pair of cell labels of ``x``: upper class and lower class."""
    return DoubleCellIndex(cells.classify(x, cells.B_PLUS),
                           cells.classify(x, cells.B_MINUS))
