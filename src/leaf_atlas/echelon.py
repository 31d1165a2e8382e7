"""Column/row echelon patterns and their stratification.

A column-echelon pattern in ``m x t`` fixes the pivot row of each column
(strictly increasing); the set of matrices with that exact pattern is a
finite disjoint union of strata indexed by pairs ``(y, z)`` with ``z`` below
``y`` and ``z`` pinned to the pivots.  A row pattern in ``t x n`` is read as
the transposed column pattern: its lines are rows instead of columns, its
pivots lie along ``long_dim = n``, and its strata are the pairs ``(u, v)``
with ``v`` pinned.  The orientation is chosen once, on ``EchelonPattern``;
the rest of the code works with ``long_dim``, ``t`` and the pattern's lines.
A pattern's shape and pivots are checked by ``exact_matrix.check_shape`` and
``check_pivots``, as the echelon samplers check theirs.  Every stratum of the
full ``m x n`` space factors, up to closure, as a product of one
column-echelon stratum and one row-echelon stratum; the factor descriptors
come straight from the quadruple index.

Sampling a stratum tries rejection from the ambient pattern (plus targeted
zeroing) first and then falls back to a torus scaling of a fixed member,
restored from the stratum's Cauchon diagram (``cauchon``), so every stratum
is reached.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cauchon import diagram, restore
from .exact_matrix import (RationalMatrix, Seed, _as_rng, _rand_nonzero,
                           check_pivots, check_shape, sample_echelon_col)
from .leaves import LeafIndex, classify_leaf
from .permutations import Perm, bruhat_leq, identity, min_reps_last, with_head
from .sigma import SigmaTuple, phi_inv, phi_to_leaf

COLUMN = "column"
ROW = "row"


@dataclass(frozen=True)
class EchelonPattern:
    """
    Pivot signature of rank-``t`` echelon matrices.  ``column``: shape is
    ``rows x t`` and ``pivots`` lists the pivot row of each column.  ``row``:
    shape is ``t x cols`` and ``pivots`` lists the pivot column of each row.
    """

    kind: str
    rows: int
    cols: int
    pivots: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in {COLUMN, ROW}:
            raise ValueError(f"kind must be 'column' or 'row', got {self.kind!r}")
        check_shape(self.rows, self.cols, self.t)  # 1 <= t <= long_dim
        check_pivots(self.pivots, self.long_dim, self.t)

    @property
    def t(self) -> int:
        return self.cols if self.kind == COLUMN else self.rows

    @property
    def long_dim(self) -> int:
        """The side that carries the pivots: rows of a column pattern, cols of a row pattern."""
        return self.rows if self.kind == COLUMN else self.cols

    def literal(self) -> str:
        body = ",".join(map(str, self.pivots))
        return f"{'col' if self.kind == COLUMN else 'row'}:{self.rows},{self.cols}:{body}"

    def transposed(self) -> "EchelonPattern":
        kind = ROW if self.kind == COLUMN else COLUMN
        return EchelonPattern(kind, self.cols, self.rows, self.pivots)


def column_pattern(m: int, pivots: Sequence[int]) -> EchelonPattern:
    return EchelonPattern(COLUMN, m, len(tuple(pivots)), tuple(pivots))


def row_pattern(n: int, pivots: Sequence[int]) -> EchelonPattern:
    return EchelonPattern(ROW, len(tuple(pivots)), n, tuple(pivots))


def parse_pattern(text: str) -> EchelonPattern:
    """Parse the CLI literal ``"col:m,t:1,3,4"`` / ``"row:t,n:2,4,5"``."""
    try:
        kind_s, dims_s, pivots_s = text.strip().split(":")
        a, b = (int(x) for x in dims_s.split(","))
        pivots = tuple(int(x) for x in pivots_s.split(",")) if pivots_s else ()
    except Exception as exc:
        raise ValueError(f"bad pattern literal {text!r}") from exc
    kinds = {"col": COLUMN, "row": ROW}
    if kind_s not in kinds:
        raise ValueError(f"bad pattern kind in {text!r}")
    return EchelonPattern(kinds[kind_s], a, b, pivots)


def all_patterns(kind: str, long_dim: int, t: int) -> list[EchelonPattern]:
    """All pivot signatures of the given kind, shape and rank."""
    shape = (long_dim, t) if kind == COLUMN else (t, long_dim)
    return [EchelonPattern(kind, *shape, pivots)
            for pivots in itertools.combinations(range(1, long_dim + 1), t)]


def in_pattern(a: RationalMatrix, pat: EchelonPattern) -> bool:
    """
    Exact sign-pattern membership: each line (a column of a column pattern, a
    row of a row pattern) is nonzero at its pivot and zero before it.
    """
    if (a.rows, a.cols) != (pat.rows, pat.cols):
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} vs {pat.rows}x{pat.cols}")
    lines = zip(*a._irows) if pat.kind == COLUMN else a._irows  # row scaling keeps zeros
    return all(line[p - 1] != 0 and not any(line[:p - 1])
               for line, p in zip(lines, pat.pivots))


def stratify_pattern(pat: EchelonPattern) -> list[tuple[Perm, Perm]]:
    """
    Stratum index pairs of a pattern: ``(y, z)`` pairs for a column pattern
    (``z`` pinned to the pivot rows), ``(u, v)`` pairs for a row pattern
    (``v`` pinned to the pivot columns), sorted: both factors are listed
    lexicographically.
    """
    long_dim = pat.long_dim
    pinned = tuple(with_head(long_dim, pat.pivots))
    return [(big, small) for big in min_reps_last(long_dim, long_dim - pat.t)
            for small in pinned if bruhat_leq(small, big)]


def column_stratum_sigma(m: int, t: int, y: Perm, z: Perm) -> SigmaTuple:
    """The quadruple ``(y, 1, z, 1)`` naming a column stratum inside ``m x t``."""
    if len(y) != m or len(z) != m:
        raise ValueError(f"y and z must have length m={m}, got {list(y)} and {list(z)}")
    return SigmaTuple(y, identity(t), z, identity(t), t)


def leaf_factors(L: LeafIndex) -> tuple[tuple[Perm, Perm], tuple[Perm, Perm]]:
    """
    Echelon factor descriptors of a stratum: the column-side pair ``(y, z)``
    (a stratum in ``m x t``) and the row-side pair ``(u, v)`` (a stratum in
    ``t x n``); products of members of the two factors fill the stratum up
    to closure.
    """
    sig = phi_inv(L)
    return (sig.y, sig.z), (sig.u, sig.v)


# ---------------------------------------------------------------------------
# Sampling inside strata

_TRIES = 30  # rejection draws before falling back to the representative


def column_stratum_representative(m: int, t: int, y: Perm, z: Perm) -> RationalMatrix:
    """
    A fixed member of the column stratum: its Cauchon diagram restored with
    every parameter 1 (a diagram has one white box per dimension).  A pair
    that names no stratum raises ``ValueError``.
    """
    L = phi_to_leaf(column_stratum_sigma(m, t, y, z))
    return RationalMatrix(restore(diagram(L.w, m, t), t, [Fraction(1)] * L.dim))


def sample_column_stratum(m: int, t: int, y: Perm, z: Perm,
                          seed: Seed) -> RationalMatrix:
    """
    A random member of the column stratum ``(y, z)`` inside ``m x t``:
    rejection from the ambient pattern with random zeroing first, then a
    random torus scaling of the restored representative.
    """
    rng = _as_rng(seed)
    target = phi_to_leaf(column_stratum_sigma(m, t, y, z))
    pivots = tuple(z[:t])
    for _ in range(_TRIES):
        a = sample_echelon_col(m, t, pivots, rng, zero_prob=0.4)
        if classify_leaf(a) == target:
            return a
    rep = column_stratum_representative(m, t, y, z)
    row_f = [_rand_nonzero(rng) for _ in range(m)]
    col_f = [_rand_nonzero(rng) for _ in range(t)]
    return rep.scaled(row_f, col_f)


def sample_row_stratum(t: int, n: int, u: Perm, v: Perm,
                       seed: Seed) -> RationalMatrix:
    """Row-side analogue of ``sample_column_stratum``, via transposition."""
    return sample_column_stratum(n, t, u, v, seed).transpose()
