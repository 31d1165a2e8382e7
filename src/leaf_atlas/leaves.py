"""Torus-orbit strata of the space of m x n matrices.

Each stratum (a torus orbit of symplectic leaves for the standard Poisson
structure) is indexed by a permutation ``w`` of ``{1..m+n}`` subject to the
displacement window ``n <= w(i)+i-1 <= m+2n``; equivalently ``w`` lies above
the product of the two block longest elements in the Bruhat order.  This
module enumerates the indices, decides membership of a matrix in a stratum
or its closure by comparing four tables of exact submatrix ranks with the
stratum's tables of dots of ``w`` in the matching rectangles (equal on the
stratum, entrywise at most on its closure), classifies a matrix by
embedding it in an invertible ``(m+n) x (m+n)`` block matrix, and exposes
the closure order and its Hasse diagram.

Membership (`in_leaf`) and classification (`classify_leaf`) are deliberately
independent code paths; the point of the package is to cross-validate their
agreement, so neither delegates to the other.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain
from operator import le
from typing import Iterator, Optional, Sequence

from . import cells
from .exact_matrix import (NORTHEAST, SOUTHWEST, RationalMatrix, bruhat_pivots,
                           interval_column_ranks, interval_row_ranks, rank_profile)
from .permutations import (Perm, PartialPerm, bruhat_leq, check_perm, int_field,
                           int_list_field, length)

_TAIL = 5  # the positions that enumerate_leaves fills one prefix at a time


def window_ok(w: Sequence[int], m: int, n: int) -> bool:
    """Displacement window ``n <= w(i)+i-1 <= m+2n`` for every position ``i``."""
    return all(n <= x + i <= m + 2 * n for i, x in enumerate(w))


def check_shape(m: int, n: int, t: Optional[int] = None) -> None:
    """Reject ``m``, ``n`` and a given ``t`` unless they are ints (not ``bool``),
    ``m, n >= 1`` and ``0 <= t <= min(m, n)``."""
    if type(m) is not int or type(n) is not int or t is not None and type(t) is not int:
        raise ValueError(f"m, n and t must be integers, got {m!r}, {n!r} and {t!r}")
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    if t is not None and not 0 <= t <= min(m, n):
        raise ValueError(f"t={t} out of range for m={m}, n={n}")


def rank_of_index(w: Sequence[int], n: int) -> int:
    """Number of columns ``j <= n`` sent past ``n``; the matrix rank on the stratum."""
    return sum(x > n for x in w[:n])


@dataclass(frozen=True)
class LeafIndex:
    """
    Index of one stratum: a permutation ``w`` of ``{1..m+n}`` inside the
    displacement window.  Its rank ``t`` and dimension are derived from ``w``.
    """

    w: Perm
    m: int
    n: int

    def __post_init__(self) -> None:
        if type(self.m) is not int or type(self.n) is not int:
            raise ValueError(f"m and n must be integers, got {self.m!r} and {self.n!r}")
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be positive")
        w = check_perm(self.w)
        if len(w) != self.m + self.n:
            raise ValueError(f"permutation size {len(w)} != {self.m}+{self.n}")
        if not window_ok(w, self.m, self.n):
            raise ValueError(f"{w} violates the displacement window for m={self.m}, n={self.n}")
        object.__setattr__(self, "w", w)  # the checked tuple

    @classmethod
    def from_w(cls, w: Sequence[int], m: int, n: int) -> "LeafIndex":
        return cls(tuple(w), m, n)

    @classmethod
    def _trusted(cls, w: Perm, m: int, n: int) -> "LeafIndex":
        """
        The index of ``w``, unchecked: for a producer that only builds tuple
        permutations inside the window.  The registered check
        ``window_vs_bruhat`` compares the enumerator's output with the
        window-filtered scan of S_{m+n}.
        """
        leaf = object.__new__(cls)
        object.__setattr__(leaf, "w", w)
        object.__setattr__(leaf, "m", m)
        object.__setattr__(leaf, "n", n)
        return leaf

    @property
    def t(self) -> int:
        return rank_of_index(self.w, self.n)

    @property
    def dim(self) -> int:
        return length(self.w) - (self.n * (self.n - 1) + self.m * (self.m - 1)) // 2

    def to_dict(self) -> dict:
        return {"w": list(self.w), "m": self.m, "n": self.n,
                "t": self.t, "dim": self.dim}

    @classmethod
    def from_dict(cls, d: dict) -> "LeafIndex":
        if not isinstance(d, dict) or not {"w", "m", "n"} <= d.keys():
            raise ValueError(f"a stratum index needs the keys w, m and n, got {d}")
        leaf = cls(int_list_field(d, "w"), int_field(d, "m"), int_field(d, "n"))
        for key in ("t", "dim"):
            if key in d and int_field(d, key) != getattr(leaf, key):
                raise ValueError(f"inconsistent {key} in {d}")
        return leaf


def enumerate_leaves(m: int, n: int, t: Optional[int] = None) -> list[LeafIndex]:
    """
    All stratum indices for ``m x n`` matrices in lexicographic order of the
    one-line notation, optionally restricted to matrix rank ``t``.

    Prefixes grow in lexicographic order, position ``i`` (from 0) by each
    unused value of its window ``[n-i, m+2n-i]``, the last two positions at
    once; with ``t`` given, only while rank ``t`` stays reachable.  Every
    prefix of ``m+n-_TAIL`` positions comes first, then the completions of
    one prefix at a time, to bound peak memory.

    >>> [L.w for L in enumerate_leaves(1, 1)]
    [(1, 2), (2, 1)]
    """
    check_shape(m, n, t)
    N = m + n
    windows = [range(max(1, n - i), min(N, m + 2 * n - i) + 1) for i in range(N)]
    total, last = N * (N + 1) // 2, windows[-1]

    def extend(prefixes: list[Perm], i: int) -> list[Perm]:
        win = windows[i]  # at i = N-2, the last position is filled too
        if i < N - 2:
            prefixes = [p + (x,) for p in prefixes for x in win if x not in p]
        else:
            prefixes = [p + (x, s - x) for p in prefixes for s in (total - sum(p),)
                        for x in win if x not in p and s - x in last]
        if t is not None and i < n:
            prefixes = [p for p in prefixes if t - (n - 1 - i) <= sum(x > n for x in p[:n]) <= t]
        return prefixes

    split = max(0, N - _TAIL)
    return [LeafIndex._trusted(w, m, n) for head in reduce(extend, range(split), [()])
            for w in reduce(extend, range(split, N - 1), [head])]


@lru_cache(maxsize=None)
def all_leaves(m: int, n: int) -> tuple[LeafIndex, ...]:
    """``enumerate_leaves(m, n)``, computed once per shape."""
    return tuple(enumerate_leaves(m, n))


def cell_labels(L: LeafIndex) -> tuple[PartialPerm, PartialPerm]:
    """The (upper, lower) cell labels of the stratum of ``L``: the lower-left
    block of ``w``, and its upper-right block transposed and reflected."""
    m, n, w = L.m, L.n, L.w
    upper = PartialPerm.from_pairs(m, n, ((j, r - n) for j, r in enumerate(w[:n], 1)
                                          if r > n))
    lower = PartialPerm.from_pairs(m, n, ((n + 1 - r, m + 1 - j)
                                          for j, r in enumerate(w[n:], 1) if r <= n))
    return upper, lower


@lru_cache(maxsize=None)
def block_pairs(m: int, n: int) -> frozenset[tuple[PartialPerm, PartialPerm]]:
    """The ``cell_labels`` pairs of every stratum index of ``m x n``."""
    return frozenset(cell_labels(L) for L in all_leaves(m, n))


# ---------------------------------------------------------------------------
# Membership: four families of rank conditions


@dataclass(frozen=True)
class LeafTables:
    """The four rank tables of an ``m x n`` matrix, or one stratum's targets
    in the same layout; ``col`` and ``row`` hold 0 where ``p == 0 or p > q``."""

    m: int
    n: int
    sw: tuple[tuple[int, ...], ...]
    ne: tuple[tuple[int, ...], ...]
    col: tuple[tuple[int, ...], ...]  # col[p][q] = rank of columns p..q
    row: tuple[tuple[int, ...], ...]  # row[p][q] = rank of rows p..q


def leaf_profile(x: RationalMatrix) -> LeafTables:
    return LeafTables(
        x.rows, x.cols,
        rank_profile(x, SOUTHWEST),
        rank_profile(x, NORTHEAST),
        tuple(tuple(r) for r in interval_column_ranks(x)),
        tuple(tuple(r) for r in interval_row_ranks(x)),
    )


@lru_cache(maxsize=None)
def _leaf_targets(w: Perm, m: int, n: int) -> LeafTables:
    """
    The rank targets of the stratum of ``w`` in ``m x n``, as the tables
    ``leaf_profile`` gives for a member, cached by the plain tuple
    ``(w, m, n)``.  Each target is the number of dots of ``w`` in one
    rectangle (Fulton's rank function), read off the southwest dot-count
    table ``S`` of ``w``: ``S[k][c]`` counts the columns ``j <= c`` with
    ``w(j) > k``.  A rectangle's count is four entries of ``S``; those on
    its border (``S[0][c] == c``, ``S[N][c] == 0``, ``S[k][0] == 0``,
    ``S[k][N] == N - k``) are known, so each target reads at most two.
    """
    N = m + n
    S = cells.pp_rank_profile(w, SOUTHWEST)
    sw = tuple(row[:n + 1] for row in S[n:])
    ne = tuple(tuple([k + p - N + S[k][N - p] for k in range(n, -1, -1)])
               for p in range(m + 1))
    col = tuple(tuple([S[n + 1 - p][q] - S[n + 1 - p][p - 1] if 1 <= p <= q else 0
                       for q in range(n + 1)]) for p in range(n + 1))
    row = tuple(tuple([S[n + p - 1][N - q] - S[n + q][N - q] if 1 <= p <= q else 0
                       for q in range(m + 1)]) for p in range(m + 1))
    return LeafTables(m, n, sw, ne, col, row)


def in_leaf(x: RationalMatrix, L: LeafIndex, mode: str = "cell",
            tables: Optional[LeafTables] = None) -> bool:
    """
    Membership of ``x`` in the stratum of ``L`` (``mode="cell"``) or in its
    Zariski closure (``mode="closure"``), decided by the rank conditions
    alone: the four tables of ``x`` equal the stratum's targets, or lie
    entrywise below them.  Pass precomputed ``tables`` (``leaf_profile(x)``)
    when testing one matrix against many indices.
    """
    if mode not in {"cell", "closure"}:
        raise ValueError(f"mode must be 'cell' or 'closure', got {mode!r}")
    if (x.rows, x.cols) != (L.m, L.n):
        raise ValueError(f"dimension mismatch: {x.rows}x{x.cols} vs {L.m}x{L.n}")
    if tables is not None and (tables.m, tables.n) != (x.rows, x.cols):
        raise ValueError(f"tables of a {tables.m}x{tables.n} matrix for a "
                         f"{x.rows}x{x.cols} matrix")
    T = tables if tables is not None else leaf_profile(x)
    tg = _leaf_targets(L.w, L.m, L.n)
    if mode == "cell":
        return T.sw == tg.sw and T.ne == tg.ne and T.col == tg.col and T.row == tg.row
    return all(map(le, chain.from_iterable((*T.sw, *T.ne, *T.col, *T.row)),
                   chain.from_iterable((*tg.sw, *tg.ne, *tg.col, *tg.row))))


def classify_leaf(x: RationalMatrix) -> LeafIndex:
    """
    The unique stratum containing ``x``: embed ``x`` as the lower-left block
    of the invertible ``(m+n) x (m+n)`` matrix ``E = [[J, 0], [x, J]]``
    (``J`` an anti-identity) and read the upper Bruhat cell of ``E`` off the
    pivots of one fraction-free elimination.

    The elimination runs on integer rows: row ``i`` of ``x`` scaled by the
    lcm ``d_i`` of its denominators, with 1 kept on the anti-identity.  With
    ``D = diag(d_i)`` these are the rows of ``diag(I, D) [[J, 0], [x, D^-1 J]]``,
    and ``[[J, 0], [x, D^-1 J]] = E diag(I, J^-1 D^-1 J)``.  Diagonal matrices
    lie in the upper Borel subgroup, so both factors keep ``E`` in its cell.
    """
    m, n = x.rows, x.cols
    N = m + n
    rows = []
    for i in range(1, n + 1):
        row = [0] * N
        row[n - i] = 1
        rows.append(row)
    for i, xrow in enumerate(x._irows, 1):
        row = list(xrow) + [0] * m
        row[N - i] = 1
        rows.append(row)
    w = [0] * N
    for c, r in bruhat_pivots(rows, SOUTHWEST):
        w[c - 1] = r
    return LeafIndex.from_w(w, m, n)


def closure_leq(a: LeafIndex, b: LeafIndex) -> bool:
    """Closure containment order on strata: the Bruhat order of the indices."""
    if (a.m, a.n) != (b.m, b.n):
        raise ValueError("indices for different matrix spaces")
    return bruhat_leq(a.w, b.w)


def _upper_covers(w: Perm) -> list[Perm]:
    """
    Bruhat covers of ``w``: the swaps of positions ``i < j`` with
    ``w(i) < w(j)`` and no ``k`` between them with ``w(i) < w(k) < w(j)``
    (Bjorner-Brenti, Combinatorics of Coxeter Groups, ch. 2).
    """
    N = len(w)
    out = []
    for i in range(N - 1):
        a = w[i]
        ceiling = N + 1  # smallest value above a seen since position i
        for j in range(i + 1, N):
            b = w[j]
            if a < b < ceiling:
                ceiling = b
                v = list(w)
                v[i], v[j] = b, a
                out.append(tuple(v))
    return out


def hasse(m: int, n: int) -> list[tuple[LeafIndex, LeafIndex]]:
    """
    Covering relations of the closure order, by dimension of the lower
    stratum, then lexicographically.  The index family is an upper set of
    the Bruhat order, so every Bruhat cover of a stratum is a stratum.
    """
    leaves = all_leaves(m, n)
    by_w = {L.w: L for L in leaves}
    return [(a, by_w[w]) for a in sorted(leaves, key=lambda L: L.dim)
            for w in sorted(_upper_covers(a.w))]


def hasse_dot(m: int, n: int) -> Iterator[str]:
    """
    Hasse diagram in DOT format, low strata at the bottom, as its lines (each
    ending in a newline).  The strata and covers are computed before the
    first line is made, so a bad shape raises here.
    """
    leaves, covers = all_leaves(m, n), hasse(m, n)
    fmt = ",".join(["%d"] * (m + n))
    label = {L.w: fmt % L.w for L in leaves}
    return chain(["digraph leaves {\n", "  rankdir=BT;\n"],
                 (f'  "{label[L.w]}" [dim={L.dim}, rank={L.t}];\n' for L in leaves),
                 (f'  "{label[a.w]}" -> "{label[b.w]}";\n' for a, b in covers),
                 ["}\n"])
