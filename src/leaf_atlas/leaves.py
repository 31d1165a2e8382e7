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
from itertools import accumulate, chain
from operator import le
from typing import Iterator, Optional, Sequence

from . import cells
from .exact_matrix import (NORTHEAST, SOUTHWEST, RationalMatrix, bruhat_pivots,
                           check_shape, interval_column_ranks, interval_row_ranks,
                           rank_profile)
from .permutations import (Perm, PartialPerm, bruhat_leq, check_perm, int_field,
                           int_list_field, length)

_TAIL = 5  # the positions that _walk fills one prefix at a time


def window_ok(w: Sequence[int], m: int, n: int) -> bool:
    """Displacement window ``n <= w(i)+i-1 <= m+2n`` for every position ``i``."""
    return all(n <= x + i <= m + 2 * n for i, x in enumerate(w))


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
        check_shape(self.m, self.n)
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


def _walk_heads(m: int, n: int, t: Optional[int] = None) -> Iterator[tuple]:
    """
    The strata of ``_walk(m, n, t)`` grouped by head, in the same order:
    ``(head, rank, dim, tail)`` for each head, whose strata are ``(head +
    s, rank + tr, dim + td)`` for each ``(s, tr, td)`` of ``tail`` with
    ``rank + tr`` equal to ``t`` (each, if ``t`` is None).  A ``tail`` is
    the list of completions of every head with the same values, shared
    between them and unfiltered, since heads of different ranks share it.
    The shape is checked before the generator is made.

    Prefixes grow in lexicographic order, position ``i`` (from 0) by each
    unused value of its window ``[n-i, m+2n-i]``, the last two positions at
    once; with ``t`` given, only while rank ``t`` stays reachable.  Every
    prefix of ``m+n-_TAIL`` positions (a head) is built first; then the
    heads come one at a time, each freed as it is yielded, and a tail is
    built when the first head with its values is reached, to bound peak
    memory.  A prefix ``p`` is carried as ``(p, rank, dim, used)``:
    ``used`` has bit ``x`` set for each value ``x`` of ``p``, and a value
    ``x`` appended at position ``i`` adds ``x > n`` to the rank if ``i <
    n``, and the number of larger values before it (an inversion each) to
    ``dim``.  A tail is built from ``((), 0, 0, used)``, and its last two
    positions emit ``(suffix, rank, dim)``.

    >>> [(p, r, d, tail) for p, r, d, tail in _walk_heads(1, 1)]
    [((), 0, 0, [((1, 2), 0, 0), ((2, 1), 1, 1)])]
    """
    check_shape(m, n, 0 if t is None else t)
    N = m + n
    windows = [range(max(1, n - i), min(N, m + 2 * n - i) + 1) for i in range(N)]
    full, last = (1 << N + 1) - 2, windows[-1]  # full has bits 1..N
    split = max(0, N - _TAIL)

    def extend(prefixes: list, i: int) -> list:
        win, ranked = windows[i], i < n
        if i < N - 2:
            prefixes = [(p + (x,), r + (ranked and x > n), d + (used >> x).bit_count(),
                         used | 1 << x)
                        for p, r, d, used in prefixes for x in win if not used >> x & 1]
        else:  # the last position takes the one value left; it is never < n
            prefixes = [(p + (x, y), r + (ranked and x > n),
                         d + (used >> x).bit_count() + (used >> y).bit_count() + (x > y))
                        for p, r, d, used in prefixes for x in win if not used >> x & 1
                        for y in [(full ^ used ^ 1 << x).bit_length() - 1] if y in last]
        if t is not None and ranked and i < split:  # a tail is shared across ranks
            prefixes = [q for q in prefixes if t - (n - 1 - i) <= q[1] <= t]
        return prefixes

    # dim is length(w) less the length of the two blocks' longest elements
    heads = reduce(extend, range(split), [((), 0, -((n * (n - 1) + m * (m - 1)) // 2), 0)])
    tails: dict[int, list] = {}  # used -> the completions of any head with those values

    def grouped() -> Iterator[tuple]:
        heads.reverse()  # taken from the end, so each head is freed as it is reached
        while heads:
            p, r, d, used = heads.pop()
            tail = tails.get(used)
            if tail is None:
                tail = tails[used] = reduce(extend, range(split, N - 1), [((), 0, 0, used)])
            yield p, r, d, tail

    return grouped()


def _walk(m: int, n: int, t: Optional[int] = None) -> Iterator[tuple[Perm, int, int]]:
    """
    ``(w, t, dim)`` for each stratum index ``w`` of ``m x n`` in
    lexicographic order of the one-line notation, optionally restricted to
    matrix rank ``t``: the strata of ``_walk_heads``, one at a time.  The
    shape is checked before the generator is made.

    >>> list(_walk(1, 1))
    [((1, 2), 0, 0), ((2, 1), 1, 1)]
    """
    return chain.from_iterable(
        [(p + s, r + tr, d + td) for s, tr, td in tail if t is None or r + tr == t]
        for p, r, d, tail in _walk_heads(m, n, t))


def enumerate_leaves(m: int, n: int, t: Optional[int] = None) -> list[LeafIndex]:
    """
    All stratum indices for ``m x n`` matrices in lexicographic order of the
    one-line notation, optionally restricted to matrix rank ``t``: the
    indices of ``_walk``, whose carried rank and dimension the listings
    read without building a ``LeafIndex``.

    >>> [L.w for L in enumerate_leaves(1, 1)]
    [(1, 2), (2, 1)]
    """
    return [LeafIndex._trusted(w, m, n) for w, _, _ in _walk(m, n, t)]


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
    """The four rank tables of a matrix; ``col`` and ``row`` hold 0 where
    ``p == 0 or p > q``.  A stratum's targets (``_Targets``) are four tables
    in the same layout, held in an object of their own that builds three of
    them only when asked."""

    sw: tuple[tuple[int, ...], ...]
    ne: tuple[tuple[int, ...], ...]
    col: tuple[tuple[int, ...], ...]  # col[p][q] = rank of columns p..q
    row: tuple[tuple[int, ...], ...]  # row[p][q] = rank of rows p..q


def leaf_profile(x: RationalMatrix) -> LeafTables:
    """
    The four rank tables of ``x``, counted once per matrix: the first call
    runs the four kernels and keeps the tables in the matrix's cache slot
    ``_tables``, and every later call returns them.
    """
    T = x._tables
    if T is None:
        T = LeafTables(rank_profile(x, SOUTHWEST),
                       rank_profile(x, NORTHEAST),
                       tuple(tuple(r) for r in interval_column_ranks(x)),
                       tuple(tuple(r) for r in interval_row_ranks(x)))
        object.__setattr__(x, "_tables", T)
    return T


class _Targets:
    """
    The rank targets of the stratum of ``w`` in ``m x n``: the tables
    ``leaf_profile`` gives for a member, as ``sw`` and ``rest() == (ne, col,
    row)``.  Each target is the number of dots of ``w`` in one rectangle
    (Fulton's rank function).  ``sw`` is built at once from the first ``n``
    images alone: ``sw[k][c]`` counts the ``j <= c`` with ``w(j) > n + k``.
    The other three tables are built on first use, since ``in_leaf``
    compares ``sw`` first and most pairs already fail there.  The fill is
    check-then-write without a lock; every writer stores equal tables.
    """

    __slots__ = ("w", "m", "n", "sw", "_rest")

    def __init__(self, w: Perm, m: int, n: int) -> None:
        head = w[:n]
        self.w, self.m, self.n, self._rest = w, m, n, None
        self.sw = tuple([tuple(accumulate([x > k for x in head], initial=0))
                         for k in range(n, m + n + 1)])

    def rest(self) -> tuple:
        """
        ``(ne, col, row)``, read off the southwest dot-count table ``S`` of
        ``w``: ``S[k][c]`` counts the columns ``j <= c`` with ``w(j) > k``.
        A rectangle's count is four entries of ``S``; those on its border
        (``S[0][c] == c``, ``S[N][c] == 0``, ``S[k][0] == 0``,
        ``S[k][N] == N - k``) are known, so each target reads at most two.
        """
        R = self._rest
        if R is None:
            m, n = self.m, self.n
            N = m + n
            S = cells.pp_rank_profile(self.w, SOUTHWEST)
            ne = tuple(tuple([k + p - N + S[k][N - p] for k in range(n, -1, -1)])
                       for p in range(m + 1))
            col = tuple(tuple([S[n + 1 - p][q] - S[n + 1 - p][p - 1] if 1 <= p <= q else 0
                               for q in range(n + 1)]) for p in range(n + 1))
            row = tuple(tuple([S[n + p - 1][N - q] - S[n + q][N - q] if 1 <= p <= q else 0
                               for q in range(m + 1)]) for p in range(m + 1))
            R = self._rest = (ne, col, row)
        return R


_leaf_targets = lru_cache(maxsize=None)(_Targets)  # cached by the plain tuple (w, m, n)


def in_leaf(x: RationalMatrix, L: LeafIndex, mode: str = "cell") -> bool:
    """
    Membership of ``x`` in the stratum of ``L`` (``mode="cell"``) or in its
    Zariski closure (``mode="closure"``), decided by the rank conditions
    alone: the four tables of ``x`` equal the stratum's targets, or lie
    entrywise below them.  The southwest tables are compared first, and a
    failure there decides without the stratum's other three targets.  The
    tables of ``x`` are those ``leaf_profile`` keeps on ``x``, counted on
    the first call for a matrix and read from it after, so testing one
    matrix against many indices counts them once.  The stratum ``x`` was
    classified into, kept on ``x`` by ``classify_leaf``, is never read.
    """
    if mode not in {"cell", "closure"}:
        raise ValueError(f"mode must be 'cell' or 'closure', got {mode!r}")
    if (x.rows, x.cols) != (L.m, L.n):
        raise ValueError(f"dimension mismatch: {x.rows}x{x.cols} vs {L.m}x{L.n}")
    T = x._tables or leaf_profile(x)  # one leaf_profile call per matrix, not per in_leaf
    tg = _leaf_targets(L.w, L.m, L.n)
    if mode == "cell":
        if T.sw != tg.sw:
            return False
        ne, col, row = tg.rest()
        return T.ne == ne and T.col == col and T.row == row
    if not all(map(le, chain.from_iterable(T.sw), chain.from_iterable(tg.sw))):
        return False
    return all(map(le, chain.from_iterable((*T.ne, *T.col, *T.row)),
                   chain.from_iterable(chain.from_iterable(tg.rest()))))


def classify_leaf(x: RationalMatrix) -> LeafIndex:
    """
    The unique stratum containing ``x``, found once per matrix: the first
    call keeps it in the matrix's cache slot ``_leaf`` and every later call
    returns it.  The rank tables kept on ``x`` by ``leaf_profile`` are never
    read.  To find it, embed ``x`` as the lower-left block of the invertible
    ``(m+n) x (m+n)`` matrix ``E = [[J, 0], [x, J]]`` (``J`` an
    anti-identity) and read the upper Bruhat cell of ``E`` off the pivots of
    one fraction-free elimination.

    The elimination runs on integer rows: row ``i`` of ``x`` scaled by the
    lcm ``d_i`` of its denominators, with 1 kept on the anti-identity.  With
    ``D = diag(d_i)`` these are the rows of ``diag(I, D) [[J, 0], [x, D^-1 J]]``,
    and ``[[J, 0], [x, D^-1 J]] = E diag(I, J^-1 D^-1 J)``.  Diagonal matrices
    lie in the upper Borel subgroup, so both factors keep ``E`` in its cell.
    """
    L = x._leaf
    if L is not None:
        return L
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
    L = LeafIndex.from_w(w, m, n)
    object.__setattr__(x, "_leaf", L)
    return L


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
    by_dim: list[list[LeafIndex]] = [[] for _ in range(m * n + 1)]
    for L, (_, _, dim) in zip(leaves, _walk(m, n)):  # the walk comes in the order of leaves
        by_dim[dim].append(L)
    return [(a, by_w[w]) for a in chain.from_iterable(by_dim)
            for w in sorted(_upper_covers(a.w))]


def hasse_dot(m: int, n: int) -> Iterator[str]:
    """
    Hasse diagram in DOT format, low strata at the bottom, as its lines (each
    ending in a newline).  The strata and covers are computed before the
    first line is made, so a bad shape raises here; each node line reads its
    rank and dimension from a walk as it is written.
    """
    leaves, covers = all_leaves(m, n), hasse(m, n)
    fmt = ",".join(["%d"] * (m + n))
    label = {L.w: fmt % L.w for L in leaves}
    return chain(["digraph leaves {\n", "  rankdir=BT;\n"],
                 (f'  "{label[w]}" [dim={dim}, rank={t}];\n' for w, t, dim in _walk(m, n)),
                 (f'  "{label[a.w]}" -> "{label[b.w]}";\n' for a, b in covers),
                 ["}\n"])
