"""Permutation helpers that only the tests use: independent oracles for what
the library computes another way, from one-line notation or a rank table."""
from typing import NamedTuple

from leaf_atlas.exact_matrix import SOUTHWEST
from leaf_atlas.permutations import PartialPerm, check_perm


class Blocks(NamedTuple):
    """The four blocks of a permutation matrix split after row and column ``n``."""

    w11: PartialPerm  # n x n
    w12: PartialPerm  # n x m
    w21: PartialPerm  # m x n
    w22: PartialPerm  # m x m


def block_split(w, n, m):
    """
    Split a permutation of ``{1..n+m}`` into the four partial permutations
    whose matrix blocks (split after row and column ``n``) reassemble it.
    """
    w = check_perm(w)
    if len(w) != n + m:
        raise ValueError(f"block sizes inconsistent: {len(w)} != {n}+{m}")
    p11, p12, p21, p22 = [], [], [], []
    for j in range(1, n + 1):
        r = w[j - 1]
        (p11 if r <= n else p21).append((j, r if r <= n else r - n))
    for j in range(1, m + 1):
        r = w[n + j - 1]
        (p12 if r <= n else p22).append((j, r if r <= n else r - n))
    return Blocks(PartialPerm.from_pairs(n, n, p11), PartialPerm.from_pairs(n, m, p12),
                  PartialPerm.from_pairs(m, n, p21), PartialPerm.from_pairs(m, m, p22))


def partial_identity(m, n, t):
    """The rank-``t`` partial identity on the ``m x n`` grid: column ``j`` to row ``j``, ``j <= t``."""
    if not 0 <= t <= min(m, n):
        raise ValueError(f"t out of range: {t}")
    return PartialPerm.from_pairs(m, n, ((j, j) for j in range(1, t + 1)))


def left_compose(p, w):
    """Relabel the rows of ``w`` by the permutation ``p``: column ``j`` maps to ``p(w(j))``."""
    p = check_perm(p)
    if len(p) != w.rows:
        raise ValueError(f"size mismatch: {len(p)} vs {w.rows} rows")
    return PartialPerm(w.rows, w.cols, tuple(None if r is None else p[r - 1] for r in w.image))


def right_compose(w, p):
    """Precompose the columns: the result maps column ``j`` to ``w(p(j))``."""
    p = check_perm(p)
    if len(p) != w.cols:
        raise ValueError(f"size mismatch: {w.cols} cols vs {len(p)}")
    return PartialPerm(w.rows, w.cols, tuple(w.image[j - 1] for j in p))


def transpose(w):
    """The inverse bijection of ``w``, mapping its hit rows back to columns."""
    return PartialPerm.from_pairs(w.cols, w.rows, ((r, j) for j, r in w.pairs()))


def rank_at(table, kind, p, q):
    """
    The rank of one corner submatrix, read off a ``rank_profile`` table of
    ``kind``: rows ``p..`` and columns ``..q`` southwest, rows ``..p`` and
    columns ``q..`` northeast.  An out-of-range corner raises ``IndexError``.
    """
    i, j = (p - 1, q) if kind == SOUTHWEST else (p, q - 1)
    if not (0 <= i < len(table) and 0 <= j < len(table[0])):
        raise IndexError(f"({p},{q}) outside the {kind} index range")
    return table[i][j]
