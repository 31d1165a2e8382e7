"""Permutation and quadruple helpers that only the tests use: independent
oracles for what the library computes another way, from one-line notation or
a rank table, and the earlier, slower forms of the library's own functions."""
import itertools
from bisect import insort
from math import factorial, gcd
from typing import NamedTuple

from leaf_atlas.double_bruhat import dense_orbit
from leaf_atlas.exact_matrix import NORTHEAST, SOUTHWEST, _half_turn
from leaf_atlas.permutations import (PartialPerm, bruhat_leq, check_perm,
                                     min_reps_first, min_reps_last)
from leaf_atlas.sigma import SigmaTuple


def stirling2(n, k):
    """Stirling number of the second kind, by ``S(n, k) = k S(n-1, k) + S(n-1, k-1)``."""
    row = [1] + [0] * k  # S(0, j)
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def rank_count(m, n, t):
    """The number of rank-``t`` strata of ``m x n``, ``(t!)^2 S(m+1, t+1) S(n+1, t+1)``
    (Arakawa and Kaneko, 1999)."""
    return factorial(t) ** 2 * stirling2(m + 1, t + 1) * stirling2(n + 1, t + 1)


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


def compose(a, b):
    """Right-to-left composition: ``compose(a, b)(i) = a(b(i))``."""
    if len(a) != len(b):
        raise ValueError(f"size mismatch: {len(a)} vs {len(b)}")
    return tuple(a[j - 1] for j in b)


def inverse(w):
    """The inverse permutation: ``inverse(w)[x-1] = i`` where ``w(i) = x``."""
    inv = [0] * len(w)
    for i, x in enumerate(w):
        inv[x - 1] = i + 1
    return tuple(inv)


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


def bruhat_pivots_by_content(irows, kind):
    """
    The earlier form of ``exact_matrix.bruhat_pivots``, on lists: the same
    bottom-up walk, each row above the pivot with a nonzero entry in its
    column replaced by ``p*row_k - f*row_i`` and divided by its content.
    """
    if kind == NORTHEAST:
        m, n = len(irows), len(irows[0])
        return [(n + 1 - c, m + 1 - r)
                for c, r in bruhat_pivots_by_content(_half_turn(irows), SOUTHWEST)]
    if kind != SOUTHWEST:
        raise ValueError(f"unknown profile kind {kind!r}")
    rows = [list(r) for r in irows]
    pairs = []
    for i in range(len(rows) - 1, -1, -1):
        row = rows[i]
        c = next((j for j, a in enumerate(row) if a), None)
        if c is None:
            continue
        pairs.append((c + 1, i + 1))
        p = row[c]
        for k in range(i):
            f = rows[k][c]
            if f:
                new = [p * a - f * b for a, b in zip(rows[k], row)]
                g = gcd(*new)
                rows[k] = [a // g for a in new] if g > 1 else new
    return pairs


def bruhat_leq_by_sorted_prefixes(y, z):
    """Bruhat order on S_n: every sorted prefix of ``y`` is entrywise <= that of ``z``."""
    n = len(y)
    if n != len(z):
        raise ValueError(f"size mismatch: {n} vs {len(z)}")
    ys, zs = [], []
    for p in range(n - 1):  # the full prefix is always equal
        insort(ys, y[p])
        insort(zs, z[p])
        for a, b in zip(ys, zs):
            if a > b:
                return False
    return True


def is_min_rep_first_by_pairs(w, t):
    """``w(1) < ... < w(t)``, pair by pair."""
    if not 0 <= t <= len(w):
        raise ValueError(f"t out of range: {t}")
    return all(w[i] < w[i + 1] for i in range(t - 1))


def is_min_rep_last_by_pairs(w, k):
    """``w(n-k+1) < ... < w(n)``, pair by pair."""
    n = len(w)
    if not 0 <= k <= n:
        raise ValueError(f"k out of range: {k}")
    return all(w[i] < w[i + 1] for i in range(n - k, n - 1))


def extend_ascending_by_set_difference(n, head):
    """``head`` followed by the sorted rest of ``1..n``."""
    head = tuple(head)
    rest = sorted(set(range(1, n + 1)) - set(head))
    if len(head) + len(rest) != n:
        raise ValueError(f"head {head} is not injective into 1..{n}")
    return head + tuple(rest)


def enumerate_sigma_validated(m, n, t):
    """Every quadruple of rank ``t``, each built through the validating
    constructor, sorted by ``(y, v, z, u)``."""
    yz = [(y, z) for y in min_reps_last(m, m - t) for z in min_reps_first(m, t)
          if bruhat_leq_by_sorted_prefixes(z, y)]
    vu = [(v, u) for v in min_reps_first(n, t) for u in min_reps_last(n, n - t)
          if bruhat_leq_by_sorted_prefixes(v, u)]
    out = [SigmaTuple(y, v, z, u, t) for (y, z) in yz for (v, u) in vu]
    out.sort(key=lambda s: (s.y, s.v, s.z, s.u))
    return out


def phi_inv_by_blocks(L):
    """
    The quadruple of ``L`` from the four blocks of the reflected permutation,
    each a dict from column to row, and the inverses of the off-diagonal two.
    """
    m, n, t = L.m, L.n, L.t
    N = m + n
    wt = tuple(N + 1 - x for x in L.w)
    w11 = {c: r for c, r in enumerate(wt[:n], 1) if r <= m}
    w21 = {c: r - m for c, r in enumerate(wt[:n], 1) if r > m}
    w12 = {c: r for c, r in enumerate(wt[n:], 1) if r <= m}
    w22 = {c: r - m for c, r in enumerate(wt[n:], 1) if r > m}

    vs = sorted(w11)
    y = extend_ascending_by_set_difference(m, [m + 1 - w11[c] for c in vs])
    zs = sorted(w22, reverse=True)
    u = extend_ascending_by_set_difference(n, [w22[c] for c in zs])
    w21_inv = {r: c for c, r in w21.items()}
    v = tuple(vs) + tuple(w21_inv[u[j - 1]] for j in range(t + 1, n + 1))
    w12_inv = {r: c for c, r in w12.items()}
    z = (tuple(m + 1 - c for c in zs)
         + tuple(m + 1 - w12_inv[m + 1 - y[j - 1]] for j in range(t + 1, m + 1)))
    return SigmaTuple(y, v, z, u, t)


def phi_by_inverses(sig):
    """
    ``sigma.phi`` column by column: column ``c <= n`` reads position
    ``v^{-1}(c)`` of ``y`` or ``u``, column ``n+c`` position ``z^{-1}(m+1-c)``
    of ``u`` or ``y``.
    """
    m, n, t = sig.m, sig.n, sig.t
    y, v, z, u = sig.y, sig.v, sig.z, sig.u
    vinv, zinv = inverse(v), inverse(z)
    images = []
    for c in range(1, n + 1):
        j = vinv[c - 1]
        images.append(m + 1 - y[j - 1] if j <= t else m + u[j - 1])
    for c in range(1, m + 1):
        j = zinv[m - c]
        images.append(m + u[j - 1] if j <= t else m + 1 - y[j - 1])
    return tuple(images)


def _tail_perms(n, t):
    """Permutations fixing ``1..t`` pointwise, lexicographically."""
    head = tuple(range(1, t + 1))
    for tail in itertools.permutations(range(t + 1, n + 1)):
        yield head + tail


def decompose_by_tails(d):
    """
    The strata of a nonempty double cell as products of the base factors
    with tails: ``(y, v0 tau2, z0 tau1, u)`` for ``tau1``, ``tau2`` fixing
    ``1..t``, with ``z0 tau1 <= y`` and ``v0 tau2 <= u``, lexicographic in
    ``(tau1, tau2)``.
    """
    base = dense_orbit(d)
    y, v0, z0, u, t = base.y, base.v, base.z, base.u, base.t
    m, n = d.shape
    out = []
    for tau1 in _tail_perms(m, t):
        z = compose(z0, tau1)
        if not bruhat_leq(z, y):
            continue
        for tau2 in _tail_perms(n, t):
            v = compose(v0, tau2)
            if bruhat_leq(v, u):
                out.append(SigmaTuple(y, v, z, u, t))
    return out


def stratify_pattern_sorted(pat):
    """The stratum pairs of an echelon pattern, collected in any order and then sorted."""
    long_dim, t = pat.long_dim, pat.t
    pinned = [pat.pivots + tail for tail in itertools.permutations(
        sorted(set(range(1, long_dim + 1)) - set(pat.pivots)))]
    out = [(big, small) for big in min_reps_last(long_dim, long_dim - t)
           for small in pinned if bruhat_leq(small, big)]
    out.sort()
    return out


def cauchon_diagrams_by_pipes(m, n):
    """
    Every ``m x n`` colouring that obeys the Cauchon rule (each black box has
    only black boxes to its left or only black boxes above it), as pairs
    ``(w, rows)`` with ``rows`` the row bitmasks (bit ``j`` black in column
    ``j + 1``) and ``w`` traced pipe by pipe: a black box is a crossing, a
    white box an elbow.  Sources are the top edge right to left, then the
    left edge top to bottom; sinks the bottom edge left to right, then the
    right edge bottom to top; ``w`` sends each sink to its source.
    """
    out = []
    for bits in itertools.product((False, True), repeat=m * n):
        black = [bits[i * n:(i + 1) * n] for i in range(m)]
        if not all(all(black[i][:j]) or all(black[k][j] for k in range(i))
                   for i in range(m) for j in range(n) if black[i][j]):
            continue
        w = [0] * (m + n)
        starts = [(0, n - k, "down") for k in range(1, n + 1)]
        starts += [(i, 0, "right") for i in range(m)]
        for source, (i, j, heading) in enumerate(starts, 1):
            while i < m and j < n:
                if not black[i][j]:  # an elbow turns the pipe
                    heading = "right" if heading == "down" else "down"
                i, j = (i + 1, j) if heading == "down" else (i, j + 1)
            sink = j + 1 if i == m else n + m - i
            w[sink - 1] = source
        rows = tuple(sum(1 << j for j in range(n) if black[i][j]) for i in range(m))
        out.append((tuple(w), rows))
    return out
