"""Permutations and partial permutations in one-line notation.

Conventions used across the package (all indices and values are 1-based):

- A permutation of ``{1..n}`` is a tuple ``w`` of length ``n`` listing its
  images, so ``w[i-1]`` is ``w(i)``.
- The product ``ab`` of two permutations is the map ``i -> a(b(i))``.
- The 0/1 matrix attached to ``w`` carries the 1 of column ``j`` in row
  ``w(j)``; with this convention matrix products agree with products of
  permutations.
- A partial permutation on an ``m x n`` grid injects part of the column set
  ``{1..n}`` into the row set ``{1..m}``, stored column-indexed.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, factorial
from operator import lt
from typing import Iterable, Iterator, Optional, Sequence

Perm = tuple[int, ...]


def is_perm(w: Sequence[int]) -> bool:
    """
    Check that ``w`` lists each of ``1..len(w)`` exactly once, each an ``int``
    (a ``bool`` is not read as 0 or 1).

    >>> is_perm((2, 1, 3)), is_perm((1, 1, 2)), is_perm(())
    (True, False, True)
    """
    n = len(w)
    seen = [False] * (n + 1)
    for x in w:
        if type(x) is not int or not 1 <= x <= n or seen[x]:
            return False
        seen[x] = True
    return True


def check_perm(w: Sequence[int]) -> Perm:
    """Return ``w`` as a tuple, raising ``ValueError`` if it is not a permutation."""
    t = tuple(w)
    if not is_perm(t):
        raise ValueError(f"not a permutation of 1..{len(t)}: {t}")
    return t


def int_field(d: dict, key: str) -> int:
    """``d[key]`` of a JSON object, which must be an integer (not a ``bool``)."""
    value = d[key]
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def int_list_field(d: dict, key: str) -> tuple[int, ...]:
    """``d[key]`` of a JSON object, which must be a list of integers (no ``bool``)."""
    value = d[key]
    if not isinstance(value, (list, tuple)) or any(type(x) is not int for x in value):
        raise ValueError(f"{key} must be a list of integers, got {value!r}")
    return tuple(value)


def identity(n: int) -> Perm:
    """The identity permutation of ``{1..n}``."""
    return tuple(range(1, n + 1))


def longest(n: int) -> Perm:
    """
    The order-reversing permutation, the longest element of S_n.

    >>> longest(4)
    (4, 3, 2, 1)
    """
    return tuple(range(n, 0, -1))


def length(w: Sequence[int]) -> int:
    """
    Coxeter length of ``w``: the number of inversions.

    >>> length((1, 2, 3, 4)), length(longest(4)), length((6, 2, 3, 5, 4, 1)), length(())
    (0, 6, 10, 0)
    """
    seen = total = 0  # seen: bit x set for each image x left of the current position
    for x in w:
        total += (seen >> x).bit_count()
        seen |= 1 << x
    return total


def all_perms(n: int) -> Iterator[Perm]:
    """All permutations of ``{1..n}`` in lexicographic order."""
    return itertools.permutations(range(1, n + 1))


def subset_leq(left: Iterable[int], right: Iterable[int]) -> bool:
    """
    Compare two equal-size integer sets entrywise after ascending sort.

    >>> subset_leq({1, 3}, {2, 3}), subset_leq({3}, {2})
    (True, False)
    """
    a, b = sorted(left), sorted(right)
    if len(a) != len(b):
        raise ValueError(f"unequal sizes: {len(a)} vs {len(b)}")
    return all(x <= y for x, y in zip(a, b))


def bruhat_leq(y: Sequence[int], z: Sequence[int]) -> bool:
    """
    Bruhat order on S_n: ``y <= z`` iff for every prefix length ``p`` and
    every threshold ``k``, no more of ``y(1)..y(p)`` than of ``z(1)..z(p)``
    are ``>= k`` (Björner & Brenti, *Combinatorics of Coxeter Groups*, ch. 2).
    Both must be permutations of ``1..n``; each prefix is a bitmask of its
    values, and the count of ``y``'s exceeds that of ``z``'s first, if at
    all, at a threshold ``k`` in ``y``'s prefix and not in ``z``'s.

    >>> bruhat_leq((2, 1, 3), (2, 3, 1))
    True
    >>> bruhat_leq((3, 1, 2), (2, 3, 1)), bruhat_leq((2, 3, 1), (3, 1, 2))
    (False, False)
    """
    if len(y) != len(z):
        raise ValueError(f"size mismatch: {len(y)} vs {len(z)}")
    ys = zs = 0
    for a, b in zip(y, z):
        ys |= 1 << a
        zs |= 1 << b
        only_y = ys & ~zs
        while only_y:
            k = only_y.bit_length() - 1
            if (ys >> k).bit_count() > (zs >> k).bit_count():
                return False
            only_y ^= 1 << k
    return True


def block_longest(n: int, m: int) -> Perm:
    """
    The product of the longest elements of the two blocks ``{1..n}`` and
    ``{n+1..n+m}`` inside S_{n+m}.

    >>> block_longest(2, 2)
    (2, 1, 4, 3)
    """
    return longest(n) + tuple(2 * n + m + 1 - i for i in range(n + 1, n + m + 1))


def is_min_rep_first(w: Sequence[int], t: int) -> bool:
    """
    True iff ``w`` is the minimal-length representative of its coset modulo
    the subgroup permuting positions ``1..t``, i.e. ``w(1) < ... < w(t)``.

    >>> is_min_rep_first((1, 3, 2), 2), is_min_rep_first((3, 1, 2), 2)
    (True, False)
    """
    if not 0 <= t <= len(w):
        raise ValueError(f"t out of range: {t}")
    return all(map(lt, w[:t], w[1:t]))


def is_min_rep_last(w: Sequence[int], k: int) -> bool:
    """
    True iff ``w`` is minimal modulo the subgroup permuting the last ``k``
    positions, i.e. ``w(n-k+1) < ... < w(n)``.
    """
    n = len(w)
    if not 0 <= k <= n:
        raise ValueError(f"k out of range: {k}")
    return all(map(lt, w[n - k:], w[n - k + 1:]))


def extend_ascending(n: int, head: Sequence[int]) -> Perm:
    """
    The unique permutation of ``{1..n}`` starting with ``head`` whose
    remaining images are ascending.

    >>> extend_ascending(4, (3, 1))
    (3, 1, 2, 4)
    """
    head = tuple(head)
    used = set(head)
    rest = tuple(x for x in range(1, n + 1) if x not in used)
    if len(head) + len(rest) != n:
        raise ValueError(f"head {head} is not injective into 1..{n}")
    return head + rest


def with_head(n: int, head: Sequence[int]) -> Iterator[Perm]:
    """
    All permutations of ``{1..n}`` that start with ``head``, lexicographically:
    ``head`` followed by each arrangement of the other images.

    >>> list(with_head(3, ()))
    [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    >>> list(with_head(4, (3, 1)))
    [(3, 1, 2, 4), (3, 1, 4, 2)]
    >>> list(with_head(3, (2, 3, 1)))
    [(2, 3, 1)]
    """
    head = tuple(head)
    rest = [x for x in range(1, n + 1) if x not in head]
    if len(head) + len(rest) != n:
        raise ValueError(f"head {head} is not injective into 1..{n}")
    return (head + tail for tail in itertools.permutations(rest))


def min_reps_first(n: int, t: int) -> Iterator[Perm]:
    """All ``w`` in S_n with ``w(1) < ... < w(t)``, lexicographically."""
    for head in itertools.combinations(range(1, n + 1), t):
        yield from with_head(n, head)


def min_reps_last(n: int, k: int) -> Iterator[Perm]:
    """All ``w`` in S_n with the last ``k`` images ascending, lexicographically."""
    universe = range(1, n + 1)
    for head in itertools.permutations(universe, n - k):
        chosen = set(head)
        yield head + tuple(x for x in universe if x not in chosen)


# ---------------------------------------------------------------------------
# Partial permutations


@dataclass(frozen=True)
class PartialPerm:
    """
    A partial permutation on an ``m x n`` grid: an injective map from a
    subset of the columns ``{1..n}`` to the rows ``{1..m}``.  ``image[j-1]``
    is the row hit by column ``j``, or ``None``.
    """

    rows: int
    cols: int
    image: tuple[Optional[int], ...]

    def __post_init__(self) -> None:
        if type(self.rows) is not int or type(self.cols) is not int:
            raise ValueError(f"dimensions must be integers, got {self.rows!r} and {self.cols!r}")
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        image = tuple(self.image)
        if len(image) != self.cols:
            raise ValueError(f"image length {len(image)} != cols {self.cols}")
        hit = set()
        for r in image:
            if r is None:
                continue
            if type(r) is not int:
                raise ValueError(f"row {r!r} is not an integer")
            if not 1 <= r <= self.rows:
                raise ValueError(f"row {r} out of range 1..{self.rows}")
            if r in hit:
                raise ValueError(f"row {r} hit twice")
            hit.add(r)
        object.__setattr__(self, "image", image)  # a list would be unhashable

    @classmethod
    def from_pairs(cls, rows: int, cols: int,
                   pairs: Iterable[tuple[int, int]]) -> "PartialPerm":
        """Build from ``(column, row)`` pairs."""
        if type(cols) is not int:
            raise ValueError(f"dimensions must be integers, got {rows!r} and {cols!r}")
        image: list[Optional[int]] = [None] * cols
        for c, r in pairs:
            if type(c) is not int:
                raise ValueError(f"column {c!r} is not an integer")
            if not 1 <= c <= cols:
                raise ValueError(f"column {c} out of range 1..{cols}")
            if image[c - 1] is not None:
                raise ValueError(f"column {c} defined twice")
            image[c - 1] = r
        return cls(rows, cols, tuple(image))

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Defined ``(column, row)`` pairs in column order."""
        return tuple((j + 1, r) for j, r in enumerate(self.image) if r is not None)

    def dom(self) -> tuple[int, ...]:
        """Defined columns, ascending."""
        return tuple(j + 1 for j, r in enumerate(self.image) if r is not None)

    def rng(self) -> tuple[int, ...]:
        """Hit rows, ascending."""
        return tuple(sorted(r for r in self.image if r is not None))

    def rank(self) -> int:
        return sum(1 for r in self.image if r is not None)

    def literal(self) -> str:
        """
        Text form ``"<rows>x<cols>:c1->r1,c2->r2"`` with columns ascending.

        >>> PartialPerm.from_pairs(3, 3, [(1, 3)]).literal()
        '3x3:1->3'
        """
        body = ",".join(f"{c}->{r}" for c, r in self.pairs())
        return f"{self.rows}x{self.cols}:{body}"


def parse_partial(text: str) -> PartialPerm:
    """Parse the ``"3x3:1->3,2->2"`` literal form (empty entry list allowed)."""
    if not isinstance(text, str):
        raise ValueError(f"a partial permutation literal must be a string, got {text!r}")
    head, sep, body = text.strip().partition(":")
    try:
        rows_s, cols_s = head.split("x")
        rows, cols = int(rows_s), int(cols_s)
    except Exception as exc:
        raise ValueError(f"bad partial permutation literal {text!r}") from exc
    pairs = []
    if body.strip():
        for item in body.split(","):
            c_s, arrow, r_s = item.partition("->")
            if not arrow:
                raise ValueError(f"bad entry {item!r} in {text!r}")
            pairs.append((int(c_s), int(r_s)))
    return PartialPerm.from_pairs(rows, cols, pairs)


def as_partial(w: Sequence[int]) -> PartialPerm:
    """View a permutation as a total square partial permutation."""
    w = check_perm(w)
    return PartialPerm(len(w), len(w), w)


def partial_perms(m: int, n: int, rank: Optional[int] = None) -> Iterator[PartialPerm]:
    """
    All partial permutations on the ``m x n`` grid (optionally of fixed rank),
    in lexicographic order of the column-indexed image (undefined first).
    """
    for raw in itertools.product(range(m + 1), repeat=n):
        defined = [r for r in raw if r]
        if len(set(defined)) != len(defined):
            continue
        if rank is not None and len(defined) != rank:
            continue
        yield PartialPerm(m, n, tuple(r if r else None for r in raw))


def count_partial_perms(m: int, n: int, t: int) -> int:
    """Closed-form count of rank-``t`` partial permutations on an ``m x n`` grid."""
    return factorial(t) * comb(m, t) * comb(n, t)
