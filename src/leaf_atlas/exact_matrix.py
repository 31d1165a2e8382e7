"""Exact rational dense matrices: rank, corner rank profiles, Bruhat pivots,
seeded sampling.

Every membership decision in this package runs on exact rationals; floating
point never enters the logic.  A matrix holds integer rows: each row scaled
by the lcm of its denominators (rank, zeros and every cell are insensitive
to row scaling).  Integer input is stored as given, with no ``Fraction``
made; ``Fraction`` entries are computed only on access or for rational
operands.  All elimination is fraction-free, in the style of Bareiss, so
intermediate values stay integral.

Each rank table comes from one pass of insertions.  The southwest corner
table feeds the rows bottom-up into one echelon basis and counts its leads;
an interval table feeds the vectors in order into a newest-wins basis whose
vectors carry the index they came from.  These membership kernels work on
lists and divide each new vector by its content.  Classification
(``bruhat_pivots``) shares none of them: it is one-step Bareiss elimination
on rows packed as one ``int`` each, ``B`` bits a field, with ``B`` from
Hadamard's bound so that every minor, and hence every entry the walk reads,
fits in a signed field.  Every row above a pivot is updated at each step,
which keeps each division by the previous pivot exact.  ``rank`` has its
own Bareiss kernel on lists.  Each northeast computation (corner table or
Bruhat pivots) is the southwest one on the half-turned matrix, row order
and rows reversed, turned back.

Samplers are pure functions of an explicit seed.  The generator is CPython's
``random.Random`` (Mersenne Twister), whose integer methods are stable across
platforms, so seeded runs reproduce everywhere.  Random entries are drawn
uniformly from the integers ``-9..9``.  The samplers check their input by
the package's two input rules, which every module shares: ``check_shape``
(a shape and a rank) and ``check_pivots`` (an echelon pivot list).
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import accumulate, chain
from math import gcd, lcm
from operator import lshift, mul
from typing import Iterable, Sequence, Union

SOUTHWEST = "southwest"
NORTHEAST = "northeast"

ENTRY_BOUND = 9

Seed = Union[int, random.Random]


def _as_rng(seed: Seed) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def _rand_entry(rng: random.Random) -> int:
    return rng.randint(-ENTRY_BOUND, ENTRY_BOUND)


def _rand_nonzero(rng: random.Random) -> int:
    v = rng.randint(1, ENTRY_BOUND)
    return v if rng.randint(0, 1) else -v


class RationalMatrix:
    """
    Immutable dense matrix over the rationals, stored as integer rows.

    Row ``i`` is kept as ``_irows[i]``, the row times ``_d[i]``, the lcm of
    its entries' denominators; ``(_d, _irows)`` is canonical, so equality
    and hashing compare it directly.  A matrix built from ``int`` entries
    only is stored as given, with every ``d_i = 1``, and no ``Fraction`` is
    made.  ``entries``, the 0-based tuple-of-tuples of normalized
    ``Fraction``s, is computed on access.  Entries must be ``int`` (not
    ``bool``), ``Fraction`` or ``str``; a row must not be a ``str`` or
    bytes-like, whose characters would read as entries.

    Two slots are derived caches, not state, each ``None`` until its one
    writer fills it: ``_tables`` holds the four rank tables that
    ``leaves.leaf_profile`` counts, and ``_leaf`` the stratum that
    ``leaves.classify_leaf`` finds.  Membership reads only the first and
    classification only the second, so the two stay independent.  Equality,
    hashing, ``repr`` and ``to_text`` read neither, and a copy or an
    unpickled matrix is rebuilt from the values, so both start empty.  Each
    write is idempotent (a function of the values), so threads that race to
    fill a slot store equal values.
    """

    __slots__ = ("rows", "cols", "_d", "_irows", "_tables", "_leaf")

    def __init__(self, entries: Iterable[Iterable[object]]) -> None:
        if isinstance(entries, _TEXT):
            raise ValueError(f"matrix entries must be rows of entries, got {entries!r}")
        data = tuple(map(_row, entries))
        if set(map(type, chain.from_iterable(data))) <= {int}:
            d, irows = (1,) * len(data), data
        else:
            nums = [[_number(e) for e in row] for row in data]
            d = tuple(lcm(*(e.denominator for e in row)) for row in nums)
            irows = tuple(tuple(e.numerator * (di // e.denominator) for e in row)
                          for row, di in zip(nums, d))
        if not data or not data[0]:
            raise ValueError("matrix must have at least one row and column")
        if any(len(row) != len(data[0]) for row in data):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", len(data[0]))
        object.__setattr__(self, "_d", d)
        object.__setattr__(self, "_irows", irows)
        object.__setattr__(self, "_tables", None)
        object.__setattr__(self, "_leaf", None)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    def __delattr__(self, name):
        raise AttributeError("RationalMatrix is immutable")

    def __reduce__(self):
        """Copy and pickle by the values, so the copy is canonical and its caches empty."""
        return RationalMatrix, (self._values(),)

    @classmethod
    def zero(cls, m: int, n: int) -> "RationalMatrix":
        return cls([[0] * n for _ in range(m)])

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(a, d) for a in row)
                     for row, d in zip(self._irows, self._d))

    def _values(self) -> tuple[tuple[Union[int, Fraction], ...], ...]:
        """The rows as ``int``s if every ``d_i`` is 1, else as ``entries``."""
        return self.entries if any(d != 1 for d in self._d) else self._irows

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(zip(*self._values()))

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.cols} vs {other.rows}")
        cols = list(zip(*other._values()))
        return RationalMatrix([[sum(map(mul, row, col)) for col in cols]
                               for row in self._values()])

    def scaled(self, row_factors: Sequence[object],
               col_factors: Sequence[object]) -> "RationalMatrix":
        """Scale row ``i`` by ``row_factors[i-1]`` and column ``j`` by ``col_factors[j-1]``."""
        rf = [_number(f) for f in row_factors]
        cf = [_number(f) for f in col_factors]
        if len(rf) != self.rows or len(cf) != self.cols:
            raise ValueError("factor count mismatch")
        if any(f == 0 for f in rf + cf):
            raise ValueError("zero scale factor")
        return RationalMatrix([[r * a * c for a, c in zip(row, cf)]
                               for r, row in zip(rf, self._values())])

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalMatrix) and self._d == other._d
                and self._irows == other._irows)

    def __hash__(self) -> int:
        return hash((self._d, self._irows))

    def __repr__(self) -> str:
        return f"RationalMatrix({[list(map(str, row)) for row in self.entries]})"

    def to_text(self) -> str:
        """Rows of whitespace-separated entries, each ``p/q`` or a plain integer."""
        return "\n".join(" ".join(str(e) for e in row) for row in self.entries)


_TEXT = (str, bytes, bytearray, memoryview)  # text, whose characters would read as entries


def _row(row: Iterable[object]) -> tuple:
    """A matrix row as a tuple; a ``str`` or bytes-like row is refused, not read entry by entry."""
    if isinstance(row, _TEXT):
        raise ValueError(f"a matrix row must be a sequence of entries, got {row!r}")
    return tuple(row)


def _number(e: object) -> Union[int, Fraction]:
    """An entry or scale factor: an ``int`` kept, a ``Fraction`` or ``str`` as a ``Fraction``."""
    if type(e) is int:
        return e
    if not isinstance(e, (int, Fraction, str)) or isinstance(e, bool):
        raise ValueError(f"entry or factor {e!r} is not an integer, a fraction or a string")
    try:
        return Fraction(e)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in matrix entry {exc}") from None


def from_text(text: str) -> RationalMatrix:
    """Parse the whitespace matrix format (one row per line)."""
    if not isinstance(text, str):
        raise ValueError(f"matrix text must be a string, got {text!r}")
    rows = [line.split() for line in text.strip().splitlines() if line.strip()]
    if not rows:
        raise ValueError("empty matrix text")
    return RationalMatrix(rows)


def from_json(payload: Union[str, list]) -> RationalMatrix:
    """Parse a JSON array of rows; ``RationalMatrix`` checks the entries."""
    obj = json.loads(payload) if isinstance(payload, str) else payload
    if not isinstance(obj, list) or not all(isinstance(row, list) for row in obj):
        raise ValueError("expected a JSON array of rows")
    return RationalMatrix(obj)


def load_matrix(text: str) -> RationalMatrix:
    """Sniff between the JSON and whitespace formats."""
    stripped = text.lstrip()
    if stripped.startswith("["):
        return from_json(stripped)
    return from_text(text)


# ---------------------------------------------------------------------------
# Rank and rank profiles


def _bareiss_rank(rows: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination; all divisions below are exact."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    r = 0
    prev = 1
    for c in range(n):
        piv = None
        for i in range(r, m):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        for i in range(r + 1, m):
            f = rows[i][c]
            ri, rr = rows[i], rows[r]
            for j in range(c + 1, n):
                ri[j] = (p * ri[j] - f * rr[j]) // prev
            ri[c] = 0
        prev = p
        r += 1
        if r == m:
            break
    return r


def rank(x: RationalMatrix) -> int:
    """
    Exact rank over the rationals.

    >>> rank(RationalMatrix([[1, 0, 2], [3, 0, 6], [2, 0, 4]]))
    1
    """
    return _bareiss_rank([list(r) for r in x._irows])


def _echelon_insert(basis: list[tuple[int, list[int]]], vec: list[int]) -> bool:
    """
    Reduce ``vec`` against an integer echelon basis (kept sorted by leading
    index) using fraction-free combinations; insert it if independent.
    """
    for lead, bvec in basis:
        c = vec[lead]
        if c:
            p = bvec[lead]
            vec = [p * a - c * b for a, b in zip(vec, bvec)]
    lead = next((i for i, a in enumerate(vec) if a), None)
    if lead is None:
        return False
    g = 0
    for a in vec:
        g = gcd(g, a)
    if vec[lead] < 0:
        g = -g
    vec = [a // g for a in vec]
    pos = 0
    while pos < len(basis) and basis[pos][0] < lead:
        pos += 1
    basis.insert(pos, (lead, vec))
    return True


def _sw_table(irows: Sequence[Sequence[int]], n: int) -> tuple[tuple[int, ...], ...]:
    """
    Insert the rows bottom-up into one echelon basis whose leads are first
    nonzero indices.  Row operations keep the dependencies among columns, so
    once row ``p`` is in, the rank of rows ``p..m`` and columns ``1..q`` is
    the number of leads below ``q``.

    >>> _sw_table([[0, 1], [1, 0]], 2)
    ((0, 1, 2), (0, 1, 1), (0, 0, 0))
    """
    basis: list[tuple[int, list[int]]] = []
    table = [(0,) * (n + 1)]
    for row in reversed(irows):
        _echelon_insert(basis, list(row))
        counts = [0] * (n + 1)
        for lead, _ in basis:
            counts[lead + 1] += 1
        table.append(tuple(accumulate(counts)))
    return tuple(reversed(table))


def _half_turn(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Reverse the row order and each row: the southwest corner turns northeast."""
    return tuple(tuple(row[::-1]) for row in rows[::-1])


def rank_profile(x: RationalMatrix, kind: str) -> tuple[tuple[int, ...], ...]:
    """
    Full corner rank table, ``(rows+1) x (cols+1)``, from one pass of
    fraction-free row insertions.  ``southwest``: ``table[p-1][q]`` is the
    rank of rows ``p..rows`` and columns ``1..q``.  ``northeast``:
    ``table[p][q-1]`` is the rank of rows ``1..p`` and columns ``q..cols``.
    An empty corner gives 0.

    >>> rank_profile(RationalMatrix([[1, 0], [0, 1]]), NORTHEAST)
    ((0, 0, 0), (1, 0, 0), (2, 1, 0))
    """
    if kind == SOUTHWEST:
        return _sw_table(x._irows, x.cols)
    if kind == NORTHEAST:
        return _half_turn(_sw_table(_half_turn(x._irows), x.cols))
    raise ValueError(f"unknown profile kind {kind!r}")


def bruhat_pivots(irows: Sequence[Sequence[int]], kind: str) -> list[tuple[int, int]]:
    """
    Dots of the partial permutation whose Bruhat cell holds the integer
    matrix with rows ``irows``, as 1-based ``(column, row)`` pairs, from one
    fraction-free elimination pass (the rank profile matrix, i.e. the
    generalized Bruhat decomposition).

    ``southwest`` (the (upper, upper) cell): walk the rows bottom-up; the
    leftmost nonzero entry ``p`` of each row ``i`` is a dot, and its column
    is cleared in every row above by one-step Bareiss elimination,
    ``row_k = (p*row_k - f*row_i) // prev`` with ``prev`` the pivot before
    ``p`` (1 at first).  ``northeast`` (the (lower, lower) cell) is the same
    walk on the half-turned rows, its dots ``(c, r)`` turned back to
    ``(n+1-c, m+1-r)``.  Row and column scalings and the triangular row and
    column operations of the cell's side keep a matrix in its cell, and they
    reduce it to the dots alone.

    Each row is held as one ``int``, ``sum(a_j << B*j)``, so one update is
    two multiplications, a subtraction and a division on whole rows.  After
    ``s`` pivots every entry is an ``(s+1)``-minor of the input (Sylvester's
    identity, as in Bareiss 1968), so each division is exact, field by field
    and hence on the packed row.  That holds only if every row above the
    pivot is updated at every step, rows with ``f == 0`` included: a row
    left out would lag a factor ``p / prev`` behind and break the next
    division.  A minor is at most the product of its rows' norms (Hadamard),
    so the width ``B`` (two bits more than half the summed bit lengths of
    the squared row norms) holds every entry as a signed field.  An entry
    is read by adding half a field at each field below it, so the borrows
    of negative fields round away, and half a field at its own to sign it.

    >>> bruhat_pivots([[1, 0, 2], [3, 0, 6], [2, 0, 4]], SOUTHWEST)
    [(1, 3)]
    >>> bruhat_pivots([[1, 0, 2], [3, 0, 6], [2, 0, 4]], NORTHEAST)
    [(3, 1)]
    """
    if kind == NORTHEAST:
        m, n = len(irows), len(irows[0])
        return [(n + 1 - c, m + 1 - r)
                for c, r in bruhat_pivots(_half_turn(irows), SOUTHWEST)]
    if kind != SOUTHWEST:
        raise ValueError(f"unknown profile kind {kind!r}")
    B = (sum([sum(map(mul, row, row)).bit_length() for row in irows]) + 1) // 2 + 2
    shifts = range(0, B * len(irows[0]), B)
    rows = [sum(map(lshift, row, shifts)) for row in irows]
    half, mask = 1 << (B - 1), (1 << B) - 1
    pairs = []
    prev = 1
    for i in range(len(rows) - 1, -1, -1):
        R = rows[i]
        if not R:
            continue
        s = (R & -R).bit_length() - 1
        s -= s % B  # the first bit of the leftmost nonzero field
        pairs.append((s // B + 1, i + 1))
        off = (half << s) + ((1 << s) >> 1)
        p = (((R + off) >> s) & mask) - half
        for k in range(i):
            Rk = rows[k]
            rows[k] = (p * Rk - ((((Rk + off) >> s) & mask) - half) * R) // prev
        prev = p
    return pairs


def _interval_ranks(vecs: Sequence[Sequence[int]]) -> list[list[int]]:
    """
    ``out[p][q]`` = rank of ``vecs[p-1..q-1]`` for ``1 <= p <= q``, else 0,
    from one pass over a newest-wins basis.  Each basis vector is keyed by
    its lead (first nonzero index) and stamped with the index of the vector
    it came from.  A vector meeting an older stamp at its lead takes that
    slot, and the older vector is reduced further instead.  So once vector
    ``q`` is in, the vectors stamped ``p`` or later span vectors ``p..q``.

    >>> _interval_ranks([[1, 0, 0], [1, 1, 0], [0, 1, 0]])
    [[0, 0, 0, 0], [0, 1, 2, 2], [0, 0, 1, 2], [0, 0, 0, 1]]
    """
    k = len(vecs)
    out = [[0] * (k + 1) for _ in range(k + 1)]
    slots: dict[int, tuple[int, list[int]]] = {}
    for q, vec in enumerate(vecs, 1):
        stamp, vec = q, list(vec)
        lead = next((i for i, a in enumerate(vec) if a), None)
        while lead is not None:
            if lead not in slots:
                slots[lead] = (stamp, vec)
                break
            older, bvec = slots[lead]
            if older < stamp:
                slots[lead] = (stamp, vec)
                stamp, vec, bvec = older, bvec, vec
            piv, c = bvec[lead], vec[lead]
            vec = [piv * a - c * b for a, b in zip(vec, bvec)]
            g = gcd(*vec)
            if g > 1:
                vec = [a // g for a in vec]
            lead = next((i for i, a in enumerate(vec) if a), None)
        stamps = [0] * (q + 1)
        for s, _ in slots.values():
            stamps[s] += 1
        r = 0
        for p in range(q, 0, -1):
            r += stamps[p]
            out[p][q] = r
    return out


def interval_column_ranks(x: RationalMatrix) -> list[list[int]]:
    """``out[p][q]`` = rank of columns ``p..q`` (full row range), 1-based."""
    return _interval_ranks(list(zip(*x._irows)))


def interval_row_ranks(x: RationalMatrix) -> list[list[int]]:
    """
    ``out[p][q]`` = rank of rows ``p..q`` (full column range), 1-based.

    >>> interval_row_ranks(RationalMatrix([[1, 0], [1, 0], [0, 1]]))
    [[0, 0, 0, 0], [0, 1, 1, 2], [0, 0, 1, 2], [0, 0, 0, 1]]
    """
    return _interval_ranks(x._irows)


# ---------------------------------------------------------------------------
# Seeded sampling


def check_shape(m: int, n: int, t: int = 0) -> None:
    """Reject ``m``, ``n`` and ``t`` unless they are ints (not ``bool``), ``m, n >= 1``
    and ``0 <= t <= min(m, n)``; the default ``t = 0`` fits every shape."""
    if type(m) is not int or type(n) is not int or type(t) is not int:
        raise ValueError(f"m, n and t must be integers, got {m!r}, {n!r} and {t!r}")
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    if not 0 <= t <= min(m, n):
        raise ValueError(f"t={t} out of range for m={m}, n={n}")


def check_pivots(pivots: Sequence[int], long_dim: int, t: int) -> None:
    """Reject ``pivots`` unless it lists ``t`` ints (not ``bool``), each in
    ``1..long_dim`` and larger than the one before."""
    if len(pivots) != t:
        raise ValueError(f"need {t} pivots, got {len(pivots)}")
    if any(type(p) is not int or not 1 <= p <= long_dim for p in pivots):
        raise ValueError(f"pivots {pivots} must be integers in 1..{long_dim}")
    if any(a >= b for a, b in zip(pivots, pivots[1:])):
        raise ValueError(f"pivots {pivots} not strictly increasing")


def sample_rank(m: int, n: int, t: int, seed: Seed) -> RationalMatrix:
    """
    A matrix of rank exactly ``t``: the product of full-rank ``m x t`` and
    ``t x n`` integer factors (factors are resampled until full rank).
    """
    check_shape(m, n, t)
    rng = _as_rng(seed)
    if t == 0:
        return RationalMatrix.zero(m, n)

    def full_rank_factor(a: int, b: int) -> RationalMatrix:
        while True:
            f = RationalMatrix([[_rand_entry(rng) for _ in range(b)] for _ in range(a)])
            if rank(f) == min(a, b):
                return f

    return full_rank_factor(m, t) @ full_rank_factor(t, n)


def sample_echelon_col(m: int, t: int, pivots: Sequence[int], seed: Seed,
                       zero_prob: float = 0.0) -> RationalMatrix:
    """
    Column-echelon sample in ``m x t``: column ``j`` is zero above its pivot
    row ``pivots[j-1]``, nonzero there, free below (``zero_prob`` biases the
    free entries toward 0).
    """
    pivots = tuple(pivots)
    check_shape(m, t, t)
    check_pivots(pivots, m, t)
    rng = _as_rng(seed)
    rows = [[0] * t for _ in range(m)]
    for j, pr in enumerate(pivots):
        rows[pr - 1][j] = _rand_nonzero(rng)
        for i in range(pr, m):
            rows[i][j] = 0 if rng.random() < zero_prob else _rand_entry(rng)
    return RationalMatrix(rows)


def sample_echelon_row(t: int, n: int, pivots: Sequence[int], seed: Seed,
                       zero_prob: float = 0.0) -> RationalMatrix:
    """
    Row-echelon sample in ``t x n``, row ``i`` starting at its pivot column:
    the transpose of the column-echelon sample, with the same draws.
    """
    return sample_echelon_col(n, t, pivots, seed, zero_prob).transpose()
