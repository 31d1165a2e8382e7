"""Quadruple indexing of the rank-``t`` strata.

A stratum of rank ``t`` is equivalently indexed by a quadruple
``(y, v, z, u)`` of minimal coset representatives in S_m and S_n with
``z <= y`` and ``v <= u``: the stratum's two rectangular Bruhat classes
factor as ``y . I_t . v^{-1}`` (upper side) and ``z . I_t . u^{-1}`` (lower
side).  This module enumerates the quadruples, converts between them and
permutation indices via an explicit block construction, and provides the
underlying unique factorizations of partial permutations.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .exact_matrix import check_shape
from .leaves import LeafIndex
from .permutations import (Perm, PartialPerm, bruhat_leq, check_perm,
                           extend_ascending, int_field, int_list_field,
                           is_min_rep_first, is_min_rep_last, min_reps_first,
                           min_reps_last)


@dataclass(frozen=True)
class SigmaTuple:
    """
    ``(y, v, z, u, t)`` with ``y`` in S_m ascending after position ``t``,
    ``v`` in S_n ascending on positions ``1..t``, ``z`` in S_m ascending on
    ``1..t``, ``u`` in S_n ascending after ``t``, and ``z <= y``, ``v <= u``
    in the Bruhat order.
    """

    y: Perm
    v: Perm
    z: Perm
    u: Perm
    t: int

    def __post_init__(self) -> None:
        y, v, z, u = map(check_perm, (self.y, self.v, self.z, self.u))
        for name, value in zip("yvzu", (y, v, z, u)):
            object.__setattr__(self, name, value)
        m, n, t = len(y), len(v), self.t
        if isinstance(t, bool):
            raise ValueError(f"t must be an integer, got {t!r}")
        check_shape(m, n, t)
        if len(z) != m or len(u) != n:
            raise ValueError("component sizes disagree")
        if not is_min_rep_last(y, m - t):
            raise ValueError(f"y={y} is not ascending after position {t}")
        if not is_min_rep_first(v, t):
            raise ValueError(f"v={v} is not ascending on positions 1..{t}")
        if not is_min_rep_first(z, t):
            raise ValueError(f"z={z} is not ascending on positions 1..{t}")
        if not is_min_rep_last(u, n - t):
            raise ValueError(f"u={u} is not ascending after position {t}")
        if not bruhat_leq(z, y):
            raise ValueError(f"z={z} is not Bruhat-below y={y}")
        if not bruhat_leq(v, u):
            raise ValueError(f"v={v} is not Bruhat-below u={u}")

    @classmethod
    def _trusted(cls, y: Perm, v: Perm, z: Perm, u: Perm, t: int) -> "SigmaTuple":
        """
        The quadruple ``(y, v, z, u, t)``, unchecked: for a producer whose
        construction already gives tuple permutations, the minimal
        representatives and ``z <= y``, ``v <= u``, each with a registered
        check that covers it:

        - ``enumerate_sigma`` and ``phi_inv``: ``phi_roundtrip`` rebuilds
          every enumerated quadruple through the validating constructor and
          compares it with ``phi_inv(phi_to_leaf(...))``; with
          ``sigma_count`` that reaches every stratum (see the check);
        - ``double_bruhat.decompose``: ``orbit_partition`` rebuilds every
          quadruple of every nonempty cell through the validating
          constructor;
        - ``double_bruhat.dense_orbit``: ``dense_orbit`` compares it with
          the first quadruple of ``decompose``.

        An invalid quadruple fails its check or raises ``ValueError``.
        The five writes are spelled out: a loop over the fields cost half as
        much again, and one update of ``sig.__dict__``, though faster, makes
        the instance keep a dict of its own, twice the memory of a held
        quadruple and slower attribute reads.
        """
        sig = object.__new__(cls)
        put = object.__setattr__
        put(sig, "y", y)
        put(sig, "v", v)
        put(sig, "z", z)
        put(sig, "u", u)
        put(sig, "t", t)
        return sig

    @property
    def m(self) -> int:
        return len(self.y)

    @property
    def n(self) -> int:
        return len(self.v)

    def to_dict(self) -> dict:
        return {"y": list(self.y), "v": list(self.v), "z": list(self.z),
                "u": list(self.u), "t": self.t}

    @classmethod
    def from_dict(cls, d: dict) -> "SigmaTuple":
        if not isinstance(d, dict) or not {"y", "v", "z", "u", "t"} <= d.keys():
            raise ValueError(f"a quadruple needs the keys y, v, z, u and t, got {d}")
        return cls(*(int_list_field(d, key) for key in "yvzu"), int_field(d, "t"))


def enumerate_sigma(m: int, n: int, t: int) -> list[SigmaTuple]:
    """
    All valid quadruples for rank ``t``, ordered lexicographically by
    ``(y, v, z, u)``.  They are built unchecked (``SigmaTuple._trusted``):
    ``y``, ``z``, ``v`` and ``u`` come from the minimal-representative
    generators, each in lexicographic order, and are kept only in pairs with
    ``z <= y`` and ``v <= u``.  The campaign ``phi_bijection`` runs the
    registered check ``phi_roundtrip`` on every one of them, which rebuilds
    it through the validating constructor and so raises on an invalid
    quadruple.
    """
    check_shape(m, n, t)
    zs, us = tuple(min_reps_first(m, t)), tuple(min_reps_last(n, n - t))
    below = [(y, [z for z in zs if bruhat_leq(z, y)]) for y in min_reps_last(m, m - t)]
    above = [(v, [u for u in us if bruhat_leq(v, u)]) for v in min_reps_first(n, t)]
    trusted = SigmaTuple._trusted
    return [trusted(y, v, z, u, t) for y, zs_of_y in below for v, us_of_v in above
            for z in zs_of_y for u in us_of_v]


def phi(sig: SigmaTuple) -> Perm:
    """
    The block permutation attached to a quadruple: columns ``1..n`` map
    through ``w_o^m y I_t v^{-1}`` into the top rows or through
    ``u J_t v^{-1}`` into the bottom rows, columns ``n+1..n+m`` through
    ``w_o^m y J_t z^{-1} w_o^m`` or ``u I_t z^{-1} w_o^m``.  The result obeys
    ``-n <= phi(i) - i <= m`` with exactly ``t`` of the first ``n`` columns
    landing in the top rows.  It is returned unchecked: ``phi_to_leaf``
    validates it through ``LeafIndex.from_w``.

    Position ``j`` of ``v`` and of ``z`` names a column (``v(j)``, and
    ``n+m+1-z(j)`` after the reflection), so each image is written straight
    to its column in one pass, without inverting ``v`` or ``z``.
    """
    m, n, t = sig.m, sig.n, sig.t
    y, v, z, u = sig.y, sig.v, sig.z, sig.u
    images = [0] * (n + m)
    for j in range(t):
        images[v[j] - 1] = m + 1 - y[j]
        images[n + m - z[j]] = m + u[j]
    for j in range(t, n):
        images[v[j] - 1] = m + u[j]
    for j in range(t, m):
        images[n + m - z[j]] = m + 1 - y[j]
    return tuple(images)


def phi_to_leaf(sig: SigmaTuple) -> LeafIndex:
    """The stratum index of a quadruple: the longest element times ``phi``."""
    N = sig.m + sig.n
    return LeafIndex.from_w(tuple(N + 1 - x for x in phi(sig)), sig.m, sig.n)


def phi_inv(L: LeafIndex) -> SigmaTuple:
    """
    The unique quadruple mapping to ``L``, read off the blocks of the
    reflected permutation ``c -> m+n+1 - w(c)``, whose top rows are the
    images ``w(c) > n``: ``y`` from the top-left block along its domain in
    ascending order, ``u`` from the bottom-right block along its domain in
    descending order, then ``v`` and ``z`` extended through the
    off-diagonal blocks, inverted by ``col_of``.  The result is built
    unchecked (``SigmaTuple._trusted``): ``y`` and ``u`` ascend after their
    heads, the heads of ``v`` and ``z`` ascend because they are read in
    column order, and ``z <= y``, ``v <= u`` hold because ``w`` lies in the
    window.  The check ``phi_roundtrip`` compares it, on every stratum of a
    shape, with a quadruple built by the validating constructor.
    """
    m, n, w = L.m, L.n, L.w
    N = m + n
    col_of = [0] * (N + 1)  # image of the reflected permutation -> column
    for c, x in enumerate(w, 1):
        col_of[N + 1 - x] = c
    top = [x - n for x in w[:n] if x > n]
    t = len(top)  # L.t
    y = extend_ascending(m, top)
    u = extend_ascending(n, [n + 1 - x for x in reversed(w[n:]) if x <= n])
    v = (tuple([c for c, x in enumerate(w[:n], 1) if x > n])
         + tuple([col_of[m + r] for r in u[t:]]))
    z = (tuple([c for c, x in enumerate(reversed(w[n:]), 1) if x <= n])
         + tuple([N + 1 - col_of[m + 1 - r] for r in y[t:]]))
    return SigmaTuple._trusted(y, v, z, u, t)


@lru_cache(maxsize=None)  # double cells read their labels' factors here: 1,546 labels at 5x5
def decompose_partial(w: PartialPerm, form: str) -> tuple[Perm, Perm]:
    """
    Unique two-sided factorization of a rank-``t`` partial permutation as
    ``first . I_t . second^{-1}``:

    - ``form="yv"``: ``y`` ascending after position ``t``, ``v`` ascending on
      both ``1..t`` and ``t+1..n``;
    - ``form="zu"``: ``z`` ascending on both ranges, ``u`` ascending after
      position ``t``.

    Both list the dots of ``w``, by column for ``yv`` and by row for ``zu``:
    ``first`` extends their rows and ``second`` their columns, each by the
    unused values in ascending order.  That they recompose to ``w`` is the
    harness check ``criteria_agreement``.  Each result is kept, by label and form.
    """
    if form not in ("yv", "zu"):
        raise ValueError(f"form must be 'yv' or 'zu', got {form!r}")
    dots = w.pairs() if form == "yv" else sorted(w.pairs(), key=lambda cr: cr[1])
    return (extend_ascending(w.rows, [r for _, r in dots]),
            extend_ascending(w.cols, [c for c, _ in dots]))
