"""Seeded cross-validation campaigns over the whole library.

Each campaign ties one family of characterizations to the others on seeded
random input and/or exhaustive small enumerations, and returns a
machine-readable report.

One table, ``CHECKS``, maps each check name to a ``check_*`` function, looked
up by name at call time, and a payload codec.  ``VerificationReport.check``
runs every check through it and encodes a payload only on failure; ``replay``
decodes one and re-executes exactly the failed check on exactly the failed
input.  A check against a sample of strata records the sampled indices
(``"leaves"``); above ``_EXHAUSTIVE_LIMIT`` strata the sample is drawn from
``leaves.leaf_view``, so neither a campaign nor its replay lists the shape.
A second table, ``_CAMPAIGNS``, maps each campaign to its body: ``run``
splits a campaign into jobs, fills one report per job in one worker
(through a process pool if there are several), and adds them up.

Determinism: a sampling campaign is one job per fixed-size stream, and all
randomness of stream ``k`` flows from ``random.Random(derive_seed(seed, k))``,
so reports are bit-identical for a given ``(campaign, m, n, samples, seed)``
regardless of the worker count.  Sample budgets rotate across ranks
``0..min(m, n)`` so degenerate strata are exercised, with random
row/column/entry zeroing layered on top.
"""
from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Iterator, NamedTuple, Optional

from . import cells
from .double_bruhat import (DoubleCellIndex, classify_double, decompose,
                            dense_orbit, is_nonempty, nonempty_by_completion)
from .echelon import (COLUMN, ROW, EchelonPattern, all_patterns,
                      column_stratum_sigma, in_pattern, parse_pattern,
                      sample_column_stratum, sample_row_stratum,
                      stratify_pattern)
from .exact_matrix import (RationalMatrix, check_shape, from_text, sample_echelon_col,
                           sample_echelon_row, sample_rank, _rand_nonzero)
from .leaves import (LeafIndex, _walk, all_leaves, cell_labels, classify_leaf, in_leaf,
                     leaf_view, window_ok)
from .permutations import (PartialPerm, all_perms, block_longest, bruhat_leq,
                           count_partial_perms, identity, int_field,
                           int_list_field, parse_partial, partial_perms,
                           subset_leq)
from .sigma import SigmaTuple, enumerate_sigma, phi, phi_inv, phi_to_leaf

SCHEMA = "leaf-atlas/v1"     # the tag of every JSON document the package writes
_STREAM_CHUNK = 250          # fixed stream granularity, independent of workers
_EXHAUSTIVE_LIMIT = 300      # exhaustive index sweeps only below this many strata
_OTHERS_PER_SAMPLE = 12      # spot-checked wrong indices above the limit


def derive_seed(seed: int, stream: int) -> int:
    return seed * 1_000_003 + stream


def resolve_threads(threads: Optional[int]) -> int:
    """The worker count: ``threads``, or all cores if it is ``None``."""
    if threads is None:
        return os.cpu_count() or 1
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    return threads


@dataclass
class VerificationReport:
    """Outcome of a campaign, or of one job."""

    campaign: str = ""
    params: dict = field(default_factory=dict)
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    counterexamples: list = field(default_factory=list)
    wall_time: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return self.passed + self.failed + self.skipped

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_dict(self) -> dict:
        return {"schema": SCHEMA, "campaign": self.campaign,
                "params": self.params, "attempted": self.attempted,
                "passed": self.passed, "failed": self.failed,
                "skipped": self.skipped, "counterexamples": self.counterexamples,
                "wall_time": self.wall_time, "info": self.info}

    def check(self, name: str, *args) -> None:
        """Run the registered check ``name``; encode its payload only if it fails."""
        if _call(name, args):
            self.passed += 1
        else:
            self.failed += 1
            self.counterexamples.append({"check": name, **CHECKS[name].encode(*args)})

    def skip(self, note: dict) -> None:
        self.skipped += 1
        self.info.setdefault("skips", []).append(note)

    def bump(self, key: str, amount: int = 1) -> None:
        self.info[key] = self.info.get(key, 0) + amount

    def add(self, part: "VerificationReport") -> None:
        """Add the counts, counterexamples and ``info`` of ``part``: ints add, lists extend."""
        self.passed += part.passed
        self.failed += part.failed
        self.skipped += part.skipped
        self.counterexamples.extend(part.counterexamples)
        for key, value in part.info.items():
            self.info[key] = self.info.get(key, type(value)()) + value


@lru_cache(maxsize=1)  # the checks of one rank share an enumeration; keep one rank
def _sigmas(m: int, n: int, t: int) -> tuple[SigmaTuple, ...]:
    return tuple(enumerate_sigma(m, n, t))


@lru_cache(maxsize=None)
def _leaves_by_rank(m: int, n: int) -> tuple[tuple[LeafIndex, ...], ...]:
    """
    ``all_leaves(m, n)`` split by rank ``t = 0..min(m, n)``, in one scan: each
    rank is the one a walk carries, which comes in the order of ``all_leaves``.
    """
    by_rank: list[list[LeafIndex]] = [[] for _ in range(min(m, n) + 1)]
    for L, (_, t, _) in zip(all_leaves(m, n), _walk(m, n)):
        by_rank[t].append(L)
    return tuple(map(tuple, by_rank))


def _double_cells(m: int, n: int) -> Iterator[DoubleCellIndex]:
    """Every equal-rank double cell of ``m x n``, rank by rank, each made as it is reached."""
    for t in range(min(m, n) + 1):
        pps = list(partial_perms(m, n, t))
        yield from (DoubleCellIndex(w1, w2) for w1 in pps for w2 in pps)


# ---------------------------------------------------------------------------
# Individual checks (run by campaigns and replay through ``CHECKS``)


def check_unique_membership(x: RationalMatrix, leaf_list) -> bool:
    """Exactly one stratum accepts ``x`` under the rank conditions."""
    return sum(1 for L in leaf_list if in_leaf(x, L, "cell")) == 1


def check_classify_equiv(x: RationalMatrix, leaf_list) -> bool:
    """Rank-condition membership agrees with classification on every index."""
    w0 = classify_leaf(x).w  # in_leaf has checked the shape of each L
    return all(in_leaf(x, L, "cell") == (L.w == w0) for L in leaf_list)


def check_closure_order(x: RationalMatrix, leaf_list) -> bool:
    """Closure membership agrees with the Bruhat comparison against the class of ``x``."""
    L0 = classify_leaf(x)
    return all(in_leaf(x, L, "closure") == bruhat_leq(L0.w, L.w)
               for L in leaf_list)


def _recompose(first, second, m: int, n: int, t: int) -> PartialPerm:
    """
    The ``m x n`` partial permutation ``first . I_t . second^{-1}``: column
    ``second(j)`` maps to row ``first(j)`` for ``j <= t``.
    """
    return PartialPerm.from_pairs(m, n, zip(second[:t], first[:t]))


def check_block_classes(x: RationalMatrix) -> bool:
    """
    The two rectangular cell labels of ``x`` equal both the cell labels of
    its stratum index (``cell_labels``) and the quadruple factorizations.
    """
    L = classify_leaf(x)
    sig = phi_inv(L)
    m, n, t = L.m, L.n, L.t
    up_target = _recompose(sig.y, sig.v, m, n, t)
    lo_target = _recompose(sig.z, sig.u, m, n, t)
    upper, lower = cell_labels(L)
    return (cells.classify(x, cells.B_PLUS) == up_target == upper
            and cells.classify(x, cells.B_MINUS) == lo_target == lower)


def check_sigma_in_double_cell(x: RationalMatrix) -> bool:
    """The quadruple of ``x``'s stratum appears in its double cell's decomposition."""
    d = classify_double(x)
    return is_nonempty(d) and phi_inv(classify_leaf(x)) in decompose(d)


def check_criteria_agreement(d: DoubleCellIndex) -> bool:
    """
    The three nonemptiness criteria agree, and both labels recompose from
    the cell's factors (``d.factors``, the factorization that ``is_nonempty``,
    ``decompose`` and ``dense_orbit`` read).
    """
    by_sets = (d.w1.rank() == d.w2.rank()
               and subset_leq(d.w1.dom(), d.w2.dom())
               and subset_leq(d.w2.rng(), d.w1.rng()))
    y, v0, z0, u = d.factors
    return (is_nonempty(d) == by_sets == nonempty_by_completion(d)
            and _recompose(y, v0, *d.shape, d.w1.rank()) == d.w1
            and _recompose(z0, u, *d.shape, d.w2.rank()) == d.w2)


def check_dense_orbit(d: DoubleCellIndex) -> bool:
    """
    The base quadruple leads the decomposition and dominates it in closure
    order.  ``dense_orbit`` builds unchecked; it equals the first quadruple
    of ``decompose``, which ``orbit_partition`` validates.
    """
    dec = decompose(d)
    dense = dense_orbit(d)
    top = phi_to_leaf(dense)
    return dense == dec[0] and all(bruhat_leq(phi_to_leaf(s).w, top.w) for s in dec)


def check_echelon_member(a: RationalMatrix, pat: EchelonPattern) -> bool:
    """
    A pattern member classifies into one of the pattern's strata: membership
    transposes correctly, the quadruple degenerates to a pinned pair, and the
    opposite-side class has the pattern's pivots.  The orientation only picks
    the roles: for a column pattern ``v`` and ``u`` are identities, ``z`` is
    pinned, ``(y, z)`` is a stratum of the pattern and the ``B-`` class holds
    the pivots; for a row pattern ``y`` and ``z`` are identities, ``v`` is
    pinned, ``(u, v)`` is a stratum and the ``B+`` class holds the pivots.
    """
    if not in_pattern(a, pat) or not in_pattern(a.transpose(), pat.transposed()):
        return False
    sig = phi_inv(classify_leaf(a))
    dots = tuple(enumerate(pat.pivots, 1))  # (line, pivot) of each line
    if pat.kind == COLUMN:
        ones, pinned, pair, side = (sig.v, sig.u), sig.z, (sig.y, sig.z), cells.B_MINUS
    else:
        ones, pinned, pair, side = (sig.y, sig.z), sig.v, (sig.u, sig.v), cells.B_PLUS
        dots = tuple((p, i) for i, p in dots)
    idt = identity(pat.t)
    if any(e != idt for e in ones) or tuple(pinned[:pat.t]) != pat.pivots:
        return False
    if pair not in stratify_pattern(pat):
        return False
    return cells.classify(a, side) == PartialPerm.from_pairs(pat.rows, pat.cols, dots)


def check_echelon_stratum(a: RationalMatrix, m: int, t: int, y, z) -> bool:
    """
    A targeted stratum sample lies in exactly its stratum by the rank
    conditions and by classification.  A rejection hit's class is the one
    the sampler found, kept on the matrix and read back here, so ``in_leaf``
    is the independent half; a replayed or rescaled matrix is classified
    afresh.
    """
    target = phi_to_leaf(column_stratum_sigma(m, t, tuple(y), tuple(z)))
    return in_leaf(a, target, "cell") and classify_leaf(a) == target


def check_product(c: RationalMatrix, r: RationalMatrix, sig: SigmaTuple) -> bool:
    """A product of matching echelon factors lands in the quadruple's stratum."""
    return classify_leaf(c @ r) == phi_to_leaf(sig)


def check_torus_stability(a: RationalMatrix, pat: EchelonPattern,
                          row_factors, col_factors) -> bool:
    """Row/column scaling by nonzero rationals moves nothing."""
    b = a.scaled(row_factors, col_factors)
    return (in_pattern(a, pat) == in_pattern(b, pat)
            and classify_leaf(a) == classify_leaf(b))


def check_zero_product(sig: SigmaTuple) -> bool:
    """The zero matrix lands in the stratum of the rank-0 quadruple."""
    return classify_leaf(RationalMatrix.zero(sig.m, sig.n)) == phi_to_leaf(sig)


def check_window_vs_bruhat(m: int, n: int) -> bool:
    """
    The displacement window and the Bruhat test cut out the same index set,
    and both the enumerator and the indexed view (``leaf_view``, read index
    by index) give exactly that set, in the scan's order.  Both build their
    indices unchecked, so this covers their output.
    """
    base = block_longest(n, m)
    inside = []
    for w in all_perms(m + n):
        ok = window_ok(w, m, n)
        if ok != bruhat_leq(base, w):
            return False
        if ok:
            inside.append(w)
    view = leaf_view(m, n)
    return ([L.w for L in all_leaves(m, n)] == inside and len(view) == len(inside)
            and all(view[k].w == w for k, w in enumerate(inside)))


def check_sigma_count(m: int, n: int, t: int) -> bool:
    return len(_sigmas(m, n, t)) == len(_leaves_by_rank(m, n)[t])


def check_phi_injective(m: int, n: int, t: int) -> bool:
    sigs = _sigmas(m, n, t)
    return len({phi(s) for s in sigs}) == len(sigs)


def check_pp_count(m: int, n: int, t: int) -> bool:
    return (sum(1 for _ in partial_perms(m, n, t)) == count_partial_perms(m, n, t))


def _validated(sig: SigmaTuple) -> SigmaTuple:
    """``sig`` rebuilt through the validating constructor, which raises ``ValueError`` if invalid."""
    return SigmaTuple(sig.y, sig.v, sig.z, sig.u, sig.t)


def check_phi_roundtrip(sig: SigmaTuple) -> bool:
    """
    ``phi_inv(phi_to_leaf(sig))`` equals ``sig`` rebuilt through the
    validating constructor.  Both ``enumerate_sigma`` and ``phi_inv`` build
    unchecked, and this is the one validated side that covers them.  The
    campaign ``phi_bijection`` runs it on every enumerated quadruple of rank
    ``t``, so if it passes there and ``sigma_count`` and ``phi_injective``
    do too, then:

    - every enumerated quadruple is valid, or the constructor raises;
    - ``phi_to_leaf`` is injective on them, since ``phi_inv`` undoes it, and
      keeps their rank, since ``phi_inv`` reads the rank off the index;
    - they are distinct (``phi_injective``) and as many as the rank-``t``
      strata (``sigma_count``), so ``phi_to_leaf`` maps them onto every one;
    - hence on every stratum ``L`` of the shape, ``phi_inv(L)`` equals a
      validated quadruple: its output is valid without a check of its own.
    """
    return phi_inv(phi_to_leaf(sig)) == _validated(sig)


def check_leaf_roundtrip(L: LeafIndex) -> bool:
    return phi_to_leaf(phi_inv(L)) == L


def check_phi_lock(m: int, n: int) -> bool:
    """The pinned example: the quadruple of the index (6,2,3,5,4,1) in S_6."""
    if (m, n) != (3, 3):
        return True
    sig = phi_inv(LeafIndex.from_w((6, 2, 3, 5, 4, 1), 3, 3))
    return sig == SigmaTuple((3, 1, 2), (1, 3, 2), (1, 2, 3), (3, 1, 2), 1)


def check_orbit_partition(m: int, n: int) -> bool:
    """
    The decompositions of the nonempty double cells list every stratum
    exactly once.  ``decompose`` builds its quadruples unchecked; each is
    rebuilt here through the validating constructor, which raises
    ``ValueError`` on an invalid one, so this covers its output.
    """
    hit = [phi_to_leaf(_validated(s)).w
           for d in _double_cells(m, n) if is_nonempty(d) for s in decompose(d)]
    return sorted(hit) == sorted(L.w for L in all_leaves(m, n))


# ---------------------------------------------------------------------------
# The table of checks, and replay


class Check(NamedTuple):
    """A registered check: the name of its ``check_*`` function and its payload codec."""

    fn: str
    encode: Callable[..., dict]        # check arguments -> payload fields
    decode: Callable[[dict], tuple]    # payload -> check arguments


def _encode_strata(x: RationalMatrix, leaf_list) -> dict:
    """The matrix, and the strata too if they are fewer than the shape has (a sample)."""
    out = {"m": x.rows, "n": x.cols, "matrix": x.to_text()}
    if len(leaf_list) < len(leaf_view(x.rows, x.cols)):
        out["leaves"] = [list(L.w) for L in leaf_list]
    return out


def _decode_strata(p: dict) -> tuple:
    """
    The matrix and the strata it was checked against: those under
    ``"leaves"``, or else all strata of the shape, which no campaign checks
    above ``_EXHAUSTIVE_LIMIT``, so a larger shape raises before any is listed.
    """
    m, n = int_field(p, "m"), int_field(p, "n")
    x = from_text(p["matrix"])
    _require_shape("matrix", x, m, n)  # before the shape's strata are counted
    if "leaves" not in p:
        count = len(leaf_view(m, n))
        if count > _EXHAUSTIVE_LIMIT:
            raise ValueError(f"a {m}x{n} payload must list its strata under 'leaves': "
                             f"no check runs on all {count}")
        return x, all_leaves(m, n)
    if not isinstance(p["leaves"], list):
        raise ValueError(f"leaves must be a list, got {p['leaves']!r}")
    return x, [LeafIndex.from_dict({"w": w, "m": m, "n": n}) for w in p["leaves"]]


def _factors(p: dict, key: str) -> list[int]:
    """``p[key]``: integers, each an ``int`` or a string (not a ``bool`` or ``float``)."""
    if not isinstance(p[key], list) or any(type(f) not in (int, str) for f in p[key]):
        raise ValueError(f"{key} must be a list of integers, got {p[key]!r}")
    return [int(f) for f in p[key]]


def _decode_shape(p: dict) -> tuple[int, int]:
    m, n = int_field(p, "m"), int_field(p, "n")
    check_shape(m, n)
    return m, n


def _decode_rank(p: dict) -> tuple[int, int, int]:
    m, n, t = int_field(p, "m"), int_field(p, "n"), int_field(p, "t")
    check_shape(m, n, t)
    return m, n, t


def _require_shape(name: str, a: RationalMatrix, rows: int, cols: int) -> None:
    if (a.rows, a.cols) != (rows, cols):
        raise ValueError(f"{name} must be {rows}x{cols}, got {a.rows}x{a.cols}")


def _decode_echelon_stratum(p: dict) -> tuple:
    """A column stratum sample: an ``m x t`` matrix (so ``n == t``), ``y`` and ``z`` in S_m."""
    m, _, t = _decode_rank(p)
    a, y, z = from_text(p["matrix"]), int_list_field(p, "y"), int_list_field(p, "z")
    _require_shape("matrix", a, m, t)
    return a, m, t, y, z


def _decode_product(p: dict) -> tuple:
    """Factors ``c`` (``m x t``) and ``r`` (``t x n``) of the quadruple's shape."""
    sig = SigmaTuple.from_dict(p["sigma"])
    c, r = from_text(p["c"]), from_text(p["r"])
    _require_shape("c", c, sig.m, sig.t)
    _require_shape("r", r, sig.t, sig.n)
    return c, r, sig


_STRATA = (_encode_strata, _decode_strata)
_MATRIX = (lambda x: {"m": x.rows, "n": x.cols, "matrix": x.to_text()},
           lambda p: (from_text(p["matrix"]),))
_DOUBLE = (lambda d: {"m": d.shape[0], "n": d.shape[1],
                      "w1": d.w1.literal(), "w2": d.w2.literal()},
           lambda p: (DoubleCellIndex(parse_partial(p["w1"]), parse_partial(p["w2"])),))
_SIGMA = (lambda s: {"m": s.m, "n": s.n, "sigma": s.to_dict()},
          lambda p: (SigmaTuple.from_dict(p["sigma"]),))
_SHAPE = (lambda m, n: {"m": m, "n": n}, _decode_shape)
_RANK = (lambda m, n, t: {"m": m, "n": n, "t": t}, _decode_rank)

CHECKS: dict[str, Check] = {
    "unique_membership": Check("check_unique_membership", *_STRATA),
    "classify_equiv": Check("check_classify_equiv", *_STRATA),
    "closure_order": Check("check_closure_order", *_STRATA),
    "block_classes": Check("check_block_classes", *_MATRIX),
    "sigma_in_double_cell": Check("check_sigma_in_double_cell", *_MATRIX),
    "criteria_agreement": Check("check_criteria_agreement", *_DOUBLE),
    "dense_orbit": Check("check_dense_orbit", *_DOUBLE),
    "orbit_partition": Check("check_orbit_partition", *_SHAPE),
    "echelon_member": Check(
        "check_echelon_member",
        lambda a, pat: {"m": pat.rows, "n": pat.cols, "matrix": a.to_text(),
                        "pattern": pat.literal()},
        lambda p: (from_text(p["matrix"]), parse_pattern(p["pattern"]))),
    "torus_stability": Check(
        "check_torus_stability",
        lambda a, pat, rf, cf: {"m": pat.rows, "n": pat.cols, "matrix": a.to_text(),
                                "pattern": pat.literal(),
                                "row_factors": [str(f) for f in rf],
                                "col_factors": [str(f) for f in cf]},
        lambda p: (from_text(p["matrix"]), parse_pattern(p["pattern"]),
                   _factors(p, "row_factors"), _factors(p, "col_factors"))),
    "echelon_stratum": Check(
        "check_echelon_stratum",
        lambda a, m, t, y, z: {"m": m, "n": t, "t": t, "y": list(y), "z": list(z),
                               "matrix": a.to_text()},
        _decode_echelon_stratum),
    "echelon_product": Check(
        "check_product",
        lambda c, r, sig: {"m": sig.m, "n": sig.n, "c": c.to_text(), "r": r.to_text(),
                           "sigma": sig.to_dict()},
        _decode_product),
    "zero_product": Check("check_zero_product", *_SIGMA),
    "window_vs_bruhat": Check("check_window_vs_bruhat", *_SHAPE),
    "sigma_count": Check("check_sigma_count", *_RANK),
    "pp_count": Check("check_pp_count", *_RANK),
    "phi_injective": Check("check_phi_injective", *_RANK),
    "phi_roundtrip": Check("check_phi_roundtrip", *_SIGMA),
    "leaf_roundtrip": Check("check_leaf_roundtrip",
                            lambda L: {"m": L.m, "n": L.n, "leaf": L.to_dict()},
                            lambda p: (LeafIndex.from_dict(p["leaf"]),)),
    "phi_lock": Check("check_phi_lock", *_SHAPE),
}


def _call(name: str, args: tuple) -> bool:
    # Looked up at call time, so that rebinding a ``check_*`` name takes effect.
    return globals()[CHECKS[name].fn](*args)


def replay(payload: dict) -> bool:
    """
    Re-run the check named in a counterexample payload on its embedded
    inputs; returns whether the check passes now.  A genuine counterexample
    returns ``False``, bit-exactly reproducing the failure.  A payload that
    is not an object, names no registered check, lacks or mistypes a field,
    or whose ``m``, ``n`` differ from those its decoded inputs encode to,
    raises ``ValueError``.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"a payload must be a JSON object, got {payload!r}")
    name = payload.get("check")
    if type(name) is not str or name not in CHECKS:
        raise ValueError(f"unknown check {name!r}")
    try:
        args = CHECKS[name].decode(payload)
        shape = _decode_shape(payload)
    except KeyError as exc:
        raise ValueError(f"{name} payload lacks the field {exc}") from None
    encoded = CHECKS[name].encode(*args)
    if (encoded["m"], encoded["n"]) != shape:
        raise ValueError(f"m, n = {shape[0]}, {shape[1]} disagree with the "
                         f"{encoded['m']}, {encoded['n']} of the {name} inputs")
    return _call(name, args)


# ---------------------------------------------------------------------------
# Sample generation


def _zeroed(x: RationalMatrix, zeros: set) -> RationalMatrix:
    """``x`` with 0 at each 0-based ``(row, col)`` position in ``zeros``."""
    return RationalMatrix([[0 if (r, c) in zeros else e for c, e in enumerate(row)]
                           for r, row in enumerate(x._values())])


def sample_stream(m: int, n: int, count: int, rng: random.Random):
    """Rank-rotating matrix stream with random degenerations layered on top."""
    tmax = min(m, n)
    for i in range(count):
        x = sample_rank(m, n, i % (tmax + 1), rng)
        style = rng.random()
        if style < 0.15 and m > 1:
            r = rng.randrange(m)
            x = _zeroed(x, {(r, c) for c in range(n)})
        elif style < 0.3 and n > 1:
            c = rng.randrange(n)
            x = _zeroed(x, {(r, c) for r in range(m)})
        elif style < 0.45:
            k = rng.randint(1, max(1, m * n // 3))
            x = _zeroed(x, {(rng.randrange(m), rng.randrange(n)) for _ in range(k)})
        yield x


# ---------------------------------------------------------------------------
# Campaign bodies


def _run_strata_stream(full: str, sampled: str, report: VerificationReport,
                       m: int, n: int, count: int, stream_seed: int) -> None:
    """
    ``full`` against all strata; above ``_EXHAUSTIVE_LIMIT``, ``sampled`` on
    a sample drawn from the indexed view, which lists none.  ``rng.sample``
    draws the same indices from any sequence of the same length.
    """
    rng = random.Random(stream_seed)
    view = leaf_view(m, n)
    exhaustive = len(view) <= _EXHAUSTIVE_LIMIT
    leaf_list = all_leaves(m, n) if exhaustive else view
    for x in sample_stream(m, n, count, rng):
        L0 = classify_leaf(x)  # kept on x, so the check reads it back
        if exhaustive:
            report.check(full, x, leaf_list)
        else:
            report.check(sampled, x, rng.sample(leaf_list, _OTHERS_PER_SAMPLE) + [L0])
        report.bump(f"rank_{L0.t}")


def _run_blocks_stream(report: VerificationReport, m: int, n: int, count: int,
                       stream_seed: int) -> None:
    for x in sample_stream(m, n, count, random.Random(stream_seed)):
        report.check("block_classes", x)
        report.bump(f"rank_{classify_leaf(x).t}")


def _run_phi_bijection(report: VerificationReport, m: int, n: int, *_) -> None:
    for t, leaves_of_rank in enumerate(_leaves_by_rank(m, n)):
        report.check("sigma_count", m, n, t)
        report.check("phi_injective", m, n, t)
        for s in _sigmas(m, n, t):
            report.check("phi_roundtrip", s)
        for L in leaves_of_rank:
            report.check("leaf_roundtrip", L)
        report.bump(f"sigma_count_{t}", len(_sigmas(m, n, t)))
    report.check("phi_lock", m, n)


def _run_counts(report: VerificationReport, m: int, n: int, *_) -> None:
    report.check("window_vs_bruhat", m, n)
    for t in range(min(m, n) + 1):
        report.check("sigma_count", m, n, t)
        report.check("pp_count", m, n, t)
        report.info[f"leaves_rank_{t}"] = len(_leaves_by_rank(m, n)[t])
    report.info["leaf_count"] = len(all_leaves(m, n))


def _pattern_sample(pat: EchelonPattern, rng: random.Random,
                    zero_prob: float) -> RationalMatrix:
    """A member of ``pat``: a column- or row-echelon sample."""
    if pat.kind == COLUMN:
        return sample_echelon_col(pat.rows, pat.t, pat.pivots, rng, zero_prob)
    return sample_echelon_row(pat.t, pat.cols, pat.pivots, rng, zero_prob)


def _run_echelon(report: VerificationReport, m: int, n: int, samples: int,
                 seed: int) -> None:
    rng = random.Random(derive_seed(seed, 0))
    per_pattern = max(3, samples // 50)
    for t in range(1, min(m, n) + 1):
        for side, long_dim in ((COLUMN, m), (ROW, n)):
            for pat in all_patterns(side, long_dim, t):
                for k in range(per_pattern):
                    zp = 0.0 if k % 2 == 0 else 0.4
                    report.check("echelon_member", _pattern_sample(pat, rng, zp), pat)
                rf = [_rand_nonzero(rng) for _ in range(pat.rows)]
                cf = [_rand_nonzero(rng) for _ in range(pat.cols)]
                report.check("torus_stability", _pattern_sample(pat, rng, 0.0), pat, rf, cf)
                if pat.kind == COLUMN:
                    for (y, z) in stratify_pattern(pat):
                        a = sample_column_stratum(pat.rows, t, y, z, rng)
                        report.check("echelon_stratum", a, pat.rows, t, y, z)
    # product tests across full quadruples
    for t in range(min(m, n) + 1):
        sigs = enumerate_sigma(m, n, t)
        budget = min(len(sigs), max(4, samples // 25))
        for sig in (sigs if len(sigs) <= budget else rng.sample(sigs, budget)):
            if t == 0:
                report.check("zero_product", sig)
                continue
            c = sample_column_stratum(m, t, sig.y, sig.z, rng)
            r = sample_row_stratum(t, n, sig.u, sig.v, rng)
            report.check("echelon_product", c, r, sig)
    report.bump("patterns_covered",
                sum(len(all_patterns(COLUMN, m, t)) + len(all_patterns(ROW, n, t))
                    for t in range(1, min(m, n) + 1)))


def _run_double_cells(report: VerificationReport, m: int, n: int, samples: int,
                      seed: int) -> None:
    rng = random.Random(derive_seed(seed, 0))
    for d in _double_cells(m, n):
        report.check("criteria_agreement", d)
        if is_nonempty(d):
            report.check("dense_orbit", d)
    report.check("orbit_partition", m, n)
    for x in sample_stream(m, n, samples, rng):
        report.check("sigma_in_double_cell", x)


# Each campaign, in CLI order: its body, and whether its samples split into streams.
_CAMPAIGNS: dict[str, tuple[Callable[..., None], bool]] = {
    "partition": (partial(_run_strata_stream, "unique_membership", "classify_equiv"), True),
    "thm42_equiv": (partial(_run_strata_stream, "classify_equiv", "classify_equiv"), True),
    "closure_order": (partial(_run_strata_stream, "closure_order", "closure_order"), True),
    "lemma75_blocks": (_run_blocks_stream, True),
    "phi_bijection": (_run_phi_bijection, False),
    "echelon_strata": (_run_echelon, False),
    "double_cells": (_run_double_cells, False),
    "counts": (_run_counts, False),
}

CAMPAIGNS = tuple(_CAMPAIGNS)


def _run_job(job: tuple) -> VerificationReport:
    """Run one job ``(campaign, m, n, samples, seed)`` into a report of its own."""
    campaign, *args = job
    part = VerificationReport()
    _CAMPAIGNS[campaign][0](part, *args)
    return part


def run(campaign: str, m: int, n: int, samples: int = 1000, seed: int = 0,
        threads: Optional[int] = None) -> VerificationReport:
    """Execute one campaign and return its report (deterministic given the seed)."""
    if campaign not in CAMPAIGNS:
        raise ValueError(f"unknown campaign {campaign!r}; choose from {CAMPAIGNS}")
    for name, value in (("m", m), ("n", n), ("samples", samples), ("seed", seed),
                        ("threads", 1 if threads is None else threads)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer, got {value!r}")
    check_shape(m, n)
    streamed = _CAMPAIGNS[campaign][1]
    least = 1 if streamed else 0  # a sampling campaign of 0 checks nothing
    if samples < least:
        raise ValueError(f"{campaign} needs samples >= {least}, got {samples}")
    threads = resolve_threads(threads)
    report = VerificationReport(campaign, {"m": m, "n": n, "samples": samples,
                                           "seed": seed})
    start = time.perf_counter()
    if streamed:  # fixed-size streams, seeded by index, whatever the worker count
        jobs = [(campaign, m, n, min(_STREAM_CHUNK, samples - first), derive_seed(seed, k))
                for k, first in enumerate(range(0, samples, _STREAM_CHUNK))]
    else:
        jobs = [(campaign, m, n, samples, seed)]
    if threads > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor  # multiprocessing only when used
        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(_run_job, jobs))
    else:
        parts = [_run_job(job) for job in jobs]
    for part in parts:
        report.add(part)
    report.wall_time = time.perf_counter() - start
    return report
