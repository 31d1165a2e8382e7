"""Seeded inputs for the benchmark, generated without importing ``leaf_atlas``.

The program under test sees only what this module produces, so a change to
the package's own samplers (``exact_matrix.sample_*``,
``harness.sample_stream``) cannot move these inputs.  The small exact
helpers here (integer rank, the displacement window, the Bruhat order) are
the benchmark's own reference code: they generate inputs and check outputs.
"""
from __future__ import annotations

import itertools
import random

ENTRY_BOUND = 9

# (m, n, matrices per pass) for the classify workload.
CLASSIFY_SHAPES = ((4, 4, 300), (10, 10, 60))

# Light strata commands per pass.
PHI_INV_STRATA = 60   # sampled 4x4 strata for ``sigma phi-inv``
DBC_PAIRS = 80        # sampled equal-rank 4x4 pairs for ``dbc nonempty``

# One strata part per heavy command, plus the session of light commands.
HEAVY_COMMANDS = {
    "enumerate-4x5": ("leaves", "enumerate", "--m", "4", "--n", "5"),
    "enumerate-5x4": ("leaves", "enumerate", "--m", "5", "--n", "4", "--format", "table"),
    "hasse-3x4": ("leaves", "hasse", "--m", "3", "--n", "4", "--format", "json"),
    "hasse-4x3": ("leaves", "hasse", "--m", "4", "--n", "3", "--format", "dot"),
}

# (campaign, m, n, samples) for the verify workload.
VERIFY_CAMPAIGNS = (
    ("double_cells", 3, 4, 50),
    ("echelon_strata", 4, 4, 100),
    ("phi_bijection", 4, 4, 0),
    ("thm42_equiv", 3, 3, 500),
    ("closure_order", 4, 4, 500),
)

# Each pass of a run executes one part of its workload in a fresh interpreter.
PARTS = {
    "classify": tuple(f"{m}x{n}" for m, n, _ in CLASSIFY_SHAPES),
    "strata": tuple(HEAVY_COMMANDS) + ("light",),
    "verify": tuple(c[0] for c in VERIFY_CAMPAIGNS),
}


def _rng(seed: int, *salt: int) -> random.Random:
    value = seed
    for s in salt:
        value = value * 1_000_003 + s
    return random.Random(value)


def int_rank(rows) -> int:
    """Exact rank of an integer matrix by fraction-free elimination."""
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    r, prev = 0, 1
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][c]
        for i in range(r + 1, m):
            f = a[i][c]
            for j in range(c + 1, n):
                a[i][j] = (p * a[i][j] - f * a[r][j]) // prev
            a[i][c] = 0
        prev = p
        r += 1
    return r


def _full_rank_factor(rng: random.Random, a: int, b: int) -> list[list[int]]:
    while True:
        f = [[rng.randint(-ENTRY_BOUND, ENTRY_BOUND) for _ in range(b)] for _ in range(a)]
        if int_rank(f) == min(a, b):
            return f


def rank_rotating_matrices(m: int, n: int, count: int, seed: int) -> list[dict]:
    """
    ``count`` integer ``m x n`` matrices.  Matrix ``i`` is the product of
    full-rank ``m x t`` and ``t x n`` factors with ``t = i mod (min(m,n)+1)``;
    then a random row (15%) or column (15%) may be zeroed.  Each item records
    the intended rank ``t`` and the zeroing applied.
    """
    rng = _rng(seed, m, n)
    out = []
    for i in range(count):
        t = i % (min(m, n) + 1)
        if t == 0:
            x = [[0] * n for _ in range(m)]
        else:
            a, b = _full_rank_factor(rng, m, t), _full_rank_factor(rng, t, n)
            x = [[sum(a[r][k] * b[k][c] for k in range(t)) for c in range(n)]
                 for r in range(m)]
        style = rng.random()
        zeroed = None
        if style < 0.15:
            zeroed = ("row", rng.randrange(m))
            x[zeroed[1]] = [0] * n
        elif style < 0.30:
            zeroed = ("col", rng.randrange(n))
            for row in x:
                row[zeroed[1]] = 0
        out.append({"matrix": x, "t": t, "zeroed": zeroed})
    return out


def classify_inputs(seed: int, part: str) -> list[dict]:
    """The classify workload's matrices of one shape."""
    m, n, count = next(s for s in CLASSIFY_SHAPES if f"{s[0]}x{s[1]}" == part)
    return rank_rotating_matrices(m, n, count, seed)


# ---------------------------------------------------------------------------
# Strata indices and partial permutations


def window_ok(w, m: int, n: int) -> bool:
    """Displacement window ``n <= w(i)+i-1 <= m+2n``: ``w`` indexes an ``m x n`` stratum."""
    return all(n <= x + i <= m + 2 * n for i, x in enumerate(w))


def rank_of_index(w, n: int) -> int:
    return sum(1 for x in w[:n] if x > n)


def bruhat_leq(y, z) -> bool:
    """Bruhat order by the tableau criterion on sorted prefixes."""
    return all(a <= b
               for p in range(1, len(y))
               for a, b in zip(sorted(y[:p]), sorted(z[:p])))


def subset_leq(left, right) -> bool:
    a, b = sorted(left), sorted(right)
    return len(a) == len(b) and all(x <= y for x, y in zip(a, b))


def sample_strata(m: int, n: int, count: int, rng: random.Random) -> list[tuple[int, ...]]:
    """Stratum indices of ``m x n`` drawn by rejection from uniform permutations."""
    out = []
    w = list(range(1, m + n + 1))
    while len(out) < count:
        rng.shuffle(w)
        if window_ok(w, m, n):
            out.append(tuple(w))
    return out


def sample_partial(m: int, n: int, t: int, rng: random.Random) -> dict[int, int]:
    """A uniform rank-``t`` partial permutation as a column -> row map."""
    cols = rng.sample(range(1, n + 1), t)
    rows = rng.sample(range(1, m + 1), t)
    return dict(zip(cols, rows))


def partial_literal(m: int, n: int, pp: dict[int, int]) -> str:
    return f"{m}x{n}:" + ",".join(f"{c}->{pp[c]}" for c in sorted(pp))


def dbc_nonempty(pp1: dict[int, int], pp2: dict[int, int]) -> bool:
    """The domain/range set criterion for a nonempty double cell."""
    return (len(pp1) == len(pp2)
            and subset_leq(pp1.keys(), pp2.keys())
            and subset_leq(pp2.values(), pp1.values()))


def column_patterns(m: int) -> list[str]:
    """Every column-echelon pattern literal with ``m`` rows."""
    return [f"col:{m},{t}:" + ",".join(map(str, piv))
            for t in range(1, m + 1)
            for piv in itertools.combinations(range(1, m + 1), t)]


def light_inputs(seed: int) -> dict:
    """Seeded arguments of the light strata commands: 4x4 strata and 4x4 pairs."""
    rng = _rng(seed, 4, 4)
    strata = sample_strata(4, 4, PHI_INV_STRATA, rng)
    pairs = []
    for i in range(DBC_PAIRS):
        t = i % 5
        pairs.append((sample_partial(4, 4, t, rng), sample_partial(4, 4, t, rng)))
    return {"strata": strata, "pairs": pairs, "patterns": column_patterns(5)}
